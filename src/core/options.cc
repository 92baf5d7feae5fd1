#include "core/options.h"

#include "util/log.h"

namespace arda::core {

Status ApplyLogOptions(const LogOptions& options) {
  if (!options.level.empty() && !log::SetLevelFromSpec(options.level)) {
    return Status::InvalidArgument(
        "bad log level: " + options.level +
        " (want debug|info|warn|error|off)");
  }
  if (!options.format.empty() && !log::SetFormatFromSpec(options.format)) {
    return Status::InvalidArgument("bad log format: " + options.format +
                                   " (want text|json)");
  }
  return Status::Ok();
}

Result<ml::TaskType> ParseTaskType(const std::string& task) {
  if (task == "regression") return ml::TaskType::kRegression;
  if (task == "classification") return ml::TaskType::kClassification;
  return Status::InvalidArgument("bad task: " + task +
                                 " (want regression|classification)");
}

Result<ArdaConfig> MakeArdaConfig(const RunOptions& options) {
  // Validate even the fields that do not land in the config, so a bad
  // request fails up front instead of deep inside the pipeline.
  ARDA_RETURN_IF_ERROR(ParseTaskType(options.task).status());

  ArdaConfig config;
  config.seed = options.seed;
  config.num_threads = options.num_threads;
  config.selector = options.selector;
  if (options.plan == "budget") {
    config.plan = JoinPlanKind::kBudget;
  } else if (options.plan == "table") {
    config.plan = JoinPlanKind::kTableAtATime;
  } else if (options.plan == "full") {
    config.plan = JoinPlanKind::kFullMaterialization;
  } else {
    return Status::InvalidArgument("bad plan: " + options.plan +
                                   " (want budget|table|full)");
  }
  if (options.plan_order == "cost") {
    config.cost_based_ordering = true;
  } else if (options.plan_order == "score") {
    config.cost_based_ordering = false;
  } else {
    return Status::InvalidArgument("bad plan order: " + options.plan_order +
                                   " (want cost|score)");
  }
  if (options.soft_join == "2way") {
    config.join.soft_method = join::SoftJoinMethod::kTwoWayNearest;
  } else if (options.soft_join == "nearest") {
    config.join.soft_method = join::SoftJoinMethod::kNearest;
  } else if (options.soft_join == "hard") {
    config.join.soft_method = join::SoftJoinMethod::kHardExact;
  } else {
    return Status::InvalidArgument("bad soft join: " + options.soft_join +
                                   " (want 2way|nearest|hard)");
  }
  return config;
}

}  // namespace arda::core
