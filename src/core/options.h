#ifndef ARDA_CORE_OPTIONS_H_
#define ARDA_CORE_OPTIONS_H_

#include <string>

#include "core/config.h"
#include "ml/dataset.h"
#include "util/status.h"

namespace arda::core {

/// String-keyed run options — the spelling shared by the CLI's flags and
/// the augmentation service's per-request JSON. Both front ends translate
/// through MakeArdaConfig below, so a service request and a CLI
/// invocation with the same spellings produce the same ArdaConfig (and,
/// by the determinism contract, byte-identical deterministic reports).
struct RunOptions {
  /// "regression" or "classification".
  std::string task = "regression";
  /// Feature selector name (featsel::MakeSelector registry).
  std::string selector = "rifs";
  /// Join plan: "budget", "table" or "full".
  std::string plan = "budget";
  /// Candidate ordering before batching: "cost" or "score".
  std::string plan_order = "cost";
  /// Soft-key method: "2way", "nearest" or "hard".
  std::string soft_join = "2way";
  uint64_t seed = 42;
  /// Threads for the parallel pipeline regions (0 = hardware
  /// concurrency). Never affects results.
  size_t num_threads = 0;
};

/// Translates options into an ARDA configuration. InvalidArgument on any
/// unknown spelling.
Result<ArdaConfig> MakeArdaConfig(const RunOptions& options);

/// Parses "regression" / "classification"; InvalidArgument otherwise.
Result<ml::TaskType> ParseTaskType(const std::string& task);

/// Logging knobs shared by both front ends (`--log-level`,
/// `--log-format`; docs/observability.md "Structured logging"). Empty
/// string = leave the process default (warn / text, or whatever
/// `ARDA_LOG` armed) untouched.
struct LogOptions {
  std::string level;   // debug | info | warn | error | off
  std::string format;  // text | json
};

/// Applies the non-empty fields to the process logger
/// (util/log.h). InvalidArgument on an unknown spelling — flags fail
/// loudly where the ARDA_LOG environment fallback only warns.
Status ApplyLogOptions(const LogOptions& options);

}  // namespace arda::core

#endif  // ARDA_CORE_OPTIONS_H_
