#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <vector>

#include "core/arda.h"
#include "core/config.h"
#include "featsel/rifs.h"
#include "ml/evaluator.h"
#include "spans.h"
#include "util/rng.h"
#include "util/status.h"

namespace perfbench {

/// What a replayed augmentation produced, beyond the report itself.
struct ReplayOutcome {
  /// The deterministic fields of the report, as core::Arda::Run fills
  /// them; core::DeterministicReportJson of this must equal the real
  /// run's bytes.
  arda::core::ArdaReport report;
  size_t join_calls = 0;
  size_t join_failed = 0;
  /// Threshold-sweep model trainings of the selector.
  size_t evaluations = 0;
  /// Encoded features handed to the selector, and the ones it kept,
  /// summed over batches.
  size_t features_considered = 0;
  size_t features_selected = 0;
  /// final_objective() of every l2,1 sparse-regression fit.
  std::vector<double> sparse_objectives;
};

/// Replays core::Arda::Run(task) under `config` by calling each module's
/// public functions in the order Arda::Run calls them, with a span from
/// `log` around each call: coreset sample, statistics catalog, discovery,
/// planning, joins, imputation, encoding, feature selection (RIFS broken
/// into noise draws and per-round forest and sparse-regression ranks) and
/// evaluation. The replay consumes the random stream exactly as the
/// pipeline does, so its report is byte-identical to the real run's.
arda::Result<ReplayOutcome> ReplayAugmentation(
    const arda::core::AugmentationTask& task,
    const arda::core::ArdaConfig& config, SpanLog* log);

/// The RIFS selection of one batch (featsel::RunRifs), replayed with
/// spans. Adds its sweep evaluations and sparse objectives to `outcome`.
arda::featsel::RifsResult ReplayRifs(const arda::ml::Dataset& data,
                                     const arda::ml::Evaluator& evaluator,
                                     const arda::featsel::RifsConfig& config,
                                     arda::Rng* rng, SpanLog* log,
                                     ReplayOutcome* outcome);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
