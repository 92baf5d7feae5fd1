#ifndef ARDA_JOIN_JOIN_EXECUTOR_H_
#define ARDA_JOIN_JOIN_EXECUTOR_H_

#include <string>
#include <vector>

#include "dataframe/aggregate.h"
#include "dataframe/data_frame.h"
#include "discovery/candidate.h"
#include "util/rng.h"
#include "util/status.h"

namespace arda::join {

/// How soft (inexact) keys are matched (Section 4 of the paper).
enum class SoftJoinMethod {
  /// Treat the soft key as hard: only exact value matches join.
  kHardExact,
  /// Join each base row with the single closest foreign key value.
  kNearest,
  /// Find the closest foreign keys below and above the base value and
  /// lambda-interpolate their rows (numeric columns linearly, categorical
  /// columns picked randomly in proportion to lambda).
  kTwoWayNearest,
};

/// Returns a short name for the method ("hard", "nearest", "2-way").
const char* SoftJoinMethodName(SoftJoinMethod method);

/// Options controlling join execution.
struct JoinOptions {
  SoftJoinMethod soft_method = SoftJoinMethod::kTwoWayNearest;
  /// When the base soft key is coarser than the foreign key, resample the
  /// foreign table to the base granularity before matching.
  bool time_resample = true;
  /// Nearest-neighbour matches farther than this produce nulls; 0 = no
  /// limit.
  double soft_tolerance = 0.0;
  /// Aggregation used for one-to-many pre-aggregation and resampling.
  df::AggregateOptions aggregate;
  /// Prefix applied to foreign columns on name collision; defaults to
  /// "<table>." when empty and the candidate names a table.
  std::string column_prefix;
};

/// Executes the augmentation join ARDA needs: a LEFT JOIN that keeps every
/// base row exactly once. One-to-many foreign matches are pre-aggregated
/// on the key (Section 4 "Join Cardinality"); soft keys are matched per
/// `options.soft_method`; composite keys may mix hard keys with at most
/// one soft key (hard keys partition, the soft key matches nearest within
/// the partition). Unmatched rows carry nulls (impute separately).
///
/// The result contains all base columns followed by the foreign non-key
/// columns, renamed "<prefix><name>" on collision.
Result<df::DataFrame> ExecuteLeftJoin(const df::DataFrame& base,
                                      const df::DataFrame& foreign,
                                      const discovery::CandidateJoin& cand,
                                      const JoinOptions& options, Rng* rng);

}  // namespace arda::join

#endif  // ARDA_JOIN_JOIN_EXECUTOR_H_
