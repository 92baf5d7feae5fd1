#ifndef ARDA_DATAFRAME_AGGREGATE_H_
#define ARDA_DATAFRAME_AGGREGATE_H_

#include <string>
#include <vector>

#include "dataframe/data_frame.h"
#include "util/status.h"

namespace arda::df {

class KeyEncoder;

/// Aggregation applied to non-key numeric columns during group-by.
enum class NumericAgg { kMean, kMedian, kSum, kMin, kMax, kFirst };

/// Aggregation applied to non-key string columns during group-by.
enum class CategoricalAgg { kMode, kFirst };

/// Options for GroupByAggregate.
struct AggregateOptions {
  NumericAgg numeric = NumericAgg::kMean;
  CategoricalAgg categorical = CategoricalAgg::kMode;
  /// When true, adds an int64 "__group_count" column with group sizes.
  bool add_count = false;
};

/// Groups `frame` by the given key columns and aggregates every other
/// column per `options`. Key columns keep their type and hold one row per
/// distinct key combination (null keys form their own group); aggregated
/// numeric columns become kDouble. Groups appear in first-occurrence order.
///
/// This is the primitive behind ARDA's one-to-many pre-aggregation and time
/// resampling (Section 4 of the paper).
Result<DataFrame> GroupByAggregate(const DataFrame& frame,
                                   const std::vector<std::string>& keys,
                                   const AggregateOptions& options = {});

/// As above, but reuses a KeyEncoder already built over `frame[keys]`
/// (e.g. a join's duplicate-detection pass) instead of re-encoding the
/// key columns. The encoder must have been built on this exact frame.
Result<DataFrame> GroupByAggregate(const DataFrame& frame,
                                   const std::vector<std::string>& keys,
                                   const KeyEncoder& encoder,
                                   const AggregateOptions& options = {});

}  // namespace arda::df

#endif  // ARDA_DATAFRAME_AGGREGATE_H_
