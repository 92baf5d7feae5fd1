#include "join/join_executor.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>

#include "dataframe/key_encoder.h"
#include "join/resample.h"
#include "util/fault.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace arda::join {

namespace {

constexpr size_t kNoMatch = static_cast<size_t>(-1);

// Per-base-row match result. For two-way joins `high`/`lambda` describe
// the interpolation partner: value = lambda * row(low) + (1-lambda) *
// row(high).
struct Match {
  size_t low = kNoMatch;
  size_t high = kNoMatch;
  double lambda = 1.0;
};


// Nearest / two-way nearest matching within one sorted partition of
// (key value, foreign row) pairs.
Match MatchSoft(const std::vector<std::pair<double, size_t>>& sorted,
                double value, SoftJoinMethod method, double tolerance) {
  Match match;
  if (sorted.empty()) return match;
  auto it = std::lower_bound(
      sorted.begin(), sorted.end(), value,
      [](const std::pair<double, size_t>& a, double v) { return a.first < v; });
  // Candidates: the first element >= value and its predecessor.
  size_t hi_idx = static_cast<size_t>(it - sorted.begin());
  size_t lo_idx = hi_idx == 0 ? kNoMatch : hi_idx - 1;
  if (hi_idx == sorted.size()) hi_idx = kNoMatch;

  auto distance = [&](size_t idx) {
    return std::fabs(sorted[idx].first - value);
  };

  if (method == SoftJoinMethod::kNearest) {
    size_t best = kNoMatch;
    if (lo_idx != kNoMatch && hi_idx != kNoMatch) {
      best = distance(lo_idx) <= distance(hi_idx) ? lo_idx : hi_idx;
    } else if (lo_idx != kNoMatch) {
      best = lo_idx;
    } else {
      best = hi_idx;
    }
    if (best != kNoMatch &&
        (tolerance <= 0.0 || distance(best) <= tolerance)) {
      match.low = sorted[best].second;
    }
    return match;
  }

  // Two-way nearest: surround `value` when possible.
  if (lo_idx != kNoMatch && hi_idx != kNoMatch) {
    double y_low = sorted[lo_idx].first;
    double y_high = sorted[hi_idx].first;
    if (tolerance > 0.0 && distance(lo_idx) > tolerance &&
        distance(hi_idx) > tolerance) {
      return match;
    }
    if (y_high <= y_low) {
      match.low = sorted[lo_idx].second;
      return match;
    }
    // value = lambda * y_low + (1 - lambda) * y_high.
    double lambda = (y_high - value) / (y_high - y_low);
    match.low = sorted[lo_idx].second;
    match.high = sorted[hi_idx].second;
    match.lambda = std::clamp(lambda, 0.0, 1.0);
    return match;
  }
  size_t only = lo_idx != kNoMatch ? lo_idx : hi_idx;
  if (only != kNoMatch && (tolerance <= 0.0 || distance(only) <= tolerance)) {
    match.low = sorted[only].second;
  }
  return match;
}

}  // namespace

const char* SoftJoinMethodName(SoftJoinMethod method) {
  switch (method) {
    case SoftJoinMethod::kHardExact:
      return "hard";
    case SoftJoinMethod::kNearest:
      return "nearest";
    case SoftJoinMethod::kTwoWayNearest:
      return "2-way";
  }
  return "unknown";
}

Result<df::DataFrame> ExecuteLeftJoin(const df::DataFrame& base,
                                      const df::DataFrame& foreign,
                                      const discovery::CandidateJoin& cand,
                                      const JoinOptions& options, Rng* rng) {
  if (cand.keys.empty()) {
    return Status::InvalidArgument("candidate join has no keys");
  }
  trace::TraceSpan join_span("join.execute", "join", cand.foreign_table);
  metrics::IncrementCounter("join.executions_total");
  // Validate keys and classify.
  std::vector<discovery::JoinKeyPair> hard_keys;
  const discovery::JoinKeyPair* soft_key = nullptr;
  for (const discovery::JoinKeyPair& key : cand.keys) {
    if (!base.HasColumn(key.base_column)) {
      return Status::NotFound("base key column missing: " + key.base_column);
    }
    if (!foreign.HasColumn(key.foreign_column)) {
      return Status::NotFound("foreign key column missing: " +
                              key.foreign_column);
    }
    bool treat_soft = key.kind == discovery::KeyKind::kSoft &&
                      options.soft_method != SoftJoinMethod::kHardExact;
    if (treat_soft) {
      if (!base.col(key.base_column).IsNumeric() ||
          !foreign.col(key.foreign_column).IsNumeric()) {
        return Status::InvalidArgument("soft keys must be numeric: " +
                                       key.base_column);
      }
      if (soft_key != nullptr) {
        return Status::InvalidArgument(
            "composite keys support at most one soft key");
      }
      soft_key = &key;
    } else {
      hard_keys.push_back(key);
    }
  }

  // Optional time resampling: align a finer-grained foreign key to the
  // base key's granularity. Applies to any numeric soft-kind key, for all
  // soft methods including hard-exact (the paper's "time-resampled hard
  // join").
  df::DataFrame working = foreign;
  const discovery::JoinKeyPair* numeric_key = nullptr;
  for (const discovery::JoinKeyPair& key : cand.keys) {
    if (key.kind == discovery::KeyKind::kSoft &&
        base.col(key.base_column).IsNumeric() &&
        foreign.col(key.foreign_column).IsNumeric()) {
      numeric_key = &key;
      break;
    }
  }
  double bucket_granularity = 0.0;
  if (options.time_resample && numeric_key != nullptr) {
    double g_base = DetectGranularity(base.col(numeric_key->base_column));
    double g_foreign =
        DetectGranularity(foreign.col(numeric_key->foreign_column));
    if (g_base > 0.0 && g_foreign > 0.0 && g_base > 1.5 * g_foreign) {
      ARDA_ASSIGN_OR_RETURN(
          working, TimeResample(working, numeric_key->foreign_column, g_base,
                                options.aggregate));
      if (soft_key == nullptr) {
        // Hard-exact matching on a resampled key: bucket the base values
        // the same way so representatives align.
        bucket_granularity = g_base;
      }
    }
  }

  // Column-name lists on the (possibly resampled) foreign table.
  std::vector<std::string> foreign_key_cols;
  for (const discovery::JoinKeyPair& key : cand.keys) {
    foreign_key_cols.push_back(key.foreign_column);
  }
  std::vector<std::string> hard_foreign_cols;
  std::vector<std::string> hard_base_cols;
  for (const discovery::JoinKeyPair& key : hard_keys) {
    hard_foreign_cols.push_back(key.foreign_column);
    hard_base_cols.push_back(key.base_column);
  }

  // Interned hard keys: the foreign side's key tuples are
  // dictionary-encoded once, and base rows probe the dictionaries with no
  // per-row string composition. Bucketing for time-resampled hard joins
  // applies on the probe side only, exactly like the old per-row bucketed
  // key composition.
  std::vector<size_t> hard_base_idx;
  df::KeyEncoder::Options key_opts;
  for (const discovery::JoinKeyPair& hk : hard_keys) {
    const df::Column& col = base.col(hk.base_column);
    hard_base_idx.push_back(base.ColumnIndex(hk.base_column));
    key_opts.probe_types.push_back(col.type());
    key_opts.probe_granularity.push_back(
        bucket_granularity > 0.0 &&
                hk.kind == discovery::KeyKind::kSoft && col.IsNumeric()
            ? bucket_granularity
            : 0.0);
  }

  ARDA_FAULT_POINT(fault::kJoinKeyEncode);

  const size_t n = base.NumRows();
  std::vector<Match> matches(n);

  if (soft_key == nullptr) {
    // One-to-many handling: pre-aggregate so each key combination appears
    // exactly once; hard joins aggregate only when the foreign key tuples
    // repeat, which the first index build detects for free (with no soft
    // key, foreign_key_cols and hard_foreign_cols coincide).
    df::KeyEncoder index(working, hard_foreign_cols, key_opts);
    if (index.HasDuplicates()) {
      ARDA_ASSIGN_OR_RETURN(
          working, df::GroupByAggregate(working, foreign_key_cols, index,
                                        options.aggregate));
      index = df::KeyEncoder(working, hard_foreign_cols, key_opts);
    }

    // Resolve every probe row's hard-key group id in one SIMD batch; the
    // per-row loop below keeps the any-null skip semantics unchanged.
    std::vector<uint64_t> gids(n);
    index.ProbeAll(base, hard_base_idx, gids.data());

    // Pure hash join on the interned composite hard key; the first
    // foreign row of each key group wins, matching the old
    // emplace-keeps-first index.
    for (size_t r = 0; r < n; ++r) {
      bool any_null = false;
      for (const std::string& name : hard_base_cols) {
        if (base.col(name).IsNull(r)) {
          any_null = true;
          break;
        }
      }
      if (any_null) continue;
      const uint64_t gid = gids[r];
      if (gid != df::KeyEncoder::kMiss) {
        matches[r].low = index.group_first_row()[gid];
      }
    }
  } else {
    // Soft joins always aggregate (interpolation needs a unique row per
    // key value).
    ARDA_ASSIGN_OR_RETURN(working,
                          df::GroupByAggregate(working, foreign_key_cols,
                                               options.aggregate));
    df::KeyEncoder index(working, hard_foreign_cols, key_opts);

    std::vector<uint64_t> gids(n);
    index.ProbeAll(base, hard_base_idx, gids.data());

    // Partition the foreign table by the hard part of the key, sort each
    // partition by the soft key, then match per base row.
    std::vector<std::vector<std::pair<double, size_t>>> partitions(
        index.num_groups());
    const df::Column& fsoft = working.col(soft_key->foreign_column);
    for (size_t r = 0; r < working.NumRows(); ++r) {
      if (fsoft.IsNull(r)) continue;
      partitions[index.GroupOf(r)].emplace_back(fsoft.NumericAt(r), r);
    }
    for (auto& rows : partitions) {
      std::sort(rows.begin(), rows.end());
    }
    const df::Column& bsoft = base.col(soft_key->base_column);
    for (size_t r = 0; r < n; ++r) {
      if (bsoft.IsNull(r)) continue;
      bool any_null = false;
      for (const std::string& name : hard_base_cols) {
        if (base.col(name).IsNull(r)) {
          any_null = true;
          break;
        }
      }
      if (any_null) continue;
      const uint64_t gid = gids[r];
      if (gid == df::KeyEncoder::kMiss || partitions[gid].empty()) continue;
      matches[r] = MatchSoft(partitions[gid], bsoft.NumericAt(r),
                             options.soft_method, options.soft_tolerance);
    }
  }

  // Assemble the output: all base columns, then foreign value columns.
  df::DataFrame out = base;
  std::string prefix = options.column_prefix.empty()
                           ? cand.foreign_table + "."
                           : options.column_prefix;
  df::DataFrame joined_cols;
  for (size_t ci = 0; ci < working.NumCols(); ++ci) {
    const df::Column& src = working.col(ci);
    if (std::find(foreign_key_cols.begin(), foreign_key_cols.end(),
                  src.name()) != foreign_key_cols.end()) {
      continue;  // key columns are already represented in the base table
    }
    const bool interpolate =
        soft_key != nullptr &&
        options.soft_method == SoftJoinMethod::kTwoWayNearest &&
        src.IsNumeric();
    df::Column dst =
        interpolate ? df::Column::Empty(src.name(), df::DataType::kDouble)
                    : df::Column::Empty(src.name(), src.type());
    for (size_t r = 0; r < n; ++r) {
      const Match& m = matches[r];
      if (m.low == kNoMatch) {
        dst.AppendNull();
        continue;
      }
      if (m.high == kNoMatch) {
        if (interpolate) {
          if (src.IsNull(m.low)) {
            dst.AppendNull();
          } else {
            dst.AppendDouble(src.NumericAt(m.low));
          }
        } else {
          dst.AppendFrom(src, m.low);
        }
        continue;
      }
      // Two-way interpolation between rows m.low and m.high.
      if (src.IsNumeric()) {
        if (src.IsNull(m.low) || src.IsNull(m.high)) {
          dst.AppendNull();
        } else {
          dst.AppendDouble(m.lambda * src.NumericAt(m.low) +
                           (1.0 - m.lambda) * src.NumericAt(m.high));
        }
      } else {
        size_t pick = rng->Bernoulli(m.lambda) ? m.low : m.high;
        dst.AppendFrom(src, pick);
      }
    }
    ARDA_RETURN_IF_ERROR(joined_cols.AddColumn(std::move(dst)));
  }
  ARDA_RETURN_IF_ERROR(out.HStack(joined_cols, prefix));
  metrics::ObserveSize("join.output_rows", static_cast<double>(out.NumRows()));
  metrics::ObserveSize("join.output_cols", static_cast<double>(out.NumCols()));
  return out;
}

}  // namespace arda::join
