#include "dataframe/aggregate.h"

#include <algorithm>
#include <utility>

#include "dataframe/key_encoder.h"
#include "util/fault.h"
#include "util/trace.h"

namespace arda::df {

namespace {

double AggregateNumeric(const double* values, size_t count, NumericAgg agg,
                        std::vector<double>* scratch) {
  ARDA_CHECK_GT(count, 0u);
  switch (agg) {
    case NumericAgg::kMean: {
      double sum = 0.0;
      for (size_t i = 0; i < count; ++i) sum += values[i];
      return sum / static_cast<double>(count);
    }
    case NumericAgg::kMedian: {
      scratch->assign(values, values + count);
      size_t mid = count / 2;
      std::nth_element(scratch->begin(), scratch->begin() + mid,
                       scratch->end());
      double upper = (*scratch)[mid];
      if (count % 2 == 1) return upper;
      double lower = *std::max_element(scratch->begin(),
                                       scratch->begin() + mid);
      return 0.5 * (lower + upper);
    }
    case NumericAgg::kSum: {
      double sum = 0.0;
      for (size_t i = 0; i < count; ++i) sum += values[i];
      return sum;
    }
    case NumericAgg::kMin:
      return *std::min_element(values, values + count);
    case NumericAgg::kMax:
      return *std::max_element(values, values + count);
    case NumericAgg::kFirst:
      return values[0];
  }
  return 0.0;
}

// `values` holds pointers to the group's strings in row order; the span
// may be reordered in place.
const std::string& AggregateCategorical(const std::string** values,
                                        size_t count, CategoricalAgg agg) {
  ARDA_CHECK_GT(count, 0u);
  if (agg == CategoricalAgg::kFirst) return *values[0];
  // Mode; ties broken by lexicographic order. Sorting and scanning runs
  // visits distinct values in the same ascending order the old
  // std::map<string, count> iteration did, so the strict `count > best`
  // keeps the lexicographically smallest value among the most frequent.
  std::sort(values, values + count,
            [](const std::string* a, const std::string* b) { return *a < *b; });
  size_t best = 0;
  const std::string* winner = values[0];
  for (size_t i = 0; i < count;) {
    size_t j = i + 1;
    while (j < count && *values[j] == *values[i]) ++j;
    if (j - i > best) {
      best = j - i;
      winner = values[i];
    }
    i = j;
  }
  return *winner;
}

Result<DataFrame> GroupByAggregateImpl(const DataFrame& frame,
                                       const std::vector<size_t>& key_idx,
                                       const KeyEncoder& encoder,
                                       const AggregateOptions& options) {
  trace::StageScope scope("preaggregate");
  ARDA_FAULT_POINT(fault::kPreAggregate);
  const size_t n = frame.NumRows();
  const std::vector<size_t>& group_first_row = encoder.group_first_row();
  const size_t num_groups = group_first_row.size();

  DataFrame out;
  // Key columns: take the first row of each group.
  for (size_t ki : key_idx) {
    ARDA_RETURN_IF_ERROR(
        out.AddColumn(frame.col(ki).Take(group_first_row)));
  }

  // Value columns, bucketed once into a flat CSR layout per column (group
  // offsets + packed values in row order) — no per-group heap vectors.
  std::vector<size_t> offsets;
  std::vector<size_t> cursor;
  std::vector<double> flat_doubles;
  std::vector<const std::string*> flat_strings;
  std::vector<double> scratch;
  for (size_t ci = 0; ci < frame.NumCols(); ++ci) {
    if (std::find(key_idx.begin(), key_idx.end(), ci) != key_idx.end()) {
      continue;
    }
    const Column& col = frame.col(ci);
    const uint64_t* gids = encoder.row_groups().data();
    const uint8_t* valid = col.ValidityData();
    offsets.assign(num_groups + 1, 0);
    for (size_t r = 0; r < n; ++r) {
      if (valid[r]) ++offsets[gids[r] + 1];
    }
    for (size_t g = 0; g < num_groups; ++g) offsets[g + 1] += offsets[g];
    cursor.assign(offsets.begin(), offsets.end() - 1);
    // Scatters run in ascending row order: the per-group value order the
    // ordered aggregates (kFirst) depend on.
    if (col.IsNumeric()) {
      flat_doubles.resize(offsets[num_groups]);
      if (col.type() == DataType::kDouble) {
        const double* doubles = col.DoubleData();
        for (size_t r = 0; r < n; ++r) {
          if (valid[r]) flat_doubles[cursor[gids[r]]++] = doubles[r];
        }
      } else {
        const int64_t* ints = col.Int64Data();
        for (size_t r = 0; r < n; ++r) {
          if (valid[r]) {
            flat_doubles[cursor[gids[r]]++] =
                static_cast<double>(ints[r]);
          }
        }
      }
      Column agg_col = Column::Empty(col.name(), DataType::kDouble);
      for (size_t g = 0; g < num_groups; ++g) {
        size_t count = offsets[g + 1] - offsets[g];
        if (count == 0) {
          agg_col.AppendNull();
        } else {
          agg_col.AppendDouble(AggregateNumeric(
              flat_doubles.data() + offsets[g], count, options.numeric,
              &scratch));
        }
      }
      ARDA_RETURN_IF_ERROR(out.AddColumn(std::move(agg_col)));
    } else {
      flat_strings.resize(offsets[num_groups]);
      for (size_t r = 0; r < n; ++r) {
        if (valid[r]) {
          flat_strings[cursor[gids[r]]++] = &col.StringAt(r);
        }
      }
      Column agg_col = Column::Empty(col.name(), DataType::kString);
      for (size_t g = 0; g < num_groups; ++g) {
        size_t count = offsets[g + 1] - offsets[g];
        if (count == 0) {
          agg_col.AppendNull();
        } else {
          agg_col.AppendString(AggregateCategorical(
              flat_strings.data() + offsets[g], count, options.categorical));
        }
      }
      ARDA_RETURN_IF_ERROR(out.AddColumn(std::move(agg_col)));
    }
  }

  if (options.add_count) {
    const uint64_t* gids = encoder.row_groups().data();
    std::vector<int64_t> counts(num_groups, 0);
    for (size_t r = 0; r < n; ++r) ++counts[gids[r]];
    ARDA_RETURN_IF_ERROR(
        out.AddColumn(Column::Int64("__group_count", std::move(counts))));
  }
  return out;
}

Status ResolveKeys(const DataFrame& frame,
                   const std::vector<std::string>& keys,
                   std::vector<size_t>* key_idx) {
  if (keys.empty()) {
    return Status::InvalidArgument("GroupByAggregate requires key columns");
  }
  for (const std::string& key : keys) {
    size_t i = frame.ColumnIndex(key);
    if (i == DataFrame::kNpos) {
      return Status::NotFound("no such key column: " + key);
    }
    key_idx->push_back(i);
  }
  return Status::Ok();
}

}  // namespace

Result<DataFrame> GroupByAggregate(const DataFrame& frame,
                                   const std::vector<std::string>& keys,
                                   const AggregateOptions& options) {
  std::vector<size_t> key_idx;
  ARDA_RETURN_IF_ERROR(ResolveKeys(frame, keys, &key_idx));
  // Group rows via interned integer keys, groups numbered in
  // first-occurrence order (same ordering the string-keyed map produced).
  KeyEncoder encoder(frame, key_idx);
  return GroupByAggregateImpl(frame, key_idx, encoder, options);
}

Result<DataFrame> GroupByAggregate(const DataFrame& frame,
                                   const std::vector<std::string>& keys,
                                   const KeyEncoder& encoder,
                                   const AggregateOptions& options) {
  std::vector<size_t> key_idx;
  ARDA_RETURN_IF_ERROR(ResolveKeys(frame, keys, &key_idx));
  ARDA_CHECK_EQ(encoder.num_rows(), frame.NumRows());
  return GroupByAggregateImpl(frame, key_idx, encoder, options);
}

}  // namespace arda::df
