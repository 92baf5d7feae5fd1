#include "ml/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "simd/simd.h"
#include "util/check.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "util/trace.h"

namespace arda::ml {

namespace {

// Monotone map from double to uint64_t: a < b (as doubles) iff
// OrderedBits(a) < OrderedBits(b), except that -0.0 orders before +0.0
// where operator< calls them equal. The threshold scan never distinguishes
// the two (equal values merge into one run), so the scan output is
// unaffected by that tie order. Every NaN maps to the single largest key,
// defining the tree-wide NaN ordering: NaN sorts after +inf and all NaNs
// are equal (raw bit-pattern ordering would scatter negative-sign NaNs
// below -inf, diverging from the comparison sort's NanAwareLess).
uint64_t OrderedBits(double d) {
  if (std::isnan(d)) return ~0ull;
  uint64_t b;
  std::memcpy(&b, &d, sizeof(b));
  return (b & 0x8000000000000000ull) ? ~b : (b | 0x8000000000000000ull);
}

// The comparison-sort side of the same ordering: a strict weak order that
// matches operator< on non-NaN values and places NaN last, all NaNs tied.
// (Plain operator< is not a strict weak order once NaN appears, so the
// regression presort's std::sort would otherwise be undefined and could
// disagree with the radix sorts.)
bool NanAwareLess(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return !std::isnan(a);
  return a < b;
}

// Equality under the same ordering: operator== on reals (so -0.0 and +0.0
// still merge into one threshold run) and all NaNs equal to each other.
bool SameValue(double a, double b) {
  return a == b || (std::isnan(a) && std::isnan(b));
}

// Stable LSD radix sort by key; within equal keys the input order is kept,
// so (OrderedBits(value), row) pairs built in ascending row order come out
// exactly like std::sort over (value, row). Digits whose byte is constant
// across all keys (the common case for exponent bytes) are skipped.
void RadixSortByKey(std::vector<std::pair<uint64_t, uint32_t>>* a,
                    std::vector<std::pair<uint64_t, uint32_t>>* tmp) {
  const size_t n = a->size();
  if (n < 2) return;
  tmp->resize(n);
  size_t hist[8][256] = {};
  for (const auto& kv : *a) {
    for (size_t d = 0; d < 8; ++d) ++hist[d][(kv.first >> (8 * d)) & 0xFF];
  }
  auto* src = a;
  auto* dst = tmp;
  for (size_t d = 0; d < 8; ++d) {
    const size_t* h = hist[d];
    if (h[(src->front().first >> (8 * d)) & 0xFF] == n) continue;
    size_t pos[256];
    size_t sum = 0;
    for (size_t b = 0; b < 256; ++b) {
      pos[b] = sum;
      sum += h[b];
    }
    for (const auto& kv : *src) {
      (*dst)[pos[(kv.first >> (8 * d)) & 0xFF]++] = kv;
    }
    std::swap(src, dst);
  }
  if (src != a) a->swap(*tmp);
}

// Key of the ranked mode's order: OrderedBits with -0.0 folded onto +0.0,
// so equal keys are exactly the values SameValue calls equal.
uint64_t RankKey(double d) { return OrderedBits(d == 0.0 ? 0.0 : d); }

// Counts per integer class label over the fitted rows; labels are assumed
// in [0, num_classes).
size_t NumClassesIn(const std::vector<double>& y,
                    const std::vector<uint32_t>& rows) {
  double max_label = 0.0;
  for (uint32_t r : rows) max_label = std::max(max_label, y[r]);
  return static_cast<size_t>(std::lround(max_label)) + 1;
}

double GiniTimesCount(const std::vector<double>& counts, double total) {
  if (total <= 0.0) return 0.0;
  double sum_sq = 0.0;
  for (double c : counts) sum_sq += c * c;
  return total - sum_sq / total;  // total * (1 - sum p_i^2)
}

}  // namespace

RankedColumns::RankedColumns(const la::Matrix& x,
                             const std::vector<double>& y,
                             size_t num_threads)
    : rows(x.rows()),
      cols(x.cols()),
      rank(rows * cols),
      num_ranks(cols),
      entries(rows * cols) {
  ARDA_CHECK_EQ(rows, y.size());
  ARDA_CHECK_LT(rows, static_cast<size_t>(UINT32_MAX));
  // Rows in target order, once: a stable sort by value over this order
  // leaves every column sorted by (value, target).
  std::vector<uint64_t> target_keys(rows);
  std::vector<std::pair<uint64_t, uint32_t>> by_target(rows), radix_tmp;
  for (size_t i = 0; i < rows; ++i) {
    target_keys[i] = RankKey(y[i]);
    by_target[i] = {target_keys[i], static_cast<uint32_t>(i)};
  }
  RadixSortByKey(&by_target, &radix_tmp);
  // One task per block of 8 columns: the block's values are copied out of
  // the row-major matrix together, one cache line per row.
  constexpr size_t kBlock = 8;
  ParallelFor((cols + kBlock - 1) / kBlock, num_threads, [&](size_t block) {
    const size_t f0 = block * kBlock;
    const size_t width = std::min(kBlock, cols - f0);
    std::vector<double> values(width * rows);
    for (size_t row = 0; row < rows; ++row) {
      const double* src = x.RowPtr(row) + f0;
      for (size_t c = 0; c < width; ++c) values[c * rows + row] = src[c];
    }
    std::vector<std::pair<uint64_t, uint32_t>> keys(rows), tmp;
    for (size_t c = 0; c < width; ++c) {
      const double* col = values.data() + c * rows;
      for (size_t i = 0; i < rows; ++i) {
        const uint32_t row = by_target[i].second;
        keys[i] = {RankKey(col[row]), row};
      }
      RadixSortByKey(&keys, &tmp);
      const size_t f = f0 + c;
      uint32_t* col_rank = rank.data() + f * rows;
      Entry* col_entries = entries.data() + f * rows;
      uint32_t r = 0;
      for (size_t i = 0; i < rows; ++i) {
        const uint32_t row = keys[i].second;
        if (i > 0 && (keys[i].first != keys[i - 1].first ||
                      target_keys[row] != target_keys[keys[i - 1].second])) {
          ++r;
        }
        col_entries[r] = {col[row], y[row]};
        col_rank[row] = r;
      }
      num_ranks[f] = r + 1;
    }
  });
}

DecisionTree::DecisionTree(const TreeConfig& config) : config_(config) {}

void DecisionTree::Fit(const la::Matrix& x, const std::vector<double>& y) {
  trace::TraceSpan fit_span("tree.fit", "ml");
  Stopwatch fit_watch;
  ARDA_CHECK_EQ(x.rows(), y.size());
  ARDA_CHECK_GT(x.rows(), 0u);
  const size_t n = x.rows();
  ARDA_CHECK_LT(n, static_cast<size_t>(UINT32_MAX));
  std::vector<uint32_t> rows(n);
  for (size_t i = 0; i < n; ++i) rows[i] = static_cast<uint32_t>(i);

  // Pre-sorting every feature pays off exactly when every feature is a
  // split candidate at every node; with per-node feature subsampling the
  // O(F n log n) sort per tree would outweigh the scan savings on the
  // sampled sqrt(F) features, so that case ranks the rows instead.
  if (config_.max_features != 0 && config_.max_features < x.cols()) {
    const RankedColumns ranks(x, y, 1);
    ranks_ = &ranks;
    BeginFit(n, x.cols(), y, rows);
    Grow(y, std::move(rows), fit_watch);
    return;
  }
  BeginFit(n, x.cols(), y, rows);

  // Column-major working copy: every split-search access from here on
  // touches one contiguous feature column.
  columns_.resize(num_features_ * n);
  constexpr size_t kTile = 64;  // bounds live write streams during transpose
  for (size_t f0 = 0; f0 < num_features_; f0 += kTile) {
    const size_t f1 = std::min(num_features_, f0 + kTile);
    for (size_t r = 0; r < n; ++r) {
      const double* row = x.RowPtr(r);
      for (size_t f = f0; f < f1; ++f) columns_[f * n + r] = row[f];
    }
  }

  feat_order_.resize(num_features_ * n);
  if (num_classes_ > 0) {
    // Class counts are additive, so the scan result does not depend on
    // the order of rows within an equal-value run; (value, row) is
    // enough and a stable radix sort on the order-preserving bit pattern
    // reproduces it without comparisons.
    std::vector<std::pair<uint64_t, uint32_t>> keys(n), radix_tmp;
    for (size_t f = 0; f < num_features_; ++f) {
      const double* col = columns_.data() + f * n;
      for (size_t i = 0; i < n; ++i) {
        keys[i] = {OrderedBits(col[i]), static_cast<uint32_t>(i)};
      }
      RadixSortByKey(&keys, &radix_tmp);
      uint32_t* slice = feat_order_.data() + f * n;
      for (size_t i = 0; i < n; ++i) slice[i] = keys[i].second;
    }
  } else {
    // Regression sums targets in scan order, so ties must be ordered by
    // target to reproduce the (value, y) pair order of the ranked mode
    // bit for bit; the row id makes the permutation unique.
    struct SortKey {
      double v;
      double y;
      uint32_t row;
    };
    std::vector<SortKey> keys(n);
    for (size_t f = 0; f < num_features_; ++f) {
      const double* col = columns_.data() + f * n;
      for (size_t i = 0; i < n; ++i) {
        keys[i] = {col[i], y[i], static_cast<uint32_t>(i)};
      }
      std::sort(keys.begin(), keys.end(),
                [](const SortKey& a, const SortKey& b) {
                  if (NanAwareLess(a.v, b.v)) return true;
                  if (NanAwareLess(b.v, a.v)) return false;
                  if (NanAwareLess(a.y, b.y)) return true;
                  if (NanAwareLess(b.y, a.y)) return false;
                  return a.row < b.row;
                });
      uint32_t* slice = feat_order_.data() + f * n;
      for (size_t i = 0; i < n; ++i) slice[i] = keys[i].row;
    }
  }
  part_tmp_.resize(n);
  left_mask_.assign(n, 0);
  Grow(y, std::move(rows), fit_watch);
}

void DecisionTree::Fit(const RankedColumns& ranks,
                       const std::vector<double>& y,
                       const std::vector<size_t>& rows) {
  trace::TraceSpan fit_span("tree.fit", "ml");
  Stopwatch fit_watch;
  ARDA_CHECK_EQ(ranks.rows, y.size());
  ARDA_CHECK_GT(rows.size(), 0u);
  std::vector<uint32_t> ids(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    ARDA_CHECK_LT(rows[i], ranks.rows);
    ids[i] = static_cast<uint32_t>(rows[i]);
  }
  ranks_ = &ranks;
  BeginFit(ranks.rows, ranks.cols, y, ids);
  Grow(y, std::move(ids), fit_watch);
}

void DecisionTree::BeginFit(size_t num_rows, size_t num_features,
                            const std::vector<double>& y,
                            const std::vector<uint32_t>& rows) {
  nodes_.clear();
  num_features_ = num_features;
  importances_.assign(num_features_, 0.0);
  num_rows_ = num_rows;
  sample_features_ = ranks_ != nullptr && config_.max_features != 0 &&
                     config_.max_features < num_features_;
  num_classes_ = config_.task == TaskType::kClassification
                     ? NumClassesIn(y, rows)
                     : 0;
  if (num_classes_ > 0) {
    class_counts_.resize(num_classes_);
    left_counts_.resize(num_classes_);
    labels_.resize(num_rows);
    for (uint32_t r : rows) {
      labels_[r] = static_cast<uint32_t>(std::lround(y[r]));
    }
    labs_.resize(rows.size());
  }
  vals_.resize(rows.size());
  ys_.resize(rows.size());
  if (ranks_ != nullptr) {
    rank_buf_.resize(rows.size());
    rank_count_.assign(num_rows, 0);
  }
}

void DecisionTree::Grow(const std::vector<double>& y,
                        std::vector<uint32_t> rows,
                        const Stopwatch& fit_watch) {
  Rng rng(config_.seed);
  BuildNode(y, &rows, 0, rows.size(), 0, &rng);

  // Release fit-time scratch.
  ranks_ = nullptr;
  rank_buf_ = {};
  rank_count_ = {};
  columns_ = {};
  labels_ = {};
  feat_order_ = {};
  part_tmp_ = {};
  left_mask_ = {};
  vals_ = {};
  ys_ = {};
  labs_ = {};
  class_counts_ = {};
  left_counts_ = {};

  double total = 0.0;
  for (double v : importances_) total += v;
  if (total > 0.0) {
    for (double& v : importances_) v /= total;
  }

  // The registry lookup costs a mutex + map walk; trees fit in tight
  // parallel loops, so resolve the histogram once and reuse the reference
  // (ResetForTest zeroes in place, never invalidating it).
  static metrics::Histogram& fit_hist =
      metrics::GlobalRegistry().GetHistogram(
          "ml.tree_fit_seconds", metrics::LatencyBucketsSeconds());
  fit_hist.Observe(fit_watch.ElapsedSeconds());
}

double DecisionTree::ValueAt(size_t f, uint32_t row) const {
  const size_t n = num_rows_;
  if (ranks_ == nullptr) return columns_[f * n + row];
  return ranks_->entries[f * n + ranks_->rank[f * n + row]].value;
}

void DecisionTree::ScanThresholds(size_t count, size_t feature,
                                  double node_impurity,
                                  const double* class_counts,
                                  double* best_gain, size_t* best_feature,
                                  double* best_threshold) {
  const double* vals = vals_.data();
  // ClassSquares' vector path regroups the accumulation across lanes; with
  // whole-number counts < 2^26 every partial sum of squares is an exact
  // integer < 2^53, so the regrouping cannot change the result (simd.h
  // "determinism contract"). Larger nodes keep the sequential loop — both
  // dispatch levels take the same branch, so outputs stay level-invariant.
  const bool exact_counts = count < (size_t{1} << 26);
  if (num_classes_ > 0) {
    const uint32_t* labs = labs_.data();
    std::fill(left_counts_.begin(), left_counts_.end(), 0.0);
    double* left_counts = left_counts_.data();
    double left_n = 0.0;
    for (size_t i = 0; i + 1 < count; ++i) {
      left_counts[labs[i]] += 1.0;
      left_n += 1.0;
      if (vals[i] == vals[i + 1]) continue;
      const double right_n = static_cast<double>(count) - left_n;
      if (left_n < config_.min_samples_leaf ||
          right_n < config_.min_samples_leaf) {
        continue;
      }
      // One fused pass over the class histograms; accumulation order per
      // sum matches the separate left/right loops exactly.
      double left_sq = 0.0, right_sq = 0.0;
      if (exact_counts) {
        simd::ClassSquares(left_counts, class_counts, num_classes_,
                           &left_sq, &right_sq);
      } else {
        for (size_t c = 0; c < num_classes_; ++c) {
          double lc = left_counts[c];
          double rc = class_counts[c] - lc;
          left_sq += lc * lc;
          right_sq += rc * rc;
        }
      }
      double left_imp = left_n - left_sq / left_n;
      double right_imp = right_n - right_sq / right_n;
      double gain = node_impurity - left_imp - right_imp;
      if (gain > *best_gain &&
          std::isfinite(0.5 * (vals[i] + vals[i + 1]))) {
        *best_gain = gain;
        *best_feature = feature;
        *best_threshold = 0.5 * (vals[i] + vals[i + 1]);
      }
    }
  } else {
    const double* ys = ys_.data();
    double total_sum = 0.0, total_sq = 0.0;
    for (size_t i = 0; i < count; ++i) {
      total_sum += ys[i];
      total_sq += ys[i] * ys[i];
    }
    double left_sum = 0.0, left_sq = 0.0, left_n = 0.0;
    for (size_t i = 0; i + 1 < count; ++i) {
      left_sum += ys[i];
      left_sq += ys[i] * ys[i];
      left_n += 1.0;
      if (vals[i] == vals[i + 1]) continue;
      const double right_n = static_cast<double>(count) - left_n;
      if (left_n < config_.min_samples_leaf ||
          right_n < config_.min_samples_leaf) {
        continue;
      }
      double left_sse = left_sq - left_sum * left_sum / left_n;
      double right_sum = total_sum - left_sum;
      double right_sse =
          (total_sq - left_sq) - right_sum * right_sum / right_n;
      double gain = node_impurity - left_sse - right_sse;
      if (gain > *best_gain &&
          std::isfinite(0.5 * (vals[i] + vals[i + 1]))) {
        *best_gain = gain;
        *best_feature = feature;
        *best_threshold = 0.5 * (vals[i] + vals[i + 1]);
      }
    }
  }
}

int DecisionTree::BuildNode(const std::vector<double>& y,
                            std::vector<uint32_t>* indices, size_t begin,
                            size_t end, size_t depth, Rng* rng) {
  const size_t count = end - begin;
  ARDA_CHECK_GT(count, 0u);
  const int node_id = static_cast<int>(nodes_.size());
  nodes_.emplace_back();

  const bool classification = num_classes_ > 0;
  const size_t n = num_rows_;

  // Node statistics: impurity (scaled by count) and the leaf prediction.
  double node_impurity = 0.0;
  double leaf_value = 0.0;
  if (classification) {
    std::fill(class_counts_.begin(), class_counts_.end(), 0.0);
    for (size_t i = begin; i < end; ++i) {
      class_counts_[labels_[(*indices)[i]]] += 1.0;
    }
    node_impurity = GiniTimesCount(class_counts_, static_cast<double>(count));
    size_t best_class = 0;
    for (size_t c = 1; c < num_classes_; ++c) {
      if (class_counts_[c] > class_counts_[best_class]) best_class = c;
    }
    leaf_value = static_cast<double>(best_class);
  } else {
    double sum = 0.0, sum_sq = 0.0;
    for (size_t i = begin; i < end; ++i) {
      double v = y[(*indices)[i]];
      sum += v;
      sum_sq += v * v;
    }
    leaf_value = sum / static_cast<double>(count);
    node_impurity = sum_sq - sum * sum / static_cast<double>(count);  // SSE
  }
  nodes_[node_id].value = leaf_value;

  const bool pure = node_impurity <= 1e-12;
  if (depth >= config_.max_depth || count < config_.min_samples_split ||
      count < 2 * config_.min_samples_leaf || pure) {
    return node_id;
  }

  // Feature subset for this node (pre-sorted mode always scans all).
  const bool presorted = ranks_ == nullptr;
  std::vector<size_t> sampled;
  if (sample_features_) {
    sampled = rng->SampleWithoutReplacement(num_features_,
                                            config_.max_features);
  }

  // Best split search over contiguous (value, target) runs per feature.
  double best_gain = config_.min_impurity_decrease;
  size_t best_feature = 0;
  double best_threshold = 0.0;
  const size_t num_candidates =
      sample_features_ ? sampled.size() : num_features_;
  for (size_t fi = 0; fi < num_candidates; ++fi) {
    const size_t f = sample_features_ ? sampled[fi] : fi;
    if (presorted) {
      const double* col = columns_.data() + f * n;
      const uint32_t* slice = feat_order_.data() + f * n + begin;
      if (SameValue(col[slice[0]], col[slice[count - 1]])) continue;
      if (classification) {
        // Fused gather + threshold scan: each sorted row is touched once
        // instead of being staged through vals_/labs_. The arithmetic is
        // the same as ScanThresholds' classification branch, including its
        // exact_counts guard around the SIMD class-square reduction.
        const bool exact_counts = count < (size_t{1} << 26);
        std::fill(left_counts_.begin(), left_counts_.end(), 0.0);
        double* left_counts = left_counts_.data();
        const double* class_counts = class_counts_.data();
        double left_n = 0.0;
        double v = col[slice[0]];
        for (size_t i = 0; i + 1 < count; ++i) {
          const double v_next = col[slice[i + 1]];
          left_counts[labels_[slice[i]]] += 1.0;
          left_n += 1.0;
          if (v != v_next) {
            const double right_n = static_cast<double>(count) - left_n;
            if (left_n >= config_.min_samples_leaf &&
                right_n >= config_.min_samples_leaf) {
              double left_sq = 0.0, right_sq = 0.0;
              if (exact_counts) {
                simd::ClassSquares(left_counts, class_counts, num_classes_,
                                   &left_sq, &right_sq);
              } else {
                for (size_t c = 0; c < num_classes_; ++c) {
                  double lc = left_counts[c];
                  double rc = class_counts[c] - lc;
                  left_sq += lc * lc;
                  right_sq += rc * rc;
                }
              }
              double left_imp = left_n - left_sq / left_n;
              double right_imp = right_n - right_sq / right_n;
              double gain = node_impurity - left_imp - right_imp;
              // A non-finite midpoint (the run boundary into the NaN
              // region, or ±inf values) cannot partition rows; skip it.
              if (gain > best_gain && std::isfinite(0.5 * (v + v_next))) {
                best_gain = gain;
                best_feature = f;
                best_threshold = 0.5 * (v + v_next);
              }
            }
          }
          v = v_next;
        }
        continue;
      } else {
        // Pure gather (no accumulation), so the vector path is exact.
        simd::GatherValsTargets(col, y.data(), slice, count, vals_.data(),
                                ys_.data());
      }
    } else {
      // Sorting the rows' integer ranks yields the (value, y) order of
      // their pairs; the rank tables hand back the pairs themselves.
      const uint32_t* col_rank = ranks_->rank.data() + f * n;
      const RankedColumns::Entry* entries = ranks_->entries.data() + f * n;
      uint32_t* ranks = rank_buf_.data();
      const uint32_t num_ranks = ranks_->num_ranks[f];
      if (count * 16 >= num_ranks) {
        // Counting sort over the column's ranks: cheaper than a
        // comparison sort unless the node holds few of them (measured
        // on 700 x 379 at ratios 2 to 64: 16 and 32 were fastest).
        uint32_t* hist = rank_count_.data();
        for (size_t i = begin; i < end; ++i) {
          ++hist[col_rank[(*indices)[i]]];
        }
        size_t out = 0;
        for (uint32_t r = 0; r < num_ranks; ++r) {
          for (uint32_t c = hist[r]; c > 0; --c) ranks[out++] = r;
          hist[r] = 0;
        }
      } else {
        for (size_t i = 0; i < count; ++i) {
          ranks[i] = col_rank[(*indices)[begin + i]];
        }
        std::sort(ranks, ranks + count);
      }
      if (SameValue(entries[ranks[0]].value,
                    entries[ranks[count - 1]].value)) {
        continue;  // constant feature (an all-NaN column counts)
      }
      if (classification) {
        for (size_t i = 0; i < count; ++i) {
          const RankedColumns::Entry& e = entries[ranks[i]];
          vals_[i] = e.value;
          labs_[i] = static_cast<uint32_t>(std::lround(e.target));
        }
      } else {
        for (size_t i = 0; i < count; ++i) {
          const RankedColumns::Entry& e = entries[ranks[i]];
          vals_[i] = e.value;
          ys_[i] = e.target;
        }
      }
    }
    ScanThresholds(count, f, node_impurity, class_counts_.data(), &best_gain,
                   &best_feature, &best_threshold);
  }

  if (best_gain <= config_.min_impurity_decrease) {
    return node_id;  // no useful split found
  }

  // Partition index range by the chosen split.
  auto middle = std::partition(
      indices->begin() + static_cast<ptrdiff_t>(begin),
      indices->begin() + static_cast<ptrdiff_t>(end),
      [&](uint32_t row) {
        return ValueAt(best_feature, row) <= best_threshold;
      });
  size_t mid = static_cast<size_t>(middle - indices->begin());
  if (mid == begin || mid == end) {
    return node_id;  // numerically degenerate split
  }

  if (presorted) {
    // Stable-partition every feature's slice so both children stay sorted.
    for (size_t i = begin; i < mid; ++i) left_mask_[(*indices)[i]] = 1;
    for (size_t i = mid; i < end; ++i) left_mask_[(*indices)[i]] = 0;
    for (size_t f = 0; f < num_features_; ++f) {
      uint32_t* slice = feat_order_.data() + f * n;
      size_t out = begin;
      size_t spilled = 0;
      for (size_t i = begin; i < end; ++i) {
        // Branchless split: both stores always happen; `out <= i` so the
        // left store never clobbers an unread element, and the right copy
        // at a stale part_tmp_ slot is overwritten or never read.
        uint32_t row = slice[i];
        size_t is_left = left_mask_[row];
        slice[out] = row;
        part_tmp_[spilled] = row;
        out += is_left;
        spilled += 1 - is_left;
      }
      std::copy(part_tmp_.begin(),
                part_tmp_.begin() + static_cast<ptrdiff_t>(spilled),
                slice + out);
    }
  }

  importances_[best_feature] += best_gain;
  nodes_[node_id].is_leaf = false;
  nodes_[node_id].feature = best_feature;
  nodes_[node_id].threshold = best_threshold;
  int left = BuildNode(y, indices, begin, mid, depth + 1, rng);
  int right = BuildNode(y, indices, mid, end, depth + 1, rng);
  nodes_[node_id].left = left;
  nodes_[node_id].right = right;
  return node_id;
}

std::string DecisionTree::Serialize() const {
  std::string out;
  char line[160];
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const Node& nd = nodes_[i];
    std::snprintf(line, sizeof(line), "%zu %d %zu %a %a %d %d\n", i,
                  nd.is_leaf ? 1 : 0, nd.feature, nd.threshold, nd.value,
                  nd.left, nd.right);
    out += line;
  }
  return out;
}

std::vector<double> DecisionTree::Predict(const la::Matrix& x) const {
  trace::TraceSpan predict_span("tree.predict", "ml");
  Stopwatch predict_watch;
  ARDA_CHECK(!nodes_.empty());
  ARDA_CHECK_EQ(x.cols(), num_features_);
  std::vector<double> out(x.rows());
  for (size_t r = 0; r < x.rows(); ++r) {
    int node = 0;
    while (!nodes_[static_cast<size_t>(node)].is_leaf) {
      const Node& nd = nodes_[static_cast<size_t>(node)];
      node = x(r, nd.feature) <= nd.threshold ? nd.left : nd.right;
    }
    out[r] = nodes_[static_cast<size_t>(node)].value;
  }
  static metrics::Histogram& predict_hist =
      metrics::GlobalRegistry().GetHistogram(
          "ml.tree_predict_seconds", metrics::LatencyBucketsSeconds());
  predict_hist.Observe(predict_watch.ElapsedSeconds());
  return out;
}

}  // namespace arda::ml
