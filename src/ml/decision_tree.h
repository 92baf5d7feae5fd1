#ifndef ARDA_ML_DECISION_TREE_H_
#define ARDA_ML_DECISION_TREE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ml/model.h"
#include "simd/aligned.h"
#include "util/rng.h"
#include "util/timer.h"

namespace arda::ml {

/// Hyperparameters for a CART decision tree.
struct TreeConfig {
  TaskType task = TaskType::kRegression;
  size_t max_depth = 12;
  size_t min_samples_split = 2;
  size_t min_samples_leaf = 1;
  /// Features examined per split; 0 means all, otherwise a random subset
  /// of this size is drawn per node (random-forest style).
  size_t max_features = 0;
  /// Splits must reduce weighted impurity by at least this much.
  double min_impurity_decrease = 1e-9;
  uint64_t seed = 7;
};

/// Read-only rank encoding of a training matrix and its targets for the
/// ranked split search, built once per forest and shared by every tree.
///
/// Within each column, rows are ordered by the pair (x(row, f), y[row]):
/// value first, then target, each in the split search's order (numeric
/// order with -0.0 == +0.0, every NaN after +inf and all NaNs equal).
/// Equal pairs share one dense rank, so sorting a node's ranks as integers
/// reproduces the (value, y) sequence of a comparison sort of its pairs.
struct RankedColumns {
  struct Entry {
    double value;
    double target;
  };

  /// Encodes every column of `x`, one ParallelFor task per block of
  /// columns at `num_threads` (each column's result is independent of
  /// the others, so the encoding is the same for any thread count).
  RankedColumns(const la::Matrix& x, const std::vector<double>& y,
                size_t num_threads);

  size_t rows = 0;
  size_t cols = 0;
  /// rank[f * rows + row]: the dense rank of row's pair within column f.
  std::vector<uint32_t> rank;
  /// num_ranks[f]: the number of distinct pairs in column f.
  std::vector<uint32_t> num_ranks;
  /// entries[f * rows + r]: the (value, target) pair of rank r in column
  /// f. Of a group of equal pairs one member is kept; a group may mix
  /// -0.0 with +0.0 or differing NaN payloads, which the scan and the
  /// partition cannot tell apart.
  std::vector<Entry> entries;
};

/// CART decision tree: variance reduction for regression, Gini for
/// classification. Supports per-node feature subsampling and exposes
/// impurity-based feature importances (both needed by the random forest
/// and the RIFS ranking ensemble).
///
/// Split search runs in one of two modes with bit-identical results (see
/// DESIGN.md "Columnar split search"):
///  - pre-sorted (`Fit(x, y)` with every feature a candidate at every
///    node, the single tree / gradient-boosting case): each feature's rows
///    are sorted once per tree, and every node scans its contiguous slice
///    of the sorted index in O(n) after an O(n) stable partition per split;
///  - ranked (random-forest feature subsampling, and every tree fitted on
///    a `RankedColumns`): each node gathers the integer ranks of its rows
///    for each candidate feature, sorts them, and reads the (value, y)
///    sequence back through the rank tables.
///
/// Both modes consume the exact value/target sequence of a comparison sort
/// of the node's (value, y) pairs: tied pairs are equal, so their order
/// cannot matter; the scan tests only == between neighbours and takes
/// midpoints of unequal ones, and x + (+-0.0) == x, so which zero a rank
/// maps back to cannot move a threshold; NaN sorts last and a non-finite
/// midpoint is never a threshold. NaN rows always fall to the right child
/// (x <= threshold is false), in Fit and Predict alike.
class DecisionTree : public Model {
 public:
  explicit DecisionTree(const TreeConfig& config);

  void Fit(const la::Matrix& x, const std::vector<double>& y) override;

  /// Fits on `rows` (repeats allowed, e.g. a bootstrap sample) of the
  /// matrix that `ranks` encodes, with `y` its full target vector, in the
  /// ranked mode. Equivalent, bit for bit, to `Fit` on the selected rows.
  void Fit(const RankedColumns& ranks, const std::vector<double>& y,
           const std::vector<size_t>& rows);

  std::vector<double> Predict(const la::Matrix& x) const override;

  /// Total impurity decrease attributed to each feature during Fit,
  /// normalized to sum to 1 (all zeros if the tree is a single leaf).
  const std::vector<double>& feature_importances() const {
    return importances_;
  }

  /// Number of nodes in the fitted tree.
  size_t NumNodes() const { return nodes_.size(); }

  /// Exact textual serialization of the fitted tree, one node per line:
  /// `id leaf feature threshold value left right` with doubles rendered as
  /// hexfloats. Two trees serialize identically iff they are bit-identical
  /// (the golden-output regression tests rely on this).
  std::string Serialize() const;

 private:
  struct Node {
    bool is_leaf = true;
    size_t feature = 0;
    double threshold = 0.0;
    double value = 0.0;  // prediction for leaves
    int left = -1;
    int right = -1;
  };

  /// Resets the model and the shared fit-time state for a fit on `rows`
  /// of a num_rows x num_features matrix.
  void BeginFit(size_t num_rows, size_t num_features,
                const std::vector<double>& y,
                const std::vector<uint32_t>& rows);
  /// Grows the tree from the root over `rows`, releases the fit-time
  /// state, normalizes the importances and records the fit time.
  void Grow(const std::vector<double>& y, std::vector<uint32_t> rows,
            const Stopwatch& fit_watch);

  int BuildNode(const std::vector<double>& y, std::vector<uint32_t>* indices,
                size_t begin, size_t end, size_t depth, Rng* rng);

  /// Feature f's value at training row `row`.
  double ValueAt(size_t f, uint32_t row) const;

  /// Scans the candidate thresholds of one feature whose node rows have
  /// been gathered, in ascending (value, y) order, into vals_/ys_[0,count).
  /// Updates best_* when a better split is found.
  void ScanThresholds(size_t count, size_t feature, double node_impurity,
                      const double* class_counts, double* best_gain,
                      size_t* best_feature, double* best_threshold);

  TreeConfig config_;
  std::vector<Node> nodes_;
  std::vector<double> importances_;
  size_t num_features_ = 0;

  // --- Fit-time state (released when Fit returns). ---
  size_t num_classes_ = 0;  // classification only; hoisted out of BuildNode
  size_t num_rows_ = 0;
  /// Ranked mode: the shared encoding (null in pre-sorted mode), and
  /// whether each node draws max_features candidates or scans them all.
  const RankedColumns* ranks_ = nullptr;
  bool sample_features_ = false;
  std::vector<uint32_t> rank_buf_;   // sorted ranks, one node/feature
  std::vector<uint32_t> rank_count_; // counting-sort histogram, all zero
  /// Pre-sorted mode: column-major copy of the training matrix, feature
  /// f's values in [f * n, (f+1) * n), so split-search gathers stay inside
  /// one cache-hot column. 64-byte aligned: the SIMD gather kernel reads
  /// it with full-width loads.
  simd::AlignedVector<double> columns_;
  std::vector<uint32_t> labels_;     // lround(y), classification only
  /// Pre-sorted mode: feature-major [f * n, (f+1) * n) row ids, each
  /// feature slice sorted by (value, y, row). Node ranges [begin, end)
  /// index into every feature slice simultaneously.
  simd::AlignedVector<uint32_t> feat_order_;
  std::vector<uint32_t> part_tmp_;   // stable-partition scratch
  std::vector<uint8_t> left_mask_;   // per-row split side of current node
  simd::AlignedVector<double> vals_; // gathered feature values, one node
  simd::AlignedVector<double> ys_;   // gathered targets, one node
  std::vector<uint32_t> labs_;       // gathered labels, one node
  std::vector<double> class_counts_; // node label histogram
  std::vector<double> left_counts_;  // running left label histogram
};

}  // namespace arda::ml

#endif  // ARDA_ML_DECISION_TREE_H_
