#include "ml/random_forest.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace arda::ml {

RandomForest::RandomForest(const ForestConfig& config) : config_(config) {}

void RandomForest::Fit(const la::Matrix& x, const std::vector<double>& y) {
  trace::StageScope scope("forest.fit");
  metrics::IncrementCounter("ml.forest_fits_total");
  ARDA_CHECK_EQ(x.rows(), y.size());
  ARDA_CHECK_GT(x.rows(), 0u);
  ARDA_CHECK_GT(config_.num_trees, 0u);
  trees_.clear();
  importances_.assign(x.cols(), 0.0);

  if (config_.task == TaskType::kClassification) {
    double max_label = *std::max_element(y.begin(), y.end());
    num_classes_ = static_cast<size_t>(std::lround(max_label)) + 1;
  }

  size_t max_features = config_.max_features;
  if (max_features == 0) {
    max_features = std::max<size_t>(
        1, static_cast<size_t>(std::lround(
               std::sqrt(static_cast<double>(x.cols())))));
  }

  Rng rng(config_.seed);
  const size_t sample_size = std::max<size_t>(
      1, static_cast<size_t>(std::lround(
             config_.bootstrap_fraction * static_cast<double>(x.rows()))));

  // Pre-draw every tree's bootstrap sample and seed serially, in the same
  // interleaved order the serial loop consumed the stream, so fitting is
  // embarrassingly parallel yet bit-identical for any thread count.
  std::vector<std::vector<size_t>> bootstrap_rows(config_.num_trees);
  trees_.reserve(config_.num_trees);
  for (size_t t = 0; t < config_.num_trees; ++t) {
    bootstrap_rows[t] = rng.SampleWithReplacement(x.rows(), sample_size);
    TreeConfig tree_config;
    tree_config.task = config_.task;
    tree_config.max_depth = config_.max_depth;
    tree_config.min_samples_leaf = config_.min_samples_leaf;
    tree_config.max_features = max_features;
    tree_config.seed = rng.NextUint64();
    trees_.emplace_back(tree_config);
  }

  // One read-only rank encoding of (x, y) serves every tree: each fits on
  // its bootstrap row list without copying or re-sorting X.
  const RankedColumns ranks(x, y, config_.num_threads);
  ParallelFor(config_.num_trees, config_.num_threads, [&](size_t t) {
    trees_[t].Fit(ranks, y, bootstrap_rows[t]);
  });

  // Ordered reduction: accumulate importances in tree order, exactly as
  // the serial loop did.
  for (const DecisionTree& tree : trees_) {
    const std::vector<double>& imp = tree.feature_importances();
    for (size_t f = 0; f < imp.size(); ++f) importances_[f] += imp[f];
  }

  double total = 0.0;
  for (double v : importances_) total += v;
  if (total > 0.0) {
    for (double& v : importances_) v /= total;
  }
}

std::vector<double> RandomForest::Predict(const la::Matrix& x) const {
  trace::StageScope scope("forest.predict");
  ARDA_CHECK(!trees_.empty());
  const size_t n = x.rows();
  // Per-tree predictions land in tree-indexed slots; both reductions below
  // run in tree order, so results match the serial loop bit for bit.
  std::vector<std::vector<double>> per_tree(trees_.size());
  ParallelFor(trees_.size(), config_.num_threads, [&](size_t t) {
    per_tree[t] = trees_[t].Predict(x);
  });
  if (config_.task == TaskType::kRegression) {
    std::vector<double> sum(n, 0.0);
    for (const std::vector<double>& pred : per_tree) {
      for (size_t i = 0; i < n; ++i) sum[i] += pred[i];
    }
    const double inv = 1.0 / static_cast<double>(trees_.size());
    for (double& v : sum) v *= inv;
    return sum;
  }
  // Classification: majority vote.
  std::vector<std::vector<uint32_t>> votes(n,
                                           std::vector<uint32_t>(num_classes_));
  for (const std::vector<double>& pred : per_tree) {
    for (size_t i = 0; i < n; ++i) {
      size_t label = static_cast<size_t>(std::lround(pred[i]));
      if (label < num_classes_) ++votes[i][label];
    }
  }
  std::vector<double> out(n);
  for (size_t i = 0; i < n; ++i) {
    size_t best = 0;
    for (size_t c = 1; c < num_classes_; ++c) {
      if (votes[i][c] > votes[i][best]) best = c;
    }
    out[i] = static_cast<double>(best);
  }
  return out;
}

}  // namespace arda::ml
