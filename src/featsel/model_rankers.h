#ifndef ARDA_FEATSEL_MODEL_RANKERS_H_
#define ARDA_FEATSEL_MODEL_RANKERS_H_

#include "featsel/ranker.h"
#include "ml/random_forest.h"
#include "ml/sparse_regression.h"

namespace arda::featsel {

/// Impurity importances of a random forest fit on the data.
class RandomForestRanker : public FeatureRanker {
 public:
  explicit RandomForestRanker(size_t num_trees = 25, size_t max_depth = 10)
      : num_trees_(num_trees), max_depth_(max_depth) {}
  std::string name() const override { return "random_forest"; }
  std::vector<double> Rank(const ml::Dataset& data, Rng* rng) const override;

  /// Rank with an explicit forest seed instead of drawing one from an
  /// Rng. `Rank(data, rng)` is exactly `RankSeeded(data,
  /// rng->NextUint64())`; RIFS pre-draws the seed serially so its rounds
  /// can run on a thread pool without touching a shared stream.
  std::vector<double> RankSeeded(const ml::Dataset& data,
                                 uint64_t seed) const;

 private:
  size_t num_trees_;
  size_t max_depth_;
};

/// Row norms ||W_j|| of the paper's l2,1-regularized sparse regression
/// (Eq. 1); the convex half of the RIFS ranking ensemble.
class SparseRegressionRanker : public FeatureRanker {
 public:
  explicit SparseRegressionRanker(double gamma = 0.1) : gamma_(gamma) {}
  std::string name() const override { return "sparse_regression"; }
  std::vector<double> Rank(const ml::Dataset& data, Rng* rng) const override;

  /// The fitted model Rank reads its norms from, for callers that also
  /// want the solver's counters.
  ml::L21SparseRegression Fit(const ml::Dataset& data) const;

 private:
  double gamma_;
};

/// |w| of a Lasso fit (regression tasks only).
class LassoRanker : public FeatureRanker {
 public:
  explicit LassoRanker(double alpha = 0.02) : alpha_(alpha) {}
  std::string name() const override { return "lasso"; }
  bool SupportsTask(ml::TaskType task) const override {
    return task == ml::TaskType::kRegression;
  }
  std::vector<double> Rank(const ml::Dataset& data, Rng* rng) const override;

 private:
  double alpha_;
};

/// Mean |w| of one-vs-rest logistic regression (classification only).
class LogisticRanker : public FeatureRanker {
 public:
  std::string name() const override { return "logistic_reg"; }
  bool SupportsTask(ml::TaskType task) const override {
    return task == ml::TaskType::kClassification;
  }
  std::vector<double> Rank(const ml::Dataset& data, Rng* rng) const override;
};

/// Mean |w| of a one-vs-rest linear SVM (classification only).
class LinearSvcRanker : public FeatureRanker {
 public:
  std::string name() const override { return "linear_svc"; }
  bool SupportsTask(ml::TaskType task) const override {
    return task == ml::TaskType::kClassification;
  }
  std::vector<double> Rank(const ml::Dataset& data, Rng* rng) const override;
};

}  // namespace arda::featsel

#endif  // ARDA_FEATSEL_MODEL_RANKERS_H_
