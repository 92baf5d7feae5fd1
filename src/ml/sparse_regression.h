#ifndef ARDA_ML_SPARSE_REGRESSION_H_
#define ARDA_ML_SPARSE_REGRESSION_H_

#include <vector>

#include "la/linalg.h"
#include "ml/model.h"

namespace arda::ml {

/// Configuration for the l2,1-regularized sparse regression of Eq. (1) in
/// the paper:  min_W ||X W - Y||_{2,1} + gamma ||W||_{2,1}.
struct SparseRegressionConfig {
  TaskType task = TaskType::kRegression;
  /// Row-sparsity penalty gamma.
  double gamma = 0.1;
  size_t max_iters = 300;
  double learning_rate = 0.05;
  /// Smoothing epsilon for the non-differentiable l2 norms.
  double epsilon = 1e-6;
  /// Convergence threshold on the relative objective decrease.
  double tolerance = 1e-7;
};

/// Solver for the paper's sparse-regression ranking objective. The
/// l2,1-norm over rows of W drives entire features to zero jointly across
/// outputs, so the per-feature row norms give a noise-robust feature
/// ranking (Section 6.2). Optimized on standardized features by gradient
/// descent on the eps-smoothed objective, with a backtracking line search
/// that halves the step until the objective decreases and grows it by
/// 1.25x after each accepted step.
///
/// For regression Y has one column (the centered target); for
/// classification Y is the one-hot label matrix, and Predict returns the
/// argmax output.
class L21SparseRegression : public Model {
 public:
  explicit L21SparseRegression(const SparseRegressionConfig& config = {});

  void Fit(const la::Matrix& x, const std::vector<double>& y) override;
  std::vector<double> Predict(const la::Matrix& x) const override;

  /// Per-feature l2 norm of the corresponding row of W; the sparse
  /// regression feature score.
  std::vector<double> FeatureNorms() const;

  /// Final value of the smoothed objective after fitting.
  double final_objective() const { return final_objective_; }

  /// Accepted descent steps taken by the last Fit.
  size_t iterations() const { return iterations_; }

  /// True when the last Fit stopped before `max_iters`: an accepted
  /// step's relative objective decrease fell under `tolerance`, or no
  /// step size decreased the objective at all. False when it hit the cap.
  bool converged() const { return converged_; }

 private:
  SparseRegressionConfig config_;
  la::ColumnStats stats_;
  la::Matrix w_;  // d x c
  std::vector<double> output_offsets_;
  size_t num_classes_ = 0;
  double final_objective_ = 0.0;
  size_t iterations_ = 0;
  bool converged_ = false;
};

}  // namespace arda::ml

#endif  // ARDA_ML_SPARSE_REGRESSION_H_
