#include "ml/sparse_regression.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace arda::ml {

L21SparseRegression::L21SparseRegression(const SparseRegressionConfig& config)
    : config_(config) {
  ARDA_CHECK_GE(config.gamma, 0.0);
}

void L21SparseRegression::Fit(const la::Matrix& x,
                              const std::vector<double>& y) {
  ARDA_CHECK_EQ(x.rows(), y.size());
  const size_t n = x.rows();
  const size_t d = x.cols();
  stats_ = la::ComputeColumnStats(x);
  const la::Matrix xs = la::Standardize(x, stats_);  // n x d
  const la::Matrix xt = xs.Transposed();             // d x n

  // Build the target matrix Y, stored transposed (c x n), and per-output
  // offsets.
  size_t c;
  la::Matrix targets;
  if (config_.task == TaskType::kClassification) {
    double max_label = 0.0;
    for (double v : y) max_label = std::max(max_label, v);
    num_classes_ = static_cast<size_t>(std::lround(max_label)) + 1;
    c = num_classes_;
    targets = la::Matrix(c, n);
    for (size_t i = 0; i < n; ++i) {
      targets(static_cast<size_t>(std::lround(y[i])), i) = 1.0;
    }
  } else {
    num_classes_ = 0;
    c = 1;
    targets = la::Matrix(1, n, y);
  }
  output_offsets_.assign(c, 0.0);
  for (size_t j = 0; j < c; ++j) {
    double* t = targets.RowPtr(j);
    double mean = 0.0;
    for (size_t i = 0; i < n; ++i) mean += t[i];
    mean /= static_cast<double>(n);
    output_offsets_[j] = mean;
    for (size_t i = 0; i < n; ++i) t[i] -= mean;
  }

  // Every buffer of the descent is allocated once here. W, its gradient
  // and the residual are kept transposed (c x d, c x n), so each pass
  // below runs unit-stride across rows or features and vectorizes. The
  // accepted W's residual, row scales 1/||r_i|| and feature scales
  // gamma/||w_f|| are kept for the gradient; a candidate evaluates into
  // the candidate_* buffers, which are swapped in when it is accepted.
  const double eps = config_.epsilon;
  const double gamma = config_.gamma;
  la::Matrix w(c, d), grad(c, d), candidate(c, d);
  la::Matrix residual(c, n), candidate_residual(c, n);
  std::vector<double> row_scale(n), candidate_row_scale(n);
  std::vector<double> feature_scale(d), candidate_feature_scale(d);

  // Smoothed objective sum_i sqrt(||r_i||^2 + eps) + gamma sum_f
  // sqrt(||w_f||^2 + eps) of W (c x d), with R = X W - Y and the scales
  // left in the given buffers. Each r_i sums x_ik w_k in ascending k, and
  // the objective adds the row terms in ascending i and then the feature
  // terms in ascending f onto one running sum. The goldens pin this
  // operation order bit for bit; summing the two parts separately, or
  // reassociating any sum, changes the feature ranking's bits.
  auto evaluate = [&](const la::Matrix& wt, la::Matrix* res,
                      std::vector<double>* rscale,
                      std::vector<double>* fscale) {
    for (size_t j = 0; j < c; ++j) {
      const double* wj = wt.RowPtr(j);
      double* r = res->RowPtr(j);
      std::fill(r, r + n, 0.0);
      // Four features per pass over the row accumulators, each added in
      // turn: the same ascending-k sum with a quarter of the r traffic.
      size_t k = 0;
      for (; k + 4 <= d; k += 4) {
        const double* x0 = xt.RowPtr(k);
        const double* x1 = xt.RowPtr(k + 1);
        const double* x2 = xt.RowPtr(k + 2);
        const double* x3 = xt.RowPtr(k + 3);
        const double w0 = wj[k], w1 = wj[k + 1], w2 = wj[k + 2],
                     w3 = wj[k + 3];
        for (size_t i = 0; i < n; ++i) {
          double acc = r[i];
          acc += x0[i] * w0;
          acc += x1[i] * w1;
          acc += x2[i] * w2;
          acc += x3[i] * w3;
          r[i] = acc;
        }
      }
      for (; k < d; ++k) {
        const double* xk = xt.RowPtr(k);
        const double wk = wj[k];
        for (size_t i = 0; i < n; ++i) r[i] += xk[i] * wk;
      }
      const double* t = targets.RowPtr(j);
      for (size_t i = 0; i < n; ++i) r[i] -= t[i];
    }
    double* norm = rscale->data();
    std::fill(norm, norm + n, eps);
    for (size_t j = 0; j < c; ++j) {
      const double* r = res->RowPtr(j);
      for (size_t i = 0; i < n; ++i) norm[i] += r[i] * r[i];
    }
    for (size_t i = 0; i < n; ++i) norm[i] = std::sqrt(norm[i]);
    double objective = 0.0;
    for (size_t i = 0; i < n; ++i) objective += norm[i];
    for (size_t i = 0; i < n; ++i) norm[i] = 1.0 / norm[i];

    double* wnorm = fscale->data();
    std::fill(wnorm, wnorm + d, eps);
    for (size_t j = 0; j < c; ++j) {
      const double* wj = wt.RowPtr(j);
      for (size_t f = 0; f < d; ++f) wnorm[f] += wj[f] * wj[f];
    }
    for (size_t f = 0; f < d; ++f) wnorm[f] = std::sqrt(wnorm[f]);
    for (size_t f = 0; f < d; ++f) objective += gamma * wnorm[f];
    for (size_t f = 0; f < d; ++f) wnorm[f] = gamma / wnorm[f];
    return objective;
  };

  // Gradient at the accepted W: X^T diag(row_scale) R + gamma *
  // row-normalized W. Each entry sums (x_if * row_scale_i) * r_i in
  // ascending i. There is no zero-skip: the accumulators start at +0.0,
  // and adding a +-0 product to them is exact, because for finite X and
  // y the residuals of an accepted W are finite (DESIGN.md "RIFS
  // kernels").
  auto gradient = [&] {
    std::fill(grad.mutable_data().begin(), grad.mutable_data().end(), 0.0);
    for (size_t i = 0; i < n; ++i) {
      const double* xrow = xs.RowPtr(i);
      const double scale = row_scale[i];
      for (size_t j = 0; j < c; ++j) {
        const double rj = residual(j, i);
        double* g = grad.RowPtr(j);
        for (size_t f = 0; f < d; ++f) g[f] += (xrow[f] * scale) * rj;
      }
    }
    for (size_t j = 0; j < c; ++j) {
      const double* wj = w.RowPtr(j);
      double* g = grad.RowPtr(j);
      for (size_t f = 0; f < d; ++f) g[f] += feature_scale[f] * wj[f];
    }
  };

  // Gradient descent with backtracking line search: halve the step until
  // the objective decreases, gently grow it after accepted steps. This
  // keeps the per-iteration cost linear in nnz(X) while converging far
  // more reliably than a fixed schedule on the non-smooth l2,1 terms.
  double lr = config_.learning_rate;
  double objective = evaluate(w, &residual, &row_scale, &feature_scale);
  iterations_ = 0;
  converged_ = false;
  while (iterations_ < config_.max_iters && !converged_) {
    gradient();
    bool accepted = false;
    for (int attempt = 0; attempt < 20; ++attempt) {
      const std::vector<double>& wv = w.data();
      const std::vector<double>& gv = grad.data();
      std::vector<double>& cv = candidate.mutable_data();
      for (size_t e = 0; e < cv.size(); ++e) cv[e] = wv[e] - lr * gv[e];
      const double new_objective =
          evaluate(candidate, &candidate_residual, &candidate_row_scale,
                   &candidate_feature_scale);
      if (new_objective <= objective) {
        converged_ = objective - new_objective <
                     config_.tolerance * std::max(1.0, objective);
        std::swap(w, candidate);
        std::swap(residual, candidate_residual);
        std::swap(row_scale, candidate_row_scale);
        std::swap(feature_scale, candidate_feature_scale);
        objective = new_objective;
        lr = std::min(lr * 1.25, 1e3);
        accepted = true;
        break;
      }
      lr *= 0.5;
      if (lr < 1e-12) break;
    }
    // No step size decreases the objective: W is a numerical stationary
    // point, so the descent has converged as far as it can.
    if (!accepted) {
      converged_ = true;
      break;
    }
    ++iterations_;
  }
  final_objective_ = objective;
  w_ = w.Transposed();
}

std::vector<double> L21SparseRegression::Predict(const la::Matrix& x) const {
  ARDA_CHECK_EQ(x.cols(), w_.rows());
  la::Matrix xs = la::Standardize(x, stats_);
  la::Matrix scores = xs.Multiply(w_);
  const size_t n = xs.rows();
  std::vector<double> out(n);
  if (config_.task == TaskType::kRegression) {
    for (size_t i = 0; i < n; ++i) out[i] = scores(i, 0) + output_offsets_[0];
    return out;
  }
  for (size_t i = 0; i < n; ++i) {
    size_t best = 0;
    double best_score = -1e300;
    for (size_t j = 0; j < num_classes_; ++j) {
      double s = scores(i, j) + output_offsets_[j];
      if (s > best_score) {
        best_score = s;
        best = j;
      }
    }
    out[i] = static_cast<double>(best);
  }
  return out;
}

std::vector<double> L21SparseRegression::FeatureNorms() const {
  std::vector<double> norms(w_.rows(), 0.0);
  for (size_t fi = 0; fi < w_.rows(); ++fi) {
    double sum = 0.0;
    const double* row = w_.RowPtr(fi);
    for (size_t j = 0; j < w_.cols(); ++j) sum += row[j] * row[j];
    norms[fi] = std::sqrt(sum);
  }
  return norms;
}

}  // namespace arda::ml
