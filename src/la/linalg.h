#ifndef ARDA_LA_LINALG_H_
#define ARDA_LA_LINALG_H_

#include <vector>

#include "la/matrix.h"
#include "util/rng.h"
#include "util/status.h"

namespace arda::la {

/// Computes the lower-triangular Cholesky factor L of a symmetric
/// positive-definite matrix A (A = L L^T). Fails if A is not SPD within
/// numerical tolerance.
Result<Matrix> Cholesky(const Matrix& a);

/// Solves A x = b for SPD A via Cholesky factorization.
Result<std::vector<double>> SolveSpd(const Matrix& a,
                                     const std::vector<double>& b);

/// Solves L y = b (forward substitution) for lower-triangular L.
std::vector<double> ForwardSubstitute(const Matrix& l,
                                      const std::vector<double>& b);

/// Solves L^T x = y (backward substitution) for lower-triangular L.
std::vector<double> BackwardSubstitute(const Matrix& l,
                                       const std::vector<double>& y);

/// Solves the ridge-regularized least squares problem
///   min_w ||X w - y||^2 + lambda ||w||^2
/// via the normal equations (X^T X + lambda I) w = X^T y. A singular or
/// non-finite Gram matrix (rank-deficient X, NaN/inf features) is retried
/// once with a heavier diagonal; if that still fails the Status propagates
/// instead of returning NaN-poisoned weights.
Result<std::vector<double>> RidgeSolve(const Matrix& x,
                                       const std::vector<double>& y,
                                       double lambda);

/// Per-column mean/stddev statistics used to z-score a feature matrix.
struct ColumnStats {
  std::vector<double> mean;
  std::vector<double> stddev;  // entries are >= epsilon (never zero)
};

/// Computes per-column mean and stddev of `x`; stddev entries below 1e-12
/// are clamped to 1 so constant columns map to zero after standardization.
ColumnStats ComputeColumnStats(const Matrix& x);

/// Returns a copy of `x` with each column z-scored using `stats`.
Matrix Standardize(const Matrix& x, const ColumnStats& stats);

/// Draws `count` samples of the moment-matched noise RIFS injects
/// (Algorithm 2): N(mu, Sigma) fitted to the d columns of `x` as
/// observations in R^n, with mu the mean over columns and
/// Sigma = (1/d) Xc Xc^T for Xc = x with each row centered by mu. Each
/// sample is mu + Xc z / sqrt(d) with z ~ N(0, I_d), whose covariance is
/// exactly Sigma, so no n x n matrix is formed or factored and a
/// rank-deficient Sigma needs no special case. Returns n x count, one
/// sample per column; draws d normals per sample, sample by sample. A
/// matrix with no columns yields zeros and draws nothing.
Matrix SampleMomentMatched(const Matrix& x, size_t count, Rng* rng);

}  // namespace arda::la

#endif  // ARDA_LA_LINALG_H_
