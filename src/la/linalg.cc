#include "la/linalg.h"

#include <algorithm>
#include <cmath>

#include "util/fault.h"

namespace arda::la {

Result<Matrix> Cholesky(const Matrix& a) {
  ARDA_FAULT_POINT(fault::kCholesky);
  ARDA_CHECK_EQ(a.rows(), a.cols());
  const size_t n = a.rows();
  Matrix l(n, n);
  // Entries of row i from column `first` through the diagonal, left to
  // right: l(i, j) = (a(i, j) - sum_{k<j} l(i, k) l(j, k)) / l(j, j), the
  // sum taken in ascending k. False when the diagonal is not positive.
  auto finish_row = [&](size_t i, size_t first) {
    double* li = l.RowPtr(i);
    for (size_t j = first; j <= i; ++j) {
      const double* lj = l.RowPtr(j);
      double sum = a(i, j);
      for (size_t k = 0; k < j; ++k) sum -= li[k] * lj[k];
      if (i == j) {
        if (sum <= 0.0 || !std::isfinite(sum)) return false;
        li[j] = std::sqrt(sum);
      } else {
        li[j] = sum / lj[j];
      }
    }
    return true;
  };
  // Rows go in blocks of four. Left of the block, l(i, j) needs only the
  // finished rows above the block and row i's own entries left of j, so
  // the four rows' entries of one column are independent: four add
  // chains run side by side, each in ascending k exactly as finish_row
  // sums, which keeps every bit. The block's own 4x4 triangle then goes
  // row by row, so diagonals are still checked in row order.
  size_t i0 = 0;
  for (; i0 + 4 <= n; i0 += 4) {
    double* l0 = l.RowPtr(i0);
    double* l1 = l.RowPtr(i0 + 1);
    double* l2 = l.RowPtr(i0 + 2);
    double* l3 = l.RowPtr(i0 + 3);
    for (size_t j = 0; j < i0; ++j) {
      const double* lj = l.RowPtr(j);
      double s0 = a(i0, j), s1 = a(i0 + 1, j), s2 = a(i0 + 2, j),
             s3 = a(i0 + 3, j);
      for (size_t k = 0; k < j; ++k) {
        const double ljk = lj[k];
        s0 -= l0[k] * ljk;
        s1 -= l1[k] * ljk;
        s2 -= l2[k] * ljk;
        s3 -= l3[k] * ljk;
      }
      const double d = lj[j];
      l0[j] = s0 / d;
      l1[j] = s1 / d;
      l2[j] = s2 / d;
      l3[j] = s3 / d;
    }
    for (size_t i = i0; i < i0 + 4; ++i) {
      if (!finish_row(i, i0)) {
        return Status::FailedPrecondition("matrix is not positive definite");
      }
    }
  }
  for (size_t i = i0; i < n; ++i) {
    if (!finish_row(i, 0)) {
      return Status::FailedPrecondition("matrix is not positive definite");
    }
  }
  return l;
}

std::vector<double> ForwardSubstitute(const Matrix& l,
                                      const std::vector<double>& b) {
  const size_t n = l.rows();
  ARDA_CHECK_EQ(b.size(), n);
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (size_t k = 0; k < i; ++k) sum -= l(i, k) * y[k];
    y[i] = sum / l(i, i);
  }
  return y;
}

std::vector<double> BackwardSubstitute(const Matrix& l,
                                       const std::vector<double>& y) {
  const size_t n = l.rows();
  ARDA_CHECK_EQ(y.size(), n);
  std::vector<double> x(n);
  for (size_t ii = n; ii > 0; --ii) {
    size_t i = ii - 1;
    double sum = y[i];
    for (size_t k = i + 1; k < n; ++k) sum -= l(k, i) * x[k];
    x[i] = sum / l(i, i);
  }
  return x;
}

Result<std::vector<double>> SolveSpd(const Matrix& a,
                                     const std::vector<double>& b) {
  ARDA_ASSIGN_OR_RETURN(Matrix l, Cholesky(a));
  std::vector<double> y = ForwardSubstitute(l, b);
  return BackwardSubstitute(l, y);
}

Result<std::vector<double>> RidgeSolve(const Matrix& x,
                                       const std::vector<double>& y,
                                       double lambda) {
  ARDA_CHECK_EQ(x.rows(), y.size());
  ARDA_CHECK_GT(lambda, 0.0);
  const size_t d = x.cols();
  // Gram matrix X^T X + lambda I.
  Matrix gram(d, d);
  for (size_t r = 0; r < x.rows(); ++r) {
    const double* row = x.RowPtr(r);
    for (size_t i = 0; i < d; ++i) {
      const double xi = row[i];
      if (xi == 0.0) continue;
      double* grow = gram.RowPtr(i);
      for (size_t j = i; j < d; ++j) grow[j] += xi * row[j];
    }
  }
  for (size_t i = 0; i < d; ++i) {
    gram(i, i) += lambda;
    for (size_t j = 0; j < i; ++j) gram(i, j) = gram(j, i);
  }
  std::vector<double> rhs = x.TransposeMultiplyVec(y);
  Result<std::vector<double>> solved = SolveSpd(gram, rhs);
  if (solved.ok()) return solved;
  // Extremely ill-conditioned inputs: retry with a heavier diagonal.
  for (size_t i = 0; i < d; ++i) gram(i, i) += 1e-3 + lambda * 10.0;
  Result<std::vector<double>> retried = SolveSpd(gram, rhs);
  if (retried.ok()) return retried;
  return Status::FailedPrecondition(
      "ridge system is singular even after jittered regularization: " +
      retried.status().message());
}

ColumnStats ComputeColumnStats(const Matrix& x) {
  ColumnStats stats;
  const size_t n = x.rows();
  const size_t d = x.cols();
  stats.mean.assign(d, 0.0);
  stats.stddev.assign(d, 1.0);
  if (n == 0) return stats;
  for (size_t r = 0; r < n; ++r) {
    const double* row = x.RowPtr(r);
    for (size_t c = 0; c < d; ++c) stats.mean[c] += row[c];
  }
  for (size_t c = 0; c < d; ++c) stats.mean[c] /= static_cast<double>(n);
  std::vector<double> var(d, 0.0);
  for (size_t r = 0; r < n; ++r) {
    const double* row = x.RowPtr(r);
    for (size_t c = 0; c < d; ++c) {
      const double delta = row[c] - stats.mean[c];
      var[c] += delta * delta;
    }
  }
  for (size_t c = 0; c < d; ++c) {
    double sd = std::sqrt(var[c] / static_cast<double>(n));
    stats.stddev[c] = sd < 1e-12 ? 1.0 : sd;
  }
  return stats;
}

Matrix Standardize(const Matrix& x, const ColumnStats& stats) {
  ARDA_CHECK_EQ(stats.mean.size(), x.cols());
  Matrix out(x.rows(), x.cols());
  for (size_t r = 0; r < x.rows(); ++r) {
    const double* row = x.RowPtr(r);
    double* orow = out.RowPtr(r);
    for (size_t c = 0; c < x.cols(); ++c) {
      orow[c] = (row[c] - stats.mean[c]) / stats.stddev[c];
    }
  }
  return out;
}

FeatureMoments ComputeFeatureMoments(const Matrix& x) {
  // Columns of x are the observations (each feature vector lives in R^n).
  const size_t n = x.rows();
  const size_t d = x.cols();
  FeatureMoments moments;
  moments.mean.assign(n, 0.0);
  moments.covariance = Matrix(n, n);
  if (d == 0) return moments;
  for (size_t r = 0; r < n; ++r) {
    const double* row = x.RowPtr(r);
    double sum = 0.0;
    for (size_t c = 0; c < d; ++c) sum += row[c];
    moments.mean[r] = sum / static_cast<double>(d);
  }
  // Accumulate sum_c (col_c - mu)(col_c - mu)^T over a centered d x n
  // transpose, one covariance row at a time: row i stays in cache while
  // the centered columns stream through it unit-stride. Every entry sums
  // its terms in ascending c, the order the RIFS noise goldens pin.
  Matrix centered(d, n);
  for (size_t r = 0; r < n; ++r) {
    const double* row = x.RowPtr(r);
    const double mu = moments.mean[r];
    for (size_t c = 0; c < d; ++c) centered(c, r) = row[c] - mu;
  }
  for (size_t i = 0; i < n; ++i) {
    double* crow = moments.covariance.RowPtr(i);
    for (size_t c = 0; c < d; ++c) {
      const double* col = centered.RowPtr(c);
      const double di = col[i];
      if (di == 0.0) continue;
      for (size_t j = i; j < n; ++j) crow[j] += di * col[j];
    }
  }
  const double inv_d = 1.0 / static_cast<double>(d);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i; j < n; ++j) {
      moments.covariance(i, j) *= inv_d;
      moments.covariance(j, i) = moments.covariance(i, j);
    }
  }
  return moments;
}

Matrix SampleMultivariateNormal(const FeatureMoments& moments, size_t count,
                                Rng* rng) {
  const size_t n = moments.mean.size();
  Matrix samples(n, count);  // each *column* is one sampled feature vector
  Matrix sigma = moments.covariance;
  // Jitter the diagonal until Cholesky succeeds (bounded retries).
  double jitter = 1e-8;
  Result<Matrix> chol = Cholesky(sigma);
  for (int attempt = 0; attempt < 6 && !chol.ok(); ++attempt) {
    for (size_t i = 0; i < n; ++i) sigma(i, i) += jitter;
    jitter *= 10.0;
    chol = Cholesky(sigma);
  }
  if (chol.ok()) {
    const Matrix& l = chol.value();
    // Draw every z first, sample by sample, coordinate by coordinate (the
    // stream order callers' seeds depend on), then form mu + L z for all
    // samples at once: sample s of row i sums l(i,k) z(k,s) onto mu_i in
    // ascending k, vectorized across s.
    Matrix z(n, count);
    for (size_t s = 0; s < count; ++s) {
      for (size_t k = 0; k < n; ++k) z(k, s) = rng->Normal();
    }
    for (size_t i = 0; i < n; ++i) {
      double* out = samples.RowPtr(i);
      std::fill(out, out + count, moments.mean[i]);
      const double* lrow = l.RowPtr(i);
      for (size_t k = 0; k <= i; ++k) {
        const double lik = lrow[k];
        const double* zrow = z.RowPtr(k);
        for (size_t s = 0; s < count; ++s) out[s] += lik * zrow[s];
      }
    }
    return samples;
  }
  // Diagonal fallback: independent normals matching per-coordinate variance.
  for (size_t s = 0; s < count; ++s) {
    for (size_t i = 0; i < n; ++i) {
      double var = moments.covariance(i, i);
      double sd = var > 0.0 ? std::sqrt(var) : 1.0;
      samples(i, s) = rng->Normal(moments.mean[i], sd);
    }
  }
  return samples;
}

}  // namespace arda::la
