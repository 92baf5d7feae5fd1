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

Matrix SampleMomentMatched(const Matrix& x, size_t count, Rng* rng) {
  const size_t n = x.rows();
  const size_t d = x.cols();
  Matrix samples(n, count);  // each *column* is one sampled feature vector
  if (d == 0) return samples;
  // Draw every z first, sample by sample, coordinate by coordinate (the
  // stream order callers' seeds depend on), scaled by 1/sqrt(d).
  const double scale = 1.0 / std::sqrt(static_cast<double>(d));
  Matrix z(d, count);
  for (size_t s = 0; s < count; ++s) {
    for (size_t k = 0; k < d; ++k) z(k, s) = rng->Normal() * scale;
  }
  // Row i: mu_i, then xc(i,k) z(k,s) added in ascending k, vectorized
  // across the samples s. Zero entries of xc are skipped, so a row whose
  // entries are all equal yields exactly mu_i.
  for (size_t i = 0; i < n; ++i) {
    const double* row = x.RowPtr(i);
    double sum = 0.0;
    for (size_t k = 0; k < d; ++k) sum += row[k];
    const double mu = sum / static_cast<double>(d);
    double* out = samples.RowPtr(i);
    std::fill(out, out + count, mu);
    for (size_t k = 0; k < d; ++k) {
      const double xc = row[k] - mu;
      if (xc == 0.0) continue;
      const double* zrow = z.RowPtr(k);
      for (size_t s = 0; s < count; ++s) out[s] += xc * zrow[s];
    }
  }
  return samples;
}

}  // namespace arda::la
