#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "la/linalg.h"
#include "la/matrix.h"
#include "util/rng.h"

namespace arda::la {
namespace {

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m.At(1, 2), 1.5);
  m.At(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m(0, 1), -2.0);
}

TEST(MatrixTest, FromData) {
  Matrix m(2, 2, std::vector<double>{1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(m(0, 0), 1);
  EXPECT_DOUBLE_EQ(m(1, 1), 4);
}

TEST(MatrixTest, RowAndColCopies) {
  Matrix m(2, 3, std::vector<double>{1, 2, 3, 4, 5, 6});
  EXPECT_EQ(m.Row(1), (std::vector<double>{4, 5, 6}));
  EXPECT_EQ(m.Col(2), (std::vector<double>{3, 6}));
}

TEST(MatrixTest, SetRowAndSetCol) {
  Matrix m(2, 2);
  m.SetRow(0, {1, 2});
  m.SetCol(1, {9, 8});
  EXPECT_DOUBLE_EQ(m(0, 0), 1);
  EXPECT_DOUBLE_EQ(m(0, 1), 9);
  EXPECT_DOUBLE_EQ(m(1, 1), 8);
}

TEST(MatrixTest, Transpose) {
  Matrix m(2, 3, std::vector<double>{1, 2, 3, 4, 5, 6});
  Matrix t = m.Transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6);
}

TEST(MatrixTest, Multiply) {
  Matrix a(2, 2, std::vector<double>{1, 2, 3, 4});
  Matrix b(2, 2, std::vector<double>{5, 6, 7, 8});
  Matrix c = a.Multiply(b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19);
  EXPECT_DOUBLE_EQ(c(0, 1), 22);
  EXPECT_DOUBLE_EQ(c(1, 0), 43);
  EXPECT_DOUBLE_EQ(c(1, 1), 50);
}

TEST(MatrixTest, MultiplyVec) {
  Matrix a(2, 3, std::vector<double>{1, 0, 2, 0, 1, -1});
  std::vector<double> out = a.MultiplyVec({1, 2, 3});
  EXPECT_DOUBLE_EQ(out[0], 7);
  EXPECT_DOUBLE_EQ(out[1], -1);
}

TEST(MatrixTest, TransposeMultiplyVec) {
  Matrix a(2, 2, std::vector<double>{1, 2, 3, 4});
  std::vector<double> out = a.TransposeMultiplyVec({1, 1});
  EXPECT_DOUBLE_EQ(out[0], 4);
  EXPECT_DOUBLE_EQ(out[1], 6);
}

TEST(MatrixTest, SelectColsAndRows) {
  Matrix a(2, 3, std::vector<double>{1, 2, 3, 4, 5, 6});
  Matrix cols = a.SelectCols({2, 0});
  EXPECT_DOUBLE_EQ(cols(0, 0), 3);
  EXPECT_DOUBLE_EQ(cols(1, 1), 4);
  Matrix rows = a.SelectRows({1, 1});
  EXPECT_EQ(rows.rows(), 2u);
  EXPECT_DOUBLE_EQ(rows(0, 0), 4);
  EXPECT_DOUBLE_EQ(rows(1, 2), 6);
}

TEST(MatrixTest, HStack) {
  Matrix a(2, 1, std::vector<double>{1, 2});
  Matrix b(2, 2, std::vector<double>{3, 4, 5, 6});
  Matrix c = a.HStack(b);
  EXPECT_EQ(c.cols(), 3u);
  EXPECT_DOUBLE_EQ(c(1, 2), 6);
}

TEST(MatrixTest, HStackWithEmpty) {
  Matrix a;
  Matrix b(2, 2, std::vector<double>{3, 4, 5, 6});
  EXPECT_EQ(a.HStack(b).cols(), 2u);
  EXPECT_EQ(b.HStack(a).cols(), 2u);
}

TEST(MatrixTest, Identity) {
  Matrix i = Identity(3);
  EXPECT_DOUBLE_EQ(i(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(i(0, 2), 0.0);
}

TEST(VectorOpsTest, DotNormAxpy) {
  std::vector<double> a = {1, 2, 2};
  std::vector<double> b = {2, 0, 1};
  EXPECT_DOUBLE_EQ(Dot(a, b), 4.0);
  EXPECT_DOUBLE_EQ(Norm2(a), 3.0);
  Axpy(2.0, b, &a);
  EXPECT_DOUBLE_EQ(a[0], 5.0);
}

TEST(VectorOpsTest, MeanVariance) {
  std::vector<double> a = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(Mean(a), 2.5);
  EXPECT_DOUBLE_EQ(Variance(a), 1.25);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
}

TEST(VectorOpsTest, PearsonPerfectCorrelation) {
  std::vector<double> a = {1, 2, 3, 4};
  std::vector<double> b = {2, 4, 6, 8};
  EXPECT_NEAR(PearsonCorrelation(a, b), 1.0, 1e-12);
  std::vector<double> c = {-1, -2, -3, -4};
  EXPECT_NEAR(PearsonCorrelation(a, c), -1.0, 1e-12);
}

TEST(VectorOpsTest, PearsonConstantInputIsZero) {
  std::vector<double> a = {1, 1, 1};
  std::vector<double> b = {1, 2, 3};
  EXPECT_DOUBLE_EQ(PearsonCorrelation(a, b), 0.0);
}

TEST(CholeskyTest, FactorsSpdMatrix) {
  Matrix a(2, 2, std::vector<double>{4, 2, 2, 3});
  Result<Matrix> l = Cholesky(a);
  ASSERT_TRUE(l.ok());
  EXPECT_NEAR(l->At(0, 0), 2.0, 1e-12);
  EXPECT_NEAR(l->At(1, 0), 1.0, 1e-12);
  EXPECT_NEAR(l->At(1, 1), std::sqrt(2.0), 1e-12);
}

TEST(CholeskyTest, RejectsIndefinite) {
  Matrix a(2, 2, std::vector<double>{1, 2, 2, 1});
  EXPECT_FALSE(Cholesky(a).ok());
}

TEST(SolveSpdTest, SolvesSystem) {
  Matrix a(2, 2, std::vector<double>{4, 2, 2, 3});
  Result<std::vector<double>> x = SolveSpd(a, {10, 8});
  ASSERT_TRUE(x.ok());
  // Verify A x = b.
  EXPECT_NEAR(4 * (*x)[0] + 2 * (*x)[1], 10.0, 1e-9);
  EXPECT_NEAR(2 * (*x)[0] + 3 * (*x)[1], 8.0, 1e-9);
}

TEST(RidgeSolveTest, RecoversLinearModel) {
  Rng rng(5);
  const size_t n = 200, d = 4;
  Matrix x(n, d);
  std::vector<double> truth = {2.0, -1.0, 0.5, 3.0};
  std::vector<double> y(n);
  for (size_t r = 0; r < n; ++r) {
    double acc = 0.0;
    for (size_t c = 0; c < d; ++c) {
      x(r, c) = rng.Normal();
      acc += truth[c] * x(r, c);
    }
    y[r] = acc;
  }
  Result<std::vector<double>> w = RidgeSolve(x, y, 1e-6);
  ASSERT_TRUE(w.ok());
  for (size_t c = 0; c < d; ++c) EXPECT_NEAR((*w)[c], truth[c], 1e-3);
}

TEST(RidgeSolveTest, NonFiniteGramReturnsStatusNotNaNWeights) {
  // A NaN feature poisons the Gram matrix; no amount of diagonal jitter
  // fixes it, so the solver must fail with a Status instead of silently
  // returning NaN weights.
  Matrix x(3, 2);
  x(0, 0) = 1.0;
  x(0, 1) = std::numeric_limits<double>::quiet_NaN();
  x(1, 0) = 2.0;
  x(1, 1) = 1.0;
  x(2, 0) = 3.0;
  x(2, 1) = -1.0;
  std::vector<double> y = {1.0, 2.0, 3.0};
  Result<std::vector<double>> w = RidgeSolve(x, y, 1e-3);
  ASSERT_FALSE(w.ok());
  EXPECT_NE(w.status().message().find("singular"), std::string::npos);
}

TEST(StandardizeTest, ZeroMeanUnitVariance) {
  Rng rng(6);
  Matrix x(300, 2);
  for (size_t r = 0; r < 300; ++r) {
    x(r, 0) = rng.Normal(5.0, 3.0);
    x(r, 1) = 7.0;  // constant column
  }
  ColumnStats stats = ComputeColumnStats(x);
  Matrix z = Standardize(x, stats);
  EXPECT_NEAR(Mean(z.Col(0)), 0.0, 1e-9);
  EXPECT_NEAR(Variance(z.Col(0)), 1.0, 1e-6);
  EXPECT_NEAR(z(0, 1), 0.0, 1e-12);  // constant column maps to zero
}

// Draws many samples from SampleMomentMatched(x) and checks the sample
// mean against mu and the sample covariance against Sigma = (1/d) Xc Xc^T,
// both computed directly from x. Tolerances are five standard errors of
// each estimate under the Gaussian the draw targets.
void ExpectMomentsConverge(const Matrix& x, uint64_t seed) {
  const size_t n = x.rows();
  const size_t d = x.cols();
  std::vector<double> mu(n, 0.0);
  for (size_t i = 0; i < n; ++i) mu[i] = Mean(x.Row(i));
  Matrix sigma(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      for (size_t k = 0; k < d; ++k) {
        sigma(i, j) += (x(i, k) - mu[i]) * (x(j, k) - mu[j]);
      }
      sigma(i, j) /= static_cast<double>(d);
    }
  }
  const size_t count = 40000;
  Rng rng(seed);
  Matrix samples = SampleMomentMatched(x, count, &rng);
  ASSERT_EQ(samples.rows(), n);
  ASSERT_EQ(samples.cols(), count);
  const double m = static_cast<double>(count);
  std::vector<double> mean(n);
  for (size_t i = 0; i < n; ++i) {
    mean[i] = Mean(samples.Row(i));
    EXPECT_NEAR(mean[i], mu[i], 5.0 * std::sqrt(sigma(i, i) / m)) << i;
  }
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      double cov = 0.0;
      for (size_t s = 0; s < count; ++s) {
        cov += (samples(i, s) - mean[i]) * (samples(j, s) - mean[j]);
      }
      cov /= m;
      const double se = std::sqrt(
          (sigma(i, i) * sigma(j, j) + sigma(i, j) * sigma(i, j)) / m);
      EXPECT_NEAR(cov, sigma(i, j), 5.0 * se) << i << "," << j;
    }
  }
}

// Rows with different means and scales, mixed through a shared component
// so Sigma has off-diagonal structure.
Matrix MixedColumns(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  Matrix x(n, d);
  for (size_t k = 0; k < d; ++k) {
    const double shared = rng.Normal();
    for (size_t i = 0; i < n; ++i) {
      x(i, k) = static_cast<double>(i) - 2.0 +
                (1.0 + 0.5 * static_cast<double>(i)) * rng.Normal() +
                (i % 2 == 0 ? 1.5 : -0.8) * shared;
    }
  }
  return x;
}

TEST(SampleMomentMatchedTest, MomentsConvergeWithFewerColumnsThanRows) {
  // d < n: Sigma (5 x 5) has rank at most 2 and has no Cholesky factor.
  ExpectMomentsConverge(MixedColumns(5, 3, 21), 22);
}

TEST(SampleMomentMatchedTest, MomentsConvergeWithMoreColumnsThanRows) {
  ExpectMomentsConverge(MixedColumns(3, 8, 23), 24);
}

TEST(SampleMomentMatchedTest, EqualColumnsYieldExactlyTheMean) {
  // Every column equal: Sigma is zero and each sample is exactly mu.
  const std::vector<double> column = {1.5, -2.25, 7.0, 0.0};
  Matrix x(column.size(), 3);
  for (size_t i = 0; i < column.size(); ++i) {
    for (size_t k = 0; k < x.cols(); ++k) x(i, k) = column[i];
  }
  Rng rng(25);
  Matrix samples = SampleMomentMatched(x, 50, &rng);
  for (size_t i = 0; i < column.size(); ++i) {
    for (size_t s = 0; s < samples.cols(); ++s) {
      EXPECT_EQ(samples(i, s), column[i]) << i << "," << s;
    }
  }
}

TEST(SampleMomentMatchedTest, DrawsSampleBySample) {
  // Sample s consumes the stream's normals s*d through s*d + d - 1, so a
  // shorter draw is a prefix of a longer one at the same seed.
  Matrix x = MixedColumns(6, 4, 26);
  Rng one_rng(27), many_rng(27);
  Matrix one = SampleMomentMatched(x, 1, &one_rng);
  Matrix many = SampleMomentMatched(x, 5, &many_rng);
  for (size_t i = 0; i < x.rows(); ++i) EXPECT_EQ(one(i, 0), many(i, 0));
}

TEST(SampleMomentMatchedTest, NoColumnsYieldZerosAndDrawNothing) {
  Rng rng(28), fresh(28);
  Matrix samples = SampleMomentMatched(Matrix(3, 0), 4, &rng);
  ASSERT_EQ(samples.rows(), 3u);
  ASSERT_EQ(samples.cols(), 4u);
  for (double v : samples.data()) EXPECT_EQ(v, 0.0);
  EXPECT_EQ(rng.NextUint64(), fresh.NextUint64());
}

}  // namespace
}  // namespace arda::la
