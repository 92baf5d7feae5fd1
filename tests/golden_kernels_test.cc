// Golden-output regression tests for the columnar hot-path kernels.
//
// The files under tests/golden/ were serialized from the pre-rewrite
// row-at-a-time kernels at fixed seeds; the pre-sorted and ranked split
// searches, the interned-key join/group-by paths, the transposed RIFS
// kernels and the row-blocked Cholesky factor must reproduce them byte for
// byte, at 1 and at 8 threads. See tools/capture_goldens.cc for
// how to regenerate them (only on an intentional output change).

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "simd/simd.h"
#include "tests/golden_fixtures.h"
#include "util/thread_pool.h"

#ifndef ARDA_GOLDEN_DIR
#error "ARDA_GOLDEN_DIR must be defined by the build"
#endif

namespace arda {
namespace {

std::string ReadGolden(const std::string& name) {
  std::string path = std::string(ARDA_GOLDEN_DIR) + "/" + name;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    ADD_FAILURE() << "missing golden file " << path
                  << " (run tools/capture_goldens)";
    return "";
  }
  std::string content;
  char buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    content.append(buf, got);
  }
  std::fclose(f);
  return content;
}

TEST(GoldenKernelsTest, ClassificationTreeBitIdentical) {
  EXPECT_EQ(golden::GoldenClassificationTree(),
            ReadGolden("tree_classification.txt"));
}

TEST(GoldenKernelsTest, RegressionTreeBitIdentical) {
  EXPECT_EQ(golden::GoldenRegressionTree(),
            ReadGolden("tree_regression.txt"));
}

TEST(GoldenKernelsTest, ForestPredictionsBitIdenticalSingleThread) {
  EXPECT_EQ(golden::GoldenForestPredictions(1),
            ReadGolden("forest_predictions.txt"));
}

TEST(GoldenKernelsTest, ForestPredictionsBitIdenticalEightThreads) {
  EXPECT_EQ(golden::GoldenForestPredictions(8),
            ReadGolden("forest_predictions.txt"));
}

// Regression forest with sqrt feature sampling: pins the (value, y) tie
// order of the split search, signed zeros, NaN and a constant column.
TEST(GoldenKernelsTest, ForestRegressionBitIdentical) {
  const std::string want = ReadGolden("forest_regression.txt");
  EXPECT_EQ(golden::GoldenForestRegression(1), want);
  EXPECT_EQ(golden::GoldenForestRegression(4), want);
}

TEST(GoldenKernelsTest, CholeskyBitIdentical) {
  EXPECT_EQ(golden::GoldenCholesky(), ReadGolden("cholesky.txt"));
}

TEST(GoldenKernelsTest, HardJoinBitIdentical) {
  EXPECT_EQ(golden::GoldenHardJoinCsv(), ReadGolden("join_hard.csv"));
}

TEST(GoldenKernelsTest, SoftJoinBitIdentical) {
  EXPECT_EQ(golden::GoldenSoftJoinCsv(), ReadGolden("join_soft.csv"));
}

TEST(GoldenKernelsTest, GeoJoinBitIdentical) {
  EXPECT_EQ(golden::GoldenGeoJoinCsv(), ReadGolden("join_geo.csv"));
}

TEST(GoldenKernelsTest, AggregateBitIdentical) {
  EXPECT_EQ(golden::GoldenAggregateCsv(), ReadGolden("aggregate.csv"));
}

// The RIFS kernels: the l2,1 sparse-regression fit at c=1 and c=2 and the
// moment-matched noise sampler. The fit goldens were captured from the
// kernel before its transposed, allocation-free rewrite; the noise golden
// from the data-factor draw itself.
TEST(GoldenKernelsTest, SparseRegressionBitIdentical) {
  EXPECT_EQ(golden::GoldenSparseRegression(ml::TaskType::kRegression),
            ReadGolden("sparse_regression_c1.txt"));
  EXPECT_EQ(golden::GoldenSparseRegression(ml::TaskType::kClassification),
            ReadGolden("sparse_regression_c2.txt"));
}

TEST(GoldenKernelsTest, MomentNoiseBitIdentical) {
  EXPECT_EQ(golden::GoldenMomentNoise(),
            ReadGolden("noise_moment_matched.txt"));
}

// RIFS runs its rounds' fits, forests and noise draws concurrently on the
// pool; eight at once must each reproduce the single-threaded golden.
TEST(GoldenKernelsTest, RifsKernelGoldensHoldUnderEightThreads) {
  const std::vector<std::string> want = {
      ReadGolden("sparse_regression_c1.txt"),
      ReadGolden("sparse_regression_c2.txt"),
      ReadGolden("noise_moment_matched.txt"),
      ReadGolden("forest_regression.txt"), ReadGolden("cholesky.txt")};
  std::vector<std::string> got(10);
  ParallelFor(got.size(), 8, [&](size_t i) {
    switch (i % want.size()) {
      case 0:
        got[i] = golden::GoldenSparseRegression(ml::TaskType::kRegression);
        break;
      case 1:
        got[i] =
            golden::GoldenSparseRegression(ml::TaskType::kClassification);
        break;
      case 2:
        got[i] = golden::GoldenMomentNoise();
        break;
      case 3:
        got[i] = golden::GoldenForestRegression(2);
        break;
      default:
        got[i] = golden::GoldenCholesky();
    }
  });
  for (size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(got[i], want[i % want.size()]);
  }
}

// Every golden must reproduce at every SIMD dispatch level: the vector
// kernels are bit-identical to their scalar fallbacks by contract (see
// DESIGN.md "SIMD dispatch"). The avx2 pass is skipped when the CPU lacks
// AVX2 or the ARDA_SIMD=scalar env pin is active (the dedicated scalar
// ctest leg must stay genuinely scalar).
TEST(GoldenKernelsTest, GoldensAreSimdLevelInvariant) {
  const simd::SimdLevel prev = simd::ActiveLevel();
  std::vector<simd::SimdLevel> levels = {simd::SimdLevel::kScalar};
  const char* env = std::getenv("ARDA_SIMD");
  const bool pinned_scalar =
      env != nullptr && std::string_view(env) == "scalar";
  if (simd::Avx2Supported() && !pinned_scalar) {
    levels.push_back(simd::SimdLevel::kAvx2);
  }
  for (simd::SimdLevel level : levels) {
    ASSERT_TRUE(simd::SetLevel(level));
    SCOPED_TRACE(simd::LevelName(level));
    EXPECT_EQ(golden::GoldenClassificationTree(),
              ReadGolden("tree_classification.txt"));
    EXPECT_EQ(golden::GoldenRegressionTree(),
              ReadGolden("tree_regression.txt"));
    EXPECT_EQ(golden::GoldenHardJoinCsv(), ReadGolden("join_hard.csv"));
    EXPECT_EQ(golden::GoldenSoftJoinCsv(), ReadGolden("join_soft.csv"));
    EXPECT_EQ(golden::GoldenGeoJoinCsv(), ReadGolden("join_geo.csv"));
    EXPECT_EQ(golden::GoldenAggregateCsv(), ReadGolden("aggregate.csv"));
    EXPECT_EQ(golden::GoldenSparseRegression(ml::TaskType::kRegression),
              ReadGolden("sparse_regression_c1.txt"));
    EXPECT_EQ(golden::GoldenSparseRegression(ml::TaskType::kClassification),
              ReadGolden("sparse_regression_c2.txt"));
    EXPECT_EQ(golden::GoldenMomentNoise(),
              ReadGolden("noise_moment_matched.txt"));
    EXPECT_EQ(golden::GoldenCholesky(), ReadGolden("cholesky.txt"));
    // Thread-count sweep inside the level sweep: the dispatch level and
    // the pool must be independently invariant.
    EXPECT_EQ(golden::GoldenForestPredictions(1),
              ReadGolden("forest_predictions.txt"));
    EXPECT_EQ(golden::GoldenForestPredictions(8),
              ReadGolden("forest_predictions.txt"));
    EXPECT_EQ(golden::GoldenForestRegression(1),
              ReadGolden("forest_regression.txt"));
    EXPECT_EQ(golden::GoldenForestRegression(8),
              ReadGolden("forest_regression.txt"));
  }
  simd::SetLevel(prev);
}

}  // namespace
}  // namespace arda
