// Writes the golden-output fixtures for tests/golden_kernels_test.cc into
// the directory given as argv[1] (tests/golden/ in the source tree).
//
// The fixtures pin the exact bit-level outputs of the decision-tree,
// random-forest, join/group-by, RIFS (sparse-regression fit,
// moment-matched noise) and Cholesky kernels at fixed seeds. The tree and
// join files were generated from the row-at-a-time kernels, the
// sparse-regression files from the per-evaluation-allocating fit, the
// regression-forest file from the per-node comparison sort over per-tree
// row copies, and the Cholesky file from the one-row-at-a-time factor; the
// rewritten kernels must reproduce them byte for byte. The noise file was
// captured from the data-factor draw (mu + Xc z / sqrt(d)) when it
// replaced the n x n covariance and its Cholesky factor. Re-run this tool
// ONLY when an intentional output change is being made, and say so in the
// commit message.

#include <cstdio>
#include <string>

#include "data/generators.h"
#include "dataframe/aggregate.h"
#include "dataframe/csv.h"
#include "join/geo_join.h"
#include "join/join_executor.h"
#include "ml/decision_tree.h"
#include "ml/random_forest.h"
#include "tests/golden_fixtures.h"
#include "util/check.h"

namespace arda {
namespace {

void WriteFile(const std::string& dir, const std::string& name,
               const std::string& content) {
  std::string path = dir + "/" + name;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ARDA_CHECK(f != nullptr);
  ARDA_CHECK_EQ(std::fwrite(content.data(), 1, content.size(), f),
                content.size());
  std::fclose(f);
  std::printf("wrote %s (%zu bytes)\n", path.c_str(), content.size());
}

}  // namespace
}  // namespace arda

int main(int argc, char** argv) {
  using namespace arda;
  ARDA_CHECK_EQ(argc, 2);
  const std::string dir = argv[1];

  WriteFile(dir, "tree_classification.txt",
            golden::GoldenClassificationTree());
  WriteFile(dir, "tree_regression.txt", golden::GoldenRegressionTree());
  WriteFile(dir, "forest_predictions.txt",
            golden::GoldenForestPredictions(1));
  WriteFile(dir, "join_hard.csv", golden::GoldenHardJoinCsv());
  WriteFile(dir, "join_soft.csv", golden::GoldenSoftJoinCsv());
  WriteFile(dir, "join_geo.csv", golden::GoldenGeoJoinCsv());
  WriteFile(dir, "aggregate.csv", golden::GoldenAggregateCsv());
  WriteFile(dir, "sparse_regression_c1.txt",
            golden::GoldenSparseRegression(ml::TaskType::kRegression));
  WriteFile(dir, "sparse_regression_c2.txt",
            golden::GoldenSparseRegression(ml::TaskType::kClassification));
  WriteFile(dir, "noise_moment_matched.txt", golden::GoldenMomentNoise());
  WriteFile(dir, "forest_regression.txt", golden::GoldenForestRegression(1));
  WriteFile(dir, "cholesky.txt", golden::GoldenCholesky());
  return 0;
}
