// Remaining API corners: discovery without name matching, transitive
// multi-path ordering, evaluator/report round trips on a live pipeline
// run, report serialization, small-model edge cases, and CHECK-abort
// death tests (programmer errors must fail loudly, not corrupt state).

#include <gtest/gtest.h>

#include <cstdio>

#include "core/arda.h"
#include "core/report_io.h"
#include "discovery/discovery.h"
#include "discovery/transitive.h"
#include "la/linalg.h"
#include "ml/gradient_boosting.h"
#include "ml/knn.h"
#include "util/check.h"

namespace arda {
namespace {

TEST(DiscoveryNoNameMatchTest, FindsDifferentlyNamedKey) {
  discovery::DataRepository repo;
  df::DataFrame base;
  ASSERT_TRUE(
      base.AddColumn(df::Column::Int64("customer", {1, 2, 3})).ok());
  ASSERT_TRUE(
      base.AddColumn(df::Column::Double("y", {1.0, 2.0, 3.0})).ok());
  ASSERT_TRUE(repo.Add("base", std::move(base)).ok());
  df::DataFrame foreign;
  ASSERT_TRUE(foreign.AddColumn(df::Column::Int64("cust_id", {1, 2})).ok());
  ASSERT_TRUE(repo.Add("profiles", std::move(foreign)).ok());

  // Strict name matching misses the join...
  EXPECT_TRUE(discovery::DiscoverCandidates(repo, "base", "y").empty());
  // ...relaxing it finds the value overlap.
  discovery::DiscoveryOptions options;
  options.require_name_match = false;
  std::vector<discovery::CandidateJoin> candidates =
      discovery::DiscoverCandidates(repo, "base", "y", options);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0].keys[0].base_column, "customer");
  EXPECT_EQ(candidates[0].keys[0].foreign_column, "cust_id");
}

TEST(TransitiveMultiPathTest, PathsSortedByScore) {
  discovery::DataRepository repo;
  df::DataFrame base;
  ASSERT_TRUE(base.AddColumn(df::Column::Int64("k", {1, 2, 3, 4})).ok());
  ASSERT_TRUE(
      base.AddColumn(df::Column::Double("y", {1, 2, 3, 4})).ok());
  ASSERT_TRUE(repo.Add("base", std::move(base)).ok());
  // Strong via: full key overlap; weak via: partial overlap.
  df::DataFrame strong_via;
  ASSERT_TRUE(
      strong_via.AddColumn(df::Column::Int64("k", {1, 2, 3, 4})).ok());
  ASSERT_TRUE(
      strong_via.AddColumn(df::Column::Int64("z", {7, 8, 9, 10})).ok());
  ASSERT_TRUE(repo.Add("strong_via", std::move(strong_via)).ok());
  df::DataFrame weak_via;
  ASSERT_TRUE(
      weak_via.AddColumn(df::Column::Int64("k", {1, 90, 91, 92})).ok());
  ASSERT_TRUE(
      weak_via.AddColumn(df::Column::Int64("w", {5, 6, 7, 8})).ok());
  ASSERT_TRUE(repo.Add("weak_via", std::move(weak_via)).ok());
  // Two leaf tables reachable only through the vias.
  df::DataFrame leaf_z;
  ASSERT_TRUE(leaf_z.AddColumn(df::Column::Int64("z", {7, 8})).ok());
  ASSERT_TRUE(repo.Add("leaf_z", std::move(leaf_z)).ok());
  df::DataFrame leaf_w;
  ASSERT_TRUE(leaf_w.AddColumn(df::Column::Int64("w", {5, 6})).ok());
  ASSERT_TRUE(repo.Add("leaf_w", std::move(leaf_w)).ok());

  std::vector<discovery::TransitiveCandidate> paths =
      discovery::DiscoverTransitiveCandidates(repo, "base", "y");
  ASSERT_GE(paths.size(), 2u);
  for (size_t i = 1; i < paths.size(); ++i) {
    EXPECT_GE(paths[i - 1].score, paths[i].score);
  }
  EXPECT_EQ(paths[0].via_table, "strong_via");
}

TEST(ReportJsonIntegrationTest, LivePipelineReportSerializes) {
  // Tiny end-to-end run, then serialize.
  Rng rng(42);
  discovery::DataRepository repo;
  df::DataFrame base;
  std::vector<int64_t> ids(80);
  std::vector<double> y(80), hidden(80);
  for (size_t i = 0; i < 80; ++i) {
    ids[i] = static_cast<int64_t>(i);
    hidden[i] = rng.Normal();
    y[i] = 3.0 * hidden[i] + rng.Normal(0.0, 0.2);
  }
  ASSERT_TRUE(base.AddColumn(df::Column::Int64("id", ids)).ok());
  ASSERT_TRUE(base.AddColumn(df::Column::Double("y", y)).ok());
  df::DataFrame foreign;
  ASSERT_TRUE(foreign.AddColumn(df::Column::Int64("id", ids)).ok());
  ASSERT_TRUE(foreign.AddColumn(df::Column::Double("hidden", hidden)).ok());
  ASSERT_TRUE(repo.Add("signal", std::move(foreign)).ok());
  ASSERT_TRUE(repo.Add("base", base).ok());

  core::AugmentationTask task;
  task.base = std::move(base);
  task.target_column = "y";
  task.task = ml::TaskType::kRegression;
  task.repo = &repo;
  core::ArdaConfig config;
  config.rifs.num_rounds = 3;
  Result<core::ArdaReport> report = core::Arda(config).Run(task);
  ASSERT_TRUE(report.ok());

  std::string json = core::ReportToJson(*report);
  // Structure sanity: balanced braces/brackets, key fields present.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  EXPECT_NE(json.find("\"batches\""), std::string::npos);
  EXPECT_NE(json.find("\"selected_features\""), std::string::npos);
}

TEST(ReportIoTest, JsonEscaping) {
  EXPECT_EQ(core::JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(core::JsonEscape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(core::JsonEscape("line\nbreak"), "line\\nbreak");
}

TEST(ReportIoTest, SerializesReportFields) {
  core::ArdaReport report;
  report.base_score = -2.5;
  report.final_score = -1.25;
  report.tables_considered = 4;
  report.tables_joined = 2;
  core::BatchLog batch;
  batch.tables = {"weather", "events"};
  batch.accepted = true;
  batch.features_considered = 10;
  batch.features_kept = 3;
  report.batches.push_back(batch);
  ASSERT_TRUE(report.augmented
                  .AddColumn(df::Column::Double("x", {1.0}))
                  .ok());
  report.selected_features = {"x", "weather.temp"};

  std::string json = core::ReportToJson(report);
  EXPECT_NE(json.find("\"base_score\": -2.5"), std::string::npos);
  EXPECT_NE(json.find("\"final_score\": -1.25"), std::string::npos);
  EXPECT_NE(json.find("\"improvement_percent\": 50"), std::string::npos);
  EXPECT_NE(json.find("\"tables_joined\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"weather\""), std::string::npos);
  EXPECT_NE(json.find("\"accepted\": true"), std::string::npos);
  EXPECT_NE(json.find("\"augmented_rows\": 1"), std::string::npos);
}

TEST(ReportIoTest, WritesFile) {
  core::ArdaReport report;
  std::string path = testing::TempDir() + "/arda_report.json";
  ASSERT_TRUE(core::WriteReportJson(report, path).ok());
  std::remove(path.c_str());
  EXPECT_FALSE(core::WriteReportJson(report, "/no/such/dir/x.json").ok());
}

TEST(BoostingEdgeTest, ConstantTargetPredictsConstant) {
  la::Matrix x(20, 2, 1.0);
  std::vector<double> y(20, 7.5);
  ml::BoostingConfig config;
  config.task = ml::TaskType::kRegression;
  config.num_rounds = 5;
  ml::GradientBoosting model(config);
  model.Fit(x, y);
  EXPECT_NEAR(model.Predict(x)[0], 7.5, 1e-9);
}

TEST(KnnEdgeTest, KLargerThanTrainingSetClamps) {
  la::Matrix x(3, 1, std::vector<double>{0, 1, 2});
  std::vector<double> y = {0, 10, 20};
  ml::KnnConfig config;
  config.task = ml::TaskType::kRegression;
  config.k = 50;
  ml::KNearestNeighbors knn(config);
  knn.Fit(x, y);
  EXPECT_NEAR(knn.Predict(x)[0], 10.0, 1e-9);  // mean of everything
}

TEST(LinalgEdgeTest, SubstitutionSolvers) {
  // L = [[2,0],[1,3]]; solve L y = (4, 7) then L^T x = y.
  la::Matrix l(2, 2, std::vector<double>{2, 0, 1, 3});
  std::vector<double> y = la::ForwardSubstitute(l, {4, 7});
  EXPECT_DOUBLE_EQ(y[0], 2.0);
  EXPECT_DOUBLE_EQ(y[1], 5.0 / 3.0);
  std::vector<double> x = la::BackwardSubstitute(l, y);
  // Check L^T x = y.
  EXPECT_NEAR(2 * x[0] + 1 * x[1], y[0], 1e-12);
  EXPECT_NEAR(3 * x[1], y[1], 1e-12);
}

using CheckDeathTest = testing::Test;

TEST(CheckDeathTest, MatrixOutOfBoundsAborts) {
  la::Matrix m(2, 2);
  EXPECT_DEATH(m.At(5, 0), "ARDA_CHECK failed");
}

TEST(CheckDeathTest, ColumnTypeMismatchAborts) {
  df::Column c = df::Column::Double("c", {1.0});
  EXPECT_DEATH(c.Int64At(0), "ARDA_CHECK failed");
}

TEST(CheckDeathTest, NullAccessAborts) {
  df::Column c = df::Column::Empty("c", df::DataType::kDouble);
  c.AppendNull();
  EXPECT_DEATH(c.DoubleAt(0), "ARDA_CHECK failed");
}

TEST(CheckDeathTest, MismatchedFitAborts) {
  ml::KnnConfig config;
  ml::KNearestNeighbors knn(config);
  la::Matrix x(3, 1);
  std::vector<double> y = {1.0};  // wrong length
  EXPECT_DEATH(knn.Fit(x, y), "ARDA_CHECK failed");
}

}  // namespace
}  // namespace arda
