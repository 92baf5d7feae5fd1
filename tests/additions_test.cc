// Tests for the library additions beyond the paper's core: chi-squared
// filter ranking and gradient-boosted trees.

#include <gtest/gtest.h>

#include <cmath>

#include "featsel/filter_rankers.h"
#include "featsel/selector.h"
#include "ml/gradient_boosting.h"
#include "ml/metrics.h"

namespace arda {
namespace {

// ---------------------------------------------------------- chi-squared --

ml::Dataset MakeLabeled(size_t n, uint64_t seed) {
  Rng rng(seed);
  ml::Dataset data;
  data.task = ml::TaskType::kClassification;
  data.x = la::Matrix(n, 3);
  data.y.resize(n);
  for (size_t i = 0; i < n; ++i) {
    bool positive = i % 2 == 0;
    data.y[i] = positive ? 1.0 : 0.0;
    data.x(i, 0) = rng.Normal(positive ? 2.0 : -2.0, 1.0);  // signal
    data.x(i, 1) = rng.Normal();                            // noise
    data.x(i, 2) = rng.UniformDouble();                     // noise
  }
  data.feature_names = {"signal", "noise1", "noise2"};
  return data;
}

TEST(ChiSquaredTest, SignalScoresHighest) {
  ml::Dataset data = MakeLabeled(400, 3);
  featsel::ChiSquaredRanker ranker;
  Rng rng(1);
  std::vector<double> scores = ranker.Rank(data, &rng);
  EXPECT_GT(scores[0], scores[1]);
  EXPECT_GT(scores[0], scores[2]);
  EXPECT_GT(scores[0], 50.0);  // strongly dependent
}

TEST(ChiSquaredTest, ClassificationOnly) {
  featsel::ChiSquaredRanker ranker;
  EXPECT_TRUE(ranker.SupportsTask(ml::TaskType::kClassification));
  EXPECT_FALSE(ranker.SupportsTask(ml::TaskType::kRegression));
}

TEST(ChiSquaredTest, RegisteredAsSelector) {
  std::unique_ptr<featsel::FeatureSelector> selector =
      featsel::MakeSelector("chi_squared");
  ASSERT_NE(selector, nullptr);
  ml::Dataset data = MakeLabeled(200, 4);
  ml::Evaluator evaluator(data, 0.25, 7);
  Rng rng(2);
  featsel::SelectionResult result =
      selector->Select(data, evaluator, &rng);
  EXPECT_FALSE(result.selected.empty());
  EXPECT_GT(result.score, 0.8);
}

// ------------------------------------------------------------- boosting --

TEST(BoostingTest, RegressionFitsNonlinearTarget) {
  Rng rng(5);
  const size_t n = 400;
  la::Matrix x(n, 2);
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.Uniform(-2.0, 2.0);
    x(i, 1) = rng.Normal();
    y[i] = x(i, 0) * x(i, 0) + rng.Normal(0.0, 0.1);  // quadratic
  }
  ml::BoostingConfig config;
  config.task = ml::TaskType::kRegression;
  ml::GradientBoosting model(config);
  model.Fit(x, y);
  EXPECT_LT(ml::MeanAbsoluteError(y, model.Predict(x)), 0.4);
  EXPECT_EQ(model.NumRounds(), config.num_rounds);
}

TEST(BoostingTest, BinaryClassification) {
  ml::Dataset data = MakeLabeled(400, 6);
  ml::BoostingConfig config;
  config.task = ml::TaskType::kClassification;
  ml::GradientBoosting model(config);
  model.Fit(data.x, data.y);
  EXPECT_GT(ml::Accuracy(data.y, model.Predict(data.x)), 0.95);
}

TEST(BoostingTest, MulticlassOneVsRest) {
  Rng rng(7);
  const size_t n = 300;
  la::Matrix x(n, 1);
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) {
    size_t cls = i % 3;
    y[i] = static_cast<double>(cls);
    x(i, 0) = rng.Normal(static_cast<double>(cls) * 4.0, 0.6);
  }
  ml::BoostingConfig config;
  config.task = ml::TaskType::kClassification;
  ml::GradientBoosting model(config);
  model.Fit(x, y);
  EXPECT_GT(ml::Accuracy(y, model.Predict(x)), 0.93);
}

TEST(BoostingTest, MoreRoundsFitTighter) {
  Rng rng(8);
  la::Matrix x(200, 1);
  std::vector<double> y(200);
  for (size_t i = 0; i < 200; ++i) {
    x(i, 0) = rng.Uniform(-3.0, 3.0);
    y[i] = std::sin(x(i, 0)) * 5.0;
  }
  ml::BoostingConfig few;
  few.task = ml::TaskType::kRegression;
  few.num_rounds = 5;
  few.subsample = 1.0;
  ml::BoostingConfig many = few;
  many.num_rounds = 120;
  ml::GradientBoosting small(few), big(many);
  small.Fit(x, y);
  big.Fit(x, y);
  EXPECT_LT(ml::MeanAbsoluteError(y, big.Predict(x)),
            ml::MeanAbsoluteError(y, small.Predict(x)));
}

}  // namespace
}  // namespace arda
