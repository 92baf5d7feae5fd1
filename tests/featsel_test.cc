#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "featsel/rifs.h"
#include "featsel/search.h"
#include "featsel/selector.h"
#include "featsel/wrappers.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace arda::featsel {
namespace {

// `signal` informative features followed by `noise` pure-noise features.
ml::Dataset MakeDataset(ml::TaskType task, size_t n, size_t signal,
                        size_t noise, uint64_t seed) {
  Rng rng(seed);
  ml::Dataset data;
  data.task = task;
  data.x = la::Matrix(n, signal + noise);
  data.y.resize(n);
  for (size_t i = 0; i < n; ++i) {
    bool positive = i % 2 == 0;
    double acc = 0.0;
    for (size_t c = 0; c < signal; ++c) {
      data.x(i, c) = rng.Normal(positive ? 1.0 : -1.0, 0.9);
      acc += data.x(i, c);
    }
    for (size_t c = signal; c < signal + noise; ++c) {
      data.x(i, c) = rng.Normal();
    }
    data.y[i] = task == ml::TaskType::kClassification
                    ? (positive ? 1.0 : 0.0)
                    : acc + rng.Normal(0.0, 0.3);
  }
  for (size_t c = 0; c < signal + noise; ++c) {
    data.feature_names.push_back((c < signal ? "sig" : "noise") +
                                 std::to_string(c));
  }
  return data;
}

size_t CountSignal(const std::vector<size_t>& selected, size_t signal) {
  size_t count = 0;
  for (size_t f : selected) count += f < signal;
  return count;
}

// Sparse fits RunRifs recorded in the `ml.sparse_fit.iterations` histogram.
uint64_t RecordedSparseFits() {
  for (const auto& h : metrics::GlobalRegistry().Snapshot().histograms) {
    if (h.name == "ml.sparse_fit.iterations") return h.count;
  }
  return 0;
}

TEST(ExponentialSearchTest, SelectsGoodPrefix) {
  ml::Dataset data = MakeDataset(ml::TaskType::kClassification, 300, 3, 12, 1);
  ml::Evaluator evaluator(data, 0.25, 7);
  // Perfect ranking: signal first.
  std::vector<double> ranking(15);
  for (size_t c = 0; c < 15; ++c) {
    ranking[c] = c < 3 ? 10.0 - static_cast<double>(c) : 0.1;
  }
  SearchResult result = ExponentialSearchSelect(ranking, evaluator);
  EXPECT_FALSE(result.selected.empty());
  EXPECT_GE(CountSignal(result.selected, 3), 2u);
  EXPECT_GT(result.score, 0.85);
  // Exponential search trains O(log d) models, far fewer than d.
  EXPECT_LE(result.evaluations, 10u);
}

TEST(ExponentialSearchTest, SingleFeature) {
  ml::Dataset data = MakeDataset(ml::TaskType::kClassification, 100, 1, 0, 2);
  ml::Evaluator evaluator(data, 0.25, 7);
  SearchResult result = ExponentialSearchSelect({1.0}, evaluator);
  EXPECT_EQ(result.selected.size(), 1u);
}

TEST(LinearPrefixSearchTest, FindsBestPrefixButCostsMore) {
  ml::Dataset data = MakeDataset(ml::TaskType::kClassification, 200, 2, 8, 3);
  ml::Evaluator evaluator(data, 0.25, 7);
  std::vector<double> ranking(10);
  for (size_t c = 0; c < 10; ++c) ranking[c] = 10.0 - static_cast<double>(c);
  SearchResult linear = LinearPrefixSearchSelect(ranking, evaluator);
  EXPECT_EQ(linear.evaluations, 10u);  // one per prefix
  SearchResult capped = LinearPrefixSearchSelect(ranking, evaluator, 4);
  EXPECT_EQ(capped.evaluations, 4u);
  EXPECT_GE(linear.score, capped.score);
}

TEST(ForwardSelectionTest, KeepsSignalDropsNoise) {
  ml::Dataset data = MakeDataset(ml::TaskType::kClassification, 250, 3, 10, 4);
  ml::Evaluator evaluator(data, 0.25, 7);
  Rng rng(11);
  SearchResult result = ForwardSelection(data, evaluator, &rng);
  EXPECT_GE(CountSignal(result.selected, 3), 2u);
  EXPECT_GT(result.score, 0.8);
}

TEST(ForwardSelectionTest, RespectsEvaluationCap) {
  ml::Dataset data = MakeDataset(ml::TaskType::kClassification, 150, 2, 20, 5);
  ml::Evaluator evaluator(data, 0.25, 7);
  Rng rng(12);
  WrapperConfig config;
  config.max_evaluations = 6;
  SearchResult result = ForwardSelection(data, evaluator, &rng, config);
  EXPECT_LE(result.evaluations, 6u);
}

TEST(BackwardEliminationTest, RemovesNoiseFeatures) {
  ml::Dataset data = MakeDataset(ml::TaskType::kClassification, 250, 3, 8, 6);
  ml::Evaluator evaluator(data, 0.25, 7);
  Rng rng(13);
  SearchResult result = BackwardElimination(data, evaluator, &rng);
  EXPECT_LT(result.selected.size(), 11u);
  EXPECT_GE(CountSignal(result.selected, 3), 2u);
}

TEST(RfeTest, ShrinksToInformativeCore) {
  ml::Dataset data = MakeDataset(ml::TaskType::kClassification, 250, 3, 12, 7);
  ml::Evaluator evaluator(data, 0.25, 7);
  Rng rng(14);
  SearchResult result = RecursiveFeatureElimination(data, evaluator, &rng);
  EXPECT_FALSE(result.selected.empty());
  EXPECT_GT(result.score, 0.8);
}

TEST(NoiseInjectionTest, MakeNoiseShapes) {
  ml::Dataset data = MakeDataset(ml::TaskType::kRegression, 50, 2, 2, 8);
  Rng rng(15);
  for (NoiseKind kind :
       {NoiseKind::kMomentMatched, NoiseKind::kGaussian, NoiseKind::kUniform,
        NoiseKind::kBernoulli, NoiseKind::kPoisson}) {
    la::Matrix noise = MakeNoiseFeatures(data, 3, kind, &rng);
    EXPECT_EQ(noise.rows(), 50u);
    EXPECT_EQ(noise.cols(), 3u);
  }
  EXPECT_STREQ(NoiseKindName(NoiseKind::kMomentMatched), "moment_matched");
}

TEST(NoiseInjectionTest, MomentMatchedNoiseResemblesData) {
  // Moment-matched noise should reproduce the per-row mean structure of
  // the feature population.
  ml::Dataset data;
  data.task = ml::TaskType::kRegression;
  data.x = la::Matrix(3, 50);
  Rng seed_rng(16);
  for (size_t c = 0; c < 50; ++c) {
    data.x(0, c) = seed_rng.Normal(100.0, 1.0);
    data.x(1, c) = seed_rng.Normal(-50.0, 1.0);
    data.x(2, c) = seed_rng.Normal(0.0, 1.0);
  }
  data.y = {0.0, 0.0, 0.0};
  Rng rng(17);
  // Disable row permutation to test the raw Algorithm-2 sampler.
  la::Matrix noise = MakeNoiseFeatures(data, 200, NoiseKind::kMomentMatched,
                                       &rng, /*permute_moment_noise=*/false);
  EXPECT_NEAR(la::Mean(noise.Row(0)), 100.0, 2.0);
  EXPECT_NEAR(la::Mean(noise.Row(1)), -50.0, 2.0);
}

TEST(NoiseInjectionTest, MomentNoisePermutationIsUniform) {
  // With n = 3 every column's shuffle is one of 3! = 6 orders. Draws with
  // and without the permutation share their pre-permutation samples (the
  // shuffles consume the stream after them), so each column's applied
  // order is recovered by matching values: out(r) = col(order[r]).
  ml::Dataset data;
  data.task = ml::TaskType::kRegression;
  data.x = la::Matrix(3, 4);
  Rng seed_rng(40);
  for (double& v : data.x.mutable_data()) v = seed_rng.Normal();
  data.y = {0.0, 0.0, 0.0};
  const size_t count = 6000;
  Rng raw_rng(41), permuted_rng(41);
  la::Matrix raw = MakeNoiseFeatures(data, count, NoiseKind::kMomentMatched,
                                     &raw_rng, /*permute_moment_noise=*/false);
  la::Matrix permuted = MakeNoiseFeatures(
      data, count, NoiseKind::kMomentMatched, &permuted_rng,
      /*permute_moment_noise=*/true);
  std::map<std::vector<size_t>, size_t> seen;
  for (size_t c = 0; c < count; ++c) {
    std::vector<size_t> order;
    for (size_t r = 0; r < 3; ++r) {
      for (size_t j = 0; j < 3; ++j) {
        if (raw(j, c) == permuted(r, c)) order.push_back(j);
      }
    }
    ASSERT_EQ(order.size(), 3u) << "column " << c << " values not distinct";
    ++seen[order];
  }
  // Each share's standard error is ~0.005 at 6000 columns.
  ASSERT_EQ(seen.size(), 6u);
  for (const auto& [order, times] : seen) {
    EXPECT_NEAR(static_cast<double>(times) / count, 1.0 / 6.0, 0.025)
        << order[0] << order[1] << order[2];
  }
}

TEST(RifsTest, SelectsSignalFiltersNoise) {
  ml::Dataset data = MakeDataset(ml::TaskType::kClassification, 260, 3, 15, 9);
  ml::Evaluator evaluator(data, 0.25, 7);
  RifsConfig config;
  config.num_rounds = 10;
  Rng rng(18);
  RifsResult result = RunRifs(data, evaluator, config, &rng);
  EXPECT_GE(CountSignal(result.selected, 3), 2u);
  // The selection must be dominated by signal: of the 15 noise features,
  // at most a handful survive.
  EXPECT_LE(result.selected.size() - CountSignal(result.selected, 3), 4u);
  EXPECT_GT(result.score, 0.8);
  ASSERT_EQ(result.beat_noise_fraction.size(), 18u);
  // Signal features beat noise in (almost) every round.
  for (size_t c = 0; c < 3; ++c) {
    EXPECT_GT(result.beat_noise_fraction[c], 0.5);
  }
}

TEST(RifsTest, BeatNoiseFractionInUnitRange) {
  ml::Dataset data = MakeDataset(ml::TaskType::kRegression, 150, 2, 6, 10);
  ml::Evaluator evaluator(data, 0.25, 7);
  RifsConfig config;
  config.num_rounds = 4;
  Rng rng(19);
  metrics::GlobalRegistry().ResetForTest();
  RifsResult result = RunRifs(data, evaluator, config, &rng);
  for (double f : result.beat_noise_fraction) {
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
  }
  EXPECT_GT(result.chosen_threshold, 0.0);
  // One sparse fit per round; the capped ones are a subset of them.
  EXPECT_EQ(RecordedSparseFits(), 4u);
  EXPECT_LE(metrics::GlobalRegistry().Snapshot().CounterValue(
                "ml.sparse_fit.capped_total"),
            4u);
}

TEST(RifsTest, AllNoiseInputStillReturnsSomething) {
  ml::Dataset data = MakeDataset(ml::TaskType::kClassification, 120, 0, 8, 11);
  // Overwrite labels with coin flips so no feature carries signal.
  Rng flip(20);
  for (double& label : data.y) label = flip.Bernoulli(0.5) ? 1.0 : 0.0;
  ml::Evaluator evaluator(data, 0.25, 7);
  RifsConfig config;
  config.num_rounds = 4;
  Rng rng(21);
  RifsResult result = RunRifs(data, evaluator, config, &rng);
  EXPECT_FALSE(result.selected.empty());  // fallback keeps best feature
}

TEST(RifsTest, PureForestEnsembleWeight) {
  ml::Dataset data = MakeDataset(ml::TaskType::kClassification, 200, 2, 8, 12);
  ml::Evaluator evaluator(data, 0.25, 7);
  RifsConfig config;
  config.num_rounds = 4;
  config.nu = 1.0;  // RF-only ranking
  Rng rng(22);
  metrics::GlobalRegistry().ResetForTest();
  RifsResult result = RunRifs(data, evaluator, config, &rng);
  EXPECT_GE(CountSignal(result.selected, 2), 1u);
  EXPECT_EQ(RecordedSparseFits(), 0u);
}

// Selector registry sweep.
class SelectorProperty : public testing::TestWithParam<const char*> {};

TEST_P(SelectorProperty, RegistryProducesWorkingSelector) {
  std::unique_ptr<FeatureSelector> selector = MakeSelector(GetParam());
  ASSERT_NE(selector, nullptr);
  EXPECT_EQ(selector->name(), GetParam());
  ml::TaskType task = selector->SupportsTask(ml::TaskType::kClassification)
                          ? ml::TaskType::kClassification
                          : ml::TaskType::kRegression;
  ml::Dataset data = MakeDataset(task, 200, 2, 8, 13);
  ml::Evaluator evaluator(data, 0.25, 7);
  Rng rng(23);
  SelectionResult result = selector->Select(data, evaluator, &rng);
  EXPECT_EQ(result.method, GetParam());
  EXPECT_FALSE(result.selected.empty());
  EXPECT_GE(result.seconds, 0.0);
  // Selected indices are valid and unique.
  std::set<size_t> unique(result.selected.begin(), result.selected.end());
  EXPECT_EQ(unique.size(), result.selected.size());
  for (size_t f : result.selected) EXPECT_LT(f, 10u);
}

INSTANTIATE_TEST_SUITE_P(
    AllSelectors, SelectorProperty,
    testing::Values("rifs", "all_features", "forward_selection",
                    "backward_selection", "rfe", "random_forest",
                    "sparse_regression", "mutual_info", "f_test", "pearson",
                    "lasso", "relief", "linear_svc", "logistic_reg"));

TEST(SelectorRegistryTest, UnknownNameReturnsNull) {
  EXPECT_EQ(MakeSelector("nope"), nullptr);
}

TEST(SelectorRegistryTest, PaperNamesFilteredByTask) {
  std::vector<std::string> classification =
      PaperSelectorNames(ml::TaskType::kClassification);
  std::vector<std::string> regression =
      PaperSelectorNames(ml::TaskType::kRegression);
  auto has = [](const std::vector<std::string>& names, const char* name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  EXPECT_TRUE(has(classification, "logistic_reg"));
  EXPECT_FALSE(has(classification, "lasso"));
  EXPECT_TRUE(has(regression, "lasso"));
  EXPECT_FALSE(has(regression, "linear_svc"));
  EXPECT_TRUE(has(regression, "rifs"));
}

TEST(SelectorRegistryTest, AllFeaturesSelectsEverything) {
  std::unique_ptr<FeatureSelector> selector = MakeSelector("all_features");
  ml::Dataset data = MakeDataset(ml::TaskType::kClassification, 100, 2, 3, 14);
  ml::Evaluator evaluator(data, 0.25, 7);
  Rng rng(24);
  SelectionResult result = selector->Select(data, evaluator, &rng);
  EXPECT_EQ(result.selected.size(), 5u);
  EXPECT_DOUBLE_EQ(result.seconds, 0.0);
}

TEST(SelectorRegistryTest, CustomRifsConfigName) {
  RifsConfig config;
  config.noise = NoiseKind::kGaussian;
  std::unique_ptr<FeatureSelector> selector =
      MakeRifsSelector(config, "rifs_gaussian");
  EXPECT_EQ(selector->name(), "rifs_gaussian");
}

}  // namespace
}  // namespace arda::featsel
