#include "featsel/model_rankers.h"

#include <cmath>

#include "ml/linear.h"

namespace arda::featsel {

std::vector<double> RandomForestRanker::Rank(const ml::Dataset& data,
                                             Rng* rng) const {
  return RankSeeded(data, rng->NextUint64());
}

std::vector<double> RandomForestRanker::RankSeeded(const ml::Dataset& data,
                                                   uint64_t seed) const {
  ml::ForestConfig config;
  config.task = data.task;
  config.num_trees = num_trees_;
  config.max_depth = max_depth_;
  config.seed = seed;
  ml::RandomForest forest(config);
  forest.Fit(data.x, data.y);
  return forest.feature_importances();
}

std::vector<double> SparseRegressionRanker::Rank(const ml::Dataset& data,
                                                 Rng* rng) const {
  (void)rng;
  return Fit(data).FeatureNorms();
}

ml::L21SparseRegression SparseRegressionRanker::Fit(
    const ml::Dataset& data) const {
  ml::SparseRegressionConfig config;
  config.task = data.task;
  config.gamma = gamma_;
  ml::L21SparseRegression model(config);
  model.Fit(data.x, data.y);
  return model;
}

std::vector<double> LassoRanker::Rank(const ml::Dataset& data,
                                      Rng* rng) const {
  (void)rng;
  ml::Lasso lasso(alpha_);
  lasso.Fit(data.x, data.y);
  std::vector<double> scores(lasso.weights().size());
  for (size_t i = 0; i < scores.size(); ++i) {
    scores[i] = std::fabs(lasso.weights()[i]);
  }
  return scores;
}

std::vector<double> LogisticRanker::Rank(const ml::Dataset& data,
                                         Rng* rng) const {
  (void)rng;
  ml::LogisticRegression model(1e-3, 120);
  model.Fit(data.x, data.y);
  return model.CoefImportances();
}

std::vector<double> LinearSvcRanker::Rank(const ml::Dataset& data,
                                          Rng* rng) const {
  (void)rng;
  ml::LinearSvm model(1.0, 120);
  model.Fit(data.x, data.y);
  return model.CoefImportances();
}

}  // namespace arda::featsel
