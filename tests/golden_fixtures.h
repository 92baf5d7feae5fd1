#ifndef ARDA_TESTS_GOLDEN_FIXTURES_H_
#define ARDA_TESTS_GOLDEN_FIXTURES_H_

// Fixed-seed workloads whose exact outputs are pinned as golden files in
// tests/golden/ (generated once by tools/capture_goldens from the
// pre-rewrite kernels). Shared by the capture tool and
// golden_kernels_test so both always run the identical workload.
//
// The inputs deliberately contain the awkward cases the kernels must
// preserve bit for bit: tied feature values (split tie-breaks), nulls in
// key columns (null-vs-value grouping), duplicate foreign keys (the
// pre-aggregation path), categorical mode ties (lexicographic winner),
// and double keys that differ in bits but collide under the "%.10g"
// rendering that defines key equality.

#include <cmath>
#include <string>
#include <vector>

#include "data/generators.h"
#include "dataframe/aggregate.h"
#include "dataframe/csv.h"
#include "featsel/rifs.h"
#include "join/geo_join.h"
#include "join/join_executor.h"
#include "la/linalg.h"
#include "ml/decision_tree.h"
#include "ml/random_forest.h"
#include "ml/sparse_regression.h"
#include "util/check.h"
#include "util/string_util.h"

namespace arda::golden {

inline ml::Dataset GoldenRegressionData() {
  Rng rng(9);
  ml::Dataset data;
  data.task = ml::TaskType::kRegression;
  const size_t rows = 300, cols = 24;
  data.x = la::Matrix(rows, cols);
  data.y.resize(rows);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      // Quantized values create tied feature values at many thresholds.
      data.x(r, c) = std::round(rng.Normal() * 8.0) / 8.0;
    }
    data.y[r] = data.x(r, 0) - 0.5 * data.x(r, 1) + rng.Normal(0.0, 0.1);
  }
  for (size_t c = 0; c < cols; ++c) {
    data.feature_names.push_back("f" + std::to_string(c));
  }
  return data;
}

inline std::string GoldenClassificationTree() {
  data::MicroBenchmark digits = data::MakeDigitsBenchmark(5, 2.0);
  ml::TreeConfig config;
  config.task = ml::TaskType::kClassification;
  config.seed = 5;
  ml::DecisionTree tree(config);
  tree.Fit(digits.data.x, digits.data.y);
  return tree.Serialize();
}

inline std::string GoldenRegressionTree() {
  ml::Dataset data = GoldenRegressionData();
  ml::TreeConfig config;
  config.task = ml::TaskType::kRegression;
  config.seed = 9;
  ml::DecisionTree tree(config);
  tree.Fit(data.x, data.y);
  return tree.Serialize();
}

/// Forest predictions + importances, hexfloat, at the given thread count.
/// Thread-count invariance means the same string for any `num_threads`.
inline std::string GoldenForestPredictions(size_t num_threads) {
  data::MicroBenchmark digits = data::MakeDigitsBenchmark(7, 2.0);
  ml::ForestConfig config;
  config.task = ml::TaskType::kClassification;
  config.num_trees = 8;
  config.num_threads = num_threads;
  config.seed = 7;
  ml::RandomForest forest(config);
  forest.Fit(digits.data.x, digits.data.y);
  std::string out;
  for (double v : forest.Predict(digits.data.x)) {
    out += StrFormat("%a\n", v);
  }
  out += "importances\n";
  for (double v : forest.feature_importances()) {
    out += StrFormat("%a\n", v);
  }
  return out;
}

/// Regression data for the sampled-feature forest: every column has value
/// ties that carry different targets (the y tie-break of the split sort:
/// the targets are not multiples of a power of two, so the order in which
/// a tie's targets are summed shows in the bits), column 1 mixes -0.0 and
/// +0.0, column 2 is salted with NaN, column 3 is constant, and a few
/// targets are -0.0.
inline ml::Dataset GoldenForestRegressionData() {
  Rng rng(23);
  ml::Dataset data;
  data.task = ml::TaskType::kRegression;
  const size_t rows = 240, cols = 16;
  data.x = la::Matrix(rows, cols);
  data.y.resize(rows);
  static const double kSignedZeros[] = {-1.0, -0.0, 0.0, 1.0, 2.0};
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      data.x(r, c) = std::round(rng.Normal() * 4.0) / 4.0;
    }
    data.x(r, 1) = kSignedZeros[rng.UniformUint64(5)];
    if (rng.UniformUint64(8) == 0) data.x(r, 2) = std::nan("");
    data.x(r, 3) = 3.0;
    data.y[r] = data.x(r, 0) - 0.5 * data.x(r, 1) + 0.25 * data.x(r, 4) +
                rng.Normal(0.0, 0.3);
    if (r % 17 == 0) data.y[r] = -0.0;
  }
  for (size_t c = 0; c < cols; ++c) {
    data.feature_names.push_back("f" + std::to_string(c));
  }
  return data;
}

/// Regression forest (sqrt feature sampling) predictions on its training
/// rows + importances, hexfloat, at the given thread count.
inline std::string GoldenForestRegression(size_t num_threads) {
  ml::Dataset data = GoldenForestRegressionData();
  ml::ForestConfig config;
  config.task = ml::TaskType::kRegression;
  config.num_trees = 12;
  config.max_depth = 10;
  config.num_threads = num_threads;
  config.seed = 29;
  ml::RandomForest forest(config);
  forest.Fit(data.x, data.y);
  std::string out;
  for (double v : forest.Predict(data.x)) out += StrFormat("%a\n", v);
  out += "importances\n";
  for (double v : forest.feature_importances()) {
    out += StrFormat("%a\n", v);
  }
  return out;
}

/// Lower-triangular Cholesky factor, hexfloat row by row, of a full-rank
/// SPD matrix B B^T + I whose order (67) is not a multiple of 4.
inline std::string GoldenCholesky() {
  const size_t n = 67, k = 80;
  Rng rng(37);
  la::Matrix b(n, k);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < k; ++j) b(i, j) = rng.Normal();
  }
  la::Matrix a(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      double sum = i == j ? 1.0 : 0.0;
      for (size_t t = 0; t < k; ++t) sum += b(i, t) * b(j, t);
      a(i, j) = sum;
    }
  }
  Result<la::Matrix> l = la::Cholesky(a);
  ARDA_CHECK(l.ok());
  std::string out;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j <= i; ++j) out += StrFormat("%a\n", l.value()(i, j));
  }
  return out;
}

/// Base table: int64 id + string city + double val key columns with nulls.
inline df::DataFrame GoldenBaseFrame() {
  df::DataFrame base;
  df::Column id = df::Column::Empty("id", df::DataType::kInt64);
  df::Column city = df::Column::Empty("city", df::DataType::kString);
  df::Column t = df::Column::Empty("t", df::DataType::kDouble);
  df::Column payload = df::Column::Empty("payload", df::DataType::kDouble);
  Rng rng(31);
  static const char* kCities[] = {"ann arbor", "boston", "cambridge",
                                  "dover"};
  for (size_t i = 0; i < 64; ++i) {
    if (i % 13 == 12) {
      id.AppendNull();
    } else {
      id.AppendInt64(static_cast<int64_t>(rng.UniformUint64(12)));
    }
    if (i % 17 == 16) {
      city.AppendNull();
    } else {
      city.AppendString(kCities[rng.UniformUint64(4)]);
    }
    t.AppendDouble(static_cast<double>(i) + 0.25);
    payload.AppendDouble(rng.Normal());
  }
  ARDA_CHECK(base.AddColumn(std::move(id)).ok());
  ARDA_CHECK(base.AddColumn(std::move(city)).ok());
  ARDA_CHECK(base.AddColumn(std::move(t)).ok());
  ARDA_CHECK(base.AddColumn(std::move(payload)).ok());
  return base;
}

/// Foreign table with duplicate keys (forces pre-aggregation), nulls,
/// a categorical value column with mode ties, and double values that
/// collide under "%.10g" rendering while differing in bits.
inline df::DataFrame GoldenForeignFrame() {
  df::DataFrame foreign;
  df::Column id = df::Column::Empty("fid", df::DataType::kInt64);
  df::Column city = df::Column::Empty("fcity", df::DataType::kString);
  df::Column t = df::Column::Empty("ft", df::DataType::kDouble);
  df::Column score = df::Column::Empty("score", df::DataType::kDouble);
  df::Column tag = df::Column::Empty("tag", df::DataType::kString);
  Rng rng(47);
  static const char* kCities[] = {"ann arbor", "boston", "cambridge",
                                  "dover"};
  static const char* kTags[] = {"alpha", "beta", "beta", "alpha", "gamma"};
  for (size_t i = 0; i < 96; ++i) {
    if (i % 19 == 18) {
      id.AppendNull();
    } else {
      id.AppendInt64(static_cast<int64_t>(rng.UniformUint64(12)));
    }
    city.AppendString(kCities[rng.UniformUint64(4)]);
    double base_t = static_cast<double>(i % 40) * 1.7;
    // Same "%.10g" string, different bits, for a fraction of rows.
    if (i % 7 == 3) base_t += 1e-12;
    t.AppendDouble(base_t);
    if (i % 11 == 10) {
      score.AppendNull();
    } else {
      score.AppendDouble(rng.Normal());
    }
    tag.AppendString(kTags[i % 5]);
  }
  ARDA_CHECK(foreign.AddColumn(std::move(id)).ok());
  ARDA_CHECK(foreign.AddColumn(std::move(city)).ok());
  ARDA_CHECK(foreign.AddColumn(std::move(t)).ok());
  ARDA_CHECK(foreign.AddColumn(std::move(score)).ok());
  ARDA_CHECK(foreign.AddColumn(std::move(tag)).ok());
  return foreign;
}

inline std::string GoldenHardJoinCsv() {
  df::DataFrame base = GoldenBaseFrame();
  df::DataFrame foreign = GoldenForeignFrame();
  discovery::CandidateJoin cand;
  cand.foreign_table = "aug";
  cand.keys = {
      discovery::JoinKeyPair{"id", "fid", discovery::KeyKind::kHard},
      discovery::JoinKeyPair{"city", "fcity", discovery::KeyKind::kHard}};
  Rng rng(3);
  Result<df::DataFrame> joined =
      join::ExecuteLeftJoin(base, foreign, cand, {}, &rng);
  ARDA_CHECK(joined.ok());
  return df::WriteCsvString(joined.value());
}

inline std::string GoldenSoftJoinCsv() {
  df::DataFrame base = GoldenBaseFrame();
  df::DataFrame foreign = GoldenForeignFrame();
  discovery::CandidateJoin cand;
  cand.foreign_table = "aug";
  cand.keys = {
      discovery::JoinKeyPair{"city", "fcity", discovery::KeyKind::kHard},
      discovery::JoinKeyPair{"t", "ft", discovery::KeyKind::kSoft}};
  join::JoinOptions options;
  options.soft_method = join::SoftJoinMethod::kTwoWayNearest;
  Rng rng(5);
  Result<df::DataFrame> joined =
      join::ExecuteLeftJoin(base, foreign, cand, options, &rng);
  ARDA_CHECK(joined.ok());
  return df::WriteCsvString(joined.value());
}

inline std::string GoldenGeoJoinCsv() {
  df::DataFrame base;
  df::DataFrame foreign;
  Rng rng(59);
  {
    df::Column lat = df::Column::Empty("lat", df::DataType::kDouble);
    df::Column lon = df::Column::Empty("lon", df::DataType::kDouble);
    df::Column region = df::Column::Empty("region", df::DataType::kString);
    for (size_t i = 0; i < 48; ++i) {
      lat.AppendDouble(rng.Uniform(-10.0, 10.0));
      lon.AppendDouble(rng.Uniform(30.0, 50.0));
      region.AppendString(i % 2 == 0 ? "north" : "south");
    }
    ARDA_CHECK(base.AddColumn(std::move(lat)).ok());
    ARDA_CHECK(base.AddColumn(std::move(lon)).ok());
    ARDA_CHECK(base.AddColumn(std::move(region)).ok());
  }
  {
    df::Column lat = df::Column::Empty("glat", df::DataType::kDouble);
    df::Column lon = df::Column::Empty("glon", df::DataType::kDouble);
    df::Column region = df::Column::Empty("gregion", df::DataType::kString);
    df::Column val = df::Column::Empty("gval", df::DataType::kDouble);
    for (size_t i = 0; i < 40; ++i) {
      // Duplicated coordinates force the geo pre-aggregation path.
      double a = rng.Uniform(-10.0, 10.0);
      double b = rng.Uniform(30.0, 50.0);
      size_t copies = i % 3 == 0 ? 2 : 1;
      for (size_t c = 0; c < copies; ++c) {
        lat.AppendDouble(a);
        lon.AppendDouble(b);
        region.AppendString(i % 2 == 0 ? "north" : "south");
        val.AppendDouble(rng.Normal());
      }
    }
    ARDA_CHECK(foreign.AddColumn(std::move(lat)).ok());
    ARDA_CHECK(foreign.AddColumn(std::move(lon)).ok());
    ARDA_CHECK(foreign.AddColumn(std::move(region)).ok());
    ARDA_CHECK(foreign.AddColumn(std::move(val)).ok());
  }
  discovery::CandidateJoin cand;
  cand.foreign_table = "geo";
  cand.keys = {
      discovery::JoinKeyPair{"region", "gregion", discovery::KeyKind::kHard},
      discovery::JoinKeyPair{"lat", "glat", discovery::KeyKind::kSoft},
      discovery::JoinKeyPair{"lon", "glon", discovery::KeyKind::kSoft}};
  Rng rng2(7);
  Result<df::DataFrame> joined =
      join::ExecuteGeoLeftJoin(base, foreign, cand, {}, &rng2);
  ARDA_CHECK(joined.ok());
  return df::WriteCsvString(joined.value());
}

inline std::string GoldenAggregateCsv() {
  df::DataFrame frame = GoldenForeignFrame();
  df::AggregateOptions options;
  options.numeric = df::NumericAgg::kMedian;
  options.categorical = df::CategoricalAgg::kMode;
  options.add_count = true;
  Result<df::DataFrame> grouped =
      df::GroupByAggregate(frame, {"fid", "fcity", "ft"}, options);
  ARDA_CHECK(grouped.ok());
  return df::WriteCsvString(grouped.value());
}

/// l2,1 sparse-regression fit on GoldenRegressionData, hexfloat: the
/// final objective, then the per-feature row norms of W. Regression fits
/// one output column (c=1); classification thresholds the target at 0
/// and fits the one-hot label matrix (c=2).
inline std::string GoldenSparseRegression(ml::TaskType task) {
  ml::Dataset data = GoldenRegressionData();
  if (task == ml::TaskType::kClassification) {
    for (double& v : data.y) v = v > 0.0 ? 1.0 : 0.0;
  }
  ml::SparseRegressionConfig config;
  config.task = task;
  ml::L21SparseRegression model(config);
  model.Fit(data.x, data.y);
  std::string out =
      StrFormat("objective %a\nnorms\n", model.final_objective());
  for (double v : model.FeatureNorms()) out += StrFormat("%a\n", v);
  return out;
}

/// RIFS moment-matched noise (Algorithm 2) on GoldenRegressionData at a
/// fixed Rng, hexfloat, row-major: six mu + Xc z / sqrt(24) draws from
/// the 300 x 24 data, each row-permuted.
inline std::string GoldenMomentNoise() {
  ml::Dataset data = GoldenRegressionData();
  Rng rng(13);
  la::Matrix noise = featsel::MakeNoiseFeatures(
      data, 6, featsel::NoiseKind::kMomentMatched, &rng);
  std::string out;
  for (double v : noise.data()) out += StrFormat("%a\n", v);
  return out;
}

}  // namespace arda::golden

#endif  // ARDA_TESTS_GOLDEN_FIXTURES_H_
