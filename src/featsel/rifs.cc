#include "featsel/rifs.h"

#include <algorithm>
#include <cmath>

#include "featsel/model_rankers.h"
#include "la/linalg.h"
#include "util/check.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace arda::featsel {

const char* NoiseKindName(NoiseKind kind) {
  switch (kind) {
    case NoiseKind::kMomentMatched:
      return "moment_matched";
    case NoiseKind::kGaussian:
      return "gaussian";
    case NoiseKind::kUniform:
      return "uniform";
    case NoiseKind::kBernoulli:
      return "bernoulli";
    case NoiseKind::kPoisson:
      return "poisson";
  }
  return "unknown";
}

la::Matrix MakeNoiseFeatures(const ml::Dataset& data, size_t count,
                             NoiseKind kind, Rng* rng,
                             bool permute_moment_noise) {
  const size_t n = data.NumRows();
  la::Matrix noise(n, count);
  switch (kind) {
    case NoiseKind::kMomentMatched: {
      // Algorithm 2: sample i.i.d. columns from N(mu, Sigma) fitted to the
      // feature columns (each feature is an observation in R^n).
      noise = la::SampleMomentMatched(data.x, count, rng);
      if (permute_moment_noise) {
        // Break target alignment while keeping each column's value
        // distribution (see RifsConfig::permute_moment_noise): gather
        // each column through a uniform shuffle, out(r) = col(order[r]).
        std::vector<size_t> order(n);
        std::vector<double> col(n);
        for (size_t c = 0; c < count; ++c) {
          for (size_t r = 0; r < n; ++r) order[r] = r;
          rng->Shuffle(&order);
          for (size_t r = 0; r < n; ++r) col[r] = noise(r, c);
          for (size_t r = 0; r < n; ++r) noise(r, c) = col[order[r]];
        }
      }
      return noise;
    }
    case NoiseKind::kGaussian:
      for (size_t r = 0; r < n; ++r) {
        for (size_t c = 0; c < count; ++c) noise(r, c) = rng->Normal();
      }
      return noise;
    case NoiseKind::kUniform:
      for (size_t r = 0; r < n; ++r) {
        for (size_t c = 0; c < count; ++c) noise(r, c) = rng->UniformDouble();
      }
      return noise;
    case NoiseKind::kBernoulli:
      for (size_t r = 0; r < n; ++r) {
        for (size_t c = 0; c < count; ++c) {
          noise(r, c) = rng->Bernoulli(0.5) ? 1.0 : 0.0;
        }
      }
      return noise;
    case NoiseKind::kPoisson:
      for (size_t r = 0; r < n; ++r) {
        for (size_t c = 0; c < count; ++c) {
          noise(r, c) = static_cast<double>(rng->Poisson(1.0));
        }
      }
      return noise;
  }
  return noise;
}

RifsResult RunRifs(const ml::Dataset& data, const ml::Evaluator& evaluator,
                   const RifsConfig& config, Rng* rng) {
  const size_t d = data.NumFeatures();
  ARDA_CHECK_GT(d, 0u);
  ARDA_CHECK_GT(config.num_rounds, 0u);
  const size_t t = std::max<size_t>(
      1, static_cast<size_t>(std::lround(config.eta *
                                         static_cast<double>(d))));

  RandomForestRanker forest_ranker;
  SparseRegressionRanker sparse_ranker;
  const bool use_forest = config.nu > 0.0;
  const bool use_sparse = config.nu < 1.0;

  // Algorithm 1: count rounds where a real feature outranks every
  // injected noise feature under the aggregate ranking.
  //
  // Serial pre-pass: draw each round's noise matrix and forest seed from
  // the caller's stream in exactly the order the serial loop consumed it
  // (noise, then one NextUint64 for the forest). The expensive ranking
  // work below then runs on the thread pool with no shared stream, and
  // the per-round results are reduced in round order — bit-identical
  // output for any thread count.
  std::vector<la::Matrix> round_noise;
  round_noise.reserve(config.num_rounds);
  std::vector<uint64_t> forest_seeds(config.num_rounds, 0);
  for (size_t round = 0; round < config.num_rounds; ++round) {
    round_noise.push_back(MakeNoiseFeatures(data, t, config.noise, rng,
                                            config.permute_moment_noise));
    if (use_forest) forest_seeds[round] = rng->NextUint64();
  }

  // The aggregate is over percentile *ranks*, not raw scores: raw
  // importances are dominated by the top feature and flatten everything
  // else near zero, which would make beats-all-noise comparisons among
  // mid-ranked features meaningless.
  // Tied scores share their average percentile: sparse rankers drive
  // many weights to exactly zero, and positional tie-breaking would
  // systematically rank real zero-weight features above the injected
  // noise (which sits at the highest indices).
  auto percentile_ranks = [](const std::vector<double>& scores) {
    std::vector<size_t> order = DescendingOrder(scores);
    std::vector<double> ranks(scores.size());
    const double denom =
        scores.size() > 1 ? static_cast<double>(scores.size() - 1) : 1.0;
    size_t pos = 0;
    while (pos < order.size()) {
      size_t end = pos;
      while (end + 1 < order.size() &&
             scores[order[end + 1]] == scores[order[pos]]) {
        ++end;
      }
      const double mean_rank =
          1.0 - 0.5 * static_cast<double>(pos + end) / denom;
      for (size_t k = pos; k <= end; ++k) ranks[order[k]] = mean_rank;
      pos = end + 1;
    }
    return ranks;
  };

  // Each round writes only its own slot; nothing else is shared mutable.
  std::vector<std::vector<uint8_t>> round_beats(
      config.num_rounds, std::vector<uint8_t>(d, 0));
  ParallelFor(config.num_rounds, config.num_threads, [&](size_t round) {
    trace::TraceSpan round_span("rifs.round", "rifs");
    metrics::IncrementCounter("rifs.rounds_total");
    ml::Dataset augmented;
    augmented.task = data.task;
    augmented.y = data.y;
    augmented.x = data.x.HStack(round_noise[round]);
    augmented.feature_names = data.feature_names;
    for (size_t j = 0; j < t; ++j) {
      augmented.feature_names.push_back("__rifs_noise");
    }

    std::vector<double> aggregate(d + t, 0.0);
    if (use_forest) {
      std::vector<double> rf = percentile_ranks(
          forest_ranker.RankSeeded(augmented, forest_seeds[round]));
      for (size_t j = 0; j < d + t; ++j) aggregate[j] += config.nu * rf[j];
    }
    if (use_sparse) {
      ml::L21SparseRegression model = sparse_ranker.Fit(augmented);
      metrics::ObserveSize("ml.sparse_fit.iterations",
                           static_cast<double>(model.iterations()));
      if (!model.converged()) {
        metrics::IncrementCounter("ml.sparse_fit.capped_total");
      }
      std::vector<double> sr = percentile_ranks(model.FeatureNorms());
      for (size_t j = 0; j < d + t; ++j) {
        aggregate[j] += (1.0 - config.nu) * sr[j];
      }
    }

    double max_noise = -1e300;
    for (size_t j = d; j < d + t; ++j) {
      max_noise = std::max(max_noise, aggregate[j]);
    }
    size_t beat_count = 0;
    for (size_t j = 0; j < d; ++j) {
      if (aggregate[j] > max_noise) {
        round_beats[round][j] = 1;
        ++beat_count;
      }
    }
    metrics::ObserveSize("rifs.round_features_beat_noise",
                         static_cast<double>(beat_count));
  });

  // Ordered reduction over rounds.
  std::vector<double> front_count(d, 0.0);
  for (size_t round = 0; round < config.num_rounds; ++round) {
    for (size_t j = 0; j < d; ++j) {
      if (round_beats[round][j]) front_count[j] += 1.0;
    }
  }

  RifsResult result;
  result.beat_noise_fraction.resize(d);
  for (size_t j = 0; j < d; ++j) {
    result.beat_noise_fraction[j] =
        front_count[j] / static_cast<double>(config.num_rounds);
  }

  // Algorithm 3: sweep thresholds in increasing order while the holdout
  // score increases monotonically; keep the best subset seen.
  std::vector<double> thresholds = config.thresholds;
  std::sort(thresholds.begin(), thresholds.end());
  double prev_score = -1e300;
  for (double tau : thresholds) {
    std::vector<size_t> subset;
    for (size_t j = 0; j < d; ++j) {
      if (result.beat_noise_fraction[j] >= tau) subset.push_back(j);
    }
    if (subset.empty()) break;
    double score = evaluator.ScoreFeatures(subset);
    ++result.evaluations;
    metrics::IncrementCounter("rifs.threshold_evaluations_total");
    if (score > result.score) {
      result.score = score;
      result.selected = std::move(subset);
      result.chosen_threshold = tau;
    }
    if (config.stop_on_decrease && score < prev_score) break;
    prev_score = score;
  }

  // Fallback: if every threshold produced an empty subset (all features
  // indistinguishable from noise), keep the single best-scoring feature.
  if (result.selected.empty()) {
    size_t best = static_cast<size_t>(
        std::max_element(result.beat_noise_fraction.begin(),
                         result.beat_noise_fraction.end()) -
        result.beat_noise_fraction.begin());
    result.selected = {best};
    result.score = evaluator.ScoreFeatures(result.selected);
    ++result.evaluations;
    metrics::IncrementCounter("rifs.threshold_evaluations_total");
  }
  return result;
}

}  // namespace arda::featsel
