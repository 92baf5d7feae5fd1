#ifndef ARDA_FEATSEL_RIFS_H_
#define ARDA_FEATSEL_RIFS_H_

#include <vector>

#include "featsel/ranker.h"
#include "ml/evaluator.h"

namespace arda::featsel {

/// Distribution the injected random features are drawn from
/// (Section 6.1).
enum class NoiseKind {
  /// Moment-matched multivariate normal N(mu, Sigma) fit to the empirical
  /// feature moments (Algorithm 2) — the aggressive strategy for inputs
  /// where signal features are a small minority.
  kMomentMatched,
  /// Standard normal noise.
  kGaussian,
  /// Uniform[0, 1) noise.
  kUniform,
  /// Bernoulli(1/2) indicator noise.
  kBernoulli,
  /// Poisson(1) count noise.
  kPoisson,
};

/// Returns a short name for the noise kind.
const char* NoiseKindName(NoiseKind kind);

/// RIFS hyperparameters (Algorithms 1 and 3 of the paper).
struct RifsConfig {
  /// Fraction eta of random features to inject (t = eta * d, at least 1).
  double eta = 0.2;
  /// Number of injection/ranking rounds k (fresh noise each round).
  size_t num_rounds = 10;
  /// Aggregate-ranking weight: nu * random-forest + (1 - nu) * sparse
  /// regression (Section 6.3).
  double nu = 0.5;
  /// Threshold sweep T, ascending (Algorithm 3). Every threshold is
  /// evaluated (each costs one cheap model training) and the best subset
  /// wins; the paper's monotone early stop is available via
  /// `stop_on_decrease`.
  std::vector<double> thresholds = {0.3, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0};
  /// Stop the sweep at the first score decrease (Algorithm 3 verbatim)
  /// instead of evaluating every threshold.
  bool stop_on_decrease = false;
  NoiseKind noise = NoiseKind::kMomentMatched;
  /// Threads used to run the per-round ranker ensemble: 0 = hardware
  /// concurrency, 1 = serial. Noise matrices and forest seeds are
  /// pre-drawn serially and the beat-all-noise counts are reduced in
  /// round order, so results are bit-identical for every value.
  size_t num_threads = 0;
  /// Row-permute each moment-matched noise column after sampling. Each
  /// Algorithm 2 sample is mu + Xc z / sqrt(d): literally a random linear
  /// mixture of the centered *real* columns — target-aligned ones
  /// included — so genuine signal can never consistently outrank it.
  /// Permuting keeps the marginal value distribution (the "looks like
  /// the input" property) while breaking target alignment.
  bool permute_moment_noise = true;
};

/// Result of a RIFS run.
struct RifsResult {
  /// Selected feature indices.
  std::vector<size_t> selected;
  /// Per-feature fraction of rounds in which the feature outranked every
  /// injected random feature (the vector r* of Algorithm 1).
  std::vector<double> beat_noise_fraction;
  /// Holdout score of the selected subset.
  double score = -1e300;
  /// Threshold tau that produced the selected subset.
  double chosen_threshold = 0.0;
  /// Model trainings performed during the threshold sweep.
  size_t evaluations = 0;
};

/// Generates `count` injected noise features for `data` (each feature is a
/// column of length n). Exposed for the Fig-6-style noise ablation.
/// `permute_moment_noise` applies only to kMomentMatched (see RifsConfig).
la::Matrix MakeNoiseFeatures(const ml::Dataset& data, size_t count,
                             NoiseKind kind, Rng* rng,
                             bool permute_moment_noise = true);

/// Random-Injection Feature Selection (Section 6): repeatedly appends
/// fresh random features to the dataset, ranks real+injected features
/// with the nu-weighted RF + sparse-regression ensemble, counts how often
/// each real feature beats *all* injected noise, then sweeps thresholds
/// over that fraction, keeping features above tau while the holdout score
/// improves monotonically.
RifsResult RunRifs(const ml::Dataset& data, const ml::Evaluator& evaluator,
                   const RifsConfig& config, Rng* rng);

}  // namespace arda::featsel

#endif  // ARDA_FEATSEL_RIFS_H_
