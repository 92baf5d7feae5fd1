#include "replay.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>

#include "core/arda.h"
#include "coreset/coreset.h"
#include "discovery/discovery.h"
#include "discovery/tuple_ratio.h"
#include "featsel/ranker.h"
#include "featsel/selector.h"
#include "join/impute.h"
#include "join/join_executor.h"
#include "ml/random_forest.h"
#include "ml/sparse_regression.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using arda::Result;
using arda::Rng;
using arda::Status;
namespace core = arda::core;
namespace df = arda::df;
namespace discovery = arda::discovery;
namespace featsel = arda::featsel;
namespace ml = arda::ml;

// The RIFS rankers' fixed hyperparameters (featsel::RandomForestRanker and
// featsel::SparseRegressionRanker defaults, as RunRifs constructs them).
constexpr size_t kRankForestTrees = 25;
constexpr size_t kRankForestDepth = 10;
constexpr double kRankSparseGamma = 0.1;

// featsel::RunRifs's percentile ranks: descending order, tied scores share
// their mean percentile.
std::vector<double> PercentileRanks(const std::vector<double>& scores) {
  std::vector<size_t> order = featsel::DescendingOrder(scores);
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
}

std::string JoinedTableList(const std::vector<std::string>& tables) {
  std::string out;
  for (const std::string& table : tables) {
    if (!out.empty()) out += ",";
    out += table;
  }
  return out.empty() ? "<base>" : out;
}

void RecordSkip(core::ArdaReport* report, std::string table,
                const char* stage, std::string reason) {
  report->skipped_candidates.push_back(
      {std::move(table), stage, std::move(reason)});
}

Result<ml::Dataset> Encode(const df::DataFrame& frame,
                           const core::AugmentationTask& task,
                           const core::ArdaConfig& config, SpanLog* log) {
  Span span(log, "core.encode");
  return core::BuildDataset(frame, task.target_column, task.task,
                            config.encode);
}

}  // namespace

featsel::RifsResult ReplayRifs(const ml::Dataset& data,
                               const ml::Evaluator& evaluator,
                               const featsel::RifsConfig& config, Rng* rng,
                               SpanLog* log, ReplayOutcome* outcome) {
  const size_t d = data.NumFeatures();
  ARDA_CHECK_GT(d, 0u);
  ARDA_CHECK_GT(config.num_rounds, 0u);
  const size_t t = std::max<size_t>(
      1, static_cast<size_t>(std::lround(config.eta *
                                         static_cast<double>(d))));
  const bool use_forest = config.nu > 0.0;
  const bool use_sparse = config.nu < 1.0;

  std::vector<arda::la::Matrix> round_noise;
  round_noise.reserve(config.num_rounds);
  std::vector<uint64_t> forest_seeds(config.num_rounds, 0);
  {
    Span span(log, "featsel.noise");
    for (size_t round = 0; round < config.num_rounds; ++round) {
      round_noise.push_back(featsel::MakeNoiseFeatures(
          data, t, config.noise, rng, config.permute_moment_noise));
      if (use_forest) forest_seeds[round] = rng->NextUint64();
    }
  }

  std::vector<std::vector<uint8_t>> round_beats(
      config.num_rounds, std::vector<uint8_t>(d, 0));
  std::vector<double> objectives(config.num_rounds, 0.0);
  {
    Span rounds(log, "featsel.rounds");
    const uint64_t rounds_id = rounds.id();
    arda::ParallelFor(config.num_rounds, config.num_threads,
                      [&](size_t round) {
      Span round_span(log, "featsel.round", rounds_id);
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
        Span rank(log, "featsel.rank_forest");
        ml::ForestConfig forest_config;
        forest_config.task = augmented.task;
        forest_config.num_trees = kRankForestTrees;
        forest_config.max_depth = kRankForestDepth;
        forest_config.seed = forest_seeds[round];
        ml::RandomForest forest(forest_config);
        {
          Span fit(log, "ml.forest_fit");
          forest.Fit(augmented.x, augmented.y);
        }
        std::vector<double> rf = PercentileRanks(forest.feature_importances());
        for (size_t j = 0; j < d + t; ++j) aggregate[j] += config.nu * rf[j];
      }
      if (use_sparse) {
        Span rank(log, "featsel.rank_sparse");
        ml::SparseRegressionConfig sparse_config;
        sparse_config.task = augmented.task;
        sparse_config.gamma = kRankSparseGamma;
        ml::L21SparseRegression model(sparse_config);
        {
          Span fit(log, "ml.sparse_fit");
          model.Fit(augmented.x, augmented.y);
        }
        objectives[round] = model.final_objective();
        std::vector<double> sr = PercentileRanks(model.FeatureNorms());
        for (size_t j = 0; j < d + t; ++j) {
          aggregate[j] += (1.0 - config.nu) * sr[j];
        }
      }
      double max_noise = -1e300;
      for (size_t j = d; j < d + t; ++j) {
        max_noise = std::max(max_noise, aggregate[j]);
      }
      for (size_t j = 0; j < d; ++j) {
        if (aggregate[j] > max_noise) round_beats[round][j] = 1;
      }
    });
  }
  if (use_sparse) {
    outcome->sparse_objectives.insert(outcome->sparse_objectives.end(),
                                      objectives.begin(), objectives.end());
  }

  featsel::RifsResult result;
  result.beat_noise_fraction.assign(d, 0.0);
  for (size_t round = 0; round < config.num_rounds; ++round) {
    for (size_t j = 0; j < d; ++j) {
      if (round_beats[round][j]) result.beat_noise_fraction[j] += 1.0;
    }
  }
  for (double& fraction : result.beat_noise_fraction) {
    fraction /= static_cast<double>(config.num_rounds);
  }

  Span sweep(log, "featsel.threshold_sweep");
  std::vector<double> thresholds = config.thresholds;
  std::sort(thresholds.begin(), thresholds.end());
  double prev_score = -1e300;
  for (double tau : thresholds) {
    std::vector<size_t> subset;
    for (size_t j = 0; j < d; ++j) {
      if (result.beat_noise_fraction[j] >= tau) subset.push_back(j);
    }
    if (subset.empty()) break;
    double score;
    {
      Span eval(log, "ml.eval");
      score = evaluator.ScoreFeatures(subset);
    }
    ++result.evaluations;
    if (score > result.score) {
      result.score = score;
      result.selected = std::move(subset);
      result.chosen_threshold = tau;
    }
    if (config.stop_on_decrease && score < prev_score) break;
    prev_score = score;
  }
  if (result.selected.empty()) {
    size_t best = static_cast<size_t>(
        std::max_element(result.beat_noise_fraction.begin(),
                         result.beat_noise_fraction.end()) -
        result.beat_noise_fraction.begin());
    result.selected = {best};
    Span eval(log, "ml.eval");
    result.score = evaluator.ScoreFeatures(result.selected);
    ++result.evaluations;
  }
  outcome->evaluations += result.evaluations;
  return result;
}

Result<ReplayOutcome> ReplayAugmentation(const core::AugmentationTask& task,
                                         const core::ArdaConfig& config,
                                         SpanLog* log) {
  if (task.repo == nullptr) {
    return Status::InvalidArgument("task.repo must be set");
  }
  if (!task.base.HasColumn(task.target_column)) {
    return Status::NotFound("no such target column: " + task.target_column);
  }
  Span run_span(log, "arda.run");
  Rng rng(config.seed);
  ReplayOutcome outcome;
  core::ArdaReport& report = outcome.report;
  report.skipped_candidates = task.ingest_skips;

  df::DataFrame coreset_base;
  {
    Span span(log, "coreset.sample");
    Result<df::DataFrame> sampled = arda::coreset::SampleCoreset(
        task.base, task.target_column, task.task, config.coreset, &rng);
    if (sampled.ok()) {
      coreset_base = std::move(sampled).value();
    } else {
      RecordSkip(&report, task.base_table_name, "coreset",
                 sampled.status().message());
      coreset_base = task.base;
    }
  }

  // The statistics catalog is memoized lazily on first use inside
  // discovery and planning; warming it first for exactly the tables those
  // stages read gives its cost a span of its own without changing what
  // they compute.
  std::vector<discovery::CandidateJoin> candidates = task.candidates;
  {
    Span span(log, "discovery.catalog");
    if (candidates.empty()) {
      for (const std::string& name : task.repo->Names()) {
        task.repo->Stats(name);
      }
    } else {
      for (const discovery::CandidateJoin& candidate : candidates) {
        task.repo->Stats(candidate.foreign_table);
      }
    }
  }
  {
    Span span(log, "discovery.discover");
    if (candidates.empty()) {
      candidates = discovery::DiscoverCandidates(
          *task.repo, task.base_table_name, task.target_column);
    }
  }
  report.tables_considered = candidates.size();

  std::vector<std::vector<discovery::CandidateJoin>> batches;
  {
    Span span(log, "core.plan");
    if (config.use_tuple_ratio_prefilter) {
      discovery::TupleRatioFilterResult filtered =
          discovery::FilterByTupleRatio(*task.repo, coreset_base, candidates,
                                        config.tuple_ratio_tau);
      report.tables_filtered_by_tuple_ratio = filtered.removed.size();
      for (const discovery::RemovedCandidate& removed : filtered.removed) {
        if (removed.broken_reference) {
          RecordSkip(&report, removed.candidate.foreign_table, "tuple_ratio",
                     removed.reason);
        }
      }
      candidates = std::move(filtered.kept);
    }
    if (config.cost_based_ordering && !candidates.empty()) {
      core::OrderCandidatesByEstimatedCost(&candidates, *task.repo,
                                           coreset_base.NumRows());
    }
    const size_t budget =
        config.budget == 0 ? coreset_base.NumRows() : config.budget;
    batches = core::BuildJoinPlan(candidates, *task.repo, config.plan,
                                  budget, config.encode);
  }

  featsel::RifsConfig rifs_config = config.rifs;
  if (rifs_config.num_threads == 0) {
    rifs_config.num_threads = config.num_threads;
  }
  const bool use_rifs = config.selector == "rifs";
  std::unique_ptr<featsel::FeatureSelector> selector;
  if (!use_rifs) {
    selector = featsel::MakeSelector(config.selector);
    if (selector == nullptr) {
      return Status::InvalidArgument("unknown selector: " + config.selector);
    }
  }

  df::DataFrame current = coreset_base;
  {
    Span span(log, "join.impute");
    Status imputed = arda::join::ImputeInPlace(&current, &rng);
    if (!imputed.ok()) {
      RecordSkip(&report, task.base_table_name, "impute", imputed.message());
    }
  }
  ARDA_ASSIGN_OR_RETURN(ml::Dataset current_data,
                        Encode(current, task, config, log));
  double current_score;
  {
    Span span(log, "ml.eval");
    ml::Evaluator base_evaluator(current_data, config.test_fraction,
                                 config.seed);
    current_score = base_evaluator.ScoreAllFeatures();
  }

  for (const std::vector<discovery::CandidateJoin>& batch : batches) {
    Span batch_span(log, "core.batch");
    core::BatchLog batch_log;
    std::vector<Rng> join_rngs;
    join_rngs.reserve(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) join_rngs.push_back(rng.Fork());
    std::vector<std::unique_ptr<df::DataFrame>> joined(batch.size());
    std::vector<Status> join_errors(batch.size());
    {
      Span joins(log, "join.batch");
      const uint64_t joins_id = joins.id();
      arda::ParallelFor(batch.size(), config.num_threads, [&](size_t i) {
        Span span(log, "join.execute", joins_id);
        Result<const df::DataFrame*> foreign =
            task.repo->Get(batch[i].foreign_table);
        if (!foreign.ok()) {
          join_errors[i] = foreign.status();
          return;
        }
        Result<df::DataFrame> result = arda::join::ExecuteLeftJoin(
            current, *foreign.value(), batch[i], config.join, &join_rngs[i]);
        if (!result.ok()) {
          join_errors[i] = result.status();
          return;
        }
        joined[i] = std::make_unique<df::DataFrame>(std::move(result).value());
      });
    }
    outcome.join_calls += batch.size();

    df::DataFrame working = current;
    bool joined_any = false;
    {
      Span span(log, "join.merge");
      for (size_t i = 0; i < batch.size(); ++i) {
        if (joined[i] == nullptr) {
          ++outcome.join_failed;
          RecordSkip(&report, batch[i].foreign_table, "join",
                     join_errors[i].message());
          continue;
        }
        df::DataFrame new_cols;
        for (size_t c = current.NumCols(); c < joined[i]->NumCols(); ++c) {
          Status st = new_cols.AddColumn(joined[i]->col(c));
          ARDA_CHECK(st.ok());
        }
        std::string prefix = config.join.column_prefix.empty()
                                 ? batch[i].foreign_table + "."
                                 : config.join.column_prefix;
        Status stacked = working.HStack(new_cols, prefix);
        if (!stacked.ok()) {
          RecordSkip(&report, batch[i].foreign_table, "merge",
                     stacked.message());
          continue;
        }
        batch_log.tables.push_back(batch[i].foreign_table);
        joined_any = true;
      }
    }
    if (!joined_any) {
      report.batches.push_back(std::move(batch_log));
      continue;
    }
    {
      Span span(log, "join.impute");
      Status imputed = arda::join::ImputeInPlace(&working, &rng);
      if (!imputed.ok()) {
        RecordSkip(&report, JoinedTableList(batch_log.tables), "impute",
                   imputed.message());
      }
    }

    Result<ml::Dataset> working_result = Encode(working, task, config, log);
    if (!working_result.ok()) {
      RecordSkip(&report, JoinedTableList(batch_log.tables), "encode",
                 working_result.status().message());
      batch_log.score_after = current_score;
      report.batches.push_back(std::move(batch_log));
      continue;
    }
    ml::Dataset working_data = std::move(working_result).value();
    ml::Dataset selection_data = working_data;
    if (config.coreset.method == arda::coreset::CoresetMethod::kSketch) {
      Span span(log, "coreset.sketch");
      size_t rows = config.coreset.size == 0
                        ? arda::coreset::HeuristicCoresetSize(
                              working_data.NumRows())
                        : config.coreset.size;
      selection_data = arda::coreset::SketchRows(working_data, rows, &rng);
    }
    std::unique_ptr<ml::Evaluator> evaluator;
    {
      Span span(log, "ml.eval");
      evaluator = std::make_unique<ml::Evaluator>(
          selection_data, config.test_fraction, config.seed);
    }
    Rng selector_rng = rng.Fork();
    using Selected = Result<std::vector<size_t>>;
    Selected selected = [&]() -> Selected {
      Span span(log, "featsel.select");
      if (!use_rifs) {
        ARDA_ASSIGN_OR_RETURN(
            featsel::SelectionResult selection,
            selector->TrySelect(selection_data, *evaluator, &selector_rng));
        outcome.evaluations += selection.evaluations;
        return selection.selected;
      }
      // FeatureSelector::TrySelect's input checks, ahead of RunRifs.
      if (selection_data.NumFeatures() == 0) {
        return Status::FailedPrecondition(
            "feature selection needs at least one feature");
      }
      if (selection_data.NumRows() == 0) {
        return Status::FailedPrecondition(
            "feature selection needs at least one row");
      }
      return ReplayRifs(selection_data, *evaluator, rifs_config,
                        &selector_rng, log, &outcome)
          .selected;
    }();
    if (!selected.ok()) {
      RecordSkip(&report, JoinedTableList(batch_log.tables), "select",
                 selected.status().message());
      batch_log.score_after = current_score;
      report.batches.push_back(std::move(batch_log));
      continue;
    }
    outcome.features_considered += selection_data.NumFeatures();
    outcome.features_selected += selected.value().size();

    std::vector<std::string> new_columns;
    {
      Span span(log, "core.encode");
      df::EncodedFeatures encoded =
          df::EncodeFeatures(working, {task.target_column}, config.encode);
      std::set<std::string> kept_columns;
      for (size_t f : selected.value()) {
        kept_columns.insert(working.col(encoded.source_column[f]).name());
      }
      for (const std::string& name : kept_columns) {
        if (!current.HasColumn(name)) new_columns.push_back(name);
      }
    }
    batch_log.features_considered = working_data.NumFeatures();
    batch_log.features_kept = new_columns.size();

    if (!new_columns.empty()) {
      Span accept(log, "core.accept");
      df::DataFrame candidate_frame = current;
      for (const std::string& name : new_columns) {
        Status st = candidate_frame.AddColumn(working.col(name));
        ARDA_CHECK(st.ok());
      }
      Result<ml::Dataset> candidate_result =
          Encode(candidate_frame, task, config, log);
      if (!candidate_result.ok()) {
        RecordSkip(&report, JoinedTableList(batch_log.tables), "accept",
                   candidate_result.status().message());
      } else {
        double candidate_score;
        {
          Span span(log, "ml.eval");
          ml::Evaluator accept_evaluator(candidate_result.value(),
                                         config.test_fraction, config.seed);
          candidate_score = accept_evaluator.ScoreAllFeatures();
        }
        if (candidate_score > current_score + config.min_improvement) {
          current = std::move(candidate_frame);
          current_score = candidate_score;
          report.tables_joined += batch_log.tables.size();
          batch_log.accepted = true;
        }
      }
    }
    batch_log.score_after = current_score;
    report.batches.push_back(std::move(batch_log));
  }

  {
    Span final_span(log, "core.final_estimate");
    ARDA_ASSIGN_OR_RETURN(ml::Dataset final_data,
                          Encode(current, task, config, log));
    {
      Span span(log, "ml.eval");
      ml::Evaluator final_evaluator(final_data, config.test_fraction,
                                    config.seed);
      report.final_score = final_evaluator.FinalScore(
          ml::AllFeatureIndices(final_data.NumFeatures()));
    }
    report.selected_features = final_data.feature_names;
    ARDA_ASSIGN_OR_RETURN(df::DataFrame base_columns,
                          current.Select(coreset_base.ColumnNames()));
    ARDA_ASSIGN_OR_RETURN(ml::Dataset base_data,
                          Encode(base_columns, task, config, log));
    Span span(log, "ml.eval");
    ml::Evaluator base_final(base_data, config.test_fraction, config.seed);
    report.base_score =
        base_final.FinalScore(ml::AllFeatureIndices(base_data.NumFeatures()));
  }
  report.augmented = std::move(current);
  return outcome;
}

}  // namespace perfbench
