#include "workloads.h"

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "core/arda.h"
#include "core/options.h"
#include "core/report_io.h"
#include "coreset/coreset.h"
#include "data/generators.h"
#include "dataframe/column_stats.h"
#include "dataframe/csv.h"
#include "dataframe/mapped_columnar.h"
#include "discovery/repository.h"
#include "ml/evaluator.h"
#include "replay.h"
#include "service/service.h"
#include "service/wire.h"
#include "spans.h"
#include "util/check.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/string_util.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace core = arda::core;
namespace data = arda::data;
namespace discovery = arda::discovery;
namespace json = arda::json;
using arda::Result;
using arda::StrFormat;

// The traced pass fails its consistency check when the layer spans of the
// replays (everything under their root spans) differ from the untraced
// runs by more than this share. Two runs of one augmentation differ by up
// to 15% on a shared machine.
constexpr double kLayerTolerance = 0.25;
// Hit latency is the median of this many in-process HandleRequest calls.
constexpr size_t kHitProbes = 200;
// Scenario generation takes about 2 ms, and the machine's speed moves on a
// scale of tens of milliseconds, so each augmentation is preceded by this
// many timed generations: the median of setup_s then spans the whole run.
constexpr size_t kSetupRepeats = 11;
// The generated tables stand in for the paper's fixed real-world datasets,
// so every workload uses the same tables (the seed the ROADMAP sizing
// used). --seed draws the randomness of the augmentations themselves:
// coreset, join imputation, RIFS noise, forests and holdout split. The
// generators draw table shapes from their seed, and a different shape
// moves run time by more than a run-to-run bound could tolerate.
constexpr uint64_t kScenarioSeed = 17;

// ----------------------------------------------------------------------
// Measurement helpers.

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

// VmHWM of this process, in MiB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// Resets VmHWM to the current resident size (Linux clear_refs "5"), so
// PeakRssMb afterwards reads the peak of what ran in between.
void ResetPeakRss() { std::ofstream("/proc/self/clear_refs") << "5"; }

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

// The highest percentile of a fixed ladder that has at least ten samples
// above it (nearest-rank), or percentile 0 when there are too few samples.
struct Tail {
  double percentile = 0.0;
  double value = 0.0;
};

Tail TailOf(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (n * (1.0 - p / 100.0) < 10.0) continue;
    const size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
    return {p, values[std::max<size_t>(rank, 1) - 1]};
  }
  return {};
}

// Share of the scenario's signal tables with at least one non-key column
// in the augmented table (a joined column keeps its name, or gets the
// "<table>." prefix on a name collision).
double SignalRecall(const data::Scenario& scenario,
                    const std::vector<std::string>& augmented_columns) {
  if (scenario.signal_tables.empty()) return 0.0;
  const std::set<std::string> augmented(augmented_columns.begin(),
                                        augmented_columns.end());
  size_t found = 0;
  for (const std::string& table : scenario.signal_tables) {
    const arda::df::DataFrame& frame = scenario.repo.GetOrDie(table);
    for (const std::string& column : frame.ColumnNames()) {
      if (scenario.base.HasColumn(column)) continue;
      if (augmented.count(column) || augmented.count(table + "." + column)) {
        ++found;
        break;
      }
    }
  }
  return static_cast<double>(found) /
         static_cast<double>(scenario.signal_tables.size());
}

core::ArdaConfig ConfigFor(const core::RunOptions& options) {
  Result<core::ArdaConfig> config = core::MakeArdaConfig(options);
  ARDA_CHECK(config.ok());
  return std::move(config).value();
}

// Per-layer figures of one replayed augmentation, read off its spans.
using LayerValues = std::map<std::string, double>;

LayerValues LayersOfReplay(const std::vector<SpanRecord>& spans,
                           const ReplayOutcome& outcome) {
  LayerValues v;
  v["featsel.select_s"] = TotalSeconds(spans, "featsel.select");
  v["featsel.noise_s"] = TotalSeconds(spans, "featsel.noise");
  v["featsel.rank_sparse_s"] = TotalSeconds(spans, "featsel.rank_sparse");
  v["featsel.rank_forest_s"] = TotalSeconds(spans, "featsel.rank_forest");
  v["featsel.evaluations"] = static_cast<double>(outcome.evaluations);
  v["featsel.kept_ratio"] =
      outcome.features_considered == 0
          ? 0.0
          : static_cast<double>(outcome.features_selected) /
                static_cast<double>(outcome.features_considered);
  v["ml.sparse_fit_s"] = TotalSeconds(spans, "ml.sparse_fit");
  v["ml.sparse_objective"] = Mean(outcome.sparse_objectives);
  v["ml.forest_fit_s"] = TotalSeconds(spans, "ml.forest_fit");
  v["ml.eval_s"] = TotalSeconds(spans, "ml.eval");
  v["discovery.discover_s"] = TotalSeconds(spans, "discovery.discover");
  v["discovery.catalog_s"] = TotalSeconds(spans, "discovery.catalog");
  v["core.plan_s"] = TotalSeconds(spans, "core.plan");
  v["core.batches"] = static_cast<double>(outcome.report.batches.size());
  v["core.encode_s"] = TotalSeconds(spans, "core.encode");
  v["join.execute_s"] = TotalSeconds(spans, "join.execute");
  v["join.calls"] = static_cast<double>(outcome.join_calls);
  v["join.failed"] = static_cast<double>(outcome.join_failed);
  v["join.impute_s"] = TotalSeconds(spans, "join.impute");
  return v;
}

// Medians, per name, over several replays.
LayerValues MedianLayers(const std::vector<LayerValues>& replays) {
  LayerValues out;
  if (replays.empty()) return out;
  for (const auto& [name, unused] : replays.front()) {
    std::vector<double> values;
    for (const LayerValues& replay : replays) values.push_back(replay.at(name));
    out[name] = Median(values);
  }
  return out;
}

struct ReplayTiming {
  double root_seconds = 0.0;
  double layer_seconds = 0.0;  // root minus the root's self time
};

// The wall time of a replay's root span and the part of it that the
// layer spans under it cover.
ReplayTiming TimingOf(const std::vector<SpanRecord>& all, size_t root) {
  const double wall = all[root].end - all[root].start;
  return {wall, wall - SpanLog::SelfSeconds(all)[root]};
}

// One replay of `task` with spans, checked against the report bytes of
// the untraced run. Appends its per-layer values and timing.
void TracedReplay(const core::AugmentationTask& task,
                  const core::ArdaConfig& config, SpanLog* log,
                  const std::string& expected_report, RunResult* result,
                  std::vector<LayerValues>* layers,
                  std::vector<ReplayTiming>* timings,
                  ReplayOutcome* outcome_out = nullptr) {
  const size_t begin = log->Records().size();
  Result<ReplayOutcome> outcome = ReplayAugmentation(task, config, log);
  result->Check(outcome.ok(), "replayed augmentation ran");
  if (!outcome.ok()) return;
  result->Check(
      core::DeterministicReportJson(outcome.value().report) == expected_report,
      "replayed augmentation reproduces the untraced report bytes");
  const std::vector<SpanRecord> all = log->Records();
  const std::vector<SpanRecord> slice(all.begin() + begin, all.end());
  layers->push_back(LayersOfReplay(slice, outcome.value()));
  // The replay's first span is its root, "arda.run".
  timings->push_back(TimingOf(all, begin));
  if (outcome_out != nullptr) *outcome_out = std::move(outcome).value();
}

// The per-layer figures that compare each traced replay with the untraced
// run of the same augmentation just before it, plus the consistency check.
void AddTraceSummary(const std::vector<ReplayTiming>& timings,
                     const std::vector<double>& wall,
                     const std::vector<double>& cpu, size_t threads,
                     LayerValues* layers, RunResult* result) {
  std::vector<double> overhead, accounted, unattributed;
  for (size_t i = 0; i < timings.size() && i < wall.size(); ++i) {
    overhead.push_back((timings[i].root_seconds / wall[i] - 1.0) * 100.0);
    accounted.push_back(timings[i].layer_seconds / wall[i]);
    unattributed.push_back(
        (1.0 - timings[i].layer_seconds / timings[i].root_seconds) * 100.0);
  }
  (*layers)["util.parallel_efficiency"] =
      Median(cpu) / (Median(wall) * static_cast<double>(threads));
  (*layers)["trace.overhead_pct"] = Median(overhead);
  const double ratio = Median(accounted);
  result->extra.push_back({"trace.accounted_ratio", ratio, "ratio"});
  result->extra.push_back(
      {"trace.unattributed_pct", Median(unattributed), "%"});
  result->notes.push_back(StrFormat(
      "layer spans account for %.3f of the untraced run_s (median of %zu "
      "replay/run pairs, tolerance +/-%.2f)",
      ratio, accounted.size(), kLayerTolerance));
  result->Check(!accounted.empty() &&
                    std::fabs(ratio - 1.0) <= kLayerTolerance,
                StrFormat("layer spans account for the untraced run_s "
                          "within %.2f (got %.3f)",
                          kLayerTolerance, ratio));
}

void EmitLayers(const LayerValues& values, RunResult* result) {
  for (const auto& [name, unit] : PerLayerMetrics()) {
    auto it = values.find(name);
    result->Check(it != values.end(), "layer measured: " + name);
    if (it != values.end()) result->metrics.push_back({name, it->second, unit});
  }
}

// ----------------------------------------------------------------------
// Ingest and service layers on a directory of CSVs with fresh caches.

void IngestLayers(const std::string& data_dir, const std::string& cache_dir,
                  RunResult* result, LayerValues* layers) {
  std::vector<fs::path> csvs, caches;
  for (const auto& entry : fs::directory_iterator(data_dir)) {
    if (entry.path().extension() == ".csv") csvs.push_back(entry.path());
  }
  for (const auto& entry : fs::directory_iterator(cache_dir)) {
    if (entry.path().extension() == ".ardac") caches.push_back(entry.path());
  }
  std::sort(csvs.begin(), csvs.end());
  std::sort(caches.begin(), caches.end());

  double csv_seconds = 0.0;
  bool csv_ok = true;
  for (const fs::path& path : csvs) {
    const double t0 = NowSeconds();
    csv_ok = arda::df::ReadCsvFile(path.string()).ok() && csv_ok;
    csv_seconds += NowSeconds() - t0;
  }
  result->Check(csv_ok, "every CSV parses");

  discovery::DataRepository repo;
  discovery::LoadStats stats;
  discovery::LoadOptions load_options;
  load_options.map_cache = true;
  const double t0 = NowSeconds();
  const arda::Status loaded =
      repo.LoadDirectory(data_dir, cache_dir, load_options, &stats);
  const double load_seconds = NowSeconds() - t0;
  result->Check(loaded.ok() && stats.tables_loaded == csvs.size() &&
                    stats.failures.empty() && stats.fallbacks.empty(),
                "mapped reload loads every table without fallback");

  double map_seconds = 0.0;
  bool map_ok = true;
  for (const fs::path& path : caches) {
    const double t1 = NowSeconds();
    map_ok = arda::df::MapColumnar(path.string()).ok() && map_ok;
    map_seconds += NowSeconds() - t1;
  }
  result->Check(map_ok && caches.size() == csvs.size(),
                "every cache file maps");

  (*layers)["discovery.load_s"] = load_seconds;
  (*layers)["discovery.load_cache_hit_ratio"] =
      stats.tables_loaded == 0
          ? 0.0
          : static_cast<double>(stats.cache_hits) /
                static_cast<double>(stats.tables_loaded);
  (*layers)["dataframe.csv_read_s"] = csv_seconds;
  (*layers)["dataframe.columnar_map_s"] = map_seconds;
}

std::string AugmentRequest(const std::string& base, const std::string& target,
                           const std::string& task, uint64_t seed) {
  std::map<std::string, json::Value> members;
  members.emplace("type", json::Value::MakeString("augment"));
  members.emplace("base", json::Value::MakeString(base));
  members.emplace("target", json::Value::MakeString(target));
  members.emplace("task", json::Value::MakeString(task));
  members.emplace("selector", json::Value::MakeString("pearson"));
  members.emplace("threads", json::Value::MakeInt(1));
  members.emplace("seed", json::Value::MakeInt(static_cast<int64_t>(seed)));
  return json::Serialize(json::Value::MakeObject(std::move(members)));
}

// Median in-process HandleRequest latency of a cached augment request.
double HitLatencyMs(arda::service::ArdaService* service,
                    const std::string& request, RunResult* result) {
  const std::string first = service->HandleRequest(request);
  Result<json::Value> parsed = json::Parse(first);
  result->Check(parsed.ok() && parsed.value().StringOr("status", "") == "ok",
                "augment request for the hit probe succeeds");
  std::vector<double> ms;
  bool identical = true;
  for (size_t i = 0; i < kHitProbes; ++i) {
    const double t0 = NowSeconds();
    const std::string again = service->HandleRequest(request);
    ms.push_back((NowSeconds() - t0) * 1e3);
    identical = identical && again == first;
  }
  result->Check(identical, "cached responses equal the first response");
  return Median(ms);
}

// Writes every table of the scenario's repository as <dir>/<name>.csv.
bool WriteRepository(const data::Scenario& scenario, const fs::path& dir) {
  fs::create_directories(dir);
  bool ok = true;
  for (const std::string& name : scenario.repo.Names()) {
    ok = arda::df::WriteCsvFile(scenario.repo.GetOrDie(name),
                                (dir / (name + ".csv")).string())
             .ok() &&
         ok;
  }
  return ok;
}

// ----------------------------------------------------------------------
// taxi and school_s_serial: a loop of Arda::Run on fresh scenarios.

struct PipelineSpec {
  const char* task;
  size_t threads;
  // Thread count of the determinism check, against `threads`.
  size_t check_threads;
  data::Scenario (*make)(uint64_t seed);
};

data::Scenario MakeTaxi(uint64_t seed) { return data::MakeTaxiScenario(seed); }
data::Scenario MakeSchoolS(uint64_t seed) {
  return data::MakeSchoolScenario(false, seed);
}

core::RunOptions PipelineOptions(const PipelineSpec& spec, uint64_t seed,
                                 size_t threads) {
  core::RunOptions options;
  options.task = spec.task;
  options.seed = seed;
  options.num_threads = threads;
  return options;
}

struct TimedRun {
  Result<core::ArdaReport> report = arda::Status::Internal("not run");
  double wall = 0.0;
  double cpu = 0.0;
};

TimedRun RunTimed(const core::AugmentationTask& task,
                  const core::ArdaConfig& config) {
  TimedRun run;
  const double cpu0 = ProcessCpuSeconds();
  const double t0 = NowSeconds();
  run.report = core::Arda(config).Run(task);
  run.wall = NowSeconds() - t0;
  run.cpu = ProcessCpuSeconds() - cpu0;
  return run;
}

// The seed of a run's index-th augmentation. How much work an
// augmentation does (line-search steps of the sparse solver, forest
// shapes) moves with its seed by about ten percent, so the augmentations
// of one run each take their own seed and the run reports the median.
uint64_t AugmentationSeed(uint64_t seed, size_t index) {
  return seed * 1000 + index;
}

// The checks every augmentation of a clean scenario must pass.
void CheckReport(const data::Scenario& scenario,
                 const core::ArdaReport& report, RunResult* result) {
  bool base_kept = true;
  for (const std::string& column : scenario.base.ColumnNames()) {
    base_kept = base_kept && report.augmented.HasColumn(column);
  }
  result->Check(
      base_kept && report.skipped_candidates.empty() && !report.interrupted &&
          report.augmented.NumRows() == arda::coreset::HeuristicCoresetSize(
                                            scenario.base.NumRows()) &&
          report.tables_considered == scenario.candidates.size() &&
          !report.batches.empty() && !report.selected_features.empty() &&
          std::isfinite(report.base_score) &&
          std::isfinite(report.final_score),
      "report is complete: base columns kept, coreset rows, no skipped "
      "candidates, finite scores");
}

RunResult RunPipeline(const PipelineSpec& spec, const BenchOptions& options) {
  RunResult result;
  std::vector<double> setup, wall, cpu, rss, improvement, recall;
  std::vector<std::string> reports;
  SpanLog log;
  std::vector<LayerValues> layers;
  std::vector<ReplayTiming> timings;
  data::Scenario last;
  const double start = NowSeconds();
  // Untraced: one Arda::Run per iteration. Traced: an untraced run and a
  // replay of the same augmentation per iteration. Either way the next
  // iteration starts only if it is expected to end inside the budget.
  for (size_t i = 0;; ++i) {
    const uint64_t seed = AugmentationSeed(options.seed, i);
    const core::ArdaConfig config =
        ConfigFor(PipelineOptions(spec, seed, spec.threads));
    data::Scenario scenario;
    for (size_t repeat = 0; repeat < kSetupRepeats; ++repeat) {
      const double t0 = NowSeconds();
      scenario = spec.make(kScenarioSeed);
      setup.push_back(NowSeconds() - t0);
    }
    ResetPeakRss();
    TimedRun run = RunTimed(scenario.MakeTask(), config);
    rss.push_back(PeakRssMb());
    result.Check(run.report.ok(), "Arda::Run succeeds");
    if (!run.report.ok()) break;
    const core::ArdaReport& report = run.report.value();
    CheckReport(scenario, report, &result);
    wall.push_back(run.wall);
    cpu.push_back(run.cpu);
    improvement.push_back(report.ImprovementPercent());
    recall.push_back(SignalRecall(scenario, report.augmented.ColumnNames()));
    reports.push_back(core::DeterministicReportJson(report));
    result.report_hashes[seed] = arda::df::StatsFnv1a64(reports.back());
    if (options.trace) {
      data::Scenario fresh = spec.make(kScenarioSeed);
      TracedReplay(fresh.MakeTask(), config, &log, reports.back(), &result,
                   &layers, &timings);
      last = std::move(fresh);
    } else {
      last = std::move(scenario);
    }
    const double elapsed = NowSeconds() - start;
    const double per_iteration = elapsed / static_cast<double>(i + 1);
    const size_t min_iterations = options.trace ? 2 : 3;
    if (i + 1 >= min_iterations &&
        elapsed + per_iteration / 2 > options.seconds) {
      break;
    }
  }
  if (wall.empty()) return result;
  result.samples["setup_s"] = setup;
  result.samples["run_s"] = wall;
  result.samples["cpu_s"] = cpu;
  result.samples["peak_rss_mb"] = rss;
  result.extra.push_back(
      {"augmentations", static_cast<double>(wall.size()), "count"});
  result.extra.push_back({"improvement_pct", Median(improvement), "%"});
  result.extra.push_back({"signal_recall", Median(recall), "ratio"});

  if (!options.trace) {
    double total_wall = 0.0;
    for (double w : wall) total_wall += w;
    result.metrics = {
        {"setup_s", Median(setup), "s"},
        {"run_s", Median(wall), "s"},
        {"cpu_s", Median(cpu), "s"},
        {"peak_rss_mb", Median(rss), "MiB"},
        {"requests_per_s", static_cast<double>(wall.size()) / total_wall,
         "1/s"},
    };
    return result;
  }

  // Thread-count determinism: the first augmentation again at the other
  // thread count.
  {
    data::Scenario scenario = spec.make(kScenarioSeed);
    TimedRun run = RunTimed(
        scenario.MakeTask(),
        ConfigFor(PipelineOptions(spec, AugmentationSeed(options.seed, 0),
                                  spec.check_threads)));
    result.Check(run.report.ok() && core::DeterministicReportJson(
                                        run.report.value()) == reports[0],
                 StrFormat("report bytes at %zu and %zu threads agree",
                           spec.threads, spec.check_threads));
  }
  LayerValues values = MedianLayers(layers);
  AddTraceSummary(timings, wall, cpu, spec.threads, &values, &result);
  // The ingest and service layers are not on this workload's path; they
  // are probed on the workload's own tables so every layer has a figure.
  const fs::path dir = fs::path(options.work_dir) / "probe";
  fs::remove_all(dir);
  result.Check(WriteRepository(last, dir / "data"), "tables written as CSV");
  {
    discovery::DataRepository cold;
    discovery::LoadStats stats;
    result.Check(cold.LoadDirectory((dir / "data").string(),
                                    (dir / "cache").string(), {}, &stats)
                         .ok() &&
                     stats.cache_writes == last.repo.size(),
                 "cold load writes a cache file per table");
  }
  IngestLayers((dir / "data").string(), (dir / "cache").string(), &result,
               &values);
  arda::service::ServiceConfig service_config;
  service_config.data_dir = (dir / "data").string();
  service_config.table_cache = (dir / "cache").string();
  service_config.map_cache = true;
  service_config.load_threads = spec.threads;
  arda::service::ArdaService service(service_config);
  result.Check(service.Start().ok(), "probe service starts");
  values["service.handle_hit_ms"] = HitLatencyMs(
      &service,
      AugmentRequest(last.name, last.target_column, spec.task, options.seed),
      &result);
  // The probe service is the only one in this process, so the registry's
  // service counters are its own.
  const arda::metrics::MetricsSnapshot counters =
      arda::metrics::GlobalRegistry().Snapshot();
  values["service.cache_hit_ratio"] =
      static_cast<double>(
          counters.CounterValue("service.result_cache_hits_total")) /
      static_cast<double>(kHitProbes + 1);
  values["service.overloaded"] = static_cast<double>(
      counters.CounterValue("service.overload_rejected_total"));
  EmitLayers(values, &result);
  const std::string trace_path =
      (fs::path(options.work_dir) / "trace.json").string();
  result.Check(log.WriteChromeTrace(trace_path).ok(), "trace file written");
  result.notes.push_back("trace: " + trace_path);
  return result;
}

// ----------------------------------------------------------------------
// lake_service: an in-process ArdaService over the School L pool as CSVs,
// driven by two closed-loop client connections.

constexpr size_t kLakeClients = 2;
constexpr size_t kLakeSetups = 3;
constexpr size_t kLakeLoadThreads = 2;
// serve_peak_rss_mb is the peak over this many whole generations of the
// mix, and an untraced run serves at least that many. Resident memory
// grows from generation to generation, so a peak over however many
// generations fit in the window would count the generations, not the
// memory.
constexpr size_t kRssGenerations = 4;
constexpr const char* kLakeBase = "school_l";
constexpr const char* kLakeTarget = "passed";
constexpr const char* kLakeTask = "classification";

enum class Kind { kMiss, kHit, kStats, kIngest, kMissBesideIngest };

struct Step {
  Kind kind;
  size_t seed_index;  // augments: which of the generation's seeds
  size_t phase;
};

// One generation of the request mix. A phase starts only after every
// request of the phase before it has been answered.
//   0: four augment misses on seeds no earlier generation used, and
//      nothing else. The gated lake figures come from this phase alone.
//   1: six hits on those seeds and a stats request.
//   2: a fifth miss and, sent while it is being served, an ingest of the
//      unchanged directory, which bumps the generation: a read beside a
//      write.
// The counts are an assumption of this benchmark, not a measured usage
// model; perfbench/README.md gives the reasons for each.
const std::vector<Step>& GenerationScript() {
  static const std::vector<Step> script = {
      {Kind::kMiss, 0, 0},  {Kind::kMiss, 1, 0},
      {Kind::kMiss, 2, 0},  {Kind::kMiss, 3, 0},
      {Kind::kHit, 0, 1},   {Kind::kHit, 1, 1},
      {Kind::kHit, 2, 1},   {Kind::kHit, 3, 1},
      {Kind::kHit, 0, 1},   {Kind::kHit, 1, 1},
      {Kind::kStats, 0, 1}, {Kind::kMissBesideIngest, 4, 2},
      {Kind::kIngest, 0, 2},
  };
  return script;
}
constexpr size_t kSeedsPerGeneration = 5;
constexpr size_t kMissPhase = 0;
constexpr size_t kLastPhase = 2;

size_t MissesPerMissPhase() {
  return static_cast<size_t>(std::count_if(
      GenerationScript().begin(), GenerationScript().end(),
      [](const Step& step) { return step.phase == kMissPhase; }));
}

struct Sample {
  Kind kind;
  double ms;
};

// Wall and process CPU seconds of one finished phase of the mix.
struct PhaseWindow {
  size_t phase;
  double wall;
  double cpu;
};

// Hands the generation script to whichever client is free, phase by
// phase, and times each phase. At each generation's start it stops the
// run once the deadline has passed and `min_generations` are done.
class LakeMix {
 public:
  LakeMix(uint64_t first_seed, double deadline, size_t min_generations)
      : first_seed_(first_seed),
        deadline_(deadline),
        min_generations_(min_generations) {}

  bool Take(Step* step, uint64_t* seed) {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      if (done_) return false;
      const Step& next = GenerationScript()[position_];
      if (next.phase == phase_ || inflight_ == 0) {
        if (next.phase != phase_) {
          if (position_ == 0 && generations_ >= min_generations_ &&
              NowSeconds() >= deadline_) {
            done_ = true;
            changed_.notify_all();
            return false;
          }
          phase_ = next.phase;
          phase_wall0_ = NowSeconds();
          phase_cpu0_ = ProcessCpuSeconds();
        }
        *step = next;
        *seed = first_seed_ + kSeedsPerGeneration * generations_ +
                next.seed_index;
        ++inflight_;
        position_ = (position_ + 1) % GenerationScript().size();
        return true;
      }
      changed_.wait(lock);
    }
  }

  // Reports an answered request; `generation` is the snapshot generation
  // the response names, 0 for a failed request. A failed request still
  // ends its step, so the mix cannot stall.
  void Answered(const Step& step, uint64_t seed, uint64_t generation) {
    std::lock_guard<std::mutex> lock(mu_);
    if (step.kind == Kind::kIngest && generation != 0) {
      generation_ = generation;
      answered_.clear();
    } else if ((step.kind == Kind::kMiss || step.kind == Kind::kHit) &&
               generation == generation_) {
      answered_.insert(seed);
    }
    --inflight_;
    if (inflight_ == 0 && GenerationScript()[position_].phase != phase_) {
      EndPhase();
    }
    changed_.notify_all();
  }

  // True when (seed, generation) was answered before: a cache hit.
  bool WasAnswered(uint64_t seed, uint64_t generation) {
    std::lock_guard<std::mutex> lock(mu_);
    return generation == generation_ && answered_.count(seed) > 0;
  }

  // Read once every client has stopped.
  const std::vector<PhaseWindow>& phases() const { return phases_; }
  const std::vector<double>& generation_peak_rss_mb() const {
    return generation_peak_rss_mb_;
  }

 private:
  void EndPhase() {
    phases_.push_back({phase_, NowSeconds() - phase_wall0_,
                       ProcessCpuSeconds() - phase_cpu0_});
    if (phase_ == kLastPhase) {
      ++generations_;
      generation_peak_rss_mb_.push_back(PeakRssMb());
      ResetPeakRss();
    }
  }

  const uint64_t first_seed_;
  const double deadline_;
  const size_t min_generations_;
  std::mutex mu_;
  std::condition_variable changed_;
  bool done_ = false;
  size_t position_ = 0;
  size_t phase_ = kLastPhase;  // as if a generation had just ended
  size_t inflight_ = 0;
  size_t generations_ = 0;
  double phase_wall0_ = 0.0;
  double phase_cpu0_ = 0.0;
  uint64_t generation_ = 1;
  std::set<uint64_t> answered_;
  std::vector<PhaseWindow> phases_;
  std::vector<double> generation_peak_rss_mb_;
};

struct LakeLoad {
  std::vector<Sample> samples;
  std::map<uint64_t, std::string> reports;  // seed -> first report_json
  // Seeds of the first miss of each generation: the first miss sent after
  // each ingest (and the first miss of all).
  std::set<uint64_t> first_misses;
  size_t refused = 0;
  double wall = 0.0;
  std::vector<PhaseWindow> phases;
  std::vector<double> generation_peak_rss_mb;
};

void RunLakeClient(uint16_t port, LakeMix* mix, size_t expected_tables,
                   std::mutex* mu, LakeLoad* load, RunResult* result) {
  Result<arda::service::ServiceClient> client =
      arda::service::ServiceClient::Connect(port);
  {
    std::lock_guard<std::mutex> lock(*mu);
    result->Check(client.ok(), "client connects");
  }
  if (!client.ok()) return;
  Step step{};
  uint64_t seed = 0;
  while (mix->Take(&step, &seed)) {
    std::string request;
    if (step.kind == Kind::kIngest) {
      request = "{\"type\": \"ingest\"}";
    } else if (step.kind == Kind::kStats) {
      request = "{\"type\": \"stats\"}";
    } else {
      request = AugmentRequest(kLakeBase, kLakeTarget, kLakeTask, seed);
    }
    const double t0 = NowSeconds();
    Result<std::string> response = client->RoundTrip(request);
    const double ms = (NowSeconds() - t0) * 1e3;
    Result<json::Value> parsed = response.ok()
                                     ? json::Parse(response.value())
                                     : Result<json::Value>(response.status());
    const std::string status =
        parsed.ok() ? parsed.value().StringOr("status", "") : "";
    const uint64_t generation =
        parsed.ok() ? static_cast<uint64_t>(
                          parsed.value().IntOr("generation", 0))
                    : 0;
    Kind kind = step.kind;
    if (kind == Kind::kHit || kind == Kind::kMiss) {
      kind = mix->WasAnswered(seed, generation) ? Kind::kHit : Kind::kMiss;
    }
    mix->Answered(step, seed, generation);
    std::lock_guard<std::mutex> lock(*mu);
    result->Check(status == "ok", "request answered ok: " + request);
    result->Check(kind == step.kind,
                  "augment was a cache hit exactly when scripted: " + request);
    if (status != "ok") {
      if (status == "overloaded") ++load->refused;
      continue;
    }
    load->samples.push_back({kind, ms});
    if (step.kind == Kind::kIngest) {
      result->Check(
          parsed.value().IntOr("tables_loaded", 0) ==
                  static_cast<int64_t>(expected_tables) &&
              parsed.value().IntOr("cache_hits", 0) ==
                  static_cast<int64_t>(expected_tables),
          "ingest of the unchanged lake serves every table from cache");
    } else if (step.kind != Kind::kStats) {
      const std::string report = parsed.value().StringOr("report_json", "");
      if (step.kind == Kind::kMiss && step.seed_index == 0) {
        load->first_misses.insert(seed);
      }
      auto [it, inserted] = load->reports.emplace(seed, report);
      if (!inserted) {
        result->Check(it->second == report,
                      "every answer for one seed has the same report bytes");
      }
    }
  }
}

LakeLoad DriveLake(uint16_t port, uint64_t first_seed, double seconds,
                   size_t min_generations, size_t expected_tables,
                   RunResult* result) {
  LakeLoad load;
  std::mutex mu;
  LakeMix mix(first_seed, NowSeconds() + seconds, min_generations);
  ResetPeakRss();
  const double t0 = NowSeconds();
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kLakeClients; ++c) {
    clients.emplace_back(RunLakeClient, port, &mix, expected_tables, &mu,
                         &load, result);
  }
  for (std::thread& client : clients) client.join();
  load.wall = NowSeconds() - t0;
  load.phases = mix.phases();
  load.generation_peak_rss_mb = mix.generation_peak_rss_mb();
  for (const auto& [seed, report] : load.reports) {
    result->report_hashes[seed] = arda::df::StatsFnv1a64(report);
  }
  return load;
}

std::vector<double> LatenciesOf(const LakeLoad& load, Kind kind) {
  std::vector<double> ms;
  for (const Sample& sample : load.samples) {
    if (sample.kind == kind) ms.push_back(sample.ms);
  }
  return ms;
}

core::RunOptions LakeOptions(uint64_t seed, size_t threads) {
  core::RunOptions options;
  options.task = kLakeTask;
  options.selector = "pearson";
  options.seed = seed;
  options.num_threads = threads;
  return options;
}

// The augmentation task a one-shot run over the lake directory sees (the
// CLI's view: every *.csv is a table, the base among them).
core::AugmentationTask LakeTask(const discovery::DataRepository& repo) {
  core::AugmentationTask task;
  task.base = *repo.Get(kLakeBase).value();
  task.target_column = kLakeTarget;
  task.task = arda::ml::TaskType::kClassification;
  task.repo = &repo;
  task.base_table_name = kLakeBase;
  return task;
}

RunResult RunLake(const BenchOptions& options) {
  RunResult result;
  const fs::path root = fs::path(options.work_dir) / "lake";
  const std::string data_dir = (root / "data").string();
  const std::string cache_dir = (root / "cache").string();
  // Request seeds of the mix: four new ones per generation from here.
  const uint64_t first_seed = options.seed * 1000;

  // Set-up, several times, timed and with its peak RSS: generate the
  // pool, write the CSVs, start the service (cold parse, cache write,
  // first snapshot).
  std::vector<double> setup, setup_rss;
  data::Scenario scenario;
  std::unique_ptr<arda::service::ArdaService> service;
  for (size_t i = 0; i < kLakeSetups; ++i) {
    service.reset();
    fs::remove_all(root);
    // Flush earlier writes first, so the timed set-up does not compete
    // with their writeback.
    ::sync();
    ResetPeakRss();
    const double t0 = NowSeconds();
    scenario = data::MakeSchoolScenario(true, kScenarioSeed);
    result.Check(WriteRepository(scenario, data_dir),
                 "lake tables written as CSV");
    arda::service::ServiceConfig config;
    config.data_dir = data_dir;
    config.table_cache = cache_dir;
    config.map_cache = true;
    config.load_threads = kLakeLoadThreads;
    service = std::make_unique<arda::service::ArdaService>(config);
    const arda::Status started = service->Start();
    setup.push_back(NowSeconds() - t0);
    setup_rss.push_back(PeakRssMb());
    result.Check(started.ok(), "service starts on the lake");
    if (!started.ok()) return result;
  }
  const size_t tables = scenario.repo.size();
  result.samples["setup_s"] = setup;
  result.samples["setup_peak_rss_mb"] = setup_rss;

  const double load_seconds =
      options.trace ? 0.4 * options.seconds : options.seconds;
  LakeLoad load =
      DriveLake(service->port(), first_seed, load_seconds,
                options.trace ? 1 : kRssGenerations, tables, &result);
  const std::vector<double> miss = LatenciesOf(load, Kind::kMiss);
  const std::vector<double> hit = LatenciesOf(load, Kind::kHit);
  const std::vector<double> ingest = LatenciesOf(load, Kind::kIngest);
  const std::vector<double> beside =
      LatenciesOf(load, Kind::kMissBesideIngest);
  result.Check(!miss.empty() && !hit.empty() && !ingest.empty() &&
                   !beside.empty(),
               "the mix served misses, hits and ingests");
  if (miss.empty() || hit.empty() || ingest.empty() || beside.empty()) {
    return result;
  }
  result.samples["miss_ms"] = miss;
  result.samples["hit_ms"] = hit;
  result.samples["ingest_ms"] = ingest;
  result.samples["miss_beside_ingest_ms"] = beside;
  result.samples["generation_peak_rss_mb"] = load.generation_peak_rss_mb;
  // The miss phases: only misses were in flight, so their wall and CPU
  // seconds belong to the misses alone.
  std::vector<double>& phase_wall = result.samples["miss_phase_s"];
  std::vector<double>& phase_cpu = result.samples["miss_phase_cpu_s"];
  for (const PhaseWindow& window : load.phases) {
    if (window.phase != kMissPhase) continue;
    phase_wall.push_back(window.wall);
    phase_cpu.push_back(window.cpu);
  }
  const double phase_misses = static_cast<double>(MissesPerMissPhase());

  // The one-shot pipeline over the same directory, CLI style (no cache).
  discovery::DataRepository reference_repo;
  result.Check(reference_repo.LoadDirectory(data_dir, "").ok(),
               "one-shot load of the lake");
  const core::AugmentationTask task = LakeTask(reference_repo);

  if (!options.trace) {
    std::vector<double> improvement, recall;
    for (uint64_t seed : load.first_misses) {
      const std::string& report = load.reports.at(seed);
      Result<core::ArdaReport> one_shot =
          core::Arda(ConfigFor(LakeOptions(seed, 1))).Run(task);
      result.Check(one_shot.ok() &&
                       core::DeterministicReportJson(one_shot.value()) ==
                           report,
                   StrFormat("service report for seed %llu equals the "
                             "one-shot Arda::Run",
                             static_cast<unsigned long long>(seed)));
      if (!one_shot.ok()) continue;
      improvement.push_back(one_shot.value().ImprovementPercent());
      recall.push_back(SignalRecall(
          scenario, one_shot.value().augmented.ColumnNames()));
    }
    const Tail miss_tail = TailOf(miss);
    const std::vector<double>& rss = load.generation_peak_rss_mb;
    result.Check(rss.size() >= kRssGenerations,
                 StrFormat("the window served %zu whole generations",
                           kRssGenerations));
    if (rss.size() < kRssGenerations) return result;
    // Medians over the miss phases, each a fixed amount of work.
    result.metrics = {
        {"setup_s", Median(setup), "s"},
        {"run_s", Median(miss) / 1e3, "s"},
        {"cpu_s", Median(phase_cpu) / phase_misses, "s"},
        {"peak_rss_mb", Median(setup_rss), "MiB"},
        {"requests_per_s", phase_misses / Median(phase_wall), "1/s"},
    };
    result.extra = {
        {"improvement_pct", Median(improvement), "%"},
        {"signal_recall", Median(recall), "ratio"},
        {"miss_ms_p50", Median(miss), "ms"},
        {"hit_ms_p50", Median(hit), "ms"},
        {"ingest_ms_p50", Median(ingest), "ms"},
        {"miss_beside_ingest_ms_p50", Median(beside), "ms"},
        {"serve_peak_rss_mb",
         *std::max_element(rss.begin(), rss.begin() + kRssGenerations),
         "MiB"},
        {"rss_growth_mb", rss[kRssGenerations - 1] - rss[0], "MiB"},
        {"misses", static_cast<double>(miss.size()), "count"},
        {"hits", static_cast<double>(hit.size()), "count"},
        {"ingests", static_cast<double>(ingest.size()), "count"},
        {"stats", static_cast<double>(LatenciesOf(load, Kind::kStats).size()),
         "count"},
        {"refused", static_cast<double>(load.refused), "count"},
    };
    if (miss_tail.percentile > 0.0) {
      result.extra.push_back({"miss_ms_tail", miss_tail.value, "ms"});
      result.notes.push_back(StrFormat(
          "miss_ms_tail is p%g of %zu misses", miss_tail.percentile,
          miss.size()));
    } else {
      result.notes.push_back(StrFormat(
          "miss_ms_tail: %zu misses are too few for a tail percentile",
          miss.size()));
    }
    return result;
  }

  // Traced: the layers of the live service, the ingest path, and replays
  // of one augmentation against untraced one-shot runs.
  LayerValues values;
  values["service.cache_hit_ratio"] =
      static_cast<double>(hit.size()) /
      static_cast<double>(hit.size() + miss.size());
  values["service.overloaded"] = static_cast<double>(load.refused);
  values["service.handle_hit_ms"] = HitLatencyMs(
      service.get(),
      AugmentRequest(kLakeBase, kLakeTarget, kLakeTask, first_seed), &result);
  IngestLayers(data_dir, cache_dir, &result, &values);

  // Thread-count determinism of the one-shot run, and its equality with
  // the service's answer.
  const auto served = load.reports.find(first_seed);
  for (size_t threads : {1, 2}) {
    Result<core::ArdaReport> one_shot =
        core::Arda(ConfigFor(LakeOptions(first_seed, threads))).Run(task);
    result.Check(one_shot.ok() && served != load.reports.end() &&
                     core::DeterministicReportJson(one_shot.value()) ==
                         served->second,
                 StrFormat("service report equals the one-shot Arda::Run at "
                           "%zu thread(s)",
                           threads));
  }

  // Replays run on the repository as the service holds it: the cached
  // tables, mapped.
  discovery::DataRepository mapped_repo;
  discovery::LoadOptions mapped;
  mapped.map_cache = true;
  result.Check(mapped_repo.LoadDirectory(data_dir, cache_dir, mapped).ok(),
               "mapped load of the lake");
  const core::AugmentationTask mapped_task = LakeTask(mapped_repo);
  SpanLog log;
  std::vector<LayerValues> layers;
  std::vector<ReplayTiming> timings;
  std::vector<double> wall, cpu;
  const core::ArdaConfig config = ConfigFor(LakeOptions(first_seed, 1));
  ReplayOutcome last;
  const double start = NowSeconds();
  const double budget = options.seconds - load.wall;
  for (size_t i = 0;; ++i) {
    TimedRun run = RunTimed(mapped_task, config);
    result.Check(run.report.ok(), "one-shot Arda::Run succeeds");
    if (!run.report.ok()) break;
    wall.push_back(run.wall);
    cpu.push_back(run.cpu);
    TracedReplay(mapped_task, config, &log,
                 core::DeterministicReportJson(run.report.value()), &result,
                 &layers, &timings, &last);
    const double elapsed = NowSeconds() - start;
    if (i + 1 >= 3 && elapsed + elapsed / static_cast<double>(i + 1) > budget) {
      break;
    }
  }
  LayerValues replayed = MedianLayers(layers);
  // RIFS is not on this workload's path (the requests select with
  // pearson); one RIFS round over the replay's augmented table probes its
  // layers.
  {
    Result<arda::ml::Dataset> augmented = core::BuildDataset(
        last.report.augmented, kLakeTarget, arda::ml::TaskType::kClassification,
        config.encode);
    result.Check(augmented.ok(), "augmented table encodes");
    if (augmented.ok()) {
      arda::ml::Evaluator evaluator(augmented.value(), config.test_fraction,
                                    config.seed);
      arda::featsel::RifsConfig rifs = config.rifs;
      rifs.num_rounds = 1;
      rifs.num_threads = 1;
      arda::Rng rng(config.seed);
      ReplayOutcome probe;
      const size_t begin = log.Records().size();
      ReplayRifs(augmented.value(), evaluator, rifs, &rng, &log, &probe);
      const std::vector<SpanRecord> all = log.Records();
      const std::vector<SpanRecord> slice(all.begin() + begin, all.end());
      replayed["featsel.noise_s"] = TotalSeconds(slice, "featsel.noise");
      replayed["featsel.rank_sparse_s"] =
          TotalSeconds(slice, "featsel.rank_sparse");
      replayed["featsel.rank_forest_s"] =
          TotalSeconds(slice, "featsel.rank_forest");
      replayed["ml.sparse_fit_s"] = TotalSeconds(slice, "ml.sparse_fit");
      replayed["ml.forest_fit_s"] = TotalSeconds(slice, "ml.forest_fit");
      replayed["ml.sparse_objective"] = Mean(probe.sparse_objectives);
    }
  }
  AddTraceSummary(timings, wall, cpu, 1, &replayed, &result);
  for (const auto& [name, value] : replayed) values[name] = value;
  EmitLayers(values, &result);
  const std::string trace_path =
      (fs::path(options.work_dir) / "trace.json").string();
  result.Check(log.WriteChromeTrace(trace_path).ok(), "trace file written");
  result.notes.push_back("trace: " + trace_path);
  return result;
}

}  // namespace

void RunResult::Check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    failures.push_back(what);
  }
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = {
      {"featsel.select_s", "s"},
      {"featsel.noise_s", "s"},
      {"featsel.rank_sparse_s", "s"},
      {"featsel.rank_forest_s", "s"},
      {"featsel.evaluations", "count"},
      {"featsel.kept_ratio", "ratio"},
      {"ml.sparse_fit_s", "s"},
      {"ml.sparse_objective", "objective"},
      {"ml.forest_fit_s", "s"},
      {"ml.eval_s", "s"},
      {"discovery.load_s", "s"},
      {"discovery.load_cache_hit_ratio", "ratio"},
      {"dataframe.csv_read_s", "s"},
      {"dataframe.columnar_map_s", "s"},
      {"discovery.discover_s", "s"},
      {"discovery.catalog_s", "s"},
      {"core.plan_s", "s"},
      {"core.batches", "count"},
      {"core.encode_s", "s"},
      {"join.execute_s", "s"},
      {"join.calls", "count"},
      {"join.failed", "count"},
      {"join.impute_s", "s"},
      {"util.parallel_efficiency", "ratio"},
      {"service.handle_hit_ms", "ms"},
      {"service.cache_hit_ratio", "ratio"},
      {"service.overloaded", "count"},
      {"trace.overhead_pct", "%"},
  };
  return metrics;
}

std::vector<std::string> WorkloadNames() {
  return {"taxi", "school_s_serial", "lake_service"};
}

RunResult RunWorkload(const BenchOptions& options) {
  RunResult result;
  if (options.workload == "taxi") {
    result = RunPipeline({"regression", 2, 1, &MakeTaxi}, options);
  } else if (options.workload == "school_s_serial") {
    result = RunPipeline({"classification", 1, 2, &MakeSchoolS}, options);
  } else {
    result = RunLake(options);
  }
  // The lake and probe tables are tens of MB per run; only the trace and
  // the record are kept.
  const fs::path work(options.work_dir);
  fs::remove_all(work / "lake");
  fs::remove_all(work / "probe");
  return result;
}

}  // namespace perfbench
