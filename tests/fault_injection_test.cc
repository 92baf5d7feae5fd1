// Single-fault matrix for graceful degradation: with every registered
// fault site armed, the ARDA pipeline must complete, record what it
// skipped in ArdaReport::skipped_candidates, and keep producing a usable
// report. Also covers the spec grammar, CSV-load degradation (candidate
// tables that fail to parse drop out of the repository), and the CLI
// driver returning success (exit 0) under an active fault.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include <map>

#include "core/arda.h"
#include "dataframe/csv.h"
#include "discovery/repository.h"
#include "tools/cli.h"
#include "util/fault.h"
#include "util/metrics.h"

namespace arda {
namespace {

// Disarms every fault on scope exit so a failing assertion in one test
// cannot leave faults armed for the rest of the binary.
struct FaultGuard {
  ~FaultGuard() { ARDA_CHECK(fault::SetFaultSpecForTest("").ok()); }
};

// A small three-table scenario: base(k, x, y), a unique-key candidate
// `wea`, and a duplicate-key candidate `evt` whose join exercises the
// one-to-many pre-aggregation path. `task.repo` points into the struct,
// so scenarios are constructed in place and never moved.
struct Scenario {
  discovery::DataRepository repo;
  core::AugmentationTask task;
};

void MakeScenario(Scenario* s) {
  std::vector<int64_t> k;
  std::vector<double> x, y;
  for (int i = 0; i < 40; ++i) {
    k.push_back(i);
    x.push_back(static_cast<double>(i % 5));
    y.push_back(2.0 * (i % 7) + 0.5 * (i % 5));
  }
  df::DataFrame base;
  ASSERT_TRUE(base.AddColumn(df::Column::Int64("k", k)).ok());
  ASSERT_TRUE(base.AddColumn(df::Column::Double("x", x)).ok());
  ASSERT_TRUE(base.AddColumn(df::Column::Double("y", y)).ok());

  df::DataFrame wea;
  std::vector<double> v;
  for (int i = 0; i < 40; ++i) v.push_back(static_cast<double>(i % 7));
  ASSERT_TRUE(wea.AddColumn(df::Column::Int64("k", k)).ok());
  ASSERT_TRUE(wea.AddColumn(df::Column::Double("v", v)).ok());

  df::DataFrame evt;
  std::vector<int64_t> dup_k;
  std::vector<double> w;
  for (int i = 0; i < 40; ++i) {
    dup_k.push_back(i % 20);  // every key appears twice
    w.push_back(static_cast<double>(i % 3));
  }
  ASSERT_TRUE(evt.AddColumn(df::Column::Int64("k", dup_k)).ok());
  ASSERT_TRUE(evt.AddColumn(df::Column::Double("w", w)).ok());

  ASSERT_TRUE(s->repo.Add("base", base).ok());
  ASSERT_TRUE(s->repo.Add("wea", std::move(wea)).ok());
  ASSERT_TRUE(s->repo.Add("evt", std::move(evt)).ok());

  s->task.base = std::move(base);
  s->task.target_column = "y";
  s->task.task = ml::TaskType::kRegression;
  s->task.repo = &s->repo;
  s->task.base_table_name = "base";
  discovery::CandidateJoin on_wea;
  on_wea.foreign_table = "wea";
  on_wea.keys = {
      discovery::JoinKeyPair{"k", "k", discovery::KeyKind::kHard}};
  discovery::CandidateJoin on_evt;
  on_evt.foreign_table = "evt";
  on_evt.keys = {
      discovery::JoinKeyPair{"k", "k", discovery::KeyKind::kHard}};
  s->task.candidates = {on_wea, on_evt};
}

core::ArdaConfig MakeConfig() {
  core::ArdaConfig config;
  config.seed = 42;
  config.num_threads = 1;
  config.rifs.num_rounds = 3;
  return config;
}

TEST(FaultInjectionTest, PipelineCompletesWithEverySingleFault) {
  FaultGuard guard;
  // Sites the scenario is guaranteed to hit; the others (csv_parse is a
  // load-time site, resample needs time keys, cholesky is reached only
  // through ridge regression's solve, which degrades to its intercept)
  // must still leave the run completing cleanly.
  const std::set<std::string_view> expect_skips = {
      fault::kJoinKeyEncode, fault::kPreAggregate, fault::kImpute,
      fault::kCoreset, fault::kRifs};
  for (std::string_view site : fault::AllFaultSites()) {
    ASSERT_TRUE(fault::SetFaultSpecForTest(site).ok()) << site;
    // Metrics are cumulative across runs; zero them so the skip counters
    // in this run's snapshot mirror exactly this run's skip list.
    metrics::GlobalRegistry().ResetForTest();
    Scenario s;
    MakeScenario(&s);
    Result<core::ArdaReport> report = core::Arda(MakeConfig()).Run(s.task);
    ASSERT_TRUE(report.ok())
        << "site=" << site << ": " << report.status().ToString();
    // Observability contract: every skipped_candidates entry has a
    // matching `skips.<stage>` counter increment, and no stage counts
    // skips the report doesn't know about.
    std::map<std::string, uint64_t> per_stage;
    for (const core::SkippedCandidate& skip : report->skipped_candidates) {
      ++per_stage[skip.stage];
    }
    for (const auto& [stage, count] : per_stage) {
      EXPECT_EQ(report->metrics.CounterValue("skips." + stage), count)
          << "site=" << site << " stage=" << stage;
    }
    for (const auto& counter : report->metrics.counters) {
      if (counter.name.rfind("skips.", 0) != 0) continue;
      const std::string stage = counter.name.substr(6);
      EXPECT_EQ(counter.value, per_stage[stage])
          << "site=" << site << " counter=" << counter.name;
    }
    if (expect_skips.count(site) > 0) {
      EXPECT_FALSE(report->skipped_candidates.empty()) << "site=" << site;
      bool any_injected = false;
      for (const core::SkippedCandidate& skip : report->skipped_candidates) {
        EXPECT_FALSE(skip.table.empty());
        EXPECT_FALSE(skip.stage.empty());
        EXPECT_FALSE(skip.reason.empty());
        if (skip.reason.find("injected fault") != std::string::npos) {
          any_injected = true;
        }
      }
      EXPECT_TRUE(any_injected) << "site=" << site;
    }
    // The run still scores something: the base features always survive.
    EXPECT_GT(report->augmented.NumRows(), 0u) << "site=" << site;
    EXPECT_GE(report->augmented.NumCols(), 3u) << "site=" << site;
  }
}

TEST(FaultInjectionTest, DisarmedRunMatchesNeverArmedRun) {
  FaultGuard guard;
  Scenario before;
  MakeScenario(&before);
  Result<core::ArdaReport> clean = core::Arda(MakeConfig()).Run(before.task);
  ASSERT_TRUE(clean.ok());
  EXPECT_TRUE(clean->skipped_candidates.empty());

  ASSERT_TRUE(fault::SetFaultSpecForTest("impute").ok());
  Scenario faulted;
  MakeScenario(&faulted);
  Result<core::ArdaReport> degraded =
      core::Arda(MakeConfig()).Run(faulted.task);
  ASSERT_TRUE(degraded.ok());
  EXPECT_FALSE(degraded->skipped_candidates.empty());

  ASSERT_TRUE(fault::SetFaultSpecForTest("").ok());
  Scenario after;
  MakeScenario(&after);
  Result<core::ArdaReport> again = core::Arda(MakeConfig()).Run(after.task);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->skipped_candidates.empty());
  // Disarming restores bit-identical behavior.
  EXPECT_EQ(df::WriteCsvString(clean->augmented),
            df::WriteCsvString(again->augmented));
  EXPECT_DOUBLE_EQ(clean->final_score, again->final_score);
}

TEST(FaultInjectionTest, CsvParseFaultHitsOnlyTheRequestedLoad) {
  FaultGuard guard;
  ASSERT_TRUE(fault::SetFaultSpecForTest("csv_parse:2").ok());
  fault::ResetFaultCounters();
  const std::string csv = "k,v\n1,2\n";
  Result<df::DataFrame> first = df::ReadCsvString(csv);
  ASSERT_TRUE(first.ok());
  Result<df::DataFrame> second = df::ReadCsvString(csv);
  ASSERT_FALSE(second.ok());
  EXPECT_NE(second.status().message().find("injected fault"),
            std::string::npos);
  Result<df::DataFrame> third = df::ReadCsvString(csv);
  EXPECT_TRUE(third.ok());  // only the 2nd hit fails
}

TEST(FaultInjectionTest, RejectsUnknownSitesAndBadCounts) {
  FaultGuard guard;
  EXPECT_FALSE(fault::SetFaultSpecForTest("no_such_site").ok());
  EXPECT_FALSE(fault::SetFaultSpecForTest("cholesky:0").ok());
  EXPECT_FALSE(fault::SetFaultSpecForTest("cholesky:-1").ok());
  EXPECT_FALSE(fault::SetFaultSpecForTest("cholesky:x").ok());
  EXPECT_TRUE(fault::SetFaultSpecForTest(" impute , cholesky:2 ").ok());
  EXPECT_TRUE(fault::SetFaultSpecForTest("").ok());
  // Disarmed: no site fires.
  EXPECT_FALSE(fault::FaultsArmed());
}

TEST(FaultInjectionTest, ColumnarReadFaultFallsBackToCsv) {
  FaultGuard guard;
  namespace fs = std::filesystem;
  const std::string data_dir = ::testing::TempDir() + "/arda_fault_colr";
  const std::string cache_dir = data_dir + "_cache";
  fs::remove_all(data_dir);
  fs::remove_all(cache_dir);
  fs::create_directories(data_dir);
  Scenario s;
  MakeScenario(&s);
  ASSERT_TRUE(df::WriteCsvFile(s.task.base, data_dir + "/base.csv").ok());

  // Warm the cache, then arm the columnar_read site: the cached load must
  // degrade to re-parsing the CSV, never crash or drop the table.
  discovery::DataRepository warm;
  ASSERT_TRUE(warm.LoadDirectory(data_dir, cache_dir, {}, nullptr).ok());

  ASSERT_TRUE(fault::SetFaultSpecForTest("columnar_read").ok());
  fault::ResetFaultCounters();
  metrics::GlobalRegistry().ResetForTest();
  discovery::DataRepository repo;
  discovery::LoadStats stats;
  ASSERT_TRUE(repo.LoadDirectory(data_dir, cache_dir, {}, &stats).ok());
  EXPECT_TRUE(repo.Has("base"));
  EXPECT_EQ(stats.tables_loaded, 1u);
  EXPECT_EQ(stats.cache_hits, 0u);
  ASSERT_EQ(stats.fallbacks.size(), 1u);
  EXPECT_NE(stats.fallbacks[0].reason.find("injected fault"),
            std::string::npos);
  EXPECT_EQ(
      metrics::GlobalRegistry().Snapshot().CounterValue("skips.ingest"),
      1u);
  fs::remove_all(data_dir);
  fs::remove_all(cache_dir);
}

TEST(FaultInjectionTest, ColumnarMapFaultFallsBackToCsv) {
  FaultGuard guard;
  namespace fs = std::filesystem;
  const std::string data_dir = ::testing::TempDir() + "/arda_fault_colm";
  const std::string cache_dir = data_dir + "_cache";
  fs::remove_all(data_dir);
  fs::remove_all(cache_dir);
  fs::create_directories(data_dir);
  Scenario s;
  MakeScenario(&s);
  ASSERT_TRUE(df::WriteCsvFile(s.task.base, data_dir + "/base.csv").ok());

  // Warm the cache, then arm the columnar_map site: the out-of-core
  // (mmap) load must degrade to re-parsing the CSV exactly like a failed
  // eager read — counter and fallback entry in lockstep.
  discovery::DataRepository warm;
  ASSERT_TRUE(warm.LoadDirectory(data_dir, cache_dir, {}, nullptr).ok());

  ASSERT_TRUE(fault::SetFaultSpecForTest("columnar_map").ok());
  fault::ResetFaultCounters();
  metrics::GlobalRegistry().ResetForTest();
  discovery::DataRepository repo;
  discovery::LoadOptions options;
  options.map_cache = true;
  discovery::LoadStats stats;
  ASSERT_TRUE(repo.LoadDirectory(data_dir, cache_dir, options, &stats).ok());
  EXPECT_TRUE(repo.Has("base"));
  EXPECT_EQ(stats.tables_loaded, 1u);
  EXPECT_EQ(stats.cache_hits, 0u);
  ASSERT_EQ(stats.fallbacks.size(), 1u);
  EXPECT_NE(stats.fallbacks[0].reason.find("injected fault"),
            std::string::npos);
  EXPECT_EQ(
      metrics::GlobalRegistry().Snapshot().CounterValue("skips.ingest"),
      1u);
  fs::remove_all(data_dir);
  fs::remove_all(cache_dir);
}

TEST(FaultInjectionTest, StatsDecodeFaultFallsBackToCsv) {
  FaultGuard guard;
  namespace fs = std::filesystem;
  const std::string data_dir = ::testing::TempDir() + "/arda_fault_stats";
  const std::string cache_dir = data_dir + "_cache";
  fs::remove_all(data_dir);
  fs::remove_all(cache_dir);
  fs::create_directories(data_dir);
  Scenario s;
  MakeScenario(&s);
  ASSERT_TRUE(df::WriteCsvFile(s.task.base, data_dir + "/base.csv").ok());

  // Warm the cache so the second load reaches the stats meta-block
  // decoder, then arm it: a corrupt/unreadable stats block must degrade
  // the whole cached read to the CSV path (skips.ingest), never crash.
  discovery::DataRepository warm;
  ASSERT_TRUE(warm.LoadDirectory(data_dir, cache_dir, {}, nullptr).ok());

  ASSERT_TRUE(fault::SetFaultSpecForTest("stats_decode").ok());
  fault::ResetFaultCounters();
  metrics::GlobalRegistry().ResetForTest();
  discovery::DataRepository repo;
  discovery::LoadStats stats;
  ASSERT_TRUE(repo.LoadDirectory(data_dir, cache_dir, {}, &stats).ok());
  EXPECT_TRUE(repo.Has("base"));
  EXPECT_EQ(stats.tables_loaded, 1u);
  EXPECT_EQ(stats.cache_hits, 0u);
  ASSERT_EQ(stats.fallbacks.size(), 1u);
  EXPECT_NE(stats.fallbacks[0].reason.find("injected fault"),
            std::string::npos);
  EXPECT_EQ(
      metrics::GlobalRegistry().Snapshot().CounterValue("skips.ingest"),
      1u);
  // The table is still fully usable (re-parsed), and stats can be
  // recomputed on demand despite the unreadable cached catalog.
  EXPECT_NE(repo.Stats("base"), nullptr);
  fs::remove_all(data_dir);
  fs::remove_all(cache_dir);
}

TEST(FaultInjectionTest, CliReportsIngestSkipUnderColumnarFault) {
  FaultGuard guard;
  namespace fs = std::filesystem;
  const std::string dir = ::testing::TempDir() + "/arda_fault_cli_cache";
  const std::string cache_dir = dir + "/cache";
  fs::remove_all(dir);
  fs::create_directories(dir);
  Scenario s;
  MakeScenario(&s);
  ASSERT_TRUE(df::WriteCsvFile(s.task.base, dir + "/base.csv").ok());
  ASSERT_TRUE(
      df::WriteCsvFile(*s.repo.Get("wea").value(), dir + "/wea.csv").ok());

  tools::CliOptions options;
  options.data_dir = dir;
  options.base_table = "base";
  options.target = "y";
  options.run.num_threads = 1;
  options.table_cache = cache_dir;
  options.report_json = dir + "/report.json";

  // First run warms the cache; second run hits it with columnar_read
  // armed, so every cached table degrades to CSV and the run's report
  // lists the fallbacks as `ingest` skips (exit status still 0).
  Status first = tools::RunCli(options);
  ASSERT_TRUE(first.ok()) << first.ToString();
  ASSERT_TRUE(fs::exists(cache_dir + "/base.ardac"));

  ASSERT_TRUE(fault::SetFaultSpecForTest("columnar_read").ok());
  fault::ResetFaultCounters();
  metrics::GlobalRegistry().ResetForTest();
  Status second = tools::RunCli(options);
  EXPECT_TRUE(second.ok()) << second.ToString();

  std::ifstream in(dir + "/report.json");
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  EXPECT_NE(json.find("\"skipped_candidates\""), std::string::npos);
  EXPECT_NE(json.find("\"ingest\""), std::string::npos);
  EXPECT_NE(json.find("injected fault at site 'columnar_read'"),
            std::string::npos);
  // Counter/report lockstep holds for ingest skips too: two tables fell
  // back, two skips.ingest increments, two report entries.
  EXPECT_NE(json.find("\"skips.ingest\": 2"), std::string::npos);
  fs::remove_all(dir);
}

TEST(FaultInjectionTest, CliCompletesAndReportsSkipsUnderFault) {
  FaultGuard guard;
  namespace fs = std::filesystem;
  const std::string dir = ::testing::TempDir() + "/arda_fault_cli";
  fs::create_directories(dir);
  Scenario s;
  MakeScenario(&s);
  ASSERT_TRUE(
      df::WriteCsvFile(s.task.base, dir + "/base.csv").ok());
  ASSERT_TRUE(
      df::WriteCsvFile(*s.repo.Get("wea").value(), dir + "/wea.csv").ok());

  ASSERT_TRUE(fault::SetFaultSpecForTest("impute").ok());
  tools::CliOptions options;
  options.data_dir = dir;
  options.base_table = "base";
  options.target = "y";
  options.run.num_threads = 1;
  options.report_json = dir + "/report.json";
  // RunCli returning Ok is what arda_cli_main maps to exit code 0.
  Status status = tools::RunCli(options);
  EXPECT_TRUE(status.ok()) << status.ToString();

  std::ifstream in(dir + "/report.json");
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  EXPECT_NE(json.find("\"skipped_candidates\""), std::string::npos);
  EXPECT_NE(json.find("injected fault at site 'impute'"), std::string::npos);
  std::remove((dir + "/report.json").c_str());
  std::remove((dir + "/base.csv").c_str());
  std::remove((dir + "/wea.csv").c_str());
}

}  // namespace
}  // namespace arda
