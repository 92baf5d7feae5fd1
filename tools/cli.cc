#include "tools/cli.h"

#include <cstdio>
#include <fstream>
#include <string_view>

#include "dataframe/csv.h"
#include "core/report_io.h"
#include "discovery/discovery.h"
#include "simd/simd.h"
#include "util/interrupt.h"
#include "util/metrics.h"
#include "util/string_util.h"
#include "util/trace.h"

namespace arda::tools {

std::string CliUsage() {
  return
      "arda_cli — automatic relational data augmentation over a directory "
      "of CSVs\n"
      "\n"
      "usage: arda_cli --data=DIR --base=NAME --target=COL [options]\n"
      "\n"
      "  --data=DIR       directory containing *.csv tables\n"
      "  --base=NAME      base table (file stem, e.g. 'rides' for "
      "rides.csv)\n"
      "  --target=COL     prediction target column in the base table\n"
      "  --task=KIND      regression (default) | classification\n"
      "  --selector=NAME  rifs (default) | random_forest | mutual_info | "
      "f_test |\n"
      "                   chi_squared | lasso | relief | linear_svc | "
      "logistic_reg |\n"
      "                   sparse_regression | forward_selection | "
      "backward_selection |\n"
      "                   rfe | all_features\n"
      "  --plan=KIND      budget (default) | table | full\n"
      "  --plan-order=K   cost (default): order candidate joins by the\n"
      "                   statistics catalog's estimated tuple ratio "
      "before\n"
      "                   batching | score: keep discovery-score order\n"
      "  --soft-join=K    2way (default) | nearest | hard\n"
      "  --table-cache=D  cache parsed tables as binary .ardac files in "
      "D;\n"
      "                   repeated runs load the cache instead of "
      "re-parsing\n"
      "                   CSVs (corrupt caches fall back to CSV)\n"
      "  --mmap-cache     serve fresh v3 cache files through an mmap "
      "instead of\n"
      "                   an eager read (out-of-core repository mode; "
      "needs\n"
      "                   --table-cache; results are identical)\n"
      "  --output=FILE    write the augmented table as CSV\n"
      "  --report-json=F  write a machine-readable run report\n"
      "  --canonical-report=F  write only the deterministic report subset\n"
      "                   (byte-identical to the service's report_json for\n"
      "                   the same request; see docs/service.md)\n"
      "  --trace-out=F    enable span tracing and write a Chrome/Perfetto\n"
      "                   trace-event JSON file (open in ui.perfetto.dev "
      "or\n"
      "                   chrome://tracing)\n"
      "  --seed=N         random seed (default 42)\n"
      "  --threads=N      worker threads (0 = hardware concurrency, "
      "1 = serial;\n"
      "                   results are identical for every value)\n"
      "  --simd=LEVEL     auto (default: highest supported) | scalar | "
      "avx2;\n"
      "                   results are bit-identical for every level\n"
      "  --log-level=L    debug | info | warn (default) | error | off;\n"
      "                   ARDA_LOG=L is the environment spelling\n"
      "  --log-format=F   text (default) | json single-line records\n"
      "  --help           show this message\n";
}

Result<CliOptions> ParseCliArgs(const std::vector<std::string>& args) {
  CliOptions options;
  for (const std::string& arg : args) {
    auto value_of = [&](const char* flag) -> const char* {
      std::string prefix = std::string(flag) + "=";
      if (StartsWith(arg, prefix)) return arg.c_str() + prefix.size();
      return nullptr;
    };
    if (arg == "--help" || arg == "-h") {
      options.show_help = true;
    } else if (const char* v = value_of("--data")) {
      options.data_dir = v;
    } else if (const char* v = value_of("--base")) {
      options.base_table = v;
    } else if (const char* v = value_of("--target")) {
      options.target = v;
    } else if (const char* v = value_of("--task")) {
      options.run.task = v;
    } else if (const char* v = value_of("--selector")) {
      options.run.selector = v;
    } else if (const char* v = value_of("--plan")) {
      options.run.plan = v;
    } else if (const char* v = value_of("--plan-order")) {
      options.run.plan_order = v;
    } else if (const char* v = value_of("--soft-join")) {
      options.run.soft_join = v;
    } else if (const char* v = value_of("--table-cache")) {
      options.table_cache = v;
    } else if (arg == "--mmap-cache") {
      options.mmap_cache = true;
    } else if (const char* v = value_of("--output")) {
      options.output = v;
    } else if (const char* v = value_of("--report-json")) {
      options.report_json = v;
    } else if (const char* v = value_of("--canonical-report")) {
      options.canonical_report = v;
    } else if (const char* v = value_of("--trace-out")) {
      options.trace_out = v;
    } else if (const char* v = value_of("--seed")) {
      int64_t seed = 0;
      if (!ParseInt64(v, &seed)) {
        return Status::InvalidArgument("bad --seed value: " +
                                       std::string(v));
      }
      options.run.seed = static_cast<uint64_t>(seed);
    } else if (const char* v = value_of("--threads")) {
      int64_t threads = 0;
      if (!ParseInt64(v, &threads) || threads < 0) {
        return Status::InvalidArgument("bad --threads value: " +
                                       std::string(v));
      }
      options.run.num_threads = static_cast<size_t>(threads);
    } else if (const char* v = value_of("--simd")) {
      // Spelling is a flag-parse error (exit 2 + usage, like --task);
      // whether the level is available on this CPU is decided in RunCli.
      if (std::string_view(v) != "auto" && std::string_view(v) != "scalar" &&
          std::string_view(v) != "avx2") {
        return Status::InvalidArgument("bad --simd value: " + std::string(v) +
                                       " (want auto|scalar|avx2)");
      }
      options.simd = v;
    } else if (const char* v = value_of("--log-level")) {
      options.log_level = v;
    } else if (const char* v = value_of("--log-format")) {
      options.log_format = v;
    } else {
      return Status::InvalidArgument("unknown flag: " + arg);
    }
  }
  if (options.show_help) return options;
  if (options.data_dir.empty() || options.base_table.empty() ||
      options.target.empty()) {
    return Status::InvalidArgument(
        "--data, --base and --target are required (see --help)");
  }
  if (!core::ParseTaskType(options.run.task).ok()) {
    return Status::InvalidArgument("bad --task: " + options.run.task);
  }
  if (options.mmap_cache && options.table_cache.empty()) {
    return Status::InvalidArgument(
        "--mmap-cache requires --table-cache (there is nothing to map "
        "without a cache directory)");
  }
  return options;
}

namespace {

// Human-readable per-stage latency table built from the always-on
// `stage.<name>` histograms in the report's metrics snapshot.
void PrintStageSummary(const metrics::MetricsSnapshot& snapshot) {
  bool any = false;
  for (const metrics::HistogramSnapshot& h : snapshot.histograms) {
    if (StartsWith(h.name, "stage.") && h.count > 0) {
      any = true;
      break;
    }
  }
  if (!any) return;
  std::printf("\n%-16s %9s %12s %12s %12s\n", "stage", "count",
              "total (s)", "mean (ms)", "max (ms)");
  for (const metrics::HistogramSnapshot& h : snapshot.histograms) {
    if (!StartsWith(h.name, "stage.") || h.count == 0) continue;
    const double mean_ms =
        h.sum / static_cast<double>(h.count) * 1e3;
    std::printf("%-16s %9llu %12.3f %12.3f %12.3f\n", h.name.c_str() + 6,
                static_cast<unsigned long long>(h.count), h.sum, mean_ms,
                h.max * 1e3);
  }
  for (const metrics::GaugeSnapshot& g : snapshot.gauges) {
    if (g.name == "process.peak_rss_bytes" && g.value > 0.0) {
      std::printf("peak RSS: %.1f MiB\n", g.value / (1024.0 * 1024.0));
    }
  }
}

}  // namespace

Status RunCli(const CliOptions& options) {
  {
    core::LogOptions log_options;
    log_options.level = options.log_level;
    log_options.format = options.log_format;
    ARDA_RETURN_IF_ERROR(core::ApplyLogOptions(log_options));
  }
  ARDA_ASSIGN_OR_RETURN(core::ArdaConfig config,
                        core::MakeArdaConfig(options.run));
  // Cooperative Ctrl-C/SIGTERM: the pipeline checks the process interrupt
  // flag at stage boundaries and winds down with a partial report (marked
  // `"interrupted": true`) instead of dying mid-run — so --trace-out and
  // --report-json output survive an interrupt. main() installs the
  // handlers; without them the flag simply never fires.
  config.interrupt_check = [] { return interrupt::InterruptRequested(); };
  if (!options.trace_out.empty()) trace::Enable();

  // Pin the SIMD dispatch level before any kernel runs (the columnar
  // decode kernels already fire during table loading below). The flag
  // wins over the ARDA_SIMD environment variable.
  if (!simd::SetLevelFromSpec(options.simd)) {
    if (options.simd != "avx2") {
      return Status::InvalidArgument("bad --simd value: " + options.simd +
                                     " (want auto|scalar|avx2)");
    }
    // A supported-but-unavailable level degrades (results are level-
    // invariant anyway); only unknown specs are hard errors.
    std::fprintf(stderr,
                 "warning: --simd=avx2 not supported on this CPU; "
                 "using scalar\n");
  }
  std::printf("simd level: %s\n", simd::DispatchSummary().c_str());

  // Load every CSV in the data directory, via the binary table cache
  // when --table-cache is set.
  discovery::DataRepository repo;
  discovery::LoadOptions load_options;
  load_options.csv.num_threads = options.run.num_threads;
  load_options.map_cache = options.mmap_cache;
  discovery::LoadStats load_stats;
  ARDA_RETURN_IF_ERROR(repo.LoadDirectory(options.data_dir,
                                          options.table_cache, load_options,
                                          &load_stats));
  for (const discovery::IngestSkip& failure : load_stats.failures) {
    std::fprintf(stderr, "warning: skipping table %s: %s\n",
                 failure.table.c_str(), failure.reason.c_str());
  }
  for (const discovery::IngestSkip& fallback : load_stats.fallbacks) {
    std::fprintf(stderr, "warning: table %s: %s\n", fallback.table.c_str(),
                 fallback.reason.c_str());
  }
  std::printf("loaded %zu tables from %s", load_stats.tables_loaded,
              options.data_dir.c_str());
  if (!options.table_cache.empty()) {
    std::printf(" (%zu from cache, %zu cache files written)",
                load_stats.cache_hits, load_stats.cache_writes);
  }
  std::printf("\n");
  ARDA_ASSIGN_OR_RETURN(const df::DataFrame* base,
                        repo.Get(options.base_table));

  core::AugmentationTask task;
  task.base = *base;
  task.target_column = options.target;
  ARDA_ASSIGN_OR_RETURN(task.task, core::ParseTaskType(options.run.task));
  task.repo = &repo;
  task.base_table_name = options.base_table;
  for (const discovery::IngestSkip& fallback : load_stats.fallbacks) {
    task.ingest_skips.push_back(
        {fallback.table, "ingest", fallback.reason});
  }

  core::Arda arda(config);
  ARDA_ASSIGN_OR_RETURN(core::ArdaReport report, arda.Run(task));

  const bool classification = task.task == ml::TaskType::kClassification;
  if (report.interrupted) {
    std::printf("run interrupted%s: partial report covers %zu decided "
                "batch(es); final estimate skipped\n",
                interrupt::InterruptSignal() != 0 ? " by signal" : "",
                report.batches.size());
  }
  std::printf("tables considered: %zu, joined: %zu\n",
              report.tables_considered, report.tables_joined);
  if (!report.skipped_candidates.empty()) {
    std::printf("skipped %zu candidate(s):\n",
                report.skipped_candidates.size());
    for (const core::SkippedCandidate& skip : report.skipped_candidates) {
      std::printf("  %s [%s]: %s\n", skip.table.c_str(), skip.stage.c_str(),
                  skip.reason.c_str());
    }
  }
  if (classification) {
    std::printf("base accuracy:      %.2f%%\n", report.base_score * 100.0);
    std::printf("augmented accuracy: %.2f%%  (%+.1f%%)\n",
                report.final_score * 100.0, report.ImprovementPercent());
  } else {
    std::printf("base MAE:      %.4f\n", -report.base_score);
    std::printf("augmented MAE: %.4f  (%+.1f%%)\n", -report.final_score,
                report.ImprovementPercent());
  }
  std::printf("columns: %zu -> %zu (%.1fs total: %.1fs joins, %.1fs "
              "selection)\n",
              base->NumCols(), report.augmented.NumCols(),
              report.total_seconds, report.join_seconds,
              report.selection_seconds);
  PrintStageSummary(report.metrics);
  if (!options.output.empty()) {
    ARDA_RETURN_IF_ERROR(
        df::WriteCsvFile(report.augmented, options.output));
    std::printf("augmented table written to %s\n", options.output.c_str());
  }
  if (!options.report_json.empty()) {
    ARDA_RETURN_IF_ERROR(
        core::WriteReportJson(report, options.report_json));
    std::printf("JSON report written to %s\n",
                options.report_json.c_str());
  }
  if (!options.canonical_report.empty()) {
    std::ofstream canonical(options.canonical_report);
    if (!canonical) {
      return Status::IoError("cannot open file for writing: " +
                             options.canonical_report);
    }
    canonical << core::DeterministicReportJson(report);
    if (!canonical) {
      return Status::IoError("failed writing file: " +
                             options.canonical_report);
    }
    std::printf("canonical report written to %s\n",
                options.canonical_report.c_str());
  }
  if (!options.trace_out.empty()) {
    ARDA_RETURN_IF_ERROR(trace::WriteJson(options.trace_out));
    std::printf("trace written to %s (%zu events; open in "
                "ui.perfetto.dev or chrome://tracing)\n",
                options.trace_out.c_str(), trace::EventCount());
  }
  return Status::Ok();
}

}  // namespace arda::tools
