#ifndef ARDA_TOOLS_CLI_H_
#define ARDA_TOOLS_CLI_H_

#include <string>
#include <vector>

#include "core/arda.h"
#include "core/options.h"
#include "util/status.h"

namespace arda::tools {

/// Parsed command-line options of the `arda_cli` driver.
struct CliOptions {
  /// Directory scanned for *.csv tables (every file becomes a repository
  /// table named after its stem).
  std::string data_dir;
  /// Table stem of the base table (must exist in data_dir).
  std::string base_table;
  /// Target column in the base table.
  std::string target;
  /// Run options shared with the augmentation service (--task,
  /// --selector, --plan, --plan-order, --soft-join, --seed, --threads),
  /// translated by core::MakeArdaConfig, so a service request and a CLI
  /// run with the same spellings build the same ArdaConfig (the
  /// byte-identity contract depends on this). Defaults live there too.
  core::RunOptions run;
  /// Directory of binary `.ardac` table caches ("" = caching disabled).
  /// Fresh cache files are loaded instead of re-parsing CSVs; missing or
  /// stale entries are rewritten after the CSV parse. Corrupt cache files
  /// degrade to the CSV path (reported as `ingest` skips).
  std::string table_cache;
  /// Serve fresh v3 `.ardac` caches through an mmap instead of an eager
  /// read (out-of-core repository mode; requires --table-cache). Results
  /// are identical either way.
  bool mmap_cache = false;
  /// Output CSV path for the augmented table ("" = don't write).
  std::string output;
  /// Output path for a machine-readable JSON report ("" = don't write).
  std::string report_json;
  /// Output path for the deterministic report subset ("" = don't write):
  /// core::DeterministicReportJson, the bytes the augmentation service
  /// returns for the same request — used by the byte-identity tests and
  /// the service load generator's --assert-identical mode.
  std::string canonical_report;
  /// Output path for a Chrome/Perfetto trace-event JSON file ("" = tracing
  /// stays disabled). Setting it enables span tracing for the whole run.
  std::string trace_out;
  /// SIMD dispatch level: "auto" (highest supported), "scalar" or "avx2".
  /// Results are bit-identical for every level; overrides the ARDA_SIMD
  /// environment variable.
  std::string simd = "auto";
  /// Log level ("" = keep the process default / ARDA_LOG): debug, info,
  /// warn, error, off.
  std::string log_level;
  /// Log format ("" = text): text or json single-line records.
  std::string log_format;
  bool show_help = false;
};

/// Parses argv. Recognized flags:
///   --data=DIR --base=NAME --target=COL [--task=regression|classification]
///   [--selector=NAME] [--plan=budget|table|full] [--plan-order=cost|score]
///   [--soft-join=2way|nearest|hard] [--table-cache=DIR] [--mmap-cache]
///   [--output=FILE] [--report-json=FILE] [--trace-out=FILE] [--seed=N]
///   [--threads=N]
///   [--simd=auto|scalar|avx2] [--log-level=L] [--log-format=text|json]
///   [--help]
/// Fails with InvalidArgument on unknown flags or missing required ones
/// (unless --help was given).
Result<CliOptions> ParseCliArgs(const std::vector<std::string>& args);

/// Usage text printed for --help or parse errors.
std::string CliUsage();

/// Loads the repository, runs the pipeline, prints a human-readable
/// report to stdout and optionally writes the augmented CSV. Returns the
/// process exit status.
Status RunCli(const CliOptions& options);

}  // namespace arda::tools

#endif  // ARDA_TOOLS_CLI_H_
