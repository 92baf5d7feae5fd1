#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one benchmark run measured and checked.
struct RunResult {
  /// The metrics the result line carries: the end-to-end set untraced,
  /// the per-layer set traced.
  std::vector<Metric> metrics;
  /// Further figures printed in the summary and kept in the record, such
  /// as the service-only latencies and sample counts.
  std::vector<Metric> extra;
  std::vector<std::string> notes;
  /// FNV-1a 64 of core::DeterministicReportJson per augmentation seed, so
  /// records of two builds can be checked for identical outputs.
  std::map<uint64_t, uint64_t> report_hashes;
  /// The individual measurements behind the medians, for the record.
  std::map<std::string, std::vector<double>> samples;
  /// Operations attempted plus correctness checks made, and how many of
  /// them failed (a refused or failed request, or a check that did not
  /// hold).
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> failures;

  /// Counts one operation or check; records `what` when it failed.
  void Check(bool ok, const std::string& what);
};

struct BenchOptions {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  /// Scratch directory for the lake's files and the trace.
  std::string work_dir;
};

/// The per-layer metrics every traced run reports, with their units, in
/// report order.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/// Names of the workloads RunWorkload accepts.
std::vector<std::string> WorkloadNames();

/// Runs one workload for about `options.seconds` of measurement.
RunResult RunWorkload(const BenchOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
