// End-to-end, layer-by-layer benchmark driver. Runs one workload for a
// fixed measurement time, checks the outputs, prints a readable summary
// and, as the last line of standard output, one JSON result object:
//
//   perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//             --work-dir=DIR [--source=LABEL] [--record=FILE]
//
// --trace=0 reports the end-to-end metrics, --trace=1 the per-layer ones
// (and writes DIR/trace.json). --record writes the full run record: the
// machine and build labels, every metric, notes and failed checks.
// perfbench/run.py builds this binary and passes the flags.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "simd/simd.h"
#include "util/string_util.h"
#include "workloads.h"

namespace perfbench {
namespace {

using arda::StrFormat;

struct Labels {
  std::string cpu_model;
  size_t nproc = 0;
  std::string simd;
  std::string build_type = PERFBENCH_BUILD_TYPE;
  std::string compiler = PERFBENCH_COMPILER;
  std::string source;
};

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        const std::string_view model = std::string_view(line).substr(colon + 1);
        return std::string(arda::Trim(model));
      }
    }
  }
  return "unknown";
}

std::string Quote(const std::string& text) {
  return "\"" + arda::JsonEscape(text) + "\"";
}

// Every digit a double holds, so repeated runs never read alike by rounding.
std::string Number(double value) { return StrFormat("%.17g", value); }

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += Quote(metrics[i].name) + ": {\"value\": " +
           Number(metrics[i].value) + ", \"unit\": " +
           Quote(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::string LabelsJson(const Labels& labels) {
  return StrFormat(
      "{\"cpu_model\": %s, \"nproc\": %zu, \"simd\": %s, \"build_type\": %s, "
      "\"compiler\": %s, \"source\": %s}",
      Quote(labels.cpu_model).c_str(), labels.nproc,
      Quote(labels.simd).c_str(), Quote(labels.build_type).c_str(),
      Quote(labels.compiler).c_str(), Quote(labels.source).c_str());
}

void PrintSummary(const BenchOptions& options, const Labels& labels,
                  const RunResult& result) {
  std::printf("perfbench %s seed=%llu trace=%d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0);
  std::printf("  machine: %s, nproc %zu, simd %s, %s build, %s, source %s\n",
              labels.cpu_model.c_str(), labels.nproc, labels.simd.c_str(),
              labels.build_type.c_str(), labels.compiler.c_str(),
              labels.source.c_str());
  for (const std::vector<Metric>* group : {&result.metrics, &result.extra}) {
    for (const Metric& m : *group) {
      std::printf("  %-32s %16.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  std::printf("  %-32s %16.6g (%zu of %zu operations and checks)\n",
              "failed_ratio",
              static_cast<double>(result.failed) /
                  static_cast<double>(std::max<size_t>(result.attempted, 1)),
              result.failed, result.attempted);
  for (const std::string& note : result.notes) {
    std::printf("  note: %s\n", note.c_str());
  }
  for (const std::string& failure : result.failures) {
    std::printf("  FAILED: %s\n", failure.c_str());
  }
}

bool WriteRecord(const std::string& path, const BenchOptions& options,
                 const Labels& labels, const RunResult& result) {
  std::string out = "{\n";
  out += "  \"workload\": " + Quote(options.workload) + ",\n";
  out += StrFormat("  \"seed\": %llu,\n",
                   static_cast<unsigned long long>(options.seed));
  out += StrFormat("  \"seconds\": %s,\n", Number(options.seconds).c_str());
  out += StrFormat("  \"trace\": %d,\n", options.trace ? 1 : 0);
  out += "  \"labels\": " + LabelsJson(labels) + ",\n";
  out += "  \"metrics\": " + MetricsJson(result.metrics) + ",\n";
  out += "  \"extra\": " + MetricsJson(result.extra) + ",\n";
  out += "  \"samples\": {";
  for (auto it = result.samples.begin(); it != result.samples.end(); ++it) {
    out += (it == result.samples.begin() ? "" : ", ") + Quote(it->first) +
           ": [";
    for (size_t i = 0; i < it->second.size(); ++i) {
      out += (i > 0 ? ", " : "") + Number(it->second[i]);
    }
    out += "]";
  }
  out += "},\n";
  out += "  \"report_hashes\": {";
  for (auto it = result.report_hashes.begin();
       it != result.report_hashes.end(); ++it) {
    out += StrFormat("%s\"%llu\": \"%016llx\"",
                     it == result.report_hashes.begin() ? "" : ", ",
                     static_cast<unsigned long long>(it->first),
                     static_cast<unsigned long long>(it->second));
  }
  out += "},\n";
  out += StrFormat("  \"attempted\": %zu,\n  \"failed\": %zu,\n",
                   result.attempted, result.failed);
  for (const auto* list : {&result.notes, &result.failures}) {
    out += list == &result.notes ? "  \"notes\": [" : "  \"failures\": [";
    for (size_t i = 0; i < list->size(); ++i) {
      out += (i > 0 ? ", " : "") + Quote((*list)[i]);
    }
    out += list == &result.notes ? "],\n" : "]\n";
  }
  out += "}\n";
  std::ofstream file(path);
  file << out;
  return static_cast<bool>(file);
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload=NAME --seed=N "
               "--seconds=S --trace=0|1 --work-dir=DIR [--source=LABEL] "
               "[--record=FILE]\n",
               message);
  return 2;
}

int Main(int argc, char** argv) {
  BenchOptions options;
  Labels labels;
  std::string record;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      return Usage(("bad argument: " + arg).c_str());
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    int64_t n = 0;
    if (key == "workload") {
      options.workload = value;
    } else if (key == "seed" && arda::ParseInt64(value, &n) && n >= 0) {
      options.seed = static_cast<uint64_t>(n);
      have_seed = true;
    } else if (key == "seconds" && arda::ParseDouble(value, &options.seconds) &&
               options.seconds > 0.0) {
      have_seconds = true;
    } else if (key == "trace" && (value == "0" || value == "1")) {
      options.trace = value == "1";
    } else if (key == "work-dir" && !value.empty()) {
      options.work_dir = value;
    } else if (key == "source") {
      labels.source = value;
    } else if (key == "record") {
      record = value;
    } else {
      return Usage(("bad argument: " + arg).c_str());
    }
  }
  bool known = false;
  for (const std::string& name : WorkloadNames()) {
    known = known || name == options.workload;
  }
  if (!known) return Usage("unknown or missing --workload");
  if (!have_seed) return Usage("missing --seed");
  if (!have_seconds) return Usage("missing --seconds");
  if (options.work_dir.empty()) return Usage("missing --work-dir");

  arda::simd::InitFromEnvironment();
  labels.cpu_model = CpuModel();
  labels.nproc = std::thread::hardware_concurrency();
  labels.simd = arda::simd::DispatchSummary();

  const RunResult result = RunWorkload(options);
  PrintSummary(options, labels, result);
  const bool record_ok =
      record.empty() || WriteRecord(record, options, labels, result);
  if (!record_ok) std::printf("  FAILED: cannot write %s\n", record.c_str());
  const bool correct = result.failed == 0 && record_ok;
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", std::max<size_t>(result.attempted, 1),
      result.failed + (record_ok ? 0 : 1),
      MetricsJson(result.metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
