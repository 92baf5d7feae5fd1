#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"

namespace perfbench {

/// One recorded span: a named interval on one thread, with the span that
/// caused it. Times are seconds since the log's epoch.
struct SpanRecord {
  const char* name = "";  // static-lifetime string
  uint64_t id = 0;        // 1-based, dense
  uint64_t parent = 0;    // 0 = root
  uint32_t tid = 0;       // dense per-thread index
  double start = 0.0;
  double end = 0.0;
};

/// In-memory span store for the traced layer pass. Spans are kept in
/// memory while the benchmark runs and written out once at exit
/// (WriteChromeTrace). All spans come from the benchmark's own files,
/// around calls into the library; nothing inside the library is traced.
class SpanLog {
 public:
  SpanLog();
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  uint64_t Open(const char* name, uint64_t parent);
  void Close(uint64_t id);

  /// Snapshot of every recorded span, in opening order.
  std::vector<SpanRecord> Records() const;

  /// Self time of every span: its duration minus the part of its interval
  /// that its child spans cover (children on other threads included;
  /// overlapping children count once). Indexed like Records().
  static std::vector<double> SelfSeconds(const std::vector<SpanRecord>& spans);

  /// Writes the spans as Chrome trace-event JSON (loadable in Perfetto or
  /// chrome://tracing). Each event's args carry its id, parent, root and
  /// self time in microseconds.
  arda::Status WriteChromeTrace(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  double epoch_ = 0.0;
};

/// RAII span. Without an explicit parent, the parent is the innermost open
/// Span on the same thread; code that fans out to worker threads passes
/// the fan-out span's id explicitly.
class Span {
 public:
  Span(SpanLog* log, const char* name);
  Span(SpanLog* log, const char* name, uint64_t parent);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  uint64_t id() const { return id_; }

 private:
  SpanLog* log_;
  uint64_t id_;
};

/// Sum of durations (seconds) and count of the spans named `name`.
double TotalSeconds(const std::vector<SpanRecord>& spans, const char* name);
size_t CountOf(const std::vector<SpanRecord>& spans, const char* name);

/// Monotonic clock in seconds.
double NowSeconds();

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
