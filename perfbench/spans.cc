#include "spans.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>

#include "util/string_util.h"

namespace perfbench {
namespace {

uint32_t ThreadIndex() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t index = next.fetch_add(1);
  return index;
}

// Open spans of the current thread, innermost last.
thread_local std::vector<uint64_t> t_open_spans;

}  // namespace

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanLog::SpanLog() : epoch_(NowSeconds()) {}

uint64_t SpanLog::Open(const char* name, uint64_t parent) {
  SpanRecord record;
  record.name = name;
  record.parent = parent;
  record.tid = ThreadIndex();
  std::lock_guard<std::mutex> lock(mu_);
  record.id = spans_.size() + 1;
  record.start = NowSeconds() - epoch_;
  spans_.push_back(record);
  return record.id;
}

void SpanLog::Close(uint64_t id) {
  const double end = NowSeconds() - epoch_;
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].end = end;
}

std::vector<SpanRecord> SpanLog::Records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<double> SpanLog::SelfSeconds(
    const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != 0) children[spans[i].parent - 1].push_back(i);
  }
  std::vector<double> self(spans.size(), 0.0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    std::vector<std::pair<double, double>> covered;
    for (size_t c : children[i]) {
      const double lo = std::max(span.start, spans[c].start);
      const double hi = std::min(span.end, spans[c].end);
      if (hi > lo) covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    double union_seconds = 0.0;
    double reach = span.start;
    for (const auto& [lo, hi] : covered) {
      const double from = std::max(lo, reach);
      if (hi > from) union_seconds += hi - from;
      reach = std::max(reach, hi);
    }
    self[i] = (span.end - span.start) - union_seconds;
  }
  return self;
}

arda::Status SpanLog::WriteChromeTrace(const std::string& path) const {
  const std::vector<SpanRecord> spans = Records();
  const std::vector<double> self = SelfSeconds(spans);
  std::ofstream out(path);
  if (!out) return arda::Status::IoError("cannot write trace: " + path);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    uint64_t root = span.id;
    while (spans[root - 1].parent != 0) root = spans[root - 1].parent;
    out << arda::StrFormat(
        "{\"name\": \"%s\", \"cat\": \"perfbench\", \"ph\": \"X\", "
        "\"pid\": 1, \"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
        "\"args\": {\"id\": %llu, \"parent\": %llu, \"root\": %llu, "
        "\"self_us\": %.3f}}%s\n",
        span.name, span.tid, span.start * 1e6,
        (span.end - span.start) * 1e6,
        static_cast<unsigned long long>(span.id),
        static_cast<unsigned long long>(span.parent),
        static_cast<unsigned long long>(root), self[i] * 1e6,
        i + 1 < spans.size() ? "," : "");
  }
  out << "]}\n";
  if (!out) return arda::Status::IoError("failed writing trace: " + path);
  return arda::Status::Ok();
}

Span::Span(SpanLog* log, const char* name)
    : Span(log, name, t_open_spans.empty() ? 0 : t_open_spans.back()) {}

Span::Span(SpanLog* log, const char* name, uint64_t parent)
    : log_(log), id_(log->Open(name, parent)) {
  t_open_spans.push_back(id_);
}

Span::~Span() {
  log_->Close(id_);
  t_open_spans.pop_back();
}

double TotalSeconds(const std::vector<SpanRecord>& spans, const char* name) {
  double total = 0.0;
  for (const SpanRecord& span : spans) {
    if (std::strcmp(span.name, name) == 0) total += span.end - span.start;
  }
  return total;
}

size_t CountOf(const std::vector<SpanRecord>& spans, const char* name) {
  size_t count = 0;
  for (const SpanRecord& span : spans) {
    if (std::strcmp(span.name, name) == 0) ++count;
  }
  return count;
}

}  // namespace perfbench
