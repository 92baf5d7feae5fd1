#ifndef ARDA_SERVICE_SERVICE_H_
#define ARDA_SERVICE_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/arda.h"
#include "core/options.h"
#include "discovery/repository.h"
#include "service/wire.h"
#include "util/json.h"
#include "util/status.h"
#include "util/trace.h"

/// \file
/// Long-lived augmentation service (docs/service.md): loads the data
/// repository once (through the `.ardac` columnar cache), keeps it
/// resident, and serves concurrent augmentation requests over the wire
/// protocol in service/wire.h. The repository is published as an
/// immutable snapshot behind a shared_ptr; an `ingest` request builds a
/// replacement repository copy-on-write and swaps it in atomically, so
/// in-flight requests keep reading the snapshot they started with.

namespace arda::service {

/// Static service configuration (per-request knobs travel in the request
/// JSON instead).
struct ServiceConfig {
  /// Directory of *.csv tables, loaded at Start and re-loaded on ingest.
  std::string data_dir;
  /// `.ardac` columnar cache directory ("" = no cache).
  std::string table_cache;
  /// TCP port on 127.0.0.1 (0 = ephemeral; read back with port()).
  uint16_t port = 0;
  /// Admission-control bound: maximum augment requests admitted at once
  /// (queued on the thread pool or executing). Requests beyond it are
  /// rejected immediately with status "overloaded" instead of queuing
  /// without bound.
  size_t max_queue_depth = 8;
  /// Completed augment responses kept resident, keyed by (canonical
  /// request, snapshot generation); oldest entries are evicted first.
  size_t max_resident_results = 64;
  /// Threads used to parse CSVs at Start/ingest (0 = hardware
  /// concurrency).
  size_t load_threads = 0;
  /// Requests slower than this log a `service.slow_request` record with
  /// the full per-stage breakdown (docs/observability.md); 0 disables.
  double slow_request_ms = 0.0;
  /// Serve fresh v3 `.ardac` caches via mmap (discovery::LoadOptions::
  /// map_cache): the out-of-core repository mode. Column lifetime is tied
  /// to the mapping through shared ownership, so a COW ingest swap never
  /// unmaps a table an in-flight request still reads.
  bool map_cache = false;
};

/// What LoadDirectory produced for one published snapshot.
struct SnapshotInfo {
  uint64_t generation = 0;
  size_t tables_loaded = 0;
  size_t cache_hits = 0;
};

/// The daemon. Thread-safe after Start(): the accept loop, per-connection
/// threads and the thread-pool request tasks all run concurrently.
class ArdaService {
 public:
  explicit ArdaService(ServiceConfig config);
  /// Stops the server if still running (BeginShutdown + Wait).
  ~ArdaService();

  ArdaService(const ArdaService&) = delete;
  ArdaService& operator=(const ArdaService&) = delete;

  /// Loads the initial repository snapshot, binds the listening socket
  /// and starts the accept loop. Fails without side effects on an
  /// unreadable data directory or an unbindable port.
  Status Start();

  /// The bound TCP port (valid after a successful Start).
  uint16_t port() const { return port_; }

  /// Info about the currently published snapshot.
  SnapshotInfo snapshot_info() const;

  /// Starts a graceful shutdown: stop accepting connections, let
  /// in-flight requests finish, close idle connections. Safe to call from
  /// any thread, any number of times (a `shutdown` request and the signal
  /// path both funnel here).
  void BeginShutdown();

  /// True once BeginShutdown has been called (by any path).
  bool ShutdownRequested() const {
    return shutting_down_.load(std::memory_order_relaxed);
  }

  /// Blocks until the accept loop and every connection thread have
  /// exited. Call after BeginShutdown (or let a `shutdown` request
  /// trigger it).
  void Wait();

  /// Handles one request payload and returns the response payload —
  /// the single entry point used by both the socket path and in-process
  /// tests. Never throws; malformed requests produce an "error" response.
  /// The overload without an id mints a fallback one ("r<seq>"); the
  /// socket path passes the per-connection id generated at accept.
  /// Request ids never appear in augment "ok" responses (those are the
  /// byte-identity surface, docs/service.md) — only in logs, trace spans
  /// and status/error responses.
  std::string HandleRequest(const std::string& request_json);
  std::string HandleRequest(const std::string& request_json,
                            const std::string& request_id);

  /// Readiness probe for the telemetry endpoint's /readyz: true once a
  /// repository snapshot is published and the server is not draining.
  /// Stays true across a COW ingest swap (the old snapshot keeps
  /// serving); flips false on BeginShutdown. On false, `reason` (when
  /// non-null) gets a short explanation.
  bool Ready(std::string* reason = nullptr) const;

  /// Refreshes the exported telemetry derived from the registry: rotates
  /// the sliding quantile windows and publishes
  /// `service.request_latency_p50/p90/p99` gauges (live window quantiles
  /// of `service.request_seconds`), the peak-RSS gauge, and the SIMD
  /// level gauges. Called before every /metrics scrape and every `stats`
  /// response; safe from any thread.
  void PublishTelemetryGauges();

 private:
  struct Snapshot {
    uint64_t generation = 0;
    std::shared_ptr<const discovery::DataRepository> repo;
    /// Cache-fallback degradations recorded when this snapshot loaded;
    /// copied into every augment report (same as the CLI's ingest_skips).
    std::vector<core::SkippedCandidate> ingest_skips;
    size_t tables_loaded = 0;
    size_t cache_hits = 0;
  };

  std::shared_ptr<const Snapshot> CurrentSnapshot() const;
  /// Loads a snapshot from disk. `base` (when non-null) seeds the new
  /// repository as a copy-on-write copy of an existing one: unchanged
  /// tables keep sharing frames, re-loaded tables replace their entry in
  /// the copy only.
  static Result<Snapshot> LoadSnapshot(const std::string& data_dir,
                                       const std::string& table_cache,
                                       size_t load_threads, bool map_cache,
                                       uint64_t generation,
                                       const discovery::DataRepository*
                                           base = nullptr);

  /// Parses and dispatches one request; the Status arm of the result is
  /// what HandleRequest turns into an "error" response. `type_out` gets
  /// the request type for the request log; `stages_out` collects the
  /// per-stage breakdown of an augment run for slow-request records.
  Result<std::string> Dispatch(
      const std::string& request_json, const std::string& request_id,
      std::string* type_out,
      std::vector<trace::StageCollector::Entry>* stages_out);
  Result<std::string> HandleAugment(
      const json::Value& request, const std::string& request_id,
      std::vector<trace::StageCollector::Entry>* stages_out);
  Result<std::string> HandleIngest(const json::Value& request,
                                   const std::string& request_id);
  std::string HandleStats();
  std::string HandlePing();

  /// Runs one augment request, with `options` already decoded from it, on
  /// the calling (pool) thread; the stage breakdown of the run lands in
  /// `stages_out`.
  Result<std::string> RunAugment(
      const json::Value& request, const core::RunOptions& options,
      std::shared_ptr<const Snapshot> snapshot,
      std::vector<trace::StageCollector::Entry>* stages_out);

  void AcceptLoop();
  void ConnectionLoop(Socket socket);

  ServiceConfig config_;
  uint16_t port_ = 0;
  Socket listener_;
  /// Self-pipe the accept/connection loops poll for shutdown wakeups
  /// (service-local, deliberately not the process-wide interrupt pipe so
  /// in-process tests can stop a server without tearing down the test).
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  std::atomic<bool> shutting_down_{false};
  bool started_ = false;

  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const Snapshot> snapshot_;
  uint64_t next_generation_ = 1;
  /// Serializes ingest requests (concurrent ingests would race on the
  /// generation; readers are never blocked by this).
  std::mutex ingest_mu_;

  /// Admission gate state: requests currently admitted (queued or
  /// executing on the pool).
  std::mutex admit_mu_;
  size_t inflight_ = 0;

  /// Resident results: canonical request key + generation -> response
  /// payload. FIFO eviction.
  std::mutex results_mu_;
  std::map<std::string, std::string> results_;
  std::deque<std::string> results_order_;

  std::atomic<uint64_t> requests_total_{0};
  /// Request-id generators: connections number themselves at accept and
  /// requests within a connection get a sequence ("c<conn>-<seq>");
  /// in-process callers without a connection get "r<seq>".
  std::atomic<uint64_t> next_conn_id_{0};
  std::atomic<uint64_t> fallback_request_seq_{0};

  std::thread accept_thread_;
  std::mutex conn_mu_;
  std::vector<std::thread> connections_;
  bool joined_ = false;
};

}  // namespace arda::service

#endif  // ARDA_SERVICE_SERVICE_H_
