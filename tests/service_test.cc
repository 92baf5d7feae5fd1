// Tests for the long-lived augmentation service and its lifecycle
// plumbing: the strict JSON wire model, cooperative interrupts (pipeline
// and CLI), one-time environment init, and ArdaService request handling —
// concurrent byte-identity against the one-shot pipeline, admission
// control, copy-on-write snapshot swaps on ingest, the two service fault
// legs, and graceful shutdown over a real socket.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/arda.h"
#include "core/options.h"
#include "core/report_io.h"
#include "discovery/repository.h"
#include "service/service.h"
#include "service/wire.h"
#include "simd/simd.h"
#include "tools/cli.h"
#include "util/fault.h"
#include "util/interrupt.h"
#include "util/json.h"
#include "util/log.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace arda {
namespace {

namespace fs = std::filesystem;

// --- JSON wire model ---

TEST(JsonTest, ParsesScalarsExactly) {
  Result<json::Value> v = json::Parse(
      "{\"b\":true,\"i\":-42,\"n\":null,\"s\":\"a\\nb\",\"x\":2.5,"
      "\"big\":1e300,\"over\":9223372036854775808,"
      "\"max\":9223372036854775807}");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_TRUE(v->Find("n")->is_null());
  EXPECT_TRUE(v->BoolOr("b", false));
  EXPECT_EQ(v->IntOr("i", 0), -42);
  EXPECT_TRUE(v->Find("i")->IsExactInt64());
  EXPECT_DOUBLE_EQ(v->NumberOr("x", 0.0), 2.5);
  // Numbers that are not exact int64s read as the fallback, never as a
  // truncated or out-of-range cast.
  EXPECT_EQ(v->IntOr("x", 7), 7);
  EXPECT_EQ(v->IntOr("big", 7), 7);
  EXPECT_EQ(v->IntOr("over", 7), 7);
  EXPECT_FALSE(v->Find("over")->IsExactInt64());
  EXPECT_EQ(v->IntOr("max", 7), INT64_MAX);
  EXPECT_EQ(v->StringOr("s", ""), "a\nb");
  EXPECT_EQ(v->Find("missing"), nullptr);
  EXPECT_EQ(v->StringOr("missing", "fallback"), "fallback");
}

TEST(JsonTest, SerializeRoundTripsSortedAndEscaped) {
  std::map<std::string, json::Value> members;
  members.emplace("z", json::Value::MakeInt(7));
  members.emplace("a", json::Value::MakeString("q\"\\\n"));
  std::vector<json::Value> items;
  items.push_back(json::Value::MakeBool(false));
  items.push_back(json::Value::MakeNull());
  members.emplace("m", json::Value::MakeArray(std::move(items)));
  const std::string text =
      json::Serialize(json::Value::MakeObject(std::move(members)));
  EXPECT_EQ(text, "{\"a\":\"q\\\"\\\\\\n\",\"m\":[false,null],\"z\":7}");
  // Re-parsing the emitted bytes and re-serializing is a fixed point —
  // the property the canonical result-cache keys rely on.
  Result<json::Value> again = json::Parse(text);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(json::Serialize(*again), text);
}

TEST(JsonTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(json::Parse("").ok());
  EXPECT_FALSE(json::Parse("{\"a\":1,}").ok());    // trailing comma
  EXPECT_FALSE(json::Parse("{\"a\":1} x").ok());   // trailing garbage
  EXPECT_FALSE(json::Parse("{'a':1}").ok());       // single quotes
  EXPECT_FALSE(json::Parse("NaN").ok());           // no NaN literal
  EXPECT_FALSE(json::Parse("{\"a\":01}").ok());    // leading zero
}

TEST(JsonTest, DepthCapRejectsHostileNesting) {
  std::string deep;
  for (int i = 0; i < 80; ++i) deep += '[';
  deep += "1";
  for (int i = 0; i < 80; ++i) deep += ']';
  EXPECT_FALSE(json::Parse(deep).ok());
  // ...but reasonable nesting is fine.
  EXPECT_TRUE(json::Parse("[[[[[[[[1]]]]]]]]").ok());
}

// --- one-time environment init (regression: env reads are hoisted to
// explicit init and are idempotent, so a long-lived server never races
// getenv from worker threads) ---

TEST(EnvInitTest, RepeatedInitIsIdempotent) {
  fault::InitFromEnvironment();
  fault::InitFromEnvironment();
  simd::InitFromEnvironment();
  simd::InitFromEnvironment();
  const std::string level = simd::ActiveLevelName();
  EXPECT_TRUE(level == "scalar" || level == "avx2") << level;
  simd::InitFromEnvironment();
  EXPECT_EQ(level, simd::ActiveLevelName());
}

// --- shared CSV fixture (mirrors the cli_test layout) ---

struct ServiceDir {
  fs::path dir;
  explicit ServiceDir(const char* tag) {
    dir = fs::path(testing::TempDir()) / tag;
    fs::remove_all(dir);
    fs::create_directories(dir);
    Rng rng(3);
    std::string base_csv = "id,x,y\n";
    std::string lookup_csv = "id,hidden\n";
    for (int i = 0; i < 120; ++i) {
      double hidden = rng.Normal();
      double x = rng.Normal();
      base_csv += StrFormat("%d,%.6f,%.6f\n", i, x,
                            x + 3.0 * hidden + rng.Normal(0.0, 0.1));
      lookup_csv += StrFormat("%d,%.6f\n", i, hidden);
    }
    Write("sales.csv", base_csv);
    Write("lookup.csv", lookup_csv);
  }
  ~ServiceDir() {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
  void Write(const std::string& name, const std::string& text) {
    std::ofstream out(dir / name, std::ios::binary);
    out << text;
  }
};

// Runs the one-shot pipeline in-process over the fixture — the golden
// bytes every service response must match.
Result<std::string> ReferenceReport(const ServiceDir& data,
                                    uint64_t seed = 42) {
  discovery::DataRepository repo;
  discovery::LoadStats stats;
  ARDA_RETURN_IF_ERROR(
      repo.LoadDirectory(data.dir.string(), "", {}, &stats));
  core::RunOptions run_options;
  run_options.seed = seed;
  ARDA_ASSIGN_OR_RETURN(core::ArdaConfig config,
                        core::MakeArdaConfig(run_options));
  ARDA_ASSIGN_OR_RETURN(const df::DataFrame* base, repo.Get("sales"));
  core::AugmentationTask task;
  task.base = *base;
  task.target_column = "y";
  task.repo = &repo;
  task.base_table_name = "sales";
  core::Arda arda(config);
  ARDA_ASSIGN_OR_RETURN(core::ArdaReport report, arda.Run(task));
  return core::DeterministicReportJson(report);
}

std::string AugmentRequest(uint64_t seed = 42, int64_t threads = 0) {
  std::map<std::string, json::Value> members;
  members.emplace("type", json::Value::MakeString("augment"));
  members.emplace("base", json::Value::MakeString("sales"));
  members.emplace("target", json::Value::MakeString("y"));
  members.emplace("seed",
                  json::Value::MakeInt(static_cast<int64_t>(seed)));
  if (threads > 0) {
    members.emplace("threads", json::Value::MakeInt(threads));
  }
  return json::Serialize(json::Value::MakeObject(std::move(members)));
}

json::Value MustParse(const std::string& text) {
  Result<json::Value> parsed = json::Parse(text);
  ARDA_CHECK(parsed.ok());
  return std::move(*parsed);
}

// Disarms every fault on scope exit (same guard the fault matrix uses).
struct FaultGuard {
  ~FaultGuard() { ARDA_CHECK(fault::SetFaultSpecForTest("").ok()); }
};

// --- cooperative interrupt (pipeline + CLI legs) ---

TEST(InterruptTest, PipelineStopsAtBatchBoundaryAndMarksReport) {
  ServiceDir data("arda_svc_interrupt");
  discovery::DataRepository repo;
  ASSERT_TRUE(repo.LoadDirectory(data.dir.string(), "", {}, nullptr).ok());
  Result<core::ArdaConfig> config =
      core::MakeArdaConfig(core::RunOptions{});
  ASSERT_TRUE(config.ok());
  // Fires on the very first poll: no batch is ever decided, the final
  // estimate is skipped and final_score stays at the base score.
  config->interrupt_check = [] { return true; };
  Result<const df::DataFrame*> base = repo.Get("sales");
  ASSERT_TRUE(base.ok());
  core::AugmentationTask task;
  task.base = **base;
  task.target_column = "y";
  task.repo = &repo;
  task.base_table_name = "sales";
  core::Arda arda(*config);
  Result<core::ArdaReport> report = arda.Run(task);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->interrupted);
  // No batch was ever decided and no foreign column survived: the
  // augmented table is the (coreset) base schema, nothing selected.
  EXPECT_TRUE(report->batches.empty());
  EXPECT_TRUE(report->selected_features.empty());
  EXPECT_EQ(report->tables_joined, 0u);
  const std::string json = core::DeterministicReportJson(*report);
  EXPECT_NE(json.find("\"interrupted\": true"), std::string::npos);
}

TEST(InterruptTest, CliFlushesInterruptedReport) {
  ServiceDir data("arda_svc_cli_interrupt");
  tools::CliOptions options;
  options.data_dir = data.dir.string();
  options.base_table = "sales";
  options.target = "y";
  options.canonical_report = (data.dir / "canonical.json").string();
  interrupt::RequestInterrupt();
  Status status = tools::RunCli(options);
  interrupt::ResetForTest();
  ASSERT_TRUE(status.ok()) << status.ToString();
  // The canonical report was still written, marked interrupted.
  std::ifstream in(data.dir / "canonical.json");
  ASSERT_TRUE(in.good());
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("\"interrupted\": true"), std::string::npos);
}

// --- ArdaService request handling ---

TEST(ServiceTest, PingReportsSnapshotAndMalformedRequestsError) {
  ServiceDir data("arda_svc_ping");
  service::ServiceConfig config;
  config.data_dir = data.dir.string();
  service::ArdaService server(config);
  ASSERT_TRUE(server.Start().ok());

  json::Value ping = MustParse(server.HandleRequest("{\"type\":\"ping\"}"));
  EXPECT_EQ(ping.StringOr("status", ""), "ok");
  EXPECT_EQ(ping.StringOr("server", ""), "arda_serve");
  EXPECT_EQ(ping.IntOr("snapshot_generation", 0), 1);
  EXPECT_EQ(ping.IntOr("tables_loaded", 0), 2);

  json::Value bad = MustParse(server.HandleRequest("not json at all"));
  EXPECT_EQ(bad.StringOr("status", ""), "error");
  EXPECT_FALSE(bad.StringOr("error", "").empty());
  json::Value unknown =
      MustParse(server.HandleRequest("{\"type\":\"bogus\"}"));
  EXPECT_EQ(unknown.StringOr("status", ""), "error");
  // A seed or thread count that is not an exact int64, a negative thread
  // count, or an option string of another JSON type is an error that
  // names the field.
  for (const char* field :
       {"\"seed\":1e300", "\"seed\":9223372036854775808", "\"seed\":1.5",
        "\"seed\":\"7\"", "\"threads\":2.5", "\"threads\":-1",
        "\"task\":1", "\"plan\":null", "\"selector\":[\"rifs\"]",
        "\"soft_join\":false"}) {
    const std::string text = field;
    json::Value rejected = MustParse(server.HandleRequest(
        "{\"type\":\"augment\",\"base\":\"sales\",\"target\":\"y\"," +
        text + "}"));
    EXPECT_EQ(rejected.StringOr("status", ""), "error") << field;
    const std::string name = text.substr(0, text.find(':'));
    EXPECT_NE(rejected.StringOr("error", "").find(name), std::string::npos)
        << field << ": " << rejected.StringOr("error", "");
  }

  json::Value stats = MustParse(server.HandleRequest("{\"type\":\"stats\"}"));
  EXPECT_EQ(stats.StringOr("status", ""), "ok");
  EXPECT_EQ(stats.IntOr("snapshot_generation", 0), 1);
  EXPECT_GE(stats.IntOr("requests_total", -1), 0);
}

TEST(ServiceTest, ConcurrentAugmentsAreByteIdenticalToPipeline) {
  ServiceDir data("arda_svc_identity");
  Result<std::string> reference = ReferenceReport(data);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  service::ServiceConfig config;
  config.data_dir = data.dir.string();
  config.max_queue_depth = 8;
  service::ArdaService server(config);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 6;
  std::vector<std::string> responses(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&server, &responses, i] {
      responses[i] = server.HandleRequest(AugmentRequest());
    });
  }
  for (std::thread& t : clients) t.join();

  for (int i = 1; i < kClients; ++i) {
    EXPECT_EQ(responses[i], responses[0]) << "client " << i;
  }
  json::Value response = MustParse(responses[0]);
  ASSERT_EQ(response.StringOr("status", ""), "ok")
      << response.StringOr("error", "");
  EXPECT_EQ(response.IntOr("generation", 0), 1);
  // The embedded deterministic report matches the one-shot pipeline's
  // bytes exactly — the service adds no nondeterminism.
  EXPECT_EQ(response.StringOr("report_json", ""), *reference);

  // A different thread count is an execution knob, not a result knob:
  // same bytes (and the cache key excludes it, so this is also a hit).
  json::Value threaded =
      MustParse(server.HandleRequest(AugmentRequest(42, 4)));
  EXPECT_EQ(threaded.StringOr("report_json", ""), *reference);
}

TEST(ServiceTest, TelemetryEnabledAugmentsStayByteIdentical) {
  // The observability machinery (PR 9) is observation-only: with request
  // logging at debug, JSON records, and the slow-request breakdown armed
  // for every request, augment responses still match the one-shot
  // pipeline byte for byte and carry no request id.
  ServiceDir data("arda_svc_telemetry");
  Result<std::string> reference = ReferenceReport(data);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  std::vector<std::string> lines;
  log::SetSinkForTest([&lines](const std::string& line) {
    static std::mutex mu;
    std::lock_guard<std::mutex> lock(mu);
    lines.push_back(line);
  });
  log::SetLevel(log::Level::kDebug);
  log::SetFormat(log::Format::kJson);

  service::ServiceConfig config;
  config.data_dir = data.dir.string();
  config.slow_request_ms = 0.000001;  // every request logs its breakdown
  service::ArdaService server(config);
  ASSERT_TRUE(server.Start().ok());
  const std::string response =
      server.HandleRequest(AugmentRequest(), "c5-1");

  log::SetSinkForTest(nullptr);
  log::SetLevel(log::Level::kWarn);
  log::SetFormat(log::Format::kText);

  json::Value parsed = MustParse(response);
  ASSERT_EQ(parsed.StringOr("status", ""), "ok")
      << parsed.StringOr("error", "");
  EXPECT_EQ(parsed.StringOr("report_json", ""), *reference);
  EXPECT_EQ(response.find("request_id"), std::string::npos);
  EXPECT_FALSE(lines.empty());
}

TEST(ServiceTest, ResidentResultCacheServesRepeats) {
  ServiceDir data("arda_svc_cache");
  service::ServiceConfig config;
  config.data_dir = data.dir.string();
  service::ArdaService server(config);
  ASSERT_TRUE(server.Start().ok());

  metrics::GlobalRegistry().ResetForTest();
  const std::string first = server.HandleRequest(AugmentRequest());
  EXPECT_EQ(metrics::GlobalRegistry().Snapshot().CounterValue(
                "service.result_cache_hits_total"),
            0u);
  const std::string second = server.HandleRequest(AugmentRequest());
  EXPECT_EQ(first, second);
  EXPECT_EQ(metrics::GlobalRegistry().Snapshot().CounterValue(
                "service.result_cache_hits_total"),
            1u);
  // A different seed is a different canonical key — no false sharing.
  const std::string other = server.HandleRequest(AugmentRequest(7));
  EXPECT_NE(other, first);
}

TEST(ServiceTest, AdmissionGateRejectsWhenSaturated) {
  ServiceDir data("arda_svc_overload");
  service::ServiceConfig config;
  config.data_dir = data.dir.string();
  // Zero queue depth: every augment is over the bound, deterministically.
  config.max_queue_depth = 0;
  service::ArdaService server(config);
  ASSERT_TRUE(server.Start().ok());

  json::Value response = MustParse(server.HandleRequest(AugmentRequest()));
  EXPECT_EQ(response.StringOr("status", ""), "overloaded");
  // Overload is not an error: pings still answer.
  json::Value ping = MustParse(server.HandleRequest("{\"type\":\"ping\"}"));
  EXPECT_EQ(ping.StringOr("status", ""), "ok");
}

TEST(ServiceTest, IngestSwapsSnapshotCopyOnWrite) {
  ServiceDir data("arda_svc_ingest");
  service::ServiceConfig config;
  config.data_dir = data.dir.string();
  service::ArdaService server(config);
  ASSERT_TRUE(server.Start().ok());

  json::Value before = MustParse(server.HandleRequest(AugmentRequest()));
  ASSERT_EQ(before.StringOr("status", ""), "ok");
  EXPECT_EQ(before.IntOr("generation", 0), 1);

  // Replace the candidate table with a differently-named feature, then
  // ingest: generation bumps and new augments see the new data.
  Rng rng(11);
  std::string lookup_csv = "id,hidden2\n";
  for (int i = 0; i < 120; ++i) {
    lookup_csv += StrFormat("%d,%.6f\n", i, rng.Normal());
  }
  data.Write("lookup.csv", lookup_csv);

  json::Value ingest =
      MustParse(server.HandleRequest("{\"type\":\"ingest\"}"));
  ASSERT_EQ(ingest.StringOr("status", ""), "ok")
      << ingest.StringOr("error", "");
  EXPECT_EQ(ingest.IntOr("generation", 0), 2);
  EXPECT_EQ(server.snapshot_info().generation, 2u);

  json::Value after = MustParse(server.HandleRequest(AugmentRequest()));
  ASSERT_EQ(after.StringOr("status", ""), "ok");
  EXPECT_EQ(after.IntOr("generation", 0), 2);
  // The swapped-in data is visible: the candidate column changed from a
  // y-predictive signal to pure noise, so the report bytes change too.
  EXPECT_NE(after.StringOr("report_json", ""),
            before.StringOr("report_json", ""));
}

TEST(ServiceTest, IngestFaultKeepsOldSnapshotServing) {
  FaultGuard guard;
  ServiceDir data("arda_svc_ingest_fault");
  service::ServiceConfig config;
  config.data_dir = data.dir.string();
  service::ArdaService server(config);
  ASSERT_TRUE(server.Start().ok());

  const std::string before = server.HandleRequest(AugmentRequest());
  ASSERT_EQ(MustParse(before).StringOr("status", ""), "ok");

  ASSERT_TRUE(fault::SetFaultSpecForTest("service_ingest").ok());
  json::Value ingest =
      MustParse(server.HandleRequest("{\"type\":\"ingest\"}"));
  EXPECT_EQ(ingest.StringOr("status", ""), "error");
  ASSERT_TRUE(fault::SetFaultSpecForTest("").ok());

  // The failed ingest left no trace: same generation, same bytes.
  EXPECT_EQ(server.snapshot_info().generation, 1u);
  EXPECT_EQ(server.HandleRequest(AugmentRequest()), before);
  // And a retry without the fault succeeds.
  json::Value retry =
      MustParse(server.HandleRequest("{\"type\":\"ingest\"}"));
  EXPECT_EQ(retry.StringOr("status", ""), "ok");
  EXPECT_EQ(server.snapshot_info().generation, 2u);
}

TEST(ServiceTest, MappedCacheServesIdenticalBytesAndSurvivesIngestRaces) {
  // Out-of-core serving mode (satellite of the mmap'd-repository work):
  // with map_cache on, fresh v3 caches are served through an mmap whose
  // lifetime is tied to the frames via shared ownership. A COW ingest
  // swap must therefore never unmap a table an in-flight augment still
  // reads — the old mapping dies only when the last reader drops its
  // snapshot — and the bytes served must equal the eager-load bytes.
  ServiceDir data("arda_svc_mmap");
  const fs::path cache_dir = data.dir / "cache";

  service::ServiceConfig config;
  config.data_dir = data.dir.string();
  config.table_cache = cache_dir.string();
  config.map_cache = true;
  config.max_queue_depth = 16;
  service::ArdaService server(config);
  // First load parses CSVs and writes the caches (nothing to map yet).
  ASSERT_TRUE(server.Start().ok());
  const double mapped_before =
      metrics::GlobalRegistry().Snapshot().CounterValue(
          "ingest.columnar_map_tables");
  // Re-ingest: every cache is now fresh, so generation 2 serves through
  // the mmap path.
  json::Value ingest =
      MustParse(server.HandleRequest("{\"type\":\"ingest\"}"));
  ASSERT_EQ(ingest.StringOr("status", ""), "ok")
      << ingest.StringOr("error", "");
  EXPECT_GE(metrics::GlobalRegistry().Snapshot().CounterValue(
                "ingest.columnar_map_tables"),
            mapped_before + 2);

  // Byte identity: mapped tables produce the same report as the eager
  // one-shot pipeline.
  Result<std::string> reference = ReferenceReport(data);
  ASSERT_TRUE(reference.ok());
  json::Value mapped = MustParse(server.HandleRequest(AugmentRequest()));
  ASSERT_EQ(mapped.StringOr("status", ""), "ok")
      << mapped.StringOr("error", "");
  EXPECT_EQ(mapped.StringOr("report_json", ""), *reference);

  // Race the swap: augments (distinct seeds defeat the result cache) run
  // while the main thread rewrites a CSV and re-ingests, which rewrites
  // the mapped cache file (rename keeps the old inode alive) and swaps
  // the snapshot under the readers.
  constexpr int kClients = 4;
  constexpr int kRoundsPerClient = 3;
  std::vector<std::string> responses(kClients * kRoundsPerClient);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&server, &responses, c] {
      for (int r = 0; r < kRoundsPerClient; ++r) {
        const uint64_t seed = 100 + static_cast<uint64_t>(c * 17 + r);
        responses[static_cast<size_t>(c * kRoundsPerClient + r)] =
            server.HandleRequest(AugmentRequest(seed));
      }
    });
  }
  Rng rng(23);
  for (int round = 0; round < 3; ++round) {
    std::string lookup_csv = "id,hidden\n";
    for (int i = 0; i < 120; ++i) {
      lookup_csv += StrFormat("%d,%.6f\n", i, rng.Normal());
    }
    data.Write("lookup.csv", lookup_csv);
    json::Value swap =
        MustParse(server.HandleRequest("{\"type\":\"ingest\"}"));
    ASSERT_EQ(swap.StringOr("status", ""), "ok")
        << swap.StringOr("error", "");
  }
  for (std::thread& t : clients) t.join();
  for (size_t i = 0; i < responses.size(); ++i) {
    json::Value response = MustParse(responses[i]);
    EXPECT_EQ(response.StringOr("status", ""), "ok")
        << "client response " << i << ": "
        << response.StringOr("error", "");
  }

  // After the dust settles, the served bytes again equal a fresh eager
  // run over the final data.
  Result<std::string> final_reference = ReferenceReport(data);
  ASSERT_TRUE(final_reference.ok());
  json::Value after = MustParse(server.HandleRequest(AugmentRequest()));
  ASSERT_EQ(after.StringOr("status", ""), "ok");
  EXPECT_EQ(after.StringOr("report_json", ""), *final_reference);
}

TEST(ServiceTest, AcceptFaultRejectsOneRequestAndServerSurvives) {
  FaultGuard guard;
  ServiceDir data("arda_svc_accept_fault");
  service::ServiceConfig config;
  config.data_dir = data.dir.string();
  service::ArdaService server(config);
  ASSERT_TRUE(server.Start().ok());

  ASSERT_TRUE(fault::SetFaultSpecForTest("service_accept:1").ok());
  json::Value faulted = MustParse(server.HandleRequest("{\"type\":\"ping\"}"));
  EXPECT_EQ(faulted.StringOr("status", ""), "error");
  json::Value next = MustParse(server.HandleRequest("{\"type\":\"ping\"}"));
  EXPECT_EQ(next.StringOr("status", ""), "ok");
}

TEST(ServiceTest, ShutdownDrainsAndRejectsNewWork) {
  ServiceDir data("arda_svc_shutdown");
  service::ServiceConfig config;
  config.data_dir = data.dir.string();
  service::ArdaService server(config);
  ASSERT_TRUE(server.Start().ok());

  server.BeginShutdown();
  EXPECT_TRUE(server.ShutdownRequested());
  json::Value rejected = MustParse(server.HandleRequest(AugmentRequest()));
  EXPECT_EQ(rejected.StringOr("status", ""), "shutting_down");
  server.Wait();
}

#if defined(ARDA_HAVE_SOCKETS) || defined(__unix__) || defined(__APPLE__)
TEST(ServiceTest, SocketRoundTripAndShutdownRequest) {
  ServiceDir data("arda_svc_socket");
  service::ServiceConfig config;
  config.data_dir = data.dir.string();
  service::ArdaService server(config);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.port(), 0);

  Result<service::ServiceClient> client =
      service::ServiceClient::Connect(server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  std::map<std::string, json::Value> ping;
  ping.emplace("type", json::Value::MakeString("ping"));
  Result<json::Value> pong =
      client->Call(json::Value::MakeObject(std::move(ping)));
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_EQ(pong->StringOr("status", ""), "ok");

  // An augment over the wire returns the exact bytes the in-process
  // path produces (the socket layer is a dumb framed pipe).
  Result<std::string> wire = client->RoundTrip(AugmentRequest());
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  EXPECT_EQ(*wire, server.HandleRequest(AugmentRequest()));

  std::map<std::string, json::Value> bye;
  bye.emplace("type", json::Value::MakeString("shutdown"));
  Result<json::Value> ack =
      client->Call(json::Value::MakeObject(std::move(bye)));
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  EXPECT_EQ(ack->StringOr("status", ""), "ok");
  server.Wait();
  EXPECT_TRUE(server.ShutdownRequested());
}
#endif

}  // namespace
}  // namespace arda
