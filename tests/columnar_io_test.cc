// Round-trip and corruption coverage for the binary `.ardac` columnar
// table format, plus the DataRepository directory loader that uses it as
// a table cache (fresh-cache hits, stale-cache refresh, and graceful
// fallback to CSV on any corrupt cache file).

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "dataframe/column_stats.h"
#include "dataframe/columnar_io.h"
#include "dataframe/csv.h"
#include "discovery/repository.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace arda::df {
namespace {

namespace fs = std::filesystem;

DataFrame MakeTypedFrame() {
  Column d = Column::Empty("d", DataType::kDouble);
  d.AppendDouble(1.5);
  d.AppendNull();
  d.AppendDouble(-0.0);
  d.AppendDouble(std::numeric_limits<double>::quiet_NaN());
  d.AppendDouble(std::numeric_limits<double>::infinity());
  d.AppendDouble(1e-320);  // subnormal
  Column i = Column::Empty("i", DataType::kInt64);
  i.AppendInt64(std::numeric_limits<int64_t>::min());
  i.AppendInt64(-1);
  i.AppendNull();
  i.AppendInt64(0);
  i.AppendInt64(std::numeric_limits<int64_t>::max());
  i.AppendInt64(7);
  Column s = Column::Empty("s", DataType::kString);
  s.AppendString("plain");
  s.AppendString("");
  s.AppendString(std::string("nul\0byte", 8));
  s.AppendNull();
  s.AppendString("comma, \"quote\"\nnewline");
  s.AppendString("\xC3\xA9");
  DataFrame frame;
  EXPECT_TRUE(frame.AddColumn(std::move(d)).ok());
  EXPECT_TRUE(frame.AddColumn(std::move(i)).ok());
  EXPECT_TRUE(frame.AddColumn(std::move(s)).ok());
  return frame;
}

void ExpectFramesIdentical(const DataFrame& a, const DataFrame& b) {
  ASSERT_EQ(a.NumRows(), b.NumRows());
  ASSERT_EQ(a.NumCols(), b.NumCols());
  for (size_t c = 0; c < a.NumCols(); ++c) {
    const Column& ca = a.col(c);
    const Column& cb = b.col(c);
    EXPECT_EQ(ca.name(), cb.name());
    ASSERT_EQ(ca.type(), cb.type());
    for (size_t r = 0; r < a.NumRows(); ++r) {
      ASSERT_EQ(ca.IsNull(r), cb.IsNull(r)) << "col " << c << " row " << r;
      if (ca.IsNull(r)) continue;
      switch (ca.type()) {
        case DataType::kDouble: {
          // Bit-identical, including NaN payloads and signed zero.
          uint64_t ba, bb;
          double da = ca.DoubleAt(r), db = cb.DoubleAt(r);
          static_assert(sizeof(ba) == sizeof(da));
          std::memcpy(&ba, &da, 8);
          std::memcpy(&bb, &db, 8);
          EXPECT_EQ(ba, bb) << "col " << c << " row " << r;
          break;
        }
        case DataType::kInt64:
          EXPECT_EQ(ca.Int64At(r), cb.Int64At(r))
              << "col " << c << " row " << r;
          break;
        case DataType::kString:
          EXPECT_EQ(ca.StringAt(r), cb.StringAt(r))
              << "col " << c << " row " << r;
          break;
      }
    }
  }
}

TEST(ColumnarIoTest, RoundTripsTypedFrameInMemory) {
  DataFrame frame = MakeTypedFrame();
  std::string bytes = WriteColumnarString(frame);
  Result<DataFrame> back = ReadColumnarString(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectFramesIdentical(frame, *back);
}

TEST(ColumnarIoTest, RoundTripsThroughFile) {
  DataFrame frame = MakeTypedFrame();
  const std::string path = testing::TempDir() + "/arda_columnar_rt.ardac";
  ASSERT_TRUE(WriteColumnar(frame, path).ok());
  Result<DataFrame> back = ReadColumnar(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectFramesIdentical(frame, *back);
  std::remove(path.c_str());
}

TEST(ColumnarIoTest, RoundTripsEmptyFrames) {
  DataFrame empty;
  Result<DataFrame> back = ReadColumnarString(WriteColumnarString(empty));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->NumCols(), 0u);
  EXPECT_EQ(back->NumRows(), 0u);

  DataFrame zero_rows;
  ASSERT_TRUE(
      zero_rows.AddColumn(Column::Empty("a", DataType::kDouble)).ok());
  ASSERT_TRUE(
      zero_rows.AddColumn(Column::Empty("b", DataType::kString)).ok());
  back = ReadColumnarString(WriteColumnarString(zero_rows));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->NumCols(), 2u);
  EXPECT_EQ(back->NumRows(), 0u);
  EXPECT_EQ(back->col(0).type(), DataType::kDouble);
  EXPECT_EQ(back->col(1).type(), DataType::kString);
}

TEST(ColumnarIoTest, LargeMixedCsvRoundTripIsByteIdentical) {
  // The acceptance fixture: a ~100k-row mixed-type table goes
  // CSV -> DataFrame -> .ardac -> DataFrame with nothing lost; the CSV
  // serialization of both frames must match byte for byte.
  Rng rng(99);
  std::string csv = "id,value,count,city\n";
  static const char* kCities[] = {"boston", "cambridge", "somerville",
                                  "medford"};
  for (size_t i = 0; i < 100000; ++i) {
    csv += std::to_string(i);
    csv += ',';
    if (rng.UniformUint64(20) != 0) csv += std::to_string(rng.Normal());
    csv += ',';
    if (rng.UniformUint64(20) != 0) {
      csv += std::to_string(rng.UniformUint64(1000));
    }
    csv += ',';
    if (rng.UniformUint64(20) != 0) csv += kCities[rng.UniformUint64(4)];
    csv += '\n';
  }
  Result<DataFrame> parsed = ReadCsvString(csv);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->NumRows(), 100000u);
  EXPECT_EQ(parsed->col("id").type(), DataType::kInt64);
  EXPECT_EQ(parsed->col("value").type(), DataType::kDouble);
  EXPECT_EQ(parsed->col("count").type(), DataType::kInt64);
  EXPECT_EQ(parsed->col("city").type(), DataType::kString);

  const std::string path = testing::TempDir() + "/arda_columnar_big.ardac";
  ASSERT_TRUE(WriteColumnar(*parsed, path).ok());
  Result<DataFrame> back = ReadColumnar(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectFramesIdentical(*parsed, *back);
  EXPECT_EQ(WriteCsvString(*parsed), WriteCsvString(*back));
  std::remove(path.c_str());
}

TEST(ColumnarIoTest, RejectsBadMagic) {
  std::string bytes = WriteColumnarString(MakeTypedFrame());
  bytes[0] = 'X';
  Result<DataFrame> r = ReadColumnarString(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("magic"), std::string::npos);
}

// Returns `bytes` with the little-endian u32 version field (offset 4)
// set to `version`.
std::string WithVersion(std::string bytes, uint32_t version) {
  for (int i = 0; i < 4; ++i) {
    bytes[4 + i] = static_cast<char>((version >> (8 * i)) & 0xff);
  }
  return bytes;
}

TEST(ColumnarIoTest, RejectsVersionSkew) {
  // Only version 3 is read: the retired versions 1 and 2 fail exactly
  // like an unknown future version.
  const std::string bytes = WriteColumnarString(MakeTypedFrame());
  for (uint32_t version : {1u, 2u, 99u}) {
    Result<DataFrame> r = ReadColumnarString(WithVersion(bytes, version));
    ASSERT_FALSE(r.ok()) << "version " << version;
    EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(r.status().message().find("version"), std::string::npos);
  }
}

TEST(ColumnarIoTest, RejectsChecksumMismatch) {
  std::string bytes = WriteColumnarString(MakeTypedFrame());
  bytes[bytes.size() - 1] ^= 0x40;  // flip a payload bit
  Result<DataFrame> r = ReadColumnarString(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(r.status().message().find("checksum"), std::string::npos);
}

TEST(ColumnarIoTest, RejectsTrailingGarbage) {
  std::string bytes = WriteColumnarString(MakeTypedFrame());
  Result<DataFrame> r = ReadColumnarString(bytes + std::string(4, '\0'));
  ASSERT_FALSE(r.ok());
  // The appended bytes perturb the checksum before trailing-byte
  // detection; either way the read must fail cleanly.
}

TEST(ColumnarIoTest, EveryTruncationFailsCleanly) {
  // Slicing the file at every possible length must yield a Status —
  // never a crash or an out-of-range read.
  std::string bytes = WriteColumnarString(MakeTypedFrame());
  for (size_t len = 0; len < bytes.size(); ++len) {
    Result<DataFrame> r = ReadColumnarString(bytes.substr(0, len));
    EXPECT_FALSE(r.ok()) << "prefix length " << len;
  }
}

TEST(ColumnarIoTest, MissingFileFails) {
  EXPECT_FALSE(ReadColumnar("/nonexistent/arda.ardac").ok());
}

// --- Meta block: source fingerprint + statistics catalog ---

TEST(ColumnarIoTest, MetaBlockRoundTrips) {
  DataFrame frame = MakeTypedFrame();
  ColumnarMeta meta;
  meta.source_size = 1234;
  meta.source_hash = 0xDEADBEEFCAFEF00DULL;
  meta.stats = ComputeTableStats(frame);
  std::string bytes = WriteColumnarString(frame, &meta);

  ColumnarMeta back_meta;
  Result<DataFrame> back = ReadColumnarString(bytes, &back_meta);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectFramesIdentical(frame, *back);
  EXPECT_EQ(back_meta.source_size, 1234u);
  EXPECT_EQ(back_meta.source_hash, 0xDEADBEEFCAFEF00DULL);
  ASSERT_EQ(back_meta.stats.columns.size(), frame.NumCols());
  for (size_t c = 0; c < frame.NumCols(); ++c) {
    const ColumnStats& expected = meta.stats.columns[c];
    const ColumnStats& got = back_meta.stats.columns[c];
    EXPECT_EQ(got.row_count, expected.row_count);
    EXPECT_EQ(got.non_null_count, expected.non_null_count);
    EXPECT_EQ(got.has_range, expected.has_range);
    if (got.has_range) {
      EXPECT_EQ(got.min, expected.min);
      EXPECT_EQ(got.max, expected.max);
    }
    EXPECT_EQ(got.hll, expected.hll);
    EXPECT_EQ(got.minhash, expected.minhash);
  }
}

TEST(ColumnarIoTest, EveryTruncationOfStatsFileFailsCleanly) {
  // Same contract as EveryTruncationFailsCleanly, over a file that
  // carries the full stats meta block.
  DataFrame frame = MakeTypedFrame();
  ColumnarMeta meta;
  meta.source_size = 42;
  meta.source_hash = 43;
  meta.stats = ComputeTableStats(frame);
  std::string bytes = WriteColumnarString(frame, &meta);
  for (size_t len = 0; len < bytes.size(); ++len) {
    Result<DataFrame> r = ReadColumnarString(bytes.substr(0, len));
    EXPECT_FALSE(r.ok()) << "prefix length " << len;
  }
}

// --- DataRepository::LoadDirectory cache behavior ---

struct TempTree {
  fs::path data_dir;
  fs::path cache_dir;
  TempTree(const char* tag) {
    data_dir = fs::path(testing::TempDir()) / (std::string(tag) + "_data");
    cache_dir =
        fs::path(testing::TempDir()) / (std::string(tag) + "_cache");
    fs::remove_all(data_dir);
    fs::remove_all(cache_dir);
    fs::create_directories(data_dir);
  }
  ~TempTree() {
    std::error_code ec;
    fs::remove_all(data_dir, ec);
    fs::remove_all(cache_dir, ec);
  }
};

void WriteFile(const fs::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  ASSERT_TRUE(out.good());
}

TEST(RepositoryCacheTest, WritesCacheThenLoadsFromIt) {
  TempTree tree("arda_repo_cache");
  WriteFile(tree.data_dir / "t.csv", "a,b\n1,x\n2,y\n");

  discovery::DataRepository first;
  discovery::LoadStats stats1;
  ASSERT_TRUE(first
                  .LoadDirectory(tree.data_dir.string(),
                                 tree.cache_dir.string(), {}, &stats1)
                  .ok());
  EXPECT_EQ(stats1.tables_loaded, 1u);
  EXPECT_EQ(stats1.cache_hits, 0u);
  EXPECT_EQ(stats1.cache_writes, 1u);
  EXPECT_TRUE(fs::exists(tree.cache_dir / "t.ardac"));

  discovery::DataRepository second;
  discovery::LoadStats stats2;
  ASSERT_TRUE(second
                  .LoadDirectory(tree.data_dir.string(),
                                 tree.cache_dir.string(), {}, &stats2)
                  .ok());
  EXPECT_EQ(stats2.tables_loaded, 1u);
  EXPECT_EQ(stats2.cache_hits, 1u);
  EXPECT_EQ(stats2.cache_writes, 0u);
  EXPECT_TRUE(stats2.fallbacks.empty());
  const DataFrame& t = second.GetOrDie("t");
  EXPECT_EQ(t.col("a").Int64At(1), 2);
  EXPECT_EQ(t.col("b").StringAt(0), "x");
}

TEST(RepositoryCacheTest, StaleCacheIsRefreshedFromCsv) {
  TempTree tree("arda_repo_stale");
  WriteFile(tree.data_dir / "t.csv", "a\n1\n");
  discovery::DataRepository first;
  ASSERT_TRUE(first
                  .LoadDirectory(tree.data_dir.string(),
                                 tree.cache_dir.string(), {}, nullptr)
                  .ok());
  // Make the CSV strictly newer than the cache entry.
  WriteFile(tree.data_dir / "t.csv", "a\n42\n");
  fs::last_write_time(tree.cache_dir / "t.ardac",
                      fs::last_write_time(tree.data_dir / "t.csv") -
                          std::chrono::seconds(5));

  discovery::DataRepository second;
  discovery::LoadStats stats;
  ASSERT_TRUE(second
                  .LoadDirectory(tree.data_dir.string(),
                                 tree.cache_dir.string(), {}, &stats)
                  .ok());
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_writes, 1u);
  EXPECT_EQ(second.GetOrDie("t").col("a").Int64At(0), 42);
}

TEST(RepositoryCacheTest, CorruptCacheFallsBackToCsv) {
  TempTree tree("arda_repo_corrupt");
  WriteFile(tree.data_dir / "t.csv", "a,b\n7,x\n");
  const fs::path cache = tree.cache_dir / "t.ardac";
  discovery::DataRepository first;
  ASSERT_TRUE(first
                  .LoadDirectory(tree.data_dir.string(),
                                 tree.cache_dir.string(), {}, nullptr)
                  .ok());
  std::string valid_bytes;
  {
    std::ifstream in(cache, std::ios::binary);
    valid_bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  // Garbage, and a cache whose fingerprint matches but whose version
  // field is the retired version 2: both must take the same path.
  // Writing either keeps the cache's mtime >= the CSV's, so it would be
  // used if it were readable.
  for (const std::string& bad :
       {std::string("ARDCgarbage-not-a-valid-file"),
        WithVersion(valid_bytes, 2)}) {
    WriteFile(cache, bad);
    metrics::GlobalRegistry().ResetForTest();
    discovery::DataRepository second;
    discovery::LoadStats stats;
    ASSERT_TRUE(second
                    .LoadDirectory(tree.data_dir.string(),
                                   tree.cache_dir.string(), {}, &stats)
                    .ok());
    EXPECT_EQ(stats.tables_loaded, 1u);
    EXPECT_EQ(stats.cache_hits, 0u);
    ASSERT_EQ(stats.fallbacks.size(), 1u);
    EXPECT_EQ(stats.fallbacks[0].table, "t");
    // The fallback increments the skips.ingest counter exactly once (the
    // report/counter lockstep the fault matrix asserts).
    EXPECT_EQ(metrics::GlobalRegistry().Snapshot().CounterValue(
                  "skips.ingest"),
              1u);
    // The table itself is fine — re-parsed from the CSV...
    EXPECT_EQ(second.GetOrDie("t").col("a").Int64At(0), 7);
    // ...and the bad cache entry has been rewritten as a valid v3 file...
    EXPECT_EQ(stats.cache_writes, 1u);
    Result<DataFrame> repaired = ReadColumnar(cache.string());
    EXPECT_TRUE(repaired.ok());
    // ...that the next load serves as a plain cache hit.
    discovery::DataRepository third;
    discovery::LoadStats stats3;
    ASSERT_TRUE(third
                    .LoadDirectory(tree.data_dir.string(),
                                   tree.cache_dir.string(), {}, &stats3)
                    .ok());
    EXPECT_EQ(stats3.cache_hits, 1u);
    EXPECT_TRUE(stats3.fallbacks.empty());
    EXPECT_EQ(stats3.cache_writes, 0u);
  }
}

TEST(RepositoryCacheTest, BadCsvIsRecordedAndSkipped) {
  TempTree tree("arda_repo_badcsv");
  WriteFile(tree.data_dir / "good.csv", "a\n1\n");
  WriteFile(tree.data_dir / "bad.csv", "a,b\n1\n");  // ragged
  discovery::DataRepository repo;
  discovery::LoadStats stats;
  ASSERT_TRUE(repo.LoadDirectory(tree.data_dir.string(), "", {}, &stats)
                  .ok());
  EXPECT_EQ(stats.tables_loaded, 1u);
  ASSERT_EQ(stats.failures.size(), 1u);
  EXPECT_EQ(stats.failures[0].table, "bad");
  EXPECT_TRUE(repo.Has("good"));
  EXPECT_FALSE(repo.Has("bad"));
}

TEST(RepositoryCacheTest, NoCacheDirMeansNoCacheFiles) {
  TempTree tree("arda_repo_nocache");
  WriteFile(tree.data_dir / "t.csv", "a\n1\n");
  discovery::DataRepository repo;
  discovery::LoadStats stats;
  ASSERT_TRUE(repo.LoadDirectory(tree.data_dir.string(), "", {}, &stats)
                  .ok());
  EXPECT_EQ(stats.tables_loaded, 1u);
  EXPECT_EQ(stats.cache_writes, 0u);
  EXPECT_FALSE(fs::exists(tree.cache_dir));
}

TEST(RepositoryCacheTest, MissingDataDirFails) {
  discovery::DataRepository repo;
  EXPECT_FALSE(
      repo.LoadDirectory("/nonexistent/arda_data", "", {}, nullptr).ok());
}

TEST(RepositoryCacheTest, RewriteAtSameMtimeIsDetectedByFingerprint) {
  // Regression test for the mtime-granularity staleness bug: a CSV
  // rewritten within the filesystem's timestamp granularity (cache mtime
  // >= CSV mtime) used to keep serving the stale cache. The source
  // fingerprint (size + content hash) in the cache meta block must catch
  // it regardless of timestamps.
  TempTree tree("arda_repo_samemtime");
  WriteFile(tree.data_dir / "t.csv", "a\n1\n");
  discovery::DataRepository first;
  ASSERT_TRUE(first
                  .LoadDirectory(tree.data_dir.string(),
                                 tree.cache_dir.string(), {}, nullptr)
                  .ok());
  // Rewrite the CSV with same-length different content, then force the
  // cache entry's mtime to be strictly NEWER than the CSV — the
  // worst case for an mtime-only freshness check.
  WriteFile(tree.data_dir / "t.csv", "a\n2\n");
  fs::last_write_time(tree.cache_dir / "t.ardac",
                      fs::last_write_time(tree.data_dir / "t.csv") +
                          std::chrono::seconds(5));

  discovery::DataRepository second;
  discovery::LoadStats stats;
  ASSERT_TRUE(second
                  .LoadDirectory(tree.data_dir.string(),
                                 tree.cache_dir.string(), {}, &stats)
                  .ok());
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_writes, 1u);
  EXPECT_EQ(second.GetOrDie("t").col("a").Int64At(0), 2);
}

TEST(RepositoryCacheTest, CacheWithoutFingerprintIsStaleEvenWhenNewer) {
  // Freshness is decided by the source fingerprint alone. A cache entry
  // written without one (null meta) is stale even when its mtime is
  // strictly newer than the CSV's — the case an mtime check would serve.
  TempTree tree("arda_repo_no_fingerprint");
  Result<DataFrame> stale = ReadCsvString("a\n1\n");
  ASSERT_TRUE(stale.ok());
  fs::create_directories(tree.cache_dir);
  WriteFile(tree.data_dir / "t.csv", "a\n42\n");
  WriteFile(tree.cache_dir / "t.ardac", WriteColumnarString(*stale));
  fs::last_write_time(tree.cache_dir / "t.ardac",
                      fs::last_write_time(tree.data_dir / "t.csv") +
                          std::chrono::seconds(5));

  discovery::DataRepository repo;
  discovery::LoadStats stats;
  ASSERT_TRUE(repo.LoadDirectory(tree.data_dir.string(),
                                 tree.cache_dir.string(), {}, &stats)
                  .ok());
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_TRUE(stats.fallbacks.empty());
  EXPECT_EQ(stats.cache_writes, 1u);
  EXPECT_EQ(repo.GetOrDie("t").col("a").Int64At(0), 42);
  // The rewritten entry carries the fingerprint and is served next time.
  discovery::DataRepository second;
  discovery::LoadStats stats2;
  ASSERT_TRUE(second
                  .LoadDirectory(tree.data_dir.string(),
                                 tree.cache_dir.string(), {}, &stats2)
                  .ok());
  EXPECT_EQ(stats2.cache_hits, 1u);
}

TEST(RepositoryCacheTest, StatsAreServedFromCacheWithoutRecompute) {
  TempTree tree("arda_repo_statshit");
  WriteFile(tree.data_dir / "t.csv", "a,b\n1,x\n2,y\n2,z\n");
  discovery::DataRepository first;
  ASSERT_TRUE(first
                  .LoadDirectory(tree.data_dir.string(),
                                 tree.cache_dir.string(), {}, nullptr)
                  .ok());

  metrics::GlobalRegistry().ResetForTest();
  discovery::DataRepository second;
  discovery::LoadStats stats;
  ASSERT_TRUE(second
                  .LoadDirectory(tree.data_dir.string(),
                                 tree.cache_dir.string(), {}, &stats)
                  .ok());
  ASSERT_EQ(stats.cache_hits, 1u);
  const TableStats* table_stats = second.Stats("t");
  ASSERT_NE(table_stats, nullptr);
  ASSERT_EQ(table_stats->columns.size(), 2u);
  EXPECT_EQ(table_stats->columns[0].row_count, 3u);
  EXPECT_EQ(table_stats->columns[0].non_null_count, 3u);
  EXPECT_TRUE(table_stats->columns[0].has_range);
  EXPECT_EQ(table_stats->columns[0].min, 1.0);
  EXPECT_EQ(table_stats->columns[0].max, 2.0);
  EXPECT_NEAR(table_stats->columns[0].DistinctEstimate(), 2.0, 0.5);
  // A cache hit serves the catalog from the meta block — no per-column
  // stats computation runs.
  EXPECT_EQ(metrics::GlobalRegistry().Snapshot().CounterValue(
                "stats.columns_computed"),
            0u);
  // Unknown tables have no catalog entry.
  EXPECT_EQ(second.Stats("nope"), nullptr);
}

}  // namespace
}  // namespace arda::df
