// Out-of-core repository coverage: the mmap-backed `.ardac` v3 reader
// (dataframe/mapped_columnar.h), the borrowed-column lifetime contract,
// the stat-based file sizing, the repository's map_cache mode, and the
// byte-size parser.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "dataframe/column_stats.h"
#include "dataframe/columnar_io.h"
#include "dataframe/csv.h"
#include "dataframe/mapped_columnar.h"
#include "discovery/repository.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace arda::df {
namespace {

namespace fs = std::filesystem;

DataFrame MakeTypedFrame() {
  Column d = Column::Empty("d", DataType::kDouble);
  d.AppendDouble(1.5);
  d.AppendNull();
  d.AppendDouble(-0.0);
  d.AppendDouble(2.25);
  Column i = Column::Empty("i", DataType::kInt64);
  i.AppendInt64(-7);
  i.AppendInt64(41);
  i.AppendNull();
  i.AppendInt64(0);
  Column s = Column::Empty("s", DataType::kString);
  s.AppendString("plain");
  s.AppendString("");
  s.AppendNull();
  s.AppendString("comma, \"quote\"\nnewline");
  DataFrame frame;
  EXPECT_TRUE(frame.AddColumn(std::move(d)).ok());
  EXPECT_TRUE(frame.AddColumn(std::move(i)).ok());
  EXPECT_TRUE(frame.AddColumn(std::move(s)).ok());
  return frame;
}

void WriteFileBytes(const fs::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  ASSERT_TRUE(out.good());
}

// Returns `bytes` with the little-endian u32 version field (offset 4)
// set to `version`.
std::string WithVersion(std::string bytes, uint32_t version) {
  for (int i = 0; i < 4; ++i) {
    bytes[4 + i] = static_cast<char>((version >> (8 * i)) & 0xff);
  }
  return bytes;
}

void ExpectFramesIdentical(const DataFrame& a, const DataFrame& b) {
  // CSV serialization covers names, order, null masks and the repo's
  // deterministic numeric rendering in one comparison.
  EXPECT_EQ(WriteCsvString(a), WriteCsvString(b));
}

// --- MapColumnar: the mmap-backed v3 reader ---

TEST(MappedColumnarTest, MappedReadMatchesEagerRead) {
  DataFrame frame = MakeTypedFrame();
  ColumnarMeta meta;
  meta.source_size = 77;
  meta.source_hash = 0xABCDEF;
  meta.stats = ComputeTableStats(frame);
  const std::string path = testing::TempDir() + "/arda_map_rt.ardac";
  ASSERT_TRUE(WriteColumnar(frame, path, &meta).ok());

  ColumnarMeta eager_meta, mapped_meta;
  Result<DataFrame> eager = ReadColumnar(path, &eager_meta);
  ASSERT_TRUE(eager.ok()) << eager.status().ToString();
  Result<DataFrame> mapped = MapColumnar(path, &mapped_meta);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ExpectFramesIdentical(frame, *eager);
  ExpectFramesIdentical(frame, *mapped);
  EXPECT_EQ(mapped_meta.source_size, 77u);
  EXPECT_EQ(mapped_meta.source_hash, 0xABCDEFu);
  EXPECT_EQ(mapped_meta.stats.columns.size(), frame.NumCols());
  std::remove(path.c_str());
}

TEST(MappedColumnarTest, MappedReadMatchesEagerOnLargeMixedTable) {
  Rng rng(7);
  std::string csv = "id,value,count,city\n";
  static const char* kCities[] = {"boston", "cambridge", "somerville"};
  for (size_t i = 0; i < 20000; ++i) {
    csv += std::to_string(i);
    csv += ',';
    if (rng.UniformUint64(20) != 0) csv += std::to_string(rng.Normal());
    csv += ',';
    if (rng.UniformUint64(20) != 0) {
      csv += std::to_string(rng.UniformUint64(1000));
    }
    csv += ',';
    if (rng.UniformUint64(20) != 0) csv += kCities[rng.UniformUint64(3)];
    csv += '\n';
  }
  Result<DataFrame> parsed = ReadCsvString(csv);
  ASSERT_TRUE(parsed.ok());
  const std::string path = testing::TempDir() + "/arda_map_big.ardac";
  ASSERT_TRUE(WriteColumnar(*parsed, path).ok());
  Result<DataFrame> mapped = MapColumnar(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ExpectFramesIdentical(*parsed, *mapped);
  std::remove(path.c_str());
}

TEST(MappedColumnarTest, EveryTruncationFailsWithStatusNotSigbus) {
  // The v3 safety contract: every extent is validated against the real
  // file size before the first payload access, so a truncated file of
  // ANY length yields a Status — never a SIGBUS on a fault-in past EOF.
  DataFrame frame = MakeTypedFrame();
  ColumnarMeta meta;
  meta.source_size = 42;
  meta.source_hash = 43;
  meta.stats = ComputeTableStats(frame);
  const std::string bytes = WriteColumnarString(frame, &meta);
  const std::string path = testing::TempDir() + "/arda_map_trunc.ardac";
  for (size_t len = 0; len < bytes.size(); ++len) {
    WriteFileBytes(path, bytes.substr(0, len));
    EXPECT_FALSE(MapColumnar(path).ok()) << "prefix length " << len;
  }
  std::remove(path.c_str());
}

TEST(MappedColumnarTest, RejectsCorruptIndex) {
  DataFrame frame = MakeTypedFrame();
  std::string bytes = WriteColumnarString(frame);
  const std::string path = testing::TempDir() + "/arda_map_corrupt.ardac";
  bytes[50] ^= 0x01;  // inside the column index: name bytes
  WriteFileBytes(path, bytes);
  Result<DataFrame> mapped = MapColumnar(path);
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(mapped.status().message().find("checksum"), std::string::npos);
  // Version skew, including the retired versions 1 and 2, fails the
  // mapped and the eager reader alike.
  for (uint32_t version : {1u, 2u, 99u}) {
    WriteFileBytes(path, WithVersion(WriteColumnarString(frame), version));
    const Result<DataFrame> mapped_skew = MapColumnar(path);
    const Result<DataFrame> eager_skew = ReadColumnar(path);
    for (const Result<DataFrame>* r : {&mapped_skew, &eager_skew}) {
      ASSERT_FALSE(r->ok()) << "version " << version;
      EXPECT_EQ(r->status().code(), StatusCode::kFailedPrecondition);
      EXPECT_NE(r->status().message().find("version"), std::string::npos);
    }
  }
  std::remove(path.c_str());
}

TEST(MappedColumnarTest, MissingFileFails) {
  EXPECT_FALSE(MapColumnar("/nonexistent/arda.ardac").ok());
}

TEST(MappedColumnarTest, BorrowedColumnsMaterializeOnMutation) {
  // Columns of a mapped frame borrow validity/data straight out of the
  // mapping; any mutation must first copy them into owned storage (and
  // keep reads consistent), never write through the mapping.
  DataFrame frame = MakeTypedFrame();
  const std::string path = testing::TempDir() + "/arda_map_mut.ardac";
  ASSERT_TRUE(WriteColumnar(frame, path).ok());
  Result<DataFrame> mapped = MapColumnar(path);
  ASSERT_TRUE(mapped.ok());

  Column d = mapped->col("d");  // copy shares the borrow
  d.AppendDouble(9.75);
  ASSERT_EQ(d.size(), 5u);
  EXPECT_EQ(d.DoubleAt(0), 1.5);
  EXPECT_TRUE(d.IsNull(1));
  EXPECT_EQ(d.DoubleAt(4), 9.75);
  Column i = mapped->col("i");
  i.AppendNull();
  ASSERT_EQ(i.size(), 5u);
  EXPECT_EQ(i.Int64At(1), 41);
  EXPECT_TRUE(i.IsNull(4));
  // The mapped frame itself is untouched by the materialized copies.
  ExpectFramesIdentical(frame, *mapped);
  std::remove(path.c_str());
}

TEST(MappedColumnarTest, RewriteKeepsLiveMappingIntact) {
  // WriteColumnar lands in a temp file and rename()s into place: a live
  // mapping of the previous cache generation keeps its old inode, so the
  // COW snapshot contract ("never unmap a table mid-request") holds even
  // while ingest rewrites the same path.
  DataFrame old_frame = MakeTypedFrame();
  const std::string path = testing::TempDir() + "/arda_map_rename.ardac";
  ASSERT_TRUE(WriteColumnar(old_frame, path).ok());
  Result<DataFrame> mapped_old = MapColumnar(path);
  ASSERT_TRUE(mapped_old.ok());

  DataFrame new_frame;
  ASSERT_TRUE(
      new_frame.AddColumn(Column::Int64("z", {5, 6, 7})).ok());
  ASSERT_TRUE(WriteColumnar(new_frame, path).ok());

  // The old mapping still serves the old bytes; a fresh map sees the new.
  ExpectFramesIdentical(old_frame, *mapped_old);
  Result<DataFrame> mapped_new = MapColumnar(path);
  ASSERT_TRUE(mapped_new.ok());
  ExpectFramesIdentical(new_frame, *mapped_new);
  std::remove(path.c_str());
}

// --- FileSizeBytes: the stat-based 64-bit size probe ---

TEST(FileSizeBytesTest, ReportsExactSizeAndExplicitErrors) {
  const std::string path = testing::TempDir() + "/arda_fsize.bin";
  WriteFileBytes(path, std::string(12345, 'x'));
  Result<uint64_t> size = FileSizeBytes(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 12345u);
  std::remove(path.c_str());
  Result<uint64_t> missing = FileSizeBytes(path);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kIoError);
}

TEST(FileSizeBytesTest, SizesPastTwoGiBAreNotTruncated) {
  // The old fseek+ftell probe returned a `long`, which wraps past 2 GiB
  // on ILP32 and turned huge caches into a silent zero-byte reserve. A
  // sparse file checks the 64-bit path without touching 2 GiB of disk.
  const std::string path = testing::TempDir() + "/arda_fsize_sparse.bin";
  const uint64_t want = (uint64_t{1} << 31) + 8;
  {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good());
  }
  std::error_code ec;
  fs::resize_file(path, want, ec);
  if (ec) GTEST_SKIP() << "filesystem rejects sparse files: "
                       << ec.message();
  Result<uint64_t> size = FileSizeBytes(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, want);
  std::remove(path.c_str());
}

// --- DataRepository map_cache mode ---

struct TempTree {
  fs::path data_dir;
  fs::path cache_dir;
  explicit TempTree(const char* tag) {
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

TEST(RepositoryMapCacheTest, MappedLoadServesIdenticalTables) {
  TempTree tree("arda_oocore_repo");
  WriteFileBytes(tree.data_dir / "t.csv", "a,b,c\n1,2.5,x\n2,,y\n3,7.5,\n");
  WriteFileBytes(tree.data_dir / "u.csv", "k,v\n10,0.5\n20,0.25\n");

  discovery::DataRepository eager;
  discovery::LoadStats warm_stats;
  ASSERT_TRUE(eager
                  .LoadDirectory(tree.data_dir.string(),
                                 tree.cache_dir.string(), {}, &warm_stats)
                  .ok());
  EXPECT_EQ(warm_stats.cache_writes, 2u);

  discovery::DataRepository mapped;
  discovery::LoadOptions options;
  options.map_cache = true;
  discovery::LoadStats stats;
  ASSERT_TRUE(mapped
                  .LoadDirectory(tree.data_dir.string(),
                                 tree.cache_dir.string(), options, &stats)
                  .ok());
  EXPECT_EQ(stats.tables_loaded, 2u);
  EXPECT_EQ(stats.cache_hits, 2u);
  EXPECT_TRUE(stats.fallbacks.empty());
  ExpectFramesIdentical(eager.GetOrDie("t"), mapped.GetOrDie("t"));
  ExpectFramesIdentical(eager.GetOrDie("u"), mapped.GetOrDie("u"));
  // The persisted stats catalog rides along with the mapped hit too.
  EXPECT_NE(mapped.Stats("t"), nullptr);
}

TEST(RepositoryMapCacheTest, CorruptCacheDegradesToCsv) {
  TempTree tree("arda_oocore_corrupt");
  WriteFileBytes(tree.data_dir / "t.csv", "a\n1\n2\n");
  const fs::path cache = tree.cache_dir / "t.ardac";
  discovery::DataRepository warm;
  ASSERT_TRUE(warm
                  .LoadDirectory(tree.data_dir.string(),
                                 tree.cache_dir.string(), {}, nullptr)
                  .ok());
  std::string valid_bytes;
  {
    std::ifstream in(cache, std::ios::binary);
    valid_bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  // An in-place corruption (same size, bad index byte), and a cache
  // whose fingerprint matches but whose version field is the retired
  // version 1: neither is mmap-able, and both take the same path.
  std::string corrupt = valid_bytes;
  corrupt[52] = '\xff';
  discovery::LoadOptions options;
  options.map_cache = true;
  for (const std::string& bad : {corrupt, WithVersion(valid_bytes, 1)}) {
    WriteFileBytes(cache, bad);
    metrics::GlobalRegistry().ResetForTest();
    discovery::DataRepository repo;
    discovery::LoadStats stats;
    ASSERT_TRUE(repo
                    .LoadDirectory(tree.data_dir.string(),
                                   tree.cache_dir.string(), options, &stats)
                    .ok());
    EXPECT_TRUE(repo.Has("t"));
    EXPECT_EQ(stats.cache_hits, 0u);
    ASSERT_EQ(stats.fallbacks.size(), 1u);
    EXPECT_EQ(metrics::GlobalRegistry().Snapshot().CounterValue(
                  "skips.ingest"),
              1u);
    EXPECT_EQ(repo.GetOrDie("t").col("a").Int64At(1), 2);
    // The cache was rewritten at v3, and the next mapped load is made
    // only of cache hits.
    EXPECT_EQ(stats.cache_writes, 1u);
    EXPECT_TRUE(MapColumnar(cache.string()).ok());
    discovery::DataRepository again;
    discovery::LoadStats stats2;
    ASSERT_TRUE(again
                    .LoadDirectory(tree.data_dir.string(),
                                   tree.cache_dir.string(), options, &stats2)
                    .ok());
    EXPECT_EQ(stats2.cache_hits, 1u);
    EXPECT_TRUE(stats2.fallbacks.empty());
    EXPECT_EQ(stats2.cache_writes, 0u);
  }
}

// --- ParseByteSize: the bench_kernels --oocore-budget spelling ---

TEST(ParseByteSizeTest, ParsesSuffixesAndRejectsGarbage) {
  uint64_t out = 0;
  EXPECT_TRUE(ParseByteSize("0", &out));
  EXPECT_EQ(out, 0u);
  EXPECT_TRUE(ParseByteSize("12345", &out));
  EXPECT_EQ(out, 12345u);
  EXPECT_TRUE(ParseByteSize("64k", &out));
  EXPECT_EQ(out, 64u << 10);
  EXPECT_TRUE(ParseByteSize("3M", &out));
  EXPECT_EQ(out, uint64_t{3} << 20);
  EXPECT_TRUE(ParseByteSize("2g", &out));
  EXPECT_EQ(out, uint64_t{2} << 30);
  EXPECT_TRUE(ParseByteSize(" 8m ", &out));
  EXPECT_EQ(out, uint64_t{8} << 20);
  EXPECT_FALSE(ParseByteSize("", &out));
  EXPECT_FALSE(ParseByteSize("k", &out));
  EXPECT_FALSE(ParseByteSize("-1", &out));
  EXPECT_FALSE(ParseByteSize("1.5g", &out));
  EXPECT_FALSE(ParseByteSize("10q", &out));
  EXPECT_FALSE(ParseByteSize("64kb", &out));
  EXPECT_FALSE(ParseByteSize("99999999999999999999g", &out));
}

}  // namespace
}  // namespace arda::df
