#include "discovery/repository.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "dataframe/columnar_io.h"
#include "dataframe/mapped_columnar.h"
#include "util/metrics.h"

namespace arda::discovery {

namespace fs = std::filesystem;

namespace {

// Reads a whole file into a string (the CSV bytes double as parser input
// and as the content fingerprint for cache freshness).
Result<std::string> ReadFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IoError("cannot open file: " + path);
  }
  std::string buffer;
  char block[1 << 16];
  size_t got;
  while ((got = std::fread(block, 1, sizeof(block), f)) > 0) {
    buffer.append(block, got);
  }
  bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    return Status::IoError("failed reading file: " + path);
  }
  return buffer;
}

}  // namespace

Status DataRepository::LoadDirectory(const std::string& data_dir,
                                     const std::string& cache_dir,
                                     const LoadOptions& options,
                                     LoadStats* stats) {
  const df::CsvOptions& csv_options = options.csv;
  LoadStats local_stats;
  if (stats == nullptr) stats = &local_stats;

  std::error_code ec;
  fs::directory_iterator it(data_dir, ec);
  if (ec) {
    return Status::IoError("cannot open directory: " + data_dir);
  }
  std::vector<fs::path> csvs;
  for (const fs::directory_entry& entry : it) {
    if (entry.path().extension() == ".csv") csvs.push_back(entry.path());
  }
  // Directory iteration order is unspecified; sort so load order (and the
  // order of recorded fallbacks/failures) is deterministic.
  std::sort(csvs.begin(), csvs.end());

  if (!cache_dir.empty()) {
    fs::create_directories(cache_dir, ec);  // best-effort; reads degrade
  }

  for (const fs::path& csv_path : csvs) {
    const std::string stem = csv_path.stem().string();
    fs::path cache_path;
    if (!cache_dir.empty()) {
      cache_path = fs::path(cache_dir) / (stem + ".ardac");
    }

    Result<std::string> bytes = ReadFileBytes(csv_path.string());
    if (!bytes.ok()) {
      stats->failures.push_back({stem, bytes.status().ToString()});
      continue;
    }
    const uint64_t source_hash = df::StatsFnv1a64(*bytes);

    std::error_code exists_ec;
    if (!cache_path.empty() && fs::exists(cache_path, exists_ec)) {
      df::ColumnarMeta meta;
      Result<df::DataFrame> cached =
          options.map_cache ? df::MapColumnar(cache_path.string(), &meta)
                            : df::ReadColumnar(cache_path.string(), &meta);
      if (cached.ok()) {
        // Freshness: the recorded source fingerprint must match the CSV
        // bytes on disk. A cache written without a fingerprint is stale,
        // whatever its mtime.
        const bool has_fingerprint =
            meta.source_size != 0 || meta.source_hash != 0;
        const bool fresh = has_fingerprint &&
                           meta.source_size == bytes->size() &&
                           meta.source_hash == source_hash;
        if (fresh) {
          AddOrReplace(stem, std::move(cached).value());
          // Persisted stats ride along with the cache hit; caches written
          // without them leave Stats() to recompute on demand.
          if (!meta.stats.Empty()) SetStats(stem, std::move(meta.stats));
          ++stats->tables_loaded;
          ++stats->cache_hits;
          continue;
        }
        // Stale cache: silently re-parse and rewrite below.
      } else {
        // Graceful degradation: a corrupt/skewed/faulted cache never
        // fails the load — fall through to the CSV. Counter and stats
        // entry move in lockstep so run reports stay consistent (see
        // AugmentationTask::ingest_skips).
        metrics::IncrementCounter("skips.ingest");
        stats->fallbacks.push_back(
            {stem, "columnar cache read failed, re-parsed CSV: " +
                       cached.status().ToString()});
      }
    }

    Result<df::DataFrame> table = df::ReadCsvString(*bytes, csv_options);
    if (!table.ok()) {
      stats->failures.push_back({stem, table.status().ToString()});
      continue;
    }
    df::TableStats table_stats;
    if (!cache_path.empty()) {
      // Best-effort cache refresh; a failed write only costs the next run
      // a re-parse. The meta block records the source fingerprint and the
      // statistics catalog computed once here at ingest.
      df::ColumnarMeta meta;
      meta.source_size = bytes->size();
      meta.source_hash = source_hash;
      meta.stats = df::ComputeTableStats(*table);
      if (df::WriteColumnar(*table, cache_path.string(), &meta).ok()) {
        ++stats->cache_writes;
      }
      table_stats = std::move(meta.stats);
    }
    AddOrReplace(stem, std::move(table).value());
    if (!table_stats.Empty()) SetStats(stem, std::move(table_stats));
    ++stats->tables_loaded;
  }
  return Status::Ok();
}

DataRepository::DataRepository(const DataRepository& other) {
  *this = other;
}

DataRepository& DataRepository::operator=(const DataRepository& other) {
  if (this == &other) return *this;
  tables_ = other.tables_;  // shares the frames (copy-on-write)
  std::scoped_lock lock(stats_mu_, other.stats_mu_);
  stats_ = other.stats_;
  return *this;
}

DataRepository::DataRepository(DataRepository&& other) noexcept {
  *this = std::move(other);
}

DataRepository& DataRepository::operator=(DataRepository&& other) noexcept {
  if (this == &other) return *this;
  tables_ = std::move(other.tables_);
  std::scoped_lock lock(stats_mu_, other.stats_mu_);
  stats_ = std::move(other.stats_);
  return *this;
}

Status DataRepository::Add(std::string name, df::DataFrame table) {
  auto [it, inserted] = tables_.emplace(
      std::move(name),
      std::make_shared<const df::DataFrame>(std::move(table)));
  if (!inserted) {
    return Status::AlreadyExists("table already registered: " + it->first);
  }
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.erase(it->first);
  return Status::Ok();
}

void DataRepository::AddOrReplace(std::string name, df::DataFrame table) {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.erase(name);
  }
  tables_[std::move(name)] =
      std::make_shared<const df::DataFrame>(std::move(table));
}

bool DataRepository::Has(const std::string& name) const {
  return tables_.count(name) > 0;
}

Result<const df::DataFrame*> DataRepository::Get(
    const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no such table: " + name);
  }
  return it->second.get();
}

const df::DataFrame& DataRepository::GetOrDie(const std::string& name) const {
  auto it = tables_.find(name);
  ARDA_CHECK(it != tables_.end());
  return *it->second;
}

Status DataRepository::Remove(const std::string& name) {
  if (tables_.erase(name) == 0) {
    return Status::NotFound("no such table: " + name);
  }
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.erase(name);
  return Status::Ok();
}

const df::TableStats* DataRepository::Stats(const std::string& name) const {
  auto table_it = tables_.find(name);
  if (table_it == tables_.end()) return nullptr;
  // Memoization is serialized: concurrent first calls on one table compute
  // once and every caller sees the same object. Holding the lock across
  // ComputeTableStats trades some concurrency for never computing a
  // catalog twice; stats are computed per table per process lifetime.
  std::lock_guard<std::mutex> lock(stats_mu_);
  auto it = stats_.find(name);
  if (it == stats_.end()) {
    it = stats_
             .emplace(name, std::make_shared<const df::TableStats>(
                                df::ComputeTableStats(*table_it->second)))
             .first;
  }
  return it->second.get();
}

void DataRepository::SetStats(const std::string& name,
                              df::TableStats stats) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_[name] = std::make_shared<const df::TableStats>(std::move(stats));
}

std::vector<std::string> DataRepository::Names() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, table] : tables_) names.push_back(name);
  return names;
}

}  // namespace arda::discovery
