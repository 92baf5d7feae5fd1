#ifndef ARDA_DISCOVERY_REPOSITORY_H_
#define ARDA_DISCOVERY_REPOSITORY_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dataframe/column_stats.h"
#include "dataframe/csv.h"
#include "dataframe/data_frame.h"
#include "util/status.h"

namespace arda::discovery {

/// One table that degraded during directory loading: a corrupt columnar
/// cache that fell back to CSV, or a CSV that failed to parse (skipped).
struct IngestSkip {
  std::string table;
  std::string reason;
};

/// Options for DataRepository::LoadDirectory.
struct LoadOptions {
  /// CSV parsing options used when a table is (re-)parsed from source.
  df::CsvOptions csv;
  /// Serve fresh `.ardac` caches through an mmap (df::MapColumnar)
  /// instead of an eager read: numeric columns borrow the mapping
  /// zero-copy and pages fault in lazily, so resident memory scales with
  /// the columns actually touched — the out-of-core repository mode. A
  /// failed map degrades exactly like a failed eager read (CSV re-parse +
  /// `stats->fallbacks` entry).
  bool map_cache = false;
};

/// What DataRepository::LoadDirectory did, for reporting and tests.
struct LoadStats {
  /// Tables registered in the repository.
  size_t tables_loaded = 0;
  /// Tables served from a fresh `.ardac` cache file (CSV not re-parsed).
  size_t cache_hits = 0;
  /// Cache files written after a CSV parse (cache enabled and missing or
  /// stale).
  size_t cache_writes = 0;
  /// Columnar cache reads that failed and fell back to the CSV. Each entry
  /// has already incremented the `skips.ingest` counter; callers forward
  /// them into the run report (AugmentationTask::ingest_skips) so the
  /// counter/report lockstep holds.
  std::vector<IngestSkip> fallbacks;
  /// CSVs that failed to parse: the table is absent from the repository.
  std::vector<IngestSkip> failures;
};

/// An in-process stand-in for a data lake / open-data repository: a named
/// collection of tables the discovery system searches and ARDA joins
/// against.
///
/// Tables and their statistics are held through shared_ptr, so copying a
/// repository is cheap (it shares the frames, copy-on-write at table
/// granularity): the augmentation service builds each ingest as a copy of
/// the current repository, replaces only the re-loaded tables, and swaps
/// the copy in atomically while in-flight readers keep the old snapshot
/// alive. Mutating one copy never affects another.
///
/// Thread safety: a const DataRepository is safe to read from any number
/// of threads concurrently, including first Stats() calls (memoization is
/// internally synchronized). Mutations (Add/AddOrReplace/Remove/
/// LoadDirectory) require external exclusion — the service only mutates
/// never-published copies.
class DataRepository {
 public:
  DataRepository() = default;
  /// Copies share the underlying frames/statistics (copy-on-write).
  DataRepository(const DataRepository& other);
  DataRepository& operator=(const DataRepository& other);
  /// Moves transfer the maps; the mutex is not moved (each repository
  /// owns its own).
  DataRepository(DataRepository&& other) noexcept;
  DataRepository& operator=(DataRepository&& other) noexcept;

  /// Registers a table under `name`. Fails on duplicate names.
  Status Add(std::string name, df::DataFrame table);

  /// Replaces or inserts a table.
  void AddOrReplace(std::string name, df::DataFrame table);

  bool Has(const std::string& name) const;

  /// Returns the table; fails with NotFound for unknown names.
  Result<const df::DataFrame*> Get(const std::string& name) const;

  /// Returns the table, aborting on unknown names (use after Has).
  const df::DataFrame& GetOrDie(const std::string& name) const;

  /// Removes a table; fails with NotFound if absent.
  Status Remove(const std::string& name);

  /// Loads every `*.csv` in `data_dir` (table name = file stem), in
  /// lexicographic stem order. When `cache_dir` is non-empty it is created
  /// if needed and consulted first: a `<stem>.ardac` file whose recorded
  /// source fingerprint (size + FNV-1a hash of the CSV bytes) matches is
  /// deserialized instead of parsing the CSV (docs/columnar_format.md) and
  /// its persisted statistics catalog is installed; a cache without a
  /// fingerprint is stale whatever its mtime. A missing/stale cache entry
  /// is rewritten after the CSV parse (best-effort), with the fingerprint
  /// and freshly computed stats. Any columnar failure — corruption,
  /// version skew (any version but 3), injected `columnar_read`/
  /// `stats_decode` fault — degrades to the CSV path and is recorded in
  /// `stats->fallbacks` (plus a `skips.ingest` counter increment); a CSV
  /// that fails to read or parse lands in `stats->failures` and the table
  /// is skipped. Only an unreadable `data_dir` fails the call. `stats`
  /// may be null. LoadOptions::map_cache selects the mmap-backed cache
  /// path (out-of-core repository mode).
  Status LoadDirectory(const std::string& data_dir,
                       const std::string& cache_dir,
                       const LoadOptions& options = {},
                       LoadStats* stats = nullptr);

  /// Per-column statistics catalog of a table (docs: DESIGN.md "Discovery
  /// statistics catalog"). Computed lazily on first request and memoized;
  /// LoadDirectory seeds it from cached `.ardac` meta blocks. Returns
  /// nullptr for unknown tables. Safe for concurrent calls (including
  /// racing first calls on the same table): memoization is serialized on
  /// an internal mutex, so concurrent service requests over one shared
  /// snapshot each see the single computed catalog.
  const df::TableStats* Stats(const std::string& name) const;

  /// Installs a precomputed statistics catalog for `name` (e.g. one
  /// deserialized from a cache meta block).
  void SetStats(const std::string& name, df::TableStats stats);

  /// All table names, sorted.
  std::vector<std::string> Names() const;

  size_t size() const { return tables_.size(); }

 private:
  /// Frames are immutable once registered (const through the shared_ptr),
  /// which is what makes sharing them across repository copies sound.
  std::map<std::string, std::shared_ptr<const df::DataFrame>> tables_;
  /// Lazily computed per-table stats; invalidated whenever the table
  /// changes. Mutable + mutex so Stats() can memoize through a const
  /// repository under concurrent readers. The shared_ptr targets are
  /// stable, so pointers handed out by Stats() survive later memoization
  /// of other tables.
  mutable std::mutex stats_mu_;
  mutable std::map<std::string, std::shared_ptr<const df::TableStats>>
      stats_;
};

}  // namespace arda::discovery

#endif  // ARDA_DISCOVERY_REPOSITORY_H_
