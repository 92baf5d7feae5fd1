#ifndef ARDA_DISCOVERY_DISCOVERY_H_
#define ARDA_DISCOVERY_DISCOVERY_H_

#include <string>
#include <vector>

#include "dataframe/column_stats.h"
#include "dataframe/data_frame.h"
#include "discovery/candidate.h"
#include "discovery/repository.h"

namespace arda::discovery {

/// How DiscoverCandidates scores hard-key value overlap.
enum class DiscoveryScoring {
  /// Exact containment by rescanning both columns' distinct values —
  /// O(values) per column pair, the reference scorer.
  kExact,
  /// The repository's persisted statistics catalog
  /// (DataRepository::Stats): sketch containment for hard keys, stored
  /// min/max for range overlap. No column rescans at all — the default.
  kCatalog,
};

/// Options for the simulated join-discovery heuristics.
struct DiscoveryOptions {
  /// Minimum containment score for a hard-key candidate.
  double min_intersection = 0.05;
  /// Numeric columns whose value ranges overlap by at least this fraction
  /// and whose names match become soft-key candidates.
  double min_range_overlap = 0.3;
  /// Column-name pairs must match exactly (case-insensitive) when true;
  /// otherwise any type-compatible pair with enough value overlap joins.
  bool require_name_match = true;
  /// Hard-key scoring backend (see DiscoveryScoring).
  DiscoveryScoring scoring = DiscoveryScoring::kCatalog;
};

/// Fraction of the base column's distinct values that also appear in the
/// foreign column — the paper's "intersection-score" used to rank
/// candidate joins when the discovery system provides no score.
double IntersectionScore(const df::Column& base, const df::Column& foreign);

/// Fractional overlap of [b_lo, b_hi] with [f_lo, f_hi], measured as the
/// covered share of the base span. Zero-width ranges use containment
/// semantics: a point base inside (or equal to) the foreign range is
/// fully covered (1.0), while a point foreign strictly inside a wider
/// base range covers none of it (0.0).
double SpanOverlap(double b_lo, double b_hi, double f_lo, double f_hi);

/// Fractional overlap of the numeric value ranges of two columns
/// (0 when disjoint, 1 when the base range is fully covered; zero-width
/// ranges per SpanOverlap).
double RangeOverlap(const df::Column& base, const df::Column& foreign);

/// RangeOverlap computed from catalog entries instead of column scans.
/// 0 when either side has no numeric range.
double RangeOverlapFromStats(const df::ColumnStats& base,
                             const df::ColumnStats& foreign);

/// Simulated Aurum/Auctus: scans every repository table (except
/// `base_name`) for columns joinable with base-table columns and returns
/// scored candidates, hard keys for value containment and soft keys for
/// numeric near-alignment. `target_column` is never proposed as a key.
/// Results are sorted by descending score. The default kCatalog scoring
/// reads the repository's statistics catalog (computing it on demand)
/// instead of rescanning column values.
std::vector<CandidateJoin> DiscoverCandidates(
    const DataRepository& repo, const std::string& base_name,
    const std::string& target_column, const DiscoveryOptions& options = {});

}  // namespace arda::discovery

#endif  // ARDA_DISCOVERY_DISCOVERY_H_
