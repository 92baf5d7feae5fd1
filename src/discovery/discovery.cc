#include "discovery/discovery.h"

#include <algorithm>
#include <memory>
#include <set>

#include "util/string_util.h"

namespace arda::discovery {

double IntersectionScore(const df::Column& base, const df::Column& foreign) {
  std::vector<std::string> base_values = base.DistinctValuesAsString();
  if (base_values.empty()) return 0.0;
  std::vector<std::string> foreign_values = foreign.DistinctValuesAsString();
  std::set<std::string> foreign_set(foreign_values.begin(),
                                    foreign_values.end());
  size_t hits = 0;
  for (const std::string& v : base_values) {
    if (foreign_set.count(v) > 0) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(base_values.size());
}

double SpanOverlap(double b_lo, double b_hi, double f_lo, double f_hi) {
  if (b_hi < f_lo || f_hi < b_lo) return 0.0;  // disjoint
  const double base_span = b_hi - b_lo;
  // Zero-width base: the single base value lies inside (or on the edge
  // of) the foreign range, so the base is fully covered — two columns
  // holding the same single value overlap completely.
  if (base_span <= 0.0) return 1.0;
  const double inter = std::min(b_hi, f_hi) - std::max(b_lo, f_lo);
  return std::clamp(inter / base_span, 0.0, 1.0);
}

double RangeOverlap(const df::Column& base, const df::Column& foreign) {
  if (!base.IsNumeric() || !foreign.IsNumeric()) return 0.0;
  std::vector<double> bv = base.NonNullNumericValues();
  std::vector<double> fv = foreign.NonNullNumericValues();
  if (bv.empty() || fv.empty()) return 0.0;
  auto [b_lo_it, b_hi_it] = std::minmax_element(bv.begin(), bv.end());
  auto [f_lo_it, f_hi_it] = std::minmax_element(fv.begin(), fv.end());
  return SpanOverlap(*b_lo_it, *b_hi_it, *f_lo_it, *f_hi_it);
}

double RangeOverlapFromStats(const df::ColumnStats& base,
                             const df::ColumnStats& foreign) {
  if (!base.has_range || !foreign.has_range) return 0.0;
  return SpanOverlap(base.min, base.max, foreign.min, foreign.max);
}

namespace {

// Hard-key containment scorer for one DiscoverCandidates call. In
// kCatalog mode the base table's statistics are looked up (or computed)
// once per call, the foreign table's once per table.
class HardKeyScorer {
 public:
  HardKeyScorer(const DiscoveryOptions& options, const DataRepository& repo,
                const std::string& base_name, const df::DataFrame& base)
      : repo_(repo), base_(base), scoring_(options.scoring) {
    if (scoring_ == DiscoveryScoring::kCatalog) {
      base_stats_ = repo.Stats(base_name);
      // A base table supplied outside the repository has no catalog
      // entry; score it from a locally computed one.
      if (base_stats_ == nullptr) {
        local_base_stats_ =
            std::make_unique<df::TableStats>(df::ComputeTableStats(base));
        base_stats_ = local_base_stats_.get();
      }
    }
  }

  // Called once per foreign table, before Containment/SoftOverlap.
  void BeginTable(const std::string& table_name,
                  const df::DataFrame& foreign) {
    foreign_ = &foreign;
    if (scoring_ == DiscoveryScoring::kCatalog) {
      foreign_stats_ = repo_.Stats(table_name);
    }
  }

  // Estimated (or exact) containment of base column `bi`'s distinct
  // values in foreign column `fi`'s.
  double Containment(size_t bi, size_t fi) const {
    switch (scoring_) {
      case DiscoveryScoring::kExact:
        return IntersectionScore(base_.col(bi), foreign_->col(fi));
      case DiscoveryScoring::kCatalog:
        if (foreign_stats_ == nullptr) {
          return IntersectionScore(base_.col(bi), foreign_->col(fi));
        }
        return df::EstimateContainment(base_stats_->columns[bi],
                                       foreign_stats_->columns[fi]);
    }
    return 0.0;
  }

  // Numeric range overlap for the soft-key heuristic.
  double SoftOverlap(size_t bi, size_t fi) const {
    if (scoring_ == DiscoveryScoring::kCatalog &&
        foreign_stats_ != nullptr) {
      return RangeOverlapFromStats(base_stats_->columns[bi],
                                   foreign_stats_->columns[fi]);
    }
    return RangeOverlap(base_.col(bi), foreign_->col(fi));
  }

 private:
  const DataRepository& repo_;
  const df::DataFrame& base_;
  const df::DataFrame* foreign_ = nullptr;
  const DiscoveryScoring scoring_;
  // kCatalog state.
  const df::TableStats* base_stats_ = nullptr;
  const df::TableStats* foreign_stats_ = nullptr;
  std::unique_ptr<df::TableStats> local_base_stats_;
};

}  // namespace

std::vector<CandidateJoin> DiscoverCandidates(
    const DataRepository& repo, const std::string& base_name,
    const std::string& target_column, const DiscoveryOptions& options) {
  std::vector<CandidateJoin> candidates;
  Result<const df::DataFrame*> base_result = repo.Get(base_name);
  if (!base_result.ok()) return candidates;
  const df::DataFrame& base = *base_result.value();

  HardKeyScorer scorer(options, repo, base_name, base);
  for (const std::string& table_name : repo.Names()) {
    if (table_name == base_name) continue;
    const df::DataFrame& foreign = repo.GetOrDie(table_name);
    scorer.BeginTable(table_name, foreign);
    CandidateJoin best;
    best.foreign_table = table_name;
    for (size_t bi = 0; bi < base.NumCols(); ++bi) {
      const df::Column& base_col = base.col(bi);
      if (base_col.name() == target_column) continue;
      for (size_t fi = 0; fi < foreign.NumCols(); ++fi) {
        const df::Column& foreign_col = foreign.col(fi);
        if (options.require_name_match &&
            ToLower(base_col.name()) != ToLower(foreign_col.name())) {
          continue;
        }
        if (base_col.type() != foreign_col.type()) continue;
        // Containment hard key? (Exact, or its sketch estimate.)
        double inter = scorer.Containment(bi, fi);
        if (inter >= options.min_intersection && inter >= best.score) {
          best.score = inter;
          best.keys = {JoinKeyPair{base_col.name(), foreign_col.name(),
                                   KeyKind::kHard}};
          continue;
        }
        // Numeric near-alignment soft key (e.g. timestamps at different
        // granularities never match exactly but cover the same range).
        if (base_col.IsNumeric()) {
          double overlap = scorer.SoftOverlap(bi, fi);
          // Soft candidates rank below equally strong hard ones.
          double score = 0.5 * overlap;
          if (overlap >= options.min_range_overlap && score > best.score) {
            best.score = score;
            best.keys = {JoinKeyPair{base_col.name(), foreign_col.name(),
                                     KeyKind::kSoft}};
          }
        }
      }
    }
    if (!best.keys.empty()) {
      candidates.push_back(std::move(best));
    }
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const CandidateJoin& a, const CandidateJoin& b) {
                     return a.score > b.score;
                   });
  return candidates;
}

}  // namespace arda::discovery
