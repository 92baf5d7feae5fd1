#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "data/generators.h"
#include "dataframe/column_stats.h"
#include "discovery/discovery.h"
#include "discovery/repository.h"
#include "discovery/tuple_ratio.h"

namespace arda::discovery {
namespace {

df::DataFrame MakeBase() {
  df::DataFrame base;
  EXPECT_TRUE(
      base.AddColumn(df::Column::Int64("id", {1, 2, 3, 4})).ok());
  EXPECT_TRUE(base.AddColumn(df::Column::Double("t", {0.0, 1.0, 2.0, 3.0}))
                  .ok());
  EXPECT_TRUE(
      base.AddColumn(df::Column::Double("y", {1.0, 2.0, 3.0, 4.0})).ok());
  return base;
}

TEST(RepositoryTest, AddGetRemove) {
  DataRepository repo;
  EXPECT_TRUE(repo.Add("t1", MakeBase()).ok());
  EXPECT_EQ(repo.Add("t1", MakeBase()).code(), StatusCode::kAlreadyExists);
  EXPECT_TRUE(repo.Has("t1"));
  EXPECT_FALSE(repo.Has("t2"));
  ASSERT_TRUE(repo.Get("t1").ok());
  EXPECT_EQ(repo.Get("t1").value()->NumRows(), 4u);
  EXPECT_FALSE(repo.Get("t2").ok());
  EXPECT_EQ(repo.size(), 1u);
  EXPECT_TRUE(repo.Remove("t1").ok());
  EXPECT_FALSE(repo.Remove("t1").ok());
}

TEST(RepositoryTest, NamesSorted) {
  DataRepository repo;
  ASSERT_TRUE(repo.Add("b", MakeBase()).ok());
  ASSERT_TRUE(repo.Add("a", MakeBase()).ok());
  EXPECT_EQ(repo.Names(), (std::vector<std::string>{"a", "b"}));
}

TEST(RepositoryTest, AddOrReplace) {
  DataRepository repo;
  repo.AddOrReplace("t", MakeBase());
  df::DataFrame small;
  ASSERT_TRUE(small.AddColumn(df::Column::Int64("id", {9})).ok());
  repo.AddOrReplace("t", std::move(small));
  EXPECT_EQ(repo.GetOrDie("t").NumRows(), 1u);
}

TEST(IntersectionScoreTest, CountsOverlapFraction) {
  df::Column base = df::Column::Int64("id", {1, 2, 3, 4});
  df::Column full = df::Column::Int64("id", {1, 2, 3, 4, 5});
  df::Column half = df::Column::Int64("id", {1, 2, 99, 98});
  df::Column none = df::Column::Int64("id", {7, 8});
  EXPECT_DOUBLE_EQ(IntersectionScore(base, full), 1.0);
  EXPECT_DOUBLE_EQ(IntersectionScore(base, half), 0.5);
  EXPECT_DOUBLE_EQ(IntersectionScore(base, none), 0.0);
}

TEST(RangeOverlapTest, NumericRanges) {
  df::Column base = df::Column::Double("t", {0.0, 10.0});
  df::Column inside = df::Column::Double("t", {2.0, 8.0});
  df::Column disjoint = df::Column::Double("t", {20.0, 30.0});
  EXPECT_NEAR(RangeOverlap(base, inside), 0.6, 1e-12);
  EXPECT_DOUBLE_EQ(RangeOverlap(base, disjoint), 0.0);
}

TEST(RangeOverlapTest, ZeroWidthRangesUseContainment) {
  // Regression: two columns holding the same single value used to score
  // 0.0 (zero-width intersection) instead of 1.0.
  df::Column point = df::Column::Double("t", {5.0, 5.0});
  df::Column same_point = df::Column::Double("t", {5.0});
  EXPECT_DOUBLE_EQ(RangeOverlap(point, same_point), 1.0);
  // Point base inside a wider foreign range: fully covered.
  df::Column wide = df::Column::Double("t", {0.0, 10.0});
  EXPECT_DOUBLE_EQ(RangeOverlap(point, wide), 1.0);
  // Point base on the edge of the foreign range: still covered.
  df::Column edge = df::Column::Double("t", {5.0, 10.0});
  EXPECT_DOUBLE_EQ(RangeOverlap(point, edge), 1.0);
  // Point base outside the foreign range: disjoint.
  df::Column far = df::Column::Double("t", {6.0, 10.0});
  EXPECT_DOUBLE_EQ(RangeOverlap(point, far), 0.0);
  // Point foreign strictly inside a wider base range covers none of it.
  EXPECT_DOUBLE_EQ(RangeOverlap(wide, point), 0.0);
}

TEST(RangeOverlapTest, StatsBackedOverlapMatchesColumnScan) {
  df::Column base = df::Column::Double("t", {0.0, 10.0});
  df::Column inside = df::Column::Double("t", {2.0, 8.0});
  df::ColumnStats base_stats = df::ComputeColumnStats(base);
  df::ColumnStats inside_stats = df::ComputeColumnStats(inside);
  EXPECT_DOUBLE_EQ(RangeOverlapFromStats(base_stats, inside_stats),
                   RangeOverlap(base, inside));
  df::ColumnStats empty_stats =
      df::ComputeColumnStats(df::Column::String("s", {"a"}));
  EXPECT_DOUBLE_EQ(RangeOverlapFromStats(base_stats, empty_stats), 0.0);
}

TEST(DiscoverCandidatesTest, FindsHardKeyByNameAndOverlap) {
  DataRepository repo;
  ASSERT_TRUE(repo.Add("base", MakeBase()).ok());
  df::DataFrame foreign;
  ASSERT_TRUE(foreign.AddColumn(df::Column::Int64("id", {1, 2, 3})).ok());
  ASSERT_TRUE(
      foreign.AddColumn(df::Column::Double("extra", {5.0, 6.0, 7.0})).ok());
  ASSERT_TRUE(repo.Add("lookup", std::move(foreign)).ok());

  // Default (catalog) scoring estimates containment from sketches, so the
  // score is pinned only within the estimation tolerance.
  std::vector<CandidateJoin> candidates =
      DiscoverCandidates(repo, "base", "y");
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0].foreign_table, "lookup");
  ASSERT_EQ(candidates[0].keys.size(), 1u);
  EXPECT_EQ(candidates[0].keys[0].base_column, "id");
  EXPECT_EQ(candidates[0].keys[0].kind, KeyKind::kHard);
  EXPECT_NEAR(candidates[0].score, 0.75, 0.15);

  // Exact scoring reproduces the containment 3/4 bit-exactly.
  DiscoveryOptions exact;
  exact.scoring = DiscoveryScoring::kExact;
  std::vector<CandidateJoin> exact_candidates =
      DiscoverCandidates(repo, "base", "y", exact);
  ASSERT_EQ(exact_candidates.size(), 1u);
  EXPECT_NEAR(exact_candidates[0].score, 0.75, 1e-12);
}

TEST(DiscoverCandidatesTest, ProposesSoftKeyForMisalignedNumerics) {
  DataRepository repo;
  ASSERT_TRUE(repo.Add("base", MakeBase()).ok());
  df::DataFrame foreign;
  // Same range as base "t" but offset values -> no exact matches.
  ASSERT_TRUE(
      foreign.AddColumn(df::Column::Double("t", {0.5, 1.5, 2.5})).ok());
  ASSERT_TRUE(
      foreign.AddColumn(df::Column::Double("w", {1.0, 1.0, 1.0})).ok());
  ASSERT_TRUE(repo.Add("series", std::move(foreign)).ok());

  std::vector<CandidateJoin> candidates =
      DiscoverCandidates(repo, "base", "y");
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0].keys[0].kind, KeyKind::kSoft);
  EXPECT_EQ(candidates[0].keys[0].base_column, "t");
}

TEST(DiscoverCandidatesTest, TargetColumnNeverAKey) {
  DataRepository repo;
  ASSERT_TRUE(repo.Add("base", MakeBase()).ok());
  df::DataFrame foreign;
  ASSERT_TRUE(
      foreign.AddColumn(df::Column::Double("y", {1.0, 2.0, 3.0})).ok());
  ASSERT_TRUE(repo.Add("leak", std::move(foreign)).ok());
  EXPECT_TRUE(DiscoverCandidates(repo, "base", "y").empty());
}

TEST(DiscoverCandidatesTest, SortedByScoreDescending) {
  DataRepository repo;
  ASSERT_TRUE(repo.Add("base", MakeBase()).ok());
  df::DataFrame strong;
  ASSERT_TRUE(strong.AddColumn(df::Column::Int64("id", {1, 2, 3, 4})).ok());
  ASSERT_TRUE(repo.Add("strong", std::move(strong)).ok());
  df::DataFrame weak;
  ASSERT_TRUE(weak.AddColumn(df::Column::Int64("id", {1, 90, 91, 92})).ok());
  ASSERT_TRUE(repo.Add("weak", std::move(weak)).ok());
  std::vector<CandidateJoin> candidates =
      DiscoverCandidates(repo, "base", "y");
  ASSERT_EQ(candidates.size(), 2u);
  EXPECT_EQ(candidates[0].foreign_table, "strong");
  EXPECT_GT(candidates[0].score, candidates[1].score);
}

TEST(TupleRatioTest, ComputesDomainRatio) {
  df::DataFrame base = MakeBase();  // 4 rows
  df::DataFrame foreign;
  ASSERT_TRUE(foreign.AddColumn(df::Column::Int64("id", {1, 1, 2})).ok());
  CandidateJoin cand;
  cand.foreign_table = "f";
  cand.keys = {JoinKeyPair{"id", "id", KeyKind::kHard}};
  // nS = 4, nR = 2 distinct keys.
  Result<double> ratio = TupleRatio(base, foreign, cand);
  ASSERT_TRUE(ratio.ok());
  EXPECT_DOUBLE_EQ(*ratio, 2.0);
}

TEST(TupleRatioTest, MissingForeignColumnIsNotFound) {
  df::DataFrame base = MakeBase();
  df::DataFrame foreign;
  ASSERT_TRUE(foreign.AddColumn(df::Column::Int64("other", {1, 2})).ok());
  CandidateJoin cand;
  cand.foreign_table = "f";
  cand.keys = {JoinKeyPair{"id", "id", KeyKind::kHard}};
  // A broken reference must surface as an error, not masquerade as the
  // degenerate ratio nS (which would read as "legitimately too large").
  Result<double> ratio = TupleRatio(base, foreign, cand);
  ASSERT_FALSE(ratio.ok());
  EXPECT_EQ(ratio.status().code(), StatusCode::kNotFound);
}

TEST(TupleRatioFilterTest, SplitsKeptAndRemoved) {
  DataRepository repo;
  df::DataFrame base = MakeBase();
  // Rich table: 4 distinct keys -> ratio 1.
  df::DataFrame rich;
  ASSERT_TRUE(rich.AddColumn(df::Column::Int64("id", {1, 2, 3, 4})).ok());
  ASSERT_TRUE(repo.Add("rich", std::move(rich)).ok());
  // Tiny domain: 1 distinct key -> ratio 4.
  df::DataFrame tiny;
  ASSERT_TRUE(tiny.AddColumn(df::Column::Int64("id", {1, 1})).ok());
  ASSERT_TRUE(repo.Add("tiny", std::move(tiny)).ok());

  std::vector<CandidateJoin> candidates(2);
  candidates[0].foreign_table = "rich";
  candidates[0].keys = {JoinKeyPair{"id", "id", KeyKind::kHard}};
  candidates[1].foreign_table = "tiny";
  candidates[1].keys = {JoinKeyPair{"id", "id", KeyKind::kHard}};

  TupleRatioFilterResult result =
      FilterByTupleRatio(repo, base, candidates, /*tau=*/2.0);
  ASSERT_EQ(result.kept.size(), 1u);
  EXPECT_EQ(result.kept[0].foreign_table, "rich");
  ASSERT_EQ(result.removed.size(), 1u);
  EXPECT_EQ(result.removed[0].candidate.foreign_table, "tiny");
  EXPECT_FALSE(result.removed[0].broken_reference);
  EXPECT_NE(result.removed[0].reason.find("tuple ratio"),
            std::string::npos);
}

TEST(TupleRatioFilterTest, MissingTableRemoved) {
  DataRepository repo;
  std::vector<CandidateJoin> candidates(1);
  candidates[0].foreign_table = "ghost";
  TupleRatioFilterResult result =
      FilterByTupleRatio(repo, MakeBase(), candidates, 100.0);
  EXPECT_TRUE(result.kept.empty());
  ASSERT_EQ(result.removed.size(), 1u);
  EXPECT_TRUE(result.removed[0].broken_reference);
}

TEST(TupleRatioFilterTest, MissingKeyColumnIsBrokenReference) {
  DataRepository repo;
  df::DataFrame foreign;
  ASSERT_TRUE(foreign.AddColumn(df::Column::Int64("other", {1, 2})).ok());
  ASSERT_TRUE(repo.Add("f", std::move(foreign)).ok());
  std::vector<CandidateJoin> candidates(1);
  candidates[0].foreign_table = "f";
  candidates[0].keys = {JoinKeyPair{"id", "id", KeyKind::kHard}};
  TupleRatioFilterResult result =
      FilterByTupleRatio(repo, MakeBase(), candidates, 100.0);
  EXPECT_TRUE(result.kept.empty());
  ASSERT_EQ(result.removed.size(), 1u);
  EXPECT_TRUE(result.removed[0].broken_reference);
  EXPECT_NE(result.removed[0].reason.find("no key column"),
            std::string::npos);
}

TEST(ColumnStatsTest, DistinctEstimateTracksTrueCardinality) {
  for (size_t n : {1u, 10u, 100u, 5000u}) {
    std::vector<int64_t> values;
    values.reserve(2 * n);
    for (size_t i = 0; i < n; ++i) {
      values.push_back(static_cast<int64_t>(i));
      values.push_back(static_cast<int64_t>(i));  // duplicates don't count
    }
    df::ColumnStats stats =
        df::ComputeColumnStats(df::Column::Int64("k", values));
    EXPECT_EQ(stats.row_count, 2 * n);
    EXPECT_EQ(stats.non_null_count, 2 * n);
    // HLL with 4096 registers: ~1.6% standard error; allow 10%.
    EXPECT_NEAR(stats.DistinctEstimate(), static_cast<double>(n),
                std::max(1.0, 0.10 * static_cast<double>(n)))
        << "n=" << n;
  }
}

TEST(ColumnStatsTest, NullsAreExcludedFromEverything) {
  df::Column col = df::Column::Empty("v", df::DataType::kDouble);
  col.AppendDouble(3.0);
  col.AppendNull();
  col.AppendDouble(7.0);
  df::ColumnStats stats = df::ComputeColumnStats(col);
  EXPECT_EQ(stats.row_count, 3u);
  EXPECT_EQ(stats.non_null_count, 2u);
  ASSERT_TRUE(stats.has_range);
  EXPECT_EQ(stats.min, 3.0);
  EXPECT_EQ(stats.max, 7.0);
  EXPECT_NEAR(stats.DistinctEstimate(), 2.0, 0.5);
}

TEST(ColumnStatsTest, ContainmentEstimateForSubsetColumns) {
  // base ⊂ foreign with |foreign| ≫ |base|: containment must approach
  // 1.0 (Jaccard alone would approach |base|/|foreign| ≈ 0.05 — the
  // semantics bug this estimator replaces).
  std::vector<int64_t> small, big;
  for (int64_t i = 0; i < 50; ++i) small.push_back(i);
  for (int64_t i = 0; i < 1000; ++i) big.push_back(i);
  df::ColumnStats small_stats =
      df::ComputeColumnStats(df::Column::Int64("k", small));
  df::ColumnStats big_stats =
      df::ComputeColumnStats(df::Column::Int64("k", big));
  EXPECT_GT(df::EstimateContainment(small_stats, big_stats), 0.8);
  // The reverse direction is genuinely small.
  EXPECT_LT(df::EstimateContainment(big_stats, small_stats), 0.3);
  // Disjoint domains: no containment either way.
  std::vector<int64_t> other;
  for (int64_t i = 5000; i < 5050; ++i) other.push_back(i);
  df::ColumnStats other_stats =
      df::ComputeColumnStats(df::Column::Int64("k", other));
  EXPECT_LT(df::EstimateContainment(small_stats, other_stats), 0.2);
}

TEST(DiscoverCandidatesTest, SubsetKeyFoundByEveryScoringMode) {
  // End-to-end form of the containment-semantics fix: the base keys are a
  // strict subset of a large foreign key domain, so every scoring mode
  // must surface the hard key with a near-1.0 score.
  DataRepository repo;
  df::DataFrame base;
  std::vector<int64_t> ids;
  for (int64_t i = 0; i < 30; ++i) ids.push_back(i * 3);
  ASSERT_TRUE(base.AddColumn(df::Column::Int64("id", ids)).ok());
  std::vector<double> y(ids.begin(), ids.end());
  ASSERT_TRUE(base.AddColumn(df::Column::Double("y", y)).ok());
  ASSERT_TRUE(repo.Add("base", std::move(base)).ok());

  df::DataFrame dim;
  std::vector<int64_t> all_ids;
  for (int64_t i = 0; i < 900; ++i) all_ids.push_back(i);
  ASSERT_TRUE(dim.AddColumn(df::Column::Int64("id", all_ids)).ok());
  ASSERT_TRUE(repo.Add("dim", std::move(dim)).ok());

  // Exact containment is 1.0; the catalog's HLL inclusion-exclusion
  // estimate stays within a few percent — raw Jaccard here would be
  // 30/900 ≈ 0.03.
  struct ModeBar {
    DiscoveryScoring scoring;
    double min_score;
  };
  for (ModeBar mode : {ModeBar{DiscoveryScoring::kExact, 0.99},
                       ModeBar{DiscoveryScoring::kCatalog, 0.9}}) {
    DiscoveryOptions options;
    options.scoring = mode.scoring;
    std::vector<CandidateJoin> candidates =
        DiscoverCandidates(repo, "base", "y", options);
    ASSERT_EQ(candidates.size(), 1u)
        << "scoring=" << static_cast<int>(mode.scoring);
    EXPECT_EQ(candidates[0].keys[0].kind, KeyKind::kHard);
    EXPECT_GT(candidates[0].score, mode.min_score)
        << "scoring=" << static_cast<int>(mode.scoring);
  }
}

TEST(DiscoverCandidatesTest, EmptyForeignTableYieldsNoCandidate) {
  DataRepository repo;
  ASSERT_TRUE(repo.Add("base", MakeBase()).ok());
  df::DataFrame empty;
  ASSERT_TRUE(empty.AddColumn(df::Column::Int64("id", {})).ok());
  ASSERT_TRUE(repo.Add("empty", std::move(empty)).ok());
  for (DiscoveryScoring scoring :
       {DiscoveryScoring::kExact, DiscoveryScoring::kCatalog}) {
    DiscoveryOptions options;
    options.scoring = scoring;
    EXPECT_TRUE(DiscoverCandidates(repo, "base", "y", options).empty())
        << "scoring=" << static_cast<int>(scoring);
  }
}

TEST(DiscoverCandidatesTest, AllNullKeyColumnYieldsNoCandidate) {
  DataRepository repo;
  ASSERT_TRUE(repo.Add("base", MakeBase()).ok());
  df::DataFrame nulls;
  df::Column id = df::Column::Empty("id", df::DataType::kInt64);
  for (int i = 0; i < 4; ++i) id.AppendNull();
  ASSERT_TRUE(nulls.AddColumn(std::move(id)).ok());
  ASSERT_TRUE(repo.Add("nulls", std::move(nulls)).ok());
  for (DiscoveryScoring scoring :
       {DiscoveryScoring::kExact, DiscoveryScoring::kCatalog}) {
    DiscoveryOptions options;
    options.scoring = scoring;
    EXPECT_TRUE(DiscoverCandidates(repo, "base", "y", options).empty())
        << "scoring=" << static_cast<int>(scoring);
  }
}

TEST(DiscoverCandidatesTest, CatalogRankingMatchesExactOnScenarioPools) {
  // Golden ranking fixture: across every synthetic scenario pool the
  // sketch-backed catalog scorer must propose the same candidate tables
  // with the same join keys as the exact rescan. Scores are estimates
  // (pinned to ±0.15, the documented sketch tolerance at 128 hashes), so
  // strict ordering is only asserted between candidates whose exact
  // scores are separated by more than twice that tolerance.
  std::vector<data::Scenario> scenarios =
      data::MakeAllScenarios(/*seed=*/7, data::ScenarioScale::kSmall);
  ASSERT_FALSE(scenarios.empty());
  for (const data::Scenario& scenario : scenarios) {
    DiscoveryOptions exact_options;
    exact_options.scoring = DiscoveryScoring::kExact;
    std::vector<CandidateJoin> exact = DiscoverCandidates(
        scenario.repo, scenario.name, scenario.target_column, exact_options);
    std::vector<CandidateJoin> catalog = DiscoverCandidates(
        scenario.repo, scenario.name, scenario.target_column);
    ASSERT_EQ(catalog.size(), exact.size()) << scenario.name;

    auto find_in_exact =
        [&](const std::string& table) -> const CandidateJoin* {
      for (const CandidateJoin& c : exact) {
        if (c.foreign_table == table) return &c;
      }
      return nullptr;
    };
    for (const CandidateJoin& c : catalog) {
      const CandidateJoin* e = find_in_exact(c.foreign_table);
      ASSERT_NE(e, nullptr)
          << scenario.name << ": catalog-only candidate "
          << c.foreign_table;
      ASSERT_EQ(c.keys.size(), e->keys.size())
          << scenario.name << "/" << c.foreign_table;
      for (size_t k = 0; k < c.keys.size(); ++k) {
        EXPECT_EQ(c.keys[k].base_column, e->keys[k].base_column)
            << scenario.name << "/" << c.foreign_table;
        EXPECT_EQ(c.keys[k].foreign_column, e->keys[k].foreign_column)
            << scenario.name << "/" << c.foreign_table;
        EXPECT_EQ(c.keys[k].kind, e->keys[k].kind)
            << scenario.name << "/" << c.foreign_table;
      }
      EXPECT_NEAR(c.score, e->score, 0.15)
          << scenario.name << "/" << c.foreign_table;
    }
    // Ordering contract between clearly separated candidates.
    auto position_in_catalog = [&](const std::string& table) {
      for (size_t i = 0; i < catalog.size(); ++i) {
        if (catalog[i].foreign_table == table) return i;
      }
      return catalog.size();
    };
    for (size_t i = 0; i < exact.size(); ++i) {
      for (size_t j = i + 1; j < exact.size(); ++j) {
        if (exact[i].score - exact[j].score <= 0.3) continue;
        EXPECT_LT(position_in_catalog(exact[i].foreign_table),
                  position_in_catalog(exact[j].foreign_table))
            << scenario.name << ": " << exact[i].foreign_table
            << " should rank above " << exact[j].foreign_table;
      }
    }
  }
}

TEST(CandidateTest, HasSoftKey) {
  CandidateJoin cand;
  cand.keys = {JoinKeyPair{"a", "a", KeyKind::kHard}};
  EXPECT_FALSE(cand.HasSoftKey());
  cand.keys.push_back(JoinKeyPair{"t", "t", KeyKind::kSoft});
  EXPECT_TRUE(cand.HasSoftKey());
}

}  // namespace
}  // namespace arda::discovery
