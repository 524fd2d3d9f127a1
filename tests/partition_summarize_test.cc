// Graph partitioner, Section-4 partitioning optimizer, summarizer, and
// provenance tests.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/partitioning.h"
#include "partition/partitioner.h"
#include "provenance/canonical.h"
#include "provenance/provenance.h"
#include "relational/executor.h"
#include "summarize/summarizer.h"

namespace explain3d {
namespace {

TEST(GraphTest, ConnectedComponents) {
  Graph g(6);
  g.AddEdge(0, 1, 1);
  g.AddEdge(1, 2, 1);
  g.AddEdge(3, 4, 1);
  std::vector<int> comp;
  EXPECT_EQ(ConnectedComponents(g, &comp), 3u);
  EXPECT_EQ(comp[0], comp[2]);
  EXPECT_EQ(comp[3], comp[4]);
  EXPECT_NE(comp[0], comp[3]);
  EXPECT_NE(comp[5], comp[0]);
}

TEST(GraphTest, ParallelEdgesAccumulate) {
  Graph g(2);
  g.AddEdge(0, 1, 1.5);
  g.AddEdge(0, 1, 2.5);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_DOUBLE_EQ(g.neighbors(0)[0].second, 4.0);
}

class PartitionerProperties : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PartitionerProperties, BalancedCoverDisjoint) {
  Rng rng(GetParam());
  size_t n = 200 + rng.Index(400);
  Graph g(n);
  for (size_t e = 0; e < n * 3; ++e) {
    g.AddEdge(rng.Index(n), rng.Index(n), rng.UniformDouble(0.01, 2.0));
  }
  PartitionOptions opts;
  opts.num_parts = 2 + rng.Index(6);
  opts.max_part_weight =
      std::ceil(static_cast<double>(n) / opts.num_parts) * 1.3;
  opts.seed = GetParam();
  PartitionResult r = PartitionGraph(g, opts).value();
  ASSERT_EQ(r.assignment.size(), n);
  for (size_t u = 0; u < n; ++u) {
    ASSERT_GE(r.assignment[u], 0);
    ASSERT_LT(r.assignment[u], static_cast<int>(opts.num_parts));
  }
  for (double w : r.part_weight) {
    EXPECT_LE(w, opts.max_part_weight + 1e-9);
  }
  EXPECT_DOUBLE_EQ(r.edge_cut, g.EdgeCutWeight(r.assignment));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionerProperties,
                         ::testing::Range(uint64_t{1}, uint64_t{13}));

TEST(PartitioningTest, EdgeWeightAdjustment) {
  EXPECT_DOUBLE_EQ(AdjustEdgeWeight(0.95, 0.1, 0.9, 100), 95.0);
  EXPECT_DOUBLE_EQ(AdjustEdgeWeight(0.05, 0.1, 0.9, 100), 0.0005);
  EXPECT_DOUBLE_EQ(AdjustEdgeWeight(0.5, 0.1, 0.9, 100), 0.5);
}

TEST(PartitioningTest, PrePartitionMergesHighProbabilityClusters) {
  // Two tuples linked at p=0.95 merge; a p=0.2 link does not.
  TupleMapping mapping = {{0, 0, 0.95}, {1, 1, 0.2}};
  Explain3DConfig config;
  PrePartitionResult pre = PrePartition(2, 2, mapping, config, 100);
  EXPECT_EQ(pre.tuple_cluster[0], pre.tuple_cluster[2]);  // t1[0] ~ t2[0]
  EXPECT_NE(pre.tuple_cluster[1], pre.tuple_cluster[3]);
  EXPECT_EQ(pre.num_clusters, 3u);
}

TEST(PartitioningTest, SmartPartitionCoversEverythingOnce) {
  Rng rng(9);
  size_t n1 = 300, n2 = 300;
  TupleMapping mapping;
  for (size_t k = 0; k < 900; ++k) {
    mapping.emplace_back(rng.Index(n1), rng.Index(n2),
                         rng.UniformDouble(0.05, 0.99));
  }
  SortMapping(&mapping);
  Explain3DConfig config;
  config.batch_size = 100;
  SmartPartitionStats stats;
  std::vector<SubProblem> subs =
      SmartPartition(n1, n2, mapping, config, &stats).value();
  std::vector<int> seen1(n1, 0), seen2(n2, 0);
  size_t matches_in_parts = 0;
  for (const SubProblem& sub : subs) {
    EXPECT_LE(sub.num_tuples(), config.batch_size + 1);
    for (size_t g : sub.t1_ids) ++seen1[g];
    for (size_t g : sub.t2_ids) ++seen2[g];
    matches_in_parts += sub.match_ids.size();
  }
  for (size_t i = 0; i < n1; ++i) EXPECT_EQ(seen1[i], 1) << i;
  for (size_t j = 0; j < n2; ++j) EXPECT_EQ(seen2[j], 1) << j;
  EXPECT_EQ(matches_in_parts + stats.cut_matches, mapping.size());
}

TEST(ProvenanceTest, ImpactEqualsAggregate) {
  Database db("d");
  Schema s;
  s.AddColumn(Column("k", DataType::kString));
  s.AddColumn(Column("v", DataType::kInt64));
  Table t("T", s);
  t.AppendUnchecked({"a", 3});
  t.AppendUnchecked({"a", 4});
  t.AppendUnchecked({"b", 5});
  db.PutTable(std::move(t));

  auto sum = DeriveProvenanceSql(db, "SELECT SUM(v) FROM T").value();
  EXPECT_DOUBLE_EQ(sum.TotalImpact(), 12.0);
  EXPECT_EQ(sum.size(), 3u);

  auto count = DeriveProvenanceSql(db, "SELECT COUNT(k) FROM T").value();
  EXPECT_DOUBLE_EQ(count.TotalImpact(), 3.0);

  auto filtered =
      DeriveProvenanceSql(db, "SELECT SUM(v) FROM T WHERE k = 'a'").value();
  EXPECT_DOUBLE_EQ(filtered.TotalImpact(), 7.0);
  EXPECT_EQ(filtered.size(), 2u);
}

TEST(ProvenanceTest, RejectsGroupByAndMultipleAggregates) {
  Database db("d");
  Schema s;
  s.AddColumn(Column("k", DataType::kString));
  s.AddColumn(Column("v", DataType::kInt64));
  Table t("T", s);
  t.AppendUnchecked({"a", 1});
  db.PutTable(std::move(t));
  EXPECT_FALSE(
      DeriveProvenanceSql(db, "SELECT k, COUNT(v) FROM T GROUP BY k").ok());
  EXPECT_FALSE(
      DeriveProvenanceSql(db, "SELECT SUM(v), COUNT(v) FROM T").ok());
}

TEST(CanonicalTest, GroupsAndSumsImpacts) {
  Database db("d");
  Schema s;
  s.AddColumn(Column("k", DataType::kString));
  Table t("T", s);
  t.AppendUnchecked({"x"});
  t.AppendUnchecked({"x"});
  t.AppendUnchecked({"y"});
  db.PutTable(std::move(t));
  auto prov = DeriveProvenanceSql(db, "SELECT COUNT(k) FROM T").value();
  auto canon = Canonicalize(prov, {"k"}).value();
  ASSERT_EQ(canon.size(), 2u);
  EXPECT_DOUBLE_EQ(canon.TotalImpact(), prov.TotalImpact());
  EXPECT_DOUBLE_EQ(canon.tuples[0].impact, 2.0);  // x merged
  EXPECT_EQ(canon.tuples[0].prov_rows.size(), 2u);
}

TEST(CanonicalTest, StrictAggregatesSkipConsolidation) {
  Database db("d");
  Schema s;
  s.AddColumn(Column("k", DataType::kString));
  s.AddColumn(Column("v", DataType::kInt64));
  Table t("T", s);
  t.AppendUnchecked({"x", 1});
  t.AppendUnchecked({"x", 5});
  db.PutTable(std::move(t));
  auto prov = DeriveProvenanceSql(db, "SELECT MAX(v) FROM T").value();
  auto canon = Canonicalize(prov, {"k"}).value();
  EXPECT_EQ(canon.size(), 2u);  // AVG/MAX/MIN: no grouping (Def. 3.1)
}

// A SUM provenance relation over `rows` with the given impacts; columns
// are named c0, c1, ... and take any Value (types mix freely).
ProvenanceRelation RawProvenance(size_t width, std::vector<Row> rows,
                                 std::vector<double> impacts) {
  Schema s;
  for (size_t c = 0; c < width; ++c) {
    s.AddColumn(Column("c" + std::to_string(c), DataType::kDouble));
  }
  ProvenanceRelation prov;
  prov.table = Table("T", s);
  for (Row& r : rows) prov.table.AppendUnchecked(std::move(r));
  prov.impact = std::move(impacts);
  prov.agg = AggFunc::kSum;
  prov.integral_impacts = false;
  return prov;
}

TEST(CanonicalTest, NanKeysFormOneGroupOfTheirOwn) {
  const double nan = std::nan("");
  std::vector<Row> rows;
  for (double k : {1.0, nan, 2.0, 3.0, -nan, 1.0, 4.0}) rows.push_back({k});
  ProvenanceRelation prov =
      RawProvenance(1, std::move(rows), {1, 10, 100, 1000, 20, 2, 4});
  CanonicalRelation canon = Canonicalize(prov, {"c0"}).value();
  ASSERT_EQ(canon.size(), 5u);
  EXPECT_EQ(canon.tuples[0].key[0].AsDouble(), 1.0);
  EXPECT_EQ(canon.tuples[0].prov_rows, (std::vector<size_t>{0, 5}));
  EXPECT_EQ(canon.tuples[0].impact, 3.0);
  EXPECT_TRUE(std::isnan(canon.tuples[1].key[0].AsDouble()));
  EXPECT_EQ(canon.tuples[1].prov_rows, (std::vector<size_t>{1, 4}));
  EXPECT_EQ(canon.tuples[1].impact, 30.0);
  EXPECT_EQ(canon.tuples[4].key[0].AsDouble(), 4.0);
}

// Reference grouping: linear search over the groups by Value::Compare,
// in first-appearance order, impacts summed in row order.
std::vector<CanonicalTuple> BruteForceGroups(const ProvenanceRelation& prov,
                                             size_t width) {
  std::vector<CanonicalTuple> groups;
  for (size_t i = 0; i < prov.size(); ++i) {
    const Row& row = prov.table.row(i);
    CanonicalTuple* hit = nullptr;
    for (CanonicalTuple& g : groups) {
      size_t c = 0;
      while (c < width && g.key[c].Compare(row[c]) == 0) ++c;
      if (c == width) {
        hit = &g;
        break;
      }
    }
    if (hit == nullptr) {
      CanonicalTuple t;
      t.key.assign(row.begin(), row.begin() + width);
      t.impact = prov.impact[i];
      t.prov_rows = {i};
      groups.push_back(std::move(t));
    } else {
      hit->impact += prov.impact[i];
      hit->prov_rows.push_back(i);
    }
  }
  return groups;
}

TEST(CanonicalTest, HashIndexMatchesBruteForceGrouping) {
  // Each cell draws from a small pool, so keys repeat heavily, and the
  // pools hold values that compare equal across representations: int 3
  // and double 3.0, -0.0 and 0.0 and int 0, NaNs with different signs
  // and payloads. The 16 values form 11 equality classes, so up to 1331
  // distinct 3-column keys push the index through several doublings and
  // plenty of probe collisions.
  const std::vector<Value> pool = {
      Value(0),         Value(0.0),        Value(-0.0),
      Value(3),         Value(3.0),        Value(-7),
      Value(2.5),       Value(std::nan("")), Value(-std::nan("")),
      Value(std::nan("42")), Value::Null(), Value("x"),
      Value("X"),       Value("x "),       Value(""),
      Value(int64_t{1} << 40)};
  Rng rng(1903);
  for (int trial = 0; trial < 12; ++trial) {
    size_t width = 1 + static_cast<size_t>(trial % 3);
    size_t n = 200 + rng.Index(4000);
    std::vector<Row> rows;
    std::vector<double> impacts;
    for (size_t i = 0; i < n; ++i) {
      Row r;
      for (size_t c = 0; c < width; ++c) {
        r.push_back(pool[rng.Index(pool.size())]);
      }
      rows.push_back(std::move(r));
      impacts.push_back(rng.UniformDouble(-1, 1));  // order-sensitive sums
    }
    ProvenanceRelation prov = RawProvenance(width, rows, impacts);
    std::vector<std::string> attrs;
    for (size_t c = 0; c < width; ++c) attrs.push_back("c" + std::to_string(c));
    CanonicalRelation got = Canonicalize(prov, attrs).value();
    std::vector<CanonicalTuple> want = BruteForceGroups(prov, width);
    ASSERT_EQ(got.size(), want.size()) << "trial " << trial;
    for (size_t g = 0; g < want.size(); ++g) {
      const CanonicalTuple& a = got.tuples[g];
      const CanonicalTuple& b = want[g];
      ASSERT_EQ(a.KeyString(), b.KeyString()) << "trial " << trial;
      uint64_t bits_a, bits_b;
      std::memcpy(&bits_a, &a.impact, sizeof(double));
      std::memcpy(&bits_b, &b.impact, sizeof(double));
      EXPECT_EQ(bits_a, bits_b) << "trial " << trial << " group " << g;
      EXPECT_EQ(a.prov_rows, b.prov_rows)
          << "trial " << trial << " group " << g;
    }
  }
}

TEST(SummarizerTest, FindsDominantPattern) {
  Schema s;
  s.AddColumn(Column("degree", DataType::kString));
  s.AddColumn(Column("school", DataType::kString));
  Table t("T", s);
  std::vector<bool> target;
  for (int i = 0; i < 12; ++i) {
    t.AppendUnchecked({"Associate", "S" + std::to_string(i % 4)});
    target.push_back(true);
  }
  for (int i = 0; i < 20; ++i) {
    t.AppendUnchecked({"Bachelor", "S" + std::to_string(i % 4)});
    target.push_back(false);
  }
  SummarizerOptions opts;
  PatternSummary sum =
      SummarizeTargets(t, {"degree", "school"}, target, opts).value();
  ASSERT_FALSE(sum.patterns.empty());
  EXPECT_EQ(sum.patterns[0].description, "degree='Associate'");
  EXPECT_EQ(sum.patterns[0].covered_targets, 12u);
  EXPECT_EQ(sum.patterns[0].false_positives, 0u);
  EXPECT_EQ(sum.missed, 0u);
}

TEST(SummarizerTest, RawListingWhenNoPatternHelps) {
  Schema s;
  s.AddColumn(Column("id", DataType::kString));
  Table t("T", s);
  std::vector<bool> target;
  for (int i = 0; i < 10; ++i) {
    t.AppendUnchecked({"unique" + std::to_string(i)});
    target.push_back(i < 2);
  }
  SummarizerOptions opts;
  opts.max_attr_cardinality = 4;  // id column excluded -> no patterns
  PatternSummary sum = SummarizeTargets(t, {"id"}, target, opts).value();
  EXPECT_TRUE(sum.patterns.empty());
  EXPECT_EQ(sum.missed, 2u);
}

TEST(PatternTest, MatchingAndGeneralization) {
  Pattern general({Value("a"), Value()});
  Pattern specific({Value("a"), Value("b")});
  EXPECT_TRUE(general.Matches({Value("a"), Value("z")}));
  EXPECT_FALSE(general.Matches({Value("x"), Value("b")}));
  EXPECT_TRUE(general.Generalizes(specific));
  EXPECT_FALSE(specific.Generalizes(general));
  EXPECT_EQ(specific.Specificity(), 2u);
}

}  // namespace
}  // namespace explain3d
