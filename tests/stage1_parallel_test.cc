// Stage-1 concurrency regression tests: the parallel interning / blocking
// / candidate-scoring paths must produce bit-identical initial mappings
// for every thread count (including the calibrated path), the shared pool
// must survive nesting and growth, the stop-token blocking fallback must
// keep every tuple in the mapping, and a MatchingContext must reuse the
// stage-1 artifacts across pipeline calls without changing results.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/matching_context.h"
#include "core/pipeline.h"
#include "datagen/synthetic.h"
#include "eval/gold.h"
#include "matching/blocking.h"
#include "matching/mapping_generator.h"

namespace explain3d {
namespace {

// --- shared pool ------------------------------------------------------------

TEST(SharedPoolTest, GrowsAndNeverShrinks) {
  size_t before = SharedPool().num_threads();
  ThreadPool& grown = SharedPool(before + 3);
  EXPECT_GE(grown.num_threads(), before + 3);
  EXPECT_GE(SharedPool(1).num_threads(), before + 3);  // no shrink
  EXPECT_EQ(&grown, &SharedPool());  // one process-wide instance
}

TEST(SharedPoolTest, NestedParallelForCompletes) {
  // A ParallelFor issued from inside a pool task must finish even when
  // every worker is busy: the caller claims indices itself, so saturation
  // cannot deadlock the batch.
  std::vector<std::atomic<int>> inner_sums(8);
  for (auto& s : inner_sums) s = 0;
  ParallelFor(4, inner_sums.size(), [&](size_t outer) {
    ParallelFor(4, 100, [&](size_t inner) {
      inner_sums[outer].fetch_add(static_cast<int>(inner) + 1);
    });
  });
  for (auto& s : inner_sums) EXPECT_EQ(s.load(), 5050);
}

TEST(SharedPoolTest, ResolveThreadsPassesExplicitValues) {
  EXPECT_EQ(ResolveThreads(1), 1u);
  EXPECT_EQ(ResolveThreads(7), 7u);
  EXPECT_GE(ResolveThreads(0), 1u);  // auto resolves to something sane
}

// --- stage-1 determinism ----------------------------------------------------

// Random canonical relation mixing string, numeric, and NULL key values
// (same shape as the token-interning tests).
CanonicalRelation RandomKeyedRelation(size_t n, size_t arity, uint64_t seed) {
  Rng rng(seed);
  CanonicalRelation rel;
  for (size_t a = 0; a < arity; ++a) {
    rel.key_attrs.push_back("k" + std::to_string(a));
  }
  for (size_t i = 0; i < n; ++i) {
    CanonicalTuple t;
    for (size_t a = 0; a < arity; ++a) {
      double roll = rng.UniformDouble();
      if (roll < 0.1) {
        t.key.push_back(Value::Null());
      } else if (roll < 0.3) {
        t.key.push_back(Value(static_cast<int64_t>(rng.Index(20))));
      } else {
        std::string s;
        for (int w = 0; w < 3; ++w) {
          s += "w" + std::to_string(rng.Index(40)) + " ";
        }
        t.key.push_back(Value(s));
      }
    }
    t.impact = 1;
    t.prov_rows = {i};
    rel.tuples.push_back(std::move(t));
  }
  return rel;
}

void ExpectMappingsBitIdentical(const TupleMapping& a, const TupleMapping& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k].t1, b[k].t1) << "pair " << k;
    EXPECT_EQ(a[k].t2, b[k].t2) << "pair " << k;
    EXPECT_EQ(a[k].p, b[k].p) << "pair " << k;  // bitwise, not NEAR
  }
}

TEST(Stage1ParallelTest, InitialMappingBitIdenticalAcrossThreadCounts) {
  for (uint64_t seed : {uint64_t{5}, uint64_t{77}}) {
    CanonicalRelation t1 = RandomKeyedRelation(120, 2, seed);
    CanonicalRelation t2 = RandomKeyedRelation(120, 2, seed + 1);
    MappingGenOptions opts;
    opts.min_probability = 1e-4;

    opts.num_threads = 1;
    TupleMapping serial = GenerateInitialMapping(t1, t2, {}, opts).value();
    ASSERT_FALSE(serial.empty());
    for (size_t threads : {size_t{2}, size_t{4}}) {
      opts.num_threads = threads;
      TupleMapping parallel =
          GenerateInitialMapping(t1, t2, {}, opts).value();
      ExpectMappingsBitIdentical(serial, parallel);
    }
  }
}

TEST(Stage1ParallelTest, CalibratedMappingBitIdenticalAcrossThreadCounts) {
  for (uint64_t seed : {uint64_t{13}, uint64_t{99}}) {
    // Identical relations give a diagonal gold standard, exercising the
    // calibrator (whose counter-based sample draw hashes (seed, pair
    // index), so it parallelizes without losing determinism).
    CanonicalRelation t1 = RandomKeyedRelation(100, 2, seed);
    CanonicalRelation t2 = t1;
    GoldPairs gold;
    for (size_t i = 0; i < t1.size(); ++i) gold.emplace(i, i);
    MappingGenOptions opts;
    opts.min_probability = 1e-4;

    opts.num_threads = 1;
    TupleMapping serial = GenerateInitialMapping(t1, t2, gold, opts).value();
    ASSERT_FALSE(serial.empty());
    for (size_t threads : {size_t{2}, size_t{4}}) {
      opts.num_threads = threads;
      TupleMapping parallel =
          GenerateInitialMapping(t1, t2, gold, opts).value();
      ExpectMappingsBitIdentical(serial, parallel);
    }
  }
}

TEST(Stage1ParallelTest, CandidatesAndScoresBitIdenticalAcrossThreadCounts) {
  CanonicalRelation t1 = RandomKeyedRelation(90, 2, 31);
  CanonicalRelation t2 = RandomKeyedRelation(90, 2, 32);
  // Interning is one serial pass; blocking and scoring fan out.
  TokenDictionary dict;
  InternedRelation i1(t1, &dict, true);
  InternedRelation i2(t2, &dict, true);
  CandidatePairs serial_pairs = GenerateCandidates(i1, i2, 1);
  std::vector<double> serial_sim =
      ScoreCandidates(i1, i2, serial_pairs, StringMetric::kJaccard, 1);
  for (size_t threads : {size_t{2}, size_t{4}}) {
    EXPECT_EQ(GenerateCandidates(i1, i2, threads), serial_pairs);
    std::vector<double> sim =
        ScoreCandidates(i1, i2, serial_pairs, StringMetric::kJaccard,
                        threads);
    ASSERT_EQ(sim.size(), serial_sim.size());
    for (size_t k = 0; k < sim.size(); ++k) {
      EXPECT_EQ(sim[k], serial_sim[k]) << "pair " << k;
    }
  }
}

// --- blocking stop-token fallback -------------------------------------------

CanonicalRelation StringRelation(const std::vector<std::string>& keys) {
  CanonicalRelation rel;
  rel.key_attrs = {"k"};
  for (size_t i = 0; i < keys.size(); ++i) {
    CanonicalTuple t;
    t.key = {Value(keys[i])};
    t.impact = 1;
    t.prov_rows = {i};
    rel.tuples.push_back(std::move(t));
  }
  return rel;
}

TEST(BlockingFallbackTest, AllStopTokenTupleStillGetsCandidates) {
  // Skewed T2: "common" appears in all 60 tuples, exceeding the document
  // frequency cutoff max(50, 60/10+1) = 50, so it is a stop token. A T1
  // tuple whose ONLY token is "common" used to get zero candidates and
  // vanish from the mapping entirely.
  std::vector<std::string> keys2;
  for (int i = 0; i < 60; ++i) {
    keys2.push_back("common unique" + std::to_string(i));
  }
  CanonicalRelation t2 = StringRelation(keys2);
  CanonicalRelation t1 =
      StringRelation({"common", "unique7 common", "neverseen"});

  CandidatePairs pairs = GenerateCandidates(t1, t2);
  std::vector<size_t> per_t1(t1.size(), 0);
  for (const auto& [i, j] : pairs) ++per_t1[i];
  // Tuple 0 (all stop tokens): the fallback posts the "common" posting,
  // capped at df_cutoff entries so constant-key data cannot reintroduce
  // the quadratic blowup the cutoff prevents.
  EXPECT_EQ(per_t1[0], 50u);
  // Tuple 1 has a rare token; the normal path finds exactly that match.
  EXPECT_EQ(per_t1[1], 1u);
  // Tuple 2's token is absent from T2: genuinely no signal, no fallback.
  EXPECT_EQ(per_t1[2], 0u);

  // End to end: the all-stop-token tuple survives into the mapping.
  MappingGenOptions opts;
  opts.min_probability = 1e-6;
  TupleMapping mapping = GenerateInitialMapping(t1, t2, {}, opts).value();
  bool tuple0_mapped = false;
  for (const TupleMatch& m : mapping) tuple0_mapped |= m.t1 == 0;
  EXPECT_TRUE(tuple0_mapped);
}

TEST(BlockingFallbackTest, NumericStringTypeDriftStillBlocks) {
  // One database stores the id as a number, the other as digits in a
  // string. Tokens can't collide (numeric values post no tokens), so the
  // pair must meet in the numeric bucket index via CoerceNumeric — if it
  // doesn't, the ValueSimilarity coercion never even gets to score it.
  CanonicalRelation t1, t2;
  t1.key_attrs = t2.key_attrs = {"id"};
  for (int i = 0; i < 10; ++i) {
    CanonicalTuple a;
    a.key = {Value(100 + i)};
    a.impact = 1;
    a.prov_rows = {static_cast<size_t>(i)};
    t1.tuples.push_back(a);
    CanonicalTuple b;
    b.key = {Value(std::to_string(100 + i))};
    b.impact = 1;
    b.prov_rows = {static_cast<size_t>(i)};
    t2.tuples.push_back(b);
  }
  CandidatePairs pairs = GenerateCandidates(t1, t2);
  auto has_pair = [&](size_t i, size_t j) {
    for (const auto& p : pairs) {
      if (p.first == i && p.second == j) return true;
    }
    return false;
  };
  for (size_t i = 0; i < 10; ++i) EXPECT_TRUE(has_pair(i, i)) << i;

  // End to end: the drifted pairs score 1.0 and survive into the mapping.
  MappingGenOptions opts;
  TupleMapping mapping = GenerateInitialMapping(t1, t2, {}, opts).value();
  std::vector<bool> diagonal(10, false);
  for (const TupleMatch& m : mapping) {
    if (m.t1 == m.t2) diagonal[m.t1] = true;
  }
  for (size_t i = 0; i < 10; ++i) EXPECT_TRUE(diagonal[i]) << i;
}

// --- MatchingContext --------------------------------------------------------

PipelineInput SyntheticInput(const SyntheticDataset& data) {
  PipelineInput input;
  input.db1 = &data.db1;
  input.db2 = &data.db2;
  input.sql1 = data.sql1;
  input.sql2 = data.sql2;
  input.attr_matches = data.attr_matches;
  input.mapping_options.min_probability = 1e-4;
  input.calibration_oracle =
      MakeRowEntityOracle(data.row_entities1, data.row_entities2);
  return input;
}

TEST(MatchingContextTest, ReusesStage1ArtifactsWithIdenticalResults) {
  SyntheticOptions gen;
  gen.n = 120;
  gen.d = 0.25;
  gen.v = 200;
  gen.seed = 21;
  SyntheticDataset data = GenerateSynthetic(gen).value();
  PipelineInput input = SyntheticInput(data);
  Explain3DConfig config;
  config.num_threads = 2;

  PipelineResult cold = RunExplain3D(input, config).value();

  MatchingContext context;
  input.matching_context = &context;
  PipelineResult warm1 = RunExplain3D(input, config).value();
  PipelineResult warm2 = RunExplain3D(input, config).value();
  EXPECT_EQ(context.misses(), 1u);
  EXPECT_EQ(context.hits(), 1u);
  EXPECT_EQ(context.size(), 1u);

  // Cached and uncached runs agree bit-for-bit, warm or cold.
  for (const PipelineResult* r : {&warm1, &warm2}) {
    EXPECT_EQ(r->answer1(), cold.answer1());
    EXPECT_EQ(r->answer2(), cold.answer2());
    EXPECT_EQ(r->t1().size(), cold.t1().size());
    EXPECT_EQ(r->t2().size(), cold.t2().size());
    ExpectMappingsBitIdentical(r->initial_mapping(), cold.initial_mapping());
    EXPECT_EQ(r->core().explanations.delta, cold.core().explanations.delta);
    EXPECT_EQ(r->core().explanations.log_probability,
              cold.core().explanations.log_probability);
  }
}

TEST(MatchingContextTest, DifferentQueriesGetDifferentEntries) {
  SyntheticOptions gen;
  gen.n = 80;
  gen.d = 0.25;
  gen.v = 150;
  gen.seed = 33;
  SyntheticDataset data = GenerateSynthetic(gen).value();
  PipelineInput input = SyntheticInput(data);
  MatchingContext context;
  input.matching_context = &context;
  Explain3DConfig config;

  ASSERT_TRUE(RunExplain3D(input, config).ok());
  // Swapping the database sides changes the cache key (the key binds the
  // db identities), so this must miss, not serve the mirrored artifacts.
  PipelineInput swapped = input;
  std::swap(swapped.db1, swapped.db2);
  ASSERT_TRUE(RunExplain3D(swapped, config).ok());
  EXPECT_EQ(context.misses(), 2u);
  EXPECT_EQ(context.size(), 2u);

  context.Clear();
  EXPECT_EQ(context.size(), 0u);
  ASSERT_TRUE(RunExplain3D(input, config).ok());
  EXPECT_EQ(context.misses(), 3u);  // rebuilt after Clear
}

TEST(MatchingContextTest, Stage2TimingIsPopulated) {
  SyntheticOptions gen;
  gen.n = 80;
  gen.d = 0.25;
  gen.v = 150;
  gen.seed = 9;
  SyntheticDataset data = GenerateSynthetic(gen).value();
  PipelineInput input = SyntheticInput(data);
  Explain3DConfig config;
  PipelineResult r = RunExplain3D(input, config).value();
  EXPECT_GT(r.stage1_seconds(), 0.0);
  EXPECT_GT(r.stage2_seconds(), 0.0);
  EXPECT_GE(r.total_seconds(), r.stage1_seconds() + r.stage2_seconds());
}

}  // namespace
}  // namespace explain3d
