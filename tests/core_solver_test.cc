// Stage-2 solver tests built around the paper's running example
// (Figures 1 and 3) plus randomized cross-checks between the two exact
// engines (Section-3.2 MILP encoding vs assignment branch & bound).

#include "core/solver.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>

#include "common/rng.h"
#include "core/exact_solver.h"
#include "core/milp_encoder.h"
#include "core/partitioning.h"
#include "core/pipeline.h"
#include "datagen/synthetic.h"
#include "milp/branch_and_bound.h"

namespace explain3d {
namespace {

CanonicalRelation MakeRelation(const std::vector<std::string>& keys,
                               const std::vector<double>& impacts,
                               AggFunc agg = AggFunc::kCount) {
  CanonicalRelation rel;
  rel.key_attrs = {"k"};
  rel.agg = agg;
  for (size_t i = 0; i < keys.size(); ++i) {
    CanonicalTuple t;
    t.key = {Value(keys[i])};
    t.impact = impacts[i];
    t.prov_rows = {i};
    rel.tuples.push_back(std::move(t));
    if (impacts[i] != std::floor(impacts[i])) rel.integral_impacts = false;
  }
  return rel;
}

// Figure 3: canonical relations of Q1 (7 programs -> 6 tuples, CS has
// impact 2) and Q2 (6 majors, all impact 1).
struct RunningExample {
  CanonicalRelation t1 = MakeRelation(
      {"Accounting", "CS", "ECE", "EE", "Management", "Design"},
      {1, 2, 1, 1, 1, 1});
  CanonicalRelation t2 = MakeRelation(
      {"Accounting", "CSE", "ECE", "EE", "Management", "Design"},
      {1, 1, 1, 1, 1, 1});
  AttributeMatch attr = AttributeMatch::Single(
      "k", "k", SemanticRelation::kEquivalent);
  TupleMapping mapping = {
      {0, 0, 0.95}, {1, 1, 0.9}, {2, 2, 0.95},
      {3, 3, 0.95}, {4, 4, 0.95}, {5, 5, 0.95},
  };
};

TEST(Explain3DSolverTest, RunningExampleQ1VsQ2) {
  RunningExample ex;
  Explain3DConfig config;
  Explain3DSolver solver(config);
  Explain3DInput input{&ex.t1, &ex.t2, ex.attr, ex.mapping};
  Result<Explain3DResult> r = solver.Solve(input);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const ExplanationSet& e = r.value().explanations;

  // The paper's analysis: all six tuples map 1-1; the only discrepancy is
  // CS counted twice in Q1 vs once in Q2 -> one value-based explanation,
  // no provenance-based explanations, full six-match evidence.
  EXPECT_TRUE(e.delta.empty());
  ASSERT_EQ(e.value_changes.size(), 1u);
  EXPECT_EQ(e.value_changes[0].tuple, 1u);  // CS / CSE pair
  EXPECT_EQ(e.evidence.size(), 6u);
  EXPECT_TRUE(r.value().stats.all_optimal);

  // The result is complete per Definition 3.4.
  EXPECT_TRUE(CheckCompleteness(ex.t1, ex.t2, ex.attr, e).ok());
}

TEST(Explain3DSolverTest, RunningExampleQ2VsQ3Containment) {
  // Q2 majors (many side) vs Q3 colleges (one side), program ⊑ college.
  // Design is missing from D3; CS college lists 1 bachelor instead of 1
  // CSE major... here impacts: business=2 (Accounting+Management),
  // engineering=2 (ECE+EE), cs=1 (CSE). All consistent except Design.
  CanonicalRelation majors = MakeRelation(
      {"Accounting", "CSE", "ECE", "EE", "Management", "Design"},
      {1, 1, 1, 1, 1, 1});
  CanonicalRelation colleges = MakeRelation(
      {"Business", "Engineering", "Computer Science"}, {2, 2, 1},
      AggFunc::kSum);
  AttributeMatch attr =
      AttributeMatch::Single("k", "k", SemanticRelation::kLessGeneral);
  TupleMapping mapping = {
      {0, 0, 0.8},  // Accounting -> Business
      {4, 0, 0.8},  // Management -> Business
      {2, 1, 0.8},  // ECE -> Engineering
      {3, 1, 0.8},  // EE -> Engineering
      {1, 2, 0.6},  // CSE -> Computer Science
      {1, 1, 0.4},  // CSE -> Engineering (wrong alternative)
  };
  Explain3DSolver solver;
  Explain3DInput input{&majors, &colleges, attr, mapping};
  Result<Explain3DResult> r = solver.Solve(input);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const ExplanationSet& e = r.value().explanations;

  // Optimal: CSE maps to the CS college (Section 2.3's argument), and the
  // only explanation is that Design has no counterpart.
  ASSERT_EQ(e.delta.size(), 1u);
  EXPECT_EQ(e.delta[0].side, Side::kLeft);
  EXPECT_EQ(e.delta[0].tuple, 5u);  // Design
  EXPECT_TRUE(e.value_changes.empty());
  bool cse_to_cs = false;
  for (const TupleMatch& m : e.evidence) {
    if (m.t1 == 1 && m.t2 == 2) cse_to_cs = true;
  }
  EXPECT_TRUE(cse_to_cs);
  EXPECT_TRUE(CheckCompleteness(majors, colleges, attr, e).ok());
}

TEST(Explain3DSolverTest, MissingTupleBothSides) {
  CanonicalRelation t1 = MakeRelation({"a", "b", "x"}, {1, 1, 1});
  CanonicalRelation t2 = MakeRelation({"a", "b", "y"}, {1, 1, 1});
  AttributeMatch attr =
      AttributeMatch::Single("k", "k", SemanticRelation::kEquivalent);
  TupleMapping mapping = {{0, 0, 0.9}, {1, 1, 0.9}};
  Explain3DSolver solver;
  Result<Explain3DResult> r = solver.Solve({&t1, &t2, attr, mapping});
  ASSERT_TRUE(r.ok());
  // x and y are unmatched -> two provenance explanations.
  EXPECT_EQ(r.value().explanations.delta.size(), 2u);
  EXPECT_EQ(r.value().explanations.evidence.size(), 2u);
}

TEST(Explain3DSolverTest, PrefersConsistentMatchingOverHighProbability) {
  // The record-linkage counterexample of Section 5.2: matches
  // (A,A',0.8),(B,B',0.8),(A,B',0.9),(B,A',0.5). Record linkage picks
  // (A,B'); explain3d picks the complete matching {(A,A'),(B,B')}.
  CanonicalRelation t1 = MakeRelation({"A", "B"}, {1, 1});
  CanonicalRelation t2 = MakeRelation({"A'", "B'"}, {1, 1});
  AttributeMatch attr =
      AttributeMatch::Single("k", "k", SemanticRelation::kEquivalent);
  TupleMapping mapping = {
      {0, 0, 0.8}, {1, 1, 0.8}, {0, 1, 0.9}, {1, 0, 0.5}};
  Explain3DSolver solver;
  Result<Explain3DResult> r = solver.Solve({&t1, &t2, attr, mapping});
  ASSERT_TRUE(r.ok());
  const ExplanationSet& e = r.value().explanations;
  EXPECT_TRUE(e.delta.empty());
  ASSERT_EQ(e.evidence.size(), 2u);
  EXPECT_EQ(e.evidence[0].t1, 0u);
  EXPECT_EQ(e.evidence[0].t2, 0u);
  EXPECT_EQ(e.evidence[1].t1, 1u);
  EXPECT_EQ(e.evidence[1].t2, 1u);
}

TEST(Explain3DSolverTest, RejectsOutOfRangeProbabilities) {
  CanonicalRelation t1 = MakeRelation({"a"}, {1});
  CanonicalRelation t2 = MakeRelation({"a"}, {1});
  AttributeMatch attr =
      AttributeMatch::Single("k", "k", SemanticRelation::kEquivalent);
  TupleMapping mapping = {{0, 0, 1.0}};  // p = 1.0 -> log(1-p) = -inf
  Explain3DSolver solver;
  Result<Explain3DResult> r = solver.Solve({&t1, &t2, attr, mapping});
  EXPECT_FALSE(r.ok());
}

TEST(Explain3DSolverTest, ScoreMatchesReportedObjective) {
  RunningExample ex;
  Explain3DSolver solver;
  Result<Explain3DResult> r =
      solver.Solve({&ex.t1, &ex.t2, ex.attr, ex.mapping});
  ASSERT_TRUE(r.ok());
  ProbabilityModel prob((Explain3DConfig()));
  double rescored =
      prob.Score(ex.t1, ex.t2, ex.mapping, r.value().explanations);
  EXPECT_NEAR(rescored, r.value().explanations.log_probability, 1e-9);
}

// ---------------------------------------------------------------------------
// Cross-check: the Section-3.2 MILP and the assignment B&B agree.
// ---------------------------------------------------------------------------

struct RandomInstance {
  CanonicalRelation t1, t2;
  AttributeMatch attr;
  TupleMapping mapping;
};

RandomInstance MakeRandomInstance(uint64_t seed) {
  Rng rng(seed);
  RandomInstance inst;
  size_t n1 = 2 + rng.Index(4);
  size_t n2 = 2 + rng.Index(4);
  std::vector<std::string> k1, k2;
  std::vector<double> i1, i2;
  for (size_t i = 0; i < n1; ++i) {
    k1.push_back("L" + std::to_string(i));
    i1.push_back(static_cast<double>(rng.UniformInt(1, 4)));
  }
  for (size_t j = 0; j < n2; ++j) {
    k2.push_back("R" + std::to_string(j));
    i2.push_back(static_cast<double>(rng.UniformInt(1, 4)));
  }
  inst.t1 = MakeRelation(k1, i1);
  inst.t2 = MakeRelation(k2, i2);
  SemanticRelation rel =
      static_cast<SemanticRelation>(rng.Index(3));
  inst.attr = AttributeMatch::Single("k", "k", rel);
  for (size_t i = 0; i < n1; ++i) {
    for (size_t j = 0; j < n2; ++j) {
      if (rng.Bernoulli(0.45)) {
        double p = rng.UniformDouble(0.1, 0.95);
        inst.mapping.emplace_back(i, j, p);
      }
    }
  }
  return inst;
}

class EngineAgreement : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineAgreement, MilpAndAssignmentBnbMatch) {
  RandomInstance inst = MakeRandomInstance(GetParam());
  ProbabilityModel prob((Explain3DConfig()));

  SubProblem whole;
  for (size_t i = 0; i < inst.t1.size(); ++i) whole.t1_ids.push_back(i);
  for (size_t j = 0; j < inst.t2.size(); ++j) whole.t2_ids.push_back(j);
  for (size_t k = 0; k < inst.mapping.size(); ++k) {
    whole.match_ids.push_back(k);
  }

  // Engine 1: the faithful MILP encoding.
  MilpEncoder encoder(inst.t1, inst.t2, inst.mapping, inst.attr, prob);
  EncodedMilp enc = encoder.Encode(whole);
  milp::Solution milp_sol = milp::MilpSolver(enc.model).Solve();
  ASSERT_EQ(milp_sol.status, milp::SolveStatus::kOptimal)
      << "seed " << GetParam();

  // Engine 2: assignment branch & bound.
  Result<ExactSolveResult> exact = SolveComponentExact(
      inst.t1, inst.t2, inst.mapping, inst.attr, prob, whole);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  ASSERT_TRUE(exact.value().proven_optimal);

  EXPECT_NEAR(milp_sol.objective, exact.value().objective, 1e-5)
      << "seed " << GetParam();

  // Both solutions must be complete, and scoring the decoded explanation
  // sets must reproduce the engines' objectives.
  ExplanationSet from_milp = encoder.Decode(whole, enc, milp_sol.values);
  EXPECT_TRUE(
      CheckCompleteness(inst.t1, inst.t2, inst.attr, from_milp).ok())
      << "seed " << GetParam();
  EXPECT_TRUE(CheckCompleteness(inst.t1, inst.t2, inst.attr,
                                exact.value().explanations)
                  .ok())
      << "seed " << GetParam();
  double milp_rescored =
      prob.Score(inst.t1, inst.t2, inst.mapping, from_milp);
  EXPECT_NEAR(milp_rescored, milp_sol.objective, 1e-5)
      << "seed " << GetParam();
  double exact_rescored = prob.Score(inst.t1, inst.t2, inst.mapping,
                                     exact.value().explanations);
  EXPECT_NEAR(exact_rescored, exact.value().objective, 1e-5)
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineAgreement,
                         ::testing::Range(uint64_t{100}, uint64_t{160}));

// ---------------------------------------------------------------------------
// Warm starts (ROADMAP 2): seeding the solver with a prior run's
// incumbent record is a pure accelerator — results stay bit-identical.
// ---------------------------------------------------------------------------

void ExpectSameExplanations(const ExplanationSet& a, const ExplanationSet& b) {
  ASSERT_EQ(a.delta.size(), b.delta.size());
  for (size_t i = 0; i < a.delta.size(); ++i) {
    EXPECT_EQ(a.delta[i].side, b.delta[i].side);
    EXPECT_EQ(a.delta[i].tuple, b.delta[i].tuple);
  }
  ASSERT_EQ(a.value_changes.size(), b.value_changes.size());
  for (size_t i = 0; i < a.value_changes.size(); ++i) {
    EXPECT_EQ(a.value_changes[i].side, b.value_changes[i].side);
    EXPECT_EQ(a.value_changes[i].tuple, b.value_changes[i].tuple);
    EXPECT_EQ(a.value_changes[i].old_impact, b.value_changes[i].old_impact);
    EXPECT_EQ(a.value_changes[i].new_impact, b.value_changes[i].new_impact);
  }
  ASSERT_EQ(a.evidence.size(), b.evidence.size());
  for (size_t i = 0; i < a.evidence.size(); ++i) {
    EXPECT_EQ(a.evidence[i].t1, b.evidence[i].t1);
    EXPECT_EQ(a.evidence[i].t2, b.evidence[i].t2);
    EXPECT_EQ(a.evidence[i].p, b.evidence[i].p);
  }
  EXPECT_EQ(a.log_probability, b.log_probability);  // bitwise
}

TEST(Explain3DSolverTest, WarmResubmitBitIdenticalToCold) {
  for (uint64_t seed = 300; seed < 312; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RandomInstance inst = MakeRandomInstance(seed);
    Explain3DSolver solver;
    Explain3DInput cold_input{&inst.t1, &inst.t2, inst.attr, inst.mapping};
    SolverIncumbents rec;
    cold_input.incumbents_out = &rec;
    Result<Explain3DResult> cold = solver.Solve(cold_input);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    EXPECT_EQ(cold.value().stats.warm_start_hits, 0u);
    if (!rec.complete) continue;  // limit-truncated: record not reusable

    Explain3DInput warm_input{&inst.t1, &inst.t2, inst.attr, inst.mapping};
    warm_input.warm_start = &rec;
    Result<Explain3DResult> warm = solver.Solve(warm_input);
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    ExpectSameExplanations(warm.value().explanations,
                           cold.value().explanations);
    // Every unit that runs a search engine gets its floor from the record.
    EXPECT_EQ(warm.value().stats.warm_start_hits,
              cold.value().stats.milp_solved + cold.value().stats.exact_solved);
    if (::testing::Test::HasFatalFailure()) break;
  }
}

TEST(Explain3DSolverTest, MalformedWarmRecordIsIgnored) {
  RandomInstance inst = MakeRandomInstance(305);
  Explain3DSolver solver;
  Explain3DInput cold_input{&inst.t1, &inst.t2, inst.attr, inst.mapping};
  SolverIncumbents rec;
  cold_input.incumbents_out = &rec;
  Result<Explain3DResult> cold = solver.Solve(cold_input);
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(rec.complete);
  ASSERT_FALSE(rec.units.empty());

  // Wrong unit count: the record cannot line up with this problem, so
  // the solver must discard it outright.
  SolverIncumbents truncated = rec;
  truncated.units.pop_back();
  Explain3DInput in1{&inst.t1, &inst.t2, inst.attr, inst.mapping};
  in1.warm_start = &truncated;
  Result<Explain3DResult> r1 = solver.Solve(in1);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1.value().stats.warm_start_hits, 0u);
  ExpectSameExplanations(r1.value().explanations, cold.value().explanations);

  // Stale fingerprints (unit-by-unit mismatch): every lookup must miss.
  SolverIncumbents stale = rec;
  for (UnitIncumbent& u : stale.units) u.fingerprint ^= 1;
  Explain3DInput in2{&inst.t1, &inst.t2, inst.attr, inst.mapping};
  in2.warm_start = &stale;
  Result<Explain3DResult> r2 = solver.Solve(in2);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.value().stats.warm_start_hits, 0u);
  ExpectSameExplanations(r2.value().explanations, cold.value().explanations);
}

TEST(Explain3DSolverTest, GreedySeedDoesNotChangeExactAnswer) {
  // The portfolio path seeds the exact solve with the greedy selection as
  // an objective floor; the floor must never change the answer.
  for (uint64_t seed = 320; seed < 328; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RandomInstance inst = MakeRandomInstance(seed);
    Explain3DSolver solver;
    Result<Explain3DResult> cold =
        solver.Solve({&inst.t1, &inst.t2, inst.attr, inst.mapping});
    ASSERT_TRUE(cold.ok());

    // Seed with the cold run's own evidence — the tightest possible floor.
    std::vector<size_t> selection;
    for (size_t k = 0; k < inst.mapping.size(); ++k) {
      for (const TupleMatch& m : cold.value().explanations.evidence) {
        if (inst.mapping[k].t1 == m.t1 && inst.mapping[k].t2 == m.t2) {
          selection.push_back(k);
          break;
        }
      }
    }
    Explain3DInput seeded{&inst.t1, &inst.t2, inst.attr, inst.mapping};
    seeded.greedy_selection = &selection;
    Result<Explain3DResult> r = solver.Solve(seeded);
    ASSERT_TRUE(r.ok());
    ExpectSameExplanations(r.value().explanations, cold.value().explanations);
    if (::testing::Test::HasFatalFailure()) break;
  }
}

// ---------------------------------------------------------------------------
// Stage2ConfigTag keys warm-start records and admission buckets, so it must
// change exactly when a config field can change a solve's answer.
// ---------------------------------------------------------------------------

TEST(Stage2ConfigTagTest, ChangesExactlyForResultAffectingFields) {
  // Binding every field by name: a new Explain3DConfig field stops this
  // compiling until it gets a row below.
  Explain3DConfig defaults;
  [[maybe_unused]] const auto& [alpha, beta, batch_size, theta_low,
                                theta_high, reward, use_pre_partitioning,
                                decompose_components, seed,
                                milp_max_constraints, milp_max_nodes,
                                exact_max_nodes, warm_start, portfolio,
                                num_threads] = defaults;

  struct Row {
    const char* field;
    std::function<void(Explain3DConfig*)> perturb;
    bool affects_results;
  };
  const Row rows[] = {
      {"alpha", [](Explain3DConfig* c) { c->alpha = 0.8; }, true},
      {"beta", [](Explain3DConfig* c) { c->beta = 0.8; }, true},
      {"batch_size", [](Explain3DConfig* c) { c->batch_size = 50; }, true},
      {"theta_low", [](Explain3DConfig* c) { c->theta_low = 0.2; }, true},
      {"theta_high", [](Explain3DConfig* c) { c->theta_high = 0.8; }, true},
      {"reward", [](Explain3DConfig* c) { c->reward = 10; }, true},
      {"use_pre_partitioning",
       [](Explain3DConfig* c) { c->use_pre_partitioning = false; }, true},
      {"decompose_components",
       [](Explain3DConfig* c) { c->decompose_components = false; }, true},
      // Seeds the partitioner's refinement, so it moves unit boundaries.
      {"seed", [](Explain3DConfig* c) { c->seed = 2; }, true},
      {"milp_max_constraints",
       [](Explain3DConfig* c) { c->milp_max_constraints = 100; }, true},
      {"milp_max_nodes", [](Explain3DConfig* c) { c->milp_max_nodes = 100; },
       true},
      {"exact_max_nodes",
       [](Explain3DConfig* c) { c->exact_max_nodes = 100; }, true},
      // Bit-identity contract: warm starts, the portfolio's floors, and
      // thread counts never change an answer (a degraded portfolio answer
      // only replaces a failed call, and records are taken from
      // fully-optimal runs alone).
      {"warm_start", [](Explain3DConfig* c) { c->warm_start = false; }, false},
      {"portfolio", [](Explain3DConfig* c) { c->portfolio = true; }, false},
      {"num_threads", [](Explain3DConfig* c) { c->num_threads = 3; }, false},
  };
  const std::string base = Stage2ConfigTag(defaults);
  for (const Row& row : rows) {
    SCOPED_TRACE(row.field);
    Explain3DConfig config;
    row.perturb(&config);
    EXPECT_EQ(Stage2ConfigTag(config) != base, row.affects_results);
  }
}

// ---------------------------------------------------------------------------
// The stage-1 cache key must change exactly when an input of the cached
// front end (execution, provenance, canonicalization, interning, blocking)
// changes: a miss otherwise rebuilds for nothing, a hit would serve
// another request's artifacts.
// ---------------------------------------------------------------------------

TEST(Stage1CacheKeyTest, MissesExactlyWhenAStage1InputChanges) {
  SyntheticOptions gen;
  gen.n = 30;
  gen.d = 0.25;
  gen.v = 180;
  gen.seed = 5;
  SyntheticDataset data = GenerateSynthetic(gen).value();
  struct Row {
    const char* input;
    std::function<void(PipelineInput*, Explain3DConfig*)> perturb;
    bool misses;
  };
  const Row rows[] = {
      {"sql1",
       [](PipelineInput* in, Explain3DConfig*) {
         in->sql1 += " WHERE val > 0";
       },
       true},
      {"sql2",
       [](PipelineInput* in, Explain3DConfig*) {
         in->sql2 += " WHERE val > 0";
       },
       true},
      {"attribute match",
       [](PipelineInput* in, Explain3DConfig*) {
         in->attr_matches.front().relation = SemanticRelation::kMoreGeneral;
       },
       true},
      {"use_blocking",
       [](PipelineInput* in, Explain3DConfig*) {
         in->mapping_options.use_blocking = false;
       },
       true},
      // Scoring, calibration, and stage 2 run live on every call.
      {"min_probability",
       [](PipelineInput* in, Explain3DConfig*) {
         in->mapping_options.min_probability = 0.1;
       },
       false},
      {"metric",
       [](PipelineInput* in, Explain3DConfig*) {
         in->mapping_options.metric = StringMetric::kJaro;
       },
       false},
      {"calibration_gold",
       [](PipelineInput* in, Explain3DConfig*) {
         in->calibration_gold = {{0, 0}, {1, 1}};
       },
       false},
      {"num_threads",
       [](PipelineInput*, Explain3DConfig* c) { c->num_threads = 2; }, false},
      {"config", [](PipelineInput*, Explain3DConfig* c) { c->alpha = 0.8; },
       false},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.input);
    MatchingContext context;
    PipelineInput input;
    input.db1 = &data.db1;
    input.db2 = &data.db2;
    input.sql1 = data.sql1;
    input.sql2 = data.sql2;
    input.attr_matches = data.attr_matches;
    input.mapping_options.min_probability = 1e-4;
    input.matching_context = &context;
    Explain3DConfig config;
    config.num_threads = 1;
    ASSERT_TRUE(RunExplain3D(input, config).ok());
    row.perturb(&input, &config);
    Result<PipelineResult> second = RunExplain3D(input, config);
    ASSERT_TRUE(second.ok()) << second.status().ToString();
    EXPECT_EQ(context.misses(), row.misses ? 2u : 1u);
    EXPECT_EQ(context.hits(), row.misses ? 0u : 1u);
  }
}

}  // namespace
}  // namespace explain3d
