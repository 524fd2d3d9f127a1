// Solver oracle / determinism harness (ROADMAP 2): every stage-2 solving
// configuration — serial branch & bound, wave-parallel branch & bound,
// warm-started (incumbent-floored) runs, and greedy-seeded
// portfolio-style runs — must return the brute-force oracle's exact
// objective AND the identical tie-broken solution, bit for bit.
//
// Instances are deliberately tie-rich: impacts and match probabilities
// come from tiny discrete sets, so distinct selections frequently score
// exactly equal and the deterministic tie-break (first-found in serial
// DFS order / lowest sequence number in the MILP wave order) is
// load-bearing, not incidental.
//
// Replayable: EXPLAIN3D_SOLVER_SEED_BASE and EXPLAIN3D_SOLVER_SEEDS
// select the sweep (e.g. SEEDS=100 for the full acceptance sweep); a
// failure prints its seed via SCOPED_TRACE.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "baselines/greedy.h"
#include "common/cancel.h"
#include "common/rng.h"
#include "core/exact_solver.h"
#include "core/incumbents.h"
#include "core/milp_encoder.h"
#include "core/partitioning.h"
#include "core/solver.h"
#include "milp/branch_and_bound.h"
#include "milp/brute_force.h"

namespace explain3d {
namespace {

size_t EnvSize(const char* name, size_t fallback) {
  const char* s = std::getenv(name);
  if (s == nullptr) return fallback;
  long v = std::atol(s);
  return v > 0 ? static_cast<size_t>(v) : fallback;
}

size_t SeedBase() { return EnvSize("EXPLAIN3D_SOLVER_SEED_BASE", 1); }
size_t SeedCount() { return EnvSize("EXPLAIN3D_SOLVER_SEEDS", 30); }

CanonicalRelation MakeRelation(const std::vector<double>& impacts,
                               const char* prefix) {
  CanonicalRelation rel;
  rel.key_attrs = {"k"};
  rel.agg = AggFunc::kCount;
  for (size_t i = 0; i < impacts.size(); ++i) {
    CanonicalTuple t;
    t.key = {Value(prefix + std::to_string(i))};
    t.impact = impacts[i];
    t.prov_rows = {i};
    rel.tuples.push_back(std::move(t));
  }
  return rel;
}

struct OracleInstance {
  CanonicalRelation t1, t2;
  AttributeMatch attr;
  TupleMapping mapping;
};

/// Sub-problem sizes 2–12 total tuples (2–6 when `small`, sized for the
/// MILP brute-force enumeration limit); impacts from {1, 2} and
/// probabilities from a 4-value set force exact objective ties. Matches
/// are capped at 16 so the selection-enumeration oracle stays cheap.
OracleInstance MakeOracleInstance(uint64_t seed, bool small = false) {
  Rng rng(seed);
  OracleInstance inst;
  // Small instances keep the MILP's integer-domain product (binaries AND
  // integral impact variables) inside the brute-force enumeration limit.
  size_t span = small ? 2 : 6;
  size_t edge_cap = small ? 4 : 16;
  size_t n1 = 1 + rng.Index(span);
  size_t n2 = 1 + rng.Index(span);
  static const double kProbs[] = {0.3, 0.5, 0.7, 0.85};
  std::vector<double> i1, i2;
  for (size_t i = 0; i < n1; ++i) {
    i1.push_back(static_cast<double>(1 + rng.Index(2)));
  }
  for (size_t j = 0; j < n2; ++j) {
    i2.push_back(static_cast<double>(1 + rng.Index(2)));
  }
  inst.t1 = MakeRelation(i1, "L");
  inst.t2 = MakeRelation(i2, "R");
  inst.attr = AttributeMatch::Single(
      "k", "k", static_cast<SemanticRelation>(rng.Index(3)));
  for (size_t i = 0; i < n1; ++i) {
    for (size_t j = 0; j < n2; ++j) {
      if (inst.mapping.size() < edge_cap && rng.Bernoulli(0.5)) {
        inst.mapping.emplace_back(i, j, kProbs[rng.Index(4)]);
      }
    }
  }
  return inst;
}

/// Engine-independent oracle: enumerate EVERY match-id subset, score the
/// feasible ones with ScoreUnitSelection (the canonical decode of a
/// selection), and return the maximum — the exact optimum of the whole
/// problem by exhaustion. O(2^m) with m ≤ 16.
double SelectionOracle(const OracleInstance& inst,
                       const ProbabilityModel& prob,
                       const SubProblem& whole) {
  const size_t m = whole.match_ids.size();
  double best = -std::numeric_limits<double>::infinity();
  std::vector<size_t> sel;
  for (uint32_t mask = 0; mask < (1u << m); ++mask) {
    sel.clear();
    for (size_t k = 0; k < m; ++k) {
      if (mask & (1u << k)) sel.push_back(whole.match_ids[k]);
    }
    Result<double> s = ScoreUnitSelection(inst.t1, inst.t2, inst.mapping,
                                          inst.attr, prob, whole, sel);
    if (s.ok() && s.value() > best) best = s.value();
  }
  return best;
}

SubProblem WholeProblem(const OracleInstance& inst) {
  SubProblem whole;
  for (size_t i = 0; i < inst.t1.size(); ++i) whole.t1_ids.push_back(i);
  for (size_t j = 0; j < inst.t2.size(); ++j) whole.t2_ids.push_back(j);
  for (size_t k = 0; k < inst.mapping.size(); ++k) {
    whole.match_ids.push_back(k);
  }
  return whole;
}

/// Bitwise equality of two explanation sets — the determinism contract,
/// not a tolerance check. EXPECT_EQ on the doubles is deliberate.
void ExpectBitIdentical(const ExplanationSet& a, const ExplanationSet& b) {
  ASSERT_EQ(a.delta.size(), b.delta.size());
  for (size_t i = 0; i < a.delta.size(); ++i) {
    EXPECT_EQ(a.delta[i].side, b.delta[i].side) << "delta " << i;
    EXPECT_EQ(a.delta[i].tuple, b.delta[i].tuple) << "delta " << i;
  }
  ASSERT_EQ(a.value_changes.size(), b.value_changes.size());
  for (size_t i = 0; i < a.value_changes.size(); ++i) {
    EXPECT_EQ(a.value_changes[i].side, b.value_changes[i].side) << i;
    EXPECT_EQ(a.value_changes[i].tuple, b.value_changes[i].tuple) << i;
    EXPECT_EQ(a.value_changes[i].old_impact, b.value_changes[i].old_impact)
        << i;
    EXPECT_EQ(a.value_changes[i].new_impact, b.value_changes[i].new_impact)
        << i;
  }
  ASSERT_EQ(a.evidence.size(), b.evidence.size());
  for (size_t i = 0; i < a.evidence.size(); ++i) {
    EXPECT_EQ(a.evidence[i].t1, b.evidence[i].t1) << "evidence " << i;
    EXPECT_EQ(a.evidence[i].t2, b.evidence[i].t2) << "evidence " << i;
    EXPECT_EQ(a.evidence[i].p, b.evidence[i].p) << "evidence " << i;
  }
  EXPECT_EQ(a.log_probability, b.log_probability);
}

/// Maps an evidence mapping back to global match ids (sorted) — what
/// Explain3DInput::greedy_selection expects.
std::vector<size_t> SelectionOf(const TupleMapping& mapping,
                                const TupleMapping& evidence) {
  std::vector<size_t> sel;
  for (const TupleMatch& ev : evidence) {
    for (size_t k = 0; k < mapping.size(); ++k) {
      if (mapping[k].t1 == ev.t1 && mapping[k].t2 == ev.t2) {
        sel.push_back(k);
        break;
      }
    }
  }
  std::sort(sel.begin(), sel.end());
  return sel;
}

// ---------------------------------------------------------------------------
// MILP level: wave-parallel and incumbent-floored solves against the
// brute-force oracle.
// ---------------------------------------------------------------------------

void CheckMilpOracle(uint64_t seed, size_t* oracle_runs) {
  OracleInstance inst = MakeOracleInstance(seed, /*small=*/true);
  ProbabilityModel prob((Explain3DConfig()));
  SubProblem whole = WholeProblem(inst);
  MilpEncoder encoder(inst.t1, inst.t2, inst.mapping, inst.attr, prob);
  EncodedMilp enc = encoder.Encode(whole);

  Result<milp::Solution> oracle = milp::BruteForceSolve(enc.model);
  if (!oracle.ok() &&
      oracle.status().code() == StatusCode::kResourceExhausted) {
    // Integer domain too large to enumerate for this seed; the sweep
    // asserts below that most seeds DO run the oracle.
    return;
  }
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  ASSERT_EQ(oracle.value().status, milp::SolveStatus::kOptimal);
  ++*oracle_runs;

  milp::MilpSolver serial(enc.model);
  milp::Solution base = serial.Solve();
  ASSERT_EQ(base.status, milp::SolveStatus::kOptimal);
  EXPECT_NEAR(base.objective, oracle.value().objective, 1e-6);

  for (size_t threads : {size_t{2}, size_t{4}}) {
    milp::MilpOptions mopts;
    mopts.num_threads = threads;
    milp::MilpSolver solver(enc.model, mopts);
    milp::Solution sol = solver.Solve();
    ASSERT_EQ(sol.status, milp::SolveStatus::kOptimal)
        << "threads " << threads;
    // Bit-identical to serial: same solution VECTOR (the tie-break), same
    // objective, same node count.
    EXPECT_EQ(sol.values, base.values) << "threads " << threads;
    EXPECT_EQ(sol.objective, base.objective) << "threads " << threads;
    EXPECT_EQ(solver.stats().nodes, serial.stats().nodes)
        << "threads " << threads;
  }

  // An admissible floor (the optimum minus the margin) must not change
  // the answer, and can only shrink the search.
  milp::MilpOptions fopts;
  fopts.incumbent_floor = base.objective - kWarmStartMargin;
  milp::MilpSolver floored(enc.model, fopts);
  milp::Solution fsol = floored.Solve();
  ASSERT_EQ(fsol.status, milp::SolveStatus::kOptimal);
  EXPECT_EQ(fsol.values, base.values);
  EXPECT_EQ(fsol.objective, base.objective);
  EXPECT_LE(floored.stats().nodes, serial.stats().nodes);
}

TEST(SolverOracleTest, MilpWavesAndFloorsMatchBruteForce) {
  size_t oracle_runs = 0;
  for (size_t seed = SeedBase(); seed < SeedBase() + SeedCount(); ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    CheckMilpOracle(seed, &oracle_runs);
    if (::testing::Test::HasFatalFailure()) break;
  }
  // The sweep is meaningless if the enumeration limit skipped everything.
  EXPECT_GE(oracle_runs, SeedCount() / 2);
}

// ---------------------------------------------------------------------------
// Solver level: cold / parallel / warm-started / greedy-seeded full
// solves, all bit-identical and equal to the oracle objective.
// ---------------------------------------------------------------------------

void CheckSolverOracle(uint64_t seed) {
  OracleInstance inst = MakeOracleInstance(seed);
  ProbabilityModel prob((Explain3DConfig()));
  SubProblem whole = WholeProblem(inst);
  double oracle = SelectionOracle(inst, prob, whole);
  ASSERT_TRUE(std::isfinite(oracle));

  // Cold reference solve (serial), recording incumbents.
  Explain3DConfig config;
  config.num_threads = 1;
  SolverIncumbents rec;
  Explain3DInput cold_input{&inst.t1, &inst.t2, inst.attr, inst.mapping};
  cold_input.incumbents_out = &rec;
  Result<Explain3DResult> cold = Explain3DSolver(config).Solve(cold_input);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ASSERT_TRUE(cold.value().stats.all_optimal);
  ASSERT_TRUE(rec.complete);
  EXPECT_EQ(cold.value().stats.warm_start_hits, 0u);

  // The full-problem objective equals the exhaustive selection oracle's.
  EXPECT_NEAR(cold.value().explanations.log_probability, oracle, 1e-6);

  // Greedy selection for the portfolio-style seeded runs.
  ExplanationSet greedy =
      GreedyBaseline(inst.t1, inst.t2, inst.mapping, inst.attr, prob);
  std::vector<size_t> selection = SelectionOf(inst.mapping, greedy.evidence);

  struct Variant {
    const char* name;
    size_t threads;
    bool warm;
    bool seeded;
  };
  const Variant variants[] = {
      {"threads=2", 2, false, false},  {"threads=4", 4, false, false},
      {"warm", 1, true, false},        {"warm+threads=4", 4, true, false},
      {"greedy-seeded", 1, false, true},
      {"warm+greedy+threads=2", 2, true, true},
  };
  for (const Variant& v : variants) {
    SCOPED_TRACE(v.name);
    Explain3DConfig vconfig;
    vconfig.num_threads = v.threads;
    Explain3DInput in{&inst.t1, &inst.t2, inst.attr, inst.mapping};
    if (v.warm) in.warm_start = &rec;
    if (v.seeded) in.greedy_selection = &selection;
    Result<Explain3DResult> r = Explain3DSolver(vconfig).Solve(in);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r.value().stats.all_optimal);
    ExpectBitIdentical(r.value().explanations, cold.value().explanations);
    if (v.warm) {
      // Every unit that runs a search (milp_solved + exact_solved; the
      // empty-match units never consult the store) seeds from its own
      // recording — the fingerprints match by construction.
      EXPECT_EQ(r.value().stats.warm_start_hits,
                cold.value().stats.milp_solved +
                    cold.value().stats.exact_solved);
    } else {
      EXPECT_EQ(r.value().stats.warm_start_hits, 0u);
    }
  }
}

TEST(SolverOracleTest, SolverVariantsBitIdenticalAndMatchOracle) {
  for (size_t seed = SeedBase(); seed < SeedBase() + SeedCount(); ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    CheckSolverOracle(seed);
    if (::testing::Test::HasFatalFailure()) break;
  }
}

// ---------------------------------------------------------------------------
// Shape sharing: a unit whose local shape equals an earlier unit's is not
// solved but takes that unit's answer mapped onto its own ids. Every unit
// must still get exactly the answer its own solve produces, so the
// reference here solves each connected component as a standalone
// instance, where it is the only unit and nothing can be shared.
// ---------------------------------------------------------------------------

/// One connected component of an instance as a standalone instance (local
/// ids in ascending global order, matches in mapping order — the unit the
/// solver builds for it), plus the global ids of its tuples.
struct Piece {
  OracleInstance inst;
  std::vector<size_t> g1, g2;
};

CanonicalRelation SubRelation(const CanonicalRelation& rel,
                              const std::vector<size_t>& ids) {
  CanonicalRelation sub = rel;
  sub.tuples.clear();
  for (size_t g : ids) sub.tuples.push_back(rel.tuples[g]);
  return sub;
}

std::vector<Piece> ComponentPieces(const OracleInstance& inst) {
  std::vector<Piece> pieces;
  for (const SubProblem& comp :
       ComponentSubproblems(inst.t1.size(), inst.t2.size(), inst.mapping)) {
    Piece p;
    p.g1 = comp.t1_ids;
    p.g2 = comp.t2_ids;
    p.inst.t1 = SubRelation(inst.t1, p.g1);
    p.inst.t2 = SubRelation(inst.t2, p.g2);
    p.inst.attr = inst.attr;
    auto local = [](const std::vector<size_t>& ids, size_t g) {
      return static_cast<size_t>(
          std::lower_bound(ids.begin(), ids.end(), g) - ids.begin());
    };
    for (size_t mid : comp.match_ids) {
      const TupleMatch& m = inst.mapping[mid];
      p.inst.mapping.emplace_back(local(p.g1, m.t1), local(p.g2, m.t2), m.p);
    }
    pieces.push_back(std::move(p));
  }
  return pieces;
}

/// What a piece's model is made of, compared by value: impacts in local
/// order and (local t1, local t2, p) per match in order.
using PieceShape =
    std::tuple<std::vector<double>, std::vector<double>,
               std::vector<std::tuple<size_t, size_t, double>>>;

PieceShape ShapeOf(const OracleInstance& inst) {
  PieceShape s;
  for (const CanonicalTuple& t : inst.t1.tuples) {
    std::get<0>(s).push_back(t.impact);
  }
  for (const CanonicalTuple& t : inst.t2.tuples) {
    std::get<1>(s).push_back(t.impact);
  }
  for (const TupleMatch& m : inst.mapping) {
    std::get<2>(s).emplace_back(m.t1, m.t2, m.p);
  }
  return s;
}

/// The sharing-free reference of a whole instance: every component solved
/// on its own, mapped back to global ids.
struct Reference {
  ExplanationSet answer;  ///< normalized and scored over the whole
  double objective_sum = 0;  ///< Σ component objectives
  size_t milp_solved = 0;    ///< components decoded from the MILP
  size_t exact_solved = 0;   ///< components decoded from assignment B&B
  size_t twins = 0;      ///< components with matches minus their shapes
  size_t rep_nodes = 0;  ///< cold nodes of the first piece of each shape
};

Reference SolvePieces(const OracleInstance& whole,
                      const Explain3DConfig& config) {
  Reference ref;
  std::set<PieceShape> seen;
  for (const Piece& p : ComponentPieces(whole)) {
    Result<Explain3DResult> r = Explain3DSolver(config).Solve(
        {&p.inst.t1, &p.inst.t2, p.inst.attr, p.inst.mapping});
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) return ref;
    const ExplanationSet& e = r.value().explanations;
    EXPECT_EQ(r.value().stats.shared_units, 0u);
    ref.objective_sum += e.log_probability;
    ref.milp_solved += r.value().stats.milp_solved;
    ref.exact_solved += r.value().stats.exact_solved;
    for (const ProvExplanation& d : e.delta) {
      ref.answer.delta.push_back(
          {d.side, (d.side == Side::kLeft ? p.g1 : p.g2)[d.tuple]});
    }
    for (const ValueExplanation& v : e.value_changes) {
      ref.answer.value_changes.push_back(
          {v.side, (v.side == Side::kLeft ? p.g1 : p.g2)[v.tuple],
           v.old_impact, v.new_impact});
    }
    for (const TupleMatch& m : e.evidence) {
      ref.answer.evidence.emplace_back(p.g1[m.t1], p.g2[m.t2], m.p);
    }
    if (p.inst.mapping.empty()) continue;
    if (seen.insert(ShapeOf(p.inst)).second) {
      ref.rep_nodes += r.value().stats.total_nodes;
    } else {
      ++ref.twins;
    }
  }
  ref.answer.Normalize();
  ProbabilityModel prob(config);
  ref.answer.log_probability =
      prob.Score(whole.t1, whole.t2, whole.mapping, ref.answer);
  return ref;
}

/// Appends `block` to `into` with its tuple ids shifted past the tuples
/// already there (the attribute match is the whole instance's).
void AppendBlock(OracleInstance* into, const OracleInstance& block) {
  size_t off1 = into->t1.size(), off2 = into->t2.size();
  for (const CanonicalTuple& t : block.t1.tuples) into->t1.tuples.push_back(t);
  for (const CanonicalTuple& t : block.t2.tuples) into->t2.tuples.push_back(t);
  for (const TupleMatch& m : block.mapping) {
    into->mapping.emplace_back(m.t1 + off1, m.t2 + off2, m.p);
  }
}

OracleInstance SmallInstance(const std::vector<double>& i1,
                             const std::vector<double>& i2,
                             const TupleMapping& mapping) {
  OracleInstance inst;
  inst.t1 = MakeRelation(i1, "L");
  inst.t2 = MakeRelation(i2, "R");
  inst.mapping = mapping;
  return inst;
}

/// `copies` shifted copies of the seed's oracle instance, interleaved with
/// units of unique shape, a 2×2 probe unit and its exact twin, and three
/// near-twins of the probe: one impact one ulp up, one p one ulp up, and
/// two equal-p matches with their endpoints swapped (the same match set in
/// another order). Probe and unique impacts lie outside the oracle's
/// {1, 2}, so no block can collide with another by accident.
OracleInstance MakeSharingInstance(uint64_t seed, size_t copies) {
  OracleInstance base = MakeOracleInstance(seed);
  const TupleMapping probe_matches = {
      {0, 0, 0.5}, {0, 1, 0.7}, {1, 1, 0.5}, {1, 0, 0.7}};
  OracleInstance probe = SmallInstance({3, 4}, {7, 3}, probe_matches);
  OracleInstance impact_ulp = probe;
  impact_ulp.t1.tuples[0].impact = std::nextafter(3.0, 4.0);
  OracleInstance p_ulp = probe;
  p_ulp.mapping[1].p = std::nextafter(0.7, 1.0);
  OracleInstance swapped = probe;
  std::swap(swapped.mapping[0], swapped.mapping[2]);
  const OracleInstance extras[] = {probe, impact_ulp, probe, p_ulp, swapped};

  OracleInstance whole;
  whole.t1 = MakeRelation({}, "L");
  whole.t2 = MakeRelation({}, "R");
  // The impact nudge is not integral; continuous impact variables keep
  // the MILP and the assignment solver on one model.
  whole.t1.integral_impacts = whole.t2.integral_impacts = false;
  whole.attr = base.attr;
  for (size_t c = 0; c < copies; ++c) {
    AppendBlock(&whole, base);
    double unique = 10.0 + static_cast<double>(c);
    AppendBlock(&whole, SmallInstance({unique}, {unique}, {{0, 0, 0.7}}));
    if (c < std::size(extras)) AppendBlock(&whole, extras[c]);
  }
  for (size_t c = copies; c < std::size(extras); ++c) {
    AppendBlock(&whole, extras[c]);
  }
  return whole;
}

void CheckSharingLeg(uint64_t seed) {
  const size_t kCopies = 4;
  OracleInstance whole = MakeSharingInstance(seed, kCopies);
  ProbabilityModel prob((Explain3DConfig()));
  Explain3DConfig serial;
  serial.num_threads = 1;
  Reference ref = SolvePieces(whole, serial);
  if (::testing::Test::HasFailure()) return;
  // The probe's exact twin always shares; the base instance's units with
  // matches (if it has any) repeat kCopies times.
  ASSERT_GE(ref.twins, 1u);

  // The base instance solved alone matches its own pieces, so each copy
  // checked against the pieces below equals that answer, shifted.
  OracleInstance single = MakeOracleInstance(seed);
  single.t1.integral_impacts = single.t2.integral_impacts = false;
  Result<Explain3DResult> alone = Explain3DSolver(serial).Solve(
      {&single.t1, &single.t2, single.attr, single.mapping});
  ASSERT_TRUE(alone.ok()) << alone.status().ToString();
  ExpectBitIdentical(alone.value().explanations,
                     SolvePieces(single, serial).answer);

  // Cold serial solve: the record for the warm runs, and the node count
  // of one solve per shape.
  SolverIncumbents rec;
  Explain3DInput cold_input{&whole.t1, &whole.t2, whole.attr, whole.mapping};
  cold_input.incumbents_out = &rec;
  Result<Explain3DResult> cold = Explain3DSolver(serial).Solve(cold_input);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ASSERT_TRUE(rec.complete);
  EXPECT_EQ(cold.value().stats.total_nodes, ref.rep_nodes);

  ExplanationSet greedy =
      GreedyBaseline(whole.t1, whole.t2, whole.mapping, whole.attr, prob);
  std::vector<size_t> selection = SelectionOf(whole.mapping, greedy.evidence);

  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    for (const char* mode : {"cold", "warm", "greedy"}) {
      SCOPED_TRACE(std::string(mode) + " threads=" + std::to_string(threads));
      Explain3DConfig config;
      config.num_threads = threads;
      Explain3DInput in{&whole.t1, &whole.t2, whole.attr, whole.mapping};
      if (std::string(mode) == "warm") in.warm_start = &rec;
      if (std::string(mode) == "greedy") in.greedy_selection = &selection;
      Result<Explain3DResult> r = Explain3DSolver(config).Solve(in);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      const Explain3DStats& stats = r.value().stats;
      ExpectBitIdentical(r.value().explanations, ref.answer);
      EXPECT_EQ(stats.shared_units, ref.twins);
      EXPECT_TRUE(stats.all_optimal);
      EXPECT_EQ(stats.milp_solved, ref.milp_solved);
      EXPECT_EQ(stats.exact_solved, ref.exact_solved);
      EXPECT_EQ(stats.warm_start_hits,
                in.warm_start != nullptr
                    ? stats.milp_solved + stats.exact_solved
                    : 0u);
    }
  }
}

TEST(SolverOracleTest, SharedShapesBitIdenticalToTheirOwnSolves) {
  for (size_t seed = SeedBase(); seed < SeedBase() + SeedCount(); ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    CheckSharingLeg(seed);
    if (::testing::Test::HasFatalFailure()) break;
  }
}

// A deadline that fires mid-solve fails the call with the token's status
// and still publishes a finite bound that sits above the optimum — also
// for twins, whose representatives may have finished, been interrupted,
// or never started.
TEST(SolverOracleTest, CancelMidSolveKeepsSharedBoundsAdmissible) {
  // Under ⊑, a complete 16×4 unit whose group impacts no member sum can
  // reach never prunes above the last level: 5^16 leaves, so the deadline
  // always lands inside it. Two copies sit between two sharing instances:
  // after them come twins of finished units and shapes never started.
  OracleInstance hard;
  hard.t1 = MakeRelation(std::vector<double>(16, 1.0), "H");
  hard.t2 = MakeRelation(std::vector<double>(4, 1000.0), "G");
  for (size_t i = 0; i < 16; ++i) {
    for (size_t j = 0; j < 4; ++j) hard.mapping.emplace_back(i, j, 0.5);
  }
  const AttributeMatch attr =
      AttributeMatch::Single("k", "k", SemanticRelation::kLessGeneral);
  OracleInstance whole = MakeSharingInstance(3, 4);
  OracleInstance tail = MakeSharingInstance(4, 2);
  whole.attr = tail.attr = attr;
  Explain3DConfig serial;
  serial.num_threads = 1;
  // Reference objectives of everything but the hard copies.
  Reference ref = SolvePieces(whole, serial);
  ASSERT_FALSE(::testing::Test::HasFailure());
  Reference tail_ref = SolvePieces(tail, serial);
  ASSERT_FALSE(::testing::Test::HasFailure());
  AppendBlock(&whole, hard);
  AppendBlock(&whole, hard);
  AppendBlock(&whole, tail);

  // Any feasible selection scores at most the optimum: all-removed here.
  ProbabilityModel prob((Explain3DConfig()));
  SubProblem hard_unit = WholeProblem(hard);
  Result<double> hard_floor = ScoreUnitSelection(
      hard.t1, hard.t2, hard.mapping, attr, prob, hard_unit, {});
  ASSERT_TRUE(hard_floor.ok());
  const double optimum_floor =
      ref.objective_sum + tail_ref.objective_sum + 2 * hard_floor.value();

  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Explain3DConfig config;
    config.num_threads = threads;
    config.exact_max_nodes = size_t{1} << 60;
    CancelToken token(0.05);
    double bound = std::numeric_limits<double>::quiet_NaN();
    Explain3DInput in{&whole.t1, &whole.t2, whole.attr, whole.mapping};
    in.cancel = &token;
    in.incumbent_bound_out = &bound;
    Result<Explain3DResult> r = Explain3DSolver(config).Solve(in);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
    EXPECT_EQ(r.status().code(), token.Check().code());
    ASSERT_TRUE(std::isfinite(bound));
    EXPECT_GE(bound, optimum_floor - 1e-6);
  }
}

// A mismatched fingerprint (here: a probability nudged after recording)
// must skip the seeding entirely — and still return the exact optimum.
TEST(SolverOracleTest, StaleFingerprintIsNeverConsulted) {
  OracleInstance inst = MakeOracleInstance(7);
  Explain3DConfig config;
  config.num_threads = 1;
  SolverIncumbents rec;
  Explain3DInput cold_input{&inst.t1, &inst.t2, inst.attr, inst.mapping};
  cold_input.incumbents_out = &rec;
  Result<Explain3DResult> cold = Explain3DSolver(config).Solve(cold_input);
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(rec.complete);
  ASSERT_FALSE(inst.mapping.empty());

  // Drift one probability below every tolerance: the objective barely
  // moves, but the fingerprint must change and the record must be
  // ignored (warm_start_hits == 0).
  OracleInstance drifted = inst;
  drifted.mapping[0].p += 1e-13;
  Explain3DInput in{&drifted.t1, &drifted.t2, drifted.attr, drifted.mapping};
  in.warm_start = &rec;
  Result<Explain3DResult> r = Explain3DSolver(config).Solve(in);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().stats.warm_start_hits, 0u);
  EXPECT_TRUE(r.value().stats.all_optimal);

  // And the drifted run must match ITS own cold solve exactly.
  Result<Explain3DResult> drifted_cold = Explain3DSolver(config).Solve(
      {&drifted.t1, &drifted.t2, drifted.attr, drifted.mapping});
  ASSERT_TRUE(drifted_cold.ok());
  ExpectBitIdentical(r.value().explanations,
                     drifted_cold.value().explanations);
}

}  // namespace
}  // namespace explain3d
