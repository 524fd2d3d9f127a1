#include "core/solver.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/exact_solver.h"
#include "core/milp_encoder.h"
#include "milp/branch_and_bound.h"

namespace explain3d {

namespace {

/// Records each tuple's position inside `sub` in the per-Solve position
/// maps (global id → local index). Entries of other sub-problems stay
/// behind, so a lookup is only meaningful for ids of `sub`.
void IndexPositions(const SubProblem& sub, std::vector<size_t>* pos1,
                    std::vector<size_t>* pos2) {
  for (size_t k = 0; k < sub.t1_ids.size(); ++k) (*pos1)[sub.t1_ids[k]] = k;
  for (size_t k = 0; k < sub.t2_ids.size(); ++k) (*pos2)[sub.t2_ids[k]] = k;
}

/// Splits one part into its connected components (indices stay global).
/// Components are numbered by first appearance over the part's T1 tuples,
/// T2 tuples, then matches — the unit order warm-start records align to —
/// and matches go with the component of their T1 endpoint. Partitioning
/// keeps both endpoints of every match inside its part, so the union-find
/// runs over the part's own tuples (T1 at [0, n1), T2 after).
std::vector<SubProblem> SplitIntoComponents(const SubProblem& part,
                                            const TupleMapping& mapping,
                                            std::vector<size_t>* pos1,
                                            std::vector<size_t>* pos2) {
  IndexPositions(part, pos1, pos2);
  const size_t n1 = part.t1_ids.size();
  auto node1 = [&](size_t mid) { return (*pos1)[mapping[mid].t1]; };
  auto node2 = [&](size_t mid) { return n1 + (*pos2)[mapping[mid].t2]; };
  std::vector<size_t> parent(part.num_tuples());
  for (size_t i = 0; i < parent.size(); ++i) parent[i] = i;
  auto find = [&](size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (size_t mid : part.match_ids) {
    size_t ra = find(node1(mid)), rb = find(node2(mid));
    if (ra != rb) parent[ra] = rb;
  }
  constexpr size_t kNone = std::numeric_limits<size_t>::max();
  std::vector<size_t> comp_of_root(parent.size(), kNone);
  std::vector<SubProblem> out;
  auto comp_of = [&](size_t node) -> SubProblem& {
    size_t& comp = comp_of_root[find(node)];
    if (comp == kNone) {
      comp = out.size();
      out.emplace_back();
    }
    return out[comp];
  };
  for (size_t k = 0; k < n1; ++k) {
    comp_of(k).t1_ids.push_back(part.t1_ids[k]);
  }
  for (size_t k = 0; k < part.t2_ids.size(); ++k) {
    comp_of(n1 + k).t2_ids.push_back(part.t2_ids[k]);
  }
  for (size_t mid : part.match_ids) {
    comp_of(node1(mid)).match_ids.push_back(mid);
  }
  return out;
}

/// A unit's local shape: the tuple counts, each tuple's impact bits in
/// local order, then (local T1 index, local T2 index, p bits) per match in
/// order. These are the only per-unit inputs MilpEncoder::Encode and the
/// assignment solver read — α/β terms, degree caps, aggregates,
/// integrality, and node limits are fixed for the whole Solve — so units
/// with equal keys get byte-identical models and, since both searches
/// visit in a fixed order, the same solution up to their id maps.
using ShapeKey = std::vector<uint64_t>;

struct ShapeKeyHash {
  size_t operator()(const ShapeKey& key) const {
    uint64_t h = key.size();
    for (uint64_t word : key) h = CounterHash(h, word);
    return static_cast<size_t>(h);
  }
};

uint64_t DoubleBits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Writes `unit`'s ShapeKey into `key`, reusing its buffer.
void BuildShapeKey(const SubProblem& unit, const CanonicalRelation& t1,
                   const CanonicalRelation& t2, const TupleMapping& mapping,
                   std::vector<size_t>* pos1, std::vector<size_t>* pos2,
                   ShapeKey* key) {
  IndexPositions(unit, pos1, pos2);
  key->clear();
  key->push_back(unit.t1_ids.size());
  key->push_back(unit.t2_ids.size());
  for (size_t g : unit.t1_ids) key->push_back(DoubleBits(t1.tuples[g].impact));
  for (size_t g : unit.t2_ids) key->push_back(DoubleBits(t2.tuples[g].impact));
  for (size_t mid : unit.match_ids) {
    const TupleMatch& m = mapping[mid];
    size_t i = (*pos1)[m.t1], j = (*pos2)[m.t2];
    E3D_CHECK(i < unit.t1_ids.size() && unit.t1_ids[i] == m.t1 &&
              j < unit.t2_ids.size() && unit.t2_ids[j] == m.t2)
        << "unit match references a tuple outside the unit";
    key->push_back(i);
    key->push_back(j);
    key->push_back(DoubleBits(m.p));
  }
}

/// Appends `rep`'s explanations rewritten onto its twin: each id moves to
/// the twin's id at the same local position. Impacts and probabilities
/// carry over as they are — equal shape keys made them bit-equal.
void AppendTwinExplanations(ExplanationSet* into, const ExplanationSet& from,
                            const SubProblem& rep, const SubProblem& twin,
                            std::vector<size_t>* pos1,
                            std::vector<size_t>* pos2) {
  IndexPositions(rep, pos1, pos2);
  auto id1 = [&](size_t g) { return twin.t1_ids[(*pos1)[g]]; };
  auto id2 = [&](size_t g) { return twin.t2_ids[(*pos2)[g]]; };
  auto id = [&](Side side, size_t g) {
    return side == Side::kLeft ? id1(g) : id2(g);
  };
  for (const ProvExplanation& e : from.delta) {
    into->delta.push_back({e.side, id(e.side, e.tuple)});
  }
  for (const ValueExplanation& e : from.value_changes) {
    into->value_changes.push_back(
        {e.side, id(e.side, e.tuple), e.old_impact, e.new_impact});
  }
  for (const TupleMatch& m : from.evidence) {
    into->evidence.emplace_back(id1(m.t1), id2(m.t2), m.p);
  }
}

/// What one independent unit solve produces; merged in unit order so the
/// combined result does not depend on scheduling.
struct UnitOutcome {
  Status status = Status::OK();
  ExplanationSet explanations;
  size_t total_nodes = 0;
  size_t milp_solved = 0;
  size_t exact_solved = 0;
  bool all_optimal = true;
  /// Admissible upper bound on this unit's optimal objective. Equal to
  /// the objective when the unit solved to optimality; an optimistic
  /// bound when a solver was interrupted mid-search; NaN when the unit
  /// never ran (entry cancel / skip) — the collection pass fills those
  /// with the search-free root bound.
  double bound = std::numeric_limits<double>::quiet_NaN();
  /// The unit's achieved objective (const edge terms included) — only
  /// meaningful when status is OK. Recorded into the warm-start
  /// incumbents together with the fingerprint and decode engine.
  double objective = 0;
  uint64_t fingerprint = 0;    ///< UnitFingerprint of the solved unit
  bool via_assignment = false;  ///< decoded by the assignment solver
  bool warm_hit = false;  ///< seeded from a fingerprint-matched incumbent
};

/// Feeds a double's bit pattern into the CounterHash chain — exact-match
/// semantics, so any drift in an impact or probability (even below every
/// comparison tolerance) invalidates the fingerprint.
uint64_t HashDouble(uint64_t h, double v) {
  return CounterHash(h, DoubleBits(v));
}

/// Fingerprint of everything that determines one unit's optimum: the
/// probability-model constants, aggregate functions, degree caps, the
/// unit's tuple ids and impacts, and its matches (endpoints +
/// probability bits). A warm-start incumbent is seeded only on an exact
/// fingerprint match — the guard that makes stale records harmless.
uint64_t UnitFingerprint(const SubProblem& unit, const CanonicalRelation& t1,
                         const CanonicalRelation& t2,
                         const TupleMapping& mapping,
                         const ProbabilityModel& prob, bool side1_capped,
                         bool side2_capped) {
  uint64_t h = 0x9e3779b97f4a7c15ull;
  h = HashDouble(h, prob.a);
  h = HashDouble(h, prob.b);
  h = HashDouble(h, prob.c);
  h = CounterHash(h, static_cast<uint64_t>(t1.agg));
  h = CounterHash(h, static_cast<uint64_t>(t2.agg));
  h = CounterHash(h, (side1_capped ? 1u : 0u) | (side2_capped ? 2u : 0u));
  for (size_t g : unit.t1_ids) {
    h = CounterHash(h, g);
    h = HashDouble(h, t1.tuples[g].impact);
  }
  for (size_t g : unit.t2_ids) {
    h = CounterHash(h, g);
    h = HashDouble(h, t2.tuples[g].impact);
  }
  for (size_t mid : unit.match_ids) {
    const TupleMatch& m = mapping[mid];
    h = CounterHash(h, mid);
    h = CounterHash(h, m.t1);
    h = CounterHash(h, m.t2);
    h = HashDouble(h, m.p);
  }
  return h;
}

void AppendExplanations(ExplanationSet* into, const ExplanationSet& from) {
  into->delta.insert(into->delta.end(), from.delta.begin(), from.delta.end());
  into->value_changes.insert(into->value_changes.end(),
                             from.value_changes.begin(),
                             from.value_changes.end());
  into->evidence.insert(into->evidence.end(), from.evidence.begin(),
                        from.evidence.end());
}

/// Solves one unit (a connected component or an undecomposed part).
/// Thread-safe: only reads the shared inputs and writes its own outcome.
/// `cancel` is polled on entry (the between-sub-problems cancellation
/// point) and handed to both solvers for node-granularity polling.
/// `warm` (nullable) is the unit's warm-start record; it is consulted
/// only when its fingerprint matches. `threads` sizes the MILP's
/// wave-parallel LP solves (bit-identical for every value).
UnitOutcome SolveUnit(const SubProblem& unit, const CanonicalRelation& t1,
                      const CanonicalRelation& t2,
                      const Explain3DInput& input, const MilpEncoder& encoder,
                      const ProbabilityModel& prob,
                      const Explain3DConfig& config,
                      const CancelToken* cancel, const UnitIncumbent* warm,
                      size_t threads) {
  UnitOutcome out;
  out.status = CheckCancel(cancel);
  if (!out.status.ok()) return out;
  out.fingerprint = UnitFingerprint(unit, t1, t2, input.mapping, prob,
                                    encoder.side1_capped(),
                                    encoder.side2_capped());
  if (unit.match_ids.empty()) {
    // No candidate matches: every tuple is a provenance explanation.
    for (size_t g : unit.t1_ids) {
      out.explanations.delta.push_back({Side::kLeft, g});
    }
    for (size_t g : unit.t2_ids) {
      out.explanations.delta.push_back({Side::kRight, g});
    }
    // The all-delta solution IS this unit's optimum: its bound.
    out.bound = prob.a *
                static_cast<double>(unit.t1_ids.size() + unit.t2_ids.size());
    out.objective = out.bound;
    return out;
  }

  // Assemble the unit's prune-only floor: the warm-start incumbent (only
  // on an exact fingerprint match) and/or the greedy selection's score
  // restricted to this unit. Both sit provably below the optimum after
  // the kWarmStartMargin haircut, so they cut search without ever
  // changing the accepted solution.
  double floor_obj = std::numeric_limits<double>::quiet_NaN();
  bool skip_milp_attempt = false;
  if (warm != nullptr && warm->fingerprint == out.fingerprint) {
    out.warm_hit = true;
    floor_obj = warm->objective;
    // The recording run decoded this unit via the assignment solver —
    // the MILP attempt would deterministically hit its node limit and
    // fall back anyway (or, floored, could finish and switch the decode
    // engine). Skipping it keeps warm ≡ cold and saves the wasted nodes.
    skip_milp_attempt = warm->via_assignment;
  }
  if (input.greedy_selection != nullptr) {
    Result<double> g =
        ScoreUnitSelection(t1, t2, input.mapping, input.attr, prob, unit,
                           *input.greedy_selection);
    if (g.ok() && (!std::isfinite(floor_obj) || g.value() > floor_obj)) {
      floor_obj = g.value();
    }
  }

  size_t est = EstimateMilpConstraints(unit, encoder.side1_capped(),
                                       encoder.side2_capped());
  if (est <= config.milp_max_constraints && !skip_milp_attempt) {
    EncodedMilp enc = encoder.Encode(unit);
    // First attempt is floored when a floor exists; a floored run that
    // fails to prove optimality (node limit, infeasible floor artifact)
    // is rerun fully cold so the fallback decision below never depends
    // on the floor — a bad floor costs time, never determinism.
    for (bool floored : {std::isfinite(floor_obj), false}) {
      milp::MilpOptions mopts;
      // The wall-clock budget is the cancel token's job: a fired token
      // FAILS the call instead of truncating the search, so results never
      // depend on machine speed. The node limit stays — it fires at the
      // same node count everywhere, so its fallback is deterministic.
      mopts.time_limit_seconds = milp::kInfinity;
      mopts.max_nodes = config.milp_max_nodes;
      mopts.cancel = cancel;
      mopts.num_threads = threads;
      if (floored) mopts.incumbent_floor = floor_obj - kWarmStartMargin;
      milp::MilpSolver milp_solver(enc.model, mopts);
      milp::Solution sol = milp_solver.Solve();
      out.total_nodes += milp_solver.stats().nodes;
      if (sol.status == milp::SolveStatus::kInterrupted) {
        // The abandoned search still proves an optimistic bound (recorded
        // before the incumbent was wiped; never tightened by the floor).
        // +inf means the interrupt landed before the root LP solved — the
        // collection pass substitutes the assignment solver's root bound
        // then.
        out.bound = milp_solver.stats().best_bound;
        out.status = CheckCancel(cancel);
        if (out.status.ok()) {
          // Interrupted with a live token: the milp.node fault probe fired
          // (common/fault.h) — the only other trigger of kInterrupted.
          // Surface the transient, retryable code.
          out.status =
              Status::Unavailable("injected fault interrupted the MILP solve");
        }
        return out;
      }
      if (sol.status == milp::SolveStatus::kOptimal) {
        AppendExplanations(&out.explanations,
                           encoder.Decode(unit, enc, sol.values));
        ++out.milp_solved;
        out.bound = sol.objective;
        out.objective = sol.objective;
        return out;
      }
      if (floored) continue;  // defensive cold rerun
      E3D_LOG(kWarn) << "MILP sub-problem returned "
                     << milp::SolveStatusName(sol.status)
                     << "; falling back to the assignment solver";
      break;
    }
  }

  // An interrupted exact solve writes its root bound straight into
  // out.bound (and leaves it NaN on a non-cancellation failure). The
  // floor rides along as the solver's warm objective (it applies the
  // margin and its own cold-rerun defense internally).
  Result<ExactSolveResult> exact =
      SolveComponentExact(t1, t2, input.mapping, input.attr, prob, unit,
                          config.exact_max_nodes, cancel, &out.bound,
                          floor_obj);
  if (!exact.ok()) {
    out.status = exact.status();
    return out;
  }
  out.total_nodes += exact.value().nodes;
  out.all_optimal = exact.value().proven_optimal;
  out.bound = exact.value().bound;
  out.objective = exact.value().objective;
  out.via_assignment = true;
  AppendExplanations(&out.explanations, exact.value().explanations);
  ++out.exact_solved;
  return out;
}

}  // namespace

Result<Explain3DResult> Explain3DSolver::Solve(
    const Explain3DInput& input) const {
  if (input.t1 == nullptr || input.t2 == nullptr) {
    return Status::InvalidArgument("canonical relations must be provided");
  }
  const CanonicalRelation& t1 = *input.t1;
  const CanonicalRelation& t2 = *input.t2;
  for (const TupleMatch& m : input.mapping) {
    if (m.t1 >= t1.size() || m.t2 >= t2.size()) {
      return Status::InvalidArgument("mapping references missing tuples");
    }
    if (!(m.p > 0.0 && m.p < 1.0)) {
      return Status::InvalidArgument(
          "match probabilities must lie strictly inside (0, 1); clamp "
          "with PruneAndClamp first");
    }
  }

  Explain3DResult result;
  Timer total_timer;

  // Section 4: bounded-size sub-problems.
  E3D_ASSIGN_OR_RETURN(
      std::vector<SubProblem> parts,
      SmartPartition(t1.size(), t2.size(), input.mapping, config_,
                     &result.stats.partition));

  MilpEncoder encoder(t1, t2, input.mapping, input.attr, prob_);

  Timer solve_timer;

  // Global id → position in the part or unit at hand: sized once per
  // call and reused by the component split, the shape keys, and the twin
  // remapping.
  std::vector<size_t> pos1(t1.size()), pos2(t2.size());

  // Flatten partitions into the independent units stage 2 actually solves
  // (per-part connected components when decomposition is on).
  std::vector<SubProblem> units;
  for (SubProblem& part : parts) {
    if (part.num_tuples() == 0) continue;
    if (config_.decompose_components) {
      std::vector<SubProblem> split =
          SplitIntoComponents(part, input.mapping, &pos1, &pos2);
      for (SubProblem& unit : split) units.push_back(std::move(unit));
    } else {
      units.push_back(std::move(part));
    }
  }
  result.stats.num_subproblems = units.size();

  // Shape sharing: only the first unit of each ShapeKey (its
  // representative) is solved; every later twin takes that answer mapped
  // onto its own ids after the join. Units without matches are trivial
  // and always solve themselves. rep_of[i] == i marks a representative.
  std::vector<size_t> rep_of(units.size());
  std::vector<size_t> reps;
  {
    std::unordered_map<ShapeKey, size_t, ShapeKeyHash> first_of_shape;
    ShapeKey key;
    for (size_t i = 0; i < units.size(); ++i) {
      rep_of[i] = i;
      if (!units[i].match_ids.empty()) {
        BuildShapeKey(units[i], t1, t2, input.mapping, &pos1, &pos2, &key);
        rep_of[i] = first_of_shape.try_emplace(key, i).first->second;
      }
      if (rep_of[i] == i) reps.push_back(i);
    }
  }

  // Cancellation scope of this solve: the caller's token. A fired token
  // FAILS the call with its status — it can never switch a component to
  // a different solver mid-run, so surviving results stay bit-identical
  // under any slowdown (TSan, load, cold caches).
  const CancelToken* cancel = input.cancel;

  // Solve every representative independently — concurrently when
  // configured — into an outcome slot per unit, then merge in unit order.
  // The merged result is bit-identical for any thread count.
  size_t threads = ResolveThreads(config_.num_threads);
  // The warm-start record is consulted only when it covers exactly this
  // unit decomposition; per-unit fingerprints then guard every seed.
  const SolverIncumbents* warm = input.warm_start;
  if (warm != nullptr &&
      (!warm->complete || warm->units.size() != units.size())) {
    warm = nullptr;
  }
  // Sharing leaves a handful of large representatives among thousands of
  // tiny ones, and the largest alone can outlast all the rest. Workers
  // claim representatives one at a time, most matches first, so the large
  // ones start at once and the loop ends close to the longest single
  // solve, wherever that unit sits in unit order. The order of work never
  // reaches the result: outcomes land in per-unit slots.
  std::stable_sort(reps.begin(), reps.end(), [&](size_t a, size_t b) {
    return units[a].match_ids.size() > units[b].match_ids.size();
  });
  std::vector<UnitOutcome> outcomes(units.size());
  std::atomic<size_t> next_rep{0};
  std::atomic<bool> failed{false};
  ParallelFor(threads, std::min(threads, reps.size()), [&](size_t) {
    for (size_t r = next_rep++; r < reps.size(); r = next_rep++) {
      // Once any unit fails the whole Solve returns its error, so skip
      // the remaining units instead of burning minutes on a doomed call
      // (the serial loop bailed out on the first error too). SolveUnit's
      // entry poll is the per-sub-problem cancellation point.
      if (failed.load(std::memory_order_relaxed)) return;
      const size_t i = reps[r];
      outcomes[i] =
          SolveUnit(units[i], t1, t2, input, encoder, prob_, config_, cancel,
                    warm != nullptr ? &warm->units[i] : nullptr, threads);
      if (!outcomes[i].status.ok()) {
        failed.store(true, std::memory_order_relaxed);
      }
    }
  });

  if (input.incumbent_bound_out != nullptr) {
    // Units partition the tuples and matches, so the per-unit objectives
    // (and hence their admissible bounds) sum to a bound on the full
    // log-probability score. A twin's model is its representative's, and
    // so is its bound. Units that never ran — entry cancel, or skipped
    // after another unit failed — get the search-free root bound; if even
    // that fails the total stays NaN.
    double total = 0;
    for (size_t i = 0; i < units.size(); ++i) {
      double b = outcomes[rep_of[i]].bound;
      if (!std::isfinite(b)) {
        Result<double> root = ComponentOptimisticBound(
            t1, t2, input.mapping, input.attr, prob_, units[i]);
        if (!root.ok()) {
          total = std::numeric_limits<double>::quiet_NaN();
          break;
        }
        b = root.value();
      }
      total += b;
    }
    *input.incumbent_bound_out = total;
  }

  // Twins are filled in here, after the join: a twin reports its
  // representative's engine, optimality, and warm-start hit, but expands
  // no nodes of its own.
  for (size_t i = 0; i < units.size(); ++i) {
    const UnitOutcome& out = outcomes[rep_of[i]];
    if (!out.status.ok()) return out.status;
    if (rep_of[i] == i) {
      AppendExplanations(&result.explanations, out.explanations);
      result.stats.total_nodes += out.total_nodes;
    } else {
      AppendTwinExplanations(&result.explanations, out.explanations,
                             units[rep_of[i]], units[i], &pos1, &pos2);
      ++result.stats.shared_units;
    }
    result.stats.milp_solved += out.milp_solved;
    result.stats.exact_solved += out.exact_solved;
    result.stats.all_optimal &= out.all_optimal;
    result.stats.warm_start_hits += out.warm_hit ? 1 : 0;
  }
  result.stats.solve_seconds = solve_timer.Seconds();

  result.explanations.Normalize();
  result.explanations.log_probability =
      prob_.Score(t1, t2, input.mapping, result.explanations);

  if (input.incumbents_out != nullptr) {
    // Record what this solve proved, in unit order. Only a fully-optimal
    // run is marked complete (storable): a truncated unit's incumbent is
    // feasible but unproven, and seeding from it could legitimize a
    // different truncation point on the next run. A twin records its
    // representative's optimum under its own fingerprint.
    SolverIncumbents rec;
    rec.units.reserve(units.size());
    for (size_t i = 0; i < units.size(); ++i) {
      const UnitOutcome& out = outcomes[rep_of[i]];
      uint64_t fingerprint =
          rep_of[i] == i
              ? out.fingerprint
              : UnitFingerprint(units[i], t1, t2, input.mapping, prob_,
                                encoder.side1_capped(),
                                encoder.side2_capped());
      rec.units.push_back({fingerprint, out.objective, out.via_assignment});
    }
    rec.objective = result.explanations.log_probability;
    rec.complete = result.stats.all_optimal;
    *input.incumbents_out = std::move(rec);
  }
  return result;
}

}  // namespace explain3d
