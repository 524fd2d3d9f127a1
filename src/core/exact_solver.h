// Structure-exploiting exact solver for EXP-3D sub-problems.
//
// The MILP of Section 3.2 has a special shape: under a valid mapping one
// side (the "assigning" side) has degree ≤ 1, so a solution is exactly an
// assignment of each assigning-side tuple to one adjacent other-side tuple
// or to removal; the other side's keep/remove status and the optimal
// value-based explanations are then implied:
//
//   * an other-side tuple is kept iff it receives ≥ 1 assignment
//     (completeness coverage),
//   * within a group whose impact sums disagree, exactly one value change
//     reconciles it (changing the group head to the member sum is always
//     feasible), costing c − b; matching sums cost nothing.
//
// This enables a branch & bound over per-tuple assignment choices with an
// admissible bound, which scales to the component sizes where the generic
// MILP (dense basis inverse) becomes impractical. Both solvers are exact;
// tests cross-check them on random instances (see docs/DESIGN.md).

#ifndef EXPLAIN3D_CORE_EXACT_SOLVER_H_
#define EXPLAIN3D_CORE_EXACT_SOLVER_H_

#include <limits>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "core/explanation.h"
#include "core/probability_model.h"
#include "core/subproblem.h"
#include "matching/attribute_match.h"

namespace explain3d {

/// Result of one component solve.
struct ExactSolveResult {
  ExplanationSet explanations;
  /// Objective value restricted to this sub-problem (tuple terms plus the
  /// log-probability terms of its matches).
  double objective = 0;
  /// Admissible upper bound on the sub-problem's exact optimum: equal to
  /// `objective` when proven_optimal, the root optimistic bound when the
  /// node limit truncated the search.
  double bound = 0;
  bool proven_optimal = true;  ///< false when the node limit was hit
  size_t nodes = 0;
};

/// Solves one sub-problem exactly by assignment branch & bound.
///
/// `max_nodes` bounds the search; on hitting it the best incumbent is
/// returned with proven_optimal = false. `cancel` (nullptr = never) is
/// polled at node-expansion granularity; when it fires mid-search the
/// call abandons its state and returns the token's Status — never a
/// time-truncated incumbent, so interrupted calls cannot perturb
/// determinism. An interrupted call still proves an optimistic bound on
/// the component's objective (the admissible root bound); when
/// `interrupted_bound` is non-null it receives that bound, letting
/// degradation reporting quantify "best possible ≤ X" without touching
/// the discarded incumbent.
///
/// `warm_objective` (NaN = none) is an optional warm-start incumbent
/// objective — a previously PROVEN optimum of this exact sub-problem, or
/// any feasible selection's score (e.g. the greedy baseline's). It is
/// lowered by kWarmStartMargin and used as a prune-only floor, so the
/// search visits a subset of the cold run's nodes yet accepts the same
/// final leaf: warm and cold solves return bit-identical explanations.
/// A floored search that fails to prove optimality (stale floor, node
/// limit) is rerun cold internally — a bad floor can cost time, never
/// correctness.
Result<ExactSolveResult> SolveComponentExact(
    const CanonicalRelation& t1, const CanonicalRelation& t2,
    const TupleMapping& mapping, const AttributeMatch& attr,
    const ProbabilityModel& prob, const SubProblem& sub,
    size_t max_nodes = 4000000, const CancelToken* cancel = nullptr,
    double* interrupted_bound = nullptr,
    double warm_objective = std::numeric_limits<double>::quiet_NaN());

/// Scores the canonical decode of a feasible match-id selection on one
/// sub-problem: each selected match assigns its degree-capped-side tuple,
/// unassigned tuples are removed, and group terms are implied — exactly
/// the objective SolveComponentExact would report for that assignment
/// (const edge terms included). `selected_match_ids` must be sorted;
/// match ids outside the sub-problem are ignored. Fails when the
/// selection violates a degree cap — the portfolio path then simply
/// skips the greedy floor for the unit.
Result<double> ScoreUnitSelection(
    const CanonicalRelation& t1, const CanonicalRelation& t2,
    const TupleMapping& mapping, const AttributeMatch& attr,
    const ProbabilityModel& prob, const SubProblem& sub,
    const std::vector<size_t>& selected_match_ids);

/// The admissible root bound of the assignment branch & bound WITHOUT
/// running the search — an upper bound on the sub-problem's exact
/// objective, O(tuples + matches). Used to bound components a degraded
/// run never got to start.
Result<double> ComponentOptimisticBound(
    const CanonicalRelation& t1, const CanonicalRelation& t2,
    const TupleMapping& mapping, const AttributeMatch& attr,
    const ProbabilityModel& prob, const SubProblem& sub);

}  // namespace explain3d

#endif  // EXPLAIN3D_CORE_EXACT_SOLVER_H_
