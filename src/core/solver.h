// Stage 2 driver: the optimal-explanation solver.
//
// Pipeline per Solve() call:
//   1. smart partitioning (Section 4) — or plain connected components
//      when batch_size is 0/large enough;
//   2. optional per-part component decomposition (lossless);
//   3. each sub-problem solved exactly: the faithful Section-3.2 MILP
//      encoding + branch & bound for component-sized models, the
//      structure-exploiting assignment branch & bound (exact_solver.h)
//      beyond that — both return the same optima (cross-checked in
//      tests). Units of identical local shape are solved once: later
//      twins take the first one's answer mapped onto their own ids;
//   4. merge, normalize, and score the explanation set with the
//      Section-3.1 probability model.

#ifndef EXPLAIN3D_CORE_SOLVER_H_
#define EXPLAIN3D_CORE_SOLVER_H_

#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "core/config.h"
#include "core/explanation.h"
#include "core/incumbents.h"
#include "core/partitioning.h"
#include "core/probability_model.h"
#include "matching/attribute_match.h"
#include "matching/tuple_mapping.h"
#include "provenance/canonical.h"

namespace explain3d {

/// Input of the optimal-explanation problem (EXP-3D, Problem 1).
struct Explain3DInput {
  const CanonicalRelation* t1 = nullptr;
  const CanonicalRelation* t2 = nullptr;
  AttributeMatch attr;
  TupleMapping mapping;  ///< initial probabilistic tuple mapping
  /// Optional cooperative cancellation (must outlive Solve). Polled
  /// between sub-problems and, inside each solver, at node-expansion
  /// granularity; a fired token makes Solve return its Status
  /// (kCancelled / kDeadlineExceeded) within milliseconds. A solve that
  /// DOES return a result is bit-identical to an uninterrupted one.
  const CancelToken* cancel = nullptr;
  /// Optional out-param: when non-null, Solve writes an admissible upper
  /// bound on the optimal log-probability score here — even when it
  /// returns a cancellation Status (interrupted solvers still prove a
  /// bound; units that never started contribute their search-free root
  /// bound). Stays NaN when no bound could be established. Degradation
  /// reporting (pipeline.h) uses this to quantify how far the greedy
  /// fallback can be from optimal.
  double* incumbent_bound_out = nullptr;

  // --- stage-2 solver program (warm starts + portfolio, ROADMAP 2) ---

  /// Optional warm-start record of a previous solve over the SAME inputs
  /// (the pipeline keys it by stage-1 cache key + stage-2 config tag).
  /// Each unit whose fingerprint matches seeds its branch & bound with
  /// the recorded optimum as a prune-only floor; mismatched or
  /// incomplete records are ignored per unit. Never changes the result:
  /// warm solves are bit-identical to cold ones (core/incumbents.h).
  const SolverIncumbents* warm_start = nullptr;
  /// Optional feasible selection of GLOBAL match ids (sorted ascending),
  /// e.g. the greedy baseline's evidence. Each unit scores the selection
  /// restricted to itself (ScoreUnitSelection) and uses that objective as
  /// a live prune-only floor — the portfolio path's "greedy first" seed.
  /// Units where the selection violates a degree cap simply skip the
  /// floor. Same bit-identity contract as warm_start.
  const std::vector<size_t>* greedy_selection = nullptr;
  /// Optional out-param: when non-null, a successful Solve records its
  /// per-unit fingerprints and objectives here. `complete` is set only
  /// when every unit solved to proven optimality — the condition under
  /// which the record may be stored and later seeded from.
  SolverIncumbents* incumbents_out = nullptr;
};

/// Solve diagnostics (Figure 7c / Figure 8 report solve_seconds).
struct Explain3DStats {
  SmartPartitionStats partition;
  size_t num_subproblems = 0;
  size_t milp_solved = 0;   ///< sub-problems decoded from the MILP encoding
  size_t exact_solved = 0;  ///< sub-problems decoded from assignment B&B
  size_t total_nodes = 0;   ///< branch & bound nodes actually expanded
  double solve_seconds = 0;  ///< stage-2 optimization time
  bool all_optimal = true;   ///< false if any sub-problem hit a limit
  /// Units whose branch & bound was seeded from a matching warm-start
  /// incumbent (Explain3DInput::warm_start, fingerprint verified); a
  /// shared unit counts when its representative's search was seeded.
  size_t warm_start_hits = 0;
  /// Units answered from an earlier unit of identical local shape (same
  /// tuple counts, impact bits, and match endpoints and probability bits
  /// in local order) instead of being solved. Such a unit counts under its
  /// representative's engine in milp_solved/exact_solved and adds no
  /// nodes to total_nodes; its answer is bit-identical to its own solve.
  size_t shared_units = 0;
};

/// Stage-2 output.
struct Explain3DResult {
  ExplanationSet explanations;
  Explain3DStats stats;
};

/// The solver. Thread-compatible: Solve is const and carries no state
/// between calls.
class Explain3DSolver {
 public:
  explicit Explain3DSolver(Explain3DConfig config = Explain3DConfig())
      : config_(config), prob_(config) {}

  const Explain3DConfig& config() const { return config_; }
  const ProbabilityModel& probability_model() const { return prob_; }

  /// Solves EXP-3D for the given canonical relations and initial mapping.
  Result<Explain3DResult> Solve(const Explain3DInput& input) const;

 private:
  Explain3DConfig config_;
  ProbabilityModel prob_;
};

}  // namespace explain3d

#endif  // EXPLAIN3D_CORE_SOLVER_H_
