// Configuration knobs of the explain3d framework. docs/API.md carries
// the field-by-field reference table.

#ifndef EXPLAIN3D_CORE_CONFIG_H_
#define EXPLAIN3D_CORE_CONFIG_H_

#include <cstddef>
#include <cstdint>

namespace explain3d {

/// \brief All tunables of the 3-stage pipeline and the Section-4
/// optimizer.
///
/// Defaults follow the paper where it states values (θl=0.1, θh=0.9,
/// R=100); α and β are the a-priori probabilities of Section 3.1,
/// α,β ∈ (0.5, 1]. The same config parameterizes every algorithm of the
/// experiment harness, so ablations are one-field diffs.
struct Explain3DConfig {
  // --- probability model (Section 3.1) ---
  double alpha = 0.9;  ///< prior P(tuple covered by both datasets)
  double beta = 0.9;   ///< prior P(tuple impact is correct)

  // --- smart partitioning (Section 4) ---
  /// Batch size (max tuples per partition, Lmax). 0 disables graph
  /// partitioning: the solver still decomposes into connected components
  /// (the "NoOpt" configuration of Section 5.3 — the paper's basic
  /// algorithm modulo solver-presolve-equivalent decomposition).
  size_t batch_size = 1000;
  double theta_low = 0.1;   ///< θl: low-probability edge threshold
  double theta_high = 0.9;  ///< θh: high-probability edge threshold
  double reward = 100.0;    ///< R: weight reward/penalty factor
  bool use_pre_partitioning = true;  ///< Algorithm 2 on/off (ablation)
  /// Decompose each sub-problem into maximal connected components before
  /// solving (lossless, Section 4's opening observation; equivalent to an
  /// industrial solver's block presolve). The Figure-8 "NoOpt" runs turn
  /// this off to solve one monolithic problem, as the paper's basic
  /// algorithm does.
  bool decompose_components = true;
  uint64_t seed = 1;

  // --- MILP solving (Section 3.2) ---
  /// Components whose encoded model stays under this many constraints are
  /// solved through the faithful Section-3.2 MILP encoding; larger
  /// components fall back to the structure-exploiting exact branch &
  /// bound (see DESIGN.md substitutions — both are exact).
  size_t milp_max_constraints = 250;
  size_t milp_max_nodes = 50000;
  /// Node limit of the specialized component solver.
  size_t exact_max_nodes = 4000000;

  // --- stage-2 solver program (warm starts + portfolio, ROADMAP 2) ---
  /// Consult and maintain the MatchingContext's warm-start incumbent
  /// store: a completed fully-optimal solve records its per-unit optima
  /// (fingerprinted — see core/incumbents.h), and a repeated request over
  /// the same cache key seeds both exact engines with the recorded
  /// objective as a prune-only floor. Warm results are bit-identical to
  /// cold ones; a stale or mismatched record is skipped, never trusted.
  /// No effect without a MatchingContext in PipelineInput.
  bool warm_start = true;
  /// Portfolio mode, the one anytime mode: run the greedy baseline
  /// (Section 5.1.3) FIRST (milliseconds), use its per-unit objectives
  /// as live incumbent floors for the exact solve, and — when the
  /// stage-2 budget (the deadline of the caller's CancelToken, e.g. a
  /// service request deadline) interrupts the exact attempt — return
  /// the greedy answer marked PipelineResult::degraded()
  /// (DegradationInfo::Solver::kGreedyPortfolio) with the interrupted
  /// search's admissible incumbent_bound. Only a fired budget degrades:
  /// a user cancel still fails the call, and unbounded calls run the
  /// exact solve to completion. Exact solves that finish in budget
  /// return bit-identical results to a strict (false) run, which fails a
  /// blown budget.
  bool portfolio = false;

  // --- parallelism ---
  /// Worker threads for BOTH pipeline stages, run on the process-wide
  /// shared pool: stage 1's interning / blocking / candidate scoring
  /// (each per-tuple and per-pair unit is independent) and stage 2's
  /// per-sub-problem solve loop (merged in deterministic sub-problem
  /// order). Output is bit-identical to a serial run for every value.
  /// 0 = auto: hardware_concurrency, or the EXPLAIN3D_NUM_THREADS
  /// environment override when set (CI uses it to exercise the parallel
  /// paths). 1 = run serially on the calling thread.
  size_t num_threads = 0;
};

}  // namespace explain3d

#endif  // EXPLAIN3D_CORE_CONFIG_H_
