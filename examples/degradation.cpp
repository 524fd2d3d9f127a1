// Graceful degradation under pressure — the compiled twin of the
// docs/API.md "Graceful degradation & resilience" section.
//
// Build & run:  ./build/degradation
//
// Demonstrates:
//   1. strict mode: a deadline the exact solve cannot meet FAILS the
//      request (kDeadlineExceeded) — the default, nothing silent;
//   2. portfolio: the same request under Explain3DConfig::portfolio
//      runs the greedy baseline first and, when the deadline interrupts
//      the exact solve, returns that answer marked degraded() INSIDE the
//      deadline, with DegradationInfo accounting for the budget slices
//      and bounding the optimality gap;
//   3. retry: an injected transient fault (deterministic schedule from
//      common/fault.h) recovered by RetryPolicy backoff;
//   4. the service health state surfacing the pressure.

#include <cstdio>

#include "common/fault.h"
#include "datagen/synthetic.h"
#include "eval/gold.h"
#include "service/service.h"

using namespace explain3d;

namespace {

SyntheticDataset MakeData(uint64_t seed) {
  SyntheticOptions gen;
  gen.n = 120;
  gen.d = 0.25;
  gen.v = 200;
  gen.seed = seed;
  return GenerateSynthetic(gen).value();
}

ExplanationRequest MakeRequest(const SyntheticDataset& data,
                               DatabaseHandle h1, DatabaseHandle h2) {
  ExplanationRequest req;
  req.db1 = h1;
  req.db2 = h2;
  req.sql1 = data.sql1;
  req.sql2 = data.sql2;
  req.attr_matches = data.attr_matches;
  req.mapping_options.min_probability = 1e-4;
  req.calibration_oracle =
      MakeRowEntityOracle(data.row_entities1, data.row_entities2);
  req.config.num_threads = 1;
  return req;
}

// A request whose exact stage-2 solve runs far past any interactive
// deadline (the examples/deadlines.cpp shape): only the deadline
// machinery — or the portfolio's greedy leg — can produce an outcome.
ExplanationRequest MakeHardRequest(const SyntheticDataset& data,
                                   DatabaseHandle h1, DatabaseHandle h2) {
  ExplanationRequest req = MakeRequest(data, h1, h2);
  req.calibration_oracle = nullptr;
  req.mapping_options.use_blocking = false;
  req.mapping_options.min_probability = 1e-12;
  req.config.batch_size = 0;
  req.config.decompose_components = false;
  req.config.milp_max_constraints = 0;
  req.config.exact_max_nodes = size_t{1} << 60;
  return req;
}

}  // namespace

int main() {
  SyntheticDataset data = MakeData(7);
  ServiceOptions options;
  options.max_concurrency = 1;
  // Admission control prices deadlines against the observed p50 run
  // time, which the hard solves below poison on purpose — keep it out
  // of this demo so every request actually runs.
  options.admission_control = false;
  Explain3DService service(options);
  DatabaseHandle h1 = service.RegisterDatabase("left", data.db1);
  DatabaseHandle h2 = service.RegisterDatabase("right", data.db2);

  // --- 1. strict mode: the deadline FAILS the request ----------------------
  {
    ExplanationRequest req = MakeHardRequest(data, h1, h2);
    req.deadline_seconds = 0.4;  // the exact solve needs far more
    TicketPtr ticket = service.Submit(req);
    const Result<PipelineResult>& r = ticket->Wait();
    std::printf("strict @ 0.4s deadline: %s\n",
                StatusCodeName(r.status().code()));
  }

  // --- 2. portfolio: a marked degraded answer, in time --------------------
  {
    ExplanationRequest req = MakeHardRequest(data, h1, h2);
    req.deadline_seconds = 0.4;
    req.config.portfolio = true;
    TicketPtr ticket = service.Submit(req);
    const Result<PipelineResult>& r = ticket->Wait();
    if (!r.ok()) {
      std::printf("portfolio: unexpected %s\n",
                  r.status().ToString().c_str());
      return 1;
    }
    const DegradationInfo& d = r.value().degradation();
    std::printf("portfolio @ 0.4s deadline: ok, degraded=%s\n",
                r.value().degraded() ? "true" : "false");
    std::printf("  solver=%s interrupt=%s bound-gap=%.4f\n",
                d.solver == DegradationInfo::Solver::kGreedyPortfolio
                    ? "greedy-portfolio"
                    : "exact",
                StatusCodeName(d.interrupt_code),
                d.incumbent_bound - d.objective);
    std::printf(
        "  budget=%.3fs reserved=%.3fs exact-attempt=%.3fs "
        "greedy=%.4fs\n",
        d.budget_seconds, d.reserved_seconds, d.exact_seconds,
        d.fallback_seconds);
    std::printf("  explanations=%zu log-probability=%.4f (objective %.4f)\n",
                r.value().core().explanations.delta.size() +
                    r.value().core().explanations.value_changes.size(),
                r.value().core().explanations.log_probability, d.objective);
  }

  // --- 3. retry: a deterministic injected fault, recovered -----------------
  if (kFaultInjectionEnabled) {
    // Fire the worker-claim probe exactly on its first hit; the second
    // attempt (after one backoff) runs clean.
    FaultInjector::Instance().Configure("seed=1; service.claim=once0").ok();
    ExplanationRequest req = MakeRequest(data, h1, h2);
    req.retry.max_attempts = 3;
    TicketPtr ticket = service.Submit(req);
    const Result<PipelineResult>& r = ticket->Wait();
    FaultInjector::Instance().Disable();
    ServiceStats stats = service.Stats();
    std::printf("injected transient fault: %s after %zu retr%s\n",
                r.ok() ? "recovered" : r.status().ToString().c_str(),
                stats.retries, stats.retries == 1 ? "y" : "ies");
    std::printf("health after the transient: %s\n",
                ServiceHealthName(stats.health));
  } else {
    std::printf("fault injection compiled out "
                "(EXPLAIN3D_FAULT_INJECTION=OFF); skipping retry demo\n");
  }

  ServiceStats stats = service.Stats();
  std::printf(
      "totals: submitted=%zu completed=%zu (exact=%zu degraded=%zu) "
      "deadline_exceeded=%zu\n",
      stats.submitted, stats.completed, stats.completed_exact,
      stats.completed_degraded, stats.deadline_exceeded);
  return 0;
}
