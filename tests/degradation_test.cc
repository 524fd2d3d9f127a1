// Graceful-degradation suite: the fault-injection spec language, the
// anytime greedy fallback (Explain3DConfig::portfolio), an injected
// transient failing a claimed request's one run, the health state
// machine, and deadlines that expire while the pipeline sits between
// cooperative polls.
//
// Contract under test: pressure NEVER produces a silent wrong answer.
// Either the exact result arrives, or the call fails with the caller's
// status, or — only when the request runs in portfolio mode — an
// explicitly-marked degraded result arrives carrying its quality
// metadata. A user cancel always wins over a fallback.

#include <gtest/gtest.h>

#include <cmath>
#include <chrono>
#include <thread>
#include <vector>

#include "baselines/greedy.h"
#include "common/cancel.h"
#include "common/fault.h"
#include "core/pipeline.h"
#include "core/probability_model.h"
#include "datagen/synthetic.h"
#include "service/service.h"

namespace explain3d {
namespace {

// Re-arms the process-wide injector for one test and guarantees the
// disarm even on assertion failure.
struct FaultGuard {
  explicit FaultGuard(const std::string& spec) {
    Status s = FaultInjector::Instance().Configure(spec);
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  ~FaultGuard() { FaultInjector::Instance().Disable(); }
};

// --- the fault spec language ------------------------------------------------
// The injector class is always compiled (only the probes gate on
// EXPLAIN3D_NO_FAULT_INJECTION), so the parser tests run in every build.

TEST(FaultSpecTest, ParsesAndCounts) {
  FaultGuard guard("seed=7; a.one=p1.0, a.two=n3; b.x=once2");
  FaultInjector& f = FaultInjector::Instance();
  EXPECT_TRUE(f.armed());
  // p1.0 fires every hit.
  EXPECT_TRUE(f.ShouldFire("a.one"));
  EXPECT_TRUE(f.ShouldFire("a.one"));
  // n3 fires hits 2, 5, 8, ... (every 3rd).
  EXPECT_FALSE(f.ShouldFire("a.two"));
  EXPECT_FALSE(f.ShouldFire("a.two"));
  EXPECT_TRUE(f.ShouldFire("a.two"));
  EXPECT_FALSE(f.ShouldFire("a.two"));
  // once2 fires exactly hit #2 (0-based).
  EXPECT_FALSE(f.ShouldFire("b.x"));
  EXPECT_FALSE(f.ShouldFire("b.x"));
  EXPECT_TRUE(f.ShouldFire("b.x"));
  EXPECT_FALSE(f.ShouldFire("b.x"));
  // Unarmed sites never fire and are not counted.
  EXPECT_FALSE(f.ShouldFire("c.unarmed"));
  EXPECT_EQ(f.TotalFires(), 4u);
  std::vector<FaultSiteStats> stats = f.SiteStats();
  ASSERT_EQ(stats.size(), 3u);
  EXPECT_EQ(stats[0].site, "a.one");
  EXPECT_EQ(stats[0].hits, 2u);
  EXPECT_EQ(stats[0].fires, 2u);
  EXPECT_EQ(stats[1].hits, 4u);
  EXPECT_EQ(stats[1].fires, 1u);
  EXPECT_EQ(stats[2].hits, 4u);
  EXPECT_EQ(stats[2].fires, 1u);
}

TEST(FaultSpecTest, PrefixPatternMatchesEverySiteBelow) {
  FaultGuard guard("stage1.*=p1.0");
  FaultInjector& f = FaultInjector::Instance();
  EXPECT_TRUE(f.ShouldFire("stage1.execute"));
  EXPECT_TRUE(f.ShouldFire("stage1.block"));
  EXPECT_FALSE(f.ShouldFire("stage2.solve"));
}

TEST(FaultSpecTest, ProbabilityScheduleIsSeedDeterministic) {
  auto draw = [](const std::string& spec, size_t hits) {
    FaultGuard guard(spec);
    std::vector<bool> fired;
    for (size_t i = 0; i < hits; ++i) {
      fired.push_back(FaultInjector::Instance().ShouldFire("s.x"));
    }
    return fired;
  };
  std::vector<bool> a = draw("seed=11;s.x=p0.5", 64);
  std::vector<bool> b = draw("seed=11;s.x=p0.5", 64);
  std::vector<bool> c = draw("seed=12;s.x=p0.5", 64);
  EXPECT_EQ(a, b);         // same seed → same schedule
  EXPECT_NE(a, c);         // different seed → different schedule
  size_t fires = 0;
  for (bool x : a) fires += x;
  EXPECT_GT(fires, 16u);   // p0.5 over 64 draws is nowhere near 0 or 64
  EXPECT_LT(fires, 48u);
}

TEST(FaultSpecTest, MalformedSpecsRejectedAndLeavePreviousArmed) {
  FaultInjector& f = FaultInjector::Instance();
  ASSERT_TRUE(f.Configure("good.site=p1.0").ok());
  for (const char* bad :
       {"a.b", "a.b=", "a.b=q5", "a.b=p1.5", "a.b=p-1", "a.b=nx",
        "a.b=n0", "seed=notanumber", "=p0.5"}) {
    EXPECT_FALSE(f.Configure(bad).ok()) << "accepted: " << bad;
    EXPECT_TRUE(f.armed()) << "disarmed by: " << bad;
    EXPECT_TRUE(f.ShouldFire("good.site")) << "schedule lost at: " << bad;
  }
  f.Disable();
  EXPECT_FALSE(f.armed());
  EXPECT_EQ(f.TotalFires(), 0u);  // Disable resets counters
  // Empty spec is a valid disarm.
  ASSERT_TRUE(f.Configure("").ok());
  EXPECT_FALSE(f.armed());
}

// --- shared builders --------------------------------------------------------

SyntheticDataset DegradeTestData(uint64_t seed, size_t n = 90) {
  SyntheticOptions gen;
  gen.n = n;
  gen.d = 0.25;
  gen.v = 2 * n;
  gen.seed = seed;
  return GenerateSynthetic(gen).value();
}

PipelineInput BasicInput(const SyntheticDataset& data) {
  PipelineInput input;
  input.db1 = &data.db1;
  input.db2 = &data.db2;
  input.sql1 = data.sql1;
  input.sql2 = data.sql2;
  input.attr_matches = data.attr_matches;
  input.mapping_options.min_probability = 1e-4;
  return input;
}

// Dense, uncalibrated, undecomposed: one monolithic branch & bound whose
// uninterrupted solve takes far longer than any test budget here.
PipelineInput HardInput(const SyntheticDataset& data) {
  PipelineInput input = BasicInput(data);
  input.mapping_options.use_blocking = false;
  input.mapping_options.min_probability = 1e-12;
  return input;
}

Explain3DConfig HardSolveConfig() {
  Explain3DConfig config;
  config.num_threads = 1;
  config.batch_size = 0;
  config.decompose_components = false;
  config.milp_max_constraints = 0;
  config.exact_max_nodes = size_t{1} << 60;
  return config;
}

// --- the anytime greedy fallback (pipeline level) ---------------------------

TEST(DegradationTest, StrictModeStillFailsAtTheDeadline) {
  SyntheticDataset data = DegradeTestData(51);
  PipelineInput input = HardInput(data);
  CancelToken deadline(0.3);
  input.cancel = &deadline;
  Result<PipelineResult> r = RunExplain3D(input, HardSolveConfig());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(DegradationTest, FallbackReturnsMarkedDegradedResultWithinBudget) {
  SyntheticDataset data = DegradeTestData(51);
  PipelineInput input = HardInput(data);
  Explain3DConfig config = HardSolveConfig();
  config.portfolio = true;

  CancelToken deadline(0.5);
  input.cancel = &deadline;
  auto start = std::chrono::steady_clock::now();
  Result<PipelineResult> r = RunExplain3D(input, config);
  double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Explicitly marked, never silent.
  EXPECT_TRUE(r.value().degraded());
  const DegradationInfo& deg = r.value().degradation();
  EXPECT_EQ(deg.solver, DegradationInfo::Solver::kGreedyPortfolio);
  EXPECT_EQ(deg.interrupt_code, StatusCode::kDeadlineExceeded);
  // Budget-slice accounting: the budget is the token's remaining time at
  // stage-2 entry (≤ 0.5s), the reserved slice is 2% of it, and the
  // exact solve never ran past its share.
  EXPECT_GT(deg.budget_seconds, 0.0);
  EXPECT_LE(deg.budget_seconds, 0.5 + 1e-9);
  EXPECT_NEAR(deg.reserved_seconds, deg.budget_seconds * 0.02, 1e-12);
  EXPECT_GT(deg.exact_seconds, 0.0);
  EXPECT_GT(deg.fallback_seconds, 0.0);
  EXPECT_EQ(deg.objective, r.value().core().explanations.log_probability);
  // The interrupted solve still proves an admissible optimistic bound, so
  // the caller can cap the fallback's optimality gap. Admissibility: the
  // bound can never sit below the achieved greedy objective.
  EXPECT_TRUE(std::isfinite(deg.incumbent_bound));
  EXPECT_GE(deg.incumbent_bound, deg.objective - 1e-6);
  // A degraded answer is never optimal by construction.
  EXPECT_FALSE(r.value().core().stats.all_optimal);
  // Poll latency + sanitizer slack — nowhere near the exact solve time.
  EXPECT_LT(elapsed, 10.0);
}

TEST(DegradationTest, UserCancelAlwaysWinsOverFallback) {
  SyntheticDataset data = DegradeTestData(53);
  PipelineInput input = HardInput(data);
  Explain3DConfig config = HardSolveConfig();
  config.portfolio = true;

  // The oracle runs after stage-1 artifacts and before the solve; firing
  // the token there is "user cancelled mid-request". The token's
  // deadline gives the portfolio a finite budget to degrade within —
  // the cancel must still fail the call.
  CancelToken token(30.0);
  input.cancel = &token;
  input.calibration_oracle = [&token](const CanonicalRelation&,
                                      const CanonicalRelation&, const Table&,
                                      const Table&) {
    token.Cancel();
    return GoldPairs{};
  };
  Result<PipelineResult> r = RunExplain3D(input, config);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
}

TEST(DegradationTest, DegradedResultMatchesDirectGreedyBaseline) {
  // The fallback must be the Section-5.1.3 greedy over the SAME complete
  // stage-1 artifacts — no third algorithm, nothing partial.
  SyntheticDataset data = DegradeTestData(54, 40);
  PipelineInput input = HardInput(data);
  Explain3DConfig config = HardSolveConfig();
  config.portfolio = true;
  CancelToken deadline(0.4);
  input.cancel = &deadline;
  Result<PipelineResult> r = RunExplain3D(input, config);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(r.value().degraded());

  ProbabilityModel prob(config);
  ExplanationSet direct =
      GreedyBaseline(r.value().t1(), r.value().t2(),
                     r.value().initial_mapping(),
                     input.attr_matches.front(), prob);
  direct.log_probability = prob.Score(r.value().t1(), r.value().t2(),
                                      r.value().initial_mapping(), direct);
  const ExplanationSet& got = r.value().core().explanations;
  EXPECT_EQ(got.delta, direct.delta);
  EXPECT_EQ(got.value_changes, direct.value_changes);
  ASSERT_EQ(got.evidence.size(), direct.evidence.size());
  for (size_t i = 0; i < got.evidence.size(); ++i) {
    EXPECT_EQ(got.evidence[i].t1, direct.evidence[i].t1);
    EXPECT_EQ(got.evidence[i].t2, direct.evidence[i].t2);
  }
  EXPECT_EQ(got.log_probability, direct.log_probability);
}

TEST(DegradationTest, SlowUnwindPastTheCallersDeadlineStillDegrades) {
  if (!kFaultInjectionEnabled) {
    GTEST_SKIP() << "fault probes compiled out";
  }
  // The portfolio.unwind probe holds the interrupted exact leg until the
  // caller's own deadline has passed too — the slow unwind a loaded
  // machine can produce past the 2% reserve. The greedy answer is ready,
  // so the call must still return it, degraded.
  FaultGuard guard("portfolio.unwind=once0");
  SyntheticDataset data = DegradeTestData(54, 40);
  PipelineInput input = HardInput(data);
  Explain3DConfig config = HardSolveConfig();
  config.portfolio = true;
  CancelToken deadline(0.4);
  input.cancel = &deadline;
  Result<PipelineResult> r = RunExplain3D(input, config);
  std::vector<FaultSiteStats> sites = FaultInjector::Instance().SiteStats();
  ASSERT_EQ(sites.size(), 1u);
  EXPECT_EQ(sites[0].fires, 1u);
  EXPECT_EQ(deadline.Check().code(), StatusCode::kDeadlineExceeded);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(r.value().degraded());
  EXPECT_EQ(r.value().degradation().interrupt_code,
            StatusCode::kDeadlineExceeded);

  ProbabilityModel prob(config);
  ExplanationSet direct =
      GreedyBaseline(r.value().t1(), r.value().t2(),
                     r.value().initial_mapping(),
                     input.attr_matches.front(), prob);
  direct.log_probability = prob.Score(r.value().t1(), r.value().t2(),
                                      r.value().initial_mapping(), direct);
  const ExplanationSet& got = r.value().core().explanations;
  EXPECT_EQ(got.delta, direct.delta);
  EXPECT_EQ(got.value_changes, direct.value_changes);
  EXPECT_EQ(got.evidence.size(), direct.evidence.size());
  EXPECT_EQ(got.log_probability, direct.log_probability);
}

TEST(DegradationTest, FastSolvesNeverDegradeAndStayBitIdentical) {
  // An easy instance under a generous budget: portfolio mode must be a
  // no-op — same result as strict, not marked, exact solver throughout.
  SyntheticDataset data = DegradeTestData(55, 30);
  Explain3DConfig strict_config;
  strict_config.num_threads = 1;
  Result<PipelineResult> strict =
      RunExplain3D(BasicInput(data), strict_config);
  ASSERT_TRUE(strict.ok()) << strict.status().ToString();

  Explain3DConfig fb_config = strict_config;
  fb_config.portfolio = true;
  CancelToken deadline(600.0);
  PipelineInput input = BasicInput(data);
  input.cancel = &deadline;
  Result<PipelineResult> fb = RunExplain3D(input, fb_config);
  ASSERT_TRUE(fb.ok()) << fb.status().ToString();
  EXPECT_FALSE(fb.value().degraded());
  EXPECT_EQ(fb.value().core().explanations.delta,
            strict.value().core().explanations.delta);
  EXPECT_EQ(fb.value().core().explanations.log_probability,
            strict.value().core().explanations.log_probability);
  EXPECT_EQ(fb.value().core().stats.all_optimal,
            strict.value().core().stats.all_optimal);
}

// --- injected faults through the pipeline -----------------------------------

TEST(DegradationTest, InjectedStage1FaultFailsTransientlyAndNeverCaches) {
  if (!kFaultInjectionEnabled) {
    GTEST_SKIP() << "fault probes compiled out";
  }
  SyntheticDataset data = DegradeTestData(56, 30);
  MatchingContext context;
  PipelineInput input = BasicInput(data);
  input.matching_context = &context;
  Explain3DConfig config;
  config.num_threads = 1;
  {
    FaultGuard guard("stage1.block=once0");
    Result<PipelineResult> r = RunExplain3D(input, config);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
    // The failed build left nothing behind.
    EXPECT_EQ(context.size(), 0u);
    EXPECT_EQ(context.bytes(), 0u);
  }
  // The retry (fault disarmed) rebuilds cleanly.
  Result<PipelineResult> retry = RunExplain3D(input, config);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_EQ(context.size(), 1u);
}

TEST(DegradationTest, InjectedMilpFaultSurfacesAsUnavailable) {
  if (!kFaultInjectionEnabled) {
    GTEST_SKIP() << "fault probes compiled out";
  }
  SyntheticDataset data = DegradeTestData(57, 30);
  PipelineInput input = BasicInput(data);
  Explain3DConfig config;
  config.num_threads = 1;
  // Force the MILP branch (constraint cap high enough for every unit)
  // and kill its first node expansion: kInterrupted with a live token
  // must map to the transient kUnavailable, not to a cancel the user
  // never issued.
  config.milp_max_constraints = size_t{1} << 40;
  FaultGuard guard("milp.node=once0");
  Result<PipelineResult> r = RunExplain3D(input, config);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
}

// --- service transients / health / deadlines --------------------------------

ExplanationRequest ServiceRequest(const SyntheticDataset& data,
                                  DatabaseHandle h1, DatabaseHandle h2) {
  ExplanationRequest req;
  req.db1 = h1;
  req.db2 = h2;
  req.sql1 = data.sql1;
  req.sql2 = data.sql2;
  req.attr_matches = data.attr_matches;
  req.mapping_options.min_probability = 1e-4;
  req.config.num_threads = 1;
  return req;
}

// Cancels the held tickets when it leaves scope. Declared after the
// service, it runs before the service's destructor, which drains running
// requests: an endless blocker is cancelled even when an assertion ends
// the test early.
struct CancelAtExit {
  std::vector<TicketPtr> tickets;
  ~CancelAtExit() {
    for (const TicketPtr& t : tickets) t->Cancel();
  }
};

TEST(ServiceResilienceTest, TransientFaultFailsTheOneAttempt) {
  if (!kFaultInjectionEnabled) {
    GTEST_SKIP() << "fault probes compiled out";
  }
  // A claimed request runs once: the worker-claim fault on its first hit
  // finishes the ticket kUnavailable — a failed completion, never a
  // re-run — and the transient shows in the health window.
  SyntheticDataset data = DegradeTestData(58, 24);
  Explain3DService service;
  DatabaseHandle h1 = service.RegisterDatabase("d1", data.db1);
  DatabaseHandle h2 = service.RegisterDatabase("d2", data.db2);
  FaultGuard guard("service.claim=once0");
  TicketPtr ticket = service.Submit(ServiceRequest(data, h1, h2));
  const Result<PipelineResult>& r = ticket->Wait();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 1u);  // failed ⊆ completed, counted exact
  EXPECT_EQ(stats.completed_exact, 1u);
  EXPECT_EQ(stats.completed_degraded, 0u);
  EXPECT_GE(stats.fault_fires, 1u);
  // A transient in the recent-runs window marks the service degraded.
  EXPECT_EQ(stats.health, ServiceHealth::kDegraded);
  EXPECT_STREQ(ServiceHealthName(stats.health), "degraded");
}

TEST(ServiceResilienceTest, OverloadFlipsStrictRequestsToPortfolio) {
  SyntheticDataset blocker_data = DegradeTestData(61);
  SyntheticDataset easy_data = DegradeTestData(62, 24);
  ServiceOptions options;
  options.max_concurrency = 1;
  options.admission_control = false;  // flood must QUEUE, not reject
  options.enable_coalescing = false;  // ...and not share one computation
  Explain3DService service(options);
  DatabaseHandle b1 = service.RegisterDatabase("b1", blocker_data.db1);
  DatabaseHandle b2 = service.RegisterDatabase("b2", blocker_data.db2);
  DatabaseHandle e1 = service.RegisterDatabase("e1", easy_data.db1);
  DatabaseHandle e2 = service.RegisterDatabase("e2", easy_data.db2);

  EXPECT_EQ(service.Stats().health, ServiceHealth::kHealthy);

  // Occupy the only worker with an unbounded hard solve...
  ExplanationRequest blocker = ServiceRequest(blocker_data, b1, b2);
  blocker.mapping_options.use_blocking = false;
  blocker.mapping_options.min_probability = 1e-12;
  blocker.config = HardSolveConfig();
  TicketPtr running = service.Submit(std::move(blocker));
  CancelAtExit cancel_blocker{{running}};
  for (int i = 0; i < 2000 && service.Stats().running == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(service.Stats().running, 1u);

  // ...then flood the queue past the overload depth (4 × 1).
  std::vector<TicketPtr> flood;
  for (int i = 0; i < 4; ++i) {
    flood.push_back(service.Submit(ServiceRequest(easy_data, e1, e2)));
  }
  EXPECT_EQ(service.Stats().health, ServiceHealth::kOverloaded);

  // A strict, deadline-carrying submit now auto-flips to the portfolio.
  ExplanationRequest probe = ServiceRequest(easy_data, e1, e2);
  probe.deadline_seconds = 600.0;
  ASSERT_FALSE(probe.config.portfolio);
  TicketPtr probed = service.Submit(std::move(probe));
  EXPECT_EQ(service.Stats().auto_degraded, 1u);

  // Deadline-free and already-portfolio requests are never touched.
  TicketPtr no_deadline = service.Submit(ServiceRequest(easy_data, e1, e2));
  EXPECT_EQ(service.Stats().auto_degraded, 1u);
  ExplanationRequest already = ServiceRequest(easy_data, e1, e2);
  already.deadline_seconds = 600.0;
  already.config.portfolio = true;
  TicketPtr portfolio = service.Submit(std::move(already));
  EXPECT_EQ(service.Stats().auto_degraded, 1u);

  // Unblock and drain: cancel the blocker, then wait for the rest.
  running->Cancel();
  for (const TicketPtr& t : flood) t->Wait();
  probed->Wait();
  no_deadline->Wait();
  portfolio->Wait();
  // Pressure left the window → health recovers by itself.
  EXPECT_EQ(service.Stats().queue_depth, 0u);
  EXPECT_NE(service.Stats().health, ServiceHealth::kOverloaded);
}

TEST(ServiceResilienceTest, FlippedRequestLeadsNoCoalescingGroup) {
  // Regression: Submit keyed a request for coalescing BEFORE the
  // overload valve flipped its config, so the flipped request led a
  // group under its strict key, and an identical strict submit attached
  // to it and resolved with its degraded answer.
  SyntheticDataset blocker_data = DegradeTestData(61);
  SyntheticDataset hard_data = DegradeTestData(64);
  SyntheticDataset easy_data = DegradeTestData(62, 24);
  ServiceOptions options;
  options.max_concurrency = 1;
  options.admission_control = false;  // flood must QUEUE, not reject
  Explain3DService service(options);
  DatabaseHandle b1 = service.RegisterDatabase("b1", blocker_data.db1);
  DatabaseHandle b2 = service.RegisterDatabase("b2", blocker_data.db2);
  DatabaseHandle h1 = service.RegisterDatabase("h1", hard_data.db1);
  DatabaseHandle h2 = service.RegisterDatabase("h2", hard_data.db2);
  DatabaseHandle e1 = service.RegisterDatabase("e1", easy_data.db1);
  DatabaseHandle e2 = service.RegisterDatabase("e2", easy_data.db2);
  auto hard_request = [](const SyntheticDataset& data, DatabaseHandle d1,
                         DatabaseHandle d2) {
    ExplanationRequest req = ServiceRequest(data, d1, d2);
    req.mapping_options.use_blocking = false;
    req.mapping_options.min_probability = 1e-12;
    req.config = HardSolveConfig();
    return req;
  };

  // Occupy the only worker with an unbounded hard solve...
  TicketPtr running = service.Submit(hard_request(blocker_data, b1, b2));
  CancelAtExit cancel_blocker{{running}};
  for (int i = 0; i < 2000 && service.Stats().running == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(service.Stats().running, 1u);
  // ...then flood the queue past overload. Oracle-carrying requests
  // never coalesce, so all four queue.
  std::vector<TicketPtr> flood;
  for (int i = 0; i < 4; ++i) {
    ExplanationRequest req = ServiceRequest(easy_data, e1, e2);
    req.calibration_oracle = [](const CanonicalRelation&,
                                const CanonicalRelation&, const Table&,
                                const Table&) { return GoldPairs{}; };
    flood.push_back(service.Submit(std::move(req)));
  }
  ASSERT_EQ(service.Stats().health, ServiceHealth::kOverloaded);

  // The deadline-carrying hard probe flips to the portfolio and degrades
  // once it runs; its strict, deadline-free twin must not share that.
  ExplanationRequest probe = hard_request(hard_data, h1, h2);
  probe.deadline_seconds = 1.5;
  TicketPtr probed = service.Submit(std::move(probe));
  TicketPtr twin = service.Submit(hard_request(hard_data, h1, h2));
  cancel_blocker.tickets.push_back(twin);
  EXPECT_EQ(service.Stats().auto_degraded, 1u);

  running->Cancel();
  for (const TicketPtr& t : flood) t->Wait();
  probed->Wait();
  const Result<PipelineResult>* early = twin->TryGet();
  EXPECT_TRUE(early == nullptr || !early->ok() || !early->value().degraded())
      << "a strict request received a degraded answer";
  // The twin leads its own unbounded strict run: only a cancel ends it.
  twin->Cancel();
  EXPECT_EQ(twin->Wait().status().code(), StatusCode::kCancelled);
  EXPECT_EQ(service.Stats().coalesced_hits, 0u);
}

TEST(ServiceResilienceTest, DeadlineFiresDuringStalledPoll) {
  SyntheticDataset data = DegradeTestData(63, 24);
  Explain3DService service;
  DatabaseHandle h1 = service.RegisterDatabase("d1", data.db1);
  DatabaseHandle h2 = service.RegisterDatabase("d2", data.db2);

  // The oracle stalls the pipeline between cooperative polls for far
  // longer than the request's deadline. A waiter passing the deadline
  // leaves the RUNNING ticket to its worker, whose next natural poll
  // fails the run: one kDeadlineExceeded, counted once.
  ExplanationRequest req = ServiceRequest(data, h1, h2);
  req.deadline_seconds = 0.15;
  req.calibration_oracle = [](const CanonicalRelation&,
                              const CanonicalRelation&, const Table&,
                              const Table&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(800));
    return GoldPairs{};
  };
  TicketPtr ticket = service.Submit(std::move(req));
  const Result<PipelineResult>& r = ticket->Wait();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  EXPECT_EQ(stats.completed, 0u);
}

}  // namespace
}  // namespace explain3d
