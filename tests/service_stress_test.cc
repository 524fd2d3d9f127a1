// Randomized interleaving stress suite for Explain3DService — the
// concurrency hammer the directed service_test cases don't swing.
//
// Four submitter threads drive a random mix of Submit / SubmitBatch /
// Cancel / re-register / deadline operations against one service, at
// max_concurrency 1, 2, and 4 (cycled across seeds). Every decision is
// COUNTER-RNG driven: drawn from CounterHash(seed, op-counter)
// (common/rng.h), never from shared mutable RNG state, so a failing seed
// replays the exact same operation stream — set
// EXPLAIN3D_STRESS_SEED_BASE to the reported seed to reproduce, and
// EXPLAIN3D_STRESS_SEEDS / EXPLAIN3D_STRESS_OPS to widen the sweep
// (CI default: kDefaultSeeds seeds; the acceptance sweep runs 100).
//
// Invariants asserted per seed:
//   * no lost tickets — every submitted ticket reaches a terminal state;
//   * no stat-counter drift — submitted == completed + cancelled +
//     deadline_exceeded + rejected + quota_rejected, failed ⊆ completed,
//     and the only legitimate failures are stale-handle races from
//     re-registration;
//   * determinism — every successful result is bit-identical to a serial
//     RunExplain3D baseline of the same request, no matter what was
//     cancelled, rejected, re-registered, or expiring around it.

#include <gtest/gtest.h>

#include <cstdlib>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/rng.h"
#include "core/pipeline.h"
#include "datagen/synthetic.h"
#include "eval/gold.h"
#include "service/service.h"

namespace explain3d {
namespace {

size_t EnvSize(const char* name, size_t fallback) {
  const char* s = std::getenv(name);
  if (s == nullptr) return fallback;
  long v = std::atol(s);
  return v > 0 ? static_cast<size_t>(v) : fallback;
}

constexpr size_t kThreads = 4;
constexpr size_t kDefaultSeeds = 5;
constexpr size_t kDefaultOpsPerThread = 10;

SyntheticDataset MakeData(uint64_t seed, size_t n) {
  SyntheticOptions gen;
  gen.n = n;
  gen.d = 0.25;
  gen.v = 120;
  gen.seed = seed;
  return GenerateSynthetic(gen).value();
}

// One request shape the stream can draw. Baselines are precomputed per
// variant, so a successful ticket checks against its variant's baseline.
struct Variant {
  const SyntheticDataset* data = nullptr;
  std::string db1_name, db2_name;
  size_t batch_size = 1000;
};

ExplanationRequest MakeRequest(const Variant& v, DatabaseHandle h1,
                               DatabaseHandle h2) {
  ExplanationRequest req;
  req.db1 = h1;
  req.db2 = h2;
  req.sql1 = v.data->sql1;
  req.sql2 = v.data->sql2;
  req.attr_matches = v.data->attr_matches;
  req.mapping_options.min_probability = 1e-4;
  req.calibration_oracle =
      MakeRowEntityOracle(v.data->row_entities1, v.data->row_entities2);
  req.config.num_threads = 1;
  req.config.batch_size = v.batch_size;
  return req;
}

PipelineResult SerialBaseline(const Variant& v) {
  PipelineInput input;
  input.db1 = &v.data->db1;
  input.db2 = &v.data->db2;
  input.sql1 = v.data->sql1;
  input.sql2 = v.data->sql2;
  input.attr_matches = v.data->attr_matches;
  input.mapping_options.min_probability = 1e-4;
  input.calibration_oracle =
      MakeRowEntityOracle(v.data->row_entities1, v.data->row_entities2);
  Explain3DConfig config;
  config.num_threads = 1;
  config.batch_size = v.batch_size;
  return RunExplain3D(input, config).value();
}

void ExpectResultsBitIdentical(const PipelineResult& a,
                               const PipelineResult& b, uint64_t seed) {
  EXPECT_EQ(a.answer1(), b.answer1()) << "seed " << seed;
  EXPECT_EQ(a.answer2(), b.answer2()) << "seed " << seed;
  ASSERT_EQ(a.initial_mapping().size(), b.initial_mapping().size())
      << "seed " << seed;
  for (size_t k = 0; k < a.initial_mapping().size(); ++k) {
    EXPECT_EQ(a.initial_mapping()[k].t1, b.initial_mapping()[k].t1)
        << "seed " << seed << " match " << k;
    EXPECT_EQ(a.initial_mapping()[k].t2, b.initial_mapping()[k].t2)
        << "seed " << seed << " match " << k;
    EXPECT_EQ(a.initial_mapping()[k].p, b.initial_mapping()[k].p)
        << "seed " << seed << " match " << k;
  }
  EXPECT_EQ(a.core().explanations.delta, b.core().explanations.delta)
      << "seed " << seed;
  EXPECT_EQ(a.core().explanations.log_probability,
            b.core().explanations.log_probability)
      << "seed " << seed;
}

// Everything one submitted ticket needs for post-hoc verification.
struct TrackedTicket {
  TicketPtr ticket;
  size_t variant = 0;
  bool has_deadline = false;     ///< any deadline (admission-eligible)
  bool doomed_deadline = false;  ///< deadline no schedule can meet
};

// The fixed world every seed round runs against: two dataset pairs, four
// variants, their serial baselines. Built once (stage 1 on these sizes
// dominates the suite's runtime).
struct StressWorld {
  SyntheticDataset data_a = MakeData(101, 60);
  SyntheticDataset data_b = MakeData(102, 48);
  std::vector<Variant> variants = {
      {&data_a, "a1", "a2", 1000},
      {&data_a, "a1", "a2", 64},
      {&data_b, "b1", "b2", 1000},
      {&data_b, "b1", "b2", 40},
  };
  std::vector<PipelineResult> baselines;
  // Warm-start leg variants (ROADMAP 2): batch sizes small enough that
  // every unit solves to proven optimality — the precondition for the
  // solver to record a COMPLETE (storable) incumbent entry — while still
  // mixing MILP-decoded and assignment-decoded units.
  std::vector<Variant> warm_variants = {
      {&data_a, "a1", "a2", 20},
      {&data_b, "b1", "b2", 20},
  };
  std::vector<PipelineResult> warm_baselines;
  // Flood-leg variants: one per dataset pair, so one stage-1 key each.
  std::vector<size_t> flood_variants = {0, 2};

  StressWorld() {
    for (const Variant& v : variants) baselines.push_back(SerialBaseline(v));
    for (const Variant& v : warm_variants) {
      warm_baselines.push_back(SerialBaseline(v));
    }
  }
};

StressWorld& World() {
  static StressWorld* world = new StressWorld();
  return *world;
}

// One full randomized round at the given seed. The mutation surface —
// re-registering "a1" mid-flight — races real submits: requests that
// caught a stale handle legitimately fail with InvalidArgument and are
// the ONLY failures the round tolerates.
void RunStressRound(uint64_t seed, size_t ops_per_thread) {
  StressWorld& world = World();
  ServiceOptions options;
  options.max_concurrency = size_t{1} << (seed % 3);  // 1, 2, 4
  options.starvation_every = 4;
  Explain3DService service(options);

  // Live handle table, re-read under lock before every submit and
  // updated by the re-register op ("a1" only — one mutating name keeps
  // the race surface focused while every pair stays usable).
  std::mutex handles_mu;
  DatabaseHandle live_a1 = service.RegisterDatabase("a1", world.data_a.db1);
  DatabaseHandle live_a2 = service.RegisterDatabase("a2", world.data_a.db2);
  DatabaseHandle live_b1 = service.RegisterDatabase("b1", world.data_b.db1);
  DatabaseHandle live_b2 = service.RegisterDatabase("b2", world.data_b.db2);
  size_t reregisters = 0;

  std::vector<std::vector<TrackedTicket>> tracked(kThreads);
  std::vector<std::thread> submitters;
  for (size_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (size_t k = 0; k < ops_per_thread; ++k) {
        // Independent draw streams per (thread, op, salt): replayable
        // from the seed alone, no cross-thread RNG state.
        uint64_t base = (t + 1) * 100000 + k * 16;
        auto draw = [&](uint64_t salt) {
          return CounterHash(seed, base + salt);
        };
        auto handles_for = [&](const Variant& v) {
          std::lock_guard<std::mutex> lock(handles_mu);
          if (v.db1_name == "a1") return std::make_pair(live_a1, live_a2);
          return std::make_pair(live_b1, live_b2);
        };
        auto submit_one = [&](bool with_deadline) {
          size_t vi = draw(1) % world.variants.size();
          const Variant& v = world.variants[vi];
          auto [h1, h2] = handles_for(v);
          ExplanationRequest req = MakeRequest(v, h1, h2);
          bool doomed = false;
          if (with_deadline) {
            doomed = draw(2) % 2 == 0;
            // Doomed deadlines are unmeetable by construction (expired
            // before any worker can claim); generous ones are
            // unmissable. Nothing in between — the middle ground would
            // make the round's outcome timing-dependent.
            req.deadline_seconds = doomed ? 1e-9 : 3600.0;
          }
          SubmitOptions sopts;
          sopts.priority = static_cast<int>(draw(3) % 3);
          tracked[t].push_back({service.Submit(std::move(req), sopts), vi,
                                with_deadline, doomed});
        };

        uint64_t pct = draw(0) % 100;
        if (pct < 45) {
          submit_one(/*with_deadline=*/false);
        } else if (pct < 60) {
          // Batch fan-out: one variant, shared priority, 2-3 requests.
          size_t vi = draw(4) % world.variants.size();
          const Variant& v = world.variants[vi];
          auto [h1, h2] = handles_for(v);
          std::vector<ExplanationRequest> batch;
          size_t count = 2 + draw(5) % 2;
          for (size_t i = 0; i < count; ++i) {
            batch.push_back(MakeRequest(v, h1, h2));
          }
          SubmitOptions sopts;
          sopts.priority = static_cast<int>(draw(6) % 3);
          std::vector<TicketPtr> tickets =
              service.SubmitBatch(std::move(batch), sopts);
          for (TicketPtr& ticket : tickets) {
            tracked[t].push_back({std::move(ticket), vi, false, false});
          }
        } else if (pct < 80) {
          // Cancel one of our own tickets — any state: queued (wins),
          // running (cooperative), terminal (no-op returning false).
          if (tracked[t].empty()) {
            submit_one(false);
          } else {
            tracked[t][draw(7) % tracked[t].size()].ticket->Cancel();
          }
        } else if (pct < 90) {
          submit_one(/*with_deadline=*/true);
        } else {
          // Re-register "a1" with identical data: generation bump, cache
          // retirement, stale-handle races with concurrent submits.
          DatabaseHandle fresh =
              service.RegisterDatabase("a1", world.data_a.db1);
          std::lock_guard<std::mutex> lock(handles_mu);
          live_a1 = fresh;
          ++reregisters;
        }
      }
    });
  }
  for (std::thread& th : submitters) th.join();

  // No lost tickets: everything submitted resolves (generously bounded —
  // a hang here is the bug this suite exists to catch, and the ctest
  // TIMEOUT backstops it).
  size_t total_tracked = 0;
  size_t ok_results = 0, cancelled = 0, deadline = 0, rejected = 0,
         stale_failures = 0;
  for (size_t t = 0; t < kThreads; ++t) {
    total_tracked += tracked[t].size();
    for (const TrackedTicket& tt : tracked[t]) {
      const Result<PipelineResult>* r = tt.ticket->WaitFor(120.0);
      ASSERT_NE(r, nullptr) << "lost ticket at seed " << seed;
      switch (r->status().code()) {
        case StatusCode::kOk:
          ++ok_results;
          EXPECT_FALSE(tt.doomed_deadline)
              << "unmeetable deadline produced a result, seed " << seed;
          ExpectResultsBitIdentical(r->value(), world.baselines[tt.variant],
                                    seed);
          break;
        case StatusCode::kCancelled:
          ++cancelled;
          break;
        case StatusCode::kDeadlineExceeded:
          ++deadline;
          EXPECT_TRUE(tt.doomed_deadline)
              << "generous deadline expired, seed " << seed;
          break;
        case StatusCode::kUnavailable:
          // Admission may reject ANY deadline-carrying ticket once the
          // backlog estimate is deep enough (at very large
          // EXPLAIN3D_STRESS_OPS even a generous deadline can be
          // legitimately over the estimate) — but never one without a
          // deadline.
          ++rejected;
          EXPECT_TRUE(tt.has_deadline)
              << "admission rejected a deadline-free request, seed " << seed;
          break;
        case StatusCode::kInvalidArgument:
          // The only legitimate failure: a submit that raced a
          // re-registration and carried a just-retired handle.
          ++stale_failures;
          EXPECT_NE(r->status().message().find("retired"), std::string::npos)
              << r->status().ToString() << " seed " << seed;
          EXPECT_GT(reregisters, 0u) << "stale handle without any "
                                        "re-registration, seed " << seed;
          break;
        default:
          ADD_FAILURE() << "unexpected terminal status "
                        << r->status().ToString() << " at seed " << seed;
      }
    }
  }

  // No stat-counter drift: every ticket landed in exactly one bucket and
  // the service agrees with our own books.
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.submitted, total_tracked) << "seed " << seed;
  EXPECT_EQ(stats.submitted, stats.completed + stats.cancelled +
                                 stats.deadline_exceeded + stats.rejected)
      << "seed " << seed;
  EXPECT_EQ(stats.completed, ok_results + stale_failures) << "seed " << seed;
  EXPECT_EQ(stats.failed, stale_failures) << "seed " << seed;
  // Solver-split balance: every completion is classified exactly once,
  // and nothing in this round can legitimately degrade (the only finite
  // budgets are generous 3600s deadlines no 120s-bounded round exhausts).
  EXPECT_EQ(stats.completed,
            stats.completed_exact + stats.completed_degraded)
      << "seed " << seed;
  EXPECT_EQ(stats.completed_degraded, 0u) << "seed " << seed;
  EXPECT_EQ(stats.cancelled, cancelled) << "seed " << seed;
  EXPECT_EQ(stats.deadline_exceeded, deadline) << "seed " << seed;
  EXPECT_EQ(stats.rejected, rejected) << "seed " << seed;
  // All terminal → nothing pending anywhere, in any band.
  EXPECT_EQ(stats.queue_depth, 0u) << "seed " << seed;
  size_t band_depth = 0;
  for (const auto& [priority, band] : stats.priority_bands) {
    band_depth += band.queue_depth;
  }
  EXPECT_EQ(band_depth, 0u) << "seed " << seed;
  // Cache books stay coherent under concurrent retirement: every
  // successful run performed exactly one lookup (cancelled runs may have
  // performed one too before being interrupted).
  EXPECT_GE(stats.warm_hits + stats.cold_misses, ok_results)
      << "seed " << seed;
  if (stats.cache_entries == 0) {
    EXPECT_EQ(stats.cache_bytes, 0u) << "seed " << seed;
  } else {
    EXPECT_GT(stats.cache_bytes, 0u) << "seed " << seed;
  }
}

TEST(ServiceStressTest, RandomizedInterleavingsHoldEveryInvariant) {
  size_t seeds = EnvSize("EXPLAIN3D_STRESS_SEEDS", kDefaultSeeds);
  size_t seed_base = EnvSize("EXPLAIN3D_STRESS_SEED_BASE", 1);
  size_t ops = EnvSize("EXPLAIN3D_STRESS_OPS", kDefaultOpsPerThread);
  for (size_t seed = seed_base; seed < seed_base + seeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RunStressRound(seed, ops);
    if (HasFatalFailure()) break;
  }
}

// --- warm-start + portfolio leg (ROADMAP 2) ---------------------------------
// The same hammer pointed at the stage-2 solver program: concurrent
// identical submits racing the incumbent store (Get while another thread
// Puts), portfolio requests racing strict ones over shared records, and
// re-registrations retiring records mid-flight. Every survivor must stay
// bit-identical to the serial baseline — warm, seeded, raced, or not.

void RunWarmStartRound(uint64_t seed, size_t ops_per_thread) {
  StressWorld& world = World();
  ServiceOptions options;
  options.max_concurrency = size_t{1} << (seed % 3);  // 1, 2, 4
  options.starvation_every = 4;
  Explain3DService service(options);

  std::mutex handles_mu;
  DatabaseHandle live_a1 = service.RegisterDatabase("a1", world.data_a.db1);
  DatabaseHandle live_a2 = service.RegisterDatabase("a2", world.data_a.db2);
  DatabaseHandle live_b1 = service.RegisterDatabase("b1", world.data_b.db1);
  DatabaseHandle live_b2 = service.RegisterDatabase("b2", world.data_b.db2);
  size_t reregisters = 0;

  std::vector<std::vector<TrackedTicket>> tracked(kThreads);
  std::vector<std::thread> submitters;
  for (size_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (size_t k = 0; k < ops_per_thread; ++k) {
        uint64_t base = (t + 1) * 100000 + k * 16;
        auto draw = [&](uint64_t salt) {
          return CounterHash(seed * 6151, base + salt);
        };
        auto submit_one = [&](bool portfolio) {
          size_t vi = draw(1) % world.warm_variants.size();
          const Variant& v = world.warm_variants[vi];
          DatabaseHandle h1, h2;
          {
            std::lock_guard<std::mutex> lock(handles_mu);
            std::tie(h1, h2) = v.db1_name == "a1"
                                   ? std::make_pair(live_a1, live_a2)
                                   : std::make_pair(live_b1, live_b2);
          }
          ExplanationRequest req = MakeRequest(v, h1, h2);
          if (portfolio) {
            // Unmissable budget: the exact leg always finishes, so the
            // portfolio answer must equal strict mode — never degraded.
            req.config.portfolio = true;
            req.deadline_seconds = 3600.0;
          }
          tracked[t].push_back(
              {service.Submit(std::move(req)), vi, portfolio, false});
        };

        uint64_t pct = draw(0) % 100;
        if (pct < 55) {
          submit_one(/*portfolio=*/false);
        } else if (pct < 75) {
          submit_one(/*portfolio=*/true);
        } else if (pct < 85) {
          if (tracked[t].empty()) {
            submit_one(false);
          } else {
            tracked[t][draw(7) % tracked[t].size()].ticket->Cancel();
          }
        } else {
          DatabaseHandle fresh =
              service.RegisterDatabase("a1", world.data_a.db1);
          std::lock_guard<std::mutex> lock(handles_mu);
          live_a1 = fresh;
          ++reregisters;
        }
      }
    });
  }
  for (std::thread& th : submitters) th.join();

  size_t total_tracked = 0;
  size_t ok_results = 0, cancelled = 0, rejected = 0, stale_failures = 0;
  for (size_t t = 0; t < kThreads; ++t) {
    total_tracked += tracked[t].size();
    for (const TrackedTicket& tt : tracked[t]) {
      const Result<PipelineResult>* r = tt.ticket->WaitFor(120.0);
      ASSERT_NE(r, nullptr) << "lost ticket at warm seed " << seed;
      switch (r->status().code()) {
        case StatusCode::kOk:
          ++ok_results;
          // Warm-seeded, greedy-seeded, raced, or cold: bit-identical to
          // the serial baseline, and never silently degraded (the only
          // budget in play is an unmissable 3600 s).
          EXPECT_FALSE(r->value().degraded()) << "warm seed " << seed;
          ExpectResultsBitIdentical(r->value(),
                                    world.warm_baselines[tt.variant], seed);
          break;
        case StatusCode::kCancelled:
          ++cancelled;
          break;
        case StatusCode::kUnavailable:
          // Admission may reject deadline-carrying (here: portfolio)
          // requests against a deep backlog estimate, never others.
          ++rejected;
          EXPECT_TRUE(tt.has_deadline)
              << "admission rejected a deadline-free request, warm seed "
              << seed;
          break;
        case StatusCode::kInvalidArgument:
          ++stale_failures;
          EXPECT_NE(r->status().message().find("retired"), std::string::npos)
              << r->status().ToString() << " warm seed " << seed;
          EXPECT_GT(reregisters, 0u) << "warm seed " << seed;
          break;
        default:
          ADD_FAILURE() << "unexpected terminal status "
                        << r->status().ToString() << " at warm seed " << seed;
      }
    }
  }

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.submitted, total_tracked) << "warm seed " << seed;
  EXPECT_EQ(stats.submitted, stats.completed + stats.cancelled +
                                 stats.deadline_exceeded + stats.rejected)
      << "warm seed " << seed;
  EXPECT_EQ(stats.completed, ok_results + stale_failures)
      << "warm seed " << seed;
  EXPECT_EQ(stats.failed, stale_failures) << "warm seed " << seed;
  EXPECT_EQ(stats.cancelled, cancelled) << "warm seed " << seed;
  EXPECT_EQ(stats.rejected, rejected) << "warm seed " << seed;
  EXPECT_EQ(stats.completed,
            stats.completed_exact + stats.completed_degraded)
      << "warm seed " << seed;
  EXPECT_EQ(stats.completed_degraded, 0u) << "warm seed " << seed;
  // Incumbent-store books: units are seeded only through store hits, and
  // every pipeline run that got as far as stage 2 did exactly one lookup.
  if (stats.warm_start_hits > 0) {
    EXPECT_GT(stats.incumbent_hits, 0u) << "warm seed " << seed;
  }
  EXPECT_GE(stats.incumbent_hits + stats.incumbent_misses, ok_results)
      << "warm seed " << seed;

  // Serial epilogue on the never-re-registered b pair: by now its record
  // provably exists (the submit below re-records if the round somehow
  // never completed one), so a repeat MUST serve warm — and still match
  // the baseline bit for bit.
  const Variant& v = world.warm_variants[1];
  TicketPtr first = service.Submit(MakeRequest(v, live_b1, live_b2));
  ASSERT_TRUE(first->Wait().ok()) << first->Wait().status().ToString();
  ASSERT_TRUE(first->Wait().value().core().stats.all_optimal)
      << "warm seed " << seed << ": epilogue run not storable";
  size_t hits_before = service.Stats().warm_start_hits;
  TicketPtr second = service.Submit(MakeRequest(v, live_b1, live_b2));
  ASSERT_TRUE(second->Wait().ok()) << second->Wait().status().ToString();
  EXPECT_GT(service.Stats().warm_start_hits, hits_before)
      << "warm seed " << seed << ": repeat request was not warm-seeded";
  ExpectResultsBitIdentical(first->Wait().value(), world.warm_baselines[1],
                            seed);
  ExpectResultsBitIdentical(second->Wait().value(), world.warm_baselines[1],
                            seed);
}

TEST(ServiceStressTest, WarmStartAndPortfolioSweepStaysBitIdentical) {
  size_t seeds = EnvSize("EXPLAIN3D_STRESS_SEEDS", kDefaultSeeds);
  size_t seed_base = EnvSize("EXPLAIN3D_STRESS_SEED_BASE", 1);
  size_t ops = EnvSize("EXPLAIN3D_STRESS_OPS", kDefaultOpsPerThread);
  for (size_t seed = seed_base; seed < seed_base + seeds; ++seed) {
    SCOPED_TRACE("warm seed " + std::to_string(seed));
    RunWarmStartRound(seed, ops);
    if (HasFatalFailure()) break;
  }
}

// --- fault-injection sweep --------------------------------------------------
// The same service hammered while the injector randomly kills stage-1
// builds, cache inserts, MILP nodes, worker claims, and cache
// retirements. A claimed request runs once, so an injected transient
// must fail its request with exactly kUnavailable. Every surviving
// result is still bit-identical to the serial baseline — faults never
// perturb WHAT is computed.

// One fault round at `seed`: arms a seeded schedule, drives concurrent
// submits + re-registrations, then checks the terminal states and the
// counter balances (including completed == exact + degraded). Adds the
// injected-fire count the round observed to `*fires_out`.
void RunFaultRound(uint64_t seed, size_t ops_per_thread,
                   uint64_t* fires_out) {
  StressWorld& world = World();
  std::string spec = "seed=" + std::to_string(seed) +
                     ";stage1.block=p0.02;stage1.intern=p0.02"
                     ";cache.insert=p0.05;service.claim=p0.05"
                     ";milp.node=p0.001;registry.retire=p0.2";
  Status armed = FaultInjector::Instance().Configure(spec);
  ASSERT_TRUE(armed.ok()) << armed.ToString();
  {
    ServiceOptions options;
    options.max_concurrency = size_t{1} << (seed % 3);  // 1, 2, 4
    Explain3DService service(options);

    std::mutex handles_mu;
    DatabaseHandle live_a1 = service.RegisterDatabase("a1", world.data_a.db1);
    DatabaseHandle live_a2 = service.RegisterDatabase("a2", world.data_a.db2);
    DatabaseHandle live_b1 = service.RegisterDatabase("b1", world.data_b.db1);
    DatabaseHandle live_b2 = service.RegisterDatabase("b2", world.data_b.db2);
    size_t reregisters = 0;

    constexpr size_t kFaultThreads = 2;
    std::vector<std::vector<TrackedTicket>> tracked(kFaultThreads);
    std::vector<std::thread> submitters;
    for (size_t t = 0; t < kFaultThreads; ++t) {
      submitters.emplace_back([&, t] {
        for (size_t k = 0; k < ops_per_thread; ++k) {
          uint64_t base = (t + 1) * 100000 + k * 16;
          auto draw = [&](uint64_t salt) {
            return CounterHash(seed * 7919, base + salt);
          };
          if (draw(0) % 100 < 85) {
            size_t vi = draw(1) % world.variants.size();
            const Variant& v = world.variants[vi];
            DatabaseHandle h1, h2;
            {
              std::lock_guard<std::mutex> lock(handles_mu);
              std::tie(h1, h2) = v.db1_name == "a1"
                                     ? std::make_pair(live_a1, live_a2)
                                     : std::make_pair(live_b1, live_b2);
            }
            tracked[t].push_back({service.Submit(MakeRequest(v, h1, h2)),
                                  vi, false, false});
          } else {
            // Re-registration drives the registry.retire probe (a fired
            // probe skips the eager cache sweep — which must be benign).
            DatabaseHandle fresh =
                service.RegisterDatabase("a1", world.data_a.db1);
            std::lock_guard<std::mutex> lock(handles_mu);
            live_a1 = fresh;
            ++reregisters;
          }
        }
      });
    }
    for (std::thread& th : submitters) th.join();

    size_t total_tracked = 0;
    size_t ok_results = 0, transient_failures = 0, stale_failures = 0;
    for (size_t t = 0; t < kFaultThreads; ++t) {
      total_tracked += tracked[t].size();
      for (const TrackedTicket& tt : tracked[t]) {
        const Result<PipelineResult>* r = tt.ticket->WaitFor(120.0);
        ASSERT_NE(r, nullptr) << "lost ticket at fault seed " << seed;
        switch (r->status().code()) {
          case StatusCode::kOk:
            ++ok_results;
            // Faults elsewhere never touch a surviving result: it is
            // still the baseline, bit for bit (and never silently
            // degraded).
            EXPECT_FALSE(r->value().degraded()) << "fault seed " << seed;
            ExpectResultsBitIdentical(r->value(),
                                      world.baselines[tt.variant], seed);
            break;
          case StatusCode::kUnavailable:
            // An injected transient hit the request's one run.
            ++transient_failures;
            break;
          case StatusCode::kInvalidArgument:
            ++stale_failures;
            EXPECT_NE(r->status().message().find("retired"),
                      std::string::npos)
                << r->status().ToString() << " fault seed " << seed;
            EXPECT_GT(reregisters, 0u) << "fault seed " << seed;
            break;
          default:
            ADD_FAILURE() << "unexpected terminal status "
                          << r->status().ToString() << " at fault seed "
                          << seed;
        }
      }
    }

    ServiceStats stats = service.Stats();
    *fires_out += stats.fault_fires;
    EXPECT_EQ(stats.submitted, total_tracked) << "fault seed " << seed;
    // Nothing was cancelled, deadlined, or rejected in this round — every
    // ticket ran to a completion, healthy or not.
    EXPECT_EQ(stats.completed, total_tracked) << "fault seed " << seed;
    EXPECT_EQ(stats.cancelled, 0u) << "fault seed " << seed;
    EXPECT_EQ(stats.deadline_exceeded, 0u) << "fault seed " << seed;
    EXPECT_EQ(stats.rejected, 0u) << "fault seed " << seed;
    EXPECT_EQ(stats.failed, transient_failures + stale_failures)
        << "fault seed " << seed;
    // The solver-split balance holds under injected chaos, and no finite
    // budget exists here, so nothing may degrade.
    EXPECT_EQ(stats.completed,
              stats.completed_exact + stats.completed_degraded)
        << "fault seed " << seed;
    EXPECT_EQ(stats.completed_degraded, 0u) << "fault seed " << seed;
    // Only an injected fault produces kUnavailable here; one with zero
    // injected fires would be a phantom transient somewhere. Nothing is
    // ever re-run.
    if (transient_failures > 0) {
      EXPECT_GT(stats.fault_fires, 0u) << "fault seed " << seed;
    }
    EXPECT_EQ(stats.retries, 0u) << "fault seed " << seed;
    EXPECT_EQ(stats.queue_depth, 0u) << "fault seed " << seed;
  }
  FaultInjector::Instance().Disable();
}

TEST(ServiceStressTest, InjectedFaultSweepKeepsEveryInvariant) {
  if (!kFaultInjectionEnabled) {
    GTEST_SKIP() << "fault probes compiled out";
  }
  size_t seeds = EnvSize("EXPLAIN3D_STRESS_SEEDS", kDefaultSeeds);
  size_t seed_base = EnvSize("EXPLAIN3D_STRESS_SEED_BASE", 1);
  size_t ops = EnvSize("EXPLAIN3D_STRESS_OPS", kDefaultOpsPerThread);
  uint64_t total_fires = 0;
  for (size_t seed = seed_base; seed < seed_base + seeds; ++seed) {
    SCOPED_TRACE("fault seed " + std::to_string(seed));
    RunFaultRound(seed, ops, &total_fires);
    if (HasFatalFailure()) break;
    FaultInjector::Instance().Disable();  // belt: never leak into others
  }
  // A sweep that never fired a single fault exercised nothing: the
  // probability schedules above make that astronomically unlikely
  // (every request hits service.claim at p=0.05 at least once).
  EXPECT_GT(total_fires, 0u);
}

// --- identical-flood + quota leg (multi-tenant serving) ---------------------
// The hammer pointed at the single-flight stage-1 builds and the
// per-client quotas: four tenants flood IDENTICAL requests over two
// dataset pairs, racing cancels, doomed and generous deadlines, and
// tight per-client queue quotas. Every result must stay bit-identical to
// the serial baseline, each ticket resolves on its own, the EXTENDED
// counter balance — including quota_rejected — must stay exact, and the
// cache must build each pair once, plus at most one rebuild for each
// build a cancel interrupted.

void RunFloodQuotaRound(uint64_t seed, size_t ops_per_thread) {
  StressWorld& world = World();
  ServiceOptions options;
  options.max_concurrency = size_t{1} << (seed % 3);  // 1, 2, 4
  options.starvation_every = 4;
  options.per_client_max_queued = 2;
  // Determinism leg: results are checked against strict baselines, so
  // never auto-flip a backlogged request to the greedy fallback.
  options.auto_fallback_on_overload = false;
  Explain3DService service(options);

  DatabaseHandle a1 = service.RegisterDatabase("a1", world.data_a.db1);
  DatabaseHandle a2 = service.RegisterDatabase("a2", world.data_a.db2);
  DatabaseHandle b1 = service.RegisterDatabase("b1", world.data_b.db1);
  DatabaseHandle b2 = service.RegisterDatabase("b2", world.data_b.db2);

  std::vector<std::vector<TrackedTicket>> tracked(kThreads);
  std::vector<std::thread> submitters;
  for (size_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      const std::string client = "tenant-" + std::to_string(t);
      for (size_t k = 0; k < ops_per_thread; ++k) {
        uint64_t base = (t + 1) * 100000 + k * 16;
        auto draw = [&](uint64_t salt) {
          return CounterHash(seed * 9973, base + salt);
        };
        auto submit_one = [&](bool with_deadline) {
          size_t vi = world.flood_variants[draw(1) %
                                           world.flood_variants.size()];
          const Variant& v = world.variants[vi];
          auto [h1, h2] = v.db1_name == "a1" ? std::make_pair(a1, a2)
                                             : std::make_pair(b1, b2);
          ExplanationRequest req = MakeRequest(v, h1, h2);
          bool doomed = false;
          if (with_deadline) {
            doomed = draw(2) % 2 == 0;
            req.deadline_seconds = doomed ? 1e-9 : 3600.0;
          }
          SubmitOptions sopts;
          sopts.priority = static_cast<int>(draw(3) % 2);
          sopts.client_id = client;
          tracked[t].push_back({service.Submit(std::move(req), sopts), vi,
                                with_deadline, doomed});
        };

        uint64_t pct = draw(0) % 100;
        if (pct < 60) {
          submit_one(/*with_deadline=*/false);
        } else if (pct < 80) {
          submit_one(/*with_deadline=*/true);
        } else {
          // Cancel one of our own — queued, running (perhaps building
          // the pair's stage 1 for others), or terminal (a no-op).
          if (tracked[t].empty()) {
            submit_one(false);
          } else {
            tracked[t][draw(7) % tracked[t].size()].ticket->Cancel();
          }
        }
      }
    });
  }
  for (std::thread& th : submitters) th.join();

  size_t total_tracked = 0;
  size_t ok_results = 0, cancelled = 0, deadline = 0, rejected = 0,
         quota_rejects = 0;
  for (size_t t = 0; t < kThreads; ++t) {
    total_tracked += tracked[t].size();
    for (const TrackedTicket& tt : tracked[t]) {
      const Result<PipelineResult>* r = tt.ticket->WaitFor(120.0);
      ASSERT_NE(r, nullptr) << "lost ticket at flood seed " << seed;
      switch (r->status().code()) {
        case StatusCode::kOk:
          ++ok_results;
          EXPECT_FALSE(tt.doomed_deadline)
              << "unmeetable deadline produced a result, flood seed "
              << seed;
          ExpectResultsBitIdentical(r->value(), world.baselines[tt.variant],
                                    seed);
          break;
        case StatusCode::kCancelled:
          ++cancelled;
          break;
        case StatusCode::kDeadlineExceeded:
          ++deadline;
          EXPECT_TRUE(tt.doomed_deadline)
              << "generous deadline expired, flood seed " << seed;
          break;
        case StatusCode::kUnavailable:
          ++rejected;
          EXPECT_TRUE(tt.has_deadline)
              << "admission rejected a deadline-free request, flood seed "
              << seed;
          break;
        case StatusCode::kResourceExhausted:
          // The per-client queue quota — the only source of this code.
          ++quota_rejects;
          EXPECT_NE(r->status().message().find("quota"), std::string::npos)
              << r->status().ToString() << " flood seed " << seed;
          break;
        default:
          ADD_FAILURE() << "unexpected terminal status "
                        << r->status().ToString() << " at flood seed "
                        << seed;
      }
    }
  }

  // The EXTENDED balance: every ticket in exactly one terminal bucket,
  // quota rejects accounted apart from admission rejects.
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.submitted, total_tracked) << "flood seed " << seed;
  EXPECT_EQ(stats.submitted, stats.completed + stats.cancelled +
                                 stats.deadline_exceeded + stats.rejected +
                                 stats.quota_rejected)
      << "flood seed " << seed;
  EXPECT_EQ(stats.completed, ok_results) << "flood seed " << seed;
  EXPECT_EQ(stats.failed, 0u) << "flood seed " << seed;
  EXPECT_EQ(stats.cancelled, cancelled) << "flood seed " << seed;
  EXPECT_EQ(stats.deadline_exceeded, deadline) << "flood seed " << seed;
  EXPECT_EQ(stats.rejected, rejected) << "flood seed " << seed;
  EXPECT_EQ(stats.quota_rejected, quota_rejects) << "flood seed " << seed;
  EXPECT_EQ(stats.completed, stats.completed_exact + stats.completed_degraded)
      << "flood seed " << seed;
  EXPECT_EQ(stats.completed_degraded, 0u) << "flood seed " << seed;
  EXPECT_EQ(stats.queue_depth, 0u) << "flood seed " << seed;
  // Single-flight builds, with no fault armed and no budget to evict:
  // every key a run reached holds one entry, and the builds are those
  // entries plus at most one rebuild per build a cancel interrupted.
  std::set<size_t> keys_answered;
  for (size_t t = 0; t < kThreads; ++t) {
    for (const TrackedTicket& tt : tracked[t]) {
      if (tt.ticket->TryGet()->ok()) keys_answered.insert(tt.variant);
    }
  }
  EXPECT_GE(stats.cache_entries, keys_answered.size()) << "flood seed " << seed;
  EXPECT_LE(stats.cache_entries, world.flood_variants.size())
      << "flood seed " << seed;
  EXPECT_GE(stats.cold_misses, stats.cache_entries) << "flood seed " << seed;
  EXPECT_LE(stats.cold_misses, stats.cache_entries + cancelled)
      << "flood seed " << seed;
  EXPECT_EQ(stats.coalesced_hits, 0u) << "flood seed " << seed;
}

TEST(ServiceStressTest, IdenticalFloodAndQuotaSweepHoldsEveryInvariant) {
  size_t seeds = EnvSize("EXPLAIN3D_STRESS_SEEDS", kDefaultSeeds);
  size_t seed_base = EnvSize("EXPLAIN3D_STRESS_SEED_BASE", 1);
  size_t ops = EnvSize("EXPLAIN3D_STRESS_OPS", kDefaultOpsPerThread);
  for (size_t seed = seed_base; seed < seed_base + seeds; ++seed) {
    SCOPED_TRACE("flood seed " + std::to_string(seed));
    RunFloodQuotaRound(seed, ops);
    if (HasFatalFailure()) break;
  }
}

}  // namespace
}  // namespace explain3d
