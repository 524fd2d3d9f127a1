// Serving throughput, cancellation latency, and priority tail latency.
//
// Phases (one BENCH_service.json line each, see docs/BENCHMARKS.md):
//
//   1. serial-warm      — the BM_PipelineWarmRun-equivalent baseline:
//                         a loop of warm RunExplain3D calls against one
//                         MatchingContext, no service. The rate the
//                         service must not fall below at 1 submitter.
//   2. service-warm     — the same warm requests through Submit/Wait at
//                         1, 2, and 4 submitter threads. On a multicore
//                         machine the 2/4-submitter rows should scale;
//                         on a 1-core container they demonstrate
//                         no-overhead (the acceptance bar).
//   3. service-mixed    — warm traffic with a re-registration (cache
//                         retirement → cold rebuild) every kColdEvery
//                         requests: the generation-bump serving pattern.
//   4. cancel-latency   — Cancel() → ticket-resolution time of a request
//                         cancelled deep inside a stage-2 solve whose
//                         uninterrupted run takes seconds (the PR-5
//                         acceptance figure: sub-50 ms), at several
//                         problem sizes.
//   5. priority-tail    — a burst of low-priority background work with
//                         high-priority interactive requests landing on
//                         top: per-band p50/p99 total latency shows the
//                         scheduler carving the interactive tail out of
//                         the backlog.
//   6. degradation-tail — the same hard solve under a deadline the
//                         exact solver cannot meet, strict vs portfolio
//                         (Explain3DConfig::portfolio): strict answers
//                         nothing (every request expires at the
//                         deadline); the portfolio runs greedy FIRST,
//                         seeds the exact attempt with its objective as
//                         a pruning floor, and returns the greedy answer
//                         (marked degraded, with an admissible
//                         incumbent_bound certificate) INSIDE the
//                         deadline — same tail, full answer rate (the
//                         graceful-degradation acceptance figure).
//   7. warm-restart     — the persistence-tier figure: a service snapshots
//                         its warm state (SnapshotTo), dies, and a fresh
//                         process restores it (RestoreFrom). Rows compare
//                         the cold first request against the restored
//                         service's first request — a warm hit straight
//                         off the mmapped snapshot, no rebuild.
//   8. service-multi-client — four tenants flooding IDENTICAL oracle-free
//                         requests through one service, coalescing off vs
//                         on: off pays one pipeline run per ticket, on
//                         shares one run per key (coalesced_hits) at the
//                         same bit-exact results. The fairness spread
//                         (max/min per-client makespan under DRR) rides
//                         along in both rows.
//
// EXPLAIN3D_SCALE scales the dataset; requests count is fixed.
//
// Build & run:  ./build/bench_service

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/timer.h"
#include "datagen/synthetic.h"
#include "eval/gold.h"
#include "service/service.h"

using namespace explain3d;
using namespace explain3d::bench;

namespace {

constexpr size_t kRequestsPerSubmitter = 8;
constexpr size_t kMixedRequests = 24;
constexpr size_t kColdEvery = 6;  // re-register cadence in phase 3

SyntheticDataset MakeData() {
  SyntheticOptions gen;
  gen.n = Scaled(500);
  gen.d = 0.25;
  gen.v = 300;
  gen.seed = 7;
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
  // Single-threaded pipeline per request: submitter-level parallelism is
  // what this bench measures, and it keeps the per-request cost equal to
  // the serial baseline's.
  req.config.num_threads = 1;
  return req;
}

double SerialWarmRps(const SyntheticDataset& data, size_t requests) {
  PipelineInput input;
  input.db1 = &data.db1;
  input.db2 = &data.db2;
  input.sql1 = data.sql1;
  input.sql2 = data.sql2;
  input.attr_matches = data.attr_matches;
  input.mapping_options.min_probability = 1e-4;
  input.calibration_oracle =
      MakeRowEntityOracle(data.row_entities1, data.row_entities2);
  MatchingContext context;
  input.matching_context = &context;
  Explain3DConfig config;
  config.num_threads = 1;
  MustRun(input, config);  // cold build, excluded from timing
  Timer timer;
  for (size_t i = 0; i < requests; ++i) MustRun(input, config);
  return static_cast<double>(requests) / timer.Seconds();
}

double ServiceWarmRps(const SyntheticDataset& data, size_t submitters,
                      size_t per_submitter, ServiceStats* stats_out) {
  ServiceOptions options;
  options.max_concurrency = submitters;
  Explain3DService service(options);
  DatabaseHandle h1 = service.RegisterDatabase("db1", data.db1);
  DatabaseHandle h2 = service.RegisterDatabase("db2", data.db2);
  // Warm the cache (cold request, excluded from timing).
  service.Submit(MakeRequest(data, h1, h2))->Wait();

  Timer timer;
  std::vector<std::thread> threads;
  for (size_t s = 0; s < submitters; ++s) {
    threads.emplace_back([&] {
      std::vector<TicketPtr> tickets;
      for (size_t i = 0; i < per_submitter; ++i) {
        tickets.push_back(service.Submit(MakeRequest(data, h1, h2)));
      }
      for (const TicketPtr& t : tickets) {
        if (!t->Wait().ok()) {
          std::fprintf(stderr, "request failed: %s\n",
                       t->Wait().status().ToString().c_str());
          std::abort();
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  double seconds = timer.Seconds();
  if (stats_out != nullptr) *stats_out = service.Stats();
  return static_cast<double>(submitters * per_submitter) / seconds;
}

double ServiceMixedRps(const SyntheticDataset& data, size_t requests,
                       ServiceStats* stats_out) {
  Explain3DService service;
  DatabaseHandle h1 = service.RegisterDatabase("db1", data.db1);
  DatabaseHandle h2 = service.RegisterDatabase("db2", data.db2);
  Timer timer;
  for (size_t i = 0; i < requests; ++i) {
    if (i % kColdEvery == 0 && i > 0) {
      // The serving mutation pattern: new data for the same name retires
      // the pair's cached artifacts; the next request rebuilds cold.
      h1 = service.RegisterDatabase("db1", data.db1);
    }
    TicketPtr t = service.Submit(MakeRequest(data, h1, h2));
    if (!t->Wait().ok()) {
      std::fprintf(stderr, "request failed: %s\n",
                   t->Wait().status().ToString().c_str());
      std::abort();
    }
  }
  double seconds = timer.Seconds();
  if (stats_out != nullptr) *stats_out = service.Stats();
  return static_cast<double>(requests) / seconds;
}

std::string SummaryJson(const LatencySummary& s) {
  return "{\"count\":" + std::to_string(s.count) +
         ",\"p50\":" + Fmt(s.p50, "%.6f") + ",\"p90\":" + Fmt(s.p90, "%.6f") +
         ",\"p99\":" + Fmt(s.p99, "%.6f") + ",\"max\":" + Fmt(s.max, "%.6f") +
         "}";
}

// --- phase 4: cancellation latency ------------------------------------------

// A stage-2 solve that cancellation must interrupt mid-flight: one
// monolithic dense sub-problem through the assignment branch & bound
// (the tests/service_test.cc MakeHardSolveRequest shape). `max_nodes`
// is the only stopper besides the token.
ExplanationRequest MakeHardRequest(const SyntheticDataset& data,
                                   DatabaseHandle h1, DatabaseHandle h2,
                                   size_t max_nodes) {
  ExplanationRequest req;
  req.db1 = h1;
  req.db2 = h2;
  req.sql1 = data.sql1;
  req.sql2 = data.sql2;
  req.attr_matches = data.attr_matches;
  req.mapping_options.use_blocking = false;
  req.mapping_options.min_probability = 1e-12;
  req.config.num_threads = 1;
  req.config.batch_size = 0;
  req.config.decompose_components = false;
  req.config.milp_max_constraints = 0;
  req.config.exact_max_nodes = max_nodes;
  return req;
}

struct CancelLatencyRow {
  size_t n = 0;
  double uninterrupted_s = 0;  ///< node-capped full solve, no cancellation
  double cancel_to_resolve_s = 0;
  bool finished_before_cancel = false;  ///< tiny scales only
};

CancelLatencyRow MeasureCancelLatency(size_t n, uint64_t seed) {
  SyntheticOptions gen;
  gen.n = n;
  gen.d = 0.25;
  gen.v = 200;
  gen.seed = seed;
  SyntheticDataset data = GenerateSynthetic(gen).value();

  ServiceOptions options;
  options.max_concurrency = 1;
  Explain3DService service(options);
  DatabaseHandle h1 = service.RegisterDatabase("db1", data.db1);
  DatabaseHandle h2 = service.RegisterDatabase("db2", data.db2);

  CancelLatencyRow row;
  row.n = n;

  // Uninterrupted reference: the same solve, stopped only by a scaled
  // node cap — the time a worker would stay hostage without cooperative
  // cancellation (≥1 s at the acceptance sizes).
  {
    TicketPtr t =
        service.Submit(MakeHardRequest(data, h1, h2, Scaled(30000000)));
    const Result<PipelineResult>& r = t->Wait();
    if (r.ok()) row.uninterrupted_s = r.value().stage2_seconds();
  }

  // Cancelled run: effectively unbounded nodes; cancel once the solve is
  // demonstrably in flight, then time Cancel() → resolution.
  TicketPtr t =
      service.Submit(MakeHardRequest(data, h1, h2, size_t{1} << 60));
  while (service.Stats().running == 0 && t->TryGet() == nullptr) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  if (t->TryGet() != nullptr) {
    row.finished_before_cancel = true;  // sub-scale instance: no measure
    return row;
  }
  auto cancelled_at = std::chrono::steady_clock::now();
  t->Cancel();
  t->Wait();
  row.cancel_to_resolve_s = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() -
                                cancelled_at)
                                .count();
  return row;
}

// --- phase 5: priority tail latency under mixed load ------------------------

struct PriorityTailResult {
  LatencySummary low, high;
  size_t requests = 0;
};

PriorityTailResult MeasurePriorityTail(const SyntheticDataset& data) {
  constexpr size_t kBackground = 30;
  constexpr size_t kInteractive = 6;
  constexpr int kHighPriority = 5;

  ServiceOptions options;
  options.max_concurrency = 2;
  Explain3DService service(options);
  DatabaseHandle h1 = service.RegisterDatabase("db1", data.db1);
  DatabaseHandle h2 = service.RegisterDatabase("db2", data.db2);
  // Warm the cache at a band of its own so neither measured band's
  // stats include this setup request.
  service.Submit(MakeRequest(data, h1, h2), SubmitOptions{-1, ""})->Wait();

  // A burst of background work lands first; interactive requests arrive
  // while the backlog drains and must cut the line.
  std::vector<TicketPtr> tickets;
  for (size_t i = 0; i < kBackground; ++i) {
    tickets.push_back(service.Submit(MakeRequest(data, h1, h2)));
  }
  for (size_t i = 0; i < kInteractive; ++i) {
    tickets.push_back(service.Submit(MakeRequest(data, h1, h2),
                                     SubmitOptions{kHighPriority, ""}));
  }
  for (const TicketPtr& t : tickets) {
    if (!t->Wait().ok()) {
      std::fprintf(stderr, "request failed: %s\n",
                   t->Wait().status().ToString().c_str());
      std::abort();
    }
  }
  ServiceStats stats = service.Stats();
  PriorityTailResult result;
  result.low = stats.priority_bands.at(0).total_seconds;
  result.high = stats.priority_bands.at(kHighPriority).total_seconds;
  result.requests = kBackground + kInteractive;
  return result;
}

// --- phase 6: portfolio-vs-strict tail latency under tight deadlines --------

struct ModeTail {
  size_t requests = 0;
  size_t answered = 0;           ///< OK results returned
  size_t degraded = 0;           ///< answered AND marked degraded()
  size_t deadline_exceeded = 0;  ///< expired empty-handed
  double p50 = 0, p99 = 0, max = 0;  ///< submit → resolution, seconds
  /// Worst optimality-gap certificate across degraded answers:
  /// max(incumbent_bound - objective). 0 when nothing degraded (or no
  /// finite bound was published).
  double gap_max = 0;
};

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t idx = static_cast<size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

// One mode's run: the MakeHardRequest solve (uninterrupted: seconds to
// minutes) under a deadline it cannot meet. Strict requests expire at
// the deadline with nothing; portfolio requests resolve a marked
// degraded result inside it. Both tails sit at ~deadline — the figure
// is the answer rate at the same latency.
ModeTail MeasureDegradationTail(const SyntheticDataset& data, bool portfolio,
                                double deadline_s, size_t requests) {
  ServiceOptions options;
  options.max_concurrency = 1;
  options.auto_fallback_on_overload = false;  // measure the MODE, not health
  // The strict leg's expiring runs poison the admission p50 with
  // ~deadline-long samples; admission would then reject the very
  // requests this phase measures. Off — every request must run.
  options.admission_control = false;
  Explain3DService service(options);
  DatabaseHandle h1 = service.RegisterDatabase("db1", data.db1);
  DatabaseHandle h2 = service.RegisterDatabase("db2", data.db2);

  ModeTail tail;
  tail.requests = requests;
  std::vector<double> latencies;
  for (size_t i = 0; i < requests; ++i) {
    ExplanationRequest req = MakeHardRequest(data, h1, h2, size_t{1} << 60);
    req.deadline_seconds = deadline_s;
    req.config.portfolio = portfolio;
    Timer timer;
    TicketPtr t = service.Submit(req);
    const Result<PipelineResult>& r = t->Wait();
    latencies.push_back(timer.Seconds());
    if (r.ok()) {
      ++tail.answered;
      if (r.value().degraded()) {
        ++tail.degraded;
        const DegradationInfo& info = r.value().degradation();
        if (std::isfinite(info.incumbent_bound)) {
          tail.gap_max =
              std::max(tail.gap_max, info.incumbent_bound - info.objective);
        }
      }
    } else if (r.status().code() == StatusCode::kDeadlineExceeded) {
      ++tail.deadline_exceeded;
    }
  }
  tail.p50 = Percentile(latencies, 0.5);
  tail.p99 = Percentile(latencies, 0.99);
  tail.max = Percentile(latencies, 1.0);
  return tail;
}

// --- phase 8: multi-client coalescing + fairness ----------------------------

struct MultiClientRow {
  double rps = 0;
  double makespan_min = 0, makespan_max = 0;  ///< per-client, seconds
  ServiceStats stats;
};

// Four closed-loop tenants, each flooding the SAME oracle-free request.
// With coalescing off every ticket pays a pipeline run; with it on, all
// tickets in flight at the same time share one run and resolve off the
// leader's result — same answers, a fraction of the work.
MultiClientRow MeasureMultiClient(const SyntheticDataset& data,
                                  bool coalesce) {
  constexpr size_t kClients = 4;
  ServiceOptions options;
  options.max_concurrency = 2;
  options.enable_coalescing = coalesce;
  Explain3DService service(options);
  DatabaseHandle h1 = service.RegisterDatabase("db1", data.db1);
  DatabaseHandle h2 = service.RegisterDatabase("db2", data.db2);

  auto coalescible = [&] {
    ExplanationRequest req = MakeRequest(data, h1, h2);
    req.calibration_oracle = nullptr;  // closures have no identity to share
    return req;
  };
  service.Submit(coalescible())->Wait();  // warm the cache, untimed

  std::vector<double> makespan(kClients, 0);
  Timer timer;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      SubmitOptions sopts;
      sopts.client_id = "client-" + std::to_string(c);
      Timer own;
      std::vector<TicketPtr> tickets;
      for (size_t i = 0; i < kRequestsPerSubmitter; ++i) {
        tickets.push_back(service.Submit(coalescible(), sopts));
      }
      for (const TicketPtr& t : tickets) {
        if (!t->Wait().ok()) {
          std::fprintf(stderr, "request failed: %s\n",
                       t->Wait().status().ToString().c_str());
          std::abort();
        }
      }
      makespan[c] = own.Seconds();
    });
  }
  for (std::thread& t : threads) t.join();
  double seconds = timer.Seconds();

  MultiClientRow row;
  row.rps = static_cast<double>(kClients * kRequestsPerSubmitter) / seconds;
  row.makespan_min = *std::min_element(makespan.begin(), makespan.end());
  row.makespan_max = *std::max_element(makespan.begin(), makespan.end());
  row.stats = service.Stats();
  return row;
}

std::string MultiClientJson(const char* mode, const MultiClientRow& r) {
  std::string out = "{\"mode\":\"";
  out += mode;
  out += "\",\"rps\":" + Fmt(r.rps, "%.3f");
  out += ",\"coalesced_hits\":" + std::to_string(r.stats.coalesced_hits);
  out += ",\"warm_hits\":" + std::to_string(r.stats.warm_hits);
  out += ",\"cold_misses\":" + std::to_string(r.stats.cold_misses);
  out += ",\"completed\":" + std::to_string(r.stats.completed);
  out += ",\"quota_rejected\":" + std::to_string(r.stats.quota_rejected);
  out += ",\"makespan_min_s\":" + Fmt(r.makespan_min, "%.6f");
  out += ",\"makespan_max_s\":" + Fmt(r.makespan_max, "%.6f");
  out += ",\"fairness_spread\":" +
         Fmt(r.makespan_min > 0 ? r.makespan_max / r.makespan_min : 0.0,
             "%.3f");
  out += "}";
  return out;
}

std::string ModeTailJson(const char* mode, const ModeTail& t) {
  std::string out = "{\"mode\":\"";
  out += mode;
  out += "\",\"requests\":" + std::to_string(t.requests);
  out += ",\"answered\":" + std::to_string(t.answered);
  out += ",\"degraded\":" + std::to_string(t.degraded);
  out += ",\"deadline_exceeded\":" + std::to_string(t.deadline_exceeded);
  out += ",\"gap_max\":" + Fmt(t.gap_max, "%.6f");
  out += ",\"p50\":" + Fmt(t.p50, "%.6f");
  out += ",\"p99\":" + Fmt(t.p99, "%.6f");
  out += ",\"max\":" + Fmt(t.max, "%.6f");
  out += "}";
  return out;
}

}  // namespace

int main() {
  SyntheticDataset data = MakeData();
  std::printf("bench_service: n=%zu per side (scale %.2f)\n\n",
              Scaled(500), Scale());

  double serial_rps = SerialWarmRps(data, kRequestsPerSubmitter);

  TablePrinter table({"mode", "submitters", "requests", "rps",
                      "vs serial", "warm hits", "cold misses"});
  table.AddRow({"serial-warm", "-", std::to_string(kRequestsPerSubmitter),
                Fmt(serial_rps, "%.2f"), "1.00x", "-", "-"});

  std::string json = "{\"figure\":\"service-throughput\"";
  json += ",\"scale\":" + Fmt(Scale(), "%.3g");
  json += ",\"n\":" + std::to_string(Scaled(500));
  json += ",\"serial_warm_rps\":" + Fmt(serial_rps, "%.3f");
  json += ",\"submitters\":[";

  bool first = true;
  ServiceStats last_stats;
  for (size_t submitters : {size_t{1}, size_t{2}, size_t{4}}) {
    ServiceStats stats;
    double rps =
        ServiceWarmRps(data, submitters, kRequestsPerSubmitter, &stats);
    table.AddRow({"service-warm", std::to_string(submitters),
                  std::to_string(submitters * kRequestsPerSubmitter),
                  Fmt(rps, "%.2f"), Fmt(rps / serial_rps, "%.2fx"),
                  std::to_string(stats.warm_hits),
                  std::to_string(stats.cold_misses)});
    if (!first) json += ",";
    first = false;
    json += "{\"s\":" + std::to_string(submitters);
    json += ",\"rps\":" + Fmt(rps, "%.3f");
    json += ",\"speedup_vs_serial\":" + Fmt(rps / serial_rps, "%.3f");
    json += ",\"queue_seconds\":" + SummaryJson(stats.queue_seconds);
    json += ",\"stage1_seconds\":" + SummaryJson(stats.stage1_seconds);
    json += ",\"stage2_seconds\":" + SummaryJson(stats.stage2_seconds);
    json += ",\"total_seconds\":" + SummaryJson(stats.total_seconds);
    json += "}";
    last_stats = stats;
  }
  json += "]";

  ServiceStats mixed_stats;
  double mixed_rps = ServiceMixedRps(data, kMixedRequests, &mixed_stats);
  table.AddRow({"service-mixed", "1", std::to_string(kMixedRequests),
                Fmt(mixed_rps, "%.2f"), Fmt(mixed_rps / serial_rps, "%.2fx"),
                std::to_string(mixed_stats.warm_hits),
                std::to_string(mixed_stats.cold_misses)});
  json += ",\"mixed_rps\":" + Fmt(mixed_rps, "%.3f");
  json += ",\"mixed_warm_hits\":" + std::to_string(mixed_stats.warm_hits);
  json += ",\"mixed_cold_misses\":" + std::to_string(mixed_stats.cold_misses);
  json += ",\"cold_every\":" + std::to_string(kColdEvery);
  json += "}";

  table.Print();
  std::printf(
      "\nwarm p50/p99 total latency at 4 submitters: %.4fs / %.4fs\n",
      last_stats.total_seconds.p50, last_stats.total_seconds.p99);
  AppendBenchJson("service", json);

  // --- phase 4: cancellation latency ---------------------------------------
  std::printf("\ncancellation latency (Cancel() -> ticket resolved):\n");
  TablePrinter cancel_table(
      {"n", "uninterrupted solve", "cancel->resolve", "note"});
  std::string cancel_json = "{\"figure\":\"service-cancel-latency\"";
  cancel_json += ",\"scale\":" + Fmt(Scale(), "%.3g");
  cancel_json += ",\"rows\":[";
  bool first_cancel = true;
  for (size_t base : {size_t{150}, size_t{300}, size_t{600}}) {
    CancelLatencyRow row = MeasureCancelLatency(Scaled(base), 40 + base);
    cancel_table.AddRow(
        {std::to_string(row.n), Fmt(row.uninterrupted_s, "%.3fs"),
         row.finished_before_cancel ? "-"
                                    : Fmt(row.cancel_to_resolve_s * 1e3,
                                          "%.2fms"),
         row.finished_before_cancel ? "solve finished before cancel" : ""});
    if (!first_cancel) cancel_json += ",";
    first_cancel = false;
    cancel_json += "{\"n\":" + std::to_string(row.n);
    cancel_json +=
        ",\"uninterrupted_s\":" + Fmt(row.uninterrupted_s, "%.6f");
    cancel_json += ",\"cancel_to_resolve_s\":" +
                   Fmt(row.cancel_to_resolve_s, "%.6f");
    cancel_json += ",\"finished_before_cancel\":";
    cancel_json += row.finished_before_cancel ? "true" : "false";
    cancel_json += "}";
  }
  cancel_json += "]}";
  cancel_table.Print();
  AppendBenchJson("service", cancel_json);

  // --- phase 5: priority tail latency --------------------------------------
  PriorityTailResult tail = MeasurePriorityTail(data);
  std::printf("\npriority tail latency under mixed load (%zu requests, "
              "%zu high-priority):\n",
              tail.requests, tail.high.count);
  TablePrinter tail_table({"band", "count", "p50", "p99", "max"});
  tail_table.AddRow({"background (prio 0)", std::to_string(tail.low.count),
                     Fmt(tail.low.p50, "%.4fs"), Fmt(tail.low.p99, "%.4fs"),
                     Fmt(tail.low.max, "%.4fs")});
  tail_table.AddRow({"interactive (prio 5)",
                     std::to_string(tail.high.count),
                     Fmt(tail.high.p50, "%.4fs"), Fmt(tail.high.p99, "%.4fs"),
                     Fmt(tail.high.max, "%.4fs")});
  tail_table.Print();
  std::string tail_json = "{\"figure\":\"service-priority-tail\"";
  tail_json += ",\"scale\":" + Fmt(Scale(), "%.3g");
  tail_json += ",\"n\":" + std::to_string(Scaled(500));
  tail_json += ",\"low\":" + SummaryJson(tail.low);
  tail_json += ",\"high\":" + SummaryJson(tail.high);
  tail_json += "}";
  AppendBenchJson("service", tail_json);

  // --- phase 6: portfolio-vs-strict tail latency ---------------------------
  {
    // Not scaled: below n≈150 the exact solve meets the deadline and the
    // figure has nothing to show.
    SyntheticOptions gen;
    gen.n = 150;
    gen.d = 0.25;
    gen.v = 200;
    gen.seed = 93;
    SyntheticDataset hard_data = GenerateSynthetic(gen).value();
    constexpr double kDeadline = 0.6;
    constexpr size_t kHardRequests = 6;

    ModeTail strict = MeasureDegradationTail(hard_data, /*portfolio=*/false,
                                             kDeadline, kHardRequests);
    ModeTail portfolio = MeasureDegradationTail(
        hard_data, /*portfolio=*/true, kDeadline, kHardRequests);

    std::printf("\nportfolio-vs-strict under a %.1fs deadline the exact "
                "solve cannot meet (n=%zu, %zu requests/mode):\n",
                kDeadline, gen.n, kHardRequests);
    TablePrinter deg_table({"mode", "answered", "degraded",
                            "deadline exceeded", "p50", "p99", "max",
                            "bound gap"});
    for (const auto& entry :
         {std::pair<const char*, const ModeTail*>{"strict", &strict},
          std::pair<const char*, const ModeTail*>{"portfolio",
                                                  &portfolio}}) {
      const ModeTail& t = *entry.second;
      deg_table.AddRow(
          {entry.first,
           std::to_string(t.answered) + "/" + std::to_string(t.requests),
           std::to_string(t.degraded),
           std::to_string(t.deadline_exceeded), Fmt(t.p50, "%.4fs"),
           Fmt(t.p99, "%.4fs"), Fmt(t.max, "%.4fs"),
           Fmt(t.gap_max, "%.4f")});
    }
    deg_table.Print();

    std::string deg_json = "{\"figure\":\"service-degradation-tail\"";
    deg_json += ",\"scale\":" + Fmt(Scale(), "%.3g");
    deg_json += ",\"n\":" + std::to_string(gen.n);
    deg_json += ",\"deadline_s\":" + Fmt(kDeadline, "%.3f");
    deg_json += ",\"modes\":[" + ModeTailJson("strict", strict) + "," +
                ModeTailJson("portfolio", portfolio) + "]}";
    AppendBenchJson("service", deg_json);
  }

  // --- phase 7: warm restart off the persistence tier ----------------------
  {
    const std::string dir =
        (std::filesystem::temp_directory_path() / "bench-warm-restart")
            .string();
    std::filesystem::remove_all(dir);

    // Small batches keep every solve unit provably optimal, so the cold
    // run records warm-start incumbents for the snapshot to carry — the
    // restored service then warm-starts its solves, not just stage 1.
    auto restart_request = [&](DatabaseHandle h1, DatabaseHandle h2) {
      ExplanationRequest req = MakeRequest(data, h1, h2);
      req.config.batch_size = 25;
      return req;
    };

    double cold_first_s = 0, snapshot_s = 0;
    {
      Explain3DService a;
      DatabaseHandle h1 = a.RegisterDatabase("db1", data.db1);
      DatabaseHandle h2 = a.RegisterDatabase("db2", data.db2);
      Timer cold;
      if (!a.Submit(restart_request(h1, h2))->Wait().ok()) std::abort();
      cold_first_s = cold.Seconds();
      Timer snap;
      if (!a.SnapshotTo(dir).ok()) std::abort();
      snapshot_s = snap.Seconds();
    }  // the service dies; only the disk image survives

    Explain3DService b;
    Timer restore;
    if (!b.RestoreFrom(dir).ok()) std::abort();
    double restore_s = restore.Seconds();
    DatabaseHandle h1 = b.RegisterDatabase("db1", data.db1);
    DatabaseHandle h2 = b.RegisterDatabase("db2", data.db2);
    Timer warm;
    if (!b.Submit(restart_request(h1, h2))->Wait().ok()) std::abort();
    double warm_first_s = warm.Seconds();
    ServiceStats stats = b.Stats();

    std::printf("\nwarm restart off the persistence tier (n=%zu):\n",
                Scaled(500));
    TablePrinter restart_table({"step", "seconds", "note"});
    restart_table.AddRow({"cold first request", Fmt(cold_first_s, "%.4fs"),
                          "full stage-1 build + solve"});
    restart_table.AddRow({"snapshot save", Fmt(snapshot_s, "%.4fs"),
                          "encode + fsync + atomic commit"});
    restart_table.AddRow({"restore (mmap)", Fmt(restore_s, "%.4fs"),
                          "verify + zero-copy wrap"});
    restart_table.AddRow(
        {"warm first request", Fmt(warm_first_s, "%.4fs"),
         "restored-cache hit, warm_start_hits=" +
             std::to_string(stats.warm_start_hits)});
    restart_table.Print();
    std::printf("first-request speedup after restart: %.2fx "
                "(warm_hits=%zu cold_misses=%zu restored=%zu)\n",
                warm_first_s > 0 ? cold_first_s / warm_first_s : 0.0,
                stats.warm_hits, stats.cold_misses, stats.restored_entries);

    std::string restart_json = "{\"figure\":\"service-warm-restart\"";
    restart_json += ",\"scale\":" + Fmt(Scale(), "%.3g");
    restart_json += ",\"n\":" + std::to_string(Scaled(500));
    restart_json += ",\"cold_first_s\":" + Fmt(cold_first_s, "%.6f");
    restart_json += ",\"snapshot_s\":" + Fmt(snapshot_s, "%.6f");
    restart_json += ",\"restore_s\":" + Fmt(restore_s, "%.6f");
    restart_json += ",\"warm_first_s\":" + Fmt(warm_first_s, "%.6f");
    restart_json +=
        ",\"speedup\":" +
        Fmt(warm_first_s > 0 ? cold_first_s / warm_first_s : 0.0, "%.3f");
    restart_json += ",\"warm_hits\":" + std::to_string(stats.warm_hits);
    restart_json += ",\"cold_misses\":" + std::to_string(stats.cold_misses);
    restart_json +=
        ",\"restored_entries\":" + std::to_string(stats.restored_entries);
    restart_json += ",\"restored_incumbents\":" +
                    std::to_string(stats.restored_incumbents);
    restart_json += "}";
    AppendBenchJson("service", restart_json);
    std::filesystem::remove_all(dir);
  }

  // --- phase 8: multi-client coalescing + fairness --------------------------
  {
    MultiClientRow off = MeasureMultiClient(data, /*coalesce=*/false);
    MultiClientRow on = MeasureMultiClient(data, /*coalesce=*/true);

    std::printf("\nmulti-client serving: 4 tenants x %zu identical "
                "requests, coalescing off vs on:\n",
                kRequestsPerSubmitter);
    TablePrinter mc_table({"coalescing", "rps", "coalesced hits",
                           "pipeline runs", "fairness spread"});
    for (const auto& entry :
         {std::pair<const char*, const MultiClientRow*>{"off", &off},
          std::pair<const char*, const MultiClientRow*>{"on", &on}}) {
      const MultiClientRow& r = *entry.second;
      mc_table.AddRow(
          {entry.first, Fmt(r.rps, "%.2f"),
           std::to_string(r.stats.coalesced_hits),
           std::to_string(r.stats.completed - r.stats.coalesced_hits),
           Fmt(r.makespan_min > 0 ? r.makespan_max / r.makespan_min : 0.0,
               "%.2fx")});
    }
    mc_table.Print();
    std::printf("coalescing speedup: %.2fx (%zu of %zu tickets shared a "
                "leader's run)\n",
                off.rps > 0 ? on.rps / off.rps : 0.0,
                on.stats.coalesced_hits, on.stats.completed);

    std::string mc_json = "{\"figure\":\"service-multi-client\"";
    mc_json += ",\"scale\":" + Fmt(Scale(), "%.3g");
    mc_json += ",\"n\":" + std::to_string(Scaled(500));
    mc_json += ",\"clients\":4";
    mc_json +=
        ",\"requests_per_client\":" + std::to_string(kRequestsPerSubmitter);
    mc_json += ",\"speedup\":" +
               Fmt(off.rps > 0 ? on.rps / off.rps : 0.0, "%.3f");
    mc_json += ",\"modes\":[" + MultiClientJson("off", off) + "," +
               MultiClientJson("on", on) + "]}";
    AppendBenchJson("service", mc_json);
  }
  return 0;
}
