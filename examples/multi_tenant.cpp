// Multi-tenant serving: shared stage-1 builds, per-client quotas, and
// fair scheduling across clients sharing one Explain3DService.
//
// Scenario: many viewers open the same dashboard explanation at once,
// a "dashboard" tenant refreshes it, and an "analyst" tenant asks
// one-off questions. This example walks the multi-tenant surface:
//
//   1. one build: concurrent requests over a cold dataset pair share
//      ONE stage-1 build — the cache's single-flight miss — and every
//      result holds the same artifacts block zero-copy (cold_misses,
//      warm_hits); each request still runs its own solve
//   2. per-client quotas: a flooding client is bounded by
//      per_client_max_queued (kResourceExhausted → quota_rejected)
//      without touching anyone else's requests
//   3. fairness: within a priority band, clients take round-robin
//      turns — the analyst's single request is not stuck behind the
//      dashboard's backlog
//
// This file is the compiled twin of the "Multi-tenant serving"
// section in docs/API.md — CI builds and runs it, so the documented
// snippet cannot rot.
//
// Build & run:  ./build/multi_tenant

#include <cstdio>
#include <string>
#include <vector>

#include "datagen/synthetic.h"
#include "service/service.h"

using namespace explain3d;

int main() {
  SyntheticOptions gen;
  gen.n = 400;
  gen.d = 0.25;
  gen.v = 300;
  SyntheticDataset data = GenerateSynthetic(gen).value();

  ServiceOptions options;
  options.max_concurrency = 2;
  options.per_client_max_queued = 4;  // a tenant may queue at most 4
  Explain3DService service(options);
  DatabaseHandle site = service.RegisterDatabase("site", data.db1);
  DatabaseHandle records = service.RegisterDatabase("records", data.db2);

  auto request = [&] {
    ExplanationRequest req;
    req.db1 = site;
    req.db2 = records;
    req.sql1 = data.sql1;
    req.sql2 = data.sql2;
    req.attr_matches = data.attr_matches;
    req.mapping_options.min_probability = 1e-4;
    req.config.batch_size = 1000;
    return req;
  };

  // --- 1. one build: ten viewers, one stage 1 ----------------------------
  std::vector<TicketPtr> viewers;
  for (int i = 0; i < 10; ++i) {
    SubmitOptions viewer;
    viewer.client_id = "viewer-" + std::to_string(i);
    viewers.push_back(service.Submit(request(), viewer));
  }
  for (const TicketPtr& t : viewers) {
    if (!t->Wait().ok()) {
      std::fprintf(stderr, "%s\n", t->Wait().status().ToString().c_str());
      return 1;
    }
  }
  // All ten hold the same artifacts block, pointer for pointer.
  bool shared = true;
  for (const TicketPtr& t : viewers) {
    shared = shared && t->Wait().value().artifacts().get() ==
                           viewers[0]->Wait().value().artifacts().get();
  }
  ServiceStats after_viewers = service.Stats();
  std::printf("10 identical viewer requests: %zu stage-1 build, %zu warm "
              "hits, artifacts shared: %s\n",
              after_viewers.cold_misses, after_viewers.warm_hits,
              shared ? "yes" : "no");
  if (after_viewers.cold_misses != 1 || !shared) return 1;

  // --- 2. quotas: the flood is bounded, the analyst is not ----------------
  // Submit past per_client_max_queued: the over-quota tickets resolve
  // kResourceExhausted synchronously; an "analyst" submit sails through.
  SubmitOptions dashboard;
  dashboard.client_id = "dashboard";
  std::vector<TicketPtr> flood;
  size_t flood_rejected = 0;
  for (int i = 0; i < 8; ++i) {
    ExplanationRequest req = request();
    req.config.batch_size = 100 + i;
    flood.push_back(service.Submit(std::move(req), dashboard));
    const Result<PipelineResult>* r = flood.back()->TryGet();
    if (r != nullptr &&
        r->status().code() == StatusCode::kResourceExhausted) {
      ++flood_rejected;
    }
  }
  SubmitOptions analyst;
  analyst.client_id = "analyst";
  TicketPtr analyst_ticket = service.Submit(request(), analyst);
  std::printf("dashboard flood of 8: %zu over quota (kResourceExhausted); "
              "analyst submit: %s\n",
              flood_rejected,
              analyst_ticket->Wait().ok() ? "OK" : "rejected");
  for (const TicketPtr& t : flood) t->Wait();  // drain the survivors

  // --- 3. the ledger ------------------------------------------------------
  ServiceStats stats = service.Stats();
  std::printf("\nstats: %zu submitted = %zu completed + %zu quota_rejected "
              "(+ %zu cancelled + %zu expired + %zu admission-rejected)\n",
              stats.submitted, stats.completed, stats.quota_rejected,
              stats.cancelled, stats.deadline_exceeded, stats.rejected);
  std::printf("stage-1 builds: %zu for %zu completions (%zu warm hits)\n",
              stats.cold_misses, stats.completed, stats.warm_hits);
  return 0;
}
