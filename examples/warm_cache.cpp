// Warm-cache serving: the repeated-interactive-query fast path, on the
// LOW-LEVEL pipeline API (Explain3DService wraps all of this — see
// examples/serving.cpp; use this path when you manage database lifetimes
// yourself).
//
// An analyst exploring a disagreement asks many explanation queries over
// the same database pair, varying only solver options. A MatchingContext
// caches the stage-1 front end (execution, provenance, canonicalization,
// interning, blocking); the reference-based PipelineResult then shares
// the cached artifacts instead of copying them, so each warm call pays
// for candidate scoring + calibration + stage 2 only. Entries are
// byte-accounted and LRU-evicted under an optional budget
// (MatchingContext::set_budget_bytes, or the constructor argument).
//
// This file is the compiled twin of the usage example in docs/API.md —
// CI builds and runs it, so the documented snippet cannot rot.
//
// Build & run:  ./build/warm_cache

#include <cstdio>

#include "core/pipeline.h"
#include "datagen/synthetic.h"
#include "eval/gold.h"

using namespace explain3d;

int main() {
  SyntheticOptions gen;
  gen.n = 800;
  gen.d = 0.25;
  gen.v = 400;
  SyntheticDataset data = GenerateSynthetic(gen).value();

  PipelineInput input;
  input.db1 = &data.db1;
  input.db2 = &data.db2;
  input.sql1 = data.sql1;
  input.sql2 = data.sql2;
  input.attr_matches = data.attr_matches;
  input.mapping_options.min_probability = 1e-4;
  input.calibration_oracle =
      MakeRowEntityOracle(data.row_entities1, data.row_entities2);

  // One context per served database pair; it must outlive the calls.
  MatchingContext context;
  input.matching_context = &context;

  // The session: the same explanation query re-asked with different
  // solver configurations (batch sizes here). Call 1 is cold (builds the
  // artifacts); calls 2+ are warm (reuse them, copying nothing).
  PipelineResult last;
  for (size_t batch : {size_t{1000}, size_t{500}, size_t{100}}) {
    Explain3DConfig config;
    config.batch_size = batch;
    Result<PipelineResult> r = RunExplain3D(input, config);
    if (!r.ok()) {
      std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
      return 1;
    }
    std::printf("batch=%-5zu stage1 %.4fs  stage2 %.4fs  |E|=%zu  (%s)\n",
                batch, r.value().stage1_seconds(),
                r.value().stage2_seconds(),
                r.value().core().explanations.size(),
                context.hits() > 0 ? "warm" : "cold");
    last = std::move(r).value();
  }
  std::printf("context: %zu entry, %zu misses, %zu hits\n", context.size(),
              context.misses(), context.hits());

  // Zero-copy in action: the last result and the cache entry share one
  // immutable artifacts block.
  std::printf("artifacts shared: use_count=%ld, |T1|=%zu, |T2|=%zu\n",
              static_cast<long>(last.artifacts().use_count()),
              last.t1().size(), last.t2().size());

  // Lifetime: results co-own their artifacts, so they survive eviction.
  context.Clear();
  std::printf("after Clear(): result still reads T1 (%zu tuples), "
              "use_count=%ld\n",
              last.t1().size(),
              static_cast<long>(last.artifacts().use_count()));

  // Byte budget: entries are ApproxBytes-accounted; a budget evicts in
  // LRU order. Serve two keys (the pair and its mirror) under a budget
  // that fits only one block — the older entry is evicted, warm service
  // continues for the newer one, and `last` stays valid regardless.
  context.set_budget_bytes(1);  // absurdly small: keeps 1 entry (LRU
                                // never evicts the newest block)
  Result<PipelineResult> straight = RunExplain3D(input, Explain3DConfig{});
  PipelineInput mirrored = input;
  std::swap(mirrored.db1, mirrored.db2);
  std::swap(mirrored.sql1, mirrored.sql2);
  // Every side-dependent input must flip with the databases — including
  // the calibration oracle's row→entity vectors.
  mirrored.calibration_oracle =
      MakeRowEntityOracle(data.row_entities2, data.row_entities1);
  Result<PipelineResult> mirror = RunExplain3D(mirrored, Explain3DConfig{});
  if (!straight.ok() || !mirror.ok()) {
    std::fprintf(stderr, "budgeted runs failed\n");
    return 1;
  }
  std::printf("budget=1B: %zu entry cached (%zu bytes), %zu evictions\n",
              context.size(), context.bytes(), context.evictions());
  return 0;
}
