// MatchingContext eviction/lifetime tests for the reference-based
// PipelineResult: a result co-owns its Stage1Artifacts through an
// ArtifactsPtr, so it must stay fully usable after the context that
// served it is cleared (evicted) or destroyed; warm runs must share one
// artifacts block instead of copying; two contexts over the same
// databases must not alias any mutable state; and concurrent misses on
// one key must share one build (single-flight).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/notification.h"
#include "core/matching_context.h"
#include "core/pipeline.h"
#include "datagen/synthetic.h"
#include "eval/gold.h"

namespace explain3d {
namespace {

SyntheticDataset MakeData(uint64_t seed, size_t n = 100) {
  SyntheticOptions gen;
  gen.n = n;
  gen.d = 0.25;
  gen.v = 200;
  gen.seed = seed;
  return GenerateSynthetic(gen).value();
}

PipelineInput MakeInput(const SyntheticDataset& data) {
  PipelineInput input;
  input.db1 = &data.db1;
  input.db2 = &data.db2;
  input.sql1 = data.sql1;
  input.sql2 = data.sql2;
  input.attr_matches = data.attr_matches;
  input.mapping_options.min_probability = 1e-4;
  input.calibration_oracle =
      MakeRowEntityOracle(data.row_entities1, data.row_entities2);
  return input;
}

void ExpectSameArtifactContents(const PipelineResult& a,
                                const PipelineResult& b) {
  EXPECT_EQ(a.answer1(), b.answer1());
  EXPECT_EQ(a.answer2(), b.answer2());
  EXPECT_EQ(a.t1().size(), b.t1().size());
  EXPECT_EQ(a.t2().size(), b.t2().size());
  EXPECT_EQ(a.p1().size(), b.p1().size());
  EXPECT_EQ(a.p2().size(), b.p2().size());
}

TEST(PipelineLifetimeTest, WarmRunsShareOneArtifactsBlockZeroCopy) {
  SyntheticDataset data = MakeData(51);
  PipelineInput input = MakeInput(data);
  MatchingContext context;
  input.matching_context = &context;
  Explain3DConfig config;

  PipelineResult warm1 = RunExplain3D(input, config).value();
  PipelineResult warm2 = RunExplain3D(input, config).value();

  // Zero-copy: both results and the cache entry reference the SAME
  // immutable block — pointer equality, not just equal contents.
  ASSERT_NE(warm1.artifacts(), nullptr);
  EXPECT_EQ(warm1.artifacts().get(), warm2.artifacts().get());
  // Accessors are views into that block, not per-result copies.
  EXPECT_EQ(&warm1.t1(), &warm1.artifacts()->t1);
  EXPECT_EQ(&warm1.t1(), &warm2.t1());
  EXPECT_EQ(&warm1.p2(), &warm2.p2());
  // Owners: warm1, warm2, and the cache entry.
  EXPECT_GE(warm1.artifacts().use_count(), 3);
}

TEST(PipelineLifetimeTest, ResultOutlivesEvictedContextEntry) {
  SyntheticDataset data = MakeData(52);
  PipelineInput input = MakeInput(data);
  MatchingContext context;
  input.matching_context = &context;
  Explain3DConfig config;

  PipelineResult r = RunExplain3D(input, config).value();
  const CanonicalTuple* first_tuple = &r.t1().tuples.front();
  size_t t1_size = r.t1().size();

  context.Clear();  // evicts the cache's reference
  EXPECT_EQ(context.size(), 0u);

  // The result still co-owns the block: same address, same contents.
  EXPECT_EQ(&r.t1().tuples.front(), first_tuple);
  EXPECT_EQ(r.t1().size(), t1_size);
  EXPECT_FALSE(r.initial_mapping().empty());
  // And the evicted entry really was released by the cache: the result
  // (and anyone it shared with) is the only owner left.
  EXPECT_EQ(r.artifacts().use_count(), 1);
}

TEST(PipelineLifetimeTest, ResultOutlivesDestroyedContext) {
  SyntheticDataset data = MakeData(53);
  PipelineInput input = MakeInput(data);
  Explain3DConfig config;

  PipelineResult cold = RunExplain3D(input, config).value();

  PipelineResult warm;
  {
    MatchingContext context;
    input.matching_context = &context;
    warm = RunExplain3D(input, config).value();
  }  // context destroyed here

  // Every accessor still works and matches the uncached run.
  ExpectSameArtifactContents(warm, cold);
  ASSERT_EQ(warm.initial_mapping().size(), cold.initial_mapping().size());
  for (size_t k = 0; k < warm.initial_mapping().size(); ++k) {
    EXPECT_EQ(warm.initial_mapping()[k].p, cold.initial_mapping()[k].p);
  }
  EXPECT_EQ(warm.core().explanations.delta, cold.core().explanations.delta);
  EXPECT_EQ(warm.core().explanations.log_probability,
            cold.core().explanations.log_probability);
  EXPECT_EQ(warm.artifacts().use_count(), 1);
}

TEST(PipelineLifetimeTest, HeldArtifactsPtrKeepsBlockAliveAfterResult) {
  SyntheticDataset data = MakeData(54);
  PipelineInput input = MakeInput(data);
  Explain3DConfig config;

  ArtifactsPtr kept;
  {
    PipelineResult r = RunExplain3D(input, config).value();
    kept = r.artifacts();
  }  // result destroyed; `kept` is now the sole owner

  ASSERT_NE(kept, nullptr);
  EXPECT_EQ(kept.use_count(), 1);
  EXPECT_GT(kept->t1.size(), 0u);
  EXPECT_EQ(kept->candidates.empty(), false);
}

// --- byte accounting + LRU eviction -----------------------------------------

// Direct GetOrBuild driver: tiny synthetic blocks with known-ish sizes so
// the budget math is easy to reason about.
ArtifactsPtr TinyBlock(size_t n_tuples) {
  auto art = std::make_shared<Stage1Artifacts>();
  art->t1.key_attrs = {"k"};
  for (size_t i = 0; i < n_tuples; ++i) {
    CanonicalTuple t;
    t.key = {Value(static_cast<int64_t>(i))};
    t.impact = 1;
    t.prov_rows = {i};
    art->t1.tuples.push_back(std::move(t));
  }
  return art;
}

TEST(MatchingContextCacheTest, BytesAccountedAndClearedWithEntries) {
  MatchingContext ctx;
  EXPECT_EQ(ctx.bytes(), 0u);
  EXPECT_EQ(ctx.budget_bytes(), 0u);  // unlimited by default

  auto a = ctx.GetOrBuild("a", [] { return TinyBlock(4); }).value();
  size_t after_a = ctx.bytes();
  EXPECT_GT(after_a, 0u);
  // The entry is charged the block PLUS its key string (stored twice:
  // map + LRU list) and a flat node overhead — the budget prices what
  // the cache actually holds, not just the artifact bytes.
  EXPECT_GT(after_a, ApproxBytes(*a));
  EXPECT_LE(after_a, ApproxBytes(*a) + 256);

  ctx.GetOrBuild("b", [] { return TinyBlock(4); }).value();
  EXPECT_GT(ctx.bytes(), after_a);

  ctx.Clear();
  EXPECT_EQ(ctx.bytes(), 0u);
  EXPECT_EQ(ctx.size(), 0u);
}

TEST(MatchingContextCacheTest, EvictsLeastRecentlyUsedFirst) {
  // Budget fits two tiny blocks but not three.
  size_t one = ApproxBytes(*TinyBlock(4));
  MatchingContext ctx(2 * one + one / 2);

  auto build = [] { return TinyBlock(4); };
  ArtifactsPtr a = ctx.GetOrBuild("a", build).value();
  ctx.GetOrBuild("b", build).value();
  // Touch "a": "b" becomes the least recently used entry.
  ctx.GetOrBuild("a", build).value();
  EXPECT_EQ(ctx.hits(), 1u);

  ctx.GetOrBuild("c", build).value();
  EXPECT_EQ(ctx.evictions(), 1u);
  EXPECT_EQ(ctx.size(), 2u);

  // LRU order evicted "b", not "a": re-asking "a" hits, "b" misses.
  size_t hits_before = ctx.hits();
  ctx.GetOrBuild("a", build).value();
  EXPECT_EQ(ctx.hits(), hits_before + 1);
  size_t misses_before = ctx.misses();
  ctx.GetOrBuild("b", build).value();
  EXPECT_EQ(ctx.misses(), misses_before + 1);
  // Evicted entries were released by the cache, but `a` (held here) was
  // never invalidated — eviction only drops the cache's reference.
  EXPECT_GT(a->t1.size(), 0u);
}

TEST(MatchingContextCacheTest, SingleOversizedEntrySurvives) {
  MatchingContext ctx(1);  // absurdly small budget
  ctx.GetOrBuild("big", [] { return TinyBlock(64); }).value();
  // The most recent entry is never evicted: one entry, over budget.
  EXPECT_EQ(ctx.size(), 1u);
  EXPECT_EQ(ctx.evictions(), 0u);
  // A second insert evicts the older one immediately.
  ctx.GetOrBuild("big2", [] { return TinyBlock(64); }).value();
  EXPECT_EQ(ctx.size(), 1u);
  EXPECT_EQ(ctx.evictions(), 1u);
  size_t misses_before = ctx.misses();
  ctx.GetOrBuild("big", [] { return TinyBlock(64); }).value();
  EXPECT_EQ(ctx.misses(), misses_before + 1);  // "big" was the victim
}

TEST(MatchingContextCacheTest, ShrinkingBudgetEvictsImmediately) {
  MatchingContext ctx;  // unlimited
  auto build = [] { return TinyBlock(4); };
  ctx.GetOrBuild("a", build).value();
  ctx.GetOrBuild("b", build).value();
  ctx.GetOrBuild("c", build).value();
  EXPECT_EQ(ctx.size(), 3u);
  EXPECT_EQ(ctx.evictions(), 0u);

  ctx.set_budget_bytes(ApproxBytes(*TinyBlock(4)) + 1);
  EXPECT_EQ(ctx.size(), 1u);
  EXPECT_EQ(ctx.evictions(), 2u);
  // The survivor is the most recently used: "c".
  size_t hits_before = ctx.hits();
  ctx.GetOrBuild("c", build).value();
  EXPECT_EQ(ctx.hits(), hits_before + 1);
}

TEST(MatchingContextCacheTest, EraseIfDropsMatchingKeysOnly) {
  MatchingContext ctx;
  auto build = [] { return TinyBlock(4); };
  ctx.GetOrBuild("g1|q1", build).value();
  ctx.GetOrBuild("g1|q2", build).value();
  ctx.GetOrBuild("g2|q1", build).value();
  size_t bytes_before = ctx.bytes();

  size_t erased = ctx.EraseIf(
      [](const std::string& key) { return key.rfind("g1|", 0) == 0; });
  EXPECT_EQ(erased, 2u);
  EXPECT_EQ(ctx.size(), 1u);
  EXPECT_LT(ctx.bytes(), bytes_before);

  size_t hits_before = ctx.hits();
  ctx.GetOrBuild("g2|q1", build).value();
  EXPECT_EQ(ctx.hits(), hits_before + 1);  // unmatched key survived
}

// A block whose teardown calls back into `ctx` from another thread and
// waits up to 10 s for the answer. `released` records whether the call
// got through — it cannot while the cache still holds its lock — and
// `probe` keeps the call's future alive past the deleter, so a blocked
// call never deadlocks the deleter itself.
ArtifactsPtr BlockProbingContextOnRelease(const MatchingContext* ctx,
                                          std::future<size_t>* probe,
                                          bool* released) {
  auto art = std::make_shared<Stage1Artifacts>();
  art->storage_owner = std::shared_ptr<const void>(
      nullptr, [ctx, probe, released](const void*) {
        *probe = std::async(std::launch::async, [ctx] { return ctx->size(); });
        *released = probe->wait_for(std::chrono::seconds(10)) ==
                    std::future_status::ready;
      });
  return art;
}

TEST(MatchingContextCacheTest, DroppedBlocksAreDestroyedOutsideTheLock) {
  auto other = [] { return TinyBlock(4); };
  {  // EraseIf (a re-registration retiring a dataset's entries)
    MatchingContext ctx;
    std::future<size_t> probe;
    bool released = false;
    ASSERT_TRUE(ctx.Put("g1|q", BlockProbingContextOnRelease(&ctx, &probe,
                                                              &released)));
    EXPECT_EQ(ctx.EraseIf([](const std::string& key) {
      return key.rfind("g1|", 0) == 0;
    }), 1u);
    EXPECT_TRUE(released) << "EraseIf destroyed the block under its lock";
  }
  {  // Clear
    MatchingContext ctx;
    std::future<size_t> probe;
    bool released = false;
    ASSERT_TRUE(
        ctx.Put("a", BlockProbingContextOnRelease(&ctx, &probe, &released)));
    ctx.GetOrBuild("b", other).value();
    ctx.Clear();
    EXPECT_TRUE(released) << "Clear destroyed the block under its lock";
  }
  {  // budget eviction on insert
    MatchingContext ctx(1);  // every insert evicts all but the newest
    std::future<size_t> probe;
    bool released = false;
    ASSERT_TRUE(
        ctx.Put("a", BlockProbingContextOnRelease(&ctx, &probe, &released)));
    ctx.GetOrBuild("b", other).value();
    EXPECT_EQ(ctx.evictions(), 1u);
    EXPECT_TRUE(released) << "eviction destroyed the block under its lock";
  }
}

// --- single-flight builds ---------------------------------------------------

// A builder that counts its runs, announces the first, and holds every
// run until `release` fires.
struct HeldBuilder {
  std::atomic<int> runs{0};
  Notification entered, release;
  MatchingContext::Builder Fn() {
    return [this]() -> Result<ArtifactsPtr> {
      if (runs++ == 0) entered.Notify();
      release.WaitForNotification();
      return TinyBlock(4);
    };
  }
};

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

TEST(MatchingContextSingleFlightTest, ConcurrentMissesOnOneKeyRunOneBuild) {
  constexpr int kCallers = 8;
  MatchingContext ctx;
  HeldBuilder builder;
  const MatchingContext::Builder build = builder.Fn();
  std::vector<ArtifactsPtr> got(kCallers);
  std::vector<std::thread> callers;
  for (int i = 0; i < kCallers; ++i) {
    callers.emplace_back(
        [&, i] { got[i] = ctx.GetOrBuild("k", build).value(); });
  }
  builder.entered.WaitForNotification();
  // Let the other callers reach the held build before it lands; one that
  // arrives later takes the cached block, which counts the same.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  builder.release.Notify();
  for (std::thread& t : callers) t.join();

  EXPECT_EQ(builder.runs.load(), 1);
  EXPECT_EQ(ctx.misses(), 1u);
  EXPECT_EQ(ctx.hits(), static_cast<size_t>(kCallers - 1));
  EXPECT_EQ(ctx.size(), 1u);
  for (const ArtifactsPtr& art : got) EXPECT_EQ(art.get(), got[0].get());
}

TEST(MatchingContextSingleFlightTest, WaiterLeavesOnItsOwnTokenBuildLands) {
  MatchingContext ctx;
  HeldBuilder builder;
  const MatchingContext::Builder build = builder.Fn();
  std::thread owner([&] { EXPECT_TRUE(ctx.GetOrBuild("k", build).ok()); });
  builder.entered.WaitForNotification();

  // A cancel, fired while the waiter waits...
  CancelToken cancelled;
  std::chrono::steady_clock::time_point fired_at;
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    fired_at = std::chrono::steady_clock::now();
    cancelled.Cancel();
  });
  Result<ArtifactsPtr> r = ctx.GetOrBuild("k", build, &cancelled);
  const auto returned_at = std::chrono::steady_clock::now();
  canceller.join();
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  EXPECT_LT(std::chrono::duration<double>(returned_at - fired_at).count(),
            0.05);

  // ...and a deadline, each leave the waiter within milliseconds.
  const auto t0 = std::chrono::steady_clock::now();
  CancelToken deadline(0.1);
  r = ctx.GetOrBuild("k", build, &deadline);
  const double waited = SecondsSince(t0);
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(waited, 0.1 + 0.05);

  // The build went on for its owner and landed.
  builder.release.Notify();
  owner.join();
  EXPECT_EQ(builder.runs.load(), 1);
  EXPECT_EQ(ctx.size(), 1u);
  EXPECT_EQ(ctx.misses(), 1u);
  EXPECT_TRUE(ctx.GetOrBuild("k", build).ok());
  EXPECT_EQ(ctx.hits(), 1u);
}

TEST(MatchingContextSingleFlightTest, InterruptedBuildPassesToAWaiter) {
  // The builder's own interruption, and a transient fault, are not the
  // waiter's: it builds instead, and nothing fails but the builder.
  for (StatusCode code : {StatusCode::kCancelled,
                          StatusCode::kDeadlineExceeded,
                          StatusCode::kUnavailable}) {
    SCOPED_TRACE(static_cast<int>(code));
    MatchingContext ctx;
    std::atomic<int> runs{0};
    Notification entered, release;
    const MatchingContext::Builder build = [&]() -> Result<ArtifactsPtr> {
      if (runs++ > 0) return TinyBlock(4);
      entered.Notify();
      release.WaitForNotification();
      return Status(code, "the first build stops");
    };
    Result<ArtifactsPtr> first = ArtifactsPtr();
    std::thread owner([&] { first = ctx.GetOrBuild("k", build); });
    entered.WaitForNotification();
    Result<ArtifactsPtr> second = ArtifactsPtr();
    std::thread waiter([&] { second = ctx.GetOrBuild("k", build); });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    release.Notify();
    owner.join();
    waiter.join();

    EXPECT_EQ(first.status().code(), code);
    ASSERT_TRUE(second.ok()) << second.status().ToString();
    EXPECT_NE(second.value(), nullptr);
    EXPECT_EQ(runs.load(), 2);
    EXPECT_EQ(ctx.misses(), 2u);
    EXPECT_EQ(ctx.size(), 1u);
  }
}

TEST(PipelineLifetimeTest, TwoContextsOverSameDatabasesDoNotAlias) {
  SyntheticDataset data = MakeData(55);
  PipelineInput input = MakeInput(data);
  Explain3DConfig config;

  MatchingContext ctx_a, ctx_b;
  input.matching_context = &ctx_a;
  PipelineResult ra = RunExplain3D(input, config).value();
  input.matching_context = &ctx_b;
  PipelineResult rb = RunExplain3D(input, config).value();

  // Each context built its own (deterministic, so equal-content) block;
  // they share no state, so clearing one cannot disturb the other.
  EXPECT_NE(ra.artifacts().get(), rb.artifacts().get());
  ExpectSameArtifactContents(ra, rb);
  EXPECT_EQ(ctx_a.size(), 1u);
  EXPECT_EQ(ctx_b.size(), 1u);

  ctx_a.Clear();
  EXPECT_EQ(ctx_a.size(), 0u);
  EXPECT_EQ(ctx_b.size(), 1u);  // untouched

  // ctx_b still serves its (intact) entry: a warm run shares rb's block.
  PipelineResult rb2 = RunExplain3D(input, config).value();
  EXPECT_EQ(rb2.artifacts().get(), rb.artifacts().get());
  EXPECT_EQ(ctx_b.hits(), 1u);
}

}  // namespace
}  // namespace explain3d
