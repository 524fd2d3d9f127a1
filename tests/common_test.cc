// Common-runtime tests: Status/Result, the CancelToken primitive, the
// Notification's timed wait, string utilities, RNG statistics, metrics,
// and gold derivation.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <optional>
#include <thread>

#include "common/cancel.h"
#include "common/notification.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"
#include "eval/gold.h"
#include "eval/metrics.h"

namespace explain3d {
namespace {

TEST(StatusTest, CodesAndMessages) {
  EXPECT_TRUE(Status::OK().ok());
  Status s = Status::NotFound("thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: thing");
}

TEST(StatusTest, ServingCodesRoundTrip) {
  // The serving codes round-trip factory → code → name → ToString, and
  // stay distinct from every pre-existing code (Result plumbing included).
  Status d = Status::DeadlineExceeded("queued past the deadline");
  EXPECT_FALSE(d.ok());
  EXPECT_EQ(d.code(), StatusCode::kDeadlineExceeded);
  EXPECT_STREQ(StatusCodeName(d.code()), "DeadlineExceeded");
  EXPECT_EQ(d.ToString(), "DeadlineExceeded: queued past the deadline");

  Status c = Status::Cancelled("caller gave up");
  EXPECT_FALSE(c.ok());
  EXPECT_EQ(c.code(), StatusCode::kCancelled);
  EXPECT_STREQ(StatusCodeName(c.code()), "Cancelled");
  EXPECT_EQ(c.ToString(), "Cancelled: caller gave up");

  EXPECT_NE(d.code(), c.code());
  EXPECT_FALSE(d == c);
  EXPECT_TRUE(d == Status::DeadlineExceeded("queued past the deadline"));

  Result<int> r(Status::Cancelled("x"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(r.value_or(-5), -5);
}

TEST(CancelTokenTest, ManualCancelIsStickyAndFiresTheEvent) {
  CancelToken token;
  EXPECT_TRUE(token.Check().ok());
  EXPECT_FALSE(token.fired_event().HasBeenNotified());

  token.Cancel();
  EXPECT_EQ(token.Check().code(), StatusCode::kCancelled);
  EXPECT_TRUE(token.fired_event().HasBeenNotified());
  token.Cancel();  // idempotent: no double-notify, same status
  EXPECT_EQ(token.Check().code(), StatusCode::kCancelled);

  // A waiter blocked on the composed event is released by Cancel().
  CancelToken waited_on;
  std::thread waiter(
      [&] { waited_on.fired_event().WaitForNotification(); });
  waited_on.Cancel();
  waiter.join();
}

TEST(CancelTokenTest, DeadlineFiresLazilyOnPoll) {
  CancelToken token(0.02);  // 20 ms
  EXPECT_TRUE(token.Check().ok());  // not expired yet
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  // Expiry is discovered BY the poll; the winning poll fires the event.
  EXPECT_EQ(token.Check().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(token.fired_event().HasBeenNotified());
  // Sticky: a later Cancel() cannot re-label the firing.
  token.Cancel();
  EXPECT_EQ(token.Check().code(), StatusCode::kDeadlineExceeded);

  CancelToken no_deadline(0);  // <= 0 means none
  EXPECT_TRUE(no_deadline.Check().ok());
}

TEST(CancelTokenTest, ParentLinkTightensButNeverWidens) {
  CancelToken parent;
  // A child budget under a live parent: its own (long) deadline is the
  // only constraint until the parent fires.
  std::optional<CancelToken> child;
  child.emplace(3600.0, &parent);
  EXPECT_TRUE(child->Check().ok());
  parent.Cancel();
  // The parent's firing wins through the link (the child's own event
  // stays un-notified — linking is poll-through).
  EXPECT_EQ(child->Check().code(), StatusCode::kCancelled);
  EXPECT_FALSE(child->fired_event().HasBeenNotified());

  // And the child cannot widen a fired parent's budget.
  std::optional<CancelToken> late;
  late.emplace(3600.0, &parent);
  EXPECT_EQ(late->Check().code(), StatusCode::kCancelled);

  EXPECT_TRUE(CheckCancel(nullptr).ok());
  EXPECT_FALSE(CheckCancel(&parent).ok());
}

TEST(CancelTokenTest, DeadlinesPastTheClockRangeNeverFire) {
  // Regression: a deadline of 1e10 s or +inf overflowed the conversion
  // to steady-clock ticks, landed in the past, and fired at the first
  // poll.
  const double inf = std::numeric_limits<double>::infinity();
  for (double deadline : {1e10, 1e12, inf}) {
    SCOPED_TRACE(deadline);
    CancelToken token(deadline);
    EXPECT_TRUE(token.Check().ok());
    EXPECT_EQ(token.RemainingSeconds(), inf);
    // Also as a parent: the link adds no deadline either.
    CancelToken child(deadline, &token);
    EXPECT_TRUE(child.Check().ok());
    EXPECT_EQ(child.RemainingSeconds(), inf);
    EXPECT_FALSE(token.fired_event().HasBeenNotified());
  }
}

TEST(NotificationTest, TimeoutsPastTheClockRangeStillWait) {
  // Regression: a timeout of 1e10 s or +inf overflowed the conversion
  // to steady-clock ticks and returned "not notified" at once.
  for (double timeout : {1e10, std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE(timeout);
    Notification event;
    std::thread notifier([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      event.Notify();
    });
    EXPECT_TRUE(event.WaitForNotificationWithTimeout(timeout));
    notifier.join();
  }
  // A timeout <= 0 is a poll.
  Notification idle;
  EXPECT_FALSE(idle.WaitForNotificationWithTimeout(0));
  EXPECT_FALSE(idle.WaitForNotificationWithTimeout(-1));
  idle.Notify();
  EXPECT_TRUE(idle.WaitForNotificationWithTimeout(0));
}

TEST(ResultTest, ValueAndErrorPaths) {
  Result<int> ok(7);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 7);
  Result<int> err(Status::InvalidArgument("bad"));
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.value_or(-1), -1);
  EXPECT_EQ(err.status().code(), StatusCode::kInvalidArgument);
}

TEST(StringUtilTest, TokenizeWords) {
  EXPECT_EQ(TokenizeWords("Equine Mgmt. (B.S.)"),
            (std::vector<std::string>{"equine", "mgmt", "b", "s"}));
  EXPECT_TRUE(TokenizeWords("  --  ").empty());
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Join({"a", "b"}, ", "), "a, b");
  EXPECT_EQ(Split("a,,b", ',').size(), 3u);
  EXPECT_EQ(StrFormat("%d-%s", 3, "x"), "3-x");
}

TEST(RngTest, DeterministicAndRoughlyUniform) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
  Rng rng(7);
  double sum = 0;
  const int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) sum += rng.UniformDouble();
  EXPECT_NEAR(sum / kDraws, 0.5, 0.02);
  int lo = 0;
  for (int i = 0; i < kDraws; ++i) {
    int64_t v = rng.UniformInt(1, 10);
    ASSERT_GE(v, 1);
    ASSERT_LE(v, 10);
    if (v <= 5) ++lo;
  }
  EXPECT_NEAR(static_cast<double>(lo) / kDraws, 0.5, 0.03);
}

TEST(CounterRngTest, StatelessDeterministicAndRoughlyUniform) {
  // Draw k depends only on (seed, k) — any evaluation order (here:
  // reversed) gives the same stream, which is what lets parallel
  // consumers partition the counter space.
  for (uint64_t k = 0; k < 64; ++k) {
    EXPECT_EQ(CounterHash(9, 63 - k), CounterHash(9, 63 - k));
    EXPECT_NE(CounterHash(9, k), CounterHash(10, k));  // seeds separate
  }
  const int kDraws = 20000;
  double sum = 0;
  int hits = 0;
  for (int k = 0; k < kDraws; ++k) {
    double u = CounterUniform(7, static_cast<uint64_t>(k));
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
    if (CounterBernoulli(7, static_cast<uint64_t>(k), 0.3)) ++hits;
  }
  EXPECT_NEAR(sum / kDraws, 0.5, 0.02);
  EXPECT_NEAR(static_cast<double>(hits) / kDraws, 0.3, 0.03);
  // Consecutive counters must not produce correlated values (the mix
  // must break the +1 stride): no long run of monotone outputs.
  int monotone = 0, max_monotone = 0;
  for (uint64_t k = 1; k < 1000; ++k) {
    if (CounterHash(3, k) > CounterHash(3, k - 1)) {
      max_monotone = std::max(max_monotone, ++monotone);
    } else {
      monotone = 0;
    }
  }
  EXPECT_LT(max_monotone, 12);
}

TEST(RngTest, SampleWithoutReplacementIsDistinct) {
  Rng rng(3);
  std::vector<size_t> s = rng.SampleWithoutReplacement(50, 20);
  std::sort(s.begin(), s.end());
  EXPECT_EQ(std::unique(s.begin(), s.end()), s.end());
  EXPECT_EQ(s.size(), 20u);
}

TEST(MetricsTest, PrfEdgeCases) {
  Prf p = MakePrf(0, 0, 0);
  EXPECT_DOUBLE_EQ(p.precision, 1.0);  // vacuous truth
  EXPECT_DOUBLE_EQ(p.recall, 1.0);
  p = MakePrf(2, 4, 8);
  EXPECT_DOUBLE_EQ(p.precision, 0.5);
  EXPECT_DOUBLE_EQ(p.recall, 0.25);
  EXPECT_NEAR(p.f1, 2 * 0.5 * 0.25 / 0.75, 1e-12);
}

CanonicalRelation TinyRel(size_t n) {
  CanonicalRelation rel;
  rel.key_attrs = {"k"};
  for (size_t i = 0; i < n; ++i) {
    CanonicalTuple t;
    t.key = {Value("k" + std::to_string(i))};
    t.impact = 1;
    t.prov_rows = {i};
    rel.tuples.push_back(std::move(t));
  }
  return rel;
}

TEST(MetricsTest, ValueExplanationSideAliasing) {
  // Gold fixes the right-side tuple of pair (0,0); a prediction on the
  // LEFT side of the same pair counts as correct, but only once.
  CanonicalRelation t1 = TinyRel(2), t2 = TinyRel(2);
  GoldStandard gold;
  gold.explanations.evidence = {{0, 0, 1.0}};
  gold.evidence_pairs = {{0, 0}};
  gold.explanations.value_changes = {{Side::kRight, 0, 1, 2}};

  ExplanationSet pred;
  pred.value_changes = {{Side::kLeft, 0, 2, 1}};
  Prf acc = ExplanationAccuracy(pred, gold);
  EXPECT_EQ(acc.correct, 1u);

  ExplanationSet both;
  both.value_changes = {{Side::kLeft, 0, 2, 1}, {Side::kRight, 0, 1, 2}};
  acc = ExplanationAccuracy(both, gold);
  EXPECT_EQ(acc.correct, 1u);  // one gold item, consumed once
  EXPECT_EQ(acc.predicted, 2u);
}

TEST(GoldTest, DeriveFromEntitiesGroups) {
  CanonicalRelation t1 = TinyRel(3);  // impacts 1,1,1
  CanonicalRelation t2 = TinyRel(2);  // impacts 1,1
  // Entities: t1[0], t1[1] both map to entity 5 (containment group with
  // t2[0]); t1[2] unmatched; t2[1] entity 9 unmatched.
  std::vector<int64_t> e1 = {5, 5, 7};
  std::vector<int64_t> e2 = {5, 9};
  GoldStandard gold = DeriveGoldFromEntities(t1, t2, e1, e2);
  EXPECT_EQ(gold.evidence_pairs.size(), 2u);  // (0,0) and (1,0)
  EXPECT_EQ(gold.explanations.delta.size(), 2u);  // t1[2], t2[1]
  // Group impact: 1+1 vs 1 -> value explanation on t2[0].
  ASSERT_EQ(gold.explanations.value_changes.size(), 1u);
  EXPECT_DOUBLE_EQ(gold.explanations.value_changes[0].new_impact, 2.0);
}

}  // namespace
}  // namespace explain3d
