// Explain3DService: the concurrent, session-oriented serving facade.
//
// RunExplain3D (core/pipeline.h) is one synchronous call over raw
// Database pointers with a caller-managed cache — fine for scripts,
// wrong for the interactive workload the paper targets (Sec. 5.2): an
// analyst triangulating a disagreement issues MANY related explanation
// requests against the same dataset pair, concurrently with other
// analysts. The service owns everything those requests share:
//
//   * the databases, behind generation-counted DatabaseHandles —
//     RegisterDatabase moves the data in and hashes its CONTENTS once;
//     re-registering a name bumps its generation, retires stage-1 cache
//     entries only when the data actually changed, and leaves
//     already-returned results untouched (they co-own their artifacts);
//   * the stage-1 cache — one MatchingContext keyed on
//     (db-pair content identity, query pair, attr, blocking), LRU-
//     evicted under ServiceOptions::cache_budget_bytes;
//   * the workers — requests queue by priority and run on the
//     process-wide SharedPool, at most max_concurrency at a time, each
//     producing a result bit-identical to a serial RunExplain3D of the
//     same request. Within a band, clients (SubmitOptions::client_id)
//     are drained round-robin with optional per-client quotas, so one
//     flooding tenant cannot starve the rest, and an anti-starvation
//     escape hatch bounds cross-band starvation;
//   * the request-coalescing layer — concurrent IDENTICAL requests
//     (same data contents, queries, labels, and result-affecting
//     config; see RequestResultKey) share one computation, and every
//     ticket resolves from the shared PipelineResult zero-copy
//     (ServiceOptions::enable_coalescing);
//   * the persistence tier (storage/snapshot_file.h) — SnapshotTo
//     writes the cached artifacts and incumbents into one atomically
//     replaced snapshot file and RestoreFrom loads it, so a service
//     RESTART keeps the warm cache: the first repeated request after a
//     restart is a warm hit with warm-started solves, bit-identical to
//     the pre-restart answer.
//
// The service starts no thread of its own: requests run on the
// SharedPool, and everything else happens on the callers' threads.
//
// Submit returns a RequestTicket future: Wait() / TryGet() / Cancel().
// Every request carries a CancelToken (common/cancel.h) threaded down to
// branch-and-bound node granularity, so Cancel() and deadlines interrupt
// RUNNING requests — within milliseconds during a stage-2 solve (the
// long-running case), or at the next stage-1 step boundary otherwise.
// A request that has not started running (queued, or a coalesced
// follower) expires its own deadline when Wait/WaitFor/TryGet finds it
// passed. A cancelled request resolves kCancelled, a blown deadline
// kDeadlineExceeded, and neither ever perturbs the results of surviving
// requests. Admission control rejects
// a request at Submit with kUnavailable when the queue is predictably
// too deep for its deadline. ServiceStats reports queue depth (overall
// and per priority band), warm/cold cache traffic, and latency
// percentiles.

#ifndef EXPLAIN3D_SERVICE_SERVICE_H_
#define EXPLAIN3D_SERVICE_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/cancel.h"
#include "common/notification.h"
#include "common/status.h"
#include "core/config.h"
#include "core/matching_context.h"
#include "core/pipeline.h"
#include "relational/database.h"

namespace explain3d {

/// \brief Reference to a database registered with an Explain3DService.
///
/// Handles are value types: cheap to copy, meaningful only to the
/// service that issued them. A handle pins an (id, generation) pair —
/// re-registering the same name bumps the generation, after which old
/// handles are *retired*: submitting with one fails with
/// InvalidArgument. Cache entries are keyed by the data's CONTENT
/// identity, not the handle, so a replacement retires them only when it
/// actually changed the data (see RegisterDatabase).
struct DatabaseHandle {
  uint64_t id = 0;          ///< registry slot id; 0 = invalid
  uint64_t generation = 0;  ///< bumped on every re-registration
  bool valid() const { return id != 0; }
  /// Human-readable handle identity "h<id>:g<generation>" (diagnostics;
  /// cache keys use the content identity instead).
  std::string Identity() const;

  bool operator==(const DatabaseHandle& o) const {
    return id == o.id && generation == o.generation;
  }
  bool operator!=(const DatabaseHandle& o) const { return !(*this == o); }
};

/// \brief Bounded, jittered-exponential-backoff retry of TRANSIENT
/// failures, per request.
///
/// A worker re-runs the pipeline only when the attempt failed with
/// kUnavailable — the code reserved for transient conditions (injected
/// faults from common/fault.h, dropped cache inserts, interrupted-by-
/// fault solves). Permanent failures (parse errors, invalid handles) are
/// never retried, and NEITHER is any attempt after the ticket's token
/// fired: a user cancel or an expired deadline always wins immediately.
/// Backoff sleeps are interruptible by the token's fired event. Jitter
/// is deterministic — hashed from (ticket sequence, attempt) with the
/// counter RNG — so a replayed schedule backs off identically.
struct RetryPolicy {
  /// Total attempts, including the first; 1 (default) disables retry.
  size_t max_attempts = 1;
  double initial_backoff_seconds = 0.01;  ///< before the first retry
  double backoff_multiplier = 2.0;        ///< per additional retry
  double max_backoff_seconds = 0.5;       ///< cap on a single backoff
  /// Each backoff is scaled by a factor uniform in [1-j, 1+j].
  double jitter_fraction = 0.2;
};

/// \brief One explanation request: the handle-based analogue of
/// PipelineInput plus the per-request solver config and deadline.
struct ExplanationRequest {
  DatabaseHandle db1, db2;  ///< from RegisterDatabase / LookupDatabase
  std::string sql1, sql2;   ///< aggregate query per side
  AttributeMatches attr_matches;      ///< M_attr (Definition 2.1)
  MappingGenOptions mapping_options;  ///< stage-1 matching knobs
  GoldPairs calibration_gold;         ///< optional calibrator labels
  CalibrationOracle calibration_oracle;  ///< wins over calibration_gold
  /// Per-request pipeline/solver config. The stage-1 cache is shared by
  /// every client, so its budget is ServiceOptions::cache_budget_bytes.
  Explain3DConfig config;
  /// End-to-end deadline, in seconds from Submit; 0 = none. Enforced
  /// everywhere along the request's life: admission control may reject a
  /// predictably-doomed request at Submit (kUnavailable), a request not
  /// yet running resolves kDeadlineExceeded once a waiter finds the
  /// deadline passed (or a worker claims it late, without running it),
  /// and a RUNNING request is interrupted at the pipeline's cancellation
  /// points — down to solver node granularity — resolving
  /// kDeadlineExceeded within milliseconds of expiry.
  double deadline_seconds = 0;
  /// Transient-failure retry policy (default: no retry). See RetryPolicy
  /// for what qualifies as transient.
  RetryPolicy retry;
};

/// \brief Per-submit scheduling knobs — how to run a request, as opposed
/// to ExplanationRequest, which says what to run.
struct SubmitOptions {
  /// Scheduling priority: higher claims first; FIFO within equal
  /// priorities. Scheduling never affects results (determinism holds per
  /// request), only latency. Starvation of low bands is bounded by
  /// ServiceOptions::starvation_every. Meant to be a small set of
  /// service levels (interactive / batch / background …), not a
  /// per-request value: per-band latency stats track at most the first
  /// 64 distinct values (global stats aggregate the overflow into the
  /// ServiceStats::kOverflowBand sentinel).
  int priority = 0;
  /// Identity of the submitting tenant; "" (default) is itself one
  /// client. Within a priority band clients are drained round-robin
  /// (unit-quantum DRR — every request weighs one), so a flooding tenant
  /// delays another client's next request by at most one in-flight run;
  /// ServiceOptions::per_client_max_inflight / per_client_max_queued
  /// bound a single client's footprint (exceeding the queue quota
  /// resolves the ticket kResourceExhausted). Scheduling only — never
  /// affects results.
  std::string client_id;
};

/// \brief The service's monotone counters: the base of ServiceStats.
///
/// Every submitted request lands in exactly one terminal bucket:
///   submitted == completed + cancelled + deadline_exceeded + rejected
///                + quota_rejected
/// once all tickets are terminal, and every completion is classified by
/// which solver produced it:
///   completed == completed_exact + completed_degraded.
/// All terminal buckets are counted by one function, the ticket's
/// terminal transition (RequestTicket::Finish), BEFORE its waiters wake,
/// so a caller returning from Wait() always sees its own request
/// counted. The counters live in one ServiceLedger behind one lock, so
/// every Stats() snapshot satisfies, at any moment:
///   completed == completed_exact + completed_degraded,
///   failed <= completed, coalesced_hits <= completed,
///   completed + cancelled + deadline_exceeded + rejected
///     + quota_rejected <= submitted.
struct ServiceCounts {
  size_t submitted = 0;
  size_t completed = 0;  ///< ran to a pipeline result (ok or error)
  size_t cancelled = 0;  ///< before OR during the run
  /// The REQUEST's deadline fired, while queued or mid-run.
  size_t deadline_exceeded = 0;
  size_t rejected = 0;  ///< refused at admission, never queued or run
  /// Refused at a per-client quota (kResourceExhausted) — deliberately
  /// NOT part of `rejected`: admission rejects mean the SERVICE is
  /// predictably too slow for the deadline, quota rejects mean one
  /// CLIENT is over its share; operators react to them differently.
  size_t quota_rejected = 0;
  /// Tickets resolved from a coalesced leader's shared computation —
  /// each hit is a whole stage-1 build + solve that never ran. A subset
  /// of completed, never an extra bucket.
  size_t coalesced_hits = 0;
  size_t failed = 0;  ///< completed with a non-OK pipeline status
  /// Completion split by solver: OK results marked
  /// PipelineResult::degraded() count as degraded; everything else,
  /// failed completions included, as exact. Coalesced followers
  /// classify by the shared result.
  size_t completed_exact = 0;
  size_t completed_degraded = 0;
  size_t retries = 0;  ///< transient-failure re-attempts run
  /// Strict requests whose config was auto-switched to the portfolio
  /// at Submit because the service was kOverloaded (see
  /// ServiceOptions::auto_fallback_on_overload).
  size_t auto_degraded = 0;
  /// Solve units seeded from a fingerprint-matched warm-start incumbent
  /// (summed Explain3DStats::warm_start_hits of the OK results of runs;
  /// coalesced followers add nothing). Not part of the request balance
  /// — one request can contribute zero or many.
  size_t warm_start_hits = 0;
  // Persistence tier (RestoreFrom; zero until a restore).
  size_t restored_entries = 0;     ///< artifacts loaded from disk
  size_t restored_incumbents = 0;  ///< incumbent records loaded from disk
};

/// The service's books: one ServiceCounts behind one leaf mutex, shared
/// by the service and its tickets (defined in service.cc).
class ServiceLedger;

/// \brief Future for one submitted request.
///
/// Terminal states: a pipeline result (ok or its error), kCancelled
/// (Cancel() before or during the run), kDeadlineExceeded (the deadline
/// passed while queued or mid-run), kUnavailable (rejected at
/// admission), or kResourceExhausted (over its client's queue quota).
/// The ticket is created and finished by the service;
/// callers share it via TicketPtr and may Wait from any number of
/// threads. Tickets outlive the service (shared_ptr), and a ticket
/// completed with a PipelineResult keeps that result valid forever — it
/// co-owns its Stage1Artifacts block.
///
/// Wait, WaitFor and TryGet expire the ticket's deadline themselves: once
/// it has passed, a ticket that has not started running (queued, or a
/// coalesced follower) resolves kDeadlineExceeded right there, just as
/// Cancel() resolves one; a running ticket stays with its worker's polls.
class RequestTicket {
 public:
  /// Blocks until the request reaches a terminal state; returns it.
  /// The reference lives inside the ticket — keep the TicketPtr alive
  /// while reading it (don't call through a temporary:
  /// `service.Submit(r)->Wait()` dangles at the semicolon).
  const Result<PipelineResult>& Wait();

  /// Non-blocking: the terminal result, or nullptr while pending.
  const Result<PipelineResult>* TryGet();

  /// Wait with a timeout; nullptr when the request is still pending
  /// after `seconds`.
  const Result<PipelineResult>* WaitFor(double seconds);

  /// \brief Requests cancellation; returns true when delivered before
  /// the ticket was terminal.
  ///
  /// The ticket's CancelToken fires first. A still-QUEUED request then
  /// finishes right here with kCancelled and its work is skipped. A
  /// RUNNING request is cancelled cooperatively: the pipeline abandons
  /// the run at its next cancellation point — milliseconds when a
  /// stage-2 solve is in flight (node-granularity polls), the current
  /// build step's bound during stage 1. The interrupted ticket normally
  /// resolves kCancelled, but "delivered" (true) does not pin the
  /// terminal status: the run (or a coalesced leader's fan-out) may
  /// still finish with its real result in the race window (counted
  /// completed), and if the request's own deadline fired first the
  /// token's first firing is sticky, so it resolves kDeadlineExceeded.
  /// Branch on Wait()'s status, not on this return value. Returns false
  /// once the ticket is terminal.
  bool Cancel();

  bool done() const { return done_.HasBeenNotified(); }

 private:
  friend class Explain3DService;

  enum class State { kQueued, kRunning, kDone };

  /// Where a terminal result comes from; it picks the counter bucket.
  enum class Source {
    kOwn,                ///< this ticket's run, cancel, or deadline
    kShared,             ///< a coalesced leader's result
    kQuotaRejected,      ///< refused at its client's queue quota
    kAdmissionRejected,  ///< refused by admission control
  };

  RequestTicket() = default;

  /// \brief The one terminal transition. Returns whether this call made
  /// it.
  ///
  /// Moves the ticket to kDone only from `from` — kRunning for its
  /// worker, kQueued for everything that races the worker's claim
  /// (Cancel, deadline expiry, a leader's fan-out, Submit's rejections)
  /// — so exactly one call ever wins. The winner releases the request,
  /// counts the outcome into its ServiceCounts bucket, and only then
  /// wakes waiters:
  ///   kQuotaRejected → quota_rejected; kAdmissionRejected → rejected;
  ///   kOwn with this ticket's token fired and a kCancelled /
  ///     kDeadlineExceeded result → cancelled / deadline_exceeded;
  ///   anything else → completed, plus coalesced_hits when kShared,
  ///     failed when not OK, completed_degraded or completed_exact, and
  ///     warm_start_hits for an OK kOwn result.
  bool Finish(Result<PipelineResult> result, Source source, State from);

  /// Once this ticket's token has fired, finishes a still-kQueued
  /// ticket with the token's status. Returns whether the token has
  /// fired — such a ticket never takes a shared or fresh result.
  bool ExpireIfFired();

  /// Body of Wait/WaitFor: blocks up to `seconds` (+inf = no limit),
  /// waiting on the clock no later than the deadline, where it expires
  /// the ticket if it has not started running. Returns whether the
  /// ticket is terminal.
  bool AwaitDone(double seconds);

  mutable std::mutex mu_;
  State state_ = State::kQueued;
  ExplanationRequest request_;
  int priority_ = 0;      ///< SubmitOptions::priority
  std::string client_id_;  ///< SubmitOptions::client_id (quota/DRR key)
  /// RequestResultKey of an oracle-free request under coalescing; empty
  /// = never coalesces. Non-empty means this ticket is (or was) a
  /// coalescing leader or follower under that key.
  std::string coalesce_key_;
  /// (db-identity, stage-2 config tag) — the keyed admission estimate's
  /// bucket; empty when the handles did not resolve at Submit.
  std::string admission_key_;
  uint64_t seq_ = 0;      ///< global FIFO order (anti-starvation key)
  std::chrono::steady_clock::time_point submit_time_;
  std::optional<Result<PipelineResult>> result_;  ///< set before done_
  Notification done_;
  std::shared_ptr<ServiceLedger> ledger_;  ///< set by Submit
  /// The request's cooperative cancellation signal: deadline-armed at
  /// Submit, fired by Cancel(), polled by the pipeline down to solver
  /// node granularity. Shared so it outlives both service and ticket.
  std::shared_ptr<CancelToken> token_;
};

using TicketPtr = std::shared_ptr<RequestTicket>;

/// \brief Coarse service condition, computed from queue depth, recent
/// admission rejections, and recent transient failures (injected faults
/// / retries). Exposed through ServiceStats::health and consulted by
/// Submit under ServiceOptions::auto_fallback_on_overload.
///
/// With W = max_concurrency:
///   kOverloaded: queue depth >= 4 × W, or at least half of the last
///                kHealthWindow admission decisions were rejections
///                (once >= 8 decisions are in the window);
///   kDegraded:   queue depth >= 2 × W, or any of the last
///                kHealthWindow claimed runs hit a transient failure
///                (injected fault, retried attempt);
///   kHealthy:    everything else.
/// The machine is memoryless by design — states are recomputed from the
/// sliding windows on every read, so recovery is automatic when the
/// pressure signal leaves the window.
enum class ServiceHealth { kHealthy = 0, kDegraded = 1, kOverloaded = 2 };

/// Human-readable name ("healthy" / "degraded" / "overloaded").
const char* ServiceHealthName(ServiceHealth health);

/// Percentile summary of one latency series (seconds).
struct LatencySummary {
  size_t count = 0;
  double p50 = 0, p90 = 0, p99 = 0, max = 0;
};

/// Per-priority-band gauge + latency slice of ServiceStats.
struct PriorityBandStats {
  size_t queue_depth = 0;  ///< pending tickets submitted at this priority
  /// Submit → completion latency of this band's successful requests.
  LatencySummary total_seconds;
};

/// \brief Point-in-time service stats: the ServiceCounts (one consistent
/// copy — see its balance identities) plus gauges, cache traffic, and
/// latency percentiles. Warm/cold traffic is the owned cache's hit/miss
/// counters.
struct ServiceStats : ServiceCounts {
  /// Injected-fault fires observed process-wide (FaultInjector counter;
  /// 0 unless a fault spec is armed).
  uint64_t fault_fires = 0;
  /// Current health state (recomputed from the sliding windows at every
  /// Stats call; see ServiceHealth).
  ServiceHealth health = ServiceHealth::kHealthy;
  // Gauges.
  /// Submitted, not yet claimed by a worker, and still pending (tickets
  /// cancelled while queued are excluded — they are already terminal).
  size_t queue_depth = 0;
  size_t running = 0;      ///< claimed, pipeline in flight
  size_t registered_databases = 0;
  /// Queue depth and completion latency sliced by SubmitOptions::priority
  /// (bands appear once a request was submitted at that priority). At
  /// most the first 64 distinct priorities get their own slice;
  /// completions of every band past the cap aggregate under the
  /// kOverflowBand sentinel key instead of being dropped, with
  /// bands_truncated raised.
  std::map<int, PriorityBandStats> priority_bands;
  /// Sentinel priority_bands key of the overflow aggregate (INT_MIN —
  /// reserved; submitting AT this priority folds into the same slice).
  static constexpr int kOverflowBand = std::numeric_limits<int>::min();
  /// True once any completion landed in a band past the tracked-band
  /// cap — the priority_bands map is lossy from then on (the overflow
  /// slice aggregates, global stats stay exact).
  bool bands_truncated = false;
  // Stage-1 cache (MatchingContext passthrough).
  size_t cache_entries = 0;
  size_t cache_bytes = 0;
  size_t warm_hits = 0;
  size_t cold_misses = 0;
  size_t cache_evictions = 0;
  // Stage-2 warm-start incumbent store: its lookup traffic
  // (MatchingContext passthrough; ServiceCounts::warm_start_hits counts
  // the units it seeded).
  size_t incumbent_entries = 0;    ///< records currently stored
  size_t incumbent_hits = 0;       ///< store lookups that found a record
  size_t incumbent_misses = 0;     ///< store lookups that found none
  // Latency percentiles over the most recent SUCCESSFUL completions.
  LatencySummary queue_seconds;   ///< Submit → worker claim
  LatencySummary stage1_seconds;  ///< pipeline stage 1
  LatencySummary stage2_seconds;  ///< pipeline stage 2
  LatencySummary total_seconds;   ///< Submit → completion
  /// Worker claim → completion of EVERY claimed run — including
  /// cancelled/deadline-killed/failed ones, whose truncated time is a
  /// lower bound on the work's cost. This series feeds the admission
  /// controller's p50, which must learn that a workload got expensive
  /// even when every instance dies at its deadline.
  LatencySummary run_seconds;
};

/// Construction-time service knobs.
struct ServiceOptions {
  /// Max requests running concurrently on the SharedPool. 0 = auto
  /// (ResolveThreads: hardware_concurrency or EXPLAIN3D_NUM_THREADS).
  size_t max_concurrency = 0;
  /// Stage-1 cache budget, forwarded to the owned MatchingContext
  /// (summed ApproxBytes, LRU eviction past it). 0 = unlimited.
  size_t cache_budget_bytes = 0;
  /// Anti-starvation escape hatch of the priority scheduler: every k-th
  /// claim takes the globally OLDEST queued request instead of the
  /// highest-priority one, so a low-priority request stuck behind a
  /// steady high-priority stream still runs after at most
  /// (requests ahead of it in submit order) × k claims. 0 = strict
  /// priority (starvation possible under sustained high-priority load).
  size_t starvation_every = 8;
  /// Per-client cap on requests RUNNING concurrently (by
  /// SubmitOptions::client_id); 0 = unlimited. A client at its cap is
  /// skipped by the scheduler — its queued work waits while other
  /// clients' requests claim the free workers — never rejected for it.
  size_t per_client_max_inflight = 0;
  /// Per-client cap on requests sitting QUEUED (claimed and coalesced
  /// ones don't count); 0 = unlimited. A submit past the cap resolves
  /// kResourceExhausted immediately (ServiceStats::quota_rejected) —
  /// the flooding client is told to back off while everyone else's
  /// traffic is untouched. Tickets cancelled while queued count against
  /// their client until a worker reaps them (errs toward rejecting the
  /// flooder sooner).
  size_t per_client_max_queued = 0;
  /// Coalesce concurrent identical requests onto one computation: a
  /// Submit whose RequestResultKey (pipeline.h — database contents,
  /// queries, attribute match, labels, and every result-affecting config
  /// knob) matches a request currently queued or running attaches as a
  /// FOLLOWER: it occupies no queue slot, no worker, and no quota, and
  /// resolves from the leader's PipelineResult (a zero-copy artifact
  /// share — bit-identical to running it alone, counted in
  /// ServiceStats::coalesced_hits). Per-ticket independence is kept: a
  /// follower's own deadline/cancel resolves just that follower, and a
  /// leader terminated by ITS deadline/cancel (or a stale handle)
  /// promotes the oldest live follower to a fresh leader instead of
  /// failing the group. Requests with a calibration_oracle never
  /// coalesce (a closure has no comparable identity). One caveat: a
  /// follower shares the leader's DEGRADED result when budgets
  /// interrupt the shared run — acceptable for the anytime contract,
  /// set false where that matters.
  bool enable_coalescing = true;
  /// Reject predictably-doomed requests at Submit — but only ones that
  /// would QUEUE. The backlog ahead of a request is
  ///   ahead = running + queued-at-same-or-higher-priority;
  /// with a free worker slot (ahead < max_concurrency) the request is
  /// always admitted: it starts immediately, the deadline token bounds
  /// any waste, and its completion keeps the run-time estimate fresh
  /// (rejecting idle traffic on a stale estimate would lock the
  /// estimator forever — rejected work never runs). Otherwise the
  /// estimated wait of the overflow past the slots —
  ///   (ahead − max_concurrency + 1) × observed p50 run time
  ///     ÷ max_concurrency
  /// — plus the request's own run (charged at p50) is compared against
  /// the deadline; past it, the ticket resolves kUnavailable
  /// immediately. The p50 is KEYED: a small LRU of per-(db-identity,
  /// stage-2-config-tag) latency rings prices the request actually
  /// submitted, so one slow cold-build pair can no longer poison
  /// admission for every fast warm tenant; while a key is cold (< 3
  /// completions) or the handles don't resolve, the fleet-wide ring is
  /// the fallback. Rejected requests never touch the cache or the
  /// latency histograms. No estimate is available until a first request
  /// completes (such requests are admitted). false = always queue.
  bool admission_control = true;
  /// When the service is kOverloaded at Submit, flip an incoming
  /// deadline-carrying strict request to Explain3DConfig::portfolio, so
  /// it can still answer inside its deadline with the greedy leg
  /// instead of joining the backlog and expiring empty-handed. Counted
  /// in ServiceStats::auto_degraded; results stay explicitly marked
  /// degraded(), and a flipped request never leads a coalescing group.
  /// Requests that carry no deadline, or are already portfolio, are
  /// never touched. false = never override a request's config.
  bool auto_fallback_on_overload = true;
};

/// \brief The serving facade (see file comment).
///
/// Thread-safe throughout: RegisterDatabase, Submit, Cancel, and Stats
/// may race freely. Determinism carries over from the pipeline — a
/// request's result is bit-identical to a serial RunExplain3D over the
/// same inputs regardless of queue order, concurrency, cache state, or
/// any other request being cancelled, rejected, or expiring around it.
///
/// Destruction: queued requests and coalesced followers finish with
/// kCancelled; in-flight ones run to completion (a caller that wants a
/// bounded shutdown cancels the tickets it holds first). Tickets stay
/// valid — callers may still Wait after the service is gone.
class Explain3DService {
 public:
  explicit Explain3DService(ServiceOptions options = {});
  ~Explain3DService();

  Explain3DService(const Explain3DService&) = delete;
  Explain3DService& operator=(const Explain3DService&) = delete;

  /// \brief Moves `db` into the service and returns its handle.
  ///
  /// First registration of `name` allocates a fresh slot (generation 1).
  /// Re-registering an existing name REPLACES the database: the
  /// generation bumps and old handles become invalid for new submits,
  /// while in-flight requests resolved against the old generation finish
  /// safely (they share ownership of the old Database until done).
  /// Cache entries are keyed by CONTENT identity (one hash scan of the
  /// data happens here), so they are retired only when the replacement
  /// actually changed the data — re-registering identical contents (a
  /// reload from the same file, a service restart) keeps every entry
  /// warm — and never when another registered database still shares the
  /// retired contents.
  DatabaseHandle RegisterDatabase(const std::string& name, Database db);

  /// Current handle of a registered name; NotFound otherwise.
  Result<DatabaseHandle> LookupDatabase(const std::string& name) const;

  /// \brief Enqueues a request; returns its ticket immediately.
  ///
  /// Handle validity is checked when a worker claims the request (the
  /// registry may legitimately change while it queues), so a bad handle
  /// surfaces on the ticket, not here. Admission control (see
  /// ServiceOptions) may complete the ticket with kUnavailable before it
  /// ever queues.
  TicketPtr Submit(ExplanationRequest request, SubmitOptions options = {});

  /// Fan-out convenience: Submit each request in order with the same
  /// options. Tickets align index-for-index with `requests`.
  std::vector<TicketPtr> SubmitBatch(std::vector<ExplanationRequest> requests,
                                     SubmitOptions options = {});

  /// Snapshot of the counters, gauges, and latency percentiles.
  ServiceStats Stats() const;

  /// \brief Writes the cache as it is at the call — every stage-1
  /// artifact block and complete incumbent record, in LRU order — to
  /// `dir`'s one snapshot file (storage/snapshot_file.h), atomically
  /// replacing any earlier snapshot there.
  ///
  /// Any directory works (created if missing). Entries are keyed by
  /// content identity, so a different process restoring the snapshot
  /// serves the same registered data bit-identically. Concurrent
  /// requests keep running — entries are immutable, so the image is
  /// consistent without pausing anything. Concurrent SnapshotTo calls
  /// take turns, since they share the file's temp name.
  Status SnapshotTo(const std::string& dir);

  /// \brief Loads `dir`'s snapshot file into the cache (mmap-backed,
  /// zero-copy for the columnar arrays), least recently used first, so
  /// the cache takes the snapshot's LRU order.
  ///
  /// Keys already present in the cache are kept (the live entry wins).
  /// The whole file is verified and decoded before the first insert, so
  /// a damaged snapshot fails with kCorruption and loads nothing; a
  /// directory without one loads nothing and returns OK. Databases must
  /// be re-registered separately (the snapshot holds derived artifacts,
  /// not the raw relations); a re-registered database with identical
  /// contents maps to the same content identity and warms straight off
  /// the restored entries.
  Status RestoreFrom(const std::string& dir);

  /// The owned stage-1 cache (diagnostics/tests: entry count, bytes,
  /// hit/miss/eviction counters).
  const MatchingContext& cache() const { return cache_; }

 private:
  struct DbSlot {
    uint64_t id = 0;
    uint64_t generation = 0;
    std::shared_ptr<const Database> db;
    /// Content identity ("c<hex16>", storage/content_hash.h) of db —
    /// computed once per registration, the cache-key component.
    std::string content_tag;
  };

  /// ResolveHandle's product: the keep-alive reference plus the slot's
  /// content tag (the cache-identity component of this database).
  struct ResolvedDb {
    std::shared_ptr<const Database> db;
    std::string content_tag;
  };

  /// Fixed-capacity latency ring (most recent kLatencyWindow samples).
  struct LatencyRing {
    std::vector<double> samples;
    size_t next = 0;
    void Add(double v, size_t window);
  };

  /// One coalescing group: the leader computation plus the followers
  /// awaiting its result. Lives in coalesce_groups_ (guarded by mu_)
  /// from the leader's enqueue until its terminal fan-out/promotion.
  struct CoalesceGroup {
    TicketPtr leader;
    std::vector<TicketPtr> followers;  ///< attach order = promotion order
  };

  /// Worker body: drain the queue until empty or shutdown.
  void RunnerLoop();
  /// Runs one claimed ticket end to end (including its retry loop).
  void Process(const TicketPtr& ticket);
  /// Pushes an admitted ticket into its band's per-client queue and
  /// bumps the queue accounting. Caller holds mu_.
  void EnqueueLocked(const TicketPtr& ticket);
  /// Finishes every follower of `leader`'s group from the shared
  /// `outcome` (fired followers resolve their own cancel/deadline
  /// instead) and retires the group. Called by the leader's worker.
  void FanOutShared(const TicketPtr& leader,
                    const Result<PipelineResult>& outcome);
  /// Leader terminated with nothing shareable (its own cancel/deadline,
  /// or a stale handle): resolve fired followers, promote the oldest
  /// live one to a fresh leader (re-enqueued into its band), and carry
  /// the rest over as its followers.
  void ResolveOrPromoteFollowers(const TicketPtr& leader);
  /// Health state from the queue gauge and sliding windows. Caller
  /// holds mu_.
  ServiceHealth EvaluateHealthLocked() const;
  /// Slides one admission decision into the health window. Caller
  /// holds mu_.
  void NoteAdmissionLocked(bool rejected);
  /// Slides one claimed run's transient-failure flag into the health
  /// window (takes mu_).
  void NoteRunTransient(bool transient);
  /// Pops the next ticket per the scheduling policy: highest band
  /// first, round-robin across that band's clients (unit-quantum DRR),
  /// FIFO within a client, anti-starvation every k-th claim, skipping
  /// clients at their inflight quota. Returns nullptr when every queued
  /// ticket's owner is at quota (the caller parks; a finishing run of a
  /// capped client re-pops). Caller holds mu_; queue must be non-empty.
  TicketPtr PopLocked();
  /// Resolves a handle to a keep-alive database reference + content tag.
  Result<ResolvedDb> ResolveHandle(const DatabaseHandle& handle) const;
  /// Appends one successful request's latencies to the rings (global,
  /// per-band, and the keyed admission ring of `admission_key`) and
  /// refreshes the cached p50 run time the admission controller reads.
  void RecordLatencies(const std::string& admission_key, int priority,
                       double queue_s, double stage1_s, double stage2_s,
                       double total_s, double run_s);
  /// Feeds ONLY the run-time series, global + keyed (interrupted/failed
  /// runs: their truncated run is a lower bound the estimator must see).
  void RecordRunSeconds(const std::string& admission_key, double run_s);
  /// Recomputes run_p50_ from lat_run_. Caller holds stats_mu_.
  void RefreshRunP50Locked();
  /// The keyed run-p50 of `key`, or 0 while that key is cold (fewer
  /// than kKeyedMinSamples completions) — callers fall back to the
  /// global run_p50_. Takes stats_mu_; never call under mu_.
  double KeyedRunP50(const std::string& key);
  /// Feeds one run sample into `key`'s ring, LRU-evicting past
  /// kKeyedCapacity. Caller holds stats_mu_; empty keys are ignored.
  void AddKeyedRunLocked(const std::string& key, double run_s);
  /// The admission run-time estimate for a request: its keyed p50 when
  /// warm, else the fleet-wide p50 (0 before any completion). Takes
  /// stats_mu_ via KeyedRunP50 — never call under mu_.
  double EstimateRunSeconds(const std::string& admission_key);

  const ServiceOptions options_;
  const size_t max_concurrency_;

  // Registry: name → slot. Slots hold shared_ptrs so replaced databases
  // survive until their last in-flight request completes.
  mutable std::mutex registry_mu_;
  std::unordered_map<std::string, DbSlot> registry_;
  uint64_t next_db_id_ = 1;

  /// One priority band: per-client FIFO queues drained round-robin
  /// (deficit round robin with a unit quantum — every request weighs
  /// one, so the deficit counters degenerate away; one client
  /// degenerates further to the old global FIFO). Cancelled tickets
  /// stay in place as dead weight until popped and skipped.
  struct Band {
    std::map<std::string, std::deque<TicketPtr>> clients;
    /// Client served last; the next claim starts strictly after it
    /// (wrapping), so clients take turns regardless of queue depths.
    std::string last_client;
    size_t size = 0;  ///< total tickets across clients
  };

  // Scheduler + worker accounting. Bands are keyed highest-priority
  // first.
  mutable std::mutex mu_;
  std::map<int, Band, std::greater<int>> bands_;
  size_t queued_tickets_ = 0;  ///< total tickets across bands_
  /// Per-client gauges behind the quotas: tickets queued (decremented
  /// at pop — cancelled dead weight counts until reaped) and claimed
  /// runs in flight. Entries erased at zero.
  std::unordered_map<std::string, size_t> client_queued_;
  std::unordered_map<std::string, size_t> client_inflight_;
  /// Live coalescing groups by RequestResultKey (guarded by mu_): a
  /// group exists exactly while its leader is queued or running, so an
  /// identical oracle-free Submit in that window attaches as a
  /// follower. Erased at the leader's terminal fan-out/promotion and at
  /// destruction.
  std::unordered_map<std::string, CoalesceGroup> coalesce_groups_;
  uint64_t next_seq_ = 1;      ///< global submit order (ticket seq_)
  uint64_t claims_ = 0;        ///< pops so far (anti-starvation cadence)
  size_t active_runners_ = 0;
  size_t running_requests_ = 0;
  bool shutdown_ = false;
  std::condition_variable idle_cv_;  ///< fires when a runner exits

  // Health windows (guarded by mu_): the most recent kHealthWindow
  // admission decisions (1 = rejected) and claimed-run transient flags
  // (1 = the run hit at least one kUnavailable attempt). Queue depths of
  // kDegradeQueueFactor / kOverloadQueueFactor × max_concurrency move
  // health to kDegraded / kOverloaded (see ServiceHealth).
  static constexpr size_t kHealthWindow = 32;
  static constexpr double kDegradeQueueFactor = 2.0;
  static constexpr double kOverloadQueueFactor = 4.0;
  std::deque<uint8_t> recent_admissions_;
  std::deque<uint8_t> recent_transients_;

  // Persistence tier. Concurrent SnapshotTo calls would write one temp
  // file at once, so they serialize on snapshot_mu_.
  std::mutex snapshot_mu_;

  /// Every counter of ServiceStats (shared with the tickets, which count
  /// their own terminal outcomes).
  std::shared_ptr<ServiceLedger> ledger_;
  /// Latency rings (most recent kLatencyWindow completions).
  mutable std::mutex stats_mu_;
  static constexpr size_t kLatencyWindow = 4096;
  /// Cap on DISTINCT priority values with their own latency ring —
  /// priorities are service levels, not per-request ids; bands past the
  /// cap are still fully counted in the global rings.
  static constexpr size_t kMaxTrackedBands = 64;
  LatencyRing lat_queue_, lat_stage1_, lat_stage2_, lat_total_, lat_run_;
  std::map<int, LatencyRing> lat_priority_;  ///< total_seconds per band
  /// Aggregate ring of every completion whose band is past the
  /// kMaxTrackedBands cap — surfaced as the ServiceStats::kOverflowBand
  /// slice instead of silently dropping the counts.
  LatencyRing lat_overflow_;
  bool bands_truncated_ = false;  ///< any overflow-band completion yet
  /// Keyed admission estimates (guarded by stats_mu_): per-(db-identity,
  /// stage-2-config-tag) run-time rings behind an LRU cap. The keyed p50
  /// prices the request actually submitted; the global run_p50_ is the
  /// cold-key fallback.
  struct KeyedRuns {
    LatencyRing ring;
    double p50 = 0;         ///< refreshed on every Add (window is small)
    uint64_t last_use = 0;  ///< LRU clock value (keyed_clock_)
  };
  static constexpr size_t kKeyedWindow = 64;
  static constexpr size_t kKeyedCapacity = 256;
  static constexpr size_t kKeyedMinSamples = 3;
  std::unordered_map<std::string, KeyedRuns> keyed_runs_;
  uint64_t keyed_clock_ = 0;
  /// Cached p50 of run_seconds — the admission controller's cost model
  /// (read lock-free on the Submit path; 0 until a first completion).
  /// Refreshed every kRefreshStride samples once the window is warm.
  std::atomic<double> run_p50_{0};
  size_t run_samples_since_refresh_ = 0;  ///< guarded by stats_mu_

  MatchingContext cache_;
};

}  // namespace explain3d

#endif  // EXPLAIN3D_SERVICE_SERVICE_H_
