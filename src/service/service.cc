#include "service/service.h"

#include <algorithm>
#include <utility>

#include "common/fault.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "storage/content_hash.h"
#include "storage/snapshot_file.h"

namespace explain3d {

namespace {

double SecondsBetween(std::chrono::steady_clock::time_point a,
                      std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// True when `tag` is one of the two identity components of `key`.
/// Service-path keys are "<tag1>|<tag2>|<length-prefixed sql/attr>"
/// (Stage1CacheKey), with content tags "c<hex16>" as the identities:
/// only the first two '|'-delimited components are matched — deeper
/// would hit free-form query text, which may itself contain "|c...|".
bool KeyUsesIdentity(const std::string& key, const std::string& tag) {
  auto component_at = [&](size_t start) {
    return key.compare(start, tag.size(), tag) == 0 &&
           key.size() > start + tag.size() && key[start + tag.size()] == '|';
  };
  if (component_at(0)) return true;
  size_t bar = key.find('|');
  return bar != std::string::npos && component_at(bar + 1);
}

/// Whether `result` is the firing of the ticket's own `token` — a
/// cancel or its request deadline — rather than an answer. The test is
/// "did THIS ticket's token fire", not the status code alone: a
/// kCancelled or kDeadlineExceeded the run produced with the token
/// still live is an ordinary failed completion.
bool InterruptedByOwnToken(const Result<PipelineResult>& result,
                           const CancelToken* token) {
  if (result.ok()) return false;
  const StatusCode code = result.status().code();
  return (code == StatusCode::kCancelled ||
          code == StatusCode::kDeadlineExceeded) &&
         !CheckCancel(token).ok();
}

LatencySummary Summarize(std::vector<double> v) {
  LatencySummary s;
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  auto at = [&](double p) {
    return v[static_cast<size_t>(p * static_cast<double>(v.size() - 1) +
                                 0.5)];
  };
  s.count = v.size();
  s.p50 = at(0.50);
  s.p90 = at(0.90);
  s.p99 = at(0.99);
  s.max = v.back();
  return s;
}

}  // namespace

/// Shared_ptr-owned: tickets outlive the service. No other lock is ever
/// taken while mu_ is held.
class ServiceLedger {
 public:
  /// Applies `update` to the counts under the ledger's lock.
  template <typename Update>
  void Apply(Update&& update) {
    std::lock_guard<std::mutex> lock(mu_);
    update(counts_);
  }

  /// A consistent copy of every counter.
  ServiceCounts Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return counts_;
  }

 private:
  mutable std::mutex mu_;
  ServiceCounts counts_;
};

const char* ServiceHealthName(ServiceHealth health) {
  switch (health) {
    case ServiceHealth::kHealthy:
      return "healthy";
    case ServiceHealth::kDegraded:
      return "degraded";
    case ServiceHealth::kOverloaded:
      return "overloaded";
  }
  return "unknown";
}

// --- DatabaseHandle ---------------------------------------------------------

std::string DatabaseHandle::Identity() const {
  return StrFormat("h%llu:g%llu", static_cast<unsigned long long>(id),
                   static_cast<unsigned long long>(generation));
}

// --- RequestTicket ----------------------------------------------------------

const Result<PipelineResult>& RequestTicket::Wait() {
  AwaitDone(std::numeric_limits<double>::infinity());
  // Safe without mu_: result_ is written before done_ fires and never
  // written again (single completion), and HasBeenNotified/Wait
  // establish the happens-before edge.
  return *result_;
}

const Result<PipelineResult>* RequestTicket::TryGet() {
  if (!done_.HasBeenNotified()) ExpireIfFired();
  if (!done_.HasBeenNotified()) return nullptr;
  return &*result_;
}

const Result<PipelineResult>* RequestTicket::WaitFor(double seconds) {
  if (!AwaitDone(seconds)) return nullptr;
  return &*result_;
}

bool RequestTicket::AwaitDone(double seconds) {
  const auto start = std::chrono::steady_clock::now();
  auto left = [&] {
    return seconds - SecondsBetween(start, std::chrono::steady_clock::now());
  };
  // Wait on the clock no later than the deadline. There, a ticket that
  // has not started running expires itself; a running one is left to its
  // worker's polls, so the rest of the wait ignores the deadline. The
  // loop only repeats if the clock wait woke a hair before the token's
  // own deadline check agrees.
  while (token_ != nullptr && token_->RemainingSeconds() < left()) {
    if (done_.WaitForNotificationWithTimeout(token_->RemainingSeconds())) {
      return true;
    }
    if (ExpireIfFired()) break;
  }
  return done_.WaitForNotificationWithTimeout(left());
}

bool RequestTicket::ExpireIfFired() {
  Status fired = CheckCancel(token_.get());
  if (fired.ok()) return false;
  Finish(std::move(fired), Source::kOwn, State::kQueued);
  return true;
}

bool RequestTicket::Cancel() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (state_ == State::kDone) return false;
    // Fire first, so whoever finishes the ticket finds its own token
    // fired: this call below while it is queued, or else its worker, at
    // the pipeline's next cancellation point (node granularity in stage
    // 2) — unless the run finished inside the race window, in which case
    // its real result stands.
    token_->Cancel();
  }
  Finish(Status::Cancelled("request cancelled before it ran"), Source::kOwn,
         State::kQueued);
  return true;
}

bool RequestTicket::Finish(Result<PipelineResult> result, Source source,
                           State from) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (state_ != from) return false;
    state_ = State::kDone;
    // Only the result matters now; free the request's label/oracle state
    // (gold labels and oracle closures can pin O(rows) state for the
    // ticket's whole lifetime).
    request_ = ExplanationRequest();
    result_.emplace(std::move(result));
  }
  const Result<PipelineResult>& r = *result_;
  const bool interrupted =
      source == Source::kOwn && InterruptedByOwnToken(r, token_.get());
  ledger_->Apply([&](ServiceCounts& c) {
    if (source == Source::kQuotaRejected) {
      ++c.quota_rejected;
    } else if (source == Source::kAdmissionRejected) {
      ++c.rejected;
    } else if (interrupted) {
      ++(r.status().code() == StatusCode::kCancelled ? c.cancelled
                                                     : c.deadline_exceeded);
    } else {
      ++c.completed;
      if (!r.ok()) ++c.failed;
      // OK results marked degraded() came from the portfolio's greedy
      // leg; everything else counts as the exact path.
      ++(r.ok() && r.value().degraded() ? c.completed_degraded
                                        : c.completed_exact);
      if (r.ok()) c.warm_start_hits += r.value().core().stats.warm_start_hits;
    }
  });
  // Counted before waking: a caller released by Wait() already sees its
  // own request in the stats.
  done_.Notify();
  return true;
}

// --- Explain3DService -------------------------------------------------------

Explain3DService::Explain3DService(ServiceOptions options)
    : options_(options),
      max_concurrency_(ResolveThreads(options.max_concurrency)),
      ledger_(std::make_shared<ServiceLedger>()),
      cache_(options.cache_budget_bytes) {
  // Requests occupy pool workers for their whole run; make sure the pool
  // can hold max_concurrency_ of them (nested ParallelFor calls remain
  // deadlock-free regardless — batches are caller-participating).
  SharedPool(max_concurrency_);
}

Explain3DService::~Explain3DService() {
  std::vector<TicketPtr> orphans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    for (auto& [priority, band] : bands_) {
      for (auto& [client, queue] : band.clients) {
        for (TicketPtr& t : queue) orphans.push_back(std::move(t));
      }
    }
    bands_.clear();
    client_queued_.clear();
    queued_tickets_ = 0;
  }
  // Never-claimed requests terminate as cancelled; their tickets stay
  // valid past the service's lifetime (callers share ownership). Cancel
  // is a no-op on the ones already terminal.
  for (const TicketPtr& t : orphans) t->Cancel();
  // In-flight pipelines hold keep-alive references into this service
  // (cache_, registry slots), so the destructor must not return before
  // every runner exits: running requests drain to completion.
  {
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait(lock, [this] { return active_runners_ == 0; });
  }
}

DatabaseHandle Explain3DService::RegisterDatabase(const std::string& name,
                                                 Database db) {
  // One content-hash scan per registration, outside every lock: this tag
  // is the cache-key identity, so entries follow the DATA — identical
  // re-registrations (reloads, restarts) keep the cache warm, and a
  // recycled slot or heap address can never alias a different dataset.
  const std::string content_tag =
      storage::ContentTag(storage::DatabaseContentHash(db));
  DatabaseHandle handle;
  std::string retired_tag;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    DbSlot& slot = registry_[name];
    if (slot.id == 0) {
      slot.id = next_db_id_++;
      slot.generation = 1;
    } else {
      // Replacement: the previous artifacts go stale only when the data
      // actually CHANGED — and even then only if no other registered
      // database still carries the old contents.
      if (slot.content_tag != content_tag) retired_tag = slot.content_tag;
      ++slot.generation;
    }
    slot.db = std::make_shared<const Database>(std::move(db));
    slot.content_tag = content_tag;
    handle = DatabaseHandle{slot.id, slot.generation};
    if (!retired_tag.empty()) {
      for (const auto& [other_name, other] : registry_) {
        if (other.content_tag == retired_tag) {
          retired_tag.clear();  // contents still live under another name
          break;
        }
      }
    }
  }
  if (!retired_tag.empty()) {
    // Fault probe: a fired registry.retire SKIPS the eager retirement.
    // Benign by design — cache keys embed the generation, so the stale
    // entries can never serve a new-handle request; they just linger
    // until LRU pressure reclaims them. The stress suite arms this to
    // prove correctness never depended on the eager sweep.
    if (FAULT_FIRED("registry.retire")) return handle;
    // Retire outside the registry lock: EraseIf drops only the cache's
    // references, so results already returned keep their artifacts, and
    // in-flight requests resolved against the old generation keep their
    // database through the slot's old shared_ptr.
    cache_.EraseIf([&retired_tag](const std::string& key) {
      return KeyUsesIdentity(key, retired_tag);
    });
  }
  return handle;
}

Result<DatabaseHandle> Explain3DService::LookupDatabase(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  auto it = registry_.find(name);
  if (it == registry_.end()) {
    return Status::NotFound("no database registered as '" + name + "'");
  }
  return DatabaseHandle{it->second.id, it->second.generation};
}

Result<Explain3DService::ResolvedDb> Explain3DService::ResolveHandle(
    const DatabaseHandle& handle) const {
  if (!handle.valid()) {
    return Status::InvalidArgument(
        "invalid DatabaseHandle (default-constructed or never registered)");
  }
  std::lock_guard<std::mutex> lock(registry_mu_);
  for (const auto& [name, slot] : registry_) {
    if (slot.id != handle.id) continue;
    if (slot.generation != handle.generation) {
      return Status::InvalidArgument(StrFormat(
          "database handle retired: '%s' was re-registered (handle "
          "generation %llu, current %llu)",
          name.c_str(), static_cast<unsigned long long>(handle.generation),
          static_cast<unsigned long long>(slot.generation)));
    }
    return ResolvedDb{slot.db, slot.content_tag};
  }
  return Status::NotFound(StrFormat(
      "unknown DatabaseHandle id %llu (not issued by this service)",
      static_cast<unsigned long long>(handle.id)));
}

TicketPtr Explain3DService::Submit(ExplanationRequest request,
                                   SubmitOptions options) {
  TicketPtr ticket(new RequestTicket());
  double deadline = request.deadline_seconds;
  // Arm the token with the END-TO-END deadline now, at submit: queue
  // wait, stage 1, and stage 2 all burn the same budget.
  ticket->token_ = std::make_shared<CancelToken>(deadline);
  ticket->priority_ = options.priority;
  ticket->client_id_ = options.client_id;
  ticket->request_ = std::move(request);
  ticket->submit_time_ = std::chrono::steady_clock::now();
  ticket->ledger_ = ledger_;
  ledger_->Apply([](ServiceCounts& c) { ++c.submitted; });

  const ExplanationRequest& req = ticket->request_;
  // Resolve the handles up front, outside mu_, for the keyed admission
  // estimate, which is built on the databases' CONTENT identity. A
  // failure here is NOT the submit's failure — the registry may
  // legitimately change while the request queues, so stale handles still
  // surface at claim time, on the ticket; the request merely prices at
  // the fleet-wide estimate.
  double keyed_p50 = 0;
  if (options_.admission_control) {
    Result<ResolvedDb> db1 = ResolveHandle(req.db1);
    Result<ResolvedDb> db2 = db1.ok() ? ResolveHandle(req.db2)
                                      : Result<ResolvedDb>(db1.status());
    if (db1.ok() && db2.ok()) {
      ticket->admission_key_ = db1.value().content_tag + "|" +
                               db2.value().content_tag +
                               Stage2ConfigTag(req.config);
    }
    // Prefetch the keyed estimate BEFORE taking mu_ — stats_mu_ never
    // nests under mu_.
    if (deadline > 0) keyed_p50 = KeyedRunP50(ticket->admission_key_);
  }

  bool spawn = false;
  bool shutdown_reject = false;
  bool quota_reject = false;
  size_t client_queued = 0;
  double est_wait = 0, p50_run = 0;
  size_t ahead = 0;
  bool admission_reject = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      shutdown_reject = true;
    } else {
      if (options_.per_client_max_queued > 0) {
        auto it = client_queued_.find(options.client_id);
        client_queued = it == client_queued_.end() ? 0 : it->second;
        quota_reject = client_queued >= options_.per_client_max_queued;
      }
      if (!quota_reject) {
        if (options_.admission_control && deadline > 0) {
          // Cost model: everyone this request must wait behind (running
          // requests plus tickets queued at its priority or above) at
          // the observed p50 run time, spread over the worker slots.
          // The p50 is the request's KEYED estimate when its
          // (db-identity, config-tag) ring is warm, else the fleet-wide
          // median. Band sizes are used as-is — O(bands), no per-ticket
          // walk under mu_; cancelled dead weight still in a band
          // overcounts, which only errs toward rejecting sooner. No
          // estimate before the first completion → admit.
          p50_run = keyed_p50 > 0
                        ? keyed_p50
                        : run_p50_.load(std::memory_order_relaxed);
          if (p50_run > 0) {
            ahead = running_requests_;
            for (const auto& [priority, band] : bands_) {
              if (priority < options.priority) break;  // bands_: high→low
              ahead += band.size;
            }
            // Rejection applies only to requests that would QUEUE: with
            // a free worker slot the request is admitted unconditionally
            // as a probe — it starts immediately, the deadline token
            // bounds any waste to deadline_seconds, and its completion
            // refreshes the p50 estimate (rejecting idle-service traffic
            // on a stale slow p50 would lock the estimator at that value
            // forever, since rejected work never runs). For the queued
            // case the request's OWN run is charged at p50 on top of the
            // overflow wait: a deadline shorter than wait + run can only
            // expire.
            if (ahead >= max_concurrency_) {
              est_wait = static_cast<double>(ahead - max_concurrency_ + 1) *
                         p50_run / static_cast<double>(max_concurrency_);
              admission_reject = est_wait + p50_run > deadline;
            }
          }
        }
        // Quota rejects stay out of the health window: they say one
        // CLIENT is over its share, not that the service is slow.
        NoteAdmissionLocked(admission_reject);
      }
      if (!quota_reject && !admission_reject) {
        // Overload relief valve: when the service is kOverloaded, flip
        // an incoming deadline-carrying strict request to the portfolio
        // BEFORE it queues, so it can still answer inside its deadline
        // instead of expiring empty-handed in the backlog. The result
        // stays explicitly marked degraded().
        if (options_.auto_fallback_on_overload && deadline > 0 &&
            !ticket->request_.config.portfolio &&
            EvaluateHealthLocked() == ServiceHealth::kOverloaded) {
          ticket->request_.config.portfolio = true;
          ledger_->Apply([](ServiceCounts& c) { ++c.auto_degraded; });
        }
        ticket->seq_ = next_seq_++;
        EnqueueLocked(ticket);
        if (active_runners_ < max_concurrency_) {
          ++active_runners_;
          spawn = true;
        }
      }
    }
  }
  if (shutdown_reject) {
    ticket->Cancel();
    return ticket;
  }
  if (quota_reject) {
    // Counted apart from admission rejects: the flooding client is told
    // to back off while everyone else's traffic is untouched.
    ticket->Finish(Status::ResourceExhausted(StrFormat(
                       "per-client quota: client '%s' already has %zu "
                       "requests queued (per_client_max_queued = %zu)",
                       options.client_id.c_str(), client_queued,
                       options_.per_client_max_queued)),
                   RequestTicket::Source::kQuotaRejected,
                   RequestTicket::State::kQueued);
    return ticket;
  }
  if (admission_reject) {
    // Rejected work never ran: it must not touch the cache or the
    // latency rings.
    ticket->Finish(Status::Unavailable(StrFormat(
                       "admission control: estimated wait %.3fs + run "
                       "%.3fs (%zu ahead of %zu workers) exceeds the %.3fs "
                       "deadline",
                       est_wait, p50_run, ahead, max_concurrency_, deadline)),
                   RequestTicket::Source::kAdmissionRejected,
                   RequestTicket::State::kQueued);
    return ticket;
  }
  if (spawn) {
    SharedPool().Submit([this] { RunnerLoop(); });
  }
  return ticket;
}

std::vector<TicketPtr> Explain3DService::SubmitBatch(
    std::vector<ExplanationRequest> requests, SubmitOptions options) {
  std::vector<TicketPtr> tickets;
  tickets.reserve(requests.size());
  for (ExplanationRequest& request : requests) {
    tickets.push_back(Submit(std::move(request), options));
  }
  return tickets;
}

void Explain3DService::EnqueueLocked(const TicketPtr& ticket) {
  Band& band = bands_[ticket->priority_];
  band.clients[ticket->client_id_].push_back(ticket);
  ++band.size;
  ++queued_tickets_;
  ++client_queued_[ticket->client_id_];
}

TicketPtr Explain3DService::PopLocked() {
  using BandIt = std::map<int, Band, std::greater<int>>::iterator;
  using ClientIt = std::map<std::string, std::deque<TicketPtr>>::iterator;
  auto pop_from = [&](BandIt band_it, ClientIt client_it) {
    Band& band = band_it->second;
    const std::string client = client_it->first;
    TicketPtr ticket = std::move(client_it->second.front());
    client_it->second.pop_front();
    if (client_it->second.empty()) band.clients.erase(client_it);
    --band.size;
    // The round-robin cursor: the next claim in this band starts
    // strictly after the client just served.
    band.last_client = client;
    if (band.size == 0) bands_.erase(band_it);
    --queued_tickets_;
    auto q = client_queued_.find(client);
    if (q != client_queued_.end() && --q->second == 0) {
      client_queued_.erase(q);
    }
    ++claims_;
    return ticket;
  };
  if (options_.starvation_every > 0 &&
      (claims_ + 1) % options_.starvation_every == 0) {
    // Anti-starvation claim: take the globally oldest request. Client
    // fronts are their queues' oldest (FIFO per client), so the minimum
    // seq_ across fronts is the global minimum.
    BandIt best_band = bands_.begin();
    ClientIt best_client = best_band->second.clients.begin();
    for (auto b = bands_.begin(); b != bands_.end(); ++b) {
      for (auto c = b->second.clients.begin(); c != b->second.clients.end();
           ++c) {
        if (c->second.front()->seq_ < best_client->second.front()->seq_) {
          best_band = b;
          best_client = c;
        }
      }
    }
    return pop_from(best_band, best_client);
  }
  // Normal claim: highest band first; within it, the first client
  // strictly after the one served last (wrapping), so every client takes
  // turns regardless of how deep anyone's queue is.
  BandIt band = bands_.begin();
  auto& clients = band->second.clients;
  ClientIt client = clients.upper_bound(band->second.last_client);
  if (client == clients.end()) client = clients.begin();
  return pop_from(band, client);
}

void Explain3DService::RunnerLoop() {
  for (;;) {
    TicketPtr ticket;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (shutdown_ || queued_tickets_ == 0) {
        --active_runners_;
        idle_cv_.notify_all();
        return;
      }
      ticket = PopLocked();
      ++running_requests_;
    }
    Process(ticket);
    std::lock_guard<std::mutex> lock(mu_);
    --running_requests_;
  }
}

void Explain3DService::Process(const TicketPtr& ticket) {
  using State = RequestTicket::State;
  using Source = RequestTicket::Source;
  // Claim kQueued → kRunning. Losing the claim means Cancel() or the
  // ticket's own deadline expiry finished it while it sat in the queue.
  bool claimed = false;
  {
    std::lock_guard<std::mutex> lock(ticket->mu_);
    if (ticket->state_ == State::kQueued) {
      ticket->state_ = State::kRunning;
      claimed = true;
    }
  }
  // Already counted by whoever finished it; just skip.
  if (!claimed) return;
  // From here on only this worker finishes the ticket; Cancel() can only
  // fire the token, and Submit stopped writing before the enqueue.
  const ExplanationRequest& req = ticket->request_;
  const CancelToken* cancel = ticket->token_.get();
  auto claimed_at = std::chrono::steady_clock::now();
  double queue_s = SecondsBetween(ticket->submit_time_, claimed_at);

  // Claim-time poll: a deadline that expired while the request queued
  // (or a cancel that lost the claim race by a hair) fails it before any
  // work happens.
  if (Status fired = CheckCancel(cancel); !fired.ok()) {
    if (fired.code() == StatusCode::kDeadlineExceeded) {
      fired = Status::DeadlineExceeded(StrFormat(
          "request spent %.6fs queued, past its %.6fs deadline", queue_s,
          req.deadline_seconds));
    }
    ticket->Finish(std::move(fired), Source::kOwn, State::kRunning);
    return;
  }

  // Resolve handles into keep-alive references: a concurrent re-register
  // swaps the registry slot but cannot free a database this request is
  // reading.
  Result<ResolvedDb> db1 = ResolveHandle(req.db1);
  Result<ResolvedDb> db2 = db1.ok() ? ResolveHandle(req.db2)
                                    : Result<ResolvedDb>(db1.status());
  Result<PipelineResult> outcome =
      !db1.ok() ? Result<PipelineResult>(db1.status())
      : !db2.ok()
          ? Result<PipelineResult>(db2.status())
          : [&]() -> Result<PipelineResult> {
              // The claim probe models a worker dying between claiming a
              // request and finishing it. The request runs once: its
              // transient kUnavailable finishes the ticket like any other
              // failure, and the caller decides whether to resubmit.
              E3D_RETURN_IF_ERROR(FAULT_POINT("service.claim"));
              PipelineInput input;
              input.db1 = db1.value().db.get();
              input.db2 = db2.value().db.get();
              input.sql1 = req.sql1;
              input.sql2 = req.sql2;
              input.attr_matches = req.attr_matches;
              input.mapping_options = req.mapping_options;
              input.calibration_gold = req.calibration_gold;
              input.calibration_oracle = req.calibration_oracle;
              input.matching_context = &cache_;
              // Cooperative cancellation: the ticket's token reaches
              // every pipeline cancellation point, down to solver node
              // granularity, so Cancel() and the deadline interrupt this
              // run within milliseconds.
              input.cancel = cancel;
              // Content identity, precomputed at registration: cache
              // keys follow the DATA, so a re-registered database can
              // never be served a different dataset's artifacts — and a
              // restart restoring persisted snapshots keys straight into
              // them.
              input.db_identity = db1.value().content_tag + "|" +
                                  db2.value().content_tag;
              return RunExplain3D(input, req.config);
            }();

  // Record the latencies before finishing: a caller woken by Wait() must
  // see its own request in the latency series.
  auto finished_at = std::chrono::steady_clock::now();
  double total_s = SecondsBetween(ticket->submit_time_, finished_at);
  double run_s = SecondsBetween(claimed_at, finished_at);
  // Only runs that reached the pipeline inform the admission cost
  // estimator: a stale-handle rejection resolves in microseconds and
  // says nothing about what the WORK costs — flooding the p50 window
  // with those would collapse the estimate toward zero and silently
  // disable admission control.
  bool ran_pipeline = db1.ok() && db2.ok();
  if (outcome.ok()) {
    RecordLatencies(ticket->admission_key_, ticket->priority_, queue_s,
                    outcome.value().stage1_seconds(),
                    outcome.value().stage2_seconds(), total_s, run_s);
  } else if (ran_pipeline) {
    RecordRunSeconds(ticket->admission_key_, run_s);
  }
  ticket->Finish(std::move(outcome), Source::kOwn, State::kRunning);
}

ServiceHealth Explain3DService::EvaluateHealthLocked() const {
  // See the ServiceHealth comment for the exact thresholds. Memoryless:
  // recomputed from the windows on every read, so recovery is automatic.
  double width = static_cast<double>(max_concurrency_);
  double depth = static_cast<double>(queued_tickets_);
  size_t rejections = 0;
  for (uint8_t r : recent_admissions_) rejections += r;
  if (depth >= kOverloadQueueFactor * width ||
      (recent_admissions_.size() >= 8 &&
       2 * rejections >= recent_admissions_.size())) {
    return ServiceHealth::kOverloaded;
  }
  if (depth >= kDegradeQueueFactor * width) return ServiceHealth::kDegraded;
  return ServiceHealth::kHealthy;
}

void Explain3DService::NoteAdmissionLocked(bool rejected) {
  recent_admissions_.push_back(rejected ? 1 : 0);
  if (recent_admissions_.size() > kHealthWindow) {
    recent_admissions_.pop_front();
  }
}

void Explain3DService::LatencyRing::Add(double v, size_t window) {
  if (samples.size() < window) {
    samples.push_back(v);
  } else {
    samples[next] = v;
    next = (next + 1) % window;
  }
}

void Explain3DService::RefreshRunP50Locked() {
  // The estimate only needs to be approximate: recompute on every
  // sample while the window is small (so the first estimate appears at
  // the first completion), then amortize the copy + nth_element over
  // kRefreshStride completions to keep stats_mu_ hold times flat at
  // high request rates.
  constexpr size_t kRefreshStride = 16;
  if (lat_run_.samples.size() >= 2 * kRefreshStride &&
      ++run_samples_since_refresh_ < kRefreshStride) {
    return;
  }
  run_samples_since_refresh_ = 0;
  std::vector<double> runs = lat_run_.samples;
  auto mid = runs.begin() + static_cast<long>(runs.size() / 2);
  std::nth_element(runs.begin(), mid, runs.end());
  run_p50_.store(*mid, std::memory_order_relaxed);
}

void Explain3DService::RecordRunSeconds(const std::string& admission_key,
                                        double run_s) {
  // Interrupted and failed runs feed the estimator too — their run time
  // is a LOWER bound on the work's true cost, which is exactly the
  // direction admission control must learn from. Skipping them would
  // fail open forever: a workload of deadline-doomed 60s solves would
  // never move a stale fast p50, and every one of them would keep being
  // admitted (the success-only rings below stay success-only — their
  // job is reporting healthy latency, not cost estimation).
  std::lock_guard<std::mutex> lock(stats_mu_);
  lat_run_.Add(run_s, kLatencyWindow);
  AddKeyedRunLocked(admission_key, run_s);
  RefreshRunP50Locked();
}

void Explain3DService::RecordLatencies(const std::string& admission_key,
                                       int priority, double queue_s,
                                       double stage1_s, double stage2_s,
                                       double total_s, double run_s) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  lat_queue_.Add(queue_s, kLatencyWindow);
  lat_stage1_.Add(stage1_s, kLatencyWindow);
  lat_stage2_.Add(stage2_s, kLatencyWindow);
  lat_total_.Add(total_s, kLatencyWindow);
  lat_run_.Add(run_s, kLatencyWindow);
  // Per-band rings are bounded: priorities are meant to be a handful of
  // service levels, and a caller feeding arbitrary ints (a counter, a
  // timestamp) must not grow the service's footprint forever. Bands
  // past the cap aggregate into one overflow ring — surfaced as the
  // kOverflowBand slice with bands_truncated raised — instead of being
  // silently dropped; global accounting above stays exact either way.
  auto band = lat_priority_.find(priority);
  if (band != lat_priority_.end()) {
    band->second.Add(total_s, kLatencyWindow);
  } else if (lat_priority_.size() < kMaxTrackedBands) {
    lat_priority_[priority].Add(total_s, kLatencyWindow);
  } else {
    bands_truncated_ = true;
    lat_overflow_.Add(total_s, kLatencyWindow);
  }
  AddKeyedRunLocked(admission_key, run_s);
  // Refresh the admission controller's run-time estimate (median of the
  // current window; the window is small, nth_element is microseconds).
  RefreshRunP50Locked();
}

double Explain3DService::KeyedRunP50(const std::string& key) {
  if (key.empty()) return 0;
  std::lock_guard<std::mutex> lock(stats_mu_);
  auto it = keyed_runs_.find(key);
  if (it == keyed_runs_.end()) return 0;
  // A lookup is a use: keys under active admission pressure stay
  // resident even while their completions are still rare.
  it->second.last_use = ++keyed_clock_;
  if (it->second.ring.samples.size() < kKeyedMinSamples) return 0;
  return it->second.p50;
}

void Explain3DService::AddKeyedRunLocked(const std::string& key,
                                         double run_s) {
  if (key.empty()) return;
  auto it = keyed_runs_.find(key);
  if (it == keyed_runs_.end()) {
    if (keyed_runs_.size() >= kKeyedCapacity) {
      // Evict the least-recently-used key. The capacity is small and
      // insertions past it are rare (a workload's key set is bounded by
      // its distinct (db-pair, config) combinations), so a linear scan
      // beats maintaining a second index.
      auto lru = keyed_runs_.begin();
      for (auto i = keyed_runs_.begin(); i != keyed_runs_.end(); ++i) {
        if (i->second.last_use < lru->second.last_use) lru = i;
      }
      keyed_runs_.erase(lru);
    }
    it = keyed_runs_.emplace(key, KeyedRuns{}).first;
  }
  KeyedRuns& runs = it->second;
  runs.ring.Add(run_s, kKeyedWindow);
  // The keyed window is tiny (kKeyedWindow samples): recompute the p50
  // on every add so the estimate tracks the workload immediately.
  std::vector<double> sorted = runs.ring.samples;
  auto mid = sorted.begin() + static_cast<long>(sorted.size() / 2);
  std::nth_element(sorted.begin(), mid, sorted.end());
  runs.p50 = *mid;
  runs.last_use = ++keyed_clock_;
}

// --- persistence tier -------------------------------------------------------

Status Explain3DService::SnapshotTo(const std::string& dir) {
  // Concurrent calls share the file's temp name, so they take turns, and
  // each one reads the cache inside its turn: the image that lands last
  // is the newest. Entries are immutable shared blocks, so snapshotting
  // never pauses serving: the cache copies its key/pointer pairs under
  // its lock and the (slow) encoding walks them lock-free.
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  std::vector<std::pair<std::string, ArtifactsPtr>> entries =
      cache_.Entries();
  std::vector<std::pair<std::string, IncumbentsPtr>> incumbents =
      cache_.IncumbentEntries();
  // The cache lists most recently used first; the file stores the
  // reverse, the order RestoreFrom inserts in.
  std::reverse(entries.begin(), entries.end());
  std::vector<std::pair<std::string, SolverIncumbents>> records;
  records.reserve(incumbents.size());
  for (auto it = incumbents.rbegin(); it != incumbents.rend(); ++it) {
    records.emplace_back(it->first, *it->second);
  }
  return storage::WriteSnapshotFile(dir, entries, records);
}

Status Explain3DService::RestoreFrom(const std::string& dir) {
  // The whole file is verified and decoded before the first insert: a
  // damaged snapshot fails whole and leaves the cache untouched.
  E3D_ASSIGN_OR_RETURN(storage::SnapshotContents image,
                       storage::ReadSnapshotFile(dir));
  // Least recently used first, so the cache ends in the snapshot's LRU
  // order and a budget too small for the image keeps its newest entries.
  size_t entries = 0;
  for (storage::DecodedArtifacts& d : image.entries) {
    // A live entry wins over the disk image (it is at least as fresh).
    if (cache_.Put(d.key, std::move(d.artifacts))) ++entries;
  }
  for (auto& [key, inc] : image.incumbents) {
    cache_.PutIncumbents(key, std::move(inc));
  }
  ledger_->Apply([&](ServiceCounts& c) {
    c.restored_entries += entries;
    c.restored_incumbents += image.incumbents.size();
  });
  return Status::OK();
}

ServiceStats Explain3DService::Stats() const {
  ServiceStats s;
  static_cast<ServiceCounts&>(s) = ledger_->Snapshot();
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Cancelled tickets sit in the bands until a worker pops and
    // discards them; they are not pending work, so don't report them as
    // backlog.
    for (const auto& [priority, band] : bands_) {
      size_t depth = 0;
      for (const auto& [client, queue] : band.clients) {
        for (const TicketPtr& t : queue) {
          if (!t->done()) ++depth;
        }
      }
      s.priority_bands[priority].queue_depth = depth;
      s.queue_depth += depth;
    }
    s.running = running_requests_;
    s.health = EvaluateHealthLocked();
  }
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    s.registered_databases = registry_.size();
  }
  s.fault_fires = FaultInjector::Instance().TotalFires();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    s.queue_seconds = Summarize(lat_queue_.samples);
    s.stage1_seconds = Summarize(lat_stage1_.samples);
    s.stage2_seconds = Summarize(lat_stage2_.samples);
    s.total_seconds = Summarize(lat_total_.samples);
    s.run_seconds = Summarize(lat_run_.samples);
    for (const auto& [priority, ring] : lat_priority_) {
      s.priority_bands[priority].total_seconds = Summarize(ring.samples);
    }
    s.bands_truncated = bands_truncated_;
    if (bands_truncated_) {
      s.priority_bands[ServiceStats::kOverflowBand].total_seconds =
          Summarize(lat_overflow_.samples);
    }
  }
  s.cache_entries = cache_.size();
  s.cache_bytes = cache_.bytes();
  s.warm_hits = cache_.hits();
  s.cold_misses = cache_.misses();
  s.cache_evictions = cache_.evictions();
  s.incumbent_entries = cache_.incumbent_entries();
  s.incumbent_hits = cache_.incumbent_hits();
  s.incumbent_misses = cache_.incumbent_misses();
  return s;
}

}  // namespace explain3d
