#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <optional>
#include <set>
#include <thread>
#include <utility>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "datagen/imdb.h"
#include "datagen/synthetic.h"
#include "eval/gold.h"
#include "eval/metrics.h"
#include "provenance/canonical.h"
#include "provenance/provenance.h"
#include "relational/parser.h"

namespace perfbench {

using namespace explain3d;

uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

namespace {

/// Client threads plus pipeline worker threads stay within the cores.
size_t Cores() {
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

/// Pipeline threads of a single-client workload: every core but the
/// client's own.
size_t SingleClientPipelineThreads() {
  return std::max<size_t>(1, Cores() - 1);
}

Subject SyntheticSubject(SyntheticDataset data, const std::string& tag) {
  Subject s;
  s.name1 = tag + ".left";
  s.name2 = tag + ".right";
  s.db1 = std::make_shared<const Database>(std::move(data.db1));
  s.db2 = std::make_shared<const Database>(std::move(data.db2));
  s.sql1 = data.sql1;
  s.sql2 = data.sql2;
  s.attr = data.attr_matches;
  s.mapping.min_probability = 1e-4;
  s.rows1 = data.row_entities1;
  s.rows2 = data.row_entities2;
  s.oracle = MakeRowEntityOracle(s.rows1, s.rows2);
  return s;
}

/// Generates `count` synthetic pairs in parallel (generation is
/// per-pair independent and seeded, so the order of work is irrelevant).
Result<std::vector<Subject>> GeneratePairs(const SyntheticOptions& base,
                                           uint64_t seed, size_t count,
                                           const std::string& prefix) {
  std::vector<std::optional<Result<SyntheticDataset>>> made(count);
  ParallelFor(Cores(), count, [&](size_t i) {
    SyntheticOptions opts = base;
    opts.seed = MixSeed(seed, i);
    made[i] = GenerateSynthetic(opts);
  });
  std::vector<Subject> out;
  for (size_t i = 0; i < count; ++i) {
    if (!made[i]->ok()) return made[i]->status();
    out.push_back(SyntheticSubject(std::move(*made[i]).value(),
                                   prefix + std::to_string(i)));
  }
  return out;
}

// --- warm_dense ---------------------------------------------------------

/// Dense synthetic pairs (the BM_PipelineWarmRun fixture: n=500, d=0.25,
/// v=300) answered cold once, carried over a snapshot/restore restart,
/// then repeated warm by one closed-loop client in a seeded order.
///
/// The pairs come from a fixed pool seed: one pair's warm cost varies
/// ~10x with its data (the node-capped assignment unit's search shape),
/// so pairs drawn per run seed would make the latency median a property
/// of the draw rather than of the code. The run seed sets the visiting
/// order; each round visits every pair once, and the timed phase runs
/// whole rounds.
class WarmDense final : public Workload {
 public:
  // Five rounds make the 110 operations the p90 needs.
  static constexpr size_t kPairs = 22;
  static constexpr uint64_t kPoolSeed = 500;

  WarmDense() : Workload("warm_dense") {}

  Settings settings() const override {
    Settings s;
    s.pipeline_threads = SingleClientPipelineThreads();
    return s;
  }

  Status Setup(uint64_t seed, const std::string& workdir) override {
    Reset();
    SyntheticOptions gen;
    gen.n = 500;
    gen.d = 0.25;
    gen.v = 300;
    E3D_ASSIGN_OR_RETURN(subjects_,
                         GeneratePairs(gen, kPoolSeed, kPairs, "p"));
    order_.resize(kPairs);
    for (size_t i = 0; i < kPairs; ++i) order_[i] = i;
    Rng rng(MixSeed(seed, 0));
    rng.Shuffle(&order_);

    // The cold answers come from a warm-up service that runs one
    // single-threaded request per core beside the client's; answers do
    // not depend on either setting, and the restarted service below
    // serves the timed phase.
    ServiceOptions warmup;
    warmup.max_concurrency = SingleClientPipelineThreads();
    service_ = std::make_unique<Explain3DService>(warmup);
    for (const Subject& s : subjects_) Register(s);
    E3D_RETURN_IF_ERROR(WarmUp(order_, 1));

    // Restart: snapshot the warm state, destroy the service, and bring
    // up a fresh one over the same data from the snapshot.
    std::string dir = workdir + "/warm_dense.snapshot";
    std::filesystem::remove_all(dir);
    Clock::time_point t0 = Clock::now();
    E3D_RETURN_IF_ERROR(service_->SnapshotTo(dir));
    snapshot_s_ = SecondsBetween(t0, Clock::now());
    service_.reset();
    handles_.clear();
    ServiceOptions options;
    options.max_concurrency = settings().max_concurrency;
    service_ = std::make_unique<Explain3DService>(options);
    for (const Subject& s : subjects_) Register(s);
    t0 = Clock::now();
    E3D_RETURN_IF_ERROR(service_->RestoreFrom(dir));
    restore_s_ = SecondsBetween(t0, Clock::now());
    std::filesystem::remove_all(dir);
    return Status::OK();
  }

  Status Run(double seconds, RunLog* log) override {
    return RunSingleClient(seconds, kPairs, /*registers=*/false,
                           [&](size_t i) { return order_[i % kPairs]; }, log);
  }

 private:
  std::vector<size_t> order_;
};

// --- refresh_sparse -----------------------------------------------------

/// Several versions of one large sparse synthetic pair (n=12000, v=n,
/// d=0.1). Every operation re-registers both databases with the next
/// version and sends one request, so the content hash changes, the
/// cache entry retires, and stage 1 rebuilds cold.
///
/// The versions come from a fixed pool seed: a version's cost varies
/// ~20% with its data, and the p90 sits in the costliest version. The
/// run seed picks the version the cycle starts from.
class RefreshSparse final : public Workload {
 public:
  static constexpr size_t kVersions = 3;
  static constexpr size_t kEntities = 12000;
  static constexpr uint64_t kPoolSeed = 12000;

  RefreshSparse() : Workload("refresh_sparse") {}

  Settings settings() const override {
    Settings s;
    s.pipeline_threads = SingleClientPipelineThreads();
    return s;
  }

  Status Setup(uint64_t seed, const std::string& /*workdir*/) override {
    Reset();
    SyntheticOptions gen;
    gen.n = kEntities;
    gen.d = 0.1;
    gen.v = kEntities;
    E3D_ASSIGN_OR_RETURN(subjects_,
                         GeneratePairs(gen, kPoolSeed, kVersions, "v"));
    first_ = MixSeed(seed, 0) % kVersions;
    // Every version registers under the same two names: a new version
    // replaces the previous one.
    for (Subject& s : subjects_) {
      s.name1 = "refresh.left";
      s.name2 = "refresh.right";
    }
    ServiceOptions options;
    options.max_concurrency = settings().max_concurrency;
    service_ = std::make_unique<Explain3DService>(options);
    Register(subjects_[first_]);
    return WarmUp({first_}, settings().pipeline_threads);
  }

  Status Run(double seconds, RunLog* log) override {
    return RunSingleClient(
        seconds, kVersions, /*registers=*/true,
        [&](size_t i) { return (first_ + i + 1) % kVersions; }, log);
  }

 private:
  size_t first_ = 0;
};

// --- multi_tenant -------------------------------------------------------

/// Four closed-loop tenants over the IMDb views. Each request is a Q1-Q10
/// template instance drawn with skew: half the picks go to a few hot
/// instances. Tenant 0 is interactive (higher priority, generous
/// deadline, portfolio mode). Requests carry precomputed calibration
/// labels, so identical in-flight requests coalesce.
///
/// The corpus comes from a fixed seed: a corpus can hold a few instances
/// that cost ~50x a typical request, and which ones a per-run corpus
/// drew would set the run's pace. This corpus has none above ~30 ms.
/// The run seed sets every tenant's request sequence.
class MultiTenant final : public Workload {
 public:
  static constexpr size_t kTenants = 4;
  static constexpr double kHotShare = 0.5;
  static constexpr double kInteractiveDeadline = 10.0;
  static constexpr uint64_t kCorpusSeed = 3;

  MultiTenant() : Workload("multi_tenant") {}

  Settings settings() const override {
    Settings s;
    s.client_threads = 1;  // one thread multiplexes the tenants
    s.tenants = kTenants;
    s.max_concurrency = 2;
    s.pipeline_threads = 1;
    return s;
  }

  Explain3DConfig TenantConfig(size_t tenant) const override {
    Explain3DConfig config = Workload::TenantConfig(tenant);
    config.portfolio = tenant == 0;
    return config;
  }

  Status Setup(uint64_t seed, const std::string& /*workdir*/) override {
    Reset();
    seed_ = seed;
    ImdbOptions gen;
    gen.seed = kCorpusSeed;
    E3D_ASSIGN_OR_RETURN(ImdbDataset data, GenerateImdb(gen));
    auto view1 = std::make_shared<const Database>(std::move(data.view1));
    auto view2 = std::make_shared<const Database>(std::move(data.view2));

    std::vector<ImdbQueryPair> instances;
    const std::vector<std::string>& genres = ImdbGenres();
    for (int year = gen.year_min; year <= gen.year_max; ++year) {
      for (ImdbQueryPair& q : ImdbTemplates(year, genres.front())) {
        if (q.name != "Q10") instances.push_back(std::move(q));
      }
    }
    for (const std::string& genre : genres) {
      for (ImdbQueryPair& q : ImdbTemplates(gen.year_min, genre)) {
        if (q.name == "Q10") instances.push_back(std::move(q));
      }
    }

    // Calibration labels per instance, from the generator's lineage over
    // the canonical relations (the same pairs the entity-column oracle
    // would produce). Instances whose stage 1 yields nothing to explain
    // on a side are left out, so no operation fails.
    std::vector<std::optional<Labeled>> made(instances.size());
    ParallelFor(Cores(), instances.size(), [&](size_t i) {
      made[i] = LabeledSubject(instances[i], view1, view2);
    });
    // The hot set is one instance of each per-year template Q1-Q9: the
    // one with the median canonical-tuple count, so every seed's hot mix
    // has the same shape. (The twelve Q10 genre instances cost ~10x a
    // typical request; a hot one would set the whole run's pace.)
    std::map<std::string, std::vector<std::pair<size_t, size_t>>> by_template;
    for (size_t i = 0; i < made.size(); ++i) {
      if (!made[i].has_value()) continue;
      by_template[instances[i].name].push_back(
          {made[i]->tuples, subjects_.size()});
      subjects_.push_back(std::move(made[i]->subject));
    }
    for (auto& [name, sized] : by_template) {
      if (name == "Q10") continue;
      std::sort(sized.begin(), sized.end());
      hot_.push_back(sized[sized.size() / 2].second);
    }

    ServiceOptions options;
    options.max_concurrency = settings().max_concurrency;
    service_ = std::make_unique<Explain3DService>(options);
    Register(subjects_.front());
    return WarmUp(hot_, settings().pipeline_threads);
  }

  Status Run(double seconds, RunLog* log) override;

 private:
  struct Labeled {
    Subject subject;
    size_t tuples = 0;  ///< canonical tuples, both sides
  };

  static std::optional<Labeled> LabeledSubject(
      const ImdbQueryPair& q, const std::shared_ptr<const Database>& view1,
      const std::shared_ptr<const Database>& view2) {
    Result<SelectStmtPtr> s1 = ParseSql(q.sql1);
    Result<SelectStmtPtr> s2 = ParseSql(q.sql2);
    if (!s1.ok() || !s2.ok()) return std::nullopt;
    Result<ProvenanceRelation> p1 = DeriveProvenance(*view1, *s1.value());
    Result<ProvenanceRelation> p2 = DeriveProvenance(*view2, *s2.value());
    if (!p1.ok() || !p2.ok()) return std::nullopt;
    const AttributeMatch& attr = q.attr_matches.front();
    Result<CanonicalRelation> t1 = Canonicalize(p1.value(), attr.attrs1);
    Result<CanonicalRelation> t2 = Canonicalize(p2.value(), attr.attrs2);
    if (!t1.ok() || !t2.ok() || t1.value().size() == 0 ||
        t2.value().size() == 0) {
      return std::nullopt;
    }
    Result<std::vector<int64_t>> e1 =
        EntitiesFromColumn(t1.value(), p1.value().table, q.entity_col1);
    Result<std::vector<int64_t>> e2 =
        EntitiesFromColumn(t2.value(), p2.value().table, q.entity_col2);
    if (!e1.ok() || !e2.ok()) return std::nullopt;
    Subject s;
    s.name1 = "imdb.view1";
    s.name2 = "imdb.view2";
    s.db1 = view1;
    s.db2 = view2;
    s.sql1 = q.sql1;
    s.sql2 = q.sql2;
    s.attr = q.attr_matches;
    s.calibration_gold =
        DeriveGoldFromEntities(t1.value(), t2.value(), e1.value(),
                               e2.value())
            .evidence_pairs;
    s.entity_col1 = q.entity_col1;
    s.entity_col2 = q.entity_col2;
    return Labeled{std::move(s), t1.value().size() + t2.value().size()};
  }

  /// The tenant's i-th pick: a hot instance with probability kHotShare,
  /// else any instance. Pure in (seed, tenant, i).
  size_t Pick(size_t tenant, size_t i) const {
    Rng rng(MixSeed(MixSeed(seed_, 2000 + tenant), i));
    if (rng.UniformDouble() < kHotShare) return hot_[rng.Index(hot_.size())];
    return rng.Index(subjects_.size());
  }

  uint64_t seed_ = 0;
  std::vector<size_t> hot_;
};

Status MultiTenant::Run(double seconds, RunLog* log) {
  struct InFlight {
    TicketPtr ticket;
    Clock::time_point start;
    Op op;
  };
  std::vector<std::optional<InFlight>> inflight(kTenants);
  std::vector<size_t> sent(kTenants, 0);
  auto submit = [&](size_t tenant) {
    InFlight f;
    f.op.subject = Pick(tenant, sent[tenant]++);
    f.op.tenant = tenant;
    SubmitOptions so;
    so.client_id = "tenant" + std::to_string(tenant);
    so.priority = tenant == 0 ? 1 : 0;
    ExplanationRequest req = MakeRequest(f.op.subject, tenant);
    if (tenant == 0) req.deadline_seconds = kInteractiveDeadline;
    f.start = Clock::now();
    f.ticket = service_->Submit(std::move(req), so);
    inflight[tenant] = std::move(f);
  };

  BeginRun(log);
  Clock::time_point start = Clock::now();
  Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  Clock::time_point last = start;
  for (size_t t = 0; t < kTenants; ++t) submit(t);
  size_t live = kTenants;
  while (live > 0) {
    // Park briefly on the oldest request, then sweep every tenant: the
    // completion time of any request is seen within one park interval.
    size_t oldest = kTenants;
    for (size_t t = 0; t < kTenants; ++t) {
      if (inflight[t] &&
          (oldest == kTenants ||
           inflight[t]->start < inflight[oldest]->start)) {
        oldest = t;
      }
    }
    inflight[oldest]->ticket->WaitFor(50e-6);
    for (size_t t = 0; t < kTenants; ++t) {
      if (!inflight[t]) continue;
      const Result<PipelineResult>* r = inflight[t]->ticket->TryGet();
      if (r == nullptr) continue;
      Clock::time_point now = Clock::now();
      last = now;
      Op op = inflight[t]->op;
      op.latency_s = SecondsBetween(inflight[t]->start, now);
      Finish(&op, *r, log);
      log->ops.push_back(op);
      inflight[t].reset();
      if (now < end) {
        submit(t);
      } else {
        --live;
      }
    }
  }
  log->wall_s = SecondsBetween(start, last);
  EndRun(log);
  return Status::OK();
}

}  // namespace

// --- shared plumbing ----------------------------------------------------

Explain3DConfig Workload::TenantConfig(size_t /*tenant*/) const {
  Explain3DConfig config;
  config.num_threads = settings().pipeline_threads;
  return config;
}

void Workload::Reset() {
  service_.reset();
  handles_.clear();
  subjects_.clear();
  warmed_.clear();
  gate_ = AnswerGate();
  first_answer_.clear();
  snapshot_s_ = restore_s_ = 0;
}

void Workload::Register(const Subject& subject) {
  handles_[subject.name1] =
      service_->RegisterDatabase(subject.name1, Database(*subject.db1));
  handles_[subject.name2] =
      service_->RegisterDatabase(subject.name2, Database(*subject.db2));
}

ExplanationRequest Workload::MakeRequest(size_t subject, size_t tenant) const {
  const Subject& s = subjects_[subject];
  ExplanationRequest req;
  req.db1 = handles_.at(s.name1);
  req.db2 = handles_.at(s.name2);
  req.sql1 = s.sql1;
  req.sql2 = s.sql2;
  req.attr_matches = s.attr;
  req.mapping_options = s.mapping;
  req.calibration_gold = s.calibration_gold;
  req.calibration_oracle = s.oracle;
  req.config = TenantConfig(tenant);
  return req;
}

void Workload::Finish(Op* op, const Result<PipelineResult>& r, RunLog* log) {
  if (!r.ok()) {
    std::fprintf(stderr, "%s: subject %zu failed: %s\n", name_.c_str(),
                 op->subject, r.status().ToString().c_str());
    return;
  }
  const PipelineResult& result = r.value();
  op->pipeline_s = result.total_seconds();
  op->proven = result.core().stats.all_optimal && !result.degraded();
  op->answered =
      gate_.Check(op->subject, AnswerBytes(result.core().explanations));
  if (!op->answered) {
    if (log != nullptr) ++log->mismatches;
    std::fprintf(stderr, "%s: subject %zu answer differs from its first\n",
                 name_.c_str(), op->subject);
  }
  first_answer_.try_emplace(op->subject, result);
}

Status Workload::WarmUp(const std::vector<size_t>& subjects,
                        size_t pipeline_threads) {
  std::vector<TicketPtr> tickets;
  for (size_t s : subjects) {
    ExplanationRequest req = MakeRequest(s, 0);
    req.config.num_threads = pipeline_threads;
    tickets.push_back(service_->Submit(std::move(req)));
  }
  for (size_t i = 0; i < subjects.size(); ++i) {
    Op op;
    op.subject = subjects[i];
    Finish(&op, tickets[i]->Wait(), nullptr);
    if (!op.answered) {
      return Status::Internal("warm-up request failed for subject " +
                              std::to_string(op.subject));
    }
    warmed_.push_back(op.subject);
  }
  return Status::OK();
}

void Workload::BeginRun(RunLog* log) const {
  log->before = service_->Stats();
  log->cpu_s = ProcessCpuSeconds();
  const MatchingContext& cache = service_->cache();
  log->cache_hits = cache.hits();
  log->cache_misses = cache.misses();
  log->cache_evictions = cache.evictions();
}

void Workload::EndRun(RunLog* log) const {
  log->cpu_s = ProcessCpuSeconds() - log->cpu_s;
  log->after = service_->Stats();
  const MatchingContext& cache = service_->cache();
  log->cache_hits = cache.hits() - log->cache_hits;
  log->cache_misses = cache.misses() - log->cache_misses;
  log->cache_evictions = cache.evictions() - log->cache_evictions;
}

Status Workload::RunSingleClient(double seconds, size_t round,
                                 bool registers,
                                 const std::function<size_t(size_t)>& next,
                                 RunLog* log) {
  // Enough operations that at least ten lie beyond the p90.
  constexpr size_t kMinOps = 110;
  BeginRun(log);
  Clock::time_point start = Clock::now();
  Clock::time_point last = start;
  for (size_t i = 0; i % round != 0 || i < kMinOps ||
                     SecondsBetween(start, last) < seconds;
       ++i) {
    Op op;
    op.subject = next(i);
    op.registers = registers;
    const Subject& s = subjects_[op.subject];
    // The copies the service takes ownership of are made before the
    // operation's clock starts.
    std::optional<Database> d1, d2;
    if (registers) {
      d1.emplace(*s.db1);
      d2.emplace(*s.db2);
    }
    Clock::time_point t0 = Clock::now();
    if (registers) {
      handles_[s.name1] = service_->RegisterDatabase(s.name1, std::move(*d1));
      handles_[s.name2] = service_->RegisterDatabase(s.name2, std::move(*d2));
    }
    TicketPtr ticket = service_->Submit(MakeRequest(op.subject, 0));
    const Result<PipelineResult>& r = ticket->Wait();
    last = Clock::now();
    op.latency_s = SecondsBetween(t0, last);
    Finish(&op, r, log);
    log->ops.push_back(op);
  }
  log->wall_s = SecondsBetween(start, last);
  EndRun(log);
  return Status::OK();
}

double Workload::ExplanationF1(const RunLog& log) const {
  std::map<size_t, double> f1_of;
  for (const auto& [subject, result] : first_answer_) {
    const Subject& s = subjects_[subject];
    std::vector<int64_t> e1, e2;
    if (!s.rows1.empty()) {
      e1 = CanonicalEntities(result.t1(), s.rows1);
      e2 = CanonicalEntities(result.t2(), s.rows2);
    } else {
      Result<std::vector<int64_t>> c1 =
          EntitiesFromColumn(result.t1(), result.p1().table, s.entity_col1);
      Result<std::vector<int64_t>> c2 =
          EntitiesFromColumn(result.t2(), result.p2().table, s.entity_col2);
      if (!c1.ok() || !c2.ok()) continue;
      e1 = std::move(c1).value();
      e2 = std::move(c2).value();
    }
    GoldStandard gold =
        DeriveGoldFromEntities(result.t1(), result.t2(), e1, e2);
    f1_of[subject] = ExplanationAccuracy(result.core().explanations, gold).f1;
  }
  // Each distinct request counts once: the answers to one request are
  // bit-identical, and weighting by repeats would let the few hot
  // requests set the score.
  std::set<size_t> answered;
  for (const Op& op : log.ops) {
    if (op.answered && f1_of.count(op.subject) != 0) {
      answered.insert(op.subject);
    }
  }
  double sum = 0;
  for (size_t subject : answered) sum += f1_of[subject];
  return answered.empty() ? 0.0 : sum / static_cast<double>(answered.size());
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "warm_dense") return std::make_unique<WarmDense>();
  if (name == "refresh_sparse") return std::make_unique<RefreshSparse>();
  if (name == "multi_tenant") return std::make_unique<MultiTenant>();
  return nullptr;
}

}  // namespace perfbench
