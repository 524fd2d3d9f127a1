#include "replay.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "baselines/greedy.h"
#include "common/thread_pool.h"
#include "core/matching_context.h"
#include "core/probability_model.h"
#include "core/solver.h"
#include "matching/blocking.h"
#include "matching/mapping_generator.h"
#include "matching/token_interning.h"
#include "provenance/canonical.h"
#include "provenance/provenance.h"
#include "relational/executor.h"
#include "relational/parser.h"
#include "storage/content_hash.h"

namespace perfbench {

using namespace explain3d;

namespace {

/// One timed call site of the replay. Each belongs to one layer.
enum class Step : int {
  kOp = 0,        // the whole replayed operation (not a layer)
  kHash,          // storage: DatabaseContentHash
  kLookup,        // cache: MatchingContext GetOrBuild / Clear
  kExecute,       // relational: ParseSql + Executor::ExecuteScalar
  kDerive,        // provenance: DeriveProvenance
  kCanonicalize,  // provenance: Canonicalize
  kIntern,        // matching: InternedRelation
  kBlock,         // matching: GenerateCandidates
  kMap,           // matching: GenerateInitialMapping (+ calibration labels)
  kGreedy,        // greedy: GreedyBaseline (portfolio leg)
  kSolve,         // solver: Explain3DSolver::Solve
  kPrepartition,  // partitioning: from Solve's SmartPartitionStats
  kPartition,     // partitioning: from Solve's SmartPartitionStats
  kService,       // service: untraced latency minus the pipeline run
  kCount
};
constexpr size_t kSteps = static_cast<size_t>(Step::kCount);

const char* LayerOf(Step step) {
  switch (step) {
    case Step::kOp: return "";
    case Step::kHash: return "storage";
    case Step::kLookup: return "cache";
    case Step::kExecute: return "relational";
    case Step::kDerive:
    case Step::kCanonicalize: return "provenance";
    case Step::kIntern:
    case Step::kBlock:
    case Step::kMap: return "matching";
    case Step::kGreedy: return "greedy";
    case Step::kSolve: return "solver";
    case Step::kPrepartition:
    case Step::kPartition: return "partitioning";
    case Step::kService: return "service";
    case Step::kCount: break;
  }
  return "";
}

/// In-memory span recorder. Spans nest through an open-span stack; a
/// span's self time is its duration minus its direct children's.
class Tracer {
 public:
  struct Span {
    Step step = Step::kOp;
    int parent = -1;
    Clock::time_point start;
    double duration = 0;
    double children = 0;
  };

  /// Closes its span on destruction.
  class Scope {
   public:
    Scope(Tracer* tracer, Step step)
        : tracer_(tracer), id_(tracer->Open(step)) {}
    ~Scope() { tracer_->Close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    size_t id_;
  };

  size_t Open(Step step) {
    Span span;
    span.step = step;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.start = Clock::now();
    spans_.push_back(span);
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return spans_.size() - 1;
  }

  void Close(size_t id) {
    Span& span = spans_[id];
    span.duration = SecondsBetween(span.start, Clock::now());
    if (span.parent >= 0) spans_[span.parent].children += span.duration;
    stack_.pop_back();
  }

  /// A span known only by its duration (read from stats or results),
  /// recorded as a child of the open span.
  void Add(Step step, double seconds) {
    Span span;
    span.step = step;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.duration = seconds;
    if (span.parent >= 0) spans_[span.parent].children += seconds;
    spans_.push_back(span);
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// What one replayed operation did, beyond its spans.
struct OpCounts {
  size_t provenance_rows = 0;
  size_t candidates = 0;
  size_t matches = 0;
  size_t units = 0;
  size_t nodes = 0;
  size_t milp_units = 0;
  size_t assignment_units = 0;
  size_t warm_start_hits = 0;
  bool capped = false;
};

/// The replay's own copies of the state the service keeps between
/// requests: the stage-1 cache, warm-start incumbents, and the content
/// identity of each registered pair.
struct ReplayState {
  MatchingContext cache;
  std::mutex incumbents_mu;
  std::map<size_t, SolverIncumbents> incumbents;  // by subject, guarded
  std::map<size_t, std::string> identity;         // by subject
  double hash_seconds = 0;
  size_t hash_calls = 0;
};

uint64_t TimedHash(const Database& db, ReplayState* st) {
  Clock::time_point t0 = Clock::now();
  uint64_t h = storage::DatabaseContentHash(db);
  st->hash_seconds += SecondsBetween(t0, Clock::now());
  ++st->hash_calls;
  return h;
}

/// The stage-1 cache key: pair identity, queries, attribute match, and
/// blocking switch, length-prefixed like the pipeline's own key.
std::string CacheKey(const Subject& s, const std::string& identity) {
  std::string key = identity + "|";
  for (const std::string& part : {s.sql1, s.sql2, s.attr.front().ToString()}) {
    key += std::to_string(part.size()) + ":" + part + "|";
  }
  return key + (s.mapping.use_blocking ? "blocking" : "allpairs");
}

/// Stage-1 front end, one span per layer call.
Result<ArtifactsPtr> BuildArtifacts(const Subject& s, size_t threads,
                                    Tracer* tr) {
  auto art = std::make_shared<Stage1Artifacts>();
  SelectStmtPtr q1, q2;
  {
    Tracer::Scope span(tr, Step::kExecute);
    E3D_ASSIGN_OR_RETURN(q1, ParseSql(s.sql1));
    E3D_ASSIGN_OR_RETURN(q2, ParseSql(s.sql2));
    E3D_ASSIGN_OR_RETURN(art->answer1,
                         Executor(s.db1.get()).ExecuteScalar(*q1));
    E3D_ASSIGN_OR_RETURN(art->answer2,
                         Executor(s.db2.get()).ExecuteScalar(*q2));
  }
  {
    Tracer::Scope span(tr, Step::kDerive);
    E3D_ASSIGN_OR_RETURN(art->p1, DeriveProvenance(*s.db1, *q1));
    E3D_ASSIGN_OR_RETURN(art->p2, DeriveProvenance(*s.db2, *q2));
  }
  const AttributeMatch& attr = s.attr.front();
  {
    Tracer::Scope span(tr, Step::kCanonicalize);
    E3D_RETURN_IF_ERROR(
        attr.ValidateAgainst(art->p1.table.schema(), art->p2.table.schema()));
    E3D_ASSIGN_OR_RETURN(art->t1, Canonicalize(art->p1, attr.attrs1));
    E3D_ASSIGN_OR_RETURN(art->t2, Canonicalize(art->p2, attr.attrs2));
  }
  {
    Tracer::Scope span(tr, Step::kIntern);
    bool bags = NeedsKeyBags(art->t1, art->t2);
    art->i1 = std::make_unique<InternedRelation>(art->t1, &art->dict, bags,
                                                 threads);
    art->i2 = std::make_unique<InternedRelation>(art->t2, &art->dict, bags,
                                                 threads);
  }
  {
    Tracer::Scope span(tr, Step::kBlock);
    art->candidates = s.mapping.use_blocking
                          ? GenerateCandidates(*art->i1, *art->i2, threads)
                          : AllPairs(art->t1.size(), art->t2.size());
  }
  return ArtifactsPtr(std::move(art));
}

/// Global match ids of the greedy evidence, ascending (the shape
/// Explain3DInput::greedy_selection takes).
std::vector<size_t> SelectionOf(const TupleMapping& mapping,
                                const TupleMapping& evidence) {
  std::unordered_map<uint64_t, size_t> id_of;
  auto pack = [](const TupleMatch& m) {
    return (static_cast<uint64_t>(m.t1) << 32) | static_cast<uint64_t>(m.t2);
  };
  for (size_t i = 0; i < mapping.size(); ++i) id_of[pack(mapping[i])] = i;
  std::vector<size_t> out;
  for (const TupleMatch& m : evidence) {
    auto it = id_of.find(pack(m));
    if (it != id_of.end()) out.push_back(it->second);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Replays one operation; `answer` receives its answer bytes.
Status ReplayOp(const Workload& w, const Op& op, ReplayState* st, Tracer* tr,
                OpCounts* counts, std::string* answer) {
  const Subject& s = w.subjects()[op.subject];
  const Explain3DConfig config = w.TenantConfig(op.tenant);
  const size_t threads = ResolveThreads(config.num_threads);
  Tracer::Scope root(tr, Step::kOp);

  if (op.registers) {
    // RegisterDatabase: hash the new contents, retire the old entries.
    {
      Tracer::Scope span(tr, Step::kHash);
      st->identity[op.subject] =
          storage::ContentTag(TimedHash(*s.db1, st)) + "|" +
          storage::ContentTag(TimedHash(*s.db2, st));
    }
    Tracer::Scope span(tr, Step::kLookup);
    st->cache.Clear();
    std::lock_guard<std::mutex> lock(st->incumbents_mu);
    st->incumbents.clear();
  }

  ArtifactsPtr art;
  {
    Tracer::Scope span(tr, Step::kLookup);
    E3D_ASSIGN_OR_RETURN(
        art, st->cache.GetOrBuild(
                 CacheKey(s, st->identity.at(op.subject)),
                 [&] { return BuildArtifacts(s, threads, tr); }));
  }
  counts->provenance_rows = art->p1.size() + art->p2.size();
  counts->candidates = art->candidates.size();

  TupleMapping mapping;
  {
    Tracer::Scope span(tr, Step::kMap);
    GoldPairs labels = s.oracle ? s.oracle(art->t1, art->t2, art->p1.table,
                                           art->p2.table)
                                : s.calibration_gold;
    MappingGenOptions options = s.mapping;
    options.num_threads = threads;
    E3D_ASSIGN_OR_RETURN(mapping,
                         GenerateInitialMapping(*art->i1, *art->i2,
                                                art->candidates, labels,
                                                options));
  }
  counts->matches = mapping.size();

  const AttributeMatch& attr = s.attr.front();
  std::vector<size_t> selection;
  if (config.portfolio) {
    Tracer::Scope span(tr, Step::kGreedy);
    ProbabilityModel prob(config);
    ExplanationSet greedy =
        GreedyBaseline(art->t1, art->t2, mapping, attr, prob);
    greedy.log_probability = prob.Score(art->t1, art->t2, mapping, greedy);
    selection = SelectionOf(mapping, greedy.evidence);
  }

  Explain3DInput input;
  input.t1 = &art->t1;
  input.t2 = &art->t2;
  input.attr = attr;
  input.mapping = std::move(mapping);
  SolverIncumbents warm;
  if (config.warm_start) {
    std::lock_guard<std::mutex> lock(st->incumbents_mu);
    auto it = st->incumbents.find(op.subject);
    if (it != st->incumbents.end()) {
      warm = it->second;
      input.warm_start = &warm;
    }
  }
  SolverIncumbents collected;
  if (config.warm_start) input.incumbents_out = &collected;
  if (config.portfolio) input.greedy_selection = &selection;
  Result<Explain3DResult> solved = Status::OK();
  {
    Tracer::Scope span(tr, Step::kSolve);
    solved = Explain3DSolver(config).Solve(input);
    if (solved.ok()) {
      const SmartPartitionStats& part = solved.value().stats.partition;
      tr->Add(Step::kPrepartition, part.prepartition_seconds);
      tr->Add(Step::kPartition, part.partition_seconds);
    }
  }
  E3D_RETURN_IF_ERROR(solved.status());
  const Explain3DStats& stats = solved.value().stats;
  counts->units = stats.num_subproblems;
  counts->nodes = stats.total_nodes;
  counts->milp_units = stats.milp_solved;
  counts->assignment_units = stats.exact_solved;
  counts->warm_start_hits = stats.warm_start_hits;
  counts->capped = !stats.all_optimal;
  if (collected.complete) {
    std::lock_guard<std::mutex> lock(st->incumbents_mu);
    st->incumbents[op.subject] = std::move(collected);
  }
  *answer = AnswerBytes(solved.value().explanations);
  return Status::OK();
}

/// Self seconds of each step over `spans`.
std::array<double, kSteps> SelfSeconds(const std::vector<Tracer::Span>& spans) {
  std::array<double, kSteps> self{};
  for (const Tracer::Span& s : spans) {
    self[static_cast<size_t>(s.step)] += s.duration - s.children;
  }
  return self;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

Status ReplayLayers(Workload& workload, const RunLog& log, double seconds,
                    Report* report, ReplaySummary* summary) {
  if (log.ops.empty()) {
    return Status::InvalidArgument("no operations to replay");
  }
  ReplayState st;

  // The state the service had when the timed phase began: every
  // subject's content identity, and the warm-up requests answered.
  std::unordered_map<const Database*, uint64_t> hashed;
  for (size_t i = 0; i < workload.subjects().size(); ++i) {
    const Subject& s = workload.subjects()[i];
    for (const Database* db : {s.db1.get(), s.db2.get()}) {
      if (hashed.count(db) == 0) hashed[db] = TimedHash(*db, &st);
    }
    st.identity[i] = storage::ContentTag(hashed[s.db1.get()]) + "|" +
                     storage::ContentTag(hashed[s.db2.get()]);
  }
  // The warm-up runs concurrently, like the service's (stage-1 builds
  // and solves are independent per subject).
  const std::vector<size_t>& warmed = workload.warmed();
  std::vector<Status> warm_status(warmed.size(), Status::OK());
  ParallelFor(std::thread::hardware_concurrency(), warmed.size(),
              [&](size_t i) {
                Op op;
                op.subject = warmed[i];
                Tracer discard;
                OpCounts counts;
                std::string answer;
                warm_status[i] =
                    ReplayOp(workload, op, &st, &discard, &counts, &answer);
              });
  for (const Status& s : warm_status) E3D_RETURN_IF_ERROR(s);

  // The timed operations, in order, until the replay budget is spent.
  std::vector<Tracer::Span> spans;
  std::vector<OpCounts> counts;
  double layers_s = 0, traced_s = 0, untraced_s = 0;
  Clock::time_point start = Clock::now();
  for (size_t i = 0; i < log.ops.size(); ++i) {
    if (i > 0 && SecondsBetween(start, Clock::now()) >= seconds) break;
    const Op& op = log.ops[i];
    Tracer tracer;
    OpCounts c;
    std::string answer;
    double hash_before = st.hash_seconds;
    E3D_RETURN_IF_ERROR(ReplayOp(workload, op, &st, &tracer, &c, &answer));
    if (!workload.gate().Check(op.subject, answer)) ++summary->mismatches;
    // The service's own share: what the client waited beyond the
    // pipeline run (and beyond the registration hash replayed above).
    double service = std::max(0.0, op.latency_s - op.pipeline_s -
                                        (st.hash_seconds - hash_before));
    tracer.Add(Step::kService, service);
    for (const Tracer::Span& s : tracer.spans()) {
      if (s.step == Step::kOp) {
        traced_s += s.duration + service;
      } else {
        layers_s += s.duration - s.children;
      }
    }
    untraced_s += op.latency_s;
    spans.insert(spans.end(), tracer.spans().begin(), tracer.spans().end());
    counts.push_back(c);
  }
  const double n = static_cast<double>(counts.size());
  summary->ops = counts.size();

  std::array<double, kSteps> self = SelfSeconds(spans);
  auto per_op = [&](Step step) { return self[static_cast<size_t>(step)] / n; };
  auto sum_counts = [&](size_t OpCounts::*field) {
    double total = 0;
    for (const OpCounts& c : counts) total += static_cast<double>(c.*field);
    return total;
  };
  const std::string note = "per op, " + std::to_string(counts.size()) +
                           " ops replayed";

  report->Add("relational.execute_s", per_op(Step::kExecute), "s", note);
  report->Add("provenance.derive_s", per_op(Step::kDerive), "s", note);
  report->Add("provenance.canonicalize_s", per_op(Step::kCanonicalize), "s",
              note);
  report->Add("provenance.rows", sum_counts(&OpCounts::provenance_rows) / n,
              "count", "per op, both sides");
  report->Add("matching.intern_s", per_op(Step::kIntern), "s", note);
  report->Add("matching.block_s", per_op(Step::kBlock), "s", note);
  report->Add("matching.candidates", sum_counts(&OpCounts::candidates) / n,
              "count", "per op");
  report->Add("matching.map_s", per_op(Step::kMap), "s", note);
  report->Add("matching.kept_frac",
              Ratio(sum_counts(&OpCounts::matches),
                    sum_counts(&OpCounts::candidates)),
              "ratio", "matches / candidates");
  report->Add("partitioning.partition_s", per_op(Step::kPartition), "s",
              note);
  report->Add("partitioning.prepartition_s", per_op(Step::kPrepartition), "s",
              note);
  report->Add("partitioning.units", sum_counts(&OpCounts::units) / n, "count",
              "per op");
  double solve_self = self[static_cast<size_t>(Step::kSolve)];
  report->Add("solver.solve_s", per_op(Step::kSolve), "s",
              note + ", partitioning excluded");
  report->Add("solver.bnb_nodes", sum_counts(&OpCounts::nodes) / n, "count",
              "per op");
  report->Add("solver.nodes_per_s",
              Ratio(sum_counts(&OpCounts::nodes), solve_self), "1/s",
              "nodes / solver self time");
  report->Add("solver.milp_units", sum_counts(&OpCounts::milp_units) / n,
              "count", "per op");
  report->Add("solver.assignment_units",
              sum_counts(&OpCounts::assignment_units) / n, "count", "per op");
  size_t capped = 0;
  for (const OpCounts& c : counts) capped += c.capped ? 1 : 0;
  report->Add("solver.capped_frac", static_cast<double>(capped) / n, "ratio",
              "solves with a node-capped unit");
  report->Add("solver.warm_start_hits",
              sum_counts(&OpCounts::warm_start_hits) / n, "count", "per op");
  report->Add("greedy.s", per_op(Step::kGreedy), "s", note);

  size_t lookups = log.cache_hits + log.cache_misses;
  report->Add("cache.lookup_s", per_op(Step::kLookup), "s",
              note + ", builds excluded");
  report->Add("cache.hit_frac",
              Ratio(static_cast<double>(log.cache_hits),
                    static_cast<double>(lookups)),
              "ratio", std::to_string(lookups) + " service lookups");
  report->Add("cache.bytes", static_cast<double>(log.after.cache_bytes),
              "bytes", "at the end of the timed phase");
  report->Add("cache.evictions", static_cast<double>(log.cache_evictions),
              "count", "during the timed phase");

  report->Add("storage.content_hash_s",
              Ratio(st.hash_seconds, static_cast<double>(st.hash_calls)), "s",
              "per database, " + std::to_string(st.hash_calls) + " hashed");
  report->Add("storage.snapshot_s", workload.snapshot_s(), "s",
              "SnapshotTo in setup (0 = none)");
  report->Add("storage.restore_s", workload.restore_s(), "s",
              "RestoreFrom in setup (0 = none)");

  const ServiceStats& a = log.after;
  const ServiceStats& b = log.before;
  double submitted = static_cast<double>(a.submitted - b.submitted);
  double completed = static_cast<double>(a.completed - b.completed);
  report->Add("service.self_s", per_op(Step::kService), "s",
              "per op, latency minus pipeline run");
  report->Add("service.queue_p50_s", a.queue_seconds.p50, "s",
              std::to_string(a.queue_seconds.count) + " samples");
  report->Add("service.queue_p90_s", a.queue_seconds.p90, "s",
              std::to_string(a.queue_seconds.count) + " samples");
  report->Add("service.run_p50_s", a.run_seconds.p50, "s",
              std::to_string(a.run_seconds.count) + " samples");
  report->Add("service.coalesced_frac",
              Ratio(static_cast<double>(a.coalesced_hits - b.coalesced_hits),
                    submitted),
              "ratio", "coalesced / submitted");
  report->Add("service.rejected",
              static_cast<double>(a.rejected - b.rejected + a.quota_rejected -
                                  b.quota_rejected),
              "count", "admission + quota");
  report->Add("service.deadline_exceeded",
              static_cast<double>(a.deadline_exceeded - b.deadline_exceeded),
              "count");
  report->Add("service.retries", static_cast<double>(a.retries - b.retries),
              "count");
  report->Add("service.degraded_frac",
              Ratio(static_cast<double>(a.completed_degraded -
                                        b.completed_degraded),
                    completed),
              "ratio", "degraded / completed");

  report->Add("trace.coverage", Ratio(layers_s, untraced_s), "ratio",
              "layer self time / untraced latency, same ops");
  report->Add("trace.overhead", Ratio(traced_s, untraced_s), "ratio",
              "traced / untraced latency, same ops");

  std::map<std::string, double> by_layer;
  for (size_t i = 1; i < kSteps; ++i) {
    by_layer[LayerOf(static_cast<Step>(i))] += self[i];
  }
  summary->top_layer.clear();
  double best = -1;
  for (const auto& [layer, secs] : by_layer) {
    if (secs > best) {
      best = secs;
      summary->top_layer = layer;
    }
  }
  return Status::OK();
}

}  // namespace perfbench
