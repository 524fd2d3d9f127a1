#include "core/pipeline.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "baselines/greedy.h"
#include "common/fault.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/probability_model.h"
#include "provenance/canonical.h"
#include "relational/executor.h"
#include "relational/parser.h"
#include "storage/checksum.h"
#include "storage/content_hash.h"

namespace explain3d {

namespace {

/// The database-pair identity that prefixes the stage-1 cache key.
/// Callers that registered through Explain3DService supply a precomputed
/// content identity in `db_identity`; the low-level pointer path hashes
/// the database CONTENTS here (storage/content_hash.h), so a cache key
/// can never alias a different dataset through a recycled address — and
/// snapshot files restored into a fresh process keep matching. The hash
/// is one O(data) scan per call; warm-serving callers avoid it by
/// passing `db_identity` themselves.
std::string EffectiveDbIdentity(const PipelineInput& input) {
  if (!input.db_identity.empty()) return input.db_identity;
  return storage::ContentIdentity(*input.db1, *input.db2);
}

/// Cache key of the stage-1 front end: the database-pair identity plus
/// every input the artifacts depend on (queries, attribute match,
/// blocking on/off). Thread count is deliberately excluded — artifacts
/// are bit-identical for every value, so resolutions must share entries.
std::string Stage1CacheKey(const PipelineInput& input,
                           const std::string& identity) {
  const AttributeMatch& attr = input.attr_matches.front();
  std::string key = identity + "|";
  // Length-prefix the free-text components: a raw '|' join would let two
  // different (sql1, sql2, attr) tuples concatenate to the same key when
  // the texts themselves contain the delimiter.
  for (const std::string& part :
       {input.sql1, input.sql2, attr.ToString()}) {
    key += std::to_string(part.size()) + ":" + part + "|";
  }
  key += input.mapping_options.use_blocking ? "blocking" : "allpairs";
  return key;
}

/// Warm-start incumbent key: the stage-1 key plus the stage-2 config tag
/// (Stage2ConfigTag — thread count and the warm_start/portfolio switches
/// are deliberately excluded there, so bit-identical runs share
/// records). The key EXTENDS the stage-1 key so identity-prefix
/// retirement (MatchingContext::EraseIf) covers both stores.
std::string IncumbentKey(const std::string& stage1_key,
                         const Explain3DConfig& c) {
  return stage1_key + Stage2ConfigTag(c);
}

/// Maps the greedy baseline's evidence (tuple-index pairs) back to the
/// GLOBAL match ids of the initial mapping, sorted ascending — the shape
/// Explain3DInput::greedy_selection requires.
std::vector<size_t> SelectionFromEvidence(const TupleMapping& mapping,
                                          const TupleMapping& evidence) {
  std::unordered_map<uint64_t, size_t> id_of;
  id_of.reserve(mapping.size());
  auto pack = [](const TupleMatch& m) {
    return (static_cast<uint64_t>(m.t1) << 32) | static_cast<uint64_t>(m.t2);
  };
  for (size_t i = 0; i < mapping.size(); ++i) id_of[pack(mapping[i])] = i;
  std::vector<size_t> selection;
  selection.reserve(evidence.size());
  for (const TupleMatch& ev : evidence) {
    auto it = id_of.find(pack(ev));
    if (it != id_of.end()) selection.push_back(it->second);
  }
  std::sort(selection.begin(), selection.end());
  return selection;
}

/// Runs the cacheable stage-1 front end: execute, derive provenance,
/// canonicalize, intern, and block. Everything downstream (calibration,
/// scoring, stage 2) depends on per-call options and stays live.
Result<std::shared_ptr<Stage1Artifacts>> BuildStage1Artifacts(
    const PipelineInput& input, size_t num_threads) {
  // Built in place and never moved: i1/i2 reference t1/t2/dict inside the
  // same heap object (see Stage1Artifacts).
  auto art = std::make_shared<Stage1Artifacts>();

  // Cancellation points bracket every O(data) step: a token that fires
  // mid-build fails the builder, so a PARTIAL block can never be
  // inserted into the MatchingContext cache. The FAULT_POINTs are the
  // deterministic fault-injection probes (common/fault.h) — unarmed in
  // production, they let the stress suite exercise these failure paths.
  E3D_RETURN_IF_ERROR(CheckCancel(input.cancel));
  E3D_RETURN_IF_ERROR(FAULT_POINT("stage1.execute"));
  E3D_ASSIGN_OR_RETURN(SelectStmtPtr stmt1, ParseSql(input.sql1));
  E3D_ASSIGN_OR_RETURN(SelectStmtPtr stmt2, ParseSql(input.sql2));

  Executor exec1(input.db1);
  Executor exec2(input.db2);
  E3D_ASSIGN_OR_RETURN(art->answer1, exec1.ExecuteScalar(*stmt1));
  E3D_ASSIGN_OR_RETURN(art->answer2, exec2.ExecuteScalar(*stmt2));

  E3D_RETURN_IF_ERROR(CheckCancel(input.cancel));
  E3D_RETURN_IF_ERROR(FAULT_POINT("stage1.provenance"));
  E3D_ASSIGN_OR_RETURN(art->p1, DeriveProvenance(*input.db1, *stmt1));
  E3D_ASSIGN_OR_RETURN(art->p2, DeriveProvenance(*input.db2, *stmt2));

  const AttributeMatch& attr = input.attr_matches.front();
  E3D_RETURN_IF_ERROR(
      attr.ValidateAgainst(art->p1.table.schema(), art->p2.table.schema()));

  E3D_ASSIGN_OR_RETURN(art->t1, Canonicalize(art->p1, attr.attrs1));
  E3D_ASSIGN_OR_RETURN(art->t2, Canonicalize(art->p2, attr.attrs2));

  E3D_RETURN_IF_ERROR(CheckCancel(input.cancel));
  E3D_RETURN_IF_ERROR(FAULT_POINT("stage1.intern"));
  bool need_bags = NeedsKeyBags(art->t1, art->t2);
  art->i1 = std::make_unique<InternedRelation>(art->t1, &art->dict,
                                               need_bags);
  art->i2 = std::make_unique<InternedRelation>(art->t2, &art->dict,
                                               need_bags);

  E3D_RETURN_IF_ERROR(CheckCancel(input.cancel));
  E3D_RETURN_IF_ERROR(FAULT_POINT("stage1.block"));
  art->candidates =
      input.mapping_options.use_blocking
          ? GenerateCandidates(*art->i1, *art->i2, num_threads,
                               input.cancel)
          : AllPairs(art->t1.size(), art->t2.size());
  // Final point: the blocking loops above bail early on a fired token
  // and hand back a truncated candidate list — this check turns that
  // into a builder failure so the partial list is never cached.
  E3D_RETURN_IF_ERROR(CheckCancel(input.cancel));
  return art;
}

}  // namespace

Result<PipelineResult> RunExplain3D(const PipelineInput& input,
                                    const Explain3DConfig& config) {
  if (input.db1 == nullptr || input.db2 == nullptr) {
    return Status::InvalidArgument("both databases must be provided");
  }
  if (!AreComparable(input.attr_matches)) {
    return Status::InvalidArgument(
        "queries are not comparable: M_attr is empty (Definition 2.2); "
        "explanations would require external information");
  }

  PipelineResult out;
  Timer total_timer;
  Timer stage1_timer;

  // --- Stage 1: provenance, canonicalization, initial mapping -----------
  // One num_threads knob drives both stages: the config value flows into
  // the matcher here (outputs stay bit-identical across thread counts).
  size_t threads = ResolveThreads(config.num_threads);

  // Both paths end with the SAME shared block owned by the result (and,
  // when caching, by the context's cache entry): nothing is copied out of
  // the artifacts, warm or cold — the last O(data) per-call cost.
  // Computed once per call (the identity hash may scan the data) and
  // shared between the artifact lookup and the incumbent key below.
  std::string stage1_key;
  if (input.matching_context != nullptr) {
    stage1_key = Stage1CacheKey(input, EffectiveDbIdentity(input));
    E3D_ASSIGN_OR_RETURN(
        out.artifacts_,
        input.matching_context->GetOrBuild(
            stage1_key, [&]() -> Result<ArtifactsPtr> {
              E3D_ASSIGN_OR_RETURN(std::shared_ptr<Stage1Artifacts> b,
                                   BuildStage1Artifacts(input, threads));
              return ArtifactsPtr(std::move(b));
            }));
  } else {
    E3D_ASSIGN_OR_RETURN(std::shared_ptr<Stage1Artifacts> built,
                         BuildStage1Artifacts(input, threads));
    out.artifacts_ = std::move(built);
  }
  const Stage1Artifacts& art = *out.artifacts_;

  const AttributeMatch& attr = input.attr_matches.front();
  GoldPairs calibration =
      input.calibration_oracle
          ? input.calibration_oracle(art.t1, art.t2, art.p1.table,
                                     art.p2.table)
          : input.calibration_gold;
  // Post-cache cancellation point: the artifacts above are COMPLETE (and
  // legitimately cached — an identical retry warms off them); only the
  // per-call remainder is abandoned here.
  E3D_RETURN_IF_ERROR(CheckCancel(input.cancel));
  MappingGenOptions mapping_options = input.mapping_options;
  mapping_options.num_threads = threads;
  // Push the token into the scoring/calibration inner loops too — the
  // per-pair strided polls bound stage-1 cancel latency by a loop stride
  // instead of a whole O(candidates) build step.
  mapping_options.cancel = input.cancel;
  E3D_ASSIGN_OR_RETURN(
      out.initial_mapping_,
      GenerateInitialMapping(*art.i1, *art.i2, art.candidates, calibration,
                             mapping_options));
  out.stage1_seconds_ = stage1_timer.Seconds();

  // --- Stage 2: optimal explanations -------------------------------------
  E3D_RETURN_IF_ERROR(CheckCancel(input.cancel));
  Timer stage2_timer;
  Explain3DInput core_input;
  core_input.t1 = &art.t1;
  core_input.t2 = &art.t2;
  core_input.attr = attr;
  core_input.mapping = out.initial_mapping_;
  core_input.cancel = input.cancel;

  // Warm-start incumbent store (ROADMAP 2): consult the context's record
  // of a previous identical solve, and collect this solve's optima for
  // recording. The shared_ptr keeps a concurrently-evicted record alive
  // for the whole call.
  std::string incumbent_key;
  IncumbentsPtr warm_record;
  SolverIncumbents collected;
  const bool use_store =
      input.matching_context != nullptr && config.warm_start;
  if (use_store) {
    incumbent_key = IncumbentKey(stage1_key, config);
    warm_record = input.matching_context->GetIncumbents(incumbent_key);
    if (warm_record != nullptr) core_input.warm_start = warm_record.get();
    core_input.incumbents_out = &collected;
  }

  // The stage-2 budget: what remains of the caller's token deadline
  // chain; infinite without one.
  double budget = std::numeric_limits<double>::infinity();
  if (input.cancel != nullptr) {
    budget = input.cancel->RemainingSeconds();
  }

  if (config.portfolio) {
    // Portfolio race, greedy leg FIRST (deterministically — never
    // concurrently with the exact leg, so the race cannot perturb
    // results): the fallback answer already exists when the exact solve
    // starts, and its per-unit scores seed the exact search as live
    // prune-only floors.
    Timer fallback_timer;
    ProbabilityModel prob(config);
    ExplanationSet greedy =
        GreedyBaseline(art.t1, art.t2, out.initial_mapping_, attr, prob);
    greedy.log_probability =
        prob.Score(art.t1, art.t2, out.initial_mapping_, greedy);
    double fallback_seconds = fallback_timer.Seconds();
    std::vector<size_t> selection =
        SelectionFromEvidence(out.initial_mapping_, greedy.evidence);

    // The exact leg gets nearly the whole budget — only a thin reserve
    // is shaved off so its child deadline normally fires BEFORE the
    // caller's and the greedy answer is returned inside the budget.
    Result<Explain3DResult> exact = Status::DeadlineExceeded(
        "stage-2 budget consumed before the exact solve started");
    double incumbent_bound = std::numeric_limits<double>::quiet_NaN();
    double reserved = std::isfinite(budget) ? budget * 0.02 : 0;
    Explain3DInput exact_input = core_input;
    exact_input.greedy_selection = &selection;
    exact_input.incumbent_bound_out = &incumbent_bound;
    std::optional<CancelToken> exact_token;
    Timer exact_timer;
    if (std::isfinite(budget)) {
      double exact_budget = budget - reserved;
      if (exact_budget > 0) {
        exact_token.emplace(exact_budget, input.cancel);
        exact_input.cancel = &*exact_token;
        exact = Explain3DSolver(config).Solve(exact_input);
      }
    } else {
      exact = Explain3DSolver(config).Solve(exact_input);
    }
    double exact_seconds = exact_timer.Seconds();

    if (exact.ok()) {
      // In-budget exact finish: bit-identical to a strict run (the
      // greedy floor sits provably below the optimum).
      out.core_ = std::move(exact).value();
    } else {
      // Fault probe: stalls the exact leg's unwinding until the caller's
      // own deadline has passed — the slow-unwind race the reserve
      // cannot always cover on a loaded machine.
      if (FAULT_FIRED("portfolio.unwind") && input.cancel != nullptr &&
          std::isfinite(budget)) {
        while (input.cancel->RemainingSeconds() > 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
      // Degrade on a deadline — the child budget's, or the caller's own
      // when unwinding outlasted the reserve: the greedy answer is
      // ready either way. A caller's cancel, or any other failure,
      // propagates.
      Status caller = CheckCancel(input.cancel);
      if (!caller.ok() && caller.code() != StatusCode::kDeadlineExceeded) {
        return caller;
      }
      if (exact.status().code() != StatusCode::kDeadlineExceeded) {
        return exact.status();
      }
      out.core_ = Explain3DResult();
      out.core_.explanations = std::move(greedy);
      out.core_.stats.all_optimal = false;
      out.core_.stats.solve_seconds = stage2_timer.Seconds();
      DegradationInfo& deg = out.degradation_;
      deg.degraded = true;
      deg.solver = DegradationInfo::Solver::kGreedyPortfolio;
      deg.interrupt_code = exact.status().code();
      deg.budget_seconds = budget;
      deg.reserved_seconds = reserved;
      deg.exact_seconds = exact_seconds;
      deg.fallback_seconds = fallback_seconds;
      deg.objective = out.core_.explanations.log_probability;
      deg.incumbent_bound = incumbent_bound;
    }
  } else {
    // Strict semantics: an interrupted solve fails the call with the
    // token's Status.
    Explain3DSolver solver(config);
    E3D_ASSIGN_OR_RETURN(out.core_, solver.Solve(core_input));
  }
  out.stage2_seconds_ = stage2_timer.Seconds();

  // Record this solve's incumbents for the next identical request. Only
  // a fully-optimal, non-degraded run produced a complete record (the
  // solver leaves `complete` false otherwise), and PutIncumbents ignores
  // incomplete ones — belt and suspenders.
  if (use_store && collected.complete && !out.degradation_.degraded) {
    input.matching_context->PutIncumbents(incumbent_key,
                                          std::move(collected));
  }

  out.total_seconds_ = total_timer.Seconds();
  return out;
}

std::string Stage2ConfigTag(const Explain3DConfig& c) {
  return StrFormat("|s2:a%.17g|b%.17g|bs%zu|tl%.17g|th%.17g|r%.17g|pp%d|"
                   "dc%d|sd%llu|mc%zu|mn%zu|en%zu",
                   c.alpha, c.beta, c.batch_size, c.theta_low, c.theta_high,
                   c.reward, c.use_pre_partitioning ? 1 : 0,
                   c.decompose_components ? 1 : 0,
                   static_cast<unsigned long long>(c.seed),
                   c.milp_max_constraints, c.milp_max_nodes,
                   c.exact_max_nodes);
}

std::string RequestResultKey(const std::string& db_identity,
                             const std::string& sql1, const std::string& sql2,
                             const AttributeMatches& attr_matches,
                             const MappingGenOptions& mapping,
                             const GoldPairs& gold,
                             const Explain3DConfig& config) {
  // Same shape as Stage1CacheKey (identity + length-prefixed free text +
  // blocking switch) so the identity-prefix convention carries over, then
  // every remaining result-affecting knob. An empty attribute match is
  // keyed as empty text: such requests fail identically (InvalidArgument
  // at comparability), so sharing that failure is correct.
  const std::string attr_text =
      attr_matches.empty() ? std::string() : attr_matches.front().ToString();
  std::string key = db_identity + "|";
  for (const std::string& part : {sql1, sql2, attr_text}) {
    key += std::to_string(part.size()) + ":" + part + "|";
  }
  key += mapping.use_blocking ? "blocking" : "allpairs";
  key += StrFormat(
      "|m:e%d|cb%zu|lf%.17g|mp%.17g|sf%.17g|xp%.17g|sd%llu",
      static_cast<int>(mapping.metric), mapping.calibration_buckets,
      mapping.label_fraction, mapping.min_probability, mapping.score_floor,
      mapping.max_probability,
      static_cast<unsigned long long>(mapping.seed));
  // Gold labels participate hashed: the sets can be O(rows) large, and
  // the key only has to separate different label sets, not list them.
  std::vector<uint64_t> packed;
  packed.reserve(gold.size() * 2);
  for (const auto& [a, b] : gold) {
    packed.push_back(static_cast<uint64_t>(a));
    packed.push_back(static_cast<uint64_t>(b));
  }
  key += StrFormat(
      "|g:%zu:%016llx", gold.size(),
      static_cast<unsigned long long>(storage::Checksum64(
          packed.data(), packed.size() * sizeof(uint64_t))));
  key += Stage2ConfigTag(config);
  // The warm-start and portfolio switches are excluded from the
  // incumbent tag (incumbents only record fully-optimal runs), but the
  // portfolio switch DOES shape what a budgeted run returns. Coalescing
  // errs conservative: a knob that could matter splits keys.
  key += StrFormat("|ws%d|pf%d", config.warm_start ? 1 : 0,
                   config.portfolio ? 1 : 0);
  return key;
}

}  // namespace explain3d
