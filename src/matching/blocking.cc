#include "matching/blocking.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <string>
#include <unordered_map>

#include "common/logging.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "matching/similarity.h"
#include "matching/token_interning.h"

namespace explain3d {

CandidatePairs AllPairs(size_t n1, size_t n2) {
  CandidatePairs out;
  // Cap the up-front reservation: n1 * n2 can overflow size_t or request
  // an absurd allocation long before a single pair is produced. AllPairs
  // stays quadratic by design (tests / small inputs only — see header);
  // large inputs simply grow the vector geometrically past the cap.
  constexpr size_t kReserveCap = size_t{1} << 20;
  size_t want = (n2 != 0 && n1 > kReserveCap / n2) ? kReserveCap : n1 * n2;
  out.reserve(want);
  for (size_t i = 0; i < n1; ++i) {
    for (size_t j = 0; j < n2; ++j) out.emplace_back(i, j);
  }
  return out;
}

namespace {

/// Cooperative bail-out inside ParallelFor bodies: polls the token once
/// per kCancelStride indices and flips the shared stop flag so EVERY
/// worker skips its remaining iterations (one poller suffices — the
/// clock read is amortized, the flag is one relaxed load for the rest).
/// The loop's output is truncated when this returns true; callers must
/// poll the token after the loop and discard the partial result.
constexpr size_t kLoopCancelStride = 512;
inline bool LoopCancelled(const CancelToken* cancel, size_t index,
                          std::atomic<bool>* stop) {
  if (stop->load(std::memory_order_relaxed)) return true;
  if (cancel != nullptr && index % kLoopCancelStride == 0 &&
      !cancel->Check().ok()) {
    stop->store(true, std::memory_order_relaxed);
    return true;
  }
  return false;
}

}  // namespace

CandidatePairs GenerateCandidates(const InternedRelation& t1,
                                  const InternedRelation& t2,
                                  size_t num_threads,
                                  const CancelToken* cancel) {
  // Ids only align within one dictionary; a mismatch would index the
  // postings array out of bounds.
  E3D_CHECK(&t1.dict() == &t2.dict());
  std::atomic<bool> stop{false};

  // CSR postings over T2's per-tuple key-union token ids (cached at
  // intern time — no per-call tokenset unions left): count per token,
  // prefix-sum, then fill in ascending j order, so every posting slice is
  // ascending and identical to the per-token vectors the old layout
  // built. The numeric-bucket index keys on the CACHED CoerceNumeric
  // verdict and double: a numeric-looking string ("123") must land in the
  // same bucket as the number 123, or type drift between the databases
  // hides the pair from blocking entirely and the ValueSimilarity
  // coercion never gets to score it. Such strings still post their
  // tokens too.
  const size_t dict_size = t1.dict().size();
  std::vector<uint32_t> posting_starts(dict_size + 1, 0);
  std::unordered_map<int64_t, std::vector<uint32_t>> bucket_index;
  for (size_t j = 0; j < t2.size(); ++j) {
    if (cancel != nullptr && j % kLoopCancelStride == 0 &&
        !cancel->Check().ok()) {
      return {};
    }
    size_t cell = t2.cell_index(j, 0);
    for (size_t a = 0; a < t2.arity(j); ++a, ++cell) {
      if (t2.cell_coercible(cell)) {
        int64_t b = static_cast<int64_t>(std::floor(t2.cell_numeric(cell)));
        bucket_index[b].push_back(static_cast<uint32_t>(j));
      }
    }
    for (uint32_t id : t2.key_ids(j)) ++posting_starts[id + 1];
  }
  for (size_t id = 0; id < dict_size; ++id) {
    posting_starts[id + 1] += posting_starts[id];
  }
  std::vector<uint32_t> posting_tuples(posting_starts[dict_size]);
  {
    std::vector<uint32_t> cursor(posting_starts.begin(),
                                 posting_starts.end() - 1);
    for (size_t j = 0; j < t2.size(); ++j) {
      for (uint32_t id : t2.key_ids(j)) {
        posting_tuples[cursor[id]++] = static_cast<uint32_t>(j);
      }
    }
  }
  auto posting = [&](uint32_t id) {
    return Span<const uint32_t>(posting_tuples.data() + posting_starts[id],
                                posting_starts[id + 1] - posting_starts[id]);
  };

  // Stop-token cutoff: tokens hitting a large fraction of T2 (genders,
  // degree types, the word "of") would create quadratic candidate sets
  // without carrying matching signal.
  size_t df_cutoff = std::max<size_t>(50, t2.size() / 10 + 1);

  // Probe per T1 tuple into a per-tuple slot, then flatten in i order —
  // the same sorted, deduplicated output as a serial probe loop.
  std::vector<std::vector<size_t>> cand(t1.size());
  ParallelFor(num_threads, t1.size(), [&](size_t i) {
    if (LoopCancelled(cancel, i, &stop)) return;
    std::vector<size_t>& hits = cand[i];
    size_t cell = t1.cell_index(i, 0);
    for (size_t a = 0; a < t1.arity(i); ++a, ++cell) {
      if (t1.cell_coercible(cell)) {
        int64_t b = static_cast<int64_t>(std::floor(t1.cell_numeric(cell)));
        for (int64_t nb = b - 1; nb <= b + 1; ++nb) {
          auto it = bucket_index.find(nb);
          if (it == bucket_index.end()) continue;
          hits.insert(hits.end(), it->second.begin(), it->second.end());
        }
      }
    }
    Span<const uint32_t> ids = t1.key_ids(i);
    for (uint32_t id : ids) {
      Span<const uint32_t> post = posting(id);
      if (post.empty()) continue;
      if (post.size() > df_cutoff) continue;  // stop token
      hits.insert(hits.end(), post.begin(), post.end());
    }
    if (hits.empty()) {
      // Every token was a stop token (or absent from T2) and no numeric
      // bucket collided. Skipping the tuple entirely would drop it from
      // the mapping — a recall bug the explanation semantics cannot
      // tolerate (an unmatched tuple is evidence, a missing one is
      // silent). Fall back to the lowest-document-frequency token's
      // posting (first in sorted id order on ties), the cheapest signal
      // the index still has for this tuple. The copy is capped at
      // df_cutoff entries: a constant placeholder key ("unknown" on both
      // sides) would otherwise hand every such tuple a ~|T2| posting and
      // reintroduce the quadratic blowup the cutoff exists to prevent.
      Span<const uint32_t> best;
      for (uint32_t id : ids) {
        Span<const uint32_t> post = posting(id);
        if (post.empty()) continue;
        if (best.empty() || post.size() < best.size()) best = post;
      }
      if (!best.empty()) {
        size_t take = std::min(best.size(), df_cutoff);
        hits.assign(best.begin(), best.begin() + take);
      }
    }
    std::sort(hits.begin(), hits.end());
    hits.erase(std::unique(hits.begin(), hits.end()), hits.end());
  });

  if (stop.load(std::memory_order_relaxed)) return {};

  size_t total = 0;
  for (const std::vector<size_t>& hits : cand) total += hits.size();
  CandidatePairs out;
  out.reserve(total);
  for (size_t i = 0; i < cand.size(); ++i) {
    for (size_t j : cand[i]) out.emplace_back(i, j);
  }
  return out;
}

CandidatePairs GenerateCandidates(const CanonicalRelation& t1,
                                  const CanonicalRelation& t2,
                                  size_t num_threads,
                                  const CancelToken* cancel) {
  TokenDictionary dict;
  // Blocking never reads the whole-key bags.
  InternedRelation i1(t1, &dict, /*with_bags=*/false);
  InternedRelation i2(t2, &dict, /*with_bags=*/false);
  return GenerateCandidates(i1, i2, num_threads, cancel);
}

}  // namespace explain3d
