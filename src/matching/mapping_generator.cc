#include "matching/mapping_generator.h"

#include <algorithm>
#include <atomic>

#include "common/rng.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "matching/token_interning.h"
#include "simd/dispatch.h"
#include "simd/levenshtein.h"

namespace explain3d {

namespace {

/// Cooperative bail-out inside ParallelFor bodies (the twin of the
/// blocking.cc helper): one worker per stride polls the clock, the rest
/// read a relaxed flag. Truncated output must be discarded by the caller
/// after polling the token.
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

/// ToLower of every string cell, indexed by flat cell id — the
/// Levenshtein metric compares lowered text, and the batched path lowers
/// each T2 cell once per call instead of once per pair.
std::vector<std::string> LowerStringCells(const InternedRelation& r,
                                          size_t num_threads) {
  std::vector<std::string> low(r.num_cells());
  ParallelFor(num_threads, r.size(), [&](size_t i) {
    const Row& key = r.relation().tuples[i].key;
    size_t cell = r.cell_index(i, 0);
    for (size_t a = 0; a < key.size(); ++a, ++cell) {
      if (r.cell_kind(cell) == InternedRelation::CellKind::kString) {
        low[cell] = ToLower(key[a].AsString());
      }
    }
  });
  return low;
}

/// Levenshtein scoring over the columnar layout with the batched DP
/// kernel (src/simd/levenshtein.h). Candidate pairs arrive i-major from
/// blocking, so each contiguous run shares its T1 tuple: within a run,
/// attribute a compares ONE lowered query cell against many lowered T2
/// cells — exactly the kernel's lane shape. Every short-circuit of the
/// scalar path is replayed per pair in the same order (NULL/numeric/mixed
/// branches from the cell caches, the a==b and length-cap exits, the
/// running per-attribute floor of RowSimilarity), and the batched DP
/// returns the same exact integers the scalar DP does, so the scores are
/// bit-identical to the per-pair KeySimilarity loop.
std::vector<double> ScoreLevenshteinBatched(
    const InternedRelation& i1, const InternedRelation& i2,
    const CandidatePairs& pairs, size_t num_threads, double min_sim,
    const CancelToken* cancel, simd::IsaTier tier) {
  using CellKind = InternedRelation::CellKind;
  const CanonicalRelation& t1 = i1.relation();
  const CanonicalRelation& t2 = i2.relation();
  std::vector<double> sim(pairs.size());

  // Contiguous same-i runs (a non-i-major pair list still scores
  // correctly, just in smaller batches).
  std::vector<std::pair<size_t, size_t>> groups;
  for (size_t k = 0; k < pairs.size();) {
    size_t e = k + 1;
    while (e < pairs.size() && pairs[e].first == pairs[k].first) ++e;
    groups.emplace_back(k, e);
    k = e;
  }
  std::vector<std::string> low2 = LowerStringCells(i2, num_threads);

  std::atomic<bool> stop{false};
  ParallelFor(num_threads, groups.size(), [&](size_t g) {
    if (LoopCancelled(cancel, g, &stop)) return;
    const size_t s = groups[g].first;
    const size_t e = groups[g].second;
    const size_t i = pairs[s].first;
    const size_t arity = i1.arity(i);
    std::vector<std::string> qlow(arity);
    for (size_t a = 0; a < arity; ++a) {
      if (i1.cell_kind(i1.cell_index(i, a)) == CellKind::kString) {
        qlow[a] = ToLower(t1.tuples[i].key[a].AsString());
      }
    }
    const size_t m = e - s;
    std::vector<double> totals(m, 0.0);
    std::vector<uint8_t> handled(m, 0);
    for (size_t p = 0; p < m; ++p) {
      size_t j = pairs[s + p].second;
      if (i2.arity(j) != arity) {
        // Different-arity keys take KeySimilarity's token-bag fallback —
        // no DP in that path, nothing to batch.
        sim[s + p] = KeySimilarity(t1.tuples[i].key, t2.tuples[j].key,
                                   StringMetric::kLevenshtein, min_sim);
        handled[p] = 1;
      } else if (arity == 0) {
        sim[s + p] = 0.0;  // RowSimilarity of empty keys
        handled[p] = 1;
      }
    }
    const double kd = static_cast<double>(arity);
    std::vector<const char*> ptrs;
    std::vector<size_t> lens, slots;
    std::vector<uint32_t> dists;
    for (size_t a = 0; a < arity; ++a) {
      ptrs.clear();
      lens.clear();
      slots.clear();
      const size_t qcell = i1.cell_index(i, a);
      const CellKind qk = i1.cell_kind(qcell);
      const std::string& q = qlow[a];
      const double remaining = kd - 1.0 - static_cast<double>(a);
      for (size_t p = 0; p < m; ++p) {
        if (handled[p]) continue;
        const size_t j = pairs[s + p].second;
        const size_t ccell = i2.cell_index(j, a);
        const CellKind ck = i2.cell_kind(ccell);
        const double attr_floor =
            min_sim > 0 ? min_sim * kd - totals[p] - remaining : 0.0;
        if (qk == CellKind::kNull && ck == CellKind::kNull) {
          totals[p] += 1.0;
        } else if (qk == CellKind::kNull || ck == CellKind::kNull) {
          // similarity 0
        } else if (qk == CellKind::kNumeric && ck == CellKind::kNumeric) {
          totals[p] += NumericSimilarity(i1.cell_numeric(qcell),
                                         i2.cell_numeric(ccell));
        } else if (qk == CellKind::kString && ck == CellKind::kString) {
          const std::string& c = low2[ccell];
          if (q == c) {
            totals[p] += 1.0;
            continue;
          }
          size_t la = q.size(), lb = c.size();
          size_t len_diff = la > lb ? la - lb : lb - la;
          double sim_cap = 1.0 - static_cast<double>(len_diff) /
                                     static_cast<double>(std::max(la, lb));
          if (sim_cap < attr_floor) {
            totals[p] += sim_cap;  // provably below the floor; dropped later
          } else {
            ptrs.push_back(c.data());
            lens.push_back(c.size());
            slots.push_back(p);
          }
        } else if (i1.cell_coercible(qcell) && i2.cell_coercible(ccell)) {
          // Mixed numeric-vs-string type drift, from the cached verdicts.
          totals[p] += NumericSimilarity(i1.cell_numeric(qcell),
                                         i2.cell_numeric(ccell));
        }
      }
      if (!ptrs.empty()) {
        dists.resize(ptrs.size());
        simd::LevenshteinBatchTier(tier, q.data(), q.size(), ptrs.data(),
                                   lens.data(), ptrs.size(), dists.data());
        for (size_t b = 0; b < slots.size(); ++b) {
          size_t la = q.size(), lb = lens[b];
          totals[slots[b]] += 1.0 - static_cast<double>(dists[b]) /
                                        static_cast<double>(std::max(la, lb));
        }
      }
    }
    for (size_t p = 0; p < m; ++p) {
      if (!handled[p]) sim[s + p] = totals[p] / kd;
    }
  });
  return sim;
}

}  // namespace

std::vector<double> ScoreCandidates(const InternedRelation& i1,
                                    const InternedRelation& i2,
                                    const CandidatePairs& pairs,
                                    StringMetric metric, size_t num_threads,
                                    double score_floor,
                                    const CancelToken* cancel) {
  // Each pair's similarity is independent; slot k only writes sim[k], so
  // the scores are bit-identical for any thread count.
  const CanonicalRelation& t1 = i1.relation();
  const CanonicalRelation& t2 = i2.relation();
  size_t threads = ResolveThreads(num_threads);
  if (metric == StringMetric::kLevenshtein &&
      simd::ActiveTier() != simd::IsaTier::kScalar) {
    return ScoreLevenshteinBatched(i1, i2, pairs, threads, score_floor,
                                   cancel, simd::ActiveTier());
  }
  std::vector<double> sim(pairs.size());
  std::atomic<bool> stop{false};
  // Score in blocks of kLoopCancelStride pairs: the per-pair work on the
  // interned path is a few dozen nanoseconds, so the per-index dispatch of
  // ParallelFor (a std::function call) and the cancel poll are amortized
  // over the block. Slot k still only writes sim[k] — scores stay
  // bit-identical for any thread count.
  const size_t n_blocks =
      (pairs.size() + kLoopCancelStride - 1) / kLoopCancelStride;
  ParallelFor(threads, n_blocks, [&](size_t blk) {
    size_t begin = blk * kLoopCancelStride;
    size_t end = std::min(begin + kLoopCancelStride, pairs.size());
    if (LoopCancelled(cancel, begin, &stop)) return;
    if (metric == StringMetric::kJaccard) {
      for (size_t k = begin; k < end; ++k) {
        const auto& [i, j] = pairs[k];
        sim[k] = InternedKeySimilarity(i1, i, i2, j);
      }
    } else {
      for (size_t k = begin; k < end; ++k) {
        const auto& [i, j] = pairs[k];
        sim[k] = KeySimilarity(t1.tuples[i].key, t2.tuples[j].key, metric,
                               score_floor);
      }
    }
  });
  return sim;
}

Result<TupleMapping> GenerateInitialMapping(const InternedRelation& i1,
                                            const InternedRelation& i2,
                                            const CandidatePairs& pairs,
                                            const GoldPairs& gold,
                                            const MappingGenOptions& opts) {
  // Pairwise combined similarity (KeySimilarity also handles attribute
  // sets of different arity, e.g. (firstname, lastname) vs (name)). The
  // Jaccard metric runs entirely on interned token ids; the character
  // metrics (Jaro, Levenshtein) still need the strings.
  std::vector<double> sim = ScoreCandidates(i1, i2, pairs, opts.metric,
                                            opts.num_threads,
                                            opts.score_floor, opts.cancel);
  // A fired token truncates the scoring loop; fail here before any of
  // the partial scores can reach the calibrator or the mapping.
  E3D_RETURN_IF_ERROR(CheckCancel(opts.cancel));

  // With a similarity floor, sub-floor candidates are dropped BEFORE
  // calibration — the calibrator only ever sees (and samples from) pairs
  // that can survive, and the early-exited upper-bound scores of dropped
  // pairs never reach it.
  CandidatePairs kept_pairs;
  std::vector<double> kept_sim;
  const CandidatePairs* use_pairs = &pairs;
  if (opts.score_floor > 0) {
    kept_pairs.reserve(pairs.size());
    kept_sim.reserve(pairs.size());
    for (size_t k = 0; k < pairs.size(); ++k) {
      if (sim[k] >= opts.score_floor) {
        kept_pairs.push_back(pairs[k]);
        kept_sim.push_back(sim[k]);
      }
    }
    use_pairs = &kept_pairs;
    sim = std::move(kept_sim);
  }
  const CandidatePairs& cand = *use_pairs;

  TupleMapping mapping;
  mapping.reserve(cand.size());

  if (gold.empty()) {
    // No labels: similarity doubles as probability.
    for (size_t k = 0; k < cand.size(); ++k) {
      mapping.emplace_back(cand[k].first, cand[k].second, sim[k]);
    }
  } else {
    // Calibrate on a labeled sample, then score every candidate. The
    // sample draw hashes (seed, pair index) with the counter-based RNG,
    // so pair k's inclusion and gold lookup are independent of every
    // other pair: the draw parallelizes over the shared pool and stays
    // bit-identical for any thread count. Only the cheap bucket
    // accumulation runs serially, in pair order.
    SimilarityCalibrator calib(opts.calibration_buckets);
    // 0 = not sampled, 1 = sampled true label, 2 = sampled false label.
    std::vector<uint8_t> label(cand.size());
    std::atomic<bool> stop{false};
    ParallelFor(ResolveThreads(opts.num_threads), cand.size(),
                [&](size_t k) {
                  if (LoopCancelled(opts.cancel, k, &stop)) return;
                  if (!CounterBernoulli(opts.seed, k, opts.label_fraction)) {
                    label[k] = 0;
                  } else {
                    label[k] = gold.count(cand[k]) > 0 ? 1 : 2;
                  }
                });
    E3D_RETURN_IF_ERROR(CheckCancel(opts.cancel));
    for (size_t k = 0; k < cand.size(); ++k) {
      if (label[k] != 0) calib.AddSample(sim[k], label[k] == 1);
    }
    if (calib.num_samples() == 0) {
      // Degenerate sample draw; label everything instead.
      for (size_t k = 0; k < cand.size(); ++k) {
        calib.AddSample(sim[k], gold.count(cand[k]) > 0);
      }
    }
    E3D_RETURN_IF_ERROR(calib.Fit());
    for (size_t k = 0; k < cand.size(); ++k) {
      mapping.emplace_back(cand[k].first, cand[k].second,
                           calib.Probability(sim[k]));
    }
  }

  mapping = PruneAndClamp(mapping, opts.min_probability,
                          opts.max_probability);
  SortMapping(&mapping);
  return mapping;
}

Result<TupleMapping> GenerateInitialMapping(const CanonicalRelation& t1,
                                            const CanonicalRelation& t2,
                                            const GoldPairs& gold,
                                            const MappingGenOptions& opts) {
  // Tokenize every tuple key exactly once; blocking and candidate scoring
  // both run over the cached columnar token-id arrays. Whole-key token
  // bags are only needed when some pair can hit KeySimilarity's
  // different-arity fallback.
  size_t threads = ResolveThreads(opts.num_threads);
  bool need_bags = NeedsKeyBags(t1, t2);
  TokenDictionary dict;
  InternedRelation interned1(t1, &dict, need_bags);
  InternedRelation interned2(t2, &dict, need_bags);

  CandidatePairs pairs =
      opts.use_blocking
          ? GenerateCandidates(interned1, interned2, threads, opts.cancel)
          : AllPairs(t1.size(), t2.size());
  E3D_RETURN_IF_ERROR(CheckCancel(opts.cancel));

  return GenerateInitialMapping(interned1, interned2, pairs, gold, opts);
}

}  // namespace explain3d
