// Token interning for the matching pipeline — columnar layout.
//
// Blocking and candidate scoring both operate on the word tokens of the
// canonical keys. Tokenizing, sorting, and string-comparing per candidate
// pair makes the matching stage O(candidates × tokenization). Interning
// maps every distinct token to a dense uint32 id ONCE per relation; each
// tuple's sorted-unique token-id sets are cached so pair scoring becomes a
// uint32 merge-intersection (JaccardOfTokenIds, similarity.h) and blocking
// posts token ids instead of strings.
//
// The cached sets live in CSR-style flat arrays, not per-tuple vectors:
// one contiguous token-id array per relation plus offset arrays
// (per-cell, per-tuple-bag, per-tuple-key-union). Consumers read
// Span<const uint32_t> views straight into the flat storage — no pointer
// chasing, and the SIMD intersection kernels (src/simd/) get dense
// aligned-friendly input. Alongside the token ids, every key cell caches
// its classification (NULL / numeric / string), its CoerceNumeric
// verdict, and the coerced double, so the per-pair similarity loop never
// touches a Value again.
//
// Both relations of a comparison must intern into the SAME TokenDictionary
// or ids do not align. Jaccard over id sets equals Jaccard over the string
// sets exactly (set cardinalities are independent of element encoding), so
// the interned path is bit-identical to the string path.
//
// Construction is one serial pass over the cells. A string cell is
// tokenized in place under TokenizeWords' character rules, and each token
// is looked up in the dictionary's flat hash index straight from a reused
// buffer, so a token that is already known costs no allocation.

#ifndef EXPLAIN3D_MATCHING_TOKEN_INTERNING_H_
#define EXPLAIN3D_MATCHING_TOKEN_INTERNING_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/span.h"
#include "matching/similarity.h"
#include "provenance/canonical.h"

namespace explain3d {

/// Interns tokens to dense ids in first-seen order.
///
/// The index is a flat open-addressing table of (hash tag, id) slots over
/// the id-ordered token list: a lookup hashes the bytes once, compares
/// 32-bit tags along a linear probe, and touches a stored token only on
/// a tag match. The table doubles at half load, re-placing slots from
/// their tags without rehashing any token.
class TokenDictionary {
 public:
  /// Sentinel returned by Find for unknown tokens.
  static constexpr uint32_t kMissing = 0xFFFFFFFFu;

  /// Returns the id of `token`, inserting it if new.
  uint32_t Intern(const std::string& token) {
    return Intern(token.data(), token.size());
  }
  /// Same, for the `size` bytes at `data` (no std::string needed).
  uint32_t Intern(const char* data, size_t size);

  /// Returns the id of `token`, or kMissing when it was never interned.
  uint32_t Find(const std::string& token) const;

  /// Number of distinct tokens interned so far (ids are [0, size())).
  size_t size() const { return tokens_.size(); }

  /// Reverse lookup; id must be < size().
  const std::string& token(uint32_t id) const { return tokens_[id]; }

  /// Heap bytes of the token list and the index table, excluding the
  /// tokens' own spilled characters (cache accounting,
  /// core/matching_context.cc).
  size_t flat_bytes() const {
    return tokens_.capacity() * sizeof(std::string) +
           slots_.capacity() * sizeof(Slot);
  }

 private:
  struct Slot {
    uint32_t tag = 0;
    uint32_t id = kMissing;  ///< kMissing marks an empty slot
  };

  /// The slot holding the token with this tag and bytes, or the empty
  /// slot where it would go.
  size_t Probe(uint32_t tag, const char* data, size_t size) const;

  std::vector<Slot> slots_;  ///< power-of-two size; empty until first use
  std::vector<std::string> tokens_;
};

/// The ten flat columnar arrays of an InternedRelation, as views. The
/// persistence tier (src/storage/) serializes these verbatim as aligned
/// raw segments and reconstructs a relation around views into the mapped
/// file — see the borrowing InternedRelation constructor.
struct InternedColumns {
  Span<const uint32_t> token_ids;
  Span<const uint32_t> cell_starts;
  Span<const uint32_t> tuple_cell_starts;
  Span<const uint32_t> key_union_ids;
  Span<const uint32_t> key_union_starts;
  Span<const uint32_t> bag_ids;
  Span<const uint32_t> bag_starts;
  Span<const uint8_t> cell_kinds;
  Span<const uint8_t> cell_coercible;
  Span<const double> cell_numeric;
};

/// A canonical relation plus its interned key columns, computed once.
/// Holds a reference to the relation — keep the relation alive.
///
/// Storage is CSR: `attr_tokens(i, a)` is a slice of one flat uint32
/// array addressed through two offset arrays (tuple → first cell, cell →
/// first token). The per-tuple whole-key token union (`key_ids`, what
/// blocking posts and probes) and the display-text bag (`bag`, the
/// different-arity Jaccard fallback) are separate CSR pairs. All views
/// stay valid for the relation's lifetime; the arrays never move after
/// construction.
///
/// `with_bags` controls whether the whole-key token bags are built. Only
/// the different-arity fallback of InternedKeySimilarity reads them;
/// blocking-only users and equal-arity comparisons should pass false to
/// skip that second tokenization pass (and keep numeric display tokens
/// out of the dictionary).
///
/// The build is one serial streaming pass: each string cell is tokenized
/// in place (TokenizeWords' character rules, into one reusable lowered
/// buffer) and its tokens are interned as they end, so TokenDictionary
/// ids follow the first-seen order of tuples, cells and tokens.
/// `num_threads` is unused; it remains for source compatibility with
/// callers that still pass it.
class InternedRelation {
 public:
  /// Cached classification of one key cell (DataType folded to what the
  /// similarity branches actually distinguish).
  enum class CellKind : uint8_t { kNull = 0, kNumeric = 1, kString = 2 };

  InternedRelation(const CanonicalRelation& rel, TokenDictionary* dict,
                   bool with_bags = true, size_t num_threads = 1);

  /// Borrowing constructor: wraps externally-owned columnar arrays (a
  /// snapshot's mmapped segments) instead of building them. The caller
  /// guarantees `cols` points at structurally valid CSR arrays produced
  /// by a prior build with the same relation/dictionary/with_bags (the
  /// storage layer checksums and validates before calling) and that the
  /// backing memory outlives this object — snapshot loads park the
  /// mapping in Stage1Artifacts::storage_owner. No token array is copied.
  InternedRelation(const CanonicalRelation& rel, const TokenDictionary* dict,
                   bool with_bags, const InternedColumns& cols);

  // Non-copyable/movable: the view members alias the own_* vectors, so a
  // moved-to object would read the moved-from storage. Consumers hold
  // InternedRelations by unique_ptr or build them in place.
  InternedRelation(const InternedRelation&) = delete;
  InternedRelation& operator=(const InternedRelation&) = delete;

  const CanonicalRelation& relation() const { return *rel_; }
  const TokenDictionary& dict() const { return *dict_; }
  bool has_bags() const { return with_bags_; }
  /// True when the columns are views into external (mmapped) memory.
  bool borrowed() const { return borrowed_; }
  size_t size() const { return tuple_cell_starts_.size() - 1; }

  /// Key arity of tuple i (tuples may differ).
  size_t arity(size_t i) const {
    return tuple_cell_starts_[i + 1] - tuple_cell_starts_[i];
  }
  /// Flat cell index of (tuple i, key attribute a); the cell_* accessors
  /// below take this. Cells of one tuple are consecutive.
  size_t cell_index(size_t i, size_t a) const {
    return tuple_cell_starts_[i] + a;
  }
  /// Total number of key cells across the relation.
  size_t num_cells() const { return cell_kinds_.size(); }

  /// Sorted-unique ids of TokenizeWords(value) for string cells; empty
  /// for numeric/NULL cells.
  Span<const uint32_t> attr_tokens(size_t i, size_t a) const {
    return CsrSlice(token_ids_, cell_starts_, cell_index(i, a));
  }
  /// Sorted-unique union of tuple i's attr_tokens across all key
  /// attributes — what blocking posts once per tuple.
  Span<const uint32_t> key_ids(size_t i) const {
    return CsrSlice(key_union_ids_, key_union_starts_, i);
  }
  /// Whole-key display-text token bag (empty unless with_bags).
  Span<const uint32_t> bag(size_t i) const {
    return CsrSlice(bag_ids_, bag_starts_, i);
  }

  CellKind cell_kind(size_t cell) const {
    return static_cast<CellKind>(cell_kinds_[cell]);
  }
  /// CoerceNumeric verdict for the cell's value, cached at build time.
  bool cell_coercible(size_t cell) const { return cell_coercible_[cell] != 0; }
  /// The coerced double when cell_coercible (AsDouble for numeric cells,
  /// the parsed value for numeric-looking strings); 0 otherwise.
  double cell_numeric(size_t cell) const { return cell_numeric_[cell]; }

  /// Heap/resident bytes of the flat columnar arrays (cache accounting,
  /// core/matching_context.cc ApproxBytes). For a borrowed relation this
  /// is the mapped footprint of the views, not owned heap.
  size_t flat_bytes() const;

  /// Views over all ten columns (what the persistence tier serializes).
  /// Valid for this object's lifetime, whether owned or borrowed.
  InternedColumns columns() const {
    return InternedColumns{token_ids_,      cell_starts_, tuple_cell_starts_,
                           key_union_ids_,  key_union_starts_,
                           bag_ids_,        bag_starts_,  cell_kinds_,
                           cell_coercible_, cell_numeric_};
  }

 private:
  static Span<const uint32_t> CsrSlice(Span<const uint32_t> ids,
                                       Span<const uint32_t> starts,
                                       size_t slot) {
    uint32_t lo = starts[slot];
    return Span<const uint32_t>(ids.data() + lo, starts[slot + 1] - lo);
  }

  /// Points every view at the owned vectors (end of a building ctor; the
  /// owned vectors never move afterwards).
  void SealOwned();

  const CanonicalRelation* rel_;
  const TokenDictionary* dict_;
  bool with_bags_;
  bool borrowed_ = false;

  // The accessors above read these views. A building constructor points
  // them at the own_* vectors below; the borrowing constructor points
  // them at the caller's (mmapped) memory and leaves own_* empty.

  /// CSR: flat per-cell token ids. Cell c holds
  /// token_ids_[cell_starts_[c], cell_starts_[c+1]).
  Span<const uint32_t> token_ids_;
  Span<const uint32_t> cell_starts_;        ///< num_cells()+1 offsets
  Span<const uint32_t> tuple_cell_starts_;  ///< size()+1, tuple → first cell

  /// CSR: per-tuple key-union token ids (sorted unique across cells).
  Span<const uint32_t> key_union_ids_;
  Span<const uint32_t> key_union_starts_;   ///< size()+1

  /// CSR: per-tuple display-text bags (empty arrays when !with_bags).
  Span<const uint32_t> bag_ids_;
  Span<const uint32_t> bag_starts_;         ///< size()+1

  /// Per-cell classification columns (indexed by cell_index).
  Span<const uint8_t> cell_kinds_;
  Span<const uint8_t> cell_coercible_;
  Span<const double> cell_numeric_;

  /// Owned backing storage (empty when borrowed()).
  std::vector<uint32_t> own_token_ids_;
  std::vector<uint32_t> own_cell_starts_;
  std::vector<uint32_t> own_tuple_cell_starts_;
  std::vector<uint32_t> own_key_union_ids_;
  std::vector<uint32_t> own_key_union_starts_;
  std::vector<uint32_t> own_bag_ids_;
  std::vector<uint32_t> own_bag_starts_;
  std::vector<uint8_t> own_cell_kinds_;
  std::vector<uint8_t> own_cell_coercible_;
  std::vector<double> own_cell_numeric_;
};

/// KeySimilarity(t1.key, t2.key, StringMetric::kJaccard) computed over the
/// cached token-id columns — same value, no per-pair tokenization and no
/// Value access. Numeric / NULL / mixed attributes follow ValueSimilarity
/// exactly (including the CoerceNumeric handling of numeric-vs-string
/// type drift), read from the per-cell caches.
///
/// Defined inline: candidate scoring calls this once per pair, and the
/// whole chain down to the token-id merge is branchy-but-tiny — keeping
/// it visible to the caller's loop removes a call per pair.
inline double InternedKeySimilarity(const InternedRelation& r1, size_t i,
                                    const InternedRelation& r2, size_t j) {
  E3D_CHECK(&r1.dict() == &r2.dict());
  const size_t arity = r1.arity(i);
  if (arity != r2.arity(j)) {
    E3D_CHECK(r1.has_bags() && r2.has_bags())
        << "different-arity keys need InternedRelation(with_bags=true)";
    return JaccardOfTokenIds(r1.bag(i), r2.bag(j));
  }
  if (arity == 0) return 0.0;
  using CellKind = InternedRelation::CellKind;
  size_t ca = r1.cell_index(i, 0);
  size_t cb = r2.cell_index(j, 0);
  double total = 0;
  for (size_t k = 0; k < arity; ++k, ++ca, ++cb) {
    CellKind ka = r1.cell_kind(ca);
    CellKind kb = r2.cell_kind(cb);
    if (ka == CellKind::kNull && kb == CellKind::kNull) {
      total += 1.0;
    } else if (ka == CellKind::kNull || kb == CellKind::kNull) {
      // similarity 0
    } else if (ka == CellKind::kNumeric && kb == CellKind::kNumeric) {
      total += NumericSimilarity(r1.cell_numeric(ca), r2.cell_numeric(cb));
    } else if (ka == CellKind::kString && kb == CellKind::kString) {
      total += JaccardOfTokenIds(r1.attr_tokens(i, k), r2.attr_tokens(j, k));
    } else {
      // Mixed numeric-vs-string: mirror ValueSimilarity's type-drift
      // coercion (123 vs "123" must not zero out). The verdict and the
      // parsed double were cached at intern time.
      if (r1.cell_coercible(ca) && r2.cell_coercible(cb)) {
        total += NumericSimilarity(r1.cell_numeric(ca), r2.cell_numeric(cb));
      }
    }
  }
  return total / static_cast<double>(arity);
}

/// True when some pair of tuples from the two relations could hit
/// KeySimilarity's different-arity token-bag fallback, i.e. the key
/// arities are not uniformly equal across both relations. Callers that
/// get false can build InternedRelations with with_bags=false.
bool NeedsKeyBags(const CanonicalRelation& t1, const CanonicalRelation& t2);

}  // namespace explain3d

#endif  // EXPLAIN3D_MATCHING_TOKEN_INTERNING_H_
