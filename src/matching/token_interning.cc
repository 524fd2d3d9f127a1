#include "matching/token_interning.h"

#include <algorithm>
#include <cctype>
#include <functional>
#include <string_view>

#include "common/logging.h"

namespace explain3d {

namespace {

// 32-bit tag of a token's bytes: the slot's probe start and its filter.
uint32_t TokenTag(const char* data, size_t size) {
  size_t h = std::hash<std::string_view>{}(std::string_view(data, size));
  return static_cast<uint32_t>(h ^ (h >> 32));
}

void SortUnique(TokenIdSet* ids) {
  std::sort(ids->begin(), ids->end());
  ids->erase(std::unique(ids->begin(), ids->end()), ids->end());
}

struct CellClass {
  uint8_t kind;
  uint8_t coercible;
  double num;
};

// DataType only has NULL / int64 / double / string, so three kinds cover
// every branch the similarity code distinguishes. The coerced double is
// AsDouble for numerics and the CoerceNumeric parse for numeric-looking
// strings — exactly the values the old per-pair branches recomputed.
CellClass Classify(const Value& v) {
  CellClass c{static_cast<uint8_t>(InternedRelation::CellKind::kString), 0,
              0.0};
  if (v.is_null()) {
    c.kind = static_cast<uint8_t>(InternedRelation::CellKind::kNull);
  } else if (v.is_numeric()) {
    c.kind = static_cast<uint8_t>(InternedRelation::CellKind::kNumeric);
  }
  double num = 0.0;
  if (CoerceNumeric(v, &num)) {
    c.coercible = 1;
    c.num = num;
  }
  return c;
}

void AppendSorted(const TokenIdSet& src, std::vector<uint32_t>* ids,
                  std::vector<uint32_t>* starts) {
  ids->insert(ids->end(), src.begin(), src.end());
  starts->push_back(static_cast<uint32_t>(ids->size()));
}

// Appends the ids of TokenizeWords(text), in token order, without
// building the token vector: the same character rules fill one reusable
// lowered buffer, and each token is interned as it ends.
void InternWords(const std::string& text, TokenDictionary* dict,
                 std::string* lowered, TokenIdSet* out) {
  lowered->clear();
  for (char ch : text) {
    unsigned char c = static_cast<unsigned char>(ch);
    if (std::isalnum(c)) {
      lowered->push_back(static_cast<char>(std::tolower(c)));
    } else if (!lowered->empty()) {
      out->push_back(dict->Intern(lowered->data(), lowered->size()));
      lowered->clear();
    }
  }
  if (!lowered->empty()) {
    out->push_back(dict->Intern(lowered->data(), lowered->size()));
  }
}

}  // namespace

size_t TokenDictionary::Probe(uint32_t tag, const char* data,
                              size_t size) const {
  const size_t mask = slots_.size() - 1;
  for (size_t pos = tag & mask;; pos = (pos + 1) & mask) {
    const Slot& slot = slots_[pos];
    if (slot.id == kMissing) return pos;
    if (slot.tag == tag &&
        std::string_view(tokens_[slot.id]) == std::string_view(data, size)) {
      return pos;
    }
  }
}

uint32_t TokenDictionary::Intern(const char* data, size_t size) {
  const uint32_t tag = TokenTag(data, size);
  size_t pos = 0;
  if (!slots_.empty()) {
    pos = Probe(tag, data, size);
    if (slots_[pos].id != kMissing) return slots_[pos].id;
  }
  if (2 * (tokens_.size() + 1) > slots_.size()) {
    // Double at half load; the tags re-place every slot.
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 16 : 2 * old.size(), Slot{});
    const size_t mask = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.id == kMissing) continue;
      size_t p = slot.tag & mask;
      while (slots_[p].id != kMissing) p = (p + 1) & mask;
      slots_[p] = slot;
    }
    pos = Probe(tag, data, size);
  }
  const uint32_t id = static_cast<uint32_t>(tokens_.size());
  tokens_.emplace_back(data, size);
  slots_[pos] = Slot{tag, id};
  return id;
}

uint32_t TokenDictionary::Find(const std::string& token) const {
  if (slots_.empty()) return kMissing;
  return slots_[Probe(TokenTag(token.data(), token.size()), token.data(),
                      token.size())]
      .id;
}

InternedRelation::InternedRelation(const CanonicalRelation& rel,
                                   TokenDictionary* dict, bool with_bags,
                                   size_t /*num_threads*/)
    : rel_(&rel), dict_(dict), with_bags_(with_bags) {
  const size_t n = rel.tuples.size();

  // Cell prefix first: key arities are known without tokenizing, so the
  // per-cell columns can be sized up front.
  own_tuple_cell_starts_.resize(n + 1);
  own_tuple_cell_starts_[0] = 0;
  for (size_t i = 0; i < n; ++i) {
    own_tuple_cell_starts_[i + 1] =
        own_tuple_cell_starts_[i] +
        static_cast<uint32_t>(rel.tuples[i].key.size());
  }
  const size_t total_cells = own_tuple_cell_starts_[n];
  own_cell_kinds_.resize(total_cells);
  own_cell_coercible_.resize(total_cells);
  own_cell_numeric_.resize(total_cells);
  own_cell_starts_.reserve(total_cells + 1);
  own_cell_starts_.push_back(0);
  own_key_union_starts_.reserve(n + 1);
  own_key_union_starts_.push_back(0);
  own_bag_starts_.reserve(n + 1);
  own_bag_starts_.push_back(0);

  // One streaming pass: classify, tokenize, and intern in tuple /
  // attribute / token order, so dictionary ids are first-seen ids.
  TokenIdSet scratch, union_scratch, bag_scratch;
  std::string lowered;
  for (size_t i = 0; i < n; ++i) {
    const Row& key = rel.tuples[i].key;
    union_scratch.clear();
    bag_scratch.clear();
    size_t cell = own_tuple_cell_starts_[i];
    for (size_t a = 0; a < key.size(); ++a, ++cell) {
      const Value& v = key[a];
      CellClass c = Classify(v);
      own_cell_kinds_[cell] = c.kind;
      own_cell_coercible_[cell] = c.coercible;
      own_cell_numeric_[cell] = c.num;
      if (v.type() == DataType::kString) {
        scratch.clear();
        InternWords(v.AsString(), dict, &lowered, &scratch);
        SortUnique(&scratch);
        own_token_ids_.insert(own_token_ids_.end(), scratch.begin(),
                              scratch.end());
        union_scratch.insert(union_scratch.end(), scratch.begin(),
                             scratch.end());
        // A string cell's display text IS its raw text, so the bag
        // tokens are exactly the attr tokens just interned (the bag is
        // sort-uniqued below anyway) — reuse the ids instead of
        // tokenizing and re-interning the same text.
        if (with_bags) {
          bag_scratch.insert(bag_scratch.end(), scratch.begin(),
                             scratch.end());
        }
      }
      own_cell_starts_.push_back(static_cast<uint32_t>(own_token_ids_.size()));
      if (with_bags && !v.is_null() && v.type() != DataType::kString) {
        InternWords(v.ToDisplayString(), dict, &lowered, &bag_scratch);
      }
    }
    SortUnique(&union_scratch);
    AppendSorted(union_scratch, &own_key_union_ids_, &own_key_union_starts_);
    SortUnique(&bag_scratch);
    AppendSorted(bag_scratch, &own_bag_ids_, &own_bag_starts_);
  }
  SealOwned();
}

InternedRelation::InternedRelation(const CanonicalRelation& rel,
                                   const TokenDictionary* dict, bool with_bags,
                                   const InternedColumns& cols)
    : rel_(&rel), dict_(dict), with_bags_(with_bags), borrowed_(true) {
  token_ids_ = cols.token_ids;
  cell_starts_ = cols.cell_starts;
  tuple_cell_starts_ = cols.tuple_cell_starts;
  key_union_ids_ = cols.key_union_ids;
  key_union_starts_ = cols.key_union_starts;
  bag_ids_ = cols.bag_ids;
  bag_starts_ = cols.bag_starts;
  cell_kinds_ = cols.cell_kinds;
  cell_coercible_ = cols.cell_coercible;
  cell_numeric_ = cols.cell_numeric;
  // The starts arrays must carry at least the leading 0 even for an empty
  // relation; the storage layer validates this before constructing us.
  E3D_CHECK_GE(tuple_cell_starts_.size(), 1u);
  E3D_CHECK_GE(cell_starts_.size(), 1u);
  E3D_CHECK_GE(key_union_starts_.size(), 1u);
  E3D_CHECK_GE(bag_starts_.size(), 1u);
}

void InternedRelation::SealOwned() {
  token_ids_ = own_token_ids_;
  cell_starts_ = own_cell_starts_;
  tuple_cell_starts_ = own_tuple_cell_starts_;
  key_union_ids_ = own_key_union_ids_;
  key_union_starts_ = own_key_union_starts_;
  bag_ids_ = own_bag_ids_;
  bag_starts_ = own_bag_starts_;
  cell_kinds_ = own_cell_kinds_;
  cell_coercible_ = own_cell_coercible_;
  cell_numeric_ = own_cell_numeric_;
}

size_t InternedRelation::flat_bytes() const {
  if (borrowed_) {
    // Mapped footprint of the views: pages are shared with the snapshot
    // file, but they still occupy address space / page cache, so the LRU
    // budget prices them like resident bytes.
    return (token_ids_.size() + cell_starts_.size() +
            tuple_cell_starts_.size() + key_union_ids_.size() +
            key_union_starts_.size() + bag_ids_.size() + bag_starts_.size()) *
               sizeof(uint32_t) +
           cell_kinds_.size() + cell_coercible_.size() +
           cell_numeric_.size() * sizeof(double);
  }
  return (own_token_ids_.capacity() + own_cell_starts_.capacity() +
          own_tuple_cell_starts_.capacity() + own_key_union_ids_.capacity() +
          own_key_union_starts_.capacity() + own_bag_ids_.capacity() +
          own_bag_starts_.capacity()) *
             sizeof(uint32_t) +
         own_cell_kinds_.capacity() + own_cell_coercible_.capacity() +
         own_cell_numeric_.capacity() * sizeof(double);
}

bool NeedsKeyBags(const CanonicalRelation& t1, const CanonicalRelation& t2) {
  if (t1.tuples.empty() || t2.tuples.empty()) return false;
  auto uniform_arity = [](const CanonicalRelation& rel, size_t* arity) {
    for (const CanonicalTuple& t : rel.tuples) {
      if (&t == &rel.tuples.front()) *arity = t.key.size();
      else if (t.key.size() != *arity) return false;
    }
    return true;
  };
  size_t arity1 = 0, arity2 = 0;
  return !(uniform_arity(t1, &arity1) && uniform_arity(t2, &arity2) &&
           arity1 == arity2);
}

}  // namespace explain3d
