#include "provenance/canonical.h"

#include <cstdint>

#include "common/hash.h"

namespace explain3d {

std::string CanonicalTuple::KeyString() const {
  std::string s;
  for (size_t i = 0; i < key.size(); ++i) {
    if (i > 0) s += "|";
    s += key[i].ToDisplayString();
  }
  return s;
}

double CanonicalRelation::TotalImpact() const {
  double total = 0;
  for (const CanonicalTuple& t : tuples) total += t.impact;
  return total;
}

Result<CanonicalRelation> Canonicalize(
    const ProvenanceRelation& prov,
    const std::vector<std::string>& match_attrs) {
  if (match_attrs.empty()) {
    return Status::InvalidArgument(
        "canonicalization requires at least one matching attribute "
        "(the queries would not be comparable, Definition 2.2)");
  }
  std::vector<size_t> key_cols;
  key_cols.reserve(match_attrs.size());
  for (const std::string& attr : match_attrs) {
    E3D_ASSIGN_OR_RETURN(size_t idx, prov.table.schema().Resolve(attr));
    key_cols.push_back(idx);
  }

  CanonicalRelation out;
  out.key_attrs = match_attrs;
  out.agg = prov.agg;
  out.integral_impacts = prov.integral_impacts;

  bool one_to_one = prov.agg == AggFunc::kAvg || prov.agg == AggFunc::kMax ||
                    prov.agg == AggFunc::kMin;
  if (one_to_one) {
    // Strict mapping aggregates: no consolidation (Definition 3.1).
    out.tuples.reserve(prov.size());
    for (size_t i = 0; i < prov.size(); ++i) {
      CanonicalTuple t;
      t.key.reserve(key_cols.size());
      for (size_t c : key_cols) t.key.push_back(prov.table.row(i)[c]);
      t.impact = prov.impact[i];
      t.prov_rows = {i};
      out.tuples.push_back(std::move(t));
    }
    return out;
  }

  // Group by key, sum impacts. Groups are pushed into out.tuples in
  // first-appearance order and each group's impacts are summed in row
  // order, which keeps the output deterministic. The index is a flat
  // open-addressing table of group positions (+1; 0 is empty), probed
  // by the combined Value::Hash of the key cells and confirmed with
  // Value::Compare, the equality Value::Hash agrees with.
  out.tuples.reserve(prov.size());
  std::vector<size_t> group_hash;
  std::vector<uint32_t> slots(16, 0);
  size_t mask = slots.size() - 1;
  for (size_t i = 0; i < prov.size(); ++i) {
    const Row& row = prov.table.row(i);
    size_t h = 0x2545f4914f6cdd1dULL;
    for (size_t c : key_cols) h = HashCombine(h, row[c].Hash());
    auto same_key = [&](size_t g) {
      if (group_hash[g] != h) return false;
      const Row& key = out.tuples[g].key;
      for (size_t k = 0; k < key_cols.size(); ++k) {
        if (key[k].Compare(row[key_cols[k]]) != 0) return false;
      }
      return true;
    };
    size_t pos = h & mask;
    while (slots[pos] != 0 && !same_key(slots[pos] - 1)) {
      pos = (pos + 1) & mask;
    }
    if (slots[pos] != 0) {
      CanonicalTuple& t = out.tuples[slots[pos] - 1];
      t.impact += prov.impact[i];
      t.prov_rows.push_back(i);
      continue;
    }
    CanonicalTuple& t = out.tuples.emplace_back();
    t.key.reserve(key_cols.size());
    for (size_t c : key_cols) t.key.push_back(row[c]);
    t.impact = prov.impact[i];
    t.prov_rows = {i};
    group_hash.push_back(h);
    slots[pos] = static_cast<uint32_t>(out.tuples.size());
    if (2 * out.tuples.size() > slots.size()) {
      // Keep the load at or under one half: double and re-place every
      // group from its stored hash.
      slots.assign(2 * slots.size(), 0);
      mask = slots.size() - 1;
      for (size_t g = 0; g < group_hash.size(); ++g) {
        size_t p = group_hash[g] & mask;
        while (slots[p] != 0) p = (p + 1) & mask;
        slots[p] = static_cast<uint32_t>(g + 1);
      }
    }
  }
  // Give the reserve back when duplicates left most of it unused: the
  // relation lives on in the stage-1 cache.
  if (2 * out.tuples.size() < out.tuples.capacity()) {
    out.tuples.shrink_to_fit();
  }
  return out;
}

}  // namespace explain3d
