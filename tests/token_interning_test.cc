// Token-interning tests: TokenDictionary behavior, the id-based Jaccard
// fast path against the string-based reference, interned key similarity
// against KeySimilarity, interned blocking against the string path, and
// the NormalizedLevenshtein early exits.

#include "matching/token_interning.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "matching/blocking.h"
#include "matching/similarity.h"

namespace explain3d {
namespace {

TEST(TokenDictionaryTest, InternsAndDeduplicates) {
  TokenDictionary dict;
  uint32_t a = dict.Intern("alpha");
  uint32_t b = dict.Intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(dict.Intern("alpha"), a);  // stable on re-intern
  EXPECT_EQ(dict.size(), 2u);
  EXPECT_EQ(dict.token(a), "alpha");
  EXPECT_EQ(dict.token(b), "beta");
  EXPECT_EQ(dict.Find("alpha"), a);
  EXPECT_EQ(dict.Find("gamma"), TokenDictionary::kMissing);
}

TEST(TokenDictionaryTest, IdsAreDenseFirstSeenOrder) {
  TokenDictionary dict;
  for (uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(dict.Intern("tok" + std::to_string(i)), i);
  }
  EXPECT_EQ(dict.size(), 100u);
}

// A random byte string: letters, digits, spaces, punctuation, NUL and
// bytes >= 0x80, so token boundaries and non-ASCII bytes both occur.
std::string RandomBytes(Rng* rng, size_t max_len) {
  static const char kAlphabet[] = "aBc9Z0 ,.-_";
  std::string s;
  size_t len = rng->Index(max_len + 1);
  for (size_t k = 0; k < len; ++k) {
    double roll = rng->UniformDouble();
    if (roll < 0.6) {
      s.push_back(kAlphabet[rng->Index(sizeof(kAlphabet) - 1)]);
    } else if (roll < 0.8) {
      s.push_back(static_cast<char>(0x80 + rng->Index(128)));
    } else {
      s.push_back(static_cast<char>(rng->Index(256)));
    }
  }
  return s;
}

TEST(TokenDictionaryTest, FlatIndexKeepsFirstSeenIdsAcrossGrowth) {
  // ~5k distinct tokens from a skewed stream: the index starts at 16
  // slots and doubles about nine times while hot tokens keep hitting.
  Rng rng(2207);
  std::vector<std::string> vocab(5000);
  for (std::string& tok : vocab) tok = RandomBytes(&rng, 10);
  std::unordered_map<std::string, uint32_t> ref;
  std::vector<std::string> ref_tokens;
  TokenDictionary dict;
  for (int draw = 0; draw < 40000; ++draw) {
    const std::string& tok =
        vocab[rng.Bernoulli(0.5) ? rng.Index(64) : rng.Index(vocab.size())];
    auto [it, inserted] =
        ref.emplace(tok, static_cast<uint32_t>(ref_tokens.size()));
    if (inserted) ref_tokens.push_back(tok);
    // Alternate the two overloads: they must assign the same ids.
    uint32_t id = draw % 2 == 0 ? dict.Intern(tok)
                                : dict.Intern(tok.data(), tok.size());
    ASSERT_EQ(id, it->second) << "draw " << draw;
  }
  ASSERT_EQ(dict.size(), ref_tokens.size());
  EXPECT_GT(dict.size(), 4000u);
  for (uint32_t id = 0; id < dict.size(); ++id) {
    const std::string& tok = ref_tokens[id];
    EXPECT_EQ(dict.token(id), tok);
    EXPECT_EQ(dict.Find(tok), id);
    EXPECT_EQ(dict.Intern(tok.data(), tok.size()), id);
    EXPECT_EQ(dict.Intern(tok), id);
  }
  EXPECT_EQ(dict.size(), ref_tokens.size());  // re-interning added nothing
  for (int k = 0; k < 2000; ++k) {
    std::string unseen = RandomBytes(&rng, 12) + "#unseen";
    EXPECT_EQ(dict.Find(unseen), TokenDictionary::kMissing);
  }
  EXPECT_EQ(TokenDictionary().Find("x"), TokenDictionary::kMissing);
}

// Builds the sorted-unique string token set and its interned counterpart.
std::vector<std::string> SortedTokens(const std::string& s) {
  std::vector<std::string> toks = TokenizeWords(s);
  std::sort(toks.begin(), toks.end());
  toks.erase(std::unique(toks.begin(), toks.end()), toks.end());
  return toks;
}

TokenIdSet InternTokens(const std::string& s, TokenDictionary* dict) {
  TokenIdSet ids;
  for (const std::string& tok : TokenizeWords(s)) {
    ids.push_back(dict->Intern(tok));
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

TEST(JaccardOfTokenIdsTest, MatchesStringJaccardOnRandomPhrases) {
  Rng rng(99);
  for (int trial = 0; trial < 500; ++trial) {
    // Random phrases over a small vocabulary force overlaps of all sizes.
    auto phrase = [&] {
      std::string s;
      size_t len = rng.Index(8);
      for (size_t w = 0; w < len; ++w) {
        s += "w" + std::to_string(rng.Index(12)) + " ";
      }
      return s;
    };
    std::string a = phrase(), b = phrase();
    TokenDictionary dict;
    TokenIdSet ia = InternTokens(a, &dict);
    TokenIdSet ib = InternTokens(b, &dict);
    EXPECT_DOUBLE_EQ(JaccardOfTokenIds(ia, ib),
                     JaccardOfTokenSets(SortedTokens(a), SortedTokens(b)))
        << "a=\"" << a << "\" b=\"" << b << "\"";
  }
}

TEST(JaccardOfTokenIdsTest, EmptySetEdgeCases) {
  TokenIdSet empty, one = {3};
  EXPECT_DOUBLE_EQ(JaccardOfTokenIds(empty, empty), 1.0);
  EXPECT_DOUBLE_EQ(JaccardOfTokenIds(empty, one), 0.0);
  EXPECT_DOUBLE_EQ(JaccardOfTokenIds(one, empty), 0.0);
  EXPECT_DOUBLE_EQ(JaccardOfTokenIds(one, one), 1.0);
}

// Random canonical relation with string, numeric, and NULL key values.
CanonicalRelation RandomKeyedRelation(size_t n, size_t arity, uint64_t seed) {
  Rng rng(seed);
  CanonicalRelation rel;
  for (size_t a = 0; a < arity; ++a) {
    rel.key_attrs.push_back("k" + std::to_string(a));
  }
  for (size_t i = 0; i < n; ++i) {
    CanonicalTuple t;
    for (size_t a = 0; a < arity; ++a) {
      double roll = rng.UniformDouble();
      if (roll < 0.1) {
        t.key.push_back(Value::Null());
      } else if (roll < 0.3) {
        t.key.push_back(Value(static_cast<int64_t>(rng.Index(20))));
      } else {
        std::string s;
        for (int w = 0; w < 3; ++w) {
          s += "w" + std::to_string(rng.Index(40)) + " ";
        }
        t.key.push_back(Value(s));
      }
    }
    t.impact = 1;
    t.prov_rows = {i};
    rel.tuples.push_back(std::move(t));
  }
  return rel;
}

TEST(InternedRelationTest, ColumnarViewsMatchPerTupleRecomputation) {
  CanonicalRelation rel = RandomKeyedRelation(120, 3, 404);
  TokenDictionary dict;
  InternedRelation interned(rel, &dict);
  ASSERT_EQ(interned.size(), rel.size());
  EXPECT_GT(interned.flat_bytes(), 0u);
  for (size_t i = 0; i < rel.size(); ++i) {
    ASSERT_EQ(interned.arity(i), rel.tuples[i].key.size());
    std::vector<uint32_t> key_union;
    for (size_t a = 0; a < interned.arity(i); ++a) {
      const Value& v = rel.tuples[i].key[a];
      size_t cell = interned.cell_index(i, a);
      Span<const uint32_t> toks = interned.attr_tokens(i, a);
      // The span must be exactly the cell's sorted-unique interned ids
      // (empty for non-string cells), sliced out of the flat array.
      if (v.is_null()) {
        EXPECT_EQ(interned.cell_kind(cell), InternedRelation::CellKind::kNull);
        EXPECT_TRUE(toks.empty());
      } else if (v.type() == DataType::kString) {
        EXPECT_EQ(interned.cell_kind(cell),
                  InternedRelation::CellKind::kString);
        TokenIdSet want = InternTokens(v.AsString(), &dict);
        ASSERT_EQ(toks.size(), want.size());
        for (size_t k = 0; k < want.size(); ++k) EXPECT_EQ(toks[k], want[k]);
        EXPECT_TRUE(std::is_sorted(toks.begin(), toks.end()));
      } else {
        EXPECT_EQ(interned.cell_kind(cell),
                  InternedRelation::CellKind::kNumeric);
        EXPECT_TRUE(toks.empty());
        EXPECT_TRUE(interned.cell_coercible(cell));
        EXPECT_DOUBLE_EQ(interned.cell_numeric(cell), v.AsDouble());
      }
      key_union.insert(key_union.end(), toks.begin(), toks.end());
    }
    // key_ids is the sorted-unique union of the tuple's cell sets.
    std::sort(key_union.begin(), key_union.end());
    key_union.erase(std::unique(key_union.begin(), key_union.end()),
                    key_union.end());
    Span<const uint32_t> ku = interned.key_ids(i);
    ASSERT_EQ(ku.size(), key_union.size()) << "tuple " << i;
    for (size_t k = 0; k < key_union.size(); ++k) {
      EXPECT_EQ(ku[k], key_union[k]);
    }
  }
}

TEST(InternedRelationTest, InPlaceTokenizationMatchesTokenizeWords) {
  // Random byte strings (bytes >= 0x80 included) beside numeric and NULL
  // cells. A reference dictionary interns TokenizeWords' tokens in the
  // build's order — each string cell's words, then (with bags) each
  // numeric cell's display words — so ids, cell sets and bags must match
  // exactly.
  Rng rng(2208);
  CanonicalRelation rel;
  rel.key_attrs = {"a", "b"};
  for (size_t i = 0; i < 600; ++i) {
    CanonicalTuple t;
    for (int a = 0; a < 2; ++a) {
      double roll = rng.UniformDouble();
      if (roll < 0.1) {
        t.key.push_back(Value::Null());
      } else if (roll < 0.2) {
        t.key.push_back(Value(rng.UniformDouble(-50, 50)));
      } else {
        t.key.push_back(Value(RandomBytes(&rng, 24)));
      }
    }
    t.impact = 1;
    t.prov_rows = {i};
    rel.tuples.push_back(std::move(t));
  }
  TokenDictionary dict;
  InternedRelation interned(rel, &dict, /*with_bags=*/true);
  TokenDictionary ref;
  for (size_t i = 0; i < rel.size(); ++i) {
    TokenIdSet bag;
    for (size_t a = 0; a < 2; ++a) {
      const Value& v = rel.tuples[i].key[a];
      TokenIdSet cell;
      if (v.type() == DataType::kString) {
        for (const std::string& tok : TokenizeWords(v.AsString())) {
          cell.push_back(ref.Intern(tok));
        }
      }
      std::sort(cell.begin(), cell.end());
      cell.erase(std::unique(cell.begin(), cell.end()), cell.end());
      Span<const uint32_t> got = interned.attr_tokens(i, a);
      ASSERT_EQ(std::vector<uint32_t>(got.begin(), got.end()), cell)
          << "tuple " << i << " cell " << a;
      bag.insert(bag.end(), cell.begin(), cell.end());
      if (v.is_numeric()) {
        for (const std::string& tok : TokenizeWords(v.ToDisplayString())) {
          bag.push_back(ref.Intern(tok));
        }
      }
    }
    std::sort(bag.begin(), bag.end());
    bag.erase(std::unique(bag.begin(), bag.end()), bag.end());
    Span<const uint32_t> got_bag = interned.bag(i);
    ASSERT_EQ(std::vector<uint32_t>(got_bag.begin(), got_bag.end()), bag)
        << "tuple " << i;
  }
  ASSERT_EQ(dict.size(), ref.size());
  for (uint32_t id = 0; id < dict.size(); ++id) {
    EXPECT_EQ(dict.token(id), ref.token(id)) << "id " << id;
  }
}

TEST(InternedRelationTest, BaglessBuildSkipsBagsButKeepsCells) {
  CanonicalRelation rel = RandomKeyedRelation(40, 2, 405);
  TokenDictionary bagged_dict, bagless_dict;
  InternedRelation bagged(rel, &bagged_dict);
  InternedRelation bagless(rel, &bagless_dict, /*with_bags=*/false);
  EXPECT_TRUE(bagged.has_bags());
  EXPECT_FALSE(bagless.has_bags());
  // Bags hold the whole-key display text; without them every bag view is
  // empty but the attribute/cell columns are identical.
  for (size_t i = 0; i < rel.size(); ++i) {
    EXPECT_TRUE(bagless.bag(i).empty());
    for (size_t a = 0; a < bagless.arity(i); ++a) {
      Span<const uint32_t> lhs = bagless.attr_tokens(i, a);
      Span<const uint32_t> rhs = bagged.attr_tokens(i, a);
      ASSERT_EQ(lhs.size(), rhs.size());
    }
  }
  EXPECT_LT(bagless.flat_bytes(), bagged.flat_bytes());
}

TEST(InternedKeySimilarityTest, MatchesKeySimilarityEqualArity) {
  CanonicalRelation t1 = RandomKeyedRelation(40, 3, 7);
  CanonicalRelation t2 = RandomKeyedRelation(40, 3, 8);
  TokenDictionary dict;
  InternedRelation i1(t1, &dict), i2(t2, &dict);
  for (size_t i = 0; i < t1.size(); ++i) {
    for (size_t j = 0; j < t2.size(); ++j) {
      EXPECT_DOUBLE_EQ(InternedKeySimilarity(i1, i, i2, j),
                       KeySimilarity(t1.tuples[i].key, t2.tuples[j].key,
                                     StringMetric::kJaccard))
          << "i=" << i << " j=" << j;
    }
  }
}

TEST(InternedKeySimilarityTest, MatchesKeySimilarityDifferentArity) {
  // Different arities exercise the whole-key token-bag fallback, which
  // renders numerics to display tokens.
  CanonicalRelation t1 = RandomKeyedRelation(30, 2, 9);
  CanonicalRelation t2 = RandomKeyedRelation(30, 3, 10);
  TokenDictionary dict;
  InternedRelation i1(t1, &dict), i2(t2, &dict);
  for (size_t i = 0; i < t1.size(); ++i) {
    for (size_t j = 0; j < t2.size(); ++j) {
      EXPECT_DOUBLE_EQ(InternedKeySimilarity(i1, i, i2, j),
                       KeySimilarity(t1.tuples[i].key, t2.tuples[j].key,
                                     StringMetric::kJaccard));
    }
  }
}

TEST(InternedKeySimilarityTest, MirrorsNumericStringCoercion) {
  // One side stores the id as a number, the other as digits-in-a-string:
  // both paths must coerce identically (the interned path has no token
  // set for the numeric side, so this exercises its mixed-type branch).
  CanonicalRelation t1, t2;
  t1.key_attrs = t2.key_attrs = {"id", "name"};
  CanonicalTuple a, b;
  a.key = {Value(123), Value("alpha beta")};
  a.impact = 1;
  a.prov_rows = {0};
  b.key = {Value("123"), Value("alpha beta")};
  b.impact = 1;
  b.prov_rows = {0};
  t1.tuples.push_back(a);
  t2.tuples.push_back(b);
  TokenDictionary dict;
  InternedRelation i1(t1, &dict), i2(t2, &dict);
  EXPECT_DOUBLE_EQ(InternedKeySimilarity(i1, 0, i2, 0), 1.0);
  EXPECT_DOUBLE_EQ(InternedKeySimilarity(i1, 0, i2, 0),
                   KeySimilarity(t1.tuples[0].key, t2.tuples[0].key,
                                 StringMetric::kJaccard));
}

TEST(BlockingInternedTest, InternedAndStringPathsAgree) {
  CanonicalRelation t1 = RandomKeyedRelation(60, 2, 11);
  CanonicalRelation t2 = RandomKeyedRelation(60, 2, 12);
  // Blocking never reads the bags; candidates must agree regardless.
  TokenDictionary bagless;
  InternedRelation b1(t1, &bagless, /*with_bags=*/false);
  InternedRelation b2(t2, &bagless, /*with_bags=*/false);
  EXPECT_EQ(GenerateCandidates(b1, b2), GenerateCandidates(t1, t2));
  TokenDictionary bagged;
  InternedRelation i1(t1, &bagged), i2(t2, &bagged);
  EXPECT_EQ(GenerateCandidates(i1, i2), GenerateCandidates(t1, t2));
}

TEST(NormalizedLevenshteinTest, IdenticalStringsSkipDp) {
  EXPECT_DOUBLE_EQ(NormalizedLevenshtein("same string", "same string"), 1.0);
  EXPECT_DOUBLE_EQ(NormalizedLevenshtein("", ""), 1.0);
}

TEST(NormalizedLevenshteinTest, MinSimEarlyExitReturnsUpperBound) {
  // |a|=2, |b|=10: similarity can be at most 1 - 8/10 = 0.2. With a 0.5
  // threshold the DP is skipped and the bound comes back; without a
  // threshold the exact value does. Both are below the threshold, so a
  // thresholding caller makes the same keep/drop decision either way.
  std::string a = "ab", b = "abcdefghij";
  double exact = NormalizedLevenshtein(a, b);
  double bounded = NormalizedLevenshtein(a, b, 0.5);
  EXPECT_DOUBLE_EQ(bounded, 0.2);
  EXPECT_LE(exact, bounded);
  EXPECT_LT(bounded, 0.5);
  // When the length bound passes the threshold, the exact value returns.
  EXPECT_DOUBLE_EQ(NormalizedLevenshtein("kitten", "sitting", 0.2),
                   NormalizedLevenshtein("kitten", "sitting"));
}

TEST(AllPairsTest, GeneratesEveryPair) {
  CandidatePairs pairs = AllPairs(3, 2);
  ASSERT_EQ(pairs.size(), 6u);
  EXPECT_EQ(pairs.front(), std::make_pair(size_t{0}, size_t{0}));
  EXPECT_EQ(pairs.back(), std::make_pair(size_t{2}, size_t{1}));
}

}  // namespace
}  // namespace explain3d
