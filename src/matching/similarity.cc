#include "matching/similarity.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <system_error>

#include "common/logging.h"
#include "common/string_util.h"

namespace explain3d {

namespace {
std::vector<std::string> SortedUniqueTokens(const std::string& s) {
  std::vector<std::string> toks = TokenizeWords(s);
  std::sort(toks.begin(), toks.end());
  toks.erase(std::unique(toks.begin(), toks.end()), toks.end());
  return toks;
}
}  // namespace

double JaccardSimilarity(const std::string& a, const std::string& b) {
  return JaccardOfTokenSets(SortedUniqueTokens(a), SortedUniqueTokens(b));
}

double JaccardOfTokenSets(const std::vector<std::string>& a,
                          const std::vector<std::string>& b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  // Merge-intersect over sorted unique vectors.
  size_t i = 0, j = 0, inter = 0;
  while (i < a.size() && j < b.size()) {
    int c = a[i].compare(b[j]);
    if (c == 0) {
      ++inter;
      ++i;
      ++j;
    } else if (c < 0) {
      ++i;
    } else {
      ++j;
    }
  }
  size_t uni = a.size() + b.size() - inter;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

double JaroSimilarity(const std::string& a, const std::string& b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  int la = static_cast<int>(a.size());
  int lb = static_cast<int>(b.size());
  int window = std::max(la, lb) / 2 - 1;
  if (window < 0) window = 0;
  std::vector<bool> amatch(la, false), bmatch(lb, false);
  int matches = 0;
  for (int i = 0; i < la; ++i) {
    int lo = std::max(0, i - window);
    int hi = std::min(lb - 1, i + window);
    for (int j = lo; j <= hi; ++j) {
      if (!bmatch[j] && a[i] == b[j]) {
        amatch[i] = bmatch[j] = true;
        ++matches;
        break;
      }
    }
  }
  if (matches == 0) return 0.0;
  // Count transpositions among matched characters.
  int t = 0, k = 0;
  for (int i = 0; i < la; ++i) {
    if (!amatch[i]) continue;
    while (!bmatch[k]) ++k;
    if (a[i] != b[k]) ++t;
    ++k;
  }
  double m = matches;
  return (m / la + m / lb + (m - t / 2.0) / m) / 3.0;
}

double NormalizedLevenshtein(const std::string& a, const std::string& b,
                             double min_sim) {
  if (a == b) return 1.0;  // also covers two empty strings
  size_t la = a.size(), lb = b.size();
  // dist >= |la - lb|, so similarity <= 1 - |la-lb|/max(la,lb). When that
  // bound already fails the caller's threshold, return it without the DP.
  size_t len_diff = la > lb ? la - lb : lb - la;
  double sim_cap =
      1.0 - static_cast<double>(len_diff) /
                static_cast<double>(std::max(la, lb));
  if (sim_cap < min_sim) return sim_cap;
  // Single-row DP.
  std::vector<size_t> prev(lb + 1), cur(lb + 1);
  for (size_t j = 0; j <= lb; ++j) prev[j] = j;
  for (size_t i = 1; i <= la; ++i) {
    cur[0] = i;
    for (size_t j = 1; j <= lb; ++j) {
      size_t cost = a[i - 1] == b[j - 1] ? 0 : 1;
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost});
    }
    std::swap(prev, cur);
  }
  double dist = static_cast<double>(prev[lb]);
  return 1.0 - dist / static_cast<double>(std::max(la, lb));
}

bool CoerceNumeric(const Value& v, double* out) {
  if (v.is_numeric()) {
    *out = v.AsDouble();
    return true;
  }
  if (v.type() != DataType::kString) return false;
  // Trim in place (Trim's whitespace rule, no copy): the parse reads the
  // [begin, end) slice of the stored string.
  const std::string& text = v.AsString();
  const char* begin = text.data();
  const char* end = text.data() + text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(*begin))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(end[-1]))) {
    --end;
  }
  if (begin == end) return false;
  // from_chars, not strtod: strtod honors LC_NUMERIC, so an embedding
  // application's setlocale() would change which strings coerce (and
  // therefore the mapping). Reject partial parses ("5x") and non-finite
  // spellings ("inf", "nan"): only text that IS a number compares
  // numerically.
  double d = 0;
#if defined(__cpp_lib_to_chars) && __cpp_lib_to_chars >= 201611L
  auto [ptr, ec] = std::from_chars(begin, end, d);
  if (ec != std::errc{} || ptr != end || !std::isfinite(d)) return false;
#else
  // Toolchains without floating-point from_chars (libstdc++ < GCC 11,
  // older libc++) fall back to strtod and accept the locale caveat.
  errno = 0;
  char* parse_end = nullptr;
  d = std::strtod(begin, &parse_end);
  if (errno != 0 || parse_end != end || !std::isfinite(d)) return false;
#endif
  *out = d;
  return true;
}

double ValueSimilarity(const Value& a, const Value& b, StringMetric metric,
                       double min_sim) {
  if (a.is_null() && b.is_null()) return 1.0;
  if (a.is_null() || b.is_null()) return 0.0;
  if (a.is_numeric() && b.is_numeric()) {
    return NumericSimilarity(a.AsDouble(), b.AsDouble());
  }
  if (a.type() == DataType::kString && b.type() == DataType::kString) {
    switch (metric) {
      case StringMetric::kJaccard:
        return JaccardSimilarity(a.AsString(), b.AsString());
      case StringMetric::kJaro:
        return JaroSimilarity(ToLower(a.AsString()), ToLower(b.AsString()));
      case StringMetric::kLevenshtein:
        return NormalizedLevenshtein(ToLower(a.AsString()),
                                     ToLower(b.AsString()), min_sim);
    }
  }
  // Mixed numeric-vs-string: type drift between the two databases (123 in
  // one, "123" in the other) must not zero out true matches.
  double x, y;
  if (CoerceNumeric(a, &x) && CoerceNumeric(b, &y)) {
    return NumericSimilarity(x, y);
  }
  return 0.0;
}

double RowSimilarity(const Row& a, const Row& b, StringMetric metric,
                     double min_sim) {
  E3D_CHECK_EQ(a.size(), b.size());
  if (a.empty()) return 0.0;
  double total = 0;
  const double k = static_cast<double>(a.size());
  for (size_t i = 0; i < a.size(); ++i) {
    // Tightest per-attribute floor that could still reach mean >= min_sim
    // when every remaining attribute scores a perfect 1. If this attribute
    // early-exits below its floor, the final mean is below min_sim no
    // matter what follows, so the result stays a valid upper bound.
    double remaining = k - 1.0 - static_cast<double>(i);
    double attr_floor =
        min_sim > 0 ? min_sim * k - total - remaining : 0.0;
    total += ValueSimilarity(a[i], b[i], metric, attr_floor);
  }
  return total / k;
}

namespace {
std::vector<std::string> KeyTokenBag(const Row& key) {
  std::vector<std::string> toks;
  for (const Value& v : key) {
    if (v.is_null()) continue;
    std::vector<std::string> part = TokenizeWords(v.ToDisplayString());
    toks.insert(toks.end(), part.begin(), part.end());
  }
  std::sort(toks.begin(), toks.end());
  toks.erase(std::unique(toks.begin(), toks.end()), toks.end());
  return toks;
}
}  // namespace

double KeySimilarity(const Row& a, const Row& b, StringMetric metric,
                     double min_sim) {
  if (a.size() == b.size()) return RowSimilarity(a, b, metric, min_sim);
  return JaccardOfTokenSets(KeyTokenBag(a), KeyTokenBag(b));
}

}  // namespace explain3d
