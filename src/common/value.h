// Value: the dynamically-typed cell of the relational engine.
//
// Supports NULL, 64-bit integers, doubles, and strings — everything the
// explain3d workloads need (academic, IMDb, synthetic). Comparison follows
// SQL-ish semantics except that NULLs order first and compare equal to each
// other, which gives deterministic sorting/grouping.

#ifndef EXPLAIN3D_COMMON_VALUE_H_
#define EXPLAIN3D_COMMON_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

#include "common/status.h"

namespace explain3d {

/// Runtime type tag of a Value / declared type of a Column.
enum class DataType {
  kNull = 0,
  kInt64,
  kDouble,
  kString,
};

/// Human-readable type name ("INT", "DOUBLE", "STRING", "NULL").
const char* DataTypeName(DataType t);

/// A single dynamically-typed relational value.
class Value {
 public:
  /// NULL value.
  Value() : repr_(std::monostate{}) {}
  Value(int64_t v) : repr_(v) {}            // NOLINT: implicit by design
  Value(int v) : repr_(int64_t{v}) {}       // NOLINT
  Value(double v) : repr_(v) {}             // NOLINT
  Value(std::string v) : repr_(std::move(v)) {}  // NOLINT
  Value(const char* v) : repr_(std::string(v)) {}  // NOLINT

  static Value Null() { return Value(); }

  DataType type() const;
  bool is_null() const { return type() == DataType::kNull; }
  bool is_numeric() const {
    DataType t = type();
    return t == DataType::kInt64 || t == DataType::kDouble;
  }

  /// Typed accessors; E3D_CHECK-fail when the type does not match.
  int64_t AsInt64() const;
  double AsDouble() const;  ///< Accepts kInt64 (widening) or kDouble.
  const std::string& AsString() const;

  /// Numeric value as double, or `fallback` for non-numerics/NULL.
  double ToDoubleOr(double fallback) const;

  /// SQL-literal-style rendering: NULL, 42, 3.14, 'text'.
  std::string ToString() const;
  /// Raw rendering without string quotes (for CSV and display).
  std::string ToDisplayString() const;

  /// Total ordering: NULL < numbers (by numeric value) < strings (lexical).
  /// Cross-type numeric comparison (int vs double) compares numerically;
  /// -0.0 equals 0.0, and NaN equals NaN and sorts after every number.
  int Compare(const Value& other) const;

  bool operator==(const Value& o) const { return Compare(o) == 0; }
  bool operator!=(const Value& o) const { return Compare(o) != 0; }
  bool operator<(const Value& o) const { return Compare(o) < 0; }
  bool operator<=(const Value& o) const { return Compare(o) <= 0; }
  bool operator>(const Value& o) const { return Compare(o) > 0; }
  bool operator>=(const Value& o) const { return Compare(o) >= 0; }

  /// Stable hash consistent with operator== (ints and equal-valued doubles
  /// hash alike, as do ±0.0 and all NaNs).
  size_t Hash() const;

 private:
  std::variant<std::monostate, int64_t, double, std::string> repr_;
};

/// Parses `text` as a value of declared type `type`. Empty text → NULL.
Result<Value> ParseValueAs(const std::string& text, DataType type);

struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

}  // namespace explain3d

#endif  // EXPLAIN3D_COMMON_VALUE_H_
