#include "common/value.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>

#include "common/logging.h"

namespace explain3d {

const char* DataTypeName(DataType t) {
  switch (t) {
    case DataType::kNull:
      return "NULL";
    case DataType::kInt64:
      return "INT";
    case DataType::kDouble:
      return "DOUBLE";
    case DataType::kString:
      return "STRING";
  }
  return "?";
}

DataType Value::type() const {
  switch (repr_.index()) {
    case 0:
      return DataType::kNull;
    case 1:
      return DataType::kInt64;
    case 2:
      return DataType::kDouble;
    case 3:
      return DataType::kString;
  }
  return DataType::kNull;
}

int64_t Value::AsInt64() const {
  E3D_CHECK(std::holds_alternative<int64_t>(repr_))
      << "Value is " << DataTypeName(type()) << ", not INT";
  return std::get<int64_t>(repr_);
}

double Value::AsDouble() const {
  if (std::holds_alternative<int64_t>(repr_)) {
    return static_cast<double>(std::get<int64_t>(repr_));
  }
  E3D_CHECK(std::holds_alternative<double>(repr_))
      << "Value is " << DataTypeName(type()) << ", not numeric";
  return std::get<double>(repr_);
}

const std::string& Value::AsString() const {
  E3D_CHECK(std::holds_alternative<std::string>(repr_))
      << "Value is " << DataTypeName(type()) << ", not STRING";
  return std::get<std::string>(repr_);
}

double Value::ToDoubleOr(double fallback) const {
  if (std::holds_alternative<int64_t>(repr_)) {
    return static_cast<double>(std::get<int64_t>(repr_));
  }
  if (std::holds_alternative<double>(repr_)) return std::get<double>(repr_);
  return fallback;
}

std::string Value::ToString() const {
  if (std::holds_alternative<std::string>(repr_)) {
    return "'" + std::get<std::string>(repr_) + "'";
  }
  return ToDisplayString();
}

std::string Value::ToDisplayString() const {
  switch (repr_.index()) {
    case 0:
      return "NULL";
    case 1:
      return std::to_string(std::get<int64_t>(repr_));
    case 2: {
      double d = std::get<double>(repr_);
      // Render integral doubles without a trailing ".000000".
      if (std::isfinite(d) && d == std::floor(d) && std::abs(d) < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.1f", d);
        return buf;
      }
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%g", d);
      return buf;
    }
    case 3:
      return std::get<std::string>(repr_);
  }
  return "NULL";
}

namespace {
// Rank used for cross-type ordering: NULL < numeric < string.
int TypeRank(DataType t) {
  switch (t) {
    case DataType::kNull:
      return 0;
    case DataType::kInt64:
    case DataType::kDouble:
      return 1;
    case DataType::kString:
      return 2;
  }
  return 3;
}
}  // namespace

int Value::Compare(const Value& other) const {
  int ra = TypeRank(type());
  int rb = TypeRank(other.type());
  if (ra != rb) return ra < rb ? -1 : 1;
  switch (ra) {
    case 0:
      return 0;  // NULL == NULL (deterministic grouping semantics).
    case 1: {
      // Compare int64 pairs exactly; anything involving a double compares
      // as double (adequate for the magnitudes this engine handles).
      if (std::holds_alternative<int64_t>(repr_) &&
          std::holds_alternative<int64_t>(other.repr_)) {
        int64_t a = std::get<int64_t>(repr_);
        int64_t b = std::get<int64_t>(other.repr_);
        return a < b ? -1 : (a > b ? 1 : 0);
      }
      // NaN equals NaN and sorts after every number, so Compare stays a
      // total order (a raw `<` would call NaN equal to every number).
      double a = AsDouble();
      double b = other.AsDouble();
      bool a_nan = std::isnan(a);
      bool b_nan = std::isnan(b);
      if (a_nan || b_nan) return a_nan == b_nan ? 0 : (a_nan ? 1 : -1);
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    default: {
      const std::string& a = AsString();
      const std::string& b = other.AsString();
      int c = a.compare(b);
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
  }
}

size_t Value::Hash() const {
  switch (repr_.index()) {
    case 0:
      return 0x9e3779b97f4a7c15ULL;
    case 1: {
      int64_t v = std::get<int64_t>(repr_);
      return std::hash<double>{}(static_cast<double>(v)) ^ 0x51ed270b;
    }
    case 2: {
      double d = std::get<double>(repr_);
      // Equal values hash alike: integral doubles like the equal int64,
      // -0.0 like 0.0, and every NaN payload like every other.
      if (d == 0.0) d = 0.0;
      if (std::isnan(d)) d = std::numeric_limits<double>::quiet_NaN();
      return std::hash<double>{}(d) ^ 0x51ed270b;
    }
    default:
      return std::hash<std::string>{}(std::get<std::string>(repr_));
  }
}

Result<Value> ParseValueAs(const std::string& text, DataType type) {
  if (text.empty()) return Value::Null();
  switch (type) {
    case DataType::kNull:
      return Value::Null();
    case DataType::kInt64: {
      errno = 0;
      char* end = nullptr;
      long long v = std::strtoll(text.c_str(), &end, 10);
      if (errno != 0 || end == text.c_str() || *end != '\0') {
        return Status::ParseError("not an integer: '" + text + "'");
      }
      return Value(static_cast<int64_t>(v));
    }
    case DataType::kDouble: {
      errno = 0;
      char* end = nullptr;
      double v = std::strtod(text.c_str(), &end);
      if (errno != 0 || end == text.c_str() || *end != '\0') {
        return Status::ParseError("not a number: '" + text + "'");
      }
      return Value(v);
    }
    case DataType::kString:
      return Value(text);
  }
  return Status::Internal("unknown DataType");
}

}  // namespace explain3d
