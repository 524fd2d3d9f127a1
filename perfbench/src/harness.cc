#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

namespace perfbench {

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

namespace {

template <typename T>
void AppendRaw(std::string* out, T v) {
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out->append(buf, sizeof(T));
}

}  // namespace

std::string AnswerBytes(const explain3d::ExplanationSet& explanations) {
  explain3d::ExplanationSet set = explanations;
  set.Normalize();
  std::string out;
  out.reserve(16 + 16 * set.delta.size() + 32 * set.value_changes.size() +
              24 * set.evidence.size());
  AppendRaw(&out, explanations.log_probability);
  AppendRaw(&out, set.delta.size());
  for (const auto& d : set.delta) {
    AppendRaw(&out, static_cast<int>(d.side));
    AppendRaw(&out, d.tuple);
  }
  AppendRaw(&out, set.value_changes.size());
  for (const auto& v : set.value_changes) {
    AppendRaw(&out, static_cast<int>(v.side));
    AppendRaw(&out, v.tuple);
    AppendRaw(&out, v.old_impact);
    AppendRaw(&out, v.new_impact);
  }
  AppendRaw(&out, set.evidence.size());
  for (const auto& m : set.evidence) {
    AppendRaw(&out, m.t1);
    AppendRaw(&out, m.t2);
    AppendRaw(&out, m.p);
  }
  return out;
}

bool AnswerGate::Check(uint64_t key, const std::string& bytes) {
  auto [it, inserted] = reference_.emplace(key, bytes);
  return inserted || it->second == bytes;
}

void Report::Add(std::string name, double value, std::string unit,
                 std::string note) {
  metrics_.push_back(
      {std::move(name), value, std::move(unit), std::move(note)});
}

void Report::PrintTable(const std::string& heading) const {
  std::printf("%s\n", heading.c_str());
  for (const Metric& m : metrics_) {
    std::printf("  %-28s %14.6g %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Report::Json(bool correct, size_t attempted,
                         size_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics_) {
    if (!first) out += ", ";
    first = false;
    out += JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": " + JsonString(m.unit) + "}";
  }
  return out + "}}";
}

}  // namespace perfbench
