// Measurement plumbing of the benchmark runner: clocks, process resource
// usage, percentiles, the answer-identity gate, and the result printer.
//
// Nothing here calls into explain3d beyond reading a PipelineResult; the
// workloads (workloads.h) and the traced replay (replay.h) build on it.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/explanation.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// User + system CPU seconds of the whole process (getrusage).
double ProcessCpuSeconds();

/// Peak resident set size of the process in MB (ru_maxrss).
double PeakRssMb();

/// Quantile `q` in [0, 1] of `values`, linearly interpolated between
/// order statistics. NaN when `values` is empty.
double Quantile(std::vector<double> values, double q);

inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// The bytes the bit-identity contract covers: the objective's bit
/// pattern and the normalized explanation set (Δ, δ, and the evidence
/// mapping with its probability bits).
std::string AnswerBytes(const explain3d::ExplanationSet& explanations);

/// Correctness gate: the first answer seen for a request key is the
/// reference, and every later answer to the same key must match it bit
/// for bit.
class AnswerGate {
 public:
  /// Records `bytes` as the reference when `key` is new; otherwise
  /// compares. Returns false on a mismatch.
  bool Check(uint64_t key, const std::string& bytes);

 private:
  std::unordered_map<uint64_t, std::string> reference_;
};

/// One reported metric. `note` carries the sample count or a remark and
/// is printed beside the value in the text table only.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;
};

/// Ordered metric list with the two output forms: a human-readable table
/// and the one-line JSON result run.py reads.
class Report {
 public:
  void Add(std::string name, double value, std::string unit,
           std::string note = "");

  /// Prints "  name  value unit  (note)" lines under a heading.
  void PrintTable(const std::string& heading) const;

  /// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
  std::string Json(bool correct, size_t attempted, size_t failed) const;

 private:
  std::vector<Metric> metrics_;
};

/// Decimal text that reads back as exactly `v` (JSON-safe; NaN and
/// infinities print as null).
std::string JsonNumber(double v);

/// JSON string literal with the needed escapes.
std::string JsonString(const std::string& s);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
