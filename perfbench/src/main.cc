// Benchmark runner: one workload per invocation.
//
//   perfbench_runner --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> --workdir <dir>
//
// --trace 0: sets the workload up three times (setup_s is the median),
// runs the closed-loop timed phase through Explain3DService for
// --seconds, and reports the end-to-end metrics.
// --trace 1: sets up once, runs the timed phase untraced for half of
// --seconds, then replays its operations through each layer's public
// calls for the other half, and reports the per-layer metrics.
//
// Stdout: a metric table, an "env" JSON line (cores, SIMD tier, load
// shape), and as the last line one JSON object with correct, attempted,
// failed, and metrics. Exit code 0 only when every answer passed the
// bit-identity gate and no operation failed.

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "replay.h"
#include "simd/dispatch.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace explain3d;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string workdir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    char* end = nullptr;
    errno = 0;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args->trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else {
      return false;
    }
    if (end != nullptr && (*end != '\0' || errno != 0)) return false;
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1) && !args->workdir.empty();
}

void PrintEnv(const Args& args, const Workload& w) {
  Settings s = w.settings();
  std::printf(
      "env {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %d, "
      "\"nproc\": %u, \"simd_tier\": %s, \"client_threads\": %zu, "
      "\"tenants\": %zu, \"max_concurrency\": %zu, \"pipeline_threads\": "
      "%zu}\n",
      JsonString(w.name()).c_str(),
      static_cast<unsigned long long>(args.seed),
      JsonNumber(args.seconds).c_str(), args.trace,
      std::thread::hardware_concurrency(),
      JsonString(simd::TierName(simd::ActiveTier())).c_str(),
      s.client_threads, s.tenants, s.max_concurrency, s.pipeline_threads);
}

/// Share of `log`'s operations that failed or were refused or answered
/// differently from the first answer to the same request.
size_t Failed(const RunLog& log) {
  size_t failed = 0;
  for (const Op& op : log.ops) failed += op.answered ? 0 : 1;
  return failed;
}

int EndToEnd(const Args& args, Workload& w) {
  // Set-up runs several times so that setup_s is a median.
  constexpr int kSetups = 3;
  std::vector<double> setups;
  for (int k = 0; k < kSetups; ++k) {
    Clock::time_point t0 = Clock::now();
    Status st = w.Setup(args.seed, args.workdir);
    if (!st.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
      return 1;
    }
    setups.push_back(SecondsBetween(t0, Clock::now()));
  }
  RunLog log;
  Status st = w.Run(args.seconds, &log);
  if (!st.ok()) {
    std::fprintf(stderr, "run failed: %s\n", st.ToString().c_str());
    return 1;
  }
  const size_t attempted = log.ops.size();
  const size_t failed = Failed(log);
  std::vector<double> latency;
  size_t proven = 0;
  for (const Op& op : log.ops) {
    latency.push_back(op.latency_s);
    proven += op.proven ? 1 : 0;
  }
  const double p90 = Quantile(latency, 0.9);
  size_t beyond = 0;
  for (double l : latency) beyond += l > p90 ? 1 : 0;
  const std::string n = "n=" + std::to_string(attempted);
  const double answered = static_cast<double>(attempted - failed);

  Report report;
  report.Add("setup_s", Median(setups), "s",
             "median of " + std::to_string(setups.size()) + " setups");
  report.Add("latency_p50_s", Median(latency), "s", n);
  report.Add("latency_p90_s", p90, "s",
             n + ", " + std::to_string(beyond) + " beyond");
  report.Add("throughput_rps", answered / log.wall_s, "ops/s",
             "over " + JsonNumber(log.wall_s) + " s");
  report.Add("cpu_per_request_s", log.cpu_s / answered, "s", n);
  report.Add("peak_rss_mb", PeakRssMb(), "MB");
  report.Add("failed_frac",
             static_cast<double>(failed) / static_cast<double>(attempted),
             "ratio", std::to_string(log.mismatches) + " gate mismatches");
  report.Add("proven_frac",
             static_cast<double>(proven) / static_cast<double>(attempted),
             "ratio", n);
  report.Add("explanation_f1", w.ExplanationF1(log), "ratio",
             "mean over distinct requests answered");

  report.PrintTable(w.name() + " (end to end, tracing off)");
  PrintEnv(args, w);
  bool correct = failed == 0;
  std::printf("%s\n", report.Json(correct, attempted, failed).c_str());
  return correct ? 0 : 1;
}

int Traced(const Args& args, Workload& w) {
  Status st = w.Setup(args.seed, args.workdir);
  if (!st.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
    return 1;
  }
  RunLog log;
  st = w.Run(args.seconds / 2, &log);
  if (!st.ok()) {
    std::fprintf(stderr, "run failed: %s\n", st.ToString().c_str());
    return 1;
  }
  Report report;
  ReplaySummary summary;
  st = ReplayLayers(w, log, args.seconds / 2, &report, &summary);
  if (!st.ok()) {
    std::fprintf(stderr, "replay failed: %s\n", st.ToString().c_str());
    return 1;
  }
  const size_t attempted = log.ops.size();
  const size_t failed = Failed(log) + summary.mismatches;
  report.PrintTable(w.name() + " (per layer, traced replay of " +
                    std::to_string(summary.ops) + " ops)");
  std::printf("top_layer %s\n", summary.top_layer.c_str());
  PrintEnv(args, w);
  bool correct = failed == 0;
  std::printf("%s\n", report.Json(correct, attempted, failed).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --workdir <dir>\n",
                 argv[0]);
    return 2;
  }
  std::unique_ptr<Workload> w = MakeWorkload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.workdir, ec);
  int code = args.trace == 0 ? EndToEnd(args, *w) : Traced(args, *w);
  w.reset();
  std::filesystem::remove_all(args.workdir, ec);
  return code;
}
