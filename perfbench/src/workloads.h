// The benchmark's three workloads, each driven through the product
// surface (Explain3DService: RegisterDatabase, Submit/Wait,
// SnapshotTo/RestoreFrom):
//
//   warm_dense      one closed-loop client repeating warm requests over
//                   many dense synthetic pairs after a snapshot/restore
//                   restart — the stage-2 assignment branch and bound
//                   does almost all the work;
//   refresh_sparse  one closed-loop client that re-registers a large
//                   sparse synthetic pair with its next version before
//                   every request — cold stage-1 builds and many tiny
//                   MILP units;
//   multi_tenant    four closed-loop tenants over the IMDb views with a
//                   skewed template mix — the service's queue,
//                   coalescing, and fair scheduling plus the cache's read
//                   path.
//
// Every input is generated from the workload seed; the service receives
// only the generated databases and requests.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "harness.h"
#include "service/service.h"

namespace perfbench {

/// Load shape of a workload, stamped beside every result.
struct Settings {
  size_t client_threads = 1;    ///< threads issuing requests
  size_t tenants = 1;           ///< closed-loop tenants over those threads
  size_t max_concurrency = 1;   ///< ServiceOptions::max_concurrency
  size_t pipeline_threads = 1;  ///< Explain3DConfig::num_threads
};

/// What one request asks: a database pair, the two queries, and the
/// labels the calibrator and the F1 score use.
struct Subject {
  std::string name1, name2;  ///< registry names of the two databases
  std::shared_ptr<const explain3d::Database> db1, db2;  ///< generated data
  std::string sql1, sql2;
  explain3d::AttributeMatches attr;
  explain3d::MappingGenOptions mapping;
  /// Calibration: the oracle when set, else the precomputed labels.
  explain3d::CalibrationOracle oracle;
  explain3d::GoldPairs calibration_gold;
  /// Entity lineage for the gold standard: per-provenance-row entity ids
  /// (synthetic) or an entity-id column of each provenance table (IMDb).
  std::vector<int64_t> rows1, rows2;
  std::string entity_col1, entity_col2;
};

/// One operation of the timed phase.
struct Op {
  size_t subject = 0;
  size_t tenant = 0;
  bool registers = false;  ///< re-registered the subject's databases first
  double latency_s = 0;    ///< first service call to the end of Wait
  double pipeline_s = 0;   ///< PipelineResult::total_seconds (OK only)
  bool answered = false;   ///< OK result that passed the answer gate
  bool proven = false;     ///< all units optimal and not degraded
};

/// Everything the timed phase observed.
struct RunLog {
  std::vector<Op> ops;
  double wall_s = 0;  ///< first submit to last completion
  double cpu_s = 0;   ///< process CPU over the same window
  explain3d::ServiceStats before, after;  ///< service stats around it
  size_t cache_hits = 0, cache_misses = 0, cache_evictions = 0;  ///< deltas
  size_t mismatches = 0;  ///< answers that failed the bit-identity gate
};

class Workload {
 public:
  explicit Workload(std::string name) : name_(std::move(name)) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  const std::string& name() const { return name_; }
  virtual Settings settings() const = 0;

  /// Generates the inputs from `seed` and brings up a warm service,
  /// discarding any previous service and answers. `workdir` is a
  /// private directory for the snapshot of a restart.
  virtual explain3d::Status Setup(uint64_t seed,
                                  const std::string& workdir) = 0;

  /// Closed-loop timed phase of about `seconds`.
  virtual explain3d::Status Run(double seconds, RunLog* log) = 0;

  /// Solver config of tenant `tenant`'s requests.
  virtual explain3d::Explain3DConfig TenantConfig(size_t tenant) const;

  const std::vector<Subject>& subjects() const { return subjects_; }
  /// Subjects the setup requested once before the timed phase.
  const std::vector<size_t>& warmed() const { return warmed_; }
  /// Seconds of the setup's SnapshotTo / RestoreFrom calls (0 = none).
  double snapshot_s() const { return snapshot_s_; }
  double restore_s() const { return restore_s_; }

  /// Mean explanation F1 over the distinct requests `log` answered,
  /// scored against the generator's gold (call outside any timed region).
  double ExplanationF1(const RunLog& log) const;

  /// The answer gate's reference bytes hold across the replay too.
  AnswerGate& gate() { return gate_; }

 protected:
  /// Registers (or re-registers) both databases of `subject`.
  void Register(const Subject& subject);
  explain3d::ExplanationRequest MakeRequest(size_t subject,
                                            size_t tenant) const;
  /// Closes one finished request: answer gate, proven flag, and the
  /// first answer per subject (kept for the F1 score).
  void Finish(Op* op, const explain3d::Result<explain3d::PipelineResult>& r,
              RunLog* log);
  /// Submits every listed subject at once (tenant 0's config with
  /// `pipeline_threads`) and waits for all: the warm-up.
  explain3d::Status WarmUp(const std::vector<size_t>& subjects,
                           size_t pipeline_threads);
  /// Drops the service and every answer of a previous setup.
  void Reset();
  /// One client, one request in flight: `next(i)` picks the i-th
  /// operation's subject; `registers` re-registers it first. Runs for
  /// `seconds` and at least 110 operations, rounded up to a whole
  /// number of `round` operations.
  explain3d::Status RunSingleClient(double seconds, size_t round,
                                    bool registers,
                                    const std::function<size_t(size_t)>& next,
                                    RunLog* log);
  void BeginRun(RunLog* log) const;
  void EndRun(RunLog* log) const;

  std::unique_ptr<explain3d::Explain3DService> service_;
  std::map<std::string, explain3d::DatabaseHandle> handles_;
  std::vector<Subject> subjects_;
  std::vector<size_t> warmed_;
  AnswerGate gate_;
  std::map<size_t, explain3d::PipelineResult> first_answer_;
  double snapshot_s_ = 0, restore_s_ = 0;

 private:
  std::string name_;
};

/// The workload named `name`, or nullptr.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);

/// splitmix64 of (seed, stream): independent per-item generator seeds.
uint64_t MixSeed(uint64_t seed, uint64_t stream);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
