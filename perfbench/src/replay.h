// Traced replay: re-executes a workload's timed operations through the
// public entry point of each layer and times every call from outside.
//
// The service runs a request as one opaque call, so the replay walks the
// same path by hand — content hash (storage), stage-1 cache lookup
// (cache), query execution (relational), provenance derivation and
// canonicalization (provenance), interning, blocking, and scoring plus
// calibration (matching), the portfolio's greedy leg (greedy), and the
// stage-2 solve (solver, with partitioning split out of its stats). Spans
// nest; a layer's self time is its spans' duration minus their
// children's. The service layer's own share of an operation is the
// untraced latency minus the pipeline run time the result reports.
//
// Every replayed answer must match the service's answer bit for bit, so
// the replay is checked by the same gate as the timed run. No end-to-end
// metric comes from here.

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <string>

#include "common/status.h"
#include "harness.h"
#include "workloads.h"

namespace perfbench {

struct ReplaySummary {
  size_t ops = 0;         ///< operations replayed
  size_t mismatches = 0;  ///< replayed answers that differ from the service's
  std::string top_layer;  ///< layer with the most self time
};

/// Replays `log`'s operations in order for about `seconds` (at least
/// one) and adds every per-layer metric to `report`.
explain3d::Status ReplayLayers(Workload& workload, const RunLog& log,
                               double seconds, Report* report,
                               ReplaySummary* summary);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
