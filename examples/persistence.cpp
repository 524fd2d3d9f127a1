// The persistence tier: crash-consistent snapshots and warm service
// restarts (storage/snapshot_file.h wired into Explain3DService).
//
// A serving process accumulates expensive state — stage-1 artifact
// blocks and stage-2 warm-start incumbents. Without persistence, a
// restart throws all of it away and the first request of every pair
// pays the full cold build again. This example runs the full
// restart-survival loop:
//
//   1. service A serves a request cold, then SnapshotTo(dir) writes its
//      cache as one file, dir/snapshot.e3d (streamed to a temp file,
//      fsynced, and renamed into place);
//   2. A is destroyed — the disk image is all that remains;
//   3. a FRESH service B RestoreFrom(dir)s, re-registers the same
//      data, and answers the repeated request from the restored cache:
//      warm hit, warm-started solve, bit-identical answer, and the
//      artifact block served straight off the mmapped file (zero-copy).
//
// The snapshot directory stays behind for the explain3d_store CLI
// (inspect / verify).
//
// This file is the compiled twin of the docs/API.md "Persistence"
// section — CI builds and runs it, so the documented snippet cannot rot.
//
// Build & run:  ./build/persistence

#include <cstdio>
#include <filesystem>
#include <string>

#include "datagen/synthetic.h"
#include "eval/gold.h"
#include "service/service.h"

using namespace explain3d;

namespace {

ExplanationRequest MakeRequest(const SyntheticDataset& data,
                               DatabaseHandle h1, DatabaseHandle h2) {
  ExplanationRequest req;
  req.db1 = h1;
  req.db2 = h2;
  req.sql1 = data.sql1;
  req.sql2 = data.sql2;
  req.attr_matches = data.attr_matches;
  req.mapping_options.min_probability = 1e-4;
  req.calibration_oracle =
      MakeRowEntityOracle(data.row_entities1, data.row_entities2);
  req.config.batch_size = 25;  // all-optimal solves record incumbents
  return req;
}

}  // namespace

int main() {
  SyntheticOptions gen;
  gen.n = 400;
  gen.d = 0.25;
  gen.v = 250;
  SyntheticDataset data = GenerateSynthetic(gen).value();

  const std::string dir =
      (std::filesystem::temp_directory_path() / "explain3d-persistence")
          .string();
  std::filesystem::remove_all(dir);

  // --- 1. cold service, explicit snapshot -------------------------------
  double cold_objective = 0;
  {
    Explain3DService a;
    DatabaseHandle h1 = a.RegisterDatabase("left", data.db1);
    DatabaseHandle h2 = a.RegisterDatabase("right", data.db2);
    TicketPtr t = a.Submit(MakeRequest(data, h1, h2));
    Result<PipelineResult> r = t->Wait();
    if (!r.ok()) {
      std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
      return 1;
    }
    cold_objective = r.value().core().explanations.log_probability;
    ServiceStats s = a.Stats();
    std::printf("service A: cold run done (objective %.3f), cache %zu "
                "entry / incumbents %zu\n",
                cold_objective, s.cache_entries, s.incumbent_entries);
    Status snap = a.SnapshotTo(dir);
    if (!snap.ok()) {
      std::fprintf(stderr, "%s\n", snap.ToString().c_str());
      return 1;
    }
    std::printf("service A: snapshot committed to %s\n", dir.c_str());
  }  // A is gone

  // --- 2. fresh service restores and serves warm ------------------------
  {
    Explain3DService b;
    Status restore = b.RestoreFrom(dir);
    if (!restore.ok()) {
      std::fprintf(stderr, "%s\n", restore.ToString().c_str());
      return 1;
    }
    ServiceStats restored = b.Stats();
    std::printf("service B: restored %zu artifact block(s), %zu incumbent "
                "record(s) from disk\n",
                restored.restored_entries, restored.restored_incumbents);

    // Registration is by CONTENT: the same data keys into the restored
    // entries even though every handle and pointer is new.
    DatabaseHandle h1 = b.RegisterDatabase("left", data.db1);
    DatabaseHandle h2 = b.RegisterDatabase("right", data.db2);
    TicketPtr t = b.Submit(MakeRequest(data, h1, h2));
    Result<PipelineResult> r = t->Wait();
    if (!r.ok()) {
      std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
      return 1;
    }
    ServiceStats warm = b.Stats();
    bool identical = r.value().core().explanations.log_probability == cold_objective;
    std::printf("service B: first request — warm_hits=%zu cold_misses=%zu "
                "warm_start_hits=%zu, answer %s\n",
                warm.warm_hits, warm.cold_misses, warm.warm_start_hits,
                identical ? "bit-identical" : "DIFFERENT (bug!)");
    // Zero-copy restore: the served block borrows its columnar arrays
    // from the mmapped snapshot file instead of owning copies.
    const ArtifactsPtr& art = r.value().artifacts();
    std::printf("service B: block mmap-backed=%s, borrowed columns=%s\n",
                art->storage_owner != nullptr ? "yes" : "no",
                art->i1 != nullptr && art->i1->borrowed() ? "yes" : "no");
    if (!identical || warm.warm_hits == 0 || warm.cold_misses != 0) {
      return 1;
    }
  }

  std::printf("ok: explanation state survived a restart\n");
  return 0;
}
