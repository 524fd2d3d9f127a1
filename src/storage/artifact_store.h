// ArtifactStore: a crash-consistent directory of snapshot files.
//
// Directory layout:
//   MANIFEST        committed state: the list of live files with sizes
//                   and whole-file checksums, itself checksummed and
//                   replaced only by atomic rename — the commit point.
//   art-<hex>.e3ds  one Stage1Artifacts snapshot (storage/snapshot.h),
//                   named by the checksum of its cache key.
//   incumbents.e3di the solver-incumbent records, rewritten per commit.
//   *.tmp           in-flight atomic writes; ignored by open, removed
//                   by GarbageCollect (as is any other file the manifest
//                   does not name).
//
// Write protocol: PutArtifacts/PutIncumbents write (or stage) data files
// via WriteFileAtomic, then Commit() writes the incumbent file and the
// new MANIFEST (write tmp → fsync → rename → fsync dir); that rename is
// the only commit point. A crash at ANY point leaves the previous
// manifest intact, so a reopened store sees the last committed state;
// data files not yet named by a manifest are invisible and reclaimed by
// GC. The storage.write / storage.fsync / storage.rename fault probes
// (storage/io.cc) simulate each crash window deterministically.
//
// Readers (LoadArtifacts/LoadAllArtifacts) mmap each file and verify
// every segment checksum before constructing the block; any mismatch is
// kCorruption. The store itself is not thread-safe, and two stores open
// on one directory race their commits (they share temp-file names);
// Explain3DService::SnapshotTo serializes its stores on one mutex.

#ifndef EXPLAIN3D_STORAGE_ARTIFACT_STORE_H_
#define EXPLAIN3D_STORAGE_ARTIFACT_STORE_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/incumbents.h"
#include "core/matching_context.h"
#include "storage/snapshot.h"

namespace explain3d {
namespace storage {

/// One manifest row: a live file and its committed size/checksum.
struct ManifestEntry {
  std::string file;
  uint64_t size = 0;
  uint64_t checksum = 0;
};

/// Inspection summary (the CLI `inspect` path).
struct StoreInfo {
  uint64_t commit_seq = 0;              ///< last committed sequence number
  std::vector<ManifestEntry> files;     ///< committed files, manifest order
  size_t orphan_files = 0;              ///< on-disk files not in the manifest
};

class ArtifactStore {
 public:
  /// Opens (creating if needed) the store at `dir`: loads the committed
  /// manifest, and fails with kCorruption when it is damaged.
  static Result<ArtifactStore> Open(const std::string& dir);

  ArtifactStore(ArtifactStore&&) = default;
  ArtifactStore& operator=(ArtifactStore&&) = default;

  /// Writes one artifact snapshot file and stages it for the next
  /// Commit(). Overwrites a previous snapshot of the same key.
  Status PutArtifacts(const std::string& key, const Stage1Artifacts& art);

  /// Stages one incumbent record (written as a single file at Commit).
  /// Ignored unless `inc.complete`.
  void PutIncumbents(const std::string& key, const SolverIncumbents& inc);

  /// Publishes everything staged since the last commit: writes the
  /// incumbent file and atomically replaces MANIFEST. On failure the
  /// previously committed state is still intact.
  Status Commit();

  /// Decodes every committed artifact snapshot (mmap + checksum verify).
  /// Files that fail verification abort the load with their error —
  /// callers distinguish "empty store" from "damaged store".
  Result<std::vector<DecodedArtifacts>> LoadAllArtifacts() const;

  /// Decodes the committed incumbent records (empty when none).
  Result<std::vector<std::pair<std::string, SolverIncumbents>>>
  LoadIncumbents() const;

  /// Full checksum pass over every committed file (manifest sizes +
  /// checksums + per-segment checksums). OK only when everything holds.
  Status VerifyAll() const;

  /// Deletes on-disk files that no committed manifest names (orphans of
  /// crashed commits, stray .tmp files). Returns how many were removed.
  Result<size_t> GarbageCollect();

  /// Manifest + directory summary for inspection tooling.
  Result<StoreInfo> Info() const;

  const std::string& dir() const { return dir_; }
  uint64_t commit_seq() const { return commit_seq_; }

 private:
  explicit ArtifactStore(std::string dir) : dir_(std::move(dir)) {}

  Status LoadManifest();
  std::string PathOf(const std::string& file) const;

  std::string dir_;
  uint64_t commit_seq_ = 0;
  /// Committed state: file name -> {size, checksum}.
  std::map<std::string, ManifestEntry> manifest_;
  /// Staged but uncommitted artifact files (already on disk, unnamed by
  /// the manifest until Commit).
  std::map<std::string, ManifestEntry> staged_;
  /// Full incumbent map (committed + staged); rewritten at Commit.
  std::map<std::string, SolverIncumbents> incumbents_;
  bool incumbents_dirty_ = false;
};

/// Snapshot file name for a cache key: "art-<hex16>.e3ds".
std::string ArtifactFileName(const std::string& key);

}  // namespace storage
}  // namespace explain3d

#endif  // EXPLAIN3D_STORAGE_ARTIFACT_STORE_H_
