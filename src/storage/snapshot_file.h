// The snapshot file: a directory's copy of the whole warm cache, in one
// file that is replaced whole.
//
// Explain3DService::SnapshotTo writes the cache into <dir>/snapshot.e3d
// and RestoreFrom reads it back. Layout (integers little-endian):
//
//   +--------------------------------------------------------------+
//   | artifact blobs (storage/snapshot.h, E3DSNAP1), one per cache  |
//   |   entry, back to back from offset 0, each 64-byte aligned     |
//   | incumbent blob (E3DINCB1): every complete incumbent record    |
//   | row table: {offset u64, length u64} per blob — the artifact   |
//   |   blobs in order, then the incumbent blob                     |
//   | footer: table_offset u64 | blob_count u32 | version u32 |     |
//   |   checksum u64 (of the row table and the footer before it) |  |
//   |   magic "E3DFILE1"                                            |
//   +--------------------------------------------------------------+
//
// Entries and records are stored least recently used first — the order
// a restore inserts them in, so the restored cache keeps the snapshot's
// LRU order.
//
// Write: the blobs stream through WriteFileAtomic (storage/io.h) with one
// encoded entry in memory at a time, and the rename of snapshot.e3d.tmp
// over snapshot.e3d is the only commit point. A reader sees the previous
// file or the new one, never a torn one; a crash leaves at most a stray
// .tmp that nothing reads.
//
// Read: the file is mapped once, the footer and the row table are
// checked against the footer checksum, and every blob is verified
// against its own checksums and decoded before anything is returned.
// Damage anywhere outside alignment padding fails the whole read with
// kCorruption; damage inside it changes nothing. Decoded blocks borrow
// their columns from the one shared mapping
// (Stage1Artifacts::storage_owner), which a later snapshot renamed over
// the file leaves intact.

#ifndef EXPLAIN3D_STORAGE_SNAPSHOT_FILE_H_
#define EXPLAIN3D_STORAGE_SNAPSHOT_FILE_H_

#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/incumbents.h"
#include "core/matching_context.h"
#include "storage/snapshot.h"

namespace explain3d {
namespace storage {

/// Name of the snapshot file inside a snapshot directory.
inline constexpr const char* kSnapshotFileName = "snapshot.e3d";

/// Writes `entries` and `incumbents`, least recently used first, as the
/// snapshot file of `dir` (created if missing), atomically replacing any
/// earlier one.
Status WriteSnapshotFile(
    const std::string& dir,
    const std::vector<std::pair<std::string, ArtifactsPtr>>& entries,
    const std::vector<std::pair<std::string, SolverIncumbents>>& incumbents);

/// A decoded snapshot file, in file order (least recently used first).
struct SnapshotContents {
  std::vector<DecodedArtifacts> entries;
  std::vector<std::pair<std::string, SolverIncumbents>> incumbents;
};

/// Reads and verifies the snapshot file of `dir`. A directory without
/// one reads as empty; a damaged file fails with kCorruption.
Result<SnapshotContents> ReadSnapshotFile(const std::string& dir);

}  // namespace storage
}  // namespace explain3d

#endif  // EXPLAIN3D_STORAGE_SNAPSHOT_FILE_H_
