// Snapshot codec: one Stage1Artifacts block <-> one blob of bytes (a
// snapshot file, storage/snapshot_file.h, holds one blob per cache entry).
//
// Blob layout (all integers little-endian):
//
//   +-----------------------------------------------------------+
//   | magic "E3DSNAP1" | version u32 | segment_count u32        |
//   | segment table: {id u32, pad u32, offset u64, length u64,  |
//   |                 checksum u64} x segment_count             |
//   | ...pad to 64...                                           |
//   | segment payloads, each offset 64-byte aligned             |
//   | ...zero pad to 64 (blobs concatenate at aligned offsets)  |
//   +-----------------------------------------------------------+
//
// Segment ids:
//   1        META — ByteWriter stream: cache key, answers, provenance
//            relations, canonical relations, token dictionary (tokens in
//            id order), candidate pairs, interned-relation flags.
//   10..19   i1's ten columnar arrays (matching/token_interning.h
//            InternedColumns order), raw element bytes.
//   20..29   i2's ten columnar arrays.
//
// The columnar segments are written verbatim from the live arrays and
// 64-byte aligned, so the loader can mmap the file and hand
// Span views straight into the mapping to the borrowing InternedRelation
// constructor — the token/offset/classification arrays (the bulk of an
// artifacts block) are verified in place and never copied. The
// META segment (answers, canonical tuples, dictionary strings) is
// deserialized normally; candidates are the one sizeable copied array.
//
// Integrity: every segment carries a Checksum64 in the table; the decoder
// verifies the header, every checksum, and the structural CSR invariants
// (monotone offsets, cross-array sizes, token ids < dictionary size)
// before constructing anything, so a truncated or bit-flipped blob fails
// with Status::Corruption — never a crash or a silently wrong block.

#ifndef EXPLAIN3D_STORAGE_SNAPSHOT_H_
#define EXPLAIN3D_STORAGE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/incumbents.h"
#include "core/matching_context.h"

namespace explain3d {
namespace storage {

/// Current snapshot format version (rejected when newer than the build).
inline constexpr uint32_t kSnapshotVersion = 1;

/// Serializes one artifacts block (with its cache key) to bytes in the
/// format above; the length is a multiple of 64. The block must be
/// complete (i1/i2 may be null only if built without interning — flags
/// record this).
std::vector<uint8_t> EncodeArtifacts(const std::string& key,
                                     const Stage1Artifacts& art);

/// One decoded snapshot entry: the cache key it was stored under and the
/// reconstructed immutable block.
struct DecodedArtifacts {
  std::string key;
  ArtifactsPtr artifacts;
};

/// Decodes the blob at [data, data + size), verifying every checksum and
/// the CSR structure. On success the returned block's i1/i2 borrow their
/// columns from those bytes in place; `owner` (parked in the block's
/// storage_owner) must keep them alive — the snapshot file's mapping.
/// The bytes must be 8-byte aligned.
Result<DecodedArtifacts> DecodeArtifacts(const uint8_t* data, size_t size,
                                         std::shared_ptr<const void> owner);

/// Serializes the incumbent store: a sequence of (key, SolverIncumbents)
/// records behind a magic + checksum header.
std::vector<uint8_t> EncodeIncumbents(
    const std::vector<std::pair<std::string, SolverIncumbents>>& entries);

/// Decodes an incumbent blob; full-buffer checksum verified first.
Result<std::vector<std::pair<std::string, SolverIncumbents>>>
DecodeIncumbents(const uint8_t* data, size_t size);

}  // namespace storage
}  // namespace explain3d

#endif  // EXPLAIN3D_STORAGE_SNAPSHOT_H_
