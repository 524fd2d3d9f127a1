#include "storage/snapshot_file.h"

#include <cstring>
#include <memory>

#include "storage/bytes.h"
#include "storage/checksum.h"
#include "storage/io.h"

namespace explain3d {
namespace storage {

namespace {

constexpr char kMagic[8] = {'E', '3', 'D', 'F', 'I', 'L', 'E', '1'};
constexpr uint32_t kVersion = 1;
constexpr size_t kRowBytes = 16;
constexpr size_t kFooterBytes = 32;
// Artifact blobs start 64-byte aligned, so their columns do too inside
// the (page-aligned) mapping.
constexpr size_t kAlign = 64;

Status Corrupt(const char* what) {
  return Status::Corruption(std::string("snapshot file: ") + what);
}

}  // namespace

Status WriteSnapshotFile(
    const std::string& dir,
    const std::vector<std::pair<std::string, ArtifactsPtr>>& entries,
    const std::vector<std::pair<std::string, SolverIncumbents>>& incumbents) {
  E3D_RETURN_IF_ERROR(EnsureDirectory(dir));
  return WriteFileAtomic(
      JoinPath(dir, kSnapshotFileName), [&](const ByteSink& sink) -> Status {
        ByteWriter tail;  // the row table, then the footer
        uint64_t offset = 0;
        auto put = [&](const std::vector<uint8_t>& blob) {
          tail.PutU64(offset);
          tail.PutU64(blob.size());
          offset += blob.size();
          return sink(blob.data(), blob.size());
        };
        // Each artifact blob's length is a multiple of 64, so the next
        // one starts aligned; only one is held in memory at a time.
        for (const auto& [key, art] : entries) {
          E3D_RETURN_IF_ERROR(put(EncodeArtifacts(key, *art)));
        }
        E3D_RETURN_IF_ERROR(put(EncodeIncumbents(incumbents)));
        tail.PutU64(offset);
        tail.PutU32(static_cast<uint32_t>(entries.size()));
        tail.PutU32(kVersion);
        tail.PutU64(Checksum64(tail.bytes().data(), tail.size()));
        std::vector<uint8_t> bytes = tail.Take();
        bytes.insert(bytes.end(), kMagic, kMagic + sizeof(kMagic));
        return sink(bytes.data(), bytes.size());
      });
}

Result<SnapshotContents> ReadSnapshotFile(const std::string& dir) {
  const std::string path = JoinPath(dir, kSnapshotFileName);
  SnapshotContents out;
  if (!FileExists(path)) return out;  // nothing snapshotted here yet
  E3D_ASSIGN_OR_RETURN(MmapFile mapped, MmapFile::Open(path));
  auto file = std::make_shared<const MmapFile>(std::move(mapped));
  const uint8_t* data = file->data();
  const size_t size = file->size();

  if (size < kFooterBytes) return Corrupt("shorter than its footer");
  const uint8_t* footer = data + size - kFooterBytes;
  uint64_t table_offset = 0, checksum = 0;
  uint32_t blob_count = 0, version = 0;
  std::memcpy(&table_offset, footer, 8);
  std::memcpy(&blob_count, footer + 8, 4);
  std::memcpy(&version, footer + 12, 4);
  std::memcpy(&checksum, footer + 16, 8);
  if (std::memcmp(footer + 24, kMagic, sizeof(kMagic)) != 0) {
    return Corrupt("bad magic");
  }
  if (version == 0 || version > kVersion) {
    return Corrupt("unsupported format version");
  }
  const uint64_t rows = uint64_t{blob_count} + 1;  // + the incumbent blob
  if (table_offset > size - kFooterBytes ||
      size - kFooterBytes - table_offset != rows * kRowBytes) {
    return Corrupt("row table does not fit the file");
  }
  if (Checksum64(data + table_offset, size - 16 - table_offset) != checksum) {
    return Corrupt("row table checksum mismatch");
  }

  for (uint64_t i = 0; i < rows; ++i) {
    const uint8_t* row = data + table_offset + i * kRowBytes;
    uint64_t offset = 0, length = 0;
    std::memcpy(&offset, row, 8);
    std::memcpy(&length, row + 8, 8);
    if (offset > table_offset || length > table_offset - offset) {
      return Corrupt("blob extends past the row table");
    }
    if (i == blob_count) {
      E3D_ASSIGN_OR_RETURN(out.incumbents,
                           DecodeIncumbents(data + offset, length));
    } else {
      if (offset % kAlign != 0) return Corrupt("misaligned artifact blob");
      E3D_ASSIGN_OR_RETURN(DecodedArtifacts decoded,
                           DecodeArtifacts(data + offset, length, file));
      out.entries.push_back(std::move(decoded));
    }
  }
  return out;
}

}  // namespace storage
}  // namespace explain3d
