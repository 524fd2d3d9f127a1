// Low-level file I/O for the persistence tier: atomic whole-file writes
// and read-only memory mappings.
//
// Crash-consistency protocol (write side):
//   1. write the full payload to `<path>.tmp`
//   2. fsync the tmp file (payload durable, name not yet visible)
//   3. rename(tmp, path)  -- atomic on POSIX: readers see old or new, never
//      a partial file
//   4. fsync the containing directory (the rename itself durable)
// A crash between any two steps leaves either the old file intact or a
// stray `.tmp` that open/GC ignores; it never leaves a torn `path`.
//
// Fault probes (common/fault.h) let tests simulate each crash window
// deterministically:
//   storage.write  -- the payload write tears: a half-length prefix lands
//                     in the tmp file and the call fails kIOError
//   storage.fsync  -- fsync fails after a complete write (data may not be
//                     durable); the rename is NOT performed
//   storage.rename -- the rename step fails; tmp is left behind
// All three model "the process died mid-commit": the destination path is
// never replaced, which is exactly the invariant the crash-consistency
// sweep asserts.

#ifndef EXPLAIN3D_STORAGE_IO_H_
#define EXPLAIN3D_STORAGE_IO_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace explain3d {
namespace storage {

/// \brief Read-only memory mapping of a whole file (RAII).
///
/// Movable, not copyable. The mapping stays valid for the lifetime of the
/// object; snapshot loads park a shared_ptr<MmapFile> in
/// Stage1Artifacts::storage_owner so borrowed CSR spans outlive every
/// ArtifactsPtr view. Empty files map to a null data() with size() == 0.
class MmapFile {
 public:
  MmapFile() = default;
  ~MmapFile();
  MmapFile(MmapFile&& o) noexcept;
  MmapFile& operator=(MmapFile&& o) noexcept;
  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;

  /// Maps `path` read-only. kIOError when the file cannot be opened,
  /// stat'ed, or mapped.
  static Result<MmapFile> Open(const std::string& path);

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }

 private:
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

/// Writes `len` bytes to `path` via the tmp-fsync-rename protocol above.
/// On any failure the previous contents of `path` (if any) are intact.
Status WriteFileAtomic(const std::string& path, const void* data, size_t len);

/// Reads a whole file into memory (for small files: manifest, incumbents).
Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path);

/// Creates `dir` (and parents). OK when it already exists as a directory.
Status EnsureDirectory(const std::string& dir);

/// Names (not paths) of regular files directly inside `dir`, sorted.
Result<std::vector<std::string>> ListDirectoryFiles(const std::string& dir);

/// Deletes `path` if it exists; missing files are OK (idempotent GC).
Status RemoveFileIfExists(const std::string& path);

/// True when a regular file exists at `path`.
bool FileExists(const std::string& path);

/// Joins a directory and a file name with exactly one separator.
std::string JoinPath(const std::string& dir, const std::string& name);

}  // namespace storage
}  // namespace explain3d

#endif  // EXPLAIN3D_STORAGE_IO_H_
