// Low-level file I/O for the persistence tier: atomic whole-file writes
// and read-only memory mappings.
//
// Crash-consistency protocol (write side):
//   1. stream the full payload into `<path>.tmp`
//   2. fsync the tmp file (payload durable, name not yet visible)
//   3. rename(tmp, path)  -- atomic on POSIX: readers see old or new, never
//      a partial file
//   4. fsync the containing directory (the rename itself durable)
// A crash between any two steps leaves either the old file intact or a
// stray `.tmp` that readers never open (the next write truncates it); it
// never leaves a torn `path`. A reader that mapped the old file keeps its
// pages: the rename unlinks the name, not the mapped inode.
//
// Fault probes (common/fault.h) let tests simulate each crash window
// deterministically:
//   storage.write  -- the payload write tears: half of the stream's first
//                     write lands in the tmp file and the call fails
//                     kIOError
//   storage.fsync  -- fsync fails after a complete write (data may not be
//                     durable); the rename is NOT performed
//   storage.rename -- the rename step fails; tmp is left behind
// All three model "the process died mid-write": the destination path is
// never replaced, which is exactly the invariant the crash-consistency
// sweep asserts.

#ifndef EXPLAIN3D_STORAGE_IO_H_
#define EXPLAIN3D_STORAGE_IO_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

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

/// Appends `len` bytes to the file being written by WriteFileAtomic.
using ByteSink = std::function<Status(const void* data, size_t len)>;

/// Writes a file to `path` via the tmp-fsync-rename protocol above.
/// `fill` streams the payload through the sink it is handed, in as many
/// pieces as it likes, so the caller never holds the whole file in
/// memory; a `fill` that fails aborts the write before the rename. On
/// any failure the previous contents of `path` (if any) are intact.
Status WriteFileAtomic(const std::string& path,
                       const std::function<Status(const ByteSink&)>& fill);

/// Creates `dir` (and parents). OK when it already exists as a directory.
Status EnsureDirectory(const std::string& dir);

/// True when a regular file exists at `path`.
bool FileExists(const std::string& path);

/// Joins a directory and a file name with exactly one separator.
std::string JoinPath(const std::string& dir, const std::string& name);

}  // namespace storage
}  // namespace explain3d

#endif  // EXPLAIN3D_STORAGE_IO_H_
