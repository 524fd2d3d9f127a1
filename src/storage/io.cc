#include "storage/io.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "common/fault.h"

namespace explain3d {
namespace storage {

namespace {

Status ErrnoStatus(const std::string& op, const std::string& path) {
  return Status::IOError(op + " failed for '" + path +
                         "': " + std::strerror(errno));
}

// Writes all of [data, data+len) to fd, retrying short writes.
Status WriteAll(int fd, const std::string& path, const void* data,
                size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  size_t left = len;
  while (left > 0) {
    ssize_t n = ::write(fd, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("write", path);
    }
    p += static_cast<size_t>(n);
    left -= static_cast<size_t>(n);
  }
  return Status::OK();
}

Status FsyncFd(int fd, const std::string& path) {
  if (::fsync(fd) != 0) return ErrnoStatus("fsync", path);
  return Status::OK();
}

// fsync on the directory makes a completed rename durable.
Status FsyncDirectoryOf(const std::string& path) {
  std::string dir = std::filesystem::path(path).parent_path().string();
  if (dir.empty()) dir = ".";
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return ErrnoStatus("open dir", dir);
  Status st = FsyncFd(fd, dir);
  ::close(fd);
  return st;
}

}  // namespace

MmapFile::~MmapFile() {
  if (data_ != nullptr) {
    ::munmap(const_cast<uint8_t*>(data_), size_);
  }
}

MmapFile::MmapFile(MmapFile&& o) noexcept : data_(o.data_), size_(o.size_) {
  o.data_ = nullptr;
  o.size_ = 0;
}

MmapFile& MmapFile::operator=(MmapFile&& o) noexcept {
  if (this != &o) {
    if (data_ != nullptr) ::munmap(const_cast<uint8_t*>(data_), size_);
    data_ = o.data_;
    size_ = o.size_;
    o.data_ = nullptr;
    o.size_ = 0;
  }
  return *this;
}

Result<MmapFile> MmapFile::Open(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return ErrnoStatus("open", path);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    Status s = ErrnoStatus("fstat", path);
    ::close(fd);
    return s;
  }
  MmapFile f;
  f.size_ = static_cast<size_t>(st.st_size);
  if (f.size_ > 0) {
    void* p = ::mmap(nullptr, f.size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (p == MAP_FAILED) {
      Status s = ErrnoStatus("mmap", path);
      f.size_ = 0;
      ::close(fd);
      return s;
    }
    f.data_ = static_cast<const uint8_t*>(p);
  }
  ::close(fd);  // the mapping survives the fd
  return f;
}

Status WriteFileAtomic(const std::string& path,
                       const std::function<Status(const ByteSink&)>& fill) {
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return ErrnoStatus("open", tmp);

  // Crash window 1: the payload write tears. The probe lets half of the
  // stream's first write land — a torn tmp that must never become `path`.
  // A failed write sticks, so the file is not published even if `fill`
  // ignores the error.
  const bool tear = FAULT_FIRED("storage.write");
  Status written;
  Status st = fill([&](const void* data, size_t len) {
    if (!written.ok()) return written;
    if (tear) {
      Status ignored = WriteAll(fd, tmp, data, len / 2);
      (void)ignored;
      written = Status::IOError("injected torn write for '" + tmp + "'");
    } else {
      written = WriteAll(fd, tmp, data, len);
    }
    return written;
  });
  if (st.ok()) st = written;
  if (!st.ok()) {
    ::close(fd);
    return st;
  }

  // Crash window 2: data written but not durable; abort before rename.
  if (FAULT_FIRED("storage.fsync")) {
    ::close(fd);
    return Status::IOError("injected fsync failure for '" + tmp + "'");
  }
  st = FsyncFd(fd, tmp);
  ::close(fd);
  E3D_RETURN_IF_ERROR(st);

  // Crash window 3: durable tmp exists but was never published.
  if (FAULT_FIRED("storage.rename")) {
    return Status::IOError("injected rename failure for '" + tmp + "'");
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return ErrnoStatus("rename", tmp);
  }
  return FsyncDirectoryOf(path);
}

Status EnsureDirectory(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("create_directories failed for '" + dir +
                           "': " + ec.message());
  }
  return Status::OK();
}

bool FileExists(const std::string& path) {
  std::error_code ec;
  return std::filesystem::is_regular_file(path, ec) && !ec;
}

std::string JoinPath(const std::string& dir, const std::string& name) {
  if (dir.empty()) return name;
  if (dir.back() == '/') return dir + name;
  return dir + "/" + name;
}

}  // namespace storage
}  // namespace explain3d
