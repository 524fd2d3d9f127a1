#include "storage/artifact_store.h"

#include <cstdio>
#include <cstring>
#include <memory>

#include "storage/bytes.h"
#include "storage/checksum.h"
#include "storage/io.h"

namespace explain3d {
namespace storage {

namespace {

constexpr char kManifestMagic[8] = {'E', '3', 'D', 'M', 'A', 'N', 'I', '1'};
constexpr uint32_t kManifestVersion = 1;
constexpr const char* kManifestName = "MANIFEST";
constexpr const char* kIncumbentsName = "incumbents.e3di";
constexpr const char* kArtifactPrefix = "art-";
constexpr const char* kArtifactSuffix = ".e3ds";

bool IsArtifactFile(const std::string& name) {
  return name.rfind(kArtifactPrefix, 0) == 0 &&
         name.size() > std::strlen(kArtifactSuffix) &&
         name.compare(name.size() - std::strlen(kArtifactSuffix),
                      std::string::npos, kArtifactSuffix) == 0;
}

std::vector<uint8_t> EncodeManifest(
    uint64_t commit_seq, const std::map<std::string, ManifestEntry>& files) {
  ByteWriter w;
  w.PutU64(commit_seq);
  w.PutU32(static_cast<uint32_t>(files.size()));
  for (const auto& [name, e] : files) {
    w.PutString(name);
    w.PutU64(e.size);
    w.PutU64(e.checksum);
  }
  std::vector<uint8_t> payload = w.Take();
  std::vector<uint8_t> buf(8 + 4 + 8 + payload.size(), 0);
  std::memcpy(buf.data(), kManifestMagic, 8);
  std::memcpy(buf.data() + 8, &kManifestVersion, 4);
  uint64_t checksum = Checksum64(payload.data(), payload.size());
  std::memcpy(buf.data() + 12, &checksum, 8);
  if (!payload.empty()) {
    std::memcpy(buf.data() + 20, payload.data(), payload.size());
  }
  return buf;
}

Status DecodeManifest(const std::vector<uint8_t>& bytes, uint64_t* commit_seq,
                      std::map<std::string, ManifestEntry>* files) {
  if (bytes.size() < 20) {
    return Status::Corruption("manifest shorter than header");
  }
  if (std::memcmp(bytes.data(), kManifestMagic, 8) != 0) {
    return Status::Corruption("manifest bad magic");
  }
  uint32_t version = 0;
  uint64_t checksum = 0;
  std::memcpy(&version, bytes.data() + 8, 4);
  std::memcpy(&checksum, bytes.data() + 12, 8);
  if (version == 0 || version > kManifestVersion) {
    return Status::Corruption("manifest unsupported version");
  }
  if (Checksum64(bytes.data() + 20, bytes.size() - 20) != checksum) {
    return Status::Corruption("manifest checksum mismatch");
  }
  ByteReader r(bytes.data() + 20, bytes.size() - 20);
  E3D_RETURN_IF_ERROR(r.ReadU64(commit_seq));
  size_t n = 0;
  E3D_RETURN_IF_ERROR(r.ReadCount(20, &n));
  files->clear();
  for (size_t i = 0; i < n; ++i) {
    ManifestEntry e;
    E3D_RETURN_IF_ERROR(r.ReadString(&e.file));
    E3D_RETURN_IF_ERROR(r.ReadU64(&e.size));
    E3D_RETURN_IF_ERROR(r.ReadU64(&e.checksum));
    (*files)[e.file] = std::move(e);
  }
  return Status::OK();
}

}  // namespace

std::string ArtifactFileName(const std::string& key) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%s%016llx%s", kArtifactPrefix,
                static_cast<unsigned long long>(
                    Checksum64(key.data(), key.size())),
                kArtifactSuffix);
  return std::string(buf);
}

Result<ArtifactStore> ArtifactStore::Open(const std::string& dir) {
  E3D_RETURN_IF_ERROR(EnsureDirectory(dir));
  ArtifactStore store(dir);
  E3D_RETURN_IF_ERROR(store.LoadManifest());
  // Seed the staged incumbent map from the committed file so a partial
  // update rewrites the union, not just the delta.
  E3D_ASSIGN_OR_RETURN(auto committed, store.LoadIncumbents());
  for (auto& [key, inc] : committed) {
    store.incumbents_[key] = std::move(inc);
  }
  return store;
}

std::string ArtifactStore::PathOf(const std::string& file) const {
  return JoinPath(dir_, file);
}

Status ArtifactStore::LoadManifest() {
  const std::string path = PathOf(kManifestName);
  if (!FileExists(path)) return Status::OK();  // fresh store
  E3D_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, ReadFileBytes(path));
  return DecodeManifest(bytes, &commit_seq_, &manifest_);
}

Status ArtifactStore::PutArtifacts(const std::string& key,
                                   const Stage1Artifacts& art) {
  std::vector<uint8_t> bytes = EncodeArtifacts(key, art);
  const std::string file = ArtifactFileName(key);
  E3D_RETURN_IF_ERROR(WriteFileAtomic(PathOf(file), bytes.data(),
                                      bytes.size()));
  ManifestEntry e;
  e.file = file;
  e.size = bytes.size();
  e.checksum = Checksum64(bytes.data(), bytes.size());
  staged_[file] = std::move(e);
  return Status::OK();
}

void ArtifactStore::PutIncumbents(const std::string& key,
                                  const SolverIncumbents& inc) {
  if (!inc.complete) return;
  incumbents_[key] = inc;
  incumbents_dirty_ = true;
}

Status ArtifactStore::Commit() {
  if (incumbents_dirty_) {
    std::vector<std::pair<std::string, SolverIncumbents>> entries(
        incumbents_.begin(), incumbents_.end());
    std::vector<uint8_t> bytes = EncodeIncumbents(entries);
    E3D_RETURN_IF_ERROR(WriteFileAtomic(PathOf(kIncumbentsName), bytes.data(),
                                        bytes.size()));
    ManifestEntry e;
    e.file = kIncumbentsName;
    e.size = bytes.size();
    e.checksum = Checksum64(bytes.data(), bytes.size());
    staged_[e.file] = std::move(e);
    incumbents_dirty_ = false;
  }
  if (staged_.empty()) return Status::OK();  // nothing new since last commit

  std::map<std::string, ManifestEntry> next = manifest_;
  for (const auto& [name, e] : staged_) next[name] = e;
  const uint64_t next_seq = commit_seq_ + 1;
  std::vector<uint8_t> bytes = EncodeManifest(next_seq, next);
  // THE commit point: until this rename lands, a crash leaves the old
  // manifest (and thus the old committed state) fully intact.
  E3D_RETURN_IF_ERROR(WriteFileAtomic(PathOf(kManifestName), bytes.data(),
                                      bytes.size()));
  manifest_ = std::move(next);
  commit_seq_ = next_seq;
  staged_.clear();
  return Status::OK();
}

Result<std::vector<DecodedArtifacts>> ArtifactStore::LoadAllArtifacts()
    const {
  std::vector<DecodedArtifacts> out;
  for (const auto& [name, e] : manifest_) {
    if (!IsArtifactFile(name)) continue;
    E3D_ASSIGN_OR_RETURN(MmapFile mapped, MmapFile::Open(PathOf(name)));
    if (mapped.size() != e.size) {
      return Status::Corruption("snapshot '" + name +
                                "' size differs from manifest");
    }
    auto file = std::make_shared<MmapFile>(std::move(mapped));
    E3D_ASSIGN_OR_RETURN(DecodedArtifacts decoded,
                         DecodeArtifacts(std::move(file)));
    out.push_back(std::move(decoded));
  }
  return out;
}

Result<std::vector<std::pair<std::string, SolverIncumbents>>>
ArtifactStore::LoadIncumbents() const {
  auto it = manifest_.find(kIncumbentsName);
  if (it == manifest_.end()) {
    return std::vector<std::pair<std::string, SolverIncumbents>>{};
  }
  E3D_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                       ReadFileBytes(PathOf(kIncumbentsName)));
  if (bytes.size() != it->second.size ||
      Checksum64(bytes.data(), bytes.size()) != it->second.checksum) {
    return Status::Corruption("incumbent file differs from manifest");
  }
  return DecodeIncumbents(bytes.data(), bytes.size());
}

Status ArtifactStore::VerifyAll() const {
  for (const auto& [name, e] : manifest_) {
    const std::string path = PathOf(name);
    if (!FileExists(path)) {
      return Status::Corruption("committed file missing: " + name);
    }
    E3D_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, ReadFileBytes(path));
    if (bytes.size() != e.size) {
      return Status::Corruption("size mismatch for " + name);
    }
    if (Checksum64(bytes.data(), bytes.size()) != e.checksum) {
      return Status::Corruption("whole-file checksum mismatch for " + name);
    }
    if (IsArtifactFile(name)) {
      E3D_RETURN_IF_ERROR(VerifySnapshotBytes(bytes.data(), bytes.size()));
    } else if (name == kIncumbentsName) {
      E3D_RETURN_IF_ERROR(
          DecodeIncumbents(bytes.data(), bytes.size()).status());
    }
  }
  return Status::OK();
}

Result<size_t> ArtifactStore::GarbageCollect() {
  E3D_ASSIGN_OR_RETURN(std::vector<std::string> names,
                       ListDirectoryFiles(dir_));
  size_t removed = 0;
  for (const std::string& name : names) {
    if (name == kManifestName) continue;
    if (manifest_.count(name) > 0 || staged_.count(name) > 0) continue;
    E3D_RETURN_IF_ERROR(RemoveFileIfExists(PathOf(name)));
    ++removed;
  }
  return removed;
}

Result<StoreInfo> ArtifactStore::Info() const {
  StoreInfo info;
  info.commit_seq = commit_seq_;
  for (const auto& [name, e] : manifest_) info.files.push_back(e);
  E3D_ASSIGN_OR_RETURN(std::vector<std::string> names,
                       ListDirectoryFiles(dir_));
  for (const std::string& name : names) {
    if (name == kManifestName) continue;
    if (manifest_.count(name) == 0) ++info.orphan_files;
  }
  return info;
}

}  // namespace storage
}  // namespace explain3d
