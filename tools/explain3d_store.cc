// explain3d_store: inspect and verify the snapshot file a service wrote
// with SnapshotTo (storage/snapshot_file.h).
//
//   explain3d_store inspect <dir>   the entries and incumbent records,
//                                   least recently used first
//   explain3d_store verify  <dir>   full checksum + decode pass; exit 1
//                                   on damage
//
// Both read the whole file the way RestoreFrom does, so a snapshot that
// passes here restores. Exit codes: 0 ok, 1 snapshot damaged
// (corruption/IO error), 2 usage.

#include <cstdio>
#include <string>

#include "storage/io.h"
#include "storage/snapshot_file.h"

namespace {

using explain3d::Result;
using explain3d::storage::SnapshotContents;

int Inspect(const std::string& dir, const SnapshotContents& image) {
  std::printf("snapshot: %s\n",
              explain3d::storage::JoinPath(
                  dir, explain3d::storage::kSnapshotFileName)
                  .c_str());
  std::printf("entries:  %zu artifact block(s), %zu incumbent record(s), "
              "least recently used first\n",
              image.entries.size(), image.incumbents.size());
  for (const auto& entry : image.entries) {
    std::printf("  block  ~%zu B in memory  |t1|=%zu |t2|=%zu "
                "candidates=%zu  %s\n",
                explain3d::ApproxBytes(*entry.artifacts),
                entry.artifacts->t1.size(), entry.artifacts->t2.size(),
                entry.artifacts->candidates.size(), entry.key.c_str());
  }
  for (const auto& [key, inc] : image.incumbents) {
    std::printf("  record %4zu unit(s)  objective %.17g  %s\n",
                inc.units.size(), inc.objective, key.c_str());
  }
  return 0;
}

int Usage() {
  std::fprintf(stderr, "usage: explain3d_store <inspect|verify> <dir>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) return Usage();
  const std::string command = argv[1];
  if (command != "inspect" && command != "verify") return Usage();
  const std::string dir = argv[2];
  Result<SnapshotContents> image =
      explain3d::storage::ReadSnapshotFile(dir);
  if (!image.ok()) {
    std::fprintf(stderr, "explain3d_store: %s\n",
                 image.status().ToString().c_str());
    return 1;
  }
  if (command == "inspect") return Inspect(dir, image.value());
  std::printf("ok: %zu artifact block(s) and %zu incumbent record(s) pass "
              "every checksum and structure check\n",
              image.value().entries.size(),
              image.value().incumbents.size());
  return 0;
}
