// Persistence-tier tests (src/storage/): snapshot codec round-trips are
// bit-identical and zero-copy (decoded columns point INTO the mapping);
// truncated or bit-flipped bytes are rejected with kCorruption, never a
// crash or a silently different block; a snapshot file is replaced only
// by its rename, which survives a 100-seed injected-fault sweep over
// every crash window (storage.write / storage.fsync / storage.rename); a
// service restarted over a snapshot answers its first repeated request
// from the warm cache, bit-identically, with warm-started solves; a
// restore brings back exactly the cache at the last snapshot, in its LRU
// order; and re-snapshotting over the file a service has mapped, or from
// two threads at once, leaves everything serving and the file clean.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "core/matching_context.h"
#include "core/pipeline.h"
#include "datagen/synthetic.h"
#include "eval/gold.h"
#include "service/service.h"
#include "storage/checksum.h"
#include "storage/content_hash.h"
#include "storage/io.h"
#include "storage/snapshot.h"
#include "storage/snapshot_file.h"

namespace explain3d {
namespace {

using storage::Checksum64;
using storage::DecodedArtifacts;
using storage::MmapFile;
using storage::SnapshotContents;

SyntheticDataset MakeData(uint64_t seed, size_t n = 60) {
  SyntheticOptions gen;
  gen.n = n;
  gen.d = 0.25;
  gen.v = 120;
  gen.seed = seed;
  return GenerateSynthetic(gen).value();
}

/// Runs stage 1+2 over `data` with a caching context and returns the
/// cached (key, block) pair — the exact thing the persistence tier
/// snapshots in production.
std::pair<std::string, ArtifactsPtr> BuildArtifacts(
    const SyntheticDataset& data) {
  MatchingContext ctx;
  PipelineInput input;
  input.db1 = &data.db1;
  input.db2 = &data.db2;
  input.sql1 = data.sql1;
  input.sql2 = data.sql2;
  input.attr_matches = data.attr_matches;
  input.mapping_options.min_probability = 1e-4;
  input.calibration_oracle =
      MakeRowEntityOracle(data.row_entities1, data.row_entities2);
  input.matching_context = &ctx;
  Explain3DConfig config;
  config.num_threads = 1;
  EXPECT_TRUE(RunExplain3D(input, config).ok());
  auto entries = ctx.Entries();
  EXPECT_EQ(entries.size(), 1u);
  return entries.front();
}

void ExpectTablesEqual(const Table& a, const Table& b) {
  EXPECT_EQ(a.name(), b.name());
  ASSERT_EQ(a.schema().num_columns(), b.schema().num_columns());
  for (size_t c = 0; c < a.schema().num_columns(); ++c) {
    EXPECT_EQ(a.schema().column(c).name, b.schema().column(c).name);
    EXPECT_EQ(a.schema().column(c).type, b.schema().column(c).type);
  }
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (size_t r = 0; r < a.num_rows(); ++r) {
    ASSERT_EQ(a.row(r).size(), b.row(r).size()) << "row " << r;
    for (size_t c = 0; c < a.row(r).size(); ++c) {
      EXPECT_EQ(a.row(r)[c], b.row(r)[c]) << "row " << r << " col " << c;
    }
  }
}

void ExpectCanonicalEqual(const CanonicalRelation& a,
                          const CanonicalRelation& b) {
  EXPECT_EQ(a.key_attrs, b.key_attrs);
  EXPECT_EQ(a.agg, b.agg);
  EXPECT_EQ(a.integral_impacts, b.integral_impacts);
  ASSERT_EQ(a.tuples.size(), b.tuples.size());
  for (size_t i = 0; i < a.tuples.size(); ++i) {
    ASSERT_EQ(a.tuples[i].key.size(), b.tuples[i].key.size()) << i;
    for (size_t c = 0; c < a.tuples[i].key.size(); ++c) {
      EXPECT_EQ(a.tuples[i].key[c], b.tuples[i].key[c]) << i;
    }
    EXPECT_EQ(a.tuples[i].impact, b.tuples[i].impact) << i;
    EXPECT_EQ(a.tuples[i].prov_rows, b.tuples[i].prov_rows) << i;
  }
}

template <typename T>
void ExpectSpansEqual(Span<const T> a, Span<const T> b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  if (a.size() > 0) {
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(T)), 0)
        << what;
  }
}

void ExpectArtifactsBitIdentical(const Stage1Artifacts& a,
                                 const Stage1Artifacts& b) {
  EXPECT_EQ(a.answer1, b.answer1);
  EXPECT_EQ(a.answer2, b.answer2);
  ExpectTablesEqual(a.p1.table, b.p1.table);
  ExpectTablesEqual(a.p2.table, b.p2.table);
  EXPECT_EQ(a.p1.impact, b.p1.impact);
  EXPECT_EQ(a.p2.impact, b.p2.impact);
  EXPECT_EQ(a.p1.agg, b.p1.agg);
  EXPECT_EQ(a.p1.integral_impacts, b.p1.integral_impacts);
  ExpectCanonicalEqual(a.t1, b.t1);
  ExpectCanonicalEqual(a.t2, b.t2);
  ASSERT_EQ(a.dict.size(), b.dict.size());
  for (uint32_t id = 0; id < a.dict.size(); ++id) {
    EXPECT_EQ(a.dict.token(id), b.dict.token(id)) << "token " << id;
  }
  EXPECT_EQ(a.candidates, b.candidates);
  ASSERT_EQ(a.i1 != nullptr, b.i1 != nullptr);
  ASSERT_EQ(a.i2 != nullptr, b.i2 != nullptr);
  if (a.i1 != nullptr) {
    InternedColumns ca = a.i1->columns(), cb = b.i1->columns();
    ExpectSpansEqual(ca.token_ids, cb.token_ids, "i1.token_ids");
    ExpectSpansEqual(ca.cell_starts, cb.cell_starts, "i1.cell_starts");
    ExpectSpansEqual(ca.tuple_cell_starts, cb.tuple_cell_starts,
                     "i1.tuple_cell_starts");
    ExpectSpansEqual(ca.key_union_ids, cb.key_union_ids, "i1.key_union_ids");
    ExpectSpansEqual(ca.key_union_starts, cb.key_union_starts,
                     "i1.key_union_starts");
    ExpectSpansEqual(ca.bag_ids, cb.bag_ids, "i1.bag_ids");
    ExpectSpansEqual(ca.bag_starts, cb.bag_starts, "i1.bag_starts");
    ExpectSpansEqual(ca.cell_kinds, cb.cell_kinds, "i1.cell_kinds");
    ExpectSpansEqual(ca.cell_coercible, cb.cell_coercible,
                     "i1.cell_coercible");
    ExpectSpansEqual(ca.cell_numeric, cb.cell_numeric, "i1.cell_numeric");
  }
  if (a.i2 != nullptr) {
    InternedColumns ca = a.i2->columns(), cb = b.i2->columns();
    ExpectSpansEqual(ca.token_ids, cb.token_ids, "i2.token_ids");
    ExpectSpansEqual(ca.cell_numeric, cb.cell_numeric, "i2.cell_numeric");
    ExpectSpansEqual(ca.bag_ids, cb.bag_ids, "i2.bag_ids");
  }
}

std::string TempPath(const std::string& name) {
  return storage::JoinPath(::testing::TempDir(), name);
}

/// TempDir() persists across runs of the binary; a store directory must
/// start empty or a leftover snapshot from a previous run restores into
/// the test's "fresh" service.
std::string FreshDir(const std::string& name) {
  std::string dir = TempPath(name);
  std::filesystem::remove_all(dir);
  return dir;
}

std::string SnapshotPath(const std::string& dir) {
  return storage::JoinPath(dir, storage::kSnapshotFileName);
}

/// Names of the files in `dir`, sorted.
std::vector<std::string> FilesIn(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::vector<uint8_t> ReadBytes(const std::string& path) {
  MmapFile file = MmapFile::Open(path).value();
  return std::vector<uint8_t>(file.data(), file.data() + file.size());
}

/// Replaces the file at `path` with the first `len` of `bytes`. The
/// atomic rename gives it a new inode, so a restored cache that maps the
/// old file keeps its pages.
void ReplaceFile(const std::string& path, const std::vector<uint8_t>& bytes,
                 size_t len) {
  Status written =
      storage::WriteFileAtomic(path, [&](const storage::ByteSink& sink) {
        return sink(bytes.data(), len);
      });
  ASSERT_TRUE(written.ok()) << written.ToString();
}

/// Flips one byte in the middle of the snapshot file in `dir`.
void DamageSnapshotFile(const std::string& dir) {
  std::vector<uint8_t> bytes = ReadBytes(SnapshotPath(dir));
  ASSERT_FALSE(bytes.empty());
  bytes[bytes.size() / 2] ^= 0x01;
  ReplaceFile(SnapshotPath(dir), bytes, bytes.size());
}

/// A complete one-unit incumbent record.
SolverIncumbents MakeIncumbents(uint64_t fingerprint, double objective) {
  SolverIncumbents inc;
  inc.objective = objective;
  inc.complete = true;
  inc.units.push_back({fingerprint, objective, false});
  return inc;
}

// --- checksum + content hash ------------------------------------------------

TEST(ChecksumTest, DeterministicAndSensitive) {
  std::vector<uint8_t> bytes(1021);
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<uint8_t>(i * 31 + 7);
  }
  uint64_t base = Checksum64(bytes.data(), bytes.size());
  EXPECT_EQ(base, Checksum64(bytes.data(), bytes.size()));
  // Any single flipped bit, anywhere (word interior or the ragged tail),
  // must change the checksum.
  for (size_t pos : {size_t{0}, size_t{3}, size_t{512}, bytes.size() - 1}) {
    bytes[pos] ^= 0x10;
    EXPECT_NE(base, Checksum64(bytes.data(), bytes.size())) << pos;
    bytes[pos] ^= 0x10;
  }
  // Length is mixed in: a zero-extended buffer hashes differently.
  std::vector<uint8_t> longer = bytes;
  longer.push_back(0);
  EXPECT_NE(base, Checksum64(longer.data(), longer.size()));
}

TEST(ContentHashTest, TracksContentsNotIdentityOrName) {
  SyntheticDataset data = MakeData(7);
  Database copy = data.db1;  // same contents, different object
  EXPECT_EQ(storage::DatabaseContentHash(data.db1),
            storage::DatabaseContentHash(copy));
  EXPECT_NE(storage::DatabaseContentHash(data.db1),
            storage::DatabaseContentHash(data.db2));
  SyntheticDataset other = MakeData(8);
  EXPECT_NE(storage::DatabaseContentHash(data.db1),
            storage::DatabaseContentHash(other.db1));
  EXPECT_EQ(storage::ContentIdentity(data.db1, data.db2),
            storage::ContentIdentity(copy, data.db2));
}

// --- snapshot codec ---------------------------------------------------------

TEST(SnapshotRoundTripTest, MmapLoadIsBitIdenticalAndZeroCopy) {
  for (uint64_t seed : {11u, 12u, 13u}) {
    SyntheticDataset data = MakeData(seed);
    auto [key, art] = BuildArtifacts(data);
    // Blobs are padded to whole 64-byte lines, so they concatenate at
    // aligned offsets.
    EXPECT_EQ(storage::EncodeArtifacts(key, *art).size() % 64, 0u);

    const std::string dir = FreshDir("roundtrip-" + std::to_string(seed));
    ASSERT_TRUE(storage::WriteSnapshotFile(dir, {{key, art}}, {}).ok());
    ArtifactsPtr block;
    {
      Result<SnapshotContents> read = storage::ReadSnapshotFile(dir);
      ASSERT_TRUE(read.ok()) << read.status().ToString();
      ASSERT_EQ(read.value().entries.size(), 1u);
      EXPECT_TRUE(read.value().incumbents.empty());
      EXPECT_EQ(read.value().entries[0].key, key);
      block = read.value().entries[0].artifacts;
    }
    ExpectArtifactsBitIdentical(*art, *block);

    // Zero-copy proof: the decoded relations BORROW their columnar
    // arrays — the spans point into the file's mapping, not at fresh
    // copies, and the block pins the mapping via storage_owner.
    ASSERT_NE(block->i1, nullptr);
    EXPECT_TRUE(block->i1->borrowed());
    EXPECT_TRUE(block->i2->borrowed());
    auto file = std::static_pointer_cast<const MmapFile>(block->storage_owner);
    ASSERT_NE(file, nullptr);
    const uint8_t* col =
        reinterpret_cast<const uint8_t*>(block->i1->columns().token_ids.data());
    EXPECT_GE(col, file->data());
    EXPECT_LT(col, file->data() + file->size());

    // The mapping must live exactly as long as the block: with the read
    // result and this reference gone, the block's columns stay valid.
    file.reset();
    ExpectArtifactsBitIdentical(*art, *block);
  }
}

TEST(SnapshotCorruptionTest, TruncationIsRejected) {
  SyntheticDataset data = MakeData(21);
  auto [key, art] = BuildArtifacts(data);
  std::vector<uint8_t> bytes = storage::EncodeArtifacts(key, *art);
  // Every cut that removes content (strided for runtime, plus the
  // boundary cases) must fail DECODE with kCorruption, never crash. The
  // last 64 bytes may be the zero tail pad, which carries no content.
  const size_t content = bytes.size() - 64;
  std::vector<size_t> cuts = {0, 1, 7, 8, 19, 20, bytes.size() / 2, content};
  for (size_t cut = 64; cut < content; cut += 997) cuts.push_back(cut);
  for (size_t cut : cuts) {
    Result<DecodedArtifacts> decoded =
        storage::DecodeArtifacts(bytes.data(), cut, nullptr);
    ASSERT_FALSE(decoded.ok()) << "cut=" << cut;
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption)
        << "cut=" << cut;
  }

  // A snapshot file cut anywhere loses its footer: every cut fails the
  // whole read.
  const std::string dir = FreshDir("truncated");
  ASSERT_TRUE(storage::WriteSnapshotFile(
                  dir, {{key, art}}, {{"inc", MakeIncumbents(7, -1.0)}})
                  .ok());
  std::vector<uint8_t> file = ReadBytes(SnapshotPath(dir));
  std::vector<size_t> file_cuts = {0, 1, 31, 32, file.size() - 1};
  for (size_t cut = 97; cut < file.size(); cut += 1499) {
    file_cuts.push_back(cut);
  }
  for (size_t cut : file_cuts) {
    ReplaceFile(SnapshotPath(dir), file, cut);
    Result<SnapshotContents> read = storage::ReadSnapshotFile(dir);
    ASSERT_FALSE(read.ok()) << "cut=" << cut;
    EXPECT_EQ(read.status().code(), StatusCode::kCorruption) << "cut=" << cut;
  }
}

TEST(SnapshotCorruptionTest, BitFlipsNeverYieldADifferentBlock) {
  SyntheticDataset data = MakeData(22);
  auto [key, art] = BuildArtifacts(data);
  std::vector<uint8_t> bytes = storage::EncodeArtifacts(key, *art);
  // Strided single-bit flips across the whole blob. Every flip must
  // either be caught (kCorruption) or be provably harmless — a flip in
  // alignment padding that still decodes to the bit-identical block.
  // What can never happen: an OK decode of DIFFERENT data, or a crash.
  size_t stride = std::max<size_t>(1, bytes.size() / 199);
  for (size_t pos = 0; pos < bytes.size(); pos += stride) {
    std::vector<uint8_t> flipped = bytes;
    flipped[pos] ^= 1u << (pos % 8);
    Result<DecodedArtifacts> decoded =
        storage::DecodeArtifacts(flipped.data(), flipped.size(), nullptr);
    if (!decoded.ok()) {
      EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption)
          << "pos=" << pos;
      continue;
    }
    EXPECT_EQ(decoded.value().key, key) << "pos=" << pos;
    ExpectArtifactsBitIdentical(*art, *decoded.value().artifacts);
  }
}

TEST(SnapshotCorruptionTest, BitFlipsInAFileNeverYieldADifferentImage) {
  // The same contract for a whole snapshot file: the footer checksum
  // covers the row table, each blob carries its own checksums, and a
  // flip anywhere is caught unless it lands in alignment padding — and
  // then the file still reads back bit-identically.
  SyntheticDataset data1 = MakeData(23), data2 = MakeData(24);
  auto [key1, art1] = BuildArtifacts(data1);
  auto [key2, art2] = BuildArtifacts(data2);
  const std::string dir = FreshDir("damaged-file");
  ASSERT_TRUE(storage::WriteSnapshotFile(
                  dir, {{key1, art1}, {key2, art2}},
                  {{"inc", MakeIncumbents(7, -1.0)}})
                  .ok());
  const std::vector<uint8_t> bytes =
      ReadBytes(SnapshotPath(dir));
  std::vector<size_t> positions;
  for (size_t pos = 0; pos < bytes.size(); pos += bytes.size() / 151 + 1) {
    positions.push_back(pos);
  }
  for (size_t back = 1; back <= 200; back += 3) {
    positions.push_back(bytes.size() - back);  // the row table and footer
  }
  size_t caught = 0;
  for (size_t pos : positions) {
    std::vector<uint8_t> flipped = bytes;
    flipped[pos] ^= 1u << (pos % 8);
    ReplaceFile(SnapshotPath(dir), flipped, flipped.size());
    Result<SnapshotContents> read = storage::ReadSnapshotFile(dir);
    if (!read.ok()) {
      EXPECT_EQ(read.status().code(), StatusCode::kCorruption)
          << "pos=" << pos;
      ++caught;
      continue;
    }
    ASSERT_EQ(read.value().entries.size(), 2u) << "pos=" << pos;
    EXPECT_EQ(read.value().entries[0].key, key1) << "pos=" << pos;
    EXPECT_EQ(read.value().entries[1].key, key2) << "pos=" << pos;
    ExpectArtifactsBitIdentical(*art1, *read.value().entries[0].artifacts);
    ExpectArtifactsBitIdentical(*art2, *read.value().entries[1].artifacts);
    ASSERT_EQ(read.value().incumbents.size(), 1u) << "pos=" << pos;
    EXPECT_EQ(read.value().incumbents[0].second.objective, -1.0);
  }
  EXPECT_GT(caught, positions.size() * 9 / 10);
}

TEST(IncumbentCodecTest, RoundTripAndCorruption) {
  std::vector<std::pair<std::string, SolverIncumbents>> entries(2);
  entries[0].first = "key-a";
  entries[0].second.objective = -3.25;
  entries[0].second.complete = true;
  entries[0].second.units.push_back({0x1234567890abcdefULL, -1.5, true});
  entries[0].second.units.push_back({42, -1.75, false});
  entries[1].first = "key-b";
  entries[1].second.objective = -0.5;
  entries[1].second.complete = true;

  std::vector<uint8_t> bytes = storage::EncodeIncumbents(entries);
  auto decoded = storage::DecodeIncumbents(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded.value().size(), 2u);
  EXPECT_EQ(decoded.value()[0].first, "key-a");
  EXPECT_EQ(decoded.value()[0].second.objective, -3.25);
  ASSERT_EQ(decoded.value()[0].second.units.size(), 2u);
  EXPECT_EQ(decoded.value()[0].second.units[0].fingerprint,
            0x1234567890abcdefULL);
  EXPECT_EQ(decoded.value()[0].second.units[1].objective, -1.75);
  EXPECT_EQ(decoded.value()[1].second.objective, -0.5);

  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    std::vector<uint8_t> flipped = bytes;
    flipped[pos] ^= 0x40;
    auto bad = storage::DecodeIncumbents(flipped.data(), flipped.size());
    EXPECT_FALSE(bad.ok()) << "pos=" << pos;
  }
  for (size_t cut : {size_t{0}, size_t{8}, size_t{19}, bytes.size() - 1}) {
    EXPECT_FALSE(storage::DecodeIncumbents(bytes.data(), cut).ok())
        << "cut=" << cut;
  }
}

// --- snapshot file ----------------------------------------------------------

TEST(SnapshotFileTest, RenameIsTheOnlyCommitPoint) {
  if (!kFaultInjectionEnabled) {
    GTEST_SKIP() << "fault injection compiled out";
  }
  SyntheticDataset data = MakeData(31);
  auto [key, art] = BuildArtifacts(data);
  const std::string dir = FreshDir("snapshot-commit");

  // A directory with no snapshot file (here: no directory at all) reads
  // as empty.
  Result<SnapshotContents> empty = storage::ReadSnapshotFile(dir);
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  EXPECT_TRUE(empty.value().entries.empty());
  EXPECT_TRUE(empty.value().incumbents.empty());

  // Fully written and fsynced but never renamed: the temp file holds the
  // whole image, and still no reader sees it.
  ASSERT_TRUE(
      FaultInjector::Instance().Configure("storage.rename=once0").ok());
  Status unpublished = storage::WriteSnapshotFile(
      dir, {{key, art}}, {{"inc-key", MakeIncumbents(7, -1.0)}});
  FaultInjector::Instance().Disable();
  EXPECT_EQ(unpublished.code(), StatusCode::kIOError);
  EXPECT_EQ(FilesIn(dir),
            std::vector<std::string>{std::string(storage::kSnapshotFileName) +
                                     ".tmp"});
  EXPECT_TRUE(storage::ReadSnapshotFile(dir).value().entries.empty());

  // Published: the directory holds exactly the one file, and it reads
  // back bit-identically.
  ASSERT_TRUE(storage::WriteSnapshotFile(
                  dir, {{key, art}}, {{"inc-key", MakeIncumbents(7, -1.0)}})
                  .ok());
  EXPECT_EQ(FilesIn(dir),
            std::vector<std::string>{storage::kSnapshotFileName});
  Result<SnapshotContents> read = storage::ReadSnapshotFile(dir);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_EQ(read.value().entries.size(), 1u);
  EXPECT_EQ(read.value().entries[0].key, key);
  ExpectArtifactsBitIdentical(*art, *read.value().entries[0].artifacts);
  ASSERT_EQ(read.value().incumbents.size(), 1u);
  EXPECT_EQ(read.value().incumbents[0].first, "inc-key");
  EXPECT_EQ(read.value().incumbents[0].second.units.size(), 1u);

  // The next snapshot replaces the image whole: nothing of the previous
  // one survives it.
  ASSERT_TRUE(storage::WriteSnapshotFile(dir, {}, {}).ok());
  read = storage::ReadSnapshotFile(dir);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_TRUE(read.value().entries.empty());
  EXPECT_TRUE(read.value().incumbents.empty());
}

// --- crash consistency under injected faults --------------------------------

// The acceptance sweep: 100 seeds × p=0.3 faults armed on every storage
// crash window while a second image is written over a first. Whatever
// the faults leave behind, the snapshot file must verify clean and be,
// bit for bit, either the first image or the second — never a torn mix —
// and an acknowledged write is never lost. A leftover temp file changes
// nothing.
TEST(CrashConsistencyTest, HundredSeedFaultSweepNeverServesTornState) {
  if (!kFaultInjectionEnabled) {
    GTEST_SKIP() << "fault injection compiled out";
  }
  SyntheticDataset data1 = MakeData(41);
  SyntheticDataset data2 = MakeData(42);
  auto [key1, art1] = BuildArtifacts(data1);
  auto [key2, art2] = BuildArtifacts(data2);
  ASSERT_NE(key1, key2);
  const std::vector<std::pair<std::string, ArtifactsPtr>> first = {
      {key1, art1}};
  const std::vector<std::pair<std::string, ArtifactsPtr>> second = {
      {key1, art1}, {key2, art2}};
  const std::vector<std::pair<std::string, SolverIncumbents>> records = {
      {"inc", MakeIncumbents(42, -2.0)}};

  // The two images' exact bytes, written fault-free.
  const std::string ref = FreshDir("crash-reference");
  ASSERT_TRUE(storage::WriteSnapshotFile(ref, first, {}).ok());
  const std::vector<uint8_t> first_bytes =
      ReadBytes(SnapshotPath(ref));
  ASSERT_TRUE(storage::WriteSnapshotFile(ref, second, records).ok());
  const std::vector<uint8_t> second_bytes =
      ReadBytes(SnapshotPath(ref));

  size_t acknowledged = 0;
  for (uint64_t seed = 0; seed < 100; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::string dir = FreshDir("crash-" + std::to_string(seed));
    // The first image is written fault-free, so every seed also proves
    // "the previous image survives a faulty write".
    ASSERT_TRUE(storage::WriteSnapshotFile(dir, first, {}).ok());
    ASSERT_TRUE(FaultInjector::Instance()
                    .Configure("seed=" + std::to_string(seed) +
                               ";storage.*=p0.3")
                    .ok());
    Status write = storage::WriteSnapshotFile(dir, second, records);
    FaultInjector::Instance().Disable();
    // A failed write is a clean IO status, never a crash.
    if (write.ok()) {
      ++acknowledged;
    } else {
      EXPECT_EQ(write.code(), StatusCode::kIOError);
    }

    const std::vector<uint8_t> on_disk =
        ReadBytes(SnapshotPath(dir));
    const bool is_second = on_disk == second_bytes;
    EXPECT_TRUE(is_second || on_disk == first_bytes) << "torn image";
    if (write.ok()) {
      EXPECT_TRUE(is_second) << "acknowledged write lost";
    }

    // The read runs beside whatever temp file the faults left behind.
    Result<SnapshotContents> read = storage::ReadSnapshotFile(dir);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    ASSERT_EQ(read.value().entries.size(), is_second ? 2u : 1u);
    ExpectArtifactsBitIdentical(*art1, *read.value().entries[0].artifacts);
    if (is_second) {
      ExpectArtifactsBitIdentical(*art2, *read.value().entries[1].artifacts);
    }
    EXPECT_EQ(read.value().incumbents.size(), is_second ? 1u : 0u);

    // ...and it does not get in the way of the next write, which leaves
    // the snapshot file alone in the directory.
    ASSERT_TRUE(storage::WriteSnapshotFile(dir, second, records).ok());
    EXPECT_EQ(ReadBytes(SnapshotPath(dir)),
              second_bytes);
    EXPECT_EQ(FilesIn(dir),
              std::vector<std::string>{storage::kSnapshotFileName});
    if (::testing::Test::HasFatalFailure()) break;
  }
  // p=0.3 on three windows leaves about a third of the writes standing;
  // the sweep must see both outcomes to mean anything.
  EXPECT_GT(acknowledged, 0u);
  EXPECT_LT(acknowledged, 100u);
}

// --- warm service restart ---------------------------------------------------

ExplanationRequest MakeServiceRequest(const SyntheticDataset& data,
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
  req.config.num_threads = 1;
  // Small batches keep every solve unit provably optimal, so the run
  // records a warm-start incumbent (only complete runs record).
  req.config.batch_size = 25;
  return req;
}

void ExpectPipelineResultsBitIdentical(const PipelineResult& a,
                                       const PipelineResult& b) {
  EXPECT_EQ(a.answer1(), b.answer1());
  EXPECT_EQ(a.answer2(), b.answer2());
  ASSERT_EQ(a.initial_mapping().size(), b.initial_mapping().size());
  for (size_t k = 0; k < a.initial_mapping().size(); ++k) {
    EXPECT_EQ(a.initial_mapping()[k].t1, b.initial_mapping()[k].t1) << k;
    EXPECT_EQ(a.initial_mapping()[k].t2, b.initial_mapping()[k].t2) << k;
    EXPECT_EQ(a.initial_mapping()[k].p, b.initial_mapping()[k].p) << k;
  }
  EXPECT_EQ(a.core().explanations.delta, b.core().explanations.delta);
  EXPECT_EQ(a.core().explanations.log_probability,
            b.core().explanations.log_probability);
}

// The PR's acceptance proof: service A snapshots its warm state; a FRESH
// service B restores it, re-registers the same data, and answers its
// first repeated request bit-identically — warm cache hit, zero cold
// misses, warm-started solve, and the restored block is served by
// POINTER (mmap-backed, no full-artifact copy).
TEST(ServicePersistenceTest, WarmRestartAnswersBitIdenticallyFromDisk) {
  const std::string dir = FreshDir("warm-restart");
  SyntheticDataset data = MakeData(51);
  PipelineResult first;
  {
    Explain3DService a;
    DatabaseHandle h1 = a.RegisterDatabase("left", data.db1);
    DatabaseHandle h2 = a.RegisterDatabase("right", data.db2);
    TicketPtr t1 = a.Submit(MakeServiceRequest(data, h1, h2));
    ASSERT_TRUE(t1->Wait().ok());
    first = t1->Wait().value();
    ASSERT_GT(a.Stats().incumbent_entries, 0u);  // optimum recorded
    ASSERT_TRUE(a.SnapshotTo(dir).ok());
  }  // service A is gone; only the disk image remains

  Explain3DService b;
  ASSERT_TRUE(b.RestoreFrom(dir).ok());
  ServiceStats restored = b.Stats();
  EXPECT_EQ(restored.restored_entries, 1u);
  EXPECT_GT(restored.restored_incumbents, 0u);
  EXPECT_EQ(restored.cache_entries, 1u);

  // The restored block is mmap-backed: the interned columns borrow from
  // the mapping instead of owning copies.
  auto entries = b.cache().Entries();
  ASSERT_EQ(entries.size(), 1u);
  const ArtifactsPtr& restored_block = entries.front().second;
  EXPECT_NE(restored_block->storage_owner, nullptr);
  ASSERT_NE(restored_block->i1, nullptr);
  EXPECT_TRUE(restored_block->i1->borrowed());

  // Same CONTENT, fresh registration: the first request keys straight
  // into the restored entry — a warm hit, no cold miss, and the result
  // co-owns the restored block itself (pointer identity, no copy).
  DatabaseHandle h1 = b.RegisterDatabase("left", data.db1);
  DatabaseHandle h2 = b.RegisterDatabase("right", data.db2);
  TicketPtr t = b.Submit(MakeServiceRequest(data, h1, h2));
  ASSERT_TRUE(t->Wait().ok());
  ServiceStats warm = b.Stats();
  EXPECT_EQ(warm.warm_hits, 1u);
  EXPECT_EQ(warm.cold_misses, 0u);
  EXPECT_GT(warm.warm_start_hits, 0u);  // solve seeded from restored record
  EXPECT_EQ(t->Wait().value().artifacts().get(), restored_block.get());
  ExpectPipelineResultsBitIdentical(t->Wait().value(), first);

  // A damaged snapshot fails the whole restore: everything is verified
  // before the first insert, so the cache stays empty.
  ASSERT_NO_FATAL_FAILURE(DamageSnapshotFile(dir));
  Explain3DService damaged;
  EXPECT_EQ(damaged.RestoreFrom(dir).code(), StatusCode::kCorruption);
  ServiceStats empty = damaged.Stats();
  EXPECT_EQ(empty.cache_entries, 0u);
  EXPECT_EQ(empty.incumbent_entries, 0u);
  EXPECT_EQ(empty.restored_entries, 0u);
  EXPECT_EQ(empty.restored_incumbents, 0u);
}

// Concurrent SnapshotTo calls share the file's temp name, so they take
// turns: two threads snapshotting at once while requests run must leave
// one snapshot file that verifies clean and restores every entry.
TEST(ServicePersistenceTest, ConcurrentSnapshotsLeaveACleanStore) {
  const std::string dir = FreshDir("concurrent-snapshots");
  SyntheticDataset left = MakeData(52), right = MakeData(53);
  Explain3DService service;
  DatabaseHandle l1 = service.RegisterDatabase("l1", left.db1);
  DatabaseHandle l2 = service.RegisterDatabase("l2", left.db2);
  DatabaseHandle r1 = service.RegisterDatabase("r1", right.db1);
  DatabaseHandle r2 = service.RegisterDatabase("r2", right.db2);
  TicketPtr warm = service.Submit(MakeServiceRequest(left, l1, l2));
  ASSERT_TRUE(warm->Wait().ok());

  std::vector<TicketPtr> running;
  for (int i = 0; i < 6; ++i) {
    running.push_back(service.Submit(i % 2 == 0
                                         ? MakeServiceRequest(right, r1, r2)
                                         : MakeServiceRequest(left, l1, l2)));
  }
  Status first, second;
  auto snapshot_loop = [&](Status* status) {
    for (int i = 0; i < 4 && status->ok(); ++i) {
      *status = service.SnapshotTo(dir);
    }
  };
  std::thread a(snapshot_loop, &first);
  std::thread b(snapshot_loop, &second);
  a.join();
  b.join();
  EXPECT_TRUE(first.ok()) << first.ToString();
  EXPECT_TRUE(second.ok()) << second.ToString();
  for (const TicketPtr& t : running) ASSERT_TRUE(t->Wait().ok());

  EXPECT_EQ(FilesIn(dir),
            std::vector<std::string>{storage::kSnapshotFileName});
  EXPECT_TRUE(storage::ReadSnapshotFile(dir).ok());
  // One more snapshot after the requests: the image holds both pairs.
  ASSERT_TRUE(service.SnapshotTo(dir).ok());
  Explain3DService restored;
  ASSERT_TRUE(restored.RestoreFrom(dir).ok());
  EXPECT_EQ(restored.Stats().restored_entries, 2u);
}

// A snapshot is the cache at the moment of the call: entries and records
// the cache retired before a later snapshot into the same directory do
// not come back on restore.
TEST(ServicePersistenceTest, RestoreBringsBackOnlyTheLastSnapshot) {
  const std::string dir = FreshDir("last-snapshot");
  SyntheticDataset before = MakeData(64), after = MakeData(65);
  Explain3DService a;
  DatabaseHandle h1 = a.RegisterDatabase("left", before.db1);
  DatabaseHandle h2 = a.RegisterDatabase("right", before.db2);
  ASSERT_TRUE(a.Submit(MakeServiceRequest(before, h1, h2))->Wait().ok());
  ASSERT_TRUE(a.SnapshotTo(dir).ok());

  // New contents under the same names retire the old entry and record;
  // serving the new pair caches exactly one of each again.
  h1 = a.RegisterDatabase("left", after.db1);
  h2 = a.RegisterDatabase("right", after.db2);
  ASSERT_TRUE(a.Submit(MakeServiceRequest(after, h1, h2))->Wait().ok());
  ASSERT_EQ(a.Stats().cache_entries, 1u);
  ASSERT_EQ(a.Stats().incumbent_entries, 1u);
  const std::string live_key = a.cache().Entries().front().first;
  ASSERT_TRUE(a.SnapshotTo(dir).ok());

  Explain3DService b;
  ASSERT_TRUE(b.RestoreFrom(dir).ok());
  ServiceStats stats = b.Stats();
  EXPECT_EQ(stats.restored_entries, 1u);
  EXPECT_EQ(stats.restored_incumbents, 1u);
  auto entries = b.cache().Entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries.front().first, live_key);
}

// A restore inserts least recently used first, so the restored cache has
// the snapshot's LRU order: restored under a budget that fits two of
// three entries, the two most recently used survive.
TEST(ServicePersistenceTest, RestoreKeepsLruOrder) {
  const std::string dir = FreshDir("lru-order");
  SyntheticDataset data[3] = {MakeData(56), MakeData(57), MakeData(58)};
  auto request = [&](Explain3DService& service, int i) {
    DatabaseHandle h1 = service.RegisterDatabase(
        "left" + std::to_string(i), data[i].db1);
    DatabaseHandle h2 = service.RegisterDatabase(
        "right" + std::to_string(i), data[i].db2);
    ExplanationRequest req = MakeServiceRequest(data[i], h1, h2);
    req.config.warm_start = false;  // the budget prices artifacts alone
    return req;
  };
  std::vector<std::string> mru_first;
  {
    Explain3DService a;
    // Touch order 0, 1, 2, then 0 again: least recently used is 1.
    for (int i : {0, 1, 2, 0}) {
      ASSERT_TRUE(a.Submit(request(a, i))->Wait().ok());
    }
    for (const auto& [key, art] : a.cache().Entries()) {
      mru_first.push_back(key);
    }
    ASSERT_EQ(mru_first.size(), 3u);
    ASSERT_TRUE(a.SnapshotTo(dir).ok());
  }

  // What the three restored entries weigh, measured on a restore.
  size_t restored_bytes = 0;
  {
    Explain3DService unbounded;
    ASSERT_TRUE(unbounded.RestoreFrom(dir).ok());
    restored_bytes = unbounded.Stats().cache_bytes;
  }
  ServiceOptions options;
  options.cache_budget_bytes = restored_bytes - 1;
  Explain3DService b(options);
  ASSERT_TRUE(b.RestoreFrom(dir).ok());
  std::vector<std::string> kept;
  for (const auto& [key, art] : b.cache().Entries()) kept.push_back(key);
  EXPECT_EQ(kept, (std::vector<std::string>{mru_first[0], mru_first[1]}));
  EXPECT_EQ(b.Stats().cache_evictions, 1u);
}

// SnapshotTo renames a new file over the one a restored cache has
// mapped. The mapped blocks keep their pages (the rename unlinks the
// name, not the inode), so the service keeps answering bit-identically,
// and a fresh restore from the new file matches too.
TEST(ServicePersistenceTest, ResnapshotOverTheMappedFileKeepsServing) {
  const std::string dir = FreshDir("resnapshot-mapped");
  SyntheticDataset data = MakeData(59);
  PipelineResult cold;
  {
    Explain3DService a;
    DatabaseHandle h1 = a.RegisterDatabase("left", data.db1);
    DatabaseHandle h2 = a.RegisterDatabase("right", data.db2);
    TicketPtr t = a.Submit(MakeServiceRequest(data, h1, h2));
    ASSERT_TRUE(t->Wait().ok());
    cold = t->Wait().value();
    ASSERT_TRUE(a.SnapshotTo(dir).ok());
  }

  Explain3DService b;
  ASSERT_TRUE(b.RestoreFrom(dir).ok());
  DatabaseHandle h1 = b.RegisterDatabase("left", data.db1);
  DatabaseHandle h2 = b.RegisterDatabase("right", data.db2);
  TicketPtr before = b.Submit(MakeServiceRequest(data, h1, h2));
  ASSERT_TRUE(before->Wait().ok());
  const ArtifactsPtr mapped = before->Wait().value().artifacts();
  ASSERT_NE(mapped->storage_owner, nullptr);
  ExpectPipelineResultsBitIdentical(before->Wait().value(), cold);

  ASSERT_TRUE(b.SnapshotTo(dir).ok());  // renamed over the mapped file
  TicketPtr after = b.Submit(MakeServiceRequest(data, h1, h2));
  ASSERT_TRUE(after->Wait().ok());
  EXPECT_EQ(after->Wait().value().artifacts().get(), mapped.get());
  ExpectPipelineResultsBitIdentical(after->Wait().value(), cold);
  EXPECT_EQ(b.Stats().cold_misses, 0u);

  Explain3DService c;
  ASSERT_TRUE(c.RestoreFrom(dir).ok());
  auto entries = c.cache().Entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_NE(entries.front().second->storage_owner, mapped->storage_owner);
  ExpectArtifactsBitIdentical(*mapped, *entries.front().second);
  h1 = c.RegisterDatabase("left", data.db1);
  h2 = c.RegisterDatabase("right", data.db2);
  TicketPtr fresh = c.Submit(MakeServiceRequest(data, h1, h2));
  ASSERT_TRUE(fresh->Wait().ok());
  EXPECT_EQ(c.Stats().warm_hits, 1u);
  ExpectPipelineResultsBitIdentical(fresh->Wait().value(), cold);
}

}  // namespace
}  // namespace explain3d
