#include "storage/snapshot.h"

#include <cstring>
#include <utility>

#include "storage/bytes.h"
#include "storage/checksum.h"

namespace explain3d {
namespace storage {

namespace {

constexpr char kMagic[8] = {'E', '3', 'D', 'S', 'N', 'A', 'P', '1'};
constexpr char kIncMagic[8] = {'E', '3', 'D', 'I', 'N', 'C', 'B', '1'};
constexpr size_t kAlign = 64;
constexpr uint32_t kMetaSegment = 1;
constexpr uint32_t kI1Base = 10;
constexpr uint32_t kI2Base = 20;
constexpr size_t kColumnsPerRelation = 10;
// 1 META + 2 relations x 10 columns; anything larger is malformed.
constexpr uint32_t kMaxSegments = 1 + 2 * kColumnsPerRelation;

struct SegEntry {
  uint32_t id = 0;
  uint64_t offset = 0;
  uint64_t length = 0;
  uint64_t checksum = 0;
};

size_t AlignUp(size_t v) { return (v + kAlign - 1) / kAlign * kAlign; }

// --- META stream encoding ---------------------------------------------------

void PutValue(ByteWriter* w, const Value& v) {
  switch (v.type()) {
    case DataType::kNull:
      w->PutU8(0);
      return;
    case DataType::kInt64:
      w->PutU8(1);
      w->PutI64(v.AsInt64());
      return;
    case DataType::kDouble:
      w->PutU8(2);
      w->PutDouble(v.AsDouble());
      return;
    case DataType::kString:
      w->PutU8(3);
      w->PutString(v.AsString());
      return;
  }
}

Status ReadValue(ByteReader* r, Value* out) {
  uint8_t tag = 0;
  E3D_RETURN_IF_ERROR(r->ReadU8(&tag));
  switch (tag) {
    case 0:
      *out = Value::Null();
      return Status::OK();
    case 1: {
      int64_t v = 0;
      E3D_RETURN_IF_ERROR(r->ReadI64(&v));
      *out = Value(v);
      return Status::OK();
    }
    case 2: {
      double v = 0;
      E3D_RETURN_IF_ERROR(r->ReadDouble(&v));
      *out = Value(v);
      return Status::OK();
    }
    case 3: {
      std::string s;
      E3D_RETURN_IF_ERROR(r->ReadString(&s));
      *out = Value(std::move(s));
      return Status::OK();
    }
    default:
      return Status::Corruption("unknown Value tag in snapshot");
  }
}

void PutRow(ByteWriter* w, const Row& row) {
  w->PutU32(static_cast<uint32_t>(row.size()));
  for (const Value& v : row) PutValue(w, v);
}

Status ReadRow(ByteReader* r, Row* out) {
  size_t n = 0;
  E3D_RETURN_IF_ERROR(r->ReadCount(1, &n));
  out->resize(n);
  for (size_t i = 0; i < n; ++i) {
    E3D_RETURN_IF_ERROR(ReadValue(r, &(*out)[i]));
  }
  return Status::OK();
}

void PutTable(ByteWriter* w, const Table& t) {
  w->PutString(t.name());
  w->PutU32(static_cast<uint32_t>(t.schema().num_columns()));
  for (const Column& c : t.schema().columns()) {
    w->PutString(c.name);
    w->PutU8(static_cast<uint8_t>(c.type));
  }
  w->PutU32(static_cast<uint32_t>(t.num_rows()));
  for (const Row& row : t.rows()) PutRow(w, row);
}

Status ReadTable(ByteReader* r, Table* out) {
  std::string name;
  E3D_RETURN_IF_ERROR(r->ReadString(&name));
  size_t ncols = 0;
  E3D_RETURN_IF_ERROR(r->ReadCount(5, &ncols));
  Schema schema;
  for (size_t i = 0; i < ncols; ++i) {
    std::string cname;
    uint8_t type = 0;
    E3D_RETURN_IF_ERROR(r->ReadString(&cname));
    E3D_RETURN_IF_ERROR(r->ReadU8(&type));
    if (type > static_cast<uint8_t>(DataType::kString)) {
      return Status::Corruption("unknown column DataType in snapshot");
    }
    schema.AddColumn(Column(std::move(cname), static_cast<DataType>(type)));
  }
  *out = Table(std::move(name), std::move(schema));
  size_t nrows = 0;
  E3D_RETURN_IF_ERROR(r->ReadCount(4, &nrows));
  for (size_t i = 0; i < nrows; ++i) {
    Row row;
    E3D_RETURN_IF_ERROR(ReadRow(r, &row));
    out->AppendUnchecked(std::move(row));
  }
  return Status::OK();
}

Status ReadAggFunc(ByteReader* r, AggFunc* out) {
  uint8_t agg = 0;
  E3D_RETURN_IF_ERROR(r->ReadU8(&agg));
  if (agg > static_cast<uint8_t>(AggFunc::kMin)) {
    return Status::Corruption("unknown AggFunc in snapshot");
  }
  *out = static_cast<AggFunc>(agg);
  return Status::OK();
}

void PutProvenance(ByteWriter* w, const ProvenanceRelation& p) {
  PutTable(w, p.table);
  w->PutU32(static_cast<uint32_t>(p.impact.size()));
  for (double d : p.impact) w->PutDouble(d);
  w->PutU8(static_cast<uint8_t>(p.agg));
  w->PutU8(p.integral_impacts ? 1 : 0);
}

Status ReadProvenance(ByteReader* r, ProvenanceRelation* out) {
  E3D_RETURN_IF_ERROR(ReadTable(r, &out->table));
  size_t n = 0;
  E3D_RETURN_IF_ERROR(r->ReadCount(sizeof(double), &n));
  out->impact.resize(n);
  for (size_t i = 0; i < n; ++i) {
    E3D_RETURN_IF_ERROR(r->ReadDouble(&out->impact[i]));
  }
  E3D_RETURN_IF_ERROR(ReadAggFunc(r, &out->agg));
  uint8_t integral = 0;
  E3D_RETURN_IF_ERROR(r->ReadU8(&integral));
  out->integral_impacts = integral != 0;
  return Status::OK();
}

void PutCanonical(ByteWriter* w, const CanonicalRelation& t) {
  w->PutU32(static_cast<uint32_t>(t.key_attrs.size()));
  for (const std::string& a : t.key_attrs) w->PutString(a);
  w->PutU32(static_cast<uint32_t>(t.tuples.size()));
  for (const CanonicalTuple& tup : t.tuples) {
    PutRow(w, tup.key);
    w->PutDouble(tup.impact);
    w->PutU32(static_cast<uint32_t>(tup.prov_rows.size()));
    for (size_t p : tup.prov_rows) w->PutU64(p);
  }
  w->PutU8(static_cast<uint8_t>(t.agg));
  w->PutU8(t.integral_impacts ? 1 : 0);
}

Status ReadCanonical(ByteReader* r, CanonicalRelation* out) {
  size_t nattrs = 0;
  E3D_RETURN_IF_ERROR(r->ReadCount(4, &nattrs));
  out->key_attrs.resize(nattrs);
  for (size_t i = 0; i < nattrs; ++i) {
    E3D_RETURN_IF_ERROR(r->ReadString(&out->key_attrs[i]));
  }
  size_t ntuples = 0;
  E3D_RETURN_IF_ERROR(r->ReadCount(8, &ntuples));
  out->tuples.resize(ntuples);
  for (size_t i = 0; i < ntuples; ++i) {
    CanonicalTuple& tup = out->tuples[i];
    E3D_RETURN_IF_ERROR(ReadRow(r, &tup.key));
    E3D_RETURN_IF_ERROR(r->ReadDouble(&tup.impact));
    size_t nprov = 0;
    E3D_RETURN_IF_ERROR(r->ReadCount(sizeof(uint64_t), &nprov));
    tup.prov_rows.resize(nprov);
    for (size_t p = 0; p < nprov; ++p) {
      uint64_t v = 0;
      E3D_RETURN_IF_ERROR(r->ReadU64(&v));
      tup.prov_rows[p] = static_cast<size_t>(v);
    }
  }
  E3D_RETURN_IF_ERROR(ReadAggFunc(r, &out->agg));
  uint8_t integral = 0;
  E3D_RETURN_IF_ERROR(r->ReadU8(&integral));
  out->integral_impacts = integral != 0;
  return Status::OK();
}

// --- segment table ----------------------------------------------------------

void AppendSegment(std::vector<uint8_t>* buf, std::vector<SegEntry>* table,
                   uint32_t id, const void* data, size_t len) {
  size_t offset = AlignUp(buf->size());
  buf->resize(offset, 0);  // pad with zeros up to the aligned offset
  if (len > 0) {
    const uint8_t* p = static_cast<const uint8_t*>(data);
    buf->insert(buf->end(), p, p + len);
  }
  SegEntry e;
  e.id = id;
  e.offset = offset;
  e.length = len;
  e.checksum = Checksum64(data, len);
  table->push_back(e);
}

void AppendColumns(std::vector<uint8_t>* buf, std::vector<SegEntry>* table,
                   uint32_t base, const InternedColumns& c) {
  auto put32 = [&](uint32_t slot, Span<const uint32_t> s) {
    AppendSegment(buf, table, base + slot, s.data(),
                  s.size() * sizeof(uint32_t));
  };
  auto put8 = [&](uint32_t slot, Span<const uint8_t> s) {
    AppendSegment(buf, table, base + slot, s.data(), s.size());
  };
  put32(0, c.token_ids);
  put32(1, c.cell_starts);
  put32(2, c.tuple_cell_starts);
  put32(3, c.key_union_ids);
  put32(4, c.key_union_starts);
  put32(5, c.bag_ids);
  put32(6, c.bag_starts);
  put8(7, c.cell_kinds);
  put8(8, c.cell_coercible);
  AppendSegment(buf, table, base + 9, c.cell_numeric.data(),
                c.cell_numeric.size() * sizeof(double));
}

size_t HeaderBytes(size_t segment_count) {
  return 8 /*magic*/ + 4 /*version*/ + 4 /*count*/ + segment_count * 32;
}

Status Corrupt(const char* what) {
  return Status::Corruption(std::string("snapshot: ") + what);
}

Status ParseHeader(const uint8_t* data, size_t size,
                   std::vector<SegEntry>* out) {
  if (size < HeaderBytes(0)) return Corrupt("blob shorter than header");
  if (std::memcmp(data, kMagic, 8) != 0) return Corrupt("bad magic");
  uint32_t version = 0, count = 0;
  std::memcpy(&version, data + 8, 4);
  std::memcpy(&count, data + 12, 4);
  if (version == 0 || version > kSnapshotVersion) {
    return Corrupt("unsupported format version");
  }
  if (count == 0 || count > kMaxSegments) {
    return Corrupt("implausible segment count");
  }
  if (size < HeaderBytes(count)) return Corrupt("segment table truncated");
  out->resize(count);
  const uint8_t* p = data + 16;
  for (uint32_t i = 0; i < count; ++i, p += 32) {
    SegEntry& e = (*out)[i];
    std::memcpy(&e.id, p, 4);
    std::memcpy(&e.offset, p + 8, 8);
    std::memcpy(&e.length, p + 16, 8);
    std::memcpy(&e.checksum, p + 24, 8);
    if (e.offset % kAlign != 0) return Corrupt("misaligned segment offset");
    if (e.offset > size || e.length > size - e.offset) {
      return Corrupt("segment extends past end of blob");
    }
  }
  return Status::OK();
}

Status VerifySegments(const uint8_t* data,
                      const std::vector<SegEntry>& table) {
  for (const SegEntry& e : table) {
    if (Checksum64(data + e.offset, e.length) != e.checksum) {
      return Corrupt("segment checksum mismatch");
    }
  }
  return Status::OK();
}

const SegEntry* FindSegment(const std::vector<SegEntry>& table, uint32_t id) {
  for (const SegEntry& e : table) {
    if (e.id == id) return &e;
  }
  return nullptr;
}

template <typename T>
Status BindSpan(const uint8_t* data, const std::vector<SegEntry>& table,
                uint32_t id, Span<const T>* out) {
  const SegEntry* e = FindSegment(table, id);
  if (e == nullptr) return Corrupt("missing columnar segment");
  if (e->length % sizeof(T) != 0) {
    return Corrupt("columnar segment length not a multiple of element size");
  }
  *out = Span<const T>(reinterpret_cast<const T*>(data + e->offset),
                       e->length / sizeof(T));
  return Status::OK();
}

Status BindColumns(const uint8_t* data, const std::vector<SegEntry>& table,
                   uint32_t base, InternedColumns* c) {
  E3D_RETURN_IF_ERROR(BindSpan(data, table, base + 0, &c->token_ids));
  E3D_RETURN_IF_ERROR(BindSpan(data, table, base + 1, &c->cell_starts));
  E3D_RETURN_IF_ERROR(BindSpan(data, table, base + 2, &c->tuple_cell_starts));
  E3D_RETURN_IF_ERROR(BindSpan(data, table, base + 3, &c->key_union_ids));
  E3D_RETURN_IF_ERROR(BindSpan(data, table, base + 4, &c->key_union_starts));
  E3D_RETURN_IF_ERROR(BindSpan(data, table, base + 5, &c->bag_ids));
  E3D_RETURN_IF_ERROR(BindSpan(data, table, base + 6, &c->bag_starts));
  E3D_RETURN_IF_ERROR(BindSpan(data, table, base + 7, &c->cell_kinds));
  E3D_RETURN_IF_ERROR(BindSpan(data, table, base + 8, &c->cell_coercible));
  E3D_RETURN_IF_ERROR(BindSpan(data, table, base + 9, &c->cell_numeric));
  return Status::OK();
}

Status CheckCsr(Span<const uint32_t> starts, size_t slots, size_t ids_size,
                const char* what) {
  if (starts.size() != slots + 1) return Corrupt(what);
  if (starts[0] != 0) return Corrupt(what);
  for (size_t i = 0; i + 1 < starts.size(); ++i) {
    if (starts[i] > starts[i + 1]) return Corrupt(what);
  }
  if (starts.back() != ids_size) return Corrupt(what);
  return Status::OK();
}

Status CheckTokenIds(Span<const uint32_t> ids, size_t dict_size,
                     const char* what) {
  for (uint32_t id : ids) {
    if (id >= dict_size) return Corrupt(what);
  }
  return Status::OK();
}

// Structural validation of decoded columns against the decoded relation
// and dictionary — a checksum-valid file hand-crafted (or version-skewed)
// into inconsistent CSR shapes must still fail closed, because the
// borrowing InternedRelation trusts these invariants unchecked on its
// hot paths.
Status ValidateColumns(const InternedColumns& c, size_t n_tuples,
                       size_t dict_size) {
  E3D_RETURN_IF_ERROR(CheckCsr(c.tuple_cell_starts, n_tuples,
                               c.cell_kinds.size(),
                               "tuple/cell offsets inconsistent"));
  const size_t n_cells = c.cell_kinds.size();
  if (c.cell_coercible.size() != n_cells || c.cell_numeric.size() != n_cells) {
    return Corrupt("cell column sizes disagree");
  }
  E3D_RETURN_IF_ERROR(
      CheckCsr(c.cell_starts, n_cells, c.token_ids.size(),
               "cell/token offsets inconsistent"));
  E3D_RETURN_IF_ERROR(CheckCsr(c.key_union_starts, n_tuples,
                               c.key_union_ids.size(),
                               "key-union offsets inconsistent"));
  E3D_RETURN_IF_ERROR(CheckCsr(c.bag_starts, n_tuples, c.bag_ids.size(),
                               "bag offsets inconsistent"));
  E3D_RETURN_IF_ERROR(
      CheckTokenIds(c.token_ids, dict_size, "token id out of range"));
  E3D_RETURN_IF_ERROR(CheckTokenIds(c.key_union_ids, dict_size,
                                    "key-union token id out of range"));
  E3D_RETURN_IF_ERROR(
      CheckTokenIds(c.bag_ids, dict_size, "bag token id out of range"));
  for (uint8_t k : c.cell_kinds) {
    if (k > 2) return Corrupt("cell kind out of range");
  }
  for (uint8_t k : c.cell_coercible) {
    if (k > 1) return Corrupt("cell coercibility flag out of range");
  }
  return Status::OK();
}

}  // namespace

std::vector<uint8_t> EncodeArtifacts(const std::string& key,
                                     const Stage1Artifacts& art) {
  const bool has_interned = art.i1 != nullptr && art.i2 != nullptr;
  const bool with_bags = has_interned && art.i1->has_bags();

  ByteWriter meta;
  meta.PutString(key);
  PutValue(&meta, art.answer1);
  PutValue(&meta, art.answer2);
  PutProvenance(&meta, art.p1);
  PutProvenance(&meta, art.p2);
  PutCanonical(&meta, art.t1);
  PutCanonical(&meta, art.t2);
  meta.PutU32(static_cast<uint32_t>(art.dict.size()));
  for (uint32_t id = 0; id < art.dict.size(); ++id) {
    meta.PutString(art.dict.token(id));
  }
  meta.PutU32(static_cast<uint32_t>(art.candidates.size()));
  for (const auto& [a, b] : art.candidates) {
    meta.PutU64(a);
    meta.PutU64(b);
  }
  meta.PutU8(has_interned ? 1 : 0);
  meta.PutU8(with_bags ? 1 : 0);

  const size_t segment_count =
      1 + (has_interned ? 2 * kColumnsPerRelation : 0);
  std::vector<uint8_t> buf(HeaderBytes(segment_count), 0);
  std::vector<SegEntry> table;
  table.reserve(segment_count);
  AppendSegment(&buf, &table, kMetaSegment, meta.bytes().data(), meta.size());
  if (has_interned) {
    AppendColumns(&buf, &table, kI1Base, art.i1->columns());
    AppendColumns(&buf, &table, kI2Base, art.i2->columns());
  }
  buf.resize(AlignUp(buf.size()), 0);

  // Backfill the header now that offsets and checksums are known.
  std::memcpy(buf.data(), kMagic, 8);
  uint32_t version = kSnapshotVersion;
  uint32_t count = static_cast<uint32_t>(table.size());
  std::memcpy(buf.data() + 8, &version, 4);
  std::memcpy(buf.data() + 12, &count, 4);
  uint8_t* p = buf.data() + 16;
  for (const SegEntry& e : table) {
    std::memset(p, 0, 32);
    std::memcpy(p, &e.id, 4);
    std::memcpy(p + 8, &e.offset, 8);
    std::memcpy(p + 16, &e.length, 8);
    std::memcpy(p + 24, &e.checksum, 8);
    p += 32;
  }
  return buf;
}

Result<DecodedArtifacts> DecodeArtifacts(const uint8_t* data, size_t size,
                                         std::shared_ptr<const void> owner) {
  std::vector<SegEntry> table;
  E3D_RETURN_IF_ERROR(ParseHeader(data, size, &table));
  E3D_RETURN_IF_ERROR(VerifySegments(data, table));

  const SegEntry* meta_seg = FindSegment(table, kMetaSegment);
  if (meta_seg == nullptr) return Corrupt("missing META segment");
  ByteReader meta(data + meta_seg->offset, meta_seg->length);

  DecodedArtifacts out;
  auto art = std::make_shared<Stage1Artifacts>();
  E3D_RETURN_IF_ERROR(meta.ReadString(&out.key));
  E3D_RETURN_IF_ERROR(ReadValue(&meta, &art->answer1));
  E3D_RETURN_IF_ERROR(ReadValue(&meta, &art->answer2));
  E3D_RETURN_IF_ERROR(ReadProvenance(&meta, &art->p1));
  E3D_RETURN_IF_ERROR(ReadProvenance(&meta, &art->p2));
  E3D_RETURN_IF_ERROR(ReadCanonical(&meta, &art->t1));
  E3D_RETURN_IF_ERROR(ReadCanonical(&meta, &art->t2));
  size_t dict_size = 0;
  E3D_RETURN_IF_ERROR(meta.ReadCount(4, &dict_size));
  for (size_t i = 0; i < dict_size; ++i) {
    std::string token;
    E3D_RETURN_IF_ERROR(meta.ReadString(&token));
    // Interning in stored id order reproduces ids 0..n-1 exactly.
    art->dict.Intern(token);
  }
  if (art->dict.size() != dict_size) {
    return Corrupt("duplicate tokens in stored dictionary");
  }
  size_t n_candidates = 0;
  E3D_RETURN_IF_ERROR(meta.ReadCount(16, &n_candidates));
  art->candidates.reserve(n_candidates);
  for (size_t i = 0; i < n_candidates; ++i) {
    uint64_t a = 0, b = 0;
    E3D_RETURN_IF_ERROR(meta.ReadU64(&a));
    E3D_RETURN_IF_ERROR(meta.ReadU64(&b));
    art->candidates.emplace_back(static_cast<size_t>(a),
                                 static_cast<size_t>(b));
  }
  uint8_t has_interned = 0, with_bags = 0;
  E3D_RETURN_IF_ERROR(meta.ReadU8(&has_interned));
  E3D_RETURN_IF_ERROR(meta.ReadU8(&with_bags));
  for (const auto& [a, b] : art->candidates) {
    if (a >= art->t1.size() || b >= art->t2.size()) {
      return Corrupt("candidate index out of range");
    }
  }

  if (has_interned != 0) {
    InternedColumns c1, c2;
    E3D_RETURN_IF_ERROR(BindColumns(data, table, kI1Base, &c1));
    E3D_RETURN_IF_ERROR(BindColumns(data, table, kI2Base, &c2));
    E3D_RETURN_IF_ERROR(
        ValidateColumns(c1, art->t1.size(), art->dict.size()));
    E3D_RETURN_IF_ERROR(
        ValidateColumns(c2, art->t2.size(), art->dict.size()));
    // The relation borrows the columns straight out of the mapping; the
    // owner parked in storage_owner keeps the pages alive for the block's
    // whole lifetime (dies with the last ArtifactsPtr).
    art->i1 = std::make_unique<InternedRelation>(art->t1, &art->dict,
                                                 with_bags != 0, c1);
    art->i2 = std::make_unique<InternedRelation>(art->t2, &art->dict,
                                                 with_bags != 0, c2);
    art->storage_owner = std::move(owner);
  }
  out.artifacts = std::move(art);
  return out;
}

std::vector<uint8_t> EncodeIncumbents(
    const std::vector<std::pair<std::string, SolverIncumbents>>& entries) {
  ByteWriter w;
  w.PutU32(static_cast<uint32_t>(entries.size()));
  for (const auto& [key, inc] : entries) {
    w.PutString(key);
    w.PutDouble(inc.objective);
    w.PutU8(inc.complete ? 1 : 0);
    w.PutU32(static_cast<uint32_t>(inc.units.size()));
    for (const UnitIncumbent& u : inc.units) {
      w.PutU64(u.fingerprint);
      w.PutDouble(u.objective);
      w.PutU8(u.via_assignment ? 1 : 0);
    }
  }
  std::vector<uint8_t> payload = w.Take();
  std::vector<uint8_t> buf(8 + 4 + 8 + payload.size(), 0);
  std::memcpy(buf.data(), kIncMagic, 8);
  uint32_t version = kSnapshotVersion;
  std::memcpy(buf.data() + 8, &version, 4);
  uint64_t checksum = Checksum64(payload.data(), payload.size());
  std::memcpy(buf.data() + 12, &checksum, 8);
  if (!payload.empty()) {
    std::memcpy(buf.data() + 20, payload.data(), payload.size());
  }
  return buf;
}

Result<std::vector<std::pair<std::string, SolverIncumbents>>>
DecodeIncumbents(const uint8_t* data, size_t size) {
  if (size < 20) return Corrupt("incumbent blob shorter than header");
  if (std::memcmp(data, kIncMagic, 8) != 0) {
    return Corrupt("incumbent blob bad magic");
  }
  uint32_t version = 0;
  uint64_t checksum = 0;
  std::memcpy(&version, data + 8, 4);
  std::memcpy(&checksum, data + 12, 8);
  if (version == 0 || version > kSnapshotVersion) {
    return Corrupt("incumbent blob unsupported version");
  }
  if (Checksum64(data + 20, size - 20) != checksum) {
    return Corrupt("incumbent blob checksum mismatch");
  }
  ByteReader r(data + 20, size - 20);
  size_t n = 0;
  E3D_RETURN_IF_ERROR(r.ReadCount(18, &n));
  std::vector<std::pair<std::string, SolverIncumbents>> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    std::string key;
    SolverIncumbents inc;
    E3D_RETURN_IF_ERROR(r.ReadString(&key));
    E3D_RETURN_IF_ERROR(r.ReadDouble(&inc.objective));
    uint8_t complete = 0;
    E3D_RETURN_IF_ERROR(r.ReadU8(&complete));
    inc.complete = complete != 0;
    size_t nunits = 0;
    E3D_RETURN_IF_ERROR(r.ReadCount(17, &nunits));
    inc.units.resize(nunits);
    for (size_t u = 0; u < nunits; ++u) {
      E3D_RETURN_IF_ERROR(r.ReadU64(&inc.units[u].fingerprint));
      E3D_RETURN_IF_ERROR(r.ReadDouble(&inc.units[u].objective));
      uint8_t via = 0;
      E3D_RETURN_IF_ERROR(r.ReadU8(&via));
      inc.units[u].via_assignment = via != 0;
    }
    out.emplace_back(std::move(key), std::move(inc));
  }
  return out;
}

}  // namespace storage
}  // namespace explain3d
