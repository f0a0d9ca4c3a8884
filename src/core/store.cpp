#include "core/store.hpp"

#include <cstring>
#include <limits>
#include <utility>

#include "core/analyzer.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"

namespace harmony {
namespace {

// ---------------------------------------------------------------------------
// Wire primitives. All multi-byte values are stored in the writing machine's
// native byte order; the endianness sentinel in each header turns a
// foreign-order file into a clean open error instead of silent garbage.

constexpr char kLogMagic[8] = {'H', 'R', 'M', 'N', 'L', 'O', 'G', '1'};
constexpr char kSnapMagic[8] = {'H', 'R', 'M', 'N', 'S', 'N', 'P', '1'};
constexpr std::uint32_t kEndianSentinel = 0x01020304u;
constexpr std::uint32_t kLogFormatVersion = 1;
// Snapshot format 2 persists the least-square k-d index where format 1
// persisted the prune sketch; format-1 files still open, sketch ignored.
constexpr std::uint32_t kSnapFormatVersion = 2;
constexpr std::uint32_t kSnapFormatVersionSketch = 1;

constexpr std::size_t kLogHeaderSize = 24;
constexpr std::size_t kFrameHeaderSize = 8;  // u32 len + u32 crc
constexpr std::size_t kSnapHeaderSize = 112;

// Sanity cap for any length field read off disk: a corrupt frame must fail
// fast, not drive a multi-gigabyte allocation.
constexpr std::uint32_t kMaxFieldLen = 1u << 28;

// Snapshot header flag bits.
constexpr std::uint64_t kFlagMixedDims = 1u << 0;
constexpr std::uint64_t kFlagHasIndex = 1u << 1;  // format 1: sketch

/// Byte offset of the row ids in an index section over `rows` rows.
std::uint64_t index_ids_offset(std::uint64_t rows, std::uint64_t dims) {
  return 8 + signature_index_nodes(rows) * 2 * dims * 8;
}

/// Byte size of that section: u64 rows, node boxes, u32 row ids padded to
/// 8 bytes.
std::uint64_t index_section_bytes(std::uint64_t rows, std::uint64_t dims) {
  return index_ids_offset(rows, dims) + (rows * 4 + 7) / 8 * 8;
}

template <typename T>
void put(unsigned char*& out, T v) {
  std::memcpy(out, &v, sizeof(T));
  out += sizeof(T);
}

template <typename T>
[[nodiscard]] T get(const unsigned char* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

/// Bounds-checked sequential reader over an untrusted payload.
struct Cursor {
  const unsigned char* p;
  std::size_t left;

  template <typename T>
  T read() {
    if (left < sizeof(T)) throw Error("experience store: truncated record payload");
    T v;
    std::memcpy(&v, p, sizeof(T));
    p += sizeof(T);
    left -= sizeof(T);
    return v;
  }
  const unsigned char* take(std::size_t n) {
    if (left < n) throw Error("experience store: truncated record payload");
    const unsigned char* at = p;
    p += n;
    left -= n;
    return at;
  }
};

[[nodiscard]] std::uint32_t checked_len(std::uint32_t n, const char* what) {
  if (n > kMaxFieldLen) {
    throw Error(std::string("experience store: implausible ") + what +
                " length in record payload");
  }
  return n;
}

void read_doubles(Cursor& c, std::size_t n, std::vector<double>& out) {
  const unsigned char* src = c.take(n * sizeof(double));
  out.resize(n);
  if (n > 0) std::memcpy(out.data(), src, n * sizeof(double));
}

}  // namespace

// ---------------------------------------------------------------------------
// Record payload codec.
//
// Layout (all fields naturally aligned only within the copy, never in the
// file — every access is memcpy-based):
//   u32 sig_len                 (0 when the signature is excluded)
//   u32 label_len
//   u32 n_measurements
//   f64 signature[sig_len]
//   u8  label[label_len]
//   per measurement:
//     f64 performance
//     u32 config_len
//     u8  estimated, u8 censored, u16 pad
//     f64 config[config_len]

std::size_t encoded_record_size(const ExperienceRecord& rec,
                                bool include_signature) {
  std::size_t n = 12;
  if (include_signature) n += rec.signature.size() * sizeof(double);
  n += rec.label.size();
  for (const Measurement& m : rec.measurements) {
    n += sizeof(double) + 8 + m.config.size() * sizeof(double);
  }
  return n;
}

void encode_record(const ExperienceRecord& rec, bool include_signature,
                   unsigned char* out) {
  const std::size_t sig_len = include_signature ? rec.signature.size() : 0;
  put<std::uint32_t>(out, static_cast<std::uint32_t>(sig_len));
  put<std::uint32_t>(out, static_cast<std::uint32_t>(rec.label.size()));
  put<std::uint32_t>(out, static_cast<std::uint32_t>(rec.measurements.size()));
  if (sig_len > 0) {
    std::memcpy(out, rec.signature.data(), sig_len * sizeof(double));
    out += sig_len * sizeof(double);
  }
  if (!rec.label.empty()) {
    std::memcpy(out, rec.label.data(), rec.label.size());
    out += rec.label.size();
  }
  for (const Measurement& m : rec.measurements) {
    put<double>(out, m.performance);
    put<std::uint32_t>(out, static_cast<std::uint32_t>(m.config.size()));
    put<std::uint8_t>(out, m.estimated ? 1 : 0);
    put<std::uint8_t>(out, m.censored ? 1 : 0);
    put<std::uint16_t>(out, 0);
    if (!m.config.empty()) {
      std::memcpy(out, m.config.data(), m.config.size() * sizeof(double));
      out += m.config.size() * sizeof(double);
    }
  }
}

ExperienceRecord decode_record_payload(const unsigned char* p, std::size_t n,
                                       bool include_signature) {
  Cursor c{p, n};
  ExperienceRecord rec;
  const std::uint32_t sig_len = checked_len(c.read<std::uint32_t>(), "signature");
  const std::uint32_t label_len = checked_len(c.read<std::uint32_t>(), "label");
  const std::uint32_t n_meas = checked_len(c.read<std::uint32_t>(), "measurement");
  if (sig_len > 0 && !include_signature) {
    throw Error("experience store: unexpected inline signature in record payload");
  }
  if (sig_len > 0) read_doubles(c, sig_len, rec.signature);
  if (label_len > 0) {
    const unsigned char* s = c.take(label_len);
    rec.label.assign(reinterpret_cast<const char*>(s), label_len);
  }
  rec.measurements.resize(n_meas);
  for (Measurement& m : rec.measurements) {
    m.performance = c.read<double>();
    const std::uint32_t config_len = checked_len(c.read<std::uint32_t>(), "config");
    m.estimated = c.read<std::uint8_t>() != 0;
    m.censored = c.read<std::uint8_t>() != 0;
    (void)c.read<std::uint16_t>();  // pad
    read_doubles(c, config_len, m.config);
  }
  if (c.left != 0) {
    throw Error("experience store: trailing bytes after record payload");
  }
  return rec;
}

// ---------------------------------------------------------------------------
// SnapshotMapping.
//
// Header layout (offsets in bytes; total kSnapHeaderSize = 112, 8-aligned):
//     0  magic[8]            "HRMNSNP1"
//     8  u32 endian sentinel
//    12  u32 format version
//    16  u64 record_count
//    24  u64 value_count     (total signature doubles)
//    32  u64 flags           (bit0 mixed arity, bit1 index present)
//    40  u64 uniform_dims
//    48  u64 log watermark
//    56  u64 sig_offsets_pos
//    64  u64 sig_data_pos
//    72  u64 index_pos       (0 when absent; format 1: sketch_pos)
//    80  u64 rec_offsets_pos
//    88  u64 rec_blob_pos
//    96  u64 file_bytes
//   104  u32 crc32 of bytes [0, 104)
//   108  u32 pad
// Sections follow in position order, each 8-byte aligned:
//   sig_offsets  u64[record_count + 1]
//   sig_data     f64[value_count]
//   index        u64 rows (1..record_count: the index covers records
//                [0, rows), later ones are scanned), f64[nodes * 2 * dims]
//                node boxes, u32[rows] row ids in leaf order, zero-padded
//                to 8 bytes (optional; layout of build_signature_index,
//                nodes = signature_index_nodes(rows))
//   rec_offsets  u64[record_count + 1]   (byte offsets into the blob)
//   blob         encoded (label + measurements) payloads, back to back

std::shared_ptr<const SnapshotMapping> SnapshotMapping::open(
    const std::string& path) {
  auto snap = std::shared_ptr<SnapshotMapping>(new SnapshotMapping());
  snap->file_ = MappedFile::open(path);
  const unsigned char* base = snap->file_.data();
  const std::size_t size = snap->file_.size();

  if (size < kSnapHeaderSize) {
    throw Error("snapshot '" + path + "': file shorter than header");
  }
  if (std::memcmp(base, kSnapMagic, sizeof(kSnapMagic)) != 0) {
    throw Error("snapshot '" + path + "': bad magic (not a snapshot file)");
  }
  if (get<std::uint32_t>(base + 8) != kEndianSentinel) {
    throw Error("snapshot '" + path + "': foreign byte order");
  }
  const std::uint32_t version = get<std::uint32_t>(base + 12);
  if (version != kSnapFormatVersion && version != kSnapFormatVersionSketch) {
    throw Error("snapshot '" + path + "': unsupported format version");
  }
  const std::uint32_t want_crc = get<std::uint32_t>(base + 104);
  if (crc32(base, 104) != want_crc) {
    throw Error("snapshot '" + path + "': header CRC mismatch");
  }

  const std::uint64_t count = get<std::uint64_t>(base + 16);
  const std::uint64_t values = get<std::uint64_t>(base + 24);
  const std::uint64_t flags = get<std::uint64_t>(base + 32);
  const std::uint64_t dims = get<std::uint64_t>(base + 40);
  snap->watermark_ = get<std::uint64_t>(base + 48);
  const std::uint64_t sig_offsets_pos = get<std::uint64_t>(base + 56);
  const std::uint64_t sig_data_pos = get<std::uint64_t>(base + 64);
  const std::uint64_t index_pos = get<std::uint64_t>(base + 72);
  const std::uint64_t rec_offsets_pos = get<std::uint64_t>(base + 80);
  const std::uint64_t rec_blob_pos = get<std::uint64_t>(base + 88);
  const std::uint64_t file_bytes = get<std::uint64_t>(base + 96);

  if (file_bytes != size) {
    throw Error("snapshot '" + path + "': size mismatch (truncated copy?)");
  }
  const bool has_index =
      version == kSnapFormatVersion && (flags & kFlagHasIndex) != 0;
  std::uint64_t index_rows = 0;
  // Section extents, checked against the mapped size and each other.
  auto section = [&](std::uint64_t pos, std::uint64_t bytes, const char* what) {
    if (pos % 8 != 0 || pos < kSnapHeaderSize || pos > size ||
        bytes > size - pos) {
      throw Error("snapshot '" + path + "': " + what + " section out of bounds");
    }
  };
  section(sig_offsets_pos, (count + 1) * 8, "signature offset");
  section(sig_data_pos, values * 8, "signature data");
  if (has_index) {
    // The index needs uniform arity and u32-addressable rows. Tying dims
    // to a value count the file can hold also keeps the section size
    // computation below from overflowing.
    if ((flags & kFlagMixedDims) != 0 || dims == 0 || count == 0 ||
        count > std::numeric_limits<std::uint32_t>::max() ||
        values > size / 8 || values % count != 0 || values / count != dims) {
      throw Error("snapshot '" + path + "': index section corrupt");
    }
    section(index_pos, 8, "index");
    index_rows = get<std::uint64_t>(base + index_pos);
    if (index_rows == 0 || index_rows > count) {
      throw Error("snapshot '" + path + "': index section corrupt");
    }
    section(index_pos, index_section_bytes(index_rows, dims), "index");
  }
  section(rec_offsets_pos, (count + 1) * 8, "record offset");
  section(rec_blob_pos, 0, "record blob");

  snap->count_ = static_cast<std::size_t>(count);
  snap->values_ = static_cast<std::size_t>(values);
  snap->mixed_ = (flags & kFlagMixedDims) != 0;
  snap->dims_ = static_cast<std::size_t>(dims);
  snap->sig_data_ = reinterpret_cast<const double*>(base + sig_data_pos);
  snap->rec_offsets_ =
      reinterpret_cast<const std::uint64_t*>(base + rec_offsets_pos);
  snap->blob_ = base + rec_blob_pos;
  snap->blob_bytes_ = size - rec_blob_pos;

  const std::uint64_t* raw_sig_offsets =
      reinterpret_cast<const std::uint64_t*>(base + sig_offsets_pos);
  if constexpr (sizeof(std::size_t) == sizeof(std::uint64_t)) {
    // LP64: the file's u64 offset array IS a size_t array — borrow it.
    snap->sig_offsets_ = reinterpret_cast<const std::size_t*>(raw_sig_offsets);
  } else {
    snap->converted_offsets_.assign(raw_sig_offsets,
                                    raw_sig_offsets + count + 1);
    snap->sig_offsets_ = snap->converted_offsets_.data();
  }
  if (snap->sig_offsets_[0] != 0 || snap->sig_offsets_[count] != values) {
    throw Error("snapshot '" + path + "': signature offset table corrupt");
  }
  if (snap->rec_offsets_[0] != 0 ||
      snap->rec_offsets_[count] > snap->blob_bytes_) {
    throw Error("snapshot '" + path + "': record offset table corrupt");
  }
  if (has_index) {
    const auto rows = static_cast<std::size_t>(index_rows);
    const auto* boxes = reinterpret_cast<const double*>(base + index_pos + 8);
    const auto* ids = reinterpret_cast<const std::uint32_t*>(
        base + index_pos + index_ids_offset(rows, dims));
    // Every row id is checked before any search can follow one.
    if (!signature_index_well_formed(ids, rows)) {
      throw Error("snapshot '" + path + "': index section corrupt");
    }
    snap->index_ = SignatureIndexView{boxes, ids, rows};
  }
  return snap;
}

std::pair<const unsigned char*, std::size_t> SnapshotMapping::record_blob(
    std::size_t i) const {
  HARMONY_REQUIRE(i < count_, "snapshot record index out of range");
  const std::uint64_t begin = rec_offsets_[i];
  const std::uint64_t end = rec_offsets_[i + 1];
  if (begin > end || end > blob_bytes_) {
    throw Error("experience store: snapshot record offsets corrupt");
  }
  return {blob_ + begin, static_cast<std::size_t>(end - begin)};
}

ExperienceRecord SnapshotMapping::decode_record(std::size_t i) const {
  const auto [p, n] = record_blob(i);
  ExperienceRecord rec = decode_record_payload(p, n, /*include_signature=*/false);
  const std::size_t begin = sig_offsets_[i];
  const std::size_t end = sig_offsets_[i + 1];
  rec.signature.assign(sig_data_ + begin, sig_data_ + end);
  return rec;
}

// ---------------------------------------------------------------------------
// Log header I/O.
//
//   0  magic[8] "HRMNLOG1"
//   8  u32 endian sentinel
//  12  u32 format version
//  16  u64 base offset (logical offset of the first frame byte)

namespace {

void encode_log_header(unsigned char* out, std::uint64_t base) {
  std::memcpy(out, kLogMagic, sizeof(kLogMagic));
  out += sizeof(kLogMagic);
  put<std::uint32_t>(out, kEndianSentinel);
  put<std::uint32_t>(out, kLogFormatVersion);
  put<std::uint64_t>(out, base);
}

}  // namespace

// ---------------------------------------------------------------------------
// ExperienceStore.

ExperienceStore::~ExperienceStore() {
  try {
    if (is_open() && !dead_) flush();
  } catch (...) {
    // Destructor: a failed final flush behaves like a crash; recovery
    // replays whatever reached the disk.
  }
}

void ExperienceStore::require_alive() const {
  HARMONY_REQUIRE(is_open(), "experience store is not open");
  if (dead_) {
    throw Error("experience store: disk died (simulated crash); reopen to recover");
  }
}

void ExperienceStore::write_fresh_log(const std::string& path,
                                      std::uint64_t base) {
  FileWriter w(path, FileWriter::Mode::kTruncate, budget_ptr_);
  unsigned char header[kLogHeaderSize];
  encode_log_header(header, base);
  w.write(header, sizeof(header));
  w.sync();
  w.close();
}

RecoveryInfo ExperienceStore::open(const std::string& prefix,
                                   HistoryDatabase& db, StoreOptions opts) {
  HARMONY_REQUIRE(!prefix.empty(), "experience store prefix must be non-empty");
  close();
  prefix_ = prefix;
  opts_ = opts;
  info_ = RecoveryInfo{};
  dead_ = false;
  pending_.clear();
  pending_records_ = 0;
  tail_records_ = 0;
  if (opts_.fault_budget_bytes > 0) {
    budget_.remaining = opts_.fault_budget_bytes;
    budget_ptr_ = &budget_;
  } else {
    budget_ptr_ = nullptr;
  }

  const std::string log_file = log_path(prefix_);
  const std::string snap_file = snapshot_path(prefix_);
  // A crash between the two rotation renames can leave stale temps behind;
  // they are dead weight, never inputs to recovery.
  remove_file(snap_file + ".tmp");
  remove_file(log_file + ".tmp");

  // Recovery is deliberately unmetered: it models the *next* process booting
  // after the crash, not the process that crashed.
  std::shared_ptr<const SnapshotMapping> snap;
  if (file_exists(snap_file)) {
    snap = SnapshotMapping::open(snap_file);
    info_.had_snapshot = true;
    info_.snapshot_records = snap->record_count();
    info_.watermark = snap->watermark();
  }

  // Scan the log: find valid frames past the watermark, spot the torn tail.
  MappedFile log_map;
  std::uint64_t base = info_.watermark;
  std::vector<std::pair<std::size_t, std::size_t>> frames;  // pos, payload len
  std::size_t replay_values = 0;
  bool rewrite_log = false;
  if (file_exists(log_file) && file_size(log_file) >= kLogHeaderSize) {
    log_map = MappedFile::open(log_file);
    const unsigned char* data = log_map.data();
    if (std::memcmp(data, kLogMagic, sizeof(kLogMagic)) != 0) {
      throw Error("experience log '" + log_file + "': bad magic");
    }
    if (get<std::uint32_t>(data + 8) != kEndianSentinel) {
      throw Error("experience log '" + log_file + "': foreign byte order");
    }
    if (get<std::uint32_t>(data + 12) != kLogFormatVersion) {
      throw Error("experience log '" + log_file + "': unsupported format version");
    }
    base = get<std::uint64_t>(data + 16);
    if (base > info_.watermark) {
      throw Error("experience store '" + prefix_ +
                  "': log begins past the snapshot watermark (mismatched pair)");
    }
    if (base > 0 && !snap) {
      throw Error("experience store '" + prefix_ +
                  "': log was rotated but its snapshot is missing");
    }
    const std::size_t skip =
        static_cast<std::size_t>(info_.watermark - base);
    std::size_t pos = kLogHeaderSize;
    const std::size_t end = log_map.size();
    std::size_t valid_end = end;  // first byte of the torn/corrupt tail
    while (pos < end) {
      if (end - pos < kFrameHeaderSize) {
        valid_end = pos;
        break;
      }
      const std::uint32_t len = get<std::uint32_t>(data + pos);
      if (len > kMaxFieldLen || end - pos - kFrameHeaderSize < len) {
        valid_end = pos;
        break;
      }
      const std::uint32_t want = get<std::uint32_t>(data + pos + 4);
      if (crc32(data + pos + kFrameHeaderSize, len) != want) {
        valid_end = pos;
        break;
      }
      // Frame is intact. Frames at logical offsets below the watermark are
      // already inside the snapshot (crash between snapshot rename and log
      // rewrite) — skip, do not replay twice.
      if (pos - kLogHeaderSize >= skip) {
        frames.emplace_back(pos + kFrameHeaderSize, len);
        replay_values += get<std::uint32_t>(data + pos + kFrameHeaderSize);
      }
      pos += kFrameHeaderSize + len;
    }
    if (valid_end < end) {
      info_.truncated_bytes = end - valid_end;
      truncate_file(log_file, valid_end);
      rewrite_log = false;  // header is intact; only the tail was cut
    }
  } else {
    // Missing or headerless (crashed during creation) log.
    if (file_exists(log_file)) {
      info_.truncated_bytes = file_size(log_file);
    }
    base = info_.watermark;
    rewrite_log = true;
  }

  // Load the database: adopt the snapshot zero-copy, then replay the tail.
  if (snap) {
    const std::size_t snap_values = snap->value_count();
    db.adopt_snapshot(std::move(snap));
    if (!frames.empty()) {
      db.reserve(info_.snapshot_records + frames.size(),
                 snap_values + replay_values);
    }
  } else {
    db = HistoryDatabase();
    if (!frames.empty()) db.reserve(frames.size(), replay_values);
  }
  for (const auto& [pos, len] : frames) {
    db.add(decode_record_payload(log_map.data() + pos, len,
                                 /*include_signature=*/true));
  }
  info_.replayed_records = frames.size();
  tail_records_ = frames.size();
  log_map = MappedFile();  // release before any rewrite

  if (rewrite_log) write_fresh_log(log_file, base);
  log_ = FileWriter(log_file, FileWriter::Mode::kAppend, budget_ptr_);
  log_base_ = base;
  return info_;
}

std::uint64_t ExperienceStore::log_end() const noexcept {
  if (!is_open()) return 0;
  return log_base_ + (log_.offset() - kLogHeaderSize) + pending_.size();
}

void ExperienceStore::append(const ExperienceRecord& rec) {
  require_alive();
  const std::size_t payload = encoded_record_size(rec, /*include_signature=*/true);
  HARMONY_REQUIRE(payload <= kMaxFieldLen, "experience record too large for the log");
  const std::size_t at = pending_.size();
  pending_.resize(at + kFrameHeaderSize + payload);
  unsigned char* frame = pending_.data() + at;
  encode_record(rec, /*include_signature=*/true, frame + kFrameHeaderSize);
  unsigned char* header = frame;
  put<std::uint32_t>(header, static_cast<std::uint32_t>(payload));
  put<std::uint32_t>(header, crc32(frame + kFrameHeaderSize, payload));
  ++pending_records_;
  ++tail_records_;
  if (pending_records_ >= opts_.group_commit_records ||
      pending_.size() >= opts_.group_commit_bytes) {
    commit();
  }
}

void ExperienceStore::commit() {
  require_alive();
  if (pending_.empty()) return;
  try {
    log_.write(pending_.data(), pending_.size());
    if (opts_.fsync_commits) log_.sync();
  } catch (const DiskKilled&) {
    dead_ = true;
    throw;
  }
  pending_.clear();
  pending_records_ = 0;
}

void ExperienceStore::flush() {
  commit();
  try {
    log_.sync();
  } catch (const DiskKilled&) {
    dead_ = true;
    throw;
  }
}

void ExperienceStore::write_snapshot_file(const std::string& path,
                                          const HistoryDatabase& db,
                                          std::uint64_t watermark) {
  const SignatureView view = db.signature_view();
  const std::size_t count = db.size();
  HARMONY_REQUIRE(view.count == count,
                  "snapshot source database in inconsistent state");
  const std::size_t values = view.offsets[count];

  // The least-square index is persisted whenever one applies, so a reopened
  // store lends it to classifiers and cold start skips the build. Rotation
  // runs on the serving loop: it reuses the widest index valid for a prefix
  // of the rows (the current mapping's, or one an earlier rotation built on
  // this append chain) until signature_index_stale says to rebuild.
  SignatureIndexView index{};
  if (signature_index_applicable(view)) {
    index = view.index;
    if (view.append_base == built_chain_ && built_ids_.size() > index.rows) {
      index = {built_boxes_.data(), built_ids_.data(), built_ids_.size()};
    }
    if (signature_index_stale(index.rows, count)) {
      build_signature_index(view, built_boxes_, built_ids_);
      built_chain_ = view.append_base;
      index = {built_boxes_.data(), built_ids_.data(), count};
    }
  }
  const std::uint64_t index_bytes =
      index.rows > 0 ? index_section_bytes(index.rows, view.dims) : 0;

  // Section positions (all 8-aligned because every section is a multiple of
  // 8 bytes except the blob, which comes last).
  const std::uint64_t sig_offsets_pos = kSnapHeaderSize;
  const std::uint64_t sig_data_pos = sig_offsets_pos + (count + 1) * 8;
  const std::uint64_t index_pos = sig_data_pos + values * 8;
  const std::uint64_t rec_offsets_pos = index_pos + index_bytes;
  const std::uint64_t rec_blob_pos = rec_offsets_pos + (count + 1) * 8;

  // Record blob offsets. Snapshot-backed records whose blobs already live in
  // the current mapping are copied verbatim (no decode/encode round trip).
  const SnapshotMapping* backing = db.snapshot_backing();
  const std::size_t backed = db.snapshot_record_count();
  std::vector<std::uint64_t> rec_offsets(count + 1);
  rec_offsets[0] = 0;
  for (std::size_t i = 0; i < count; ++i) {
    std::size_t blob_len;
    if (backing != nullptr && i < backed) {
      blob_len = backing->record_blob(i).second;
    } else {
      blob_len = encoded_record_size(db.record(i), /*include_signature=*/false);
    }
    rec_offsets[i + 1] = rec_offsets[i] + blob_len;
  }
  const std::uint64_t file_bytes = rec_blob_pos + rec_offsets[count];

  unsigned char header[kSnapHeaderSize] = {};
  {
    unsigned char* out = header;
    std::memcpy(out, kSnapMagic, sizeof(kSnapMagic));
    out += sizeof(kSnapMagic);
    put<std::uint32_t>(out, kEndianSentinel);
    put<std::uint32_t>(out, kSnapFormatVersion);
    put<std::uint64_t>(out, count);
    put<std::uint64_t>(out, values);
    std::uint64_t flags = 0;
    if (view.dims == SignatureView::kMixedDims) flags |= kFlagMixedDims;
    if (index.rows > 0) flags |= kFlagHasIndex;
    put<std::uint64_t>(out, flags);
    put<std::uint64_t>(out,
                       view.dims == SignatureView::kMixedDims ? 0 : view.dims);
    put<std::uint64_t>(out, watermark);
    put<std::uint64_t>(out, sig_offsets_pos);
    put<std::uint64_t>(out, sig_data_pos);
    put<std::uint64_t>(out, index_bytes > 0 ? index_pos : 0);
    put<std::uint64_t>(out, rec_offsets_pos);
    put<std::uint64_t>(out, rec_blob_pos);
    put<std::uint64_t>(out, file_bytes);
    put<std::uint32_t>(out, crc32(header, 104));
    put<std::uint32_t>(out, 0);
  }

  FileWriter w(path, FileWriter::Mode::kTruncate, budget_ptr_);
  w.write(header, sizeof(header));
  if constexpr (sizeof(std::size_t) == sizeof(std::uint64_t)) {
    w.write(view.offsets, (count + 1) * 8);
  } else {
    std::vector<std::uint64_t> wide(view.offsets, view.offsets + count + 1);
    w.write(wide.data(), (count + 1) * 8);
  }
  w.write(view.data, values * sizeof(double));
  if (index.rows > 0) {
    const std::uint64_t rows = index.rows;
    const std::uint64_t ids_at = index_ids_offset(rows, view.dims);
    w.write(&rows, sizeof(rows));
    w.write(index.boxes, ids_at - 8);
    w.write(index.ids, rows * sizeof(std::uint32_t));
    const unsigned char zeros[8] = {};
    w.write(zeros, index_bytes - ids_at - rows * 4);
  }
  w.write(rec_offsets.data(), (count + 1) * 8);
  // Blobs, batched through a scratch buffer so writes stay few and large.
  std::vector<unsigned char> scratch;
  constexpr std::size_t kScratchFlush = 1u << 20;
  for (std::size_t i = 0; i < count; ++i) {
    if (backing != nullptr && i < backed) {
      const auto [p, n] = backing->record_blob(i);
      scratch.insert(scratch.end(), p, p + n);
    } else {
      const ExperienceRecord& rec = db.record(i);
      const std::size_t n = encoded_record_size(rec, false);
      const std::size_t at = scratch.size();
      scratch.resize(at + n);
      encode_record(rec, false, scratch.data() + at);
    }
    if (scratch.size() >= kScratchFlush) {
      w.write(scratch.data(), scratch.size());
      scratch.clear();
    }
  }
  if (!scratch.empty()) w.write(scratch.data(), scratch.size());
  w.sync();
  w.close();
}

void ExperienceStore::snapshot(const HistoryDatabase& db) {
  require_alive();
  try {
    // Every record must be durable in the log before the snapshot claims to
    // cover it: a crash mid-rotation then recovers from log replay.
    flush();
    const std::uint64_t watermark = log_end();
    const std::string snap_file = snapshot_path(prefix_);
    const std::string log_file = log_path(prefix_);

    write_snapshot_file(snap_file + ".tmp", db, watermark);
    atomic_rename(snap_file + ".tmp", snap_file, budget_ptr_);
    // The snapshot now covers everything: reset the log to an empty file
    // based at the watermark. Build aside + rename so a crash mid-rewrite
    // leaves the old (fully covered, skipped-at-replay) log intact.
    log_.close();
    write_fresh_log(log_file + ".tmp", watermark);
    atomic_rename(log_file + ".tmp", log_file, budget_ptr_);
    log_ = FileWriter(log_file, FileWriter::Mode::kAppend, budget_ptr_);
    log_base_ = watermark;
    tail_records_ = 0;
    info_.watermark = watermark;
  } catch (const DiskKilled&) {
    dead_ = true;
    throw;
  }
}

bool ExperienceStore::maybe_snapshot(const HistoryDatabase& db) {
  if (opts_.snapshot_every_records == 0 ||
      tail_records_ < opts_.snapshot_every_records) {
    return false;
  }
  snapshot(db);
  return true;
}

void ExperienceStore::close() {
  if (!is_open()) return;
  if (!dead_) flush();
  log_.close();
  pending_.clear();
  pending_records_ = 0;
  tail_records_ = 0;
}

}  // namespace harmony
