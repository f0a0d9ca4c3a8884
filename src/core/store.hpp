// Durable experience store: append-only record log + mmap'd SoA snapshots.
//
// The paper's data-characteristics database (§4.2) only pays off as
// long-lived infrastructure, so the experience store gets two on-disk
// forms with sharply different jobs:
//
//   <prefix>.log    append-only record log. Fixed-width binary frames
//                   ([u32 payload_len][u32 crc32][payload]), group-commit
//                   batched: appends buffer in memory and reach the kernel
//                   as one write per batch, so ingest stays off the tuning
//                   hot path. CRC32 guards every frame; recovery truncates
//                   a torn final frame and rejects corrupt ones.
//
//   <prefix>.snap   mmap'd snapshot whose file layout IS the flat SoA
//                   signature index: a versioned header, the record-offset
//                   array, the contiguous signature doubles, the
//                   least-square k-d index, and the (label +
//                   measurements) blobs with their own offset table.
//                   Opening a snapshot is mmap + pointer fixup — zero
//                   copies, zero parsing: HistoryDatabase::adopt_snapshot
//                   serves SignatureViews straight out of the mapping and
//                   decodes record payloads lazily on first access.
//
// Rotation is atomic: write to <file>.tmp, fsync, rename over the live
// file, fsync the directory. The snapshot header records the log
// watermark (the logical log offset its contents cover); after a
// successful rename the log is rewritten to an empty file whose header
// base equals that watermark, so crash recovery — newest valid snapshot,
// then replay of the log tail past the watermark — is correct at every
// kill point between those steps.
//
// All integers are stored little-endian-native with an endianness sentinel
// in each header; a store written on a foreign-order machine is refused at
// open rather than misread.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/history.hpp"
#include "util/mmap_file.hpp"

namespace harmony {

struct StoreOptions {
  /// Group commit thresholds: append() buffers encoded frames and commits
  /// them in one write once either limit is reached (or on an explicit
  /// commit()/flush()).
  std::size_t group_commit_records = 256;
  std::size_t group_commit_bytes = 1u << 20;
  /// fsync every group commit (true durability per batch) instead of only
  /// on flush()/snapshot()/close().
  bool fsync_commits = false;
  /// Auto-rotation threshold for maybe_snapshot(): snapshot once this many
  /// records sit in the log past the current watermark. 0 = manual only.
  std::size_t snapshot_every_records = 0;
  /// Crash-injection hook (tests): total bytes of file-system effects the
  /// simulated disk accepts before dying mid-effect; see FsFaultBudget.
  /// 0 = unlimited. After a DiskKilled the store refuses further writes —
  /// reopen to recover, exactly like a crashed process would.
  std::uint64_t fault_budget_bytes = 0;
};

/// What ExperienceStore::open found and did.
struct RecoveryInfo {
  bool had_snapshot = false;
  std::size_t snapshot_records = 0;  ///< records adopted from the mapping
  std::size_t replayed_records = 0;  ///< records replayed from the log tail
  std::uint64_t truncated_bytes = 0; ///< torn/corrupt tail cut off the log
  std::uint64_t watermark = 0;       ///< logical log offset the snapshot covers
};

// --------------------------------------------------------------------------
// Record payload codec (shared by log frames and snapshot blobs)

/// Encoded byte size of `rec`. Snapshot blobs exclude the signature (it
/// lives in the SoA index); log frames include it.
[[nodiscard]] std::size_t encoded_record_size(const ExperienceRecord& rec,
                                              bool include_signature);

/// Encodes `rec` into `out` (encoded_record_size bytes).
void encode_record(const ExperienceRecord& rec, bool include_signature,
                   unsigned char* out);

/// Decodes a payload produced by encode_record; bounds-checked, throws
/// harmony::Error on malformed bytes. With include_signature=false the
/// returned record's signature is empty (the caller fills it from the SoA
/// index).
[[nodiscard]] ExperienceRecord decode_record_payload(const unsigned char* p,
                                                     std::size_t n,
                                                     bool include_signature);

// --------------------------------------------------------------------------
// SnapshotMapping — a validated, read-only view of a .snap file

class SnapshotMapping {
 public:
  /// Maps and validates `path`; throws harmony::Error when the file is not
  /// a snapshot, has a foreign byte order, fails its header CRC, claims
  /// sections beyond the mapped size, or carries an index whose row ids
  /// are not a leaf-ordered permutation of the rows it covers (O(n)).
  [[nodiscard]] static std::shared_ptr<const SnapshotMapping> open(
      const std::string& path);

  [[nodiscard]] std::size_t record_count() const noexcept { return count_; }
  [[nodiscard]] std::size_t value_count() const noexcept { return values_; }
  [[nodiscard]] bool mixed_dims() const noexcept { return mixed_; }
  /// Uniform signature arity (meaningless when mixed_dims()).
  [[nodiscard]] std::size_t uniform_dims() const noexcept { return dims_; }
  [[nodiscard]] std::uint64_t watermark() const noexcept { return watermark_; }

  /// Flat SoA signature index, borrowed from the mapping.
  [[nodiscard]] const double* sig_data() const noexcept { return sig_data_; }
  [[nodiscard]] const std::size_t* sig_offsets() const noexcept {
    return sig_offsets_;
  }
  /// Persisted least-square index (validated at open), or an empty view
  /// when the snapshot carries none (empty store, mixed arity, format 1).
  [[nodiscard]] const SignatureIndexView& index() const noexcept {
    return index_;
  }

  /// Raw encoded (label + measurements) blob of record i.
  [[nodiscard]] std::pair<const unsigned char*, std::size_t> record_blob(
      std::size_t i) const;
  /// Fully decoded record i, signature included (copied out of the index).
  [[nodiscard]] ExperienceRecord decode_record(std::size_t i) const;

 private:
  SnapshotMapping() = default;

  MappedFile file_;
  std::size_t count_ = 0;
  std::size_t values_ = 0;
  std::size_t dims_ = 0;
  bool mixed_ = false;
  std::uint64_t watermark_ = 0;
  const double* sig_data_ = nullptr;
  const std::size_t* sig_offsets_ = nullptr;
  SignatureIndexView index_{};
  const std::uint64_t* rec_offsets_ = nullptr;
  const unsigned char* blob_ = nullptr;
  std::uint64_t blob_bytes_ = 0;
  // On platforms where size_t is not 64-bit the file's u64 offsets are
  // converted into this owned array instead of pointed at directly.
  std::vector<std::size_t> converted_offsets_;
};

// --------------------------------------------------------------------------
// ExperienceStore — the durable store façade

class ExperienceStore {
 public:
  ExperienceStore() = default;
  ExperienceStore(const ExperienceStore&) = delete;
  ExperienceStore& operator=(const ExperienceStore&) = delete;
  /// Best-effort flush of buffered appends (errors swallowed — destructors
  /// must not throw). Call flush() explicitly for a checked drain.
  ~ExperienceStore();

  /// Opens the store at `prefix` (files <prefix>.log / <prefix>.snap),
  /// creating it when absent, and recovers into `db`: adopts the newest
  /// valid snapshot zero-copy, then replays the log tail past its
  /// watermark record by record (pre-sizing the database first), truncating
  /// a torn final frame in place. Returns what it found. `db` afterwards
  /// holds exactly the durable state; keep using the same database for
  /// appends so snapshots stay consistent with the log.
  RecoveryInfo open(const std::string& prefix, HistoryDatabase& db,
                    StoreOptions opts = {});

  [[nodiscard]] bool is_open() const noexcept { return log_.is_open(); }
  [[nodiscard]] const RecoveryInfo& recovery() const noexcept { return info_; }
  [[nodiscard]] const std::string& prefix() const noexcept { return prefix_; }

  /// Buffers one record for the log; group-commits when the configured
  /// thresholds are reached.
  void append(const ExperienceRecord& rec);
  /// Writes buffered frames (one syscall); fsyncs only when
  /// StoreOptions::fsync_commits is set.
  void commit();
  /// commit() + fsync — the graceful-drain barrier.
  void flush();

  /// Writes a snapshot of `db` (which must hold exactly the records this
  /// store's log covers), atomically replaces <prefix>.snap, and resets the
  /// log to an empty file based at the new watermark.
  void snapshot(const HistoryDatabase& db);
  /// snapshot(db) once tail_records() reached the configured threshold.
  /// Returns true when it rotated.
  bool maybe_snapshot(const HistoryDatabase& db);

  /// Records appended past the current snapshot watermark (replayed at
  /// open + appended since), i.e. the cost of the next crash recovery.
  [[nodiscard]] std::size_t tail_records() const noexcept {
    return tail_records_;
  }
  /// Logical end offset of the log (header-relative, monotone across
  /// rotations), including buffered-but-uncommitted frames.
  [[nodiscard]] std::uint64_t log_end() const noexcept;

  /// flush() + close file handles; open() may be called again.
  void close();

  [[nodiscard]] static std::string log_path(const std::string& prefix) {
    return prefix + ".log";
  }
  [[nodiscard]] static std::string snapshot_path(const std::string& prefix) {
    return prefix + ".snap";
  }

 private:
  void require_alive() const;
  void write_fresh_log(const std::string& path, std::uint64_t base);
  void write_snapshot_file(const std::string& path, const HistoryDatabase& db,
                           std::uint64_t watermark);

  std::string prefix_;
  StoreOptions opts_;
  RecoveryInfo info_;
  FileWriter log_;
  std::uint64_t log_base_ = 0;  ///< logical offset of the first frame byte
  std::vector<unsigned char> pending_;
  std::size_t pending_records_ = 0;
  std::size_t tail_records_ = 0;
  FsFaultBudget budget_;
  FsFaultBudget* budget_ptr_ = nullptr;  ///< &budget_ when fault injection is on
  bool dead_ = false;  ///< simulated crash happened; writes refused
  /// Index the last rebuilding rotation wrote: valid for its rows while
  /// the database stays on append chain `built_chain_` (stamps are never 0).
  std::uint64_t built_chain_ = 0;
  std::vector<double> built_boxes_;
  std::vector<std::uint32_t> built_ids_;
};

}  // namespace harmony
