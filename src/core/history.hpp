// Data characteristics database (paper §4.2, Figure 2).
//
// During tuning, Active Harmony records every explored configuration with
// its measured performance. Each completed run is stored as an
// ExperienceRecord keyed by the workload's characteristics signature (for
// the cluster web service: the frequency distribution of web interactions).
// Later runs retrieve the experience whose signature is closest to the
// observed one and warm-start the tuner from it. The database persists to a
// versioned line-oriented text format.
//
// Classification hot path: signatures are mirrored into a flat contiguous
// store (one double array plus record offsets) exposed as a SignatureView,
// so classifiers scan cache-line-dense rows instead of chasing a
// vector-of-vectors. A monotonically increasing, process-unique version
// stamps every mutation; fitted classifiers compare it to decide when their
// model must be rebuilt.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/parameter.hpp"
#include "core/tuner.hpp"

namespace harmony {

class SnapshotMapping;  // core/store.hpp — an mmap'd on-disk snapshot

/// Workload characteristics vector Ci = (ci1, ci2, ...).
using WorkloadSignature = std::vector<double>;

/// Squared-error distance the paper's classifier minimizes.
[[nodiscard]] double signature_distance_sq(const WorkloadSignature& a,
                                           const WorkloadSignature& b);
/// Euclidean distance between signatures.
[[nodiscard]] double signature_distance(const WorkloadSignature& a,
                                        const WorkloadSignature& b);

/// Process-unique version stamp. Every HistoryDatabase mutation (and every
/// ad-hoc signature set built outside a database) draws a fresh value, so a
/// version can never collide across database instances.
[[nodiscard]] std::uint64_t next_signature_version() noexcept;

/// Borrowed exact k-d index over rows [0, rows) of a uniform-arity
/// signature set, in the LeastSquareClassifier layout (analyzer.hpp,
/// build_signature_index): node boxes in breadth-first order, and the row
/// ids in leaf order. rows == 0 means "no index".
struct SignatureIndexView {
  const double* boxes = nullptr;
  const std::uint32_t* ids = nullptr;
  std::size_t rows = 0;
};

/// Zero-copy window over a flat signature store: `count` records whose
/// values live back to back in `data`, record i occupying
/// [offsets[i], offsets[i+1]). The view borrows the backing storage — it is
/// valid until the owner mutates or dies; consumers detect staleness by
/// comparing `version` (never 0) against the owner's current version.
struct SignatureView {
  /// Sentinel for `dims` when records disagree on arity.
  static constexpr std::size_t kMixedDims = static_cast<std::size_t>(-1);

  const double* data = nullptr;
  const std::size_t* offsets = nullptr;  ///< count + 1 entries, offsets[0]==0
  std::size_t count = 0;
  std::size_t dims = 0;  ///< uniform record arity, or kMixedDims
  std::uint64_t version = 0;
  /// Append-chain identity: the version stamp the owner drew at its last
  /// structural mutation (copy, reserve, adopt, materialize, load, CoW
  /// detach). Within one chain the owner only appends, so a consumer fitted
  /// at N rows under the same append_base may treat rows [0, N) as
  /// value-identical and consume rows [N, count) as a pure delta. 0 means
  /// "no chain": ad-hoc views never qualify for incremental maintenance.
  std::uint64_t append_base = 0;
  /// Persisted least-square index borrowed with the store: a
  /// snapshot-backed database exposes its snapshot's index (over the
  /// snapshot's rows, which stay a value-identical prefix after a
  /// copy-on-write detach) so fit() can borrow it instead of building one.
  /// Lives as long as the database keeps the mapping.
  SignatureIndexView index{};

  [[nodiscard]] bool empty() const noexcept { return count == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return count; }
  [[nodiscard]] std::size_t arity(std::size_t i) const noexcept {
    return offsets[i + 1] - offsets[i];
  }
  [[nodiscard]] const double* row(std::size_t i) const noexcept {
    return data + offsets[i];
  }
};

/// One prior run: its workload signature and everything measured during it.
struct ExperienceRecord {
  std::string label;  ///< human-readable tag ("shopping", "ordering", ...)
  WorkloadSignature signature;
  std::vector<Measurement> measurements;

  /// The best `n` distinct measurements, best first (ties resolved toward
  /// the earlier measurement). Partial selection: cost O(N + n log N), no
  /// full copy/sort of the measurement vector.
  [[nodiscard]] std::vector<Measurement> best(std::size_t n) const;
};

class HistoryDatabase {
 public:
  HistoryDatabase() = default;
  // Copies get a fresh version: a classifier fitted against the source must
  // not treat views into the copy (different buffers) as already fitted.
  HistoryDatabase(const HistoryDatabase& other);
  HistoryDatabase& operator=(const HistoryDatabase& other);
  // Moves keep the version: the heap buffers (and thus outstanding view
  // pointers) travel with the object.
  HistoryDatabase(HistoryDatabase&&) noexcept = default;
  HistoryDatabase& operator=(HistoryDatabase&&) noexcept = default;

  void add(ExperienceRecord record);

  /// Pre-sizes the store for a total of `n_records` records carrying
  /// `n_signature_values` signature doubles overall (0 = unknown), so a
  /// bulk ingest (log replay, bench generation) avoids incremental SoA
  /// regrowth. Counts are totals including already-present records. May
  /// reallocate the flat store: outstanding SignatureViews are invalidated
  /// (the version stamp moves), exactly as for any other mutation.
  void reserve(std::size_t n_records, std::size_t n_signature_values = 0);

  /// Replaces the contents with the records of an mmap'd snapshot, borrowed
  /// zero-copy: signature_view() points straight into the mapping (persisted
  /// index included when the snapshot carries one) and records are decoded
  /// lazily, on first access, under an internal lock — record(i) stays safe
  /// to call from concurrent readers. The first add() copies the signature
  /// index into owned storage (the mapping stays referenced for record
  /// decode); the version stamp machinery is unchanged, so fit-once
  /// classifiers keep working against borrowed views.
  void adopt_snapshot(std::shared_ptr<const SnapshotMapping> snap);

  /// Decodes every snapshot-backed record into owned storage and drops the
  /// mapping reference. Outstanding record references are invalidated (the
  /// version stamp moves). No-op for a database that owns its records.
  void materialize();

  /// The adopted snapshot backing, or nullptr. Records with index below
  /// snapshot_record_count() can be copied straight from its blob section.
  [[nodiscard]] const SnapshotMapping* snapshot_backing() const noexcept {
    return snap_.get();
  }
  [[nodiscard]] std::size_t snapshot_record_count() const noexcept {
    return snap_count_;
  }

  [[nodiscard]] std::size_t size() const noexcept {
    return snap_count_ + records_.size();
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
  [[nodiscard]] const ExperienceRecord& record(std::size_t i) const;
  /// Compatibility accessor for the whole record vector; materializes a
  /// snapshot-backed database first (hence non-const).
  [[nodiscard]] const std::vector<ExperienceRecord>& records() {
    if (snap_count_ > 0) materialize();
    return records_;
  }

  /// All stored signatures, in record order. Compatibility accessor: this
  /// copies every signature; the classify hot path uses signature_view().
  [[nodiscard]] std::vector<WorkloadSignature> signatures() const;

  /// Zero-copy view of the flat signature store, stamped with the current
  /// version. Valid until the next mutating call (or destruction).
  [[nodiscard]] SignatureView signature_view() const noexcept;

  /// Current version stamp; changes on every mutation.
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

  /// Append-chain identity (see SignatureView::append_base): stable across
  /// pure appends, redrawn on every structural mutation. Process-unique, so
  /// matching a remembered append_base proves the consumer fitted against
  /// *this* database's current chain, not a lookalike version number from
  /// another instance.
  [[nodiscard]] std::uint64_t append_base() const noexcept {
    return append_base_;
  }
  /// Record count at the moment the current chain started (diagnostics; a
  /// consumer's own fitted count is what defines its delta).
  [[nodiscard]] std::size_t append_base_rows() const noexcept {
    return append_base_rows_;
  }

  /// Serializes to the versioned text format.
  void save(std::ostream& os) const;
  /// Parses the text format; throws harmony::Error on malformed or
  /// version-incompatible input. Replaces current contents.
  void load(std::istream& is);

  /// Convenience file wrappers; throw on I/O failure.
  void save_file(const std::string& path) const;
  void load_file(const std::string& path);

 private:
  // Thread-safe lazy-decode cache for snapshot-backed records: slot i is
  // null until record(i) first decodes it. The slot array itself is
  // allocated on first use (adopting a snapshot stays O(1)); readers take
  // the acquire fast path, decoders serialize on the mutex.
  struct DecodeCache {
    ~DecodeCache() {
      if (auto* s = slots.load(std::memory_order_relaxed)) {
        for (std::size_t i = 0; i < count; ++i) {
          delete s[i].load(std::memory_order_relaxed);
        }
        delete[] s;
      }
    }
    std::size_t count = 0;
    std::atomic<std::atomic<ExperienceRecord*>*> slots{nullptr};
    std::mutex mu;
  };

  void append_flat(const WorkloadSignature& sig);
  /// Copy-on-write: detaches the flat signature store from the mapping.
  void ensure_owned_signatures();
  /// Drops all snapshot-borrowing state (load()/assignment reset path).
  void reset_snapshot_state();

  // Records owned by this object. In snapshot-backed mode these are the
  // appended tail: global record i >= snap_count_ lives at
  // records_[i - snap_count_]; records below snap_count_ decode lazily out
  // of the mapping through cache_.
  std::vector<ExperienceRecord> records_;
  // Flat mirror of the record signatures (SoA hot path). Empty while
  // sig_borrowed_: the view then points into the mapping.
  std::vector<double> sig_data_;
  std::vector<std::size_t> sig_offsets_ = {0};
  std::size_t sig_dims_ = 0;  ///< arity of the first record
  bool sig_mixed_ = false;    ///< records disagree on arity
  std::uint64_t version_ = next_signature_version();
  // Chain identity + the row count when the chain started. append_base_
  // reuses version stamps (process-unique), so equality against a consumer's
  // remembered value identifies this exact chain. Initialized from version_
  // (declared above, so in-class initializer order is well-defined).
  std::uint64_t append_base_ = version_;
  std::size_t append_base_rows_ = 0;

  std::shared_ptr<const SnapshotMapping> snap_;
  std::size_t snap_count_ = 0;  ///< records served from the mapping
  bool sig_borrowed_ = false;   ///< signature_view() points into the mapping
  std::unique_ptr<DecodeCache> cache_;
};

}  // namespace harmony
