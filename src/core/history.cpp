#include "core/history.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <numeric>
#include <sstream>

#include "core/store.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace harmony {

double signature_distance_sq(const WorkloadSignature& a,
                             const WorkloadSignature& b) {
  HARMONY_REQUIRE(a.size() == b.size(), "signature arity mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    s += (a[i] - b[i]) * (a[i] - b[i]);
  }
  return s;
}

double signature_distance(const WorkloadSignature& a,
                          const WorkloadSignature& b) {
  return std::sqrt(signature_distance_sq(a, b));
}

std::uint64_t next_signature_version() noexcept {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

std::vector<Measurement> ExperienceRecord::best(std::size_t n) const {
  std::vector<Measurement> out;
  if (n == 0 || measurements.empty()) return out;
  // Index heap ordered exactly like the old stable sort: higher performance
  // first, earlier measurement first on ties. Popping until n distinct
  // configurations are collected touches only the selected prefix instead
  // of copying and sorting the whole vector.
  std::vector<std::size_t> heap(measurements.size());
  std::iota(heap.begin(), heap.end(), std::size_t{0});
  const auto before = [&](std::size_t a, std::size_t b) {
    const double pa = measurements[a].performance;
    const double pb = measurements[b].performance;
    return pa < pb || (pa == pb && a > b);
  };
  std::make_heap(heap.begin(), heap.end(), before);
  out.reserve(std::min(n, measurements.size()));
  while (!heap.empty() && out.size() < n) {
    std::pop_heap(heap.begin(), heap.end(), before);
    const Measurement& m = measurements[heap.back()];
    heap.pop_back();
    const bool dup = std::any_of(out.begin(), out.end(), [&](const auto& o) {
      return o.config == m.config;
    });
    if (!dup) out.push_back(m);
  }
  return out;
}

HistoryDatabase::HistoryDatabase(const HistoryDatabase& other) {
  *this = other;
}

HistoryDatabase& HistoryDatabase::operator=(const HistoryDatabase& other) {
  if (this != &other) {
    records_ = other.records_;
    sig_data_ = other.sig_data_;
    sig_offsets_ = other.sig_offsets_;
    sig_dims_ = other.sig_dims_;
    sig_mixed_ = other.sig_mixed_;
    // The copy shares the (immutable) mapping but starts with an empty
    // decode cache: lazily decoded records are re-decoded on demand, which
    // yields byte-identical values out of the same blob bytes.
    snap_ = other.snap_;
    snap_count_ = other.snap_count_;
    sig_borrowed_ = other.sig_borrowed_;
    cache_.reset();
    if (snap_count_ > 0) {
      cache_ = std::make_unique<DecodeCache>();
      cache_->count = snap_count_;
    }
    version_ = next_signature_version();
    // Fresh buffers, fresh chain: a classifier fitted against the source
    // must not treat the copy's rows as its own append tail.
    append_base_ = version_;
    append_base_rows_ = size();
  }
  return *this;
}

void HistoryDatabase::append_flat(const WorkloadSignature& sig) {
  if (sig_offsets_.size() == 1) {
    sig_dims_ = sig.size();
  } else if (sig.size() != sig_dims_) {
    sig_mixed_ = true;
  }
  sig_data_.insert(sig_data_.end(), sig.begin(), sig.end());
  sig_offsets_.push_back(sig_data_.size());
}

void HistoryDatabase::add(ExperienceRecord record) {
  // A plain add extends the current append chain; the copy-on-write detach
  // from a borrowed snapshot index does not (the flat store moved, so any
  // consumer pointers into the old backing are invalid wholesale).
  const bool cow_detach = sig_borrowed_;
  ensure_owned_signatures();
  append_flat(record.signature);
  records_.push_back(std::move(record));
  version_ = next_signature_version();
  if (cow_detach) {
    append_base_ = version_;
    append_base_rows_ = size();
  }
}

void HistoryDatabase::reserve(std::size_t n_records,
                              std::size_t n_signature_values) {
  if (n_records <= size() && n_signature_values == 0) return;
  // Growth lands in the owned flat store, so a borrowed signature index is
  // detached now rather than on the first add (one copy either way).
  if (n_records > size()) ensure_owned_signatures();
  if (!sig_borrowed_) {
    sig_offsets_.reserve(n_records + 1);
    if (n_signature_values > 0) sig_data_.reserve(n_signature_values);
  }
  if (n_records > snap_count_) records_.reserve(n_records - snap_count_);
  version_ = next_signature_version();
  // reserve() may reallocate the flat store, so outstanding views (and any
  // delta bookkeeping against them) are invalidated wholesale.
  append_base_ = version_;
  append_base_rows_ = size();
}

void HistoryDatabase::adopt_snapshot(
    std::shared_ptr<const SnapshotMapping> snap) {
  HARMONY_REQUIRE(snap != nullptr, "adopt_snapshot: null mapping");
  records_.clear();
  sig_data_.clear();
  sig_offsets_.assign(1, 0);
  snap_count_ = snap->record_count();
  sig_mixed_ = snap->mixed_dims();
  sig_dims_ = snap_count_ == 0 ? 0
              : sig_mixed_     ? snap->sig_offsets()[1]
                               : snap->uniform_dims();
  snap_ = std::move(snap);
  sig_borrowed_ = snap_count_ > 0;
  cache_.reset();
  if (snap_count_ > 0) {
    cache_ = std::make_unique<DecodeCache>();
    cache_->count = snap_count_;
  }
  version_ = next_signature_version();
  append_base_ = version_;
  append_base_rows_ = size();
}

void HistoryDatabase::ensure_owned_signatures() {
  if (!sig_borrowed_) return;
  const std::size_t n = snap_count_;
  const std::size_t* off = snap_->sig_offsets();
  const double* data = snap_->sig_data();
  sig_offsets_.assign(off, off + n + 1);
  sig_data_.assign(data, data + off[n]);
  sig_borrowed_ = false;
}

void HistoryDatabase::materialize() {
  if (snap_count_ == 0) {
    snap_.reset();
    return;
  }
  ensure_owned_signatures();
  std::vector<ExperienceRecord> all;
  all.reserve(snap_count_ + records_.size());
  for (std::size_t i = 0; i < snap_count_; ++i) {
    all.push_back(snap_->decode_record(i));
  }
  for (auto& r : records_) all.push_back(std::move(r));
  records_ = std::move(all);
  snap_count_ = 0;
  cache_.reset();
  snap_.reset();
  version_ = next_signature_version();
  append_base_ = version_;
  append_base_rows_ = size();
}

void HistoryDatabase::reset_snapshot_state() {
  snap_.reset();
  snap_count_ = 0;
  sig_borrowed_ = false;
  cache_.reset();
}

const ExperienceRecord& HistoryDatabase::record(std::size_t i) const {
  HARMONY_REQUIRE(i < size(), "record index out of range");
  if (i >= snap_count_) return records_[i - snap_count_];
  // Snapshot-backed record: decode on first access. Fast path is two
  // acquire loads; the slot array and each decode are published with
  // release stores, so concurrent readers (serve_batch retrievals) never
  // see a half-built record.
  DecodeCache& cache = *cache_;
  std::atomic<ExperienceRecord*>* slots =
      cache.slots.load(std::memory_order_acquire);
  if (slots != nullptr) {
    if (const ExperienceRecord* p = slots[i].load(std::memory_order_acquire)) {
      return *p;
    }
  }
  std::lock_guard<std::mutex> lock(cache.mu);
  slots = cache.slots.load(std::memory_order_relaxed);
  if (slots == nullptr) {
    slots = new std::atomic<ExperienceRecord*>[cache.count]();
    cache.slots.store(slots, std::memory_order_release);
  }
  if (const ExperienceRecord* p = slots[i].load(std::memory_order_relaxed)) {
    return *p;
  }
  auto* rec = new ExperienceRecord(snap_->decode_record(i));
  slots[i].store(rec, std::memory_order_release);
  return *rec;
}

std::vector<WorkloadSignature> HistoryDatabase::signatures() const {
  // Built from the flat view (works for borrowed storage without decoding
  // any record payloads).
  const SignatureView v = signature_view();
  std::vector<WorkloadSignature> out;
  out.reserve(v.count);
  for (std::size_t i = 0; i < v.count; ++i) {
    out.emplace_back(v.row(i), v.row(i) + v.arity(i));
  }
  return out;
}

SignatureView HistoryDatabase::signature_view() const noexcept {
  SignatureView v;
  if (sig_borrowed_) {
    v.data = snap_->sig_data();
    v.offsets = snap_->sig_offsets();
    v.count = snap_count_;
  } else {
    v.data = sig_data_.data();
    v.offsets = sig_offsets_.data();
    v.count = sig_offsets_.size() - 1;
  }
  // The snapshot's rows stay a value-identical prefix after the copy-on-write
  // detach, so its index stays valid for them while the arity is uniform.
  if (snap_count_ > 0 && !sig_mixed_) v.index = snap_->index();
  v.dims = sig_mixed_ ? SignatureView::kMixedDims : sig_dims_;
  v.version = version_;
  v.append_base = append_base_;
  return v;
}

namespace {
constexpr const char* kMagic = "harmony-history";
constexpr int kVersion = 1;
}  // namespace

void HistoryDatabase::save(std::ostream& os) const {
  os << kMagic << " v" << kVersion << "\n";
  os << "records " << size() << "\n";
  for (std::size_t i = 0; i < size(); ++i) {
    const ExperienceRecord& r = record(i);  // lazy-decodes borrowed records
    os << "record\n";
    os << "label " << r.label << "\n";
    os << "signature " << r.signature.size();
    for (double v : r.signature) os << ' ' << format_double(v);
    os << "\n";
    os << "measurements " << r.measurements.size() << "\n";
    for (const auto& m : r.measurements) {
      os << format_double(m.performance) << ' ' << (m.estimated ? 1 : 0)
         << ' ' << m.config.size();
      for (double v : m.config) os << ' ' << format_double(v);
      os << "\n";
    }
  }
}

void HistoryDatabase::load(std::istream& is) {
  std::vector<ExperienceRecord> records;
  std::string line;

  auto next_line = [&]() -> std::string {
    HARMONY_REQUIRE(static_cast<bool>(std::getline(is, line)),
                    "truncated history file");
    return line;
  };

  {
    const auto header = split_ws(next_line());
    HARMONY_REQUIRE(header.size() == 2 && header[0] == kMagic,
                    "not a harmony history file");
    HARMONY_REQUIRE(header[1] == "v" + std::to_string(kVersion),
                    "unsupported history version: " + header[1]);
  }
  const auto count_fields = split_ws(next_line());
  HARMONY_REQUIRE(count_fields.size() == 2 && count_fields[0] == "records",
                  "expected 'records N'");
  const long n_records = parse_long(count_fields[1]);
  HARMONY_REQUIRE(n_records >= 0, "negative record count");

  for (long r = 0; r < n_records; ++r) {
    HARMONY_REQUIRE(trim(next_line()) == "record", "expected 'record'");
    ExperienceRecord rec;

    const std::string label_line = next_line();
    HARMONY_REQUIRE(starts_with(label_line, "label "), "expected 'label'");
    rec.label = std::string(trim(label_line.substr(6)));

    const auto sig_fields = split_ws(next_line());
    HARMONY_REQUIRE(sig_fields.size() >= 2 && sig_fields[0] == "signature",
                    "expected 'signature'");
    const long sig_len = parse_long(sig_fields[1]);
    HARMONY_REQUIRE(static_cast<long>(sig_fields.size()) == 2 + sig_len,
                    "signature length mismatch");
    for (long i = 0; i < sig_len; ++i) {
      rec.signature.push_back(parse_double(sig_fields[2 + i]));
    }

    const auto m_fields = split_ws(next_line());
    HARMONY_REQUIRE(m_fields.size() == 2 && m_fields[0] == "measurements",
                    "expected 'measurements N'");
    const long n_meas = parse_long(m_fields[1]);
    HARMONY_REQUIRE(n_meas >= 0, "negative measurement count");
    for (long m = 0; m < n_meas; ++m) {
      const auto fields = split_ws(next_line());
      HARMONY_REQUIRE(fields.size() >= 3, "short measurement line");
      Measurement meas;
      meas.performance = parse_double(fields[0]);
      meas.estimated = parse_long(fields[1]) != 0;
      const long dims = parse_long(fields[2]);
      HARMONY_REQUIRE(static_cast<long>(fields.size()) == 3 + dims,
                      "measurement arity mismatch");
      for (long d = 0; d < dims; ++d) {
        meas.config.push_back(parse_double(fields[3 + d]));
      }
      rec.measurements.push_back(std::move(meas));
    }
    records.push_back(std::move(rec));
  }
  records_ = std::move(records);
  // Rebuild the flat mirror to match the replaced contents (and drop any
  // adopted snapshot backing — load() replaces everything).
  reset_snapshot_state();
  sig_data_.clear();
  sig_offsets_.assign(1, 0);
  sig_dims_ = 0;
  sig_mixed_ = false;
  for (const auto& rec : records_) append_flat(rec.signature);
  version_ = next_signature_version();
  append_base_ = version_;
  append_base_rows_ = size();
}

void HistoryDatabase::save_file(const std::string& path) const {
  std::ofstream os(path);
  HARMONY_REQUIRE(os.good(), "cannot open for write: " + path);
  save(os);
  HARMONY_REQUIRE(os.good(), "write failed: " + path);
}

void HistoryDatabase::load_file(const std::string& path) {
  std::ifstream is(path);
  HARMONY_REQUIRE(is.good(), "cannot open for read: " + path);
  load(is);
}

}  // namespace harmony
