#include "core/analyzer.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <numeric>

#include "util/error.hpp"

namespace harmony {

namespace {

/// dst[i] += src[i] for i in [0, n): the k-means centroid accumulation.
void vec_add(double* dst, const double* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] += src[i];
}

// -1 = unresolved, 0 = off, 1 = on. Same lazy-env idiom as the SIMD level:
// first query reads HARMONY_INCREMENTAL_FIT, set_incremental_fit overrides.
std::atomic<int> g_incremental_fit{-1};

}  // namespace

bool incremental_fit_enabled() noexcept {
  int v = g_incremental_fit.load(std::memory_order_relaxed);
  if (v < 0) {
    v = 1;
    if (const char* env = std::getenv("HARMONY_INCREMENTAL_FIT")) {
      if (std::strcmp(env, "off") == 0 || std::strcmp(env, "0") == 0 ||
          std::strcmp(env, "false") == 0) {
        v = 0;
      }
    }
    g_incremental_fit.store(v, std::memory_order_relaxed);
  }
  return v != 0;
}

void set_incremental_fit(bool enabled) noexcept {
  g_incremental_fit.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

namespace {

/// Local shorthand for the shared forward-order accumulation primitive
/// (analyzer.hpp detail) — the exact order of signature_distance_sq.
inline double row_partial(const double* row, const double* q, std::size_t d0,
                          std::size_t d1, double acc) {
  return detail::signature_partial_sq(row, q, d0, d1, acc);
}

using detail::kDimChunk;

}  // namespace

std::size_t nearest_signature_scalar(const double* data, std::size_t count,
                                     std::size_t dims, const double* query,
                                     double* best_dist_sq) {
  HARMONY_REQUIRE(count > 0, "classify against empty signature set");
  std::size_t best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < count; ++i) {
    const double d = row_partial(data + i * dims, query, 0, dims, 0.0);
    if (d < best_d) {
      best_d = d;
      best = i;
    }
  }
  if (best_dist_sq != nullptr) *best_dist_sq = best_d;
  return best;
}

void nearest_signature_scan_scalar(const double* data, std::size_t dims,
                                   std::size_t first, std::size_t last,
                                   const double* query, double& best_dist_sq,
                                   std::size_t& best_index) {
  std::size_t i = first;
  for (; i + 4 <= last; i += 4) {
    const double* r0 = data + i * dims;
    const double* r1 = r0 + dims;
    const double* r2 = r1 + dims;
    const double* r3 = r2 + dims;
    double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
    std::size_t d = 0;
    bool alive = true;
    for (; d + kDimChunk <= dims; d += kDimChunk) {
      const std::size_t d1 = d + kDimChunk;
      a0 = row_partial(r0, query, d, d1, a0);
      a1 = row_partial(r1, query, d, d1, a1);
      a2 = row_partial(r2, query, d, d1, a2);
      a3 = row_partial(r3, query, d, d1, a3);
      // Partial sums are monotone (nonnegative terms): once every row of
      // the block is at or above the running best it cannot win, and with
      // the strict-< update it could not even tie its way in.
      if (a0 >= best_dist_sq && a1 >= best_dist_sq && a2 >= best_dist_sq &&
          a3 >= best_dist_sq) {
        alive = false;
        break;
      }
    }
    if (!alive) continue;
    a0 = row_partial(r0, query, d, dims, a0);
    a1 = row_partial(r1, query, d, dims, a1);
    a2 = row_partial(r2, query, d, dims, a2);
    a3 = row_partial(r3, query, d, dims, a3);
    // Index order, strict <: the lowest index wins exact ties, matching the
    // scalar reference.
    if (a0 < best_dist_sq) { best_dist_sq = a0; best_index = i; }
    if (a1 < best_dist_sq) { best_dist_sq = a1; best_index = i + 1; }
    if (a2 < best_dist_sq) { best_dist_sq = a2; best_index = i + 2; }
    if (a3 < best_dist_sq) { best_dist_sq = a3; best_index = i + 3; }
  }
  for (; i < last; ++i) {
    const double* row = data + i * dims;
    double acc = 0.0;
    std::size_t d = 0;
    bool alive = true;
    for (; d + kDimChunk <= dims; d += kDimChunk) {
      acc = row_partial(row, query, d, d + kDimChunk, acc);
      if (acc >= best_dist_sq) {
        alive = false;
        break;
      }
    }
    if (!alive) continue;
    acc = row_partial(row, query, d, dims, acc);
    if (acc < best_dist_sq) {
      best_dist_sq = acc;
      best_index = i;
    }
  }
}

std::size_t nearest_signature_blocked(const double* data, std::size_t count,
                                      std::size_t dims, const double* query,
                                      double* best_dist_sq) {
  HARMONY_REQUIRE(count > 0, "classify against empty signature set");
  std::size_t best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  nearest_signature_scan(data, dims, 0, count, query, best_d, best);
  if (best_dist_sq != nullptr) *best_dist_sq = best_d;
  return best;
}

bool Classifier::update(const SignatureView& /*view*/,
                        std::size_t /*first_new_row*/) {
  return false;  // no incremental path: always escalate to fit()
}

void Classifier::refit(const SignatureView& view) {
  if (fitted_version_ == view.version) return;
  // The delta path is sound only when the incoming view provably extends
  // the chain this model was fitted on: same process-unique append_base
  // (so rows [0, fitted_count_) are value-identical to the fitted ones)
  // and a count that did not shrink. append_base 0 marks ad-hoc views that
  // never qualify.
  const bool delta_ok = incremental_fit_enabled() && fitted_version_ != 0 &&
                        fitted_count_ > 0 && view.append_base != 0 &&
                        fitted_chain_ == view.append_base &&
                        view.count >= fitted_count_;
  if (delta_ok && update(view, fitted_count_)) {
    set_fitted(view);
    ++stats_.incremental;
    return;
  }
  fit(view);
  ++stats_.full;
}

// --------------------------------------------------------------------------
// Least-square (exact k-d index over the flat store)

namespace {

/// Leaf-order positions [begin, end) owned by node k of the index over
/// `rows` rows.
inline std::pair<std::size_t, std::size_t> node_range(std::size_t k,
                                                      std::size_t rows) {
  const auto depth = static_cast<unsigned>(std::bit_width(k + 1) - 1);
  const std::size_t p = k + 1 - (std::size_t{1} << depth);
  return {(p * rows) >> depth, ((p + 1) * rows) >> depth};
}

/// Forward sum of fl(gap_d^2) from the query to the box (lows, then highs):
/// term by term <= the reference distance of any row inside the box.
inline double box_bound(const double* box, std::size_t dims,
                        const double* q) {
  const double* lo = box;
  const double* hi = box + dims;
  double acc = 0.0;
  for (std::size_t d = 0; d < dims; ++d) {
    const double gap =
        q[d] < lo[d] ? lo[d] - q[d] : (q[d] > hi[d] ? q[d] - hi[d] : 0.0);
    acc += gap * gap;
  }
  return acc;
}

/// Bounding box (dims lows, then dims highs) of rows ids[b, e). NaN
/// coordinates never enter it — min/max keep the box operand on a NaN —
/// and such a row's distance is NaN for every query, so it never wins.
void row_box(const SignatureView& view, const std::uint32_t* ids,
             std::size_t b, std::size_t e, double* box) {
  const std::size_t dims = view.dims;
  double* lo = box;
  double* hi = box + dims;
  std::fill(lo, hi, std::numeric_limits<double>::infinity());
  std::fill(hi, hi + dims, -std::numeric_limits<double>::infinity());
  for (std::size_t i = b; i < e; ++i) {
    const double* row = view.data + ids[i] * dims;
    for (std::size_t d = 0; d < dims; ++d) {
      lo[d] = std::min(lo[d], row[d]);
      hi[d] = std::max(hi[d], row[d]);
    }
  }
}

/// The key of rank k (0-based) in `keys` (no NaN) and the count of keys
/// strictly below it. A stride sample brackets the rank, one branch-free
/// pass keeps the keys inside the bracket, and nth_element runs on those
/// alone; a missed bracket falls back to the whole set. Deterministic.
std::pair<double, std::size_t> select_rank(const std::vector<double>& keys,
                                           std::size_t k,
                                           std::vector<double>& work) {
  const std::size_t n = keys.size();
  constexpr std::size_t kSample = 512;
  constexpr std::size_t kMargin = 24;
  work.resize(n);
  std::size_t below = 0;  // keys left out under the bracket
  std::size_t m = n;      // keys in work
  bool bracketed = false;
  if (n >= 8 * kSample) {
    std::array<double, kSample> sample;
    for (std::size_t i = 0; i < kSample; ++i) {
      sample[i] = keys[i * (n / kSample)];
    }
    std::sort(sample.begin(), sample.end());
    const std::size_t at = k * kSample / n;
    const double lo = sample[at > kMargin ? at - kMargin : 0];
    const double hi = sample[std::min(at + kMargin, kSample - 1)];
    m = 0;
    for (const double v : keys) {
      below += v < lo ? 1 : 0;
      work[m] = v;
      m += (v >= lo) & (v <= hi) ? 1 : 0;
    }
    bracketed = below <= k && k < below + m;
  }
  if (!bracketed) {
    below = 0;
    m = n;
    std::copy(keys.begin(), keys.end(), work.begin());
  }
  const auto nth = work.begin() + static_cast<long>(k - below);
  std::nth_element(work.begin(), nth, work.begin() + static_cast<long>(m));
  // Everything before nth is <= the pivot; count the strict ones.
  for (auto it = work.begin(); it != nth; ++it) below += *it < *nth ? 1 : 0;
  return {*nth, below};
}

/// Folds the rows `index` covers into the running (best_dist_sq,
/// best_index) pair in (distance, row id) order, near child first.
void search_signature_index(const SignatureView& view,
                            const SignatureIndexView& index, const double* q,
                            double& best_dist_sq, std::size_t& best_index) {
  if (index.rows == 0) return;
  const std::size_t dims = view.dims;
  const std::size_t stride = 2 * dims;
  const std::size_t first_leaf = signature_index_nodes(index.rows) / 2;
  // Depth-first with the near child on top: at most one pending sibling
  // per level (depth <= 26 for u32 row ids). Entries: (node, box bound).
  std::array<std::pair<std::size_t, double>, 64> stack;
  std::size_t top = 0;
  stack[top++] = {0, box_bound(index.boxes, dims, q)};
  while (top > 0) {
    const auto [node, bound] = stack[--top];
    // Strictly greater only: a row at exactly the best distance may still
    // win on a lower id.
    if (bound > best_dist_sq) continue;
    if (node >= first_leaf) {
      const auto [b, e] = node_range(node, index.rows);
      for (std::size_t i = b; i < e; ++i) {
        const std::size_t id = index.ids[i];
        const double d = row_partial(view.data + id * dims, q, 0, dims, 0.0);
        if (d < best_dist_sq || (d == best_dist_sq && id < best_index)) {
          best_dist_sq = d;
          best_index = id;
        }
      }
      continue;
    }
    const std::size_t l = 2 * node + 1;
    const double bl = box_bound(index.boxes + l * stride, dims, q);
    const double br = box_bound(index.boxes + (l + 1) * stride, dims, q);
    const bool left_near = bl <= br;
    stack[top++] = left_near ? std::pair{l + 1, br} : std::pair{l, bl};
    stack[top++] = left_near ? std::pair{l, bl} : std::pair{l + 1, br};
  }
}

}  // namespace

std::size_t signature_index_nodes(std::size_t rows) noexcept {
  std::size_t leaves = 1;
  while (leaves * kSignatureIndexLeafRows < rows) leaves *= 2;
  return 2 * leaves - 1;
}

bool signature_index_applicable(const SignatureView& v) noexcept {
  return !v.empty() && v.dims != SignatureView::kMixedDims && v.dims > 0 &&
         v.count <= std::numeric_limits<std::uint32_t>::max();
}

void build_signature_index(const SignatureView& view,
                           std::vector<double>& boxes,
                           std::vector<std::uint32_t>& ids) {
  HARMONY_REQUIRE(signature_index_applicable(view),
                  "signature index needs uniform non-zero arity");
  const std::size_t rows = view.count;
  const std::size_t dims = view.dims;
  const std::size_t stride = 2 * dims;
  const std::size_t nodes = signature_index_nodes(rows);
  const std::size_t first_leaf = nodes / 2;
  ids.resize(rows);
  std::iota(ids.begin(), ids.end(), std::uint32_t{0});
  boxes.resize(nodes * stride);

  // Top-down: each internal node splits its cell (the root box narrowed by
  // the ancestors' split planes) along the cell's widest dimension, at the
  // median row; the exact boxes are computed bottom-up afterwards. Stable
  // partitions keep every node's ids ascending, so passes read rows in
  // address order and the leaves come out sorted.
  std::vector<double> cells(first_leaf * stride);
  if (first_leaf > 0) row_box(view, ids.data(), 0, rows, cells.data());
  std::vector<double> keys;
  std::vector<double> work;
  std::vector<std::uint32_t> scratch;
  for (std::size_t k = 0; k < first_leaf; ++k) {
    const auto [b, e] = node_range(k, rows);
    const double* cell = cells.data() + k * stride;
    std::size_t split = 0;
    double widest = 0.0;
    for (std::size_t d = 0; d < dims; ++d) {
      if (cell[dims + d] - cell[d] > widest) {
        widest = cell[dims + d] - cell[d];
        split = d;
      }
    }
    // Split keys; NaN maps to +inf so plain < is a strict weak order. Any
    // partition keeps the search exact (the boxes come from the rows), so
    // the mapping only has to be deterministic.
    keys.resize(e - b);
    for (std::size_t i = b; i < e; ++i) {
      const double v = view.data[ids[i] * dims + split];
      keys[i - b] = std::isnan(v) ? std::numeric_limits<double>::infinity() : v;
    }
    const std::size_t left = node_range(2 * k + 1, rows).second - b;
    const auto [pivot, less] = select_rank(keys, left, work);
    // Stable branch-free partition: keys below the pivot, then pivot ties
    // in order until the left side holds exactly `left` rows.
    std::size_t ties_left = left - less;
    scratch.resize(e - b);
    std::size_t l = 0;
    std::size_t r = left;
    for (std::size_t i = 0; i < e - b; ++i) {
      // Masks, not branches: the side is a coin flip per row.
      const auto tie = static_cast<std::size_t>(keys[i] == pivot) &
                       static_cast<std::size_t>(ties_left > 0);
      const auto go_left = static_cast<std::size_t>(keys[i] < pivot) | tie;
      const std::size_t mask = 0 - go_left;
      scratch[(l & mask) | (r & ~mask)] = ids[b + i];
      ties_left -= tie;
      l += go_left;
      r += 1 - go_left;
    }
    std::copy(scratch.begin(), scratch.end(),
              ids.begin() + static_cast<long>(b));
    if (2 * k + 1 < first_leaf) {
      double* lc = cells.data() + (2 * k + 1) * stride;
      double* rc = lc + stride;
      std::copy(cell, cell + stride, lc);
      std::copy(cell, cell + stride, rc);
      lc[dims + split] = pivot;
      rc[split] = pivot;
    }
  }
  for (std::size_t k = nodes; k-- > first_leaf;) {
    const auto [b, e] = node_range(k, rows);
    row_box(view, ids.data(), b, e, boxes.data() + k * stride);
  }
  for (std::size_t k = first_leaf; k-- > 0;) {
    double* box = boxes.data() + k * stride;
    const double* lc = boxes.data() + (2 * k + 1) * stride;
    const double* rc = lc + stride;
    for (std::size_t d = 0; d < dims; ++d) {
      box[d] = std::min(lc[d], rc[d]);
      box[dims + d] = std::max(lc[dims + d], rc[dims + d]);
    }
  }
}

bool signature_index_well_formed(const std::uint32_t* ids, std::size_t rows) {
  if (rows == 0 || rows > std::numeric_limits<std::uint32_t>::max()) {
    return false;
  }
  std::vector<bool> seen(rows);
  const std::size_t nodes = signature_index_nodes(rows);
  for (std::size_t k = nodes / 2; k < nodes; ++k) {
    const auto [b, e] = node_range(k, rows);
    for (std::size_t i = b; i < e; ++i) {
      const std::uint32_t id = ids[i];
      if (id >= rows || seen[id] || (i > b && id <= ids[i - 1])) return false;
      seen[id] = true;
    }
  }
  return true;
}

void LeastSquareClassifier::fit(const SignatureView& view) {
  index_ = view.index.rows <= view.count ? view.index : SignatureIndexView{};
  adopt(view);
  set_fitted(view);
}

bool LeastSquareClassifier::update(const SignatureView& view,
                                   std::size_t /*first_new_row*/) {
  // Rows [0, fitted count) are unchanged, so the index stays exact for
  // them; only an arity change (into mixed) needs the full path.
  if (view.dims != view_.dims) return false;
  adopt(view);
  return true;
}

void LeastSquareClassifier::adopt(const SignatureView& view) {
  view_ = view;
  if (!signature_index_applicable(view)) {
    index_ = SignatureIndexView{};
    return;
  }
  if (signature_index_stale(index_.rows, view.count)) {
    build_signature_index(view, boxes_, ids_);
    index_ = SignatureIndexView{boxes_.data(), ids_.data(), view.count};
  }
}

std::size_t LeastSquareClassifier::classify(
    const WorkloadSignature& observed) const {
  HARMONY_REQUIRE(!view_.empty(), "classify against empty signature set");
  HARMONY_REQUIRE(view_.dims != SignatureView::kMixedDims &&
                      observed.size() == view_.dims,
                  "signature arity mismatch");
  const double* q = observed.data();
  double best_d = std::numeric_limits<double>::infinity();
  std::size_t best = 0;
  search_signature_index(view_, index_, q, best_d, best);
  // Unindexed tail: every id is above the indexed ones, so the strict-<
  // index-order fold keeps the lowest index on ties.
  nearest_signature_scan(view_.data, view_.dims, index_.rows, view_.count, q,
                         best_d, best);
  return best;
}

// --------------------------------------------------------------------------
// K-means

KMeansClassifier::KMeansClassifier(std::size_t k, std::uint64_t seed,
                                   int max_iterations)
    : k_(k), seed_(seed), max_iterations_(max_iterations) {
  HARMONY_REQUIRE(k_ > 0, "k-means needs k >= 1");
  HARMONY_REQUIRE(max_iterations_ > 0, "k-means needs iterations >= 1");
}

void KMeansClassifier::fit(const SignatureView& view) {
  view_ = view;
  centroids_.clear();
  cluster_begin_.clear();
  cluster_members_.clear();
  assignment_.clear();
  pending_since_full_ = 0;
  k_eff_ = 0;
  if (view.empty()) {
    set_fitted(view);
    return;
  }
  HARMONY_REQUIRE(view.dims != SignatureView::kMixedDims,
                  "signature arity mismatch");
  const std::size_t dims = view.dims;
  const std::size_t n = view.count;
  const std::size_t k = std::min(k_, n);
  k_eff_ = k;

  // Deterministic seeding: k distinct members chosen by shuffled index.
  Rng rng(seed_);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  rng.shuffle(order);
  centroids_.resize(k * dims);
  for (std::size_t i = 0; i < k; ++i) {
    const double* row = view.row(order[i]);
    std::copy(row, row + dims, centroids_.begin() + static_cast<long>(i * dims));
  }

  assignment_.assign(n, 0);
  std::vector<double> sums(k * dims);
  std::vector<std::size_t> counts(k);
  for (int iter = 0; iter < max_iterations_; ++iter) {
    bool changed = false;
    for (std::size_t i = 0; i < n; ++i) {
      const double* row = view.row(i);
      std::size_t best = 0;
      double best_d = std::numeric_limits<double>::infinity();
      // Nearest centroid via the dispatched scan with the row as the query:
      // (c_d - r_d)^2 and (r_d - c_d)^2 are the same IEEE double, so the
      // distances — and the strict-< lowest-index argmin — are bit-identical
      // to the direct loop at every SIMD level.
      nearest_signature_scan(centroids_.data(), dims, 0, k, row, best_d,
                             best);
      if (assignment_[i] != best) {
        assignment_[i] = best;
        changed = true;
      }
    }
    if (!changed && iter > 0) break;
    // Recompute centroids; empty clusters keep their previous position.
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), std::size_t{0});
    for (std::size_t i = 0; i < n; ++i) {
      const double* row = view.row(i);
      vec_add(sums.data() + assignment_[i] * dims, row, dims);
      ++counts[assignment_[i]];
    }
    for (std::size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) continue;
      for (std::size_t d = 0; d < dims; ++d) {
        centroids_[c * dims + d] =
            sums[c * dims + d] / static_cast<double>(counts[c]);
      }
    }
  }

  rebuild_cluster_csr(n);
  set_fitted(view);
}

void KMeansClassifier::rebuild_cluster_csr(std::size_t n) {
  // CSR member lists, ascending within each cluster so the within-cluster
  // scan resolves ties toward the lowest record index.
  cluster_begin_.assign(k_eff_ + 1, 0);
  for (std::size_t i = 0; i < n; ++i) ++cluster_begin_[assignment_[i] + 1];
  for (std::size_t c = 0; c < k_eff_; ++c) {
    cluster_begin_[c + 1] += cluster_begin_[c];
  }
  cluster_members_.resize(n);
  std::vector<std::size_t> cursor(cluster_begin_.begin(),
                                  cluster_begin_.end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    cluster_members_[cursor[assignment_[i]]++] = i;
  }
}

bool KMeansClassifier::update(const SignatureView& view,
                              std::size_t first_new_row) {
  const std::size_t n = view.count;
  if (k_eff_ == 0 || view.dims == SignatureView::kMixedDims ||
      view.dims != view_.dims) {
    return false;
  }
  // Fewer fitted centroids than a full fit would now use: let it widen.
  if (k_eff_ < std::min(k_, n)) return false;
  const std::size_t new_rows = n - first_new_row;
  // Drift hysteresis: once a quarter of the set arrived after the last
  // full Lloyd's run, the centroids were optimized for a set that no
  // longer exists — escalate before quality erodes further.
  if ((pending_since_full_ + new_rows) * 4 > n) return false;

  const std::size_t dims = view.dims;
  view_ = view;
  assignment_.resize(n);
  std::vector<char> touched(k_eff_, 0);
  for (std::size_t i = first_new_row; i < n; ++i) {
    const double* row = view.row(i);
    std::size_t best = 0;
    double best_d = std::numeric_limits<double>::infinity();
    nearest_signature_scan(centroids_.data(), dims, 0, k_eff_, row, best_d,
                           best);
    assignment_[i] = best;
    touched[best] = 1;
  }

  // Restricted Lloyd's: recompute only the touched centroids from their
  // members, then let only members of touched clusters reconsider their
  // assignment (against all centroids — a move extends the touched set).
  // The bounded iteration count keeps the worst case O(iters · n) scans of
  // cheap membership checks plus work proportional to the touched mass.
  std::vector<double> sums(k_eff_ * dims);
  std::vector<std::size_t> counts(k_eff_);
  std::size_t moved_total = 0;
  const int iters = std::min(max_iterations_, 4);
  for (int iter = 0; iter < iters; ++iter) {
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), std::size_t{0});
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t c = assignment_[i];
      if (!touched[c]) continue;
      vec_add(sums.data() + c * dims, view.row(i), dims);
      ++counts[c];
    }
    for (std::size_t c = 0; c < k_eff_; ++c) {
      if (!touched[c] || counts[c] == 0) continue;
      for (std::size_t d = 0; d < dims; ++d) {
        centroids_[c * dims + d] =
            sums[c * dims + d] / static_cast<double>(counts[c]);
      }
    }
    bool changed = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (!touched[assignment_[i]]) continue;
      const double* row = view.row(i);
      std::size_t best = 0;
      double best_d = std::numeric_limits<double>::infinity();
      nearest_signature_scan(centroids_.data(), dims, 0, k_eff_, row, best_d,
                             best);
      if (best != assignment_[i]) {
        assignment_[i] = best;
        touched[best] = 1;
        changed = true;
        ++moved_total;
      }
    }
    if (!changed) break;
  }

  // Post-hoc hysteresis — safe because the fallback fit() rebuilds from
  // scratch: heavy churn means the local repair is chasing a moving target,
  // and a ballooned touched cluster would degrade classify() toward a full
  // scan.
  if ((new_rows + moved_total) * 8 > n) return false;
  rebuild_cluster_csr(n);
  const std::size_t mean_size = n / k_eff_ + 1;
  for (std::size_t c = 0; c < k_eff_; ++c) {
    if (!touched[c]) continue;
    if (cluster_begin_[c + 1] - cluster_begin_[c] > 8 * mean_size) {
      return false;
    }
  }
  pending_since_full_ += new_rows;
  return true;
}

std::size_t KMeansClassifier::classify(
    const WorkloadSignature& observed) const {
  HARMONY_REQUIRE(!view_.empty(), "classify against empty signature set");
  HARMONY_REQUIRE(observed.size() == view_.dims, "signature arity mismatch");
  const std::size_t dims = view_.dims;
  const double* q = observed.data();

  // Nearest centroid to the observation, then nearest member within it.
  std::size_t best_c = 0;
  double best_d = std::numeric_limits<double>::infinity();
  nearest_signature_scan(centroids_.data(), dims, 0, k_eff_, q, best_d,
                         best_c);
  const std::size_t lo = cluster_begin_[best_c];
  const std::size_t hi = cluster_begin_[best_c + 1];
  if (lo == hi) {
    // Chosen centroid ended up empty (possible with degenerate seeds):
    // fall back to global nearest neighbour.
    return nearest_signature_blocked(view_.data, view_.count, dims, q);
  }
  std::size_t best_member = view_.count;
  best_d = std::numeric_limits<double>::infinity();
  for (std::size_t m = lo; m < hi; ++m) {
    const std::size_t i = cluster_members_[m];
    const double d = row_partial(view_.row(i), q, 0, dims, 0.0);
    if (d < best_d) {
      best_d = d;
      best_member = i;
    }
  }
  return best_member;
}

// --------------------------------------------------------------------------
// Decision tree (k-d tree over the flat store)

DecisionTreeClassifier::DecisionTreeClassifier(std::size_t leaf_size)
    : leaf_size_(leaf_size) {
  HARMONY_REQUIRE(leaf_size_ >= 1, "leaf size must be >= 1");
}

int DecisionTreeClassifier::build(std::vector<std::size_t> members,
                                  std::size_t dims) {
  Node node;
  const auto make_leaf = [&](std::vector<std::size_t> leaf_members) {
    node.members_begin = static_cast<std::uint32_t>(members_.size());
    members_.insert(members_.end(), leaf_members.begin(), leaf_members.end());
    node.members_end = static_cast<std::uint32_t>(members_.size());
    // Slack slots for incremental inserts: a new row landing in this leaf
    // takes a slot in place instead of forcing a subtree rebuild.
    members_.insert(members_.end(), leaf_size_, static_cast<std::size_t>(-1));
    node.members_cap = static_cast<std::uint32_t>(members_.size());
    nodes_.push_back(node);
    return static_cast<int>(nodes_.size()) - 1;
  };
  if (members.size() <= leaf_size_) return make_leaf(std::move(members));

  // Split on the dimension with the largest spread, at its median.
  std::size_t best_dim = 0;
  double best_spread = -1.0;
  for (std::size_t d = 0; d < dims; ++d) {
    double lo = view_.row(members[0])[d], hi = lo;
    for (std::size_t m : members) {
      const double v = view_.row(m)[d];
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    if (hi - lo > best_spread) {
      best_spread = hi - lo;
      best_dim = d;
    }
  }
  if (best_spread <= 0.0) {  // all identical: cannot split
    return make_leaf(std::move(members));
  }
  std::sort(members.begin(), members.end(),
            [&](std::size_t a, std::size_t b) {
              return view_.row(a)[best_dim] < view_.row(b)[best_dim];
            });
  const std::size_t mid = members.size() / 2;
  node.dim = best_dim;
  node.threshold = view_.row(members[mid])[best_dim];
  std::vector<std::size_t> left(members.begin(),
                                members.begin() + static_cast<long>(mid));
  std::vector<std::size_t> right(members.begin() + static_cast<long>(mid),
                                 members.end());
  if (left.empty()) {  // degenerate median (many equal values)
    return make_leaf(std::move(right));
  }
  const int self = static_cast<int>(nodes_.size());
  nodes_.push_back(node);
  const int l = build(std::move(left), dims);
  const int r = build(std::move(right), dims);
  nodes_[static_cast<std::size_t>(self)].left = l;
  nodes_[static_cast<std::size_t>(self)].right = r;
  return self;
}

void DecisionTreeClassifier::search(int idx, const double* q,
                                    std::size_t& best, double& best_d) const {
  const Node& node = nodes_[static_cast<std::size_t>(idx)];
  if (node.is_leaf()) {
    for (std::uint32_t m = node.members_begin; m < node.members_end; ++m) {
      const std::size_t i = members_[m];
      const double d = row_partial(q, view_.row(i), 0, view_.dims, 0.0);
      if (d < best_d) {
        best_d = d;
        best = i;
      }
    }
    return;
  }
  const double diff = q[node.dim] - node.threshold;
  const int near = diff < 0.0 ? node.left : node.right;
  const int far = diff < 0.0 ? node.right : node.left;
  search(near, q, best, best_d);
  if (diff * diff < best_d) search(far, q, best, best_d);  // backtrack
}

void DecisionTreeClassifier::fit(const SignatureView& view) {
  view_ = view;
  nodes_.clear();
  members_.clear();
  root_ = -1;
  waste_slots_ = 0;
  if (view.empty()) {
    set_fitted(view);
    return;
  }
  HARMONY_REQUIRE(view.dims != SignatureView::kMixedDims,
                  "signature arity mismatch");
  members_.reserve(view.count);
  std::vector<std::size_t> all(view.count);
  std::iota(all.begin(), all.end(), std::size_t{0});
  root_ = build(std::move(all), view.dims);
  set_fitted(view);
}

std::size_t DecisionTreeClassifier::classify(
    const WorkloadSignature& observed) const {
  HARMONY_REQUIRE(!view_.empty(), "classify against empty signature set");
  HARMONY_REQUIRE(observed.size() == view_.dims, "signature arity mismatch");
  std::size_t best = view_.count;
  double best_d = std::numeric_limits<double>::infinity();
  search(root_, observed.data(), best, best_d);
  return best;
}

bool DecisionTreeClassifier::insert(std::size_t i) {
  const double* row = view_.row(i);
  // Scapegoat depth bound: 2·log2(n) + 8. An insert descending past it
  // means the incremental grafts have unbalanced the tree beyond what the
  // backtracking search can absorb.
  std::size_t depth_limit = 8;
  for (std::size_t n = view_.count; n > 1; n >>= 1) depth_limit += 2;
  int idx = root_;
  std::size_t depth = 0;
  while (!nodes_[static_cast<std::size_t>(idx)].is_leaf()) {
    const Node& node = nodes_[static_cast<std::size_t>(idx)];
    // Same rule as search(): strictly-below goes left, so the split
    // invariant (left <= threshold <= right) — which the pruning bound
    // relies on — is preserved and the search stays exact.
    idx = row[node.dim] - node.threshold < 0.0 ? node.left : node.right;
    if (++depth > depth_limit) return false;
  }
  const Node leaf = nodes_[static_cast<std::size_t>(idx)];
  if (leaf.members_end < leaf.members_cap) {
    members_[leaf.members_end] = i;
    ++nodes_[static_cast<std::size_t>(idx)].members_end;
    return true;
  }
  // Full leaf: rebuild it (plus the new row) as a fresh subtree and graft
  // the subtree root into the leaf's node slot. The old member slots and
  // the duplicated root node become tracked waste; the hysteresis check in
  // update() bounds how much of it may accumulate.
  std::vector<std::size_t> leaf_members(
      members_.begin() + leaf.members_begin,
      members_.begin() + leaf.members_end);
  leaf_members.push_back(i);
  waste_slots_ += (leaf.members_cap - leaf.members_begin) + 1;
  const int r = build(std::move(leaf_members), view_.dims);
  nodes_[static_cast<std::size_t>(idx)] = nodes_[static_cast<std::size_t>(r)];
  return true;
}

bool DecisionTreeClassifier::update(const SignatureView& view,
                                    std::size_t first_new_row) {
  if (root_ < 0 || view.dims == SignatureView::kMixedDims ||
      view.dims != view_.dims) {
    return false;
  }
  view_ = view;
  for (std::size_t i = first_new_row; i < view.count; ++i) {
    // Waste hysteresis first: once the orphaned slots outnumber the live
    // set, a compacting rebuild is cheaper than dragging the bloat along.
    if (waste_slots_ > view.count || !insert(i)) return false;
  }
  return true;
}

// --------------------------------------------------------------------------
// DataAnalyzer

DataAnalyzer::DataAnalyzer()
    : classifier_(std::make_shared<LeastSquareClassifier>()) {}

DataAnalyzer::DataAnalyzer(std::shared_ptr<Classifier> classifier)
    : classifier_(std::move(classifier)) {
  HARMONY_REQUIRE(classifier_ != nullptr, "null classifier");
}

WorkloadSignature DataAnalyzer::characterize(
    const std::function<WorkloadSignature()>& sample_request, int samples) {
  HARMONY_REQUIRE(samples > 0, "need at least one sample");
  WorkloadSignature acc;
  for (int i = 0; i < samples; ++i) {
    WorkloadSignature s = sample_request();
    if (acc.empty()) {
      acc.assign(s.size(), 0.0);
    }
    HARMONY_REQUIRE(s.size() == acc.size(), "sample arity changed");
    for (std::size_t d = 0; d < s.size(); ++d) acc[d] += s[d];
  }
  for (double& v : acc) v /= samples;
  return acc;
}

void DataAnalyzer::ensure_fitted(const HistoryDatabase& db) const {
  if (db.empty()) return;
  const SignatureView view = db.signature_view();
  // refit() picks the cheapest sound path: no-op on a matching version,
  // the incremental update when the database only appended since the last
  // fit, a full rebuild otherwise.
  if (classifier_->fitted_version() != view.version) classifier_->refit(view);
}

std::optional<std::size_t> DataAnalyzer::classify(
    const HistoryDatabase& db, const WorkloadSignature& observed) const {
  if (db.empty()) return std::nullopt;
  ensure_fitted(db);
  return classifier_->classify(observed);
}

const ExperienceRecord* DataAnalyzer::retrieve(
    const HistoryDatabase& db, const WorkloadSignature& observed) const {
  const auto idx = classify(db, observed);
  if (!idx) return nullptr;
  return &db.record(*idx);
}

}  // namespace harmony
