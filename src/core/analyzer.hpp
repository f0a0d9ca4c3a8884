// Data analyzer (paper §4.2, Figure 2).
//
// Before tuning starts, the analyzer observes a small number of sample
// requests through a user-supplied characteristics-extraction function,
// averages them into a WorkloadSignature, classifies the signature against
// the data characteristics database, and hands the tuner the matching
// experience for warm start. The classification mechanism is pluggable; the
// paper's current implementation is least-square-error nearest neighbour,
// and k-means / decision-tree classifiers are the drop-in alternatives
// Figure 2 sketches.
//
// Scale design: classifiers are fit-once/classify-many. fit(view) builds
// the model (k-means centroids, the decision tree, or the least-square
// k-d index) over the database's flat SignatureView;
// classify(observed) then answers queries without touching the database.
// DataAnalyzer refits lazily whenever the database's version stamp moves,
// so a stable database pays the model build exactly once no matter how many
// workloads are classified against it.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/history.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace harmony {

/// Runtime switch for the delta-aware classifier maintenance path. Defaults
/// to on; HARMONY_INCREMENTAL_FIT=off|0|false pins every refit to the full
/// rebuild (the oracle the incremental paths are differentially tested
/// against). Resolved lazily from the environment on first query, like
/// HARMONY_SIMD.
[[nodiscard]] bool incremental_fit_enabled() noexcept;
/// Programmatic override (benches, tests); wins over the environment.
void set_incremental_fit(bool enabled) noexcept;

namespace detail {

/// Forward-order partial squared distance over dims [d0, d1), resumed from
/// `acc` — the exact per-row accumulation order every optimized kernel must
/// reproduce bit for bit.
inline double signature_partial_sq(const double* row, const double* q,
                                   std::size_t d0, std::size_t d1,
                                   double acc) {
  for (std::size_t d = d0; d < d1; ++d) {
    const double t = row[d] - q[d];
    acc += t * t;
  }
  return acc;
}

/// Dim-chunk size between early-exit checks: small enough to abandon
/// hopeless rows in long signatures, large enough to amortize the branch.
/// Shared by the scalar and SIMD kernels so their exit cadence matches.
inline constexpr std::size_t kDimChunk = 64;

}  // namespace detail

/// Scalar reference scan: index of the row of `data` (`count` rows of
/// `dims` contiguous doubles) nearest to `query` in squared Euclidean
/// distance; the lowest index wins exact ties. Per-row accumulation is the
/// plain forward loop — the rounding behaviour every optimized kernel must
/// reproduce bit for bit. Requires count >= 1.
[[nodiscard]] std::size_t nearest_signature_scalar(
    const double* data, std::size_t count, std::size_t dims,
    const double* query, double* best_dist_sq = nullptr);

/// Blocked scan over the level-dispatched range kernel, with a
/// running-argmin early exit that abandons a block as soon as every partial
/// sum already exceeds the best distance. Each row keeps the scalar
/// reference's exact forward accumulation order, so the result — including
/// tie resolution — is bit-identical to nearest_signature_scalar at every
/// SIMD level. Requires count >= 1.
[[nodiscard]] std::size_t nearest_signature_blocked(
    const double* data, std::size_t count, std::size_t dims,
    const double* query, double* best_dist_sq = nullptr);

/// Range form: folds rows [first, last) into the
/// running (best_dist_sq, best_index) pair. Skipped rows never update the
/// pair, so folding disjoint ranges in index order reproduces the full
/// serial scan exactly. Dispatches on simd_level(): the AVX2 kernel runs
/// one row per lane (each lane is that row's entire forward accumulation
/// chain), so both levels return bit-identical results.
void nearest_signature_scan(const double* data, std::size_t dims,
                            std::size_t first, std::size_t last,
                            const double* query, double& best_dist_sq,
                            std::size_t& best_index);

/// Scalar (blocked four-chain) implementation of the range fold.
void nearest_signature_scan_scalar(const double* data, std::size_t dims,
                                   std::size_t first, std::size_t last,
                                   const double* query, double& best_dist_sq,
                                   std::size_t& best_index);

/// Explicit-level range fold (benches and differential tests); kScalar runs
/// the blocked kernel, kAvx2 the in-register-transpose kernel, the only
/// vector kernel in the code base. Falls back to scalar where AVX2 is not
/// compiled in (non-x86 hosts).
void nearest_signature_scan_level(SimdLevel level, const double* data,
                                  std::size_t dims, std::size_t first,
                                  std::size_t last, const double* query,
                                  double& best_dist_sq,
                                  std::size_t& best_index);

/// The least-square k-d index (LeastSquareClassifier; the snapshot stores
/// it verbatim). A perfectly balanced tree whose shape depends only on the
/// row count: node k (breadth-first, root 0) at depth d and position
/// p = k + 1 - 2^d owns leaf-order positions [p·rows >> d, (p+1)·rows >> d),
/// its children are 2k+1 and 2k+2, and the leaves sit at the shallowest
/// depth that holds at most kSignatureIndexLeafRows rows each.
inline constexpr std::size_t kSignatureIndexLeafRows = 64;
/// Node count of the index over `rows` rows.
[[nodiscard]] std::size_t signature_index_nodes(std::size_t rows) noexcept;
/// Views an index can cover: non-empty, uniform non-zero arity, u32 ids.
[[nodiscard]] bool signature_index_applicable(const SignatureView& v) noexcept;
/// Re-index rule of the classifier and the snapshot writer: rebuild once the
/// unindexed tail exceeds an eighth of the indexed rows (amortized O(log n)).
[[nodiscard]] constexpr bool signature_index_stale(std::size_t indexed,
                                                   std::size_t count) noexcept {
  return count - indexed > indexed / 8;
}
/// Builds the index over every row of an applicable view: `boxes` receives
/// each node's bounding box (dims lows, then dims highs; NaN coordinates
/// left out) in node order, `ids` the row ids in leaf order, ascending
/// within every leaf.
void build_signature_index(const SignatureView& view,
                           std::vector<double>& boxes,
                           std::vector<std::uint32_t>& ids);
/// True when `ids` is a permutation of [0, rows), ascending within every
/// leaf: the O(rows) check the snapshot reader runs before any search may
/// follow a persisted id.
[[nodiscard]] bool signature_index_well_formed(const std::uint32_t* ids,
                                               std::size_t rows);

/// Maps an observed signature to the index of the best-matching known
/// signature. fit() builds the model over a flat SignatureView (the view's
/// backing storage must stay alive and unchanged until the next fit);
/// classify() answers queries against the fitted model and throws when the
/// fitted set is empty.
class Classifier {
 public:
  /// How refit() has been resolving staleness: full rebuilds vs delta
  /// updates. Cumulative over the classifier's lifetime.
  struct RefitStats {
    std::uint64_t full = 0;
    std::uint64_t incremental = 0;
  };

  virtual ~Classifier() = default;

  /// Rebuilds the model over `view`. Implementations must record the view's
  /// version via set_fitted().
  virtual void fit(const SignatureView& view) = 0;

  /// Brings the model up to date with `view`, choosing the cheapest sound
  /// path: no-op when the fitted version already matches; the incremental
  /// update() when `view` extends the append chain the model was fitted
  /// against (same append_base, count grew) and the toggle allows it; a
  /// full fit() otherwise — including when update() declines (hysteresis
  /// escalation). This is the only entry point DataAnalyzer uses.
  void refit(const SignatureView& view);

  /// Index (into the fitted view) of the nearest known signature.
  [[nodiscard]] virtual std::size_t classify(
      const WorkloadSignature& observed) const = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Version of the view the model was last fitted against (0 = never).
  [[nodiscard]] std::uint64_t fitted_version() const noexcept {
    return fitted_version_;
  }

  /// Full-vs-incremental refit tally (serving observability; reset by
  /// reset_refit_stats()).
  [[nodiscard]] const RefitStats& refit_stats() const noexcept {
    return stats_;
  }
  void reset_refit_stats() noexcept { stats_ = RefitStats{}; }

 protected:
  /// Absorbs rows [first_new_row, view.count) into the fitted model,
  /// returning true on success. Called only by refit(), and only when the
  /// chain identity proves rows [0, first_new_row) are value-identical to
  /// the fitted ones. Implementations must re-point any retained view at
  /// `view` and must NOT call set_fitted() (refit() does) nor fall back to
  /// fit() themselves — returning false is the escalation signal. The
  /// default declines every delta.
  virtual bool update(const SignatureView& view, std::size_t first_new_row);

  void set_fitted(const SignatureView& view) noexcept {
    fitted_version_ = view.version;
    fitted_chain_ = view.append_base;
    fitted_count_ = view.count;
  }

  /// Row count of the view the model was last fitted against.
  [[nodiscard]] std::size_t fitted_count() const noexcept {
    return fitted_count_;
  }

 private:
  std::uint64_t fitted_version_ = 0;
  // Append-chain identity of the fitted view (SignatureView::append_base).
  // Chain stamps are process-unique, so equality against an incoming view
  // proves the fitted rows are a prefix of the view's rows — a mere
  // version-ordering check would not (stamps interleave across databases).
  std::uint64_t fitted_chain_ = 0;
  std::size_t fitted_count_ = 0;
  RefitStats stats_;
};

/// The paper's mechanism: argmin_j sum_k (c_jk - c_ok)^2, answered by the
/// k-d index over the fitted rows plus a scan of rows appended since.
///
/// Exact with no epsilon: a node's box bound is the forward sum, in
/// dimension order, of fl(gap_d^2) for the query's gap to the box along d.
/// Rounding is monotone, so each term and partial sum is <= that of any
/// row in the box, and a node is pruned only when its bound is strictly
/// above the running best. Leaf rows compare on (distance, row id) and
/// the tail scan keeps the lowest index on ties, so answers equal
/// nearest_signature_scalar bit for bit at every thread count and SIMD
/// level — NaN and infinite rows and queries included.
///
/// update() re-indexes every row itself once signature_index_stale() holds
/// (the tail outgrew an eighth of the indexed rows); it never escalates. fit()
/// borrows an index the view carries (a snapshot-backed store's).
class LeastSquareClassifier final : public Classifier {
 public:
  void fit(const SignatureView& view) override;
  std::size_t classify(const WorkloadSignature& observed) const override;
  std::string name() const override { return "least-square"; }

  /// Rows the active index covers; the rest are scanned (tests).
  [[nodiscard]] std::size_t indexed_rows() const noexcept {
    return index_.rows;
  }
  /// True when the active index is borrowed from the fitted view.
  [[nodiscard]] bool index_borrowed() const noexcept {
    return index_.ids != nullptr && index_.ids != ids_.data();
  }

 protected:
  bool update(const SignatureView& view, std::size_t first_new_row) override;

 private:
  /// Points the model at `view`, re-indexing every row when the active
  /// index is stale (signature_index_stale).
  void adopt(const SignatureView& view);

  SignatureView view_{};
  SignatureIndexView index_{};  ///< owned (boxes_/ids_) or borrowed
  std::vector<double> boxes_;
  std::vector<std::uint32_t> ids_;
};

/// K-means alternative: fit() clusters the known signatures (Lloyd's
/// algorithm, deterministic given the seed) and groups member indices per
/// cluster; classify() finds the nearest centroid, then the nearest member
/// within that cluster. Equivalent to nearest-neighbour when k >= #known;
/// O(k·dims + cluster) lookups instead of a full rebuild per query.
class KMeansClassifier final : public Classifier {
 public:
  explicit KMeansClassifier(std::size_t k, std::uint64_t seed = 42,
                            int max_iterations = 50);
  void fit(const SignatureView& view) override;
  std::size_t classify(const WorkloadSignature& observed) const override;
  std::string name() const override { return "k-means"; }

 protected:
  /// Quality-gated incremental path: assign the new points to their nearest
  /// centroids, then run a bounded restricted Lloyd's pass over the touched
  /// clusters only. Declines (→ full refit) on drift/imbalance hysteresis:
  /// too many rows assigned or moved since the last full fit, or a touched
  /// cluster ballooning past 8x the mean size. Deterministic, but NOT
  /// guaranteed identical to a fresh fit — HARMONY_INCREMENTAL_FIT=off is
  /// the exact-oracle escape hatch.
  bool update(const SignatureView& view, std::size_t first_new_row) override;

 private:
  void rebuild_cluster_csr(std::size_t n);

  std::size_t k_;
  std::uint64_t seed_;
  int max_iterations_;

  SignatureView view_{};
  std::size_t k_eff_ = 0;
  std::vector<double> centroids_;            // k_eff_ * dims
  std::vector<std::size_t> cluster_begin_;   // k_eff_ + 1 CSR offsets
  std::vector<std::size_t> cluster_members_; // record indices, ascending
  std::vector<std::size_t> assignment_;      // row -> cluster, kept by fit()
  // Rows absorbed incrementally since the last full Lloyd's fit; once this
  // exceeds a quarter of the fitted set the next refit escalates (the
  // centroids were optimized for a set that has since drifted).
  std::size_t pending_since_full_ = 0;
};

/// Decision-tree alternative (Figure 2 lists it next to k-means): a k-d
/// style axis-aligned tree over the known signatures — split on the
/// dimension with the largest spread at its median until leaves hold at
/// most `leaf_size` signatures — with nearest-neighbour resolution inside
/// the reached leaf plus a bounded backtrack, exact for the Euclidean
/// metric. fit() builds the tree once; classify() is a logarithmic descent.
class DecisionTreeClassifier final : public Classifier {
 public:
  explicit DecisionTreeClassifier(std::size_t leaf_size = 4);
  void fit(const SignatureView& view) override;
  std::size_t classify(const WorkloadSignature& observed) const override;
  std::string name() const override { return "decision-tree"; }

 protected:
  /// Exact incremental path with scapegoat-style hysteresis: each new row
  /// descends to its leaf (the same left/right rule search() uses, so the
  /// inserted row is always findable) and lands in the leaf's slack slots;
  /// a full leaf is rebuilt in place as a fresh subtree, leaving its old
  /// nodes and member slots as tracked waste. Declines (→ full rebuild)
  /// when the waste exceeds the live set or an insert descends past
  /// 2·log2(n) + 8 levels — the classic scapegoat balance bound.
  bool update(const SignatureView& view, std::size_t first_new_row) override;

 private:
  struct Node {
    // split
    std::size_t dim = 0;
    double threshold = 0.0;
    int left = -1;  // node indices; -1 means none
    int right = -1;
    // leaf: slice of members_; [members_end, members_cap) is unused slack
    // reserved for incremental inserts
    std::uint32_t members_begin = 0;
    std::uint32_t members_end = 0;
    std::uint32_t members_cap = 0;
    [[nodiscard]] bool is_leaf() const noexcept { return left < 0; }
  };

  int build(std::vector<std::size_t> members, std::size_t dims);
  void search(int idx, const double* q, std::size_t& best,
              double& best_d) const;
  /// Descends from the root and inserts row i; returns false when the
  /// scapegoat hysteresis says the tree has degraded enough to rebuild.
  bool insert(std::size_t i);

  std::size_t leaf_size_;
  SignatureView view_{};
  std::vector<Node> nodes_;
  std::vector<std::size_t> members_;  // leaf member pool (with leaf slack)
  int root_ = -1;
  // Scapegoat bookkeeping: member slots + nodes orphaned by leaf-split
  // grafts since the last full build. Compared against the live count to
  // decide when the pools deserve a compacting rebuild.
  std::size_t waste_slots_ = 0;
};

/// Front door combining characterization and retrieval. Lazily refits its
/// classifier whenever the database's version stamp changes, so repeated
/// classifications against a stable database reuse the built model. Not
/// safe for concurrent classify() calls on a shared instance (the lazy
/// refit mutates the classifier); give each thread its own analyzer.
class DataAnalyzer {
 public:
  /// Uses the paper's least-square classifier by default.
  DataAnalyzer();
  explicit DataAnalyzer(std::shared_ptr<Classifier> classifier);

  /// Observes `samples` requests via the user-supplied extraction function
  /// and averages the resulting characteristic vectors into a signature
  /// (all samples must have equal arity).
  [[nodiscard]] static WorkloadSignature characterize(
      const std::function<WorkloadSignature()>& sample_request,
      int samples);

  /// Refits the classifier if the database's version stamp moved since the
  /// last fit (no-op otherwise, and for an empty database). When the
  /// database merely appended records since the last fit (same append
  /// chain), the classifier absorbs just the new rows instead of rebuilding
  /// — steady-state serving ingest costs O(batch), not O(db). Call once
  /// before issuing classify()/retrieve() from several threads against a
  /// stable database: with the model already fitted, those calls are pure
  /// reads of the fitted state and therefore safe to run concurrently.
  /// HarmonyServer::serve_batch uses exactly this protocol.
  void ensure_fitted(const HistoryDatabase& db) const;

  /// Full-vs-incremental refit tally of the underlying classifier.
  [[nodiscard]] const Classifier::RefitStats& refit_stats() const noexcept {
    return classifier_->refit_stats();
  }

  /// The underlying classifier; lets sequential server sessions share one
  /// fitted model instead of each refitting its own.
  [[nodiscard]] const std::shared_ptr<Classifier>& classifier()
      const noexcept {
    return classifier_;
  }

  /// Index of the best-matching experience, or nullopt when the database is
  /// empty (the paper's "never seen before" case — tune from scratch).
  [[nodiscard]] std::optional<std::size_t> classify(
      const HistoryDatabase& db, const WorkloadSignature& observed) const;

  /// The matching experience record, or nullptr when the database is empty.
  [[nodiscard]] const ExperienceRecord* retrieve(
      const HistoryDatabase& db, const WorkloadSignature& observed) const;

 private:
  std::shared_ptr<Classifier> classifier_;
};

}  // namespace harmony
