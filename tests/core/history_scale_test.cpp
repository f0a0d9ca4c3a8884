// Coverage for the scaled experience store: flat signature index, blocked
// scan determinism, the least-square k-d index against the scalar
// reference on every maintenance path, fit-once/classify-many lifecycle
// (auto-refit on database version bumps), and partial-selection best().
#include <algorithm>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/analyzer.hpp"
#include "core/history.hpp"
#include "core/store.hpp"
#include "util/mmap_file.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace harmony {
namespace {

std::vector<double> random_rows(Rng& rng, std::size_t count,
                                std::size_t dims) {
  std::vector<double> data(count * dims);
  for (double& v : data) v = rng.uniform01();
  return data;
}

TEST(SignatureKernels, BlockedMatchesScalarBitForBit) {
  Rng rng(123);
  // Dims below, at and above the early-exit chunk size; counts that are not
  // multiples of the 4-row block.
  for (const std::size_t dims : {1u, 3u, 7u, 16u, 64u, 70u, 130u}) {
    for (const std::size_t count : {1u, 2u, 5u, 257u, 1024u}) {
      std::vector<double> data = random_rows(rng, count, dims);
      // Plant exact duplicates so ties genuinely occur.
      if (count >= 8) {
        std::copy(data.begin(), data.begin() + static_cast<long>(dims),
                  data.begin() + static_cast<long>(5 * dims));
      }
      std::vector<double> query(dims);
      for (double& v : query) v = rng.uniform01();

      double ds = 0.0, db = 0.0;
      const std::size_t is =
          nearest_signature_scalar(data.data(), count, dims, query.data(), &ds);
      const std::size_t ib = nearest_signature_blocked(data.data(), count,
                                                       dims, query.data(), &db);
      ASSERT_EQ(is, ib) << "dims=" << dims << " count=" << count;
      ASSERT_EQ(ds, db);  // exact double equality, not NEAR

      // Query equal to a stored row: distance 0, first occurrence wins.
      if (count >= 2) {
        const std::vector<double> hit(
            data.begin() + static_cast<long>(dims),
            data.begin() + static_cast<long>(2 * dims));
        EXPECT_EQ(
            nearest_signature_scalar(data.data(), count, dims, hit.data()),
            nearest_signature_blocked(data.data(), count, dims, hit.data()));
      }
    }
  }
}

TEST(SignatureKernels, ExactTiesPickLowestIndex) {
  // Identical rows everywhere: every distance ties; index 0 must win.
  const std::size_t dims = 5;
  std::vector<double> data;
  for (int i = 0; i < 23; ++i) {
    for (std::size_t d = 0; d < dims; ++d) data.push_back(0.25);
  }
  std::vector<double> query(dims, 0.7);
  EXPECT_EQ(nearest_signature_scalar(data.data(), 23, dims, query.data()), 0u);
  EXPECT_EQ(nearest_signature_blocked(data.data(), 23, dims, query.data()), 0u);

  // Mirrored rows around the query: equal distances, lowest index wins even
  // when the tying rows land in different 4-row blocks.
  std::vector<double> mirror((8 + 2) * 1);
  for (std::size_t i = 0; i < mirror.size(); ++i) {
    mirror[i] = 100.0 + static_cast<double>(i);
  }
  mirror[3] = 1.0;    // distance 1 from query 0
  mirror[9] = -1.0;   // also distance 1
  const double q0 = 0.0;
  EXPECT_EQ(nearest_signature_scalar(mirror.data(), mirror.size(), 1, &q0),
            3u);
  EXPECT_EQ(nearest_signature_blocked(mirror.data(), mirror.size(), 1, &q0),
            3u);
}

// --------------------------------------------------------------------------
// Least-square k-d index: differential battery against the scalar scan.
//
// Every data shape runs through four maintenance paths — fresh fit, append
// tail (small batches that stay unindexed, then growth past the re-index
// bound), snapshot-borrowed index (plus appends on top of it), and the
// same appends with HARMONY_INCREMENTAL_FIT=off — at 1 and 8 threads, and
// each answer must equal nearest_signature_scalar over the fitted rows.

struct LsConfigGuard {
  bool incremental = incremental_fit_enabled();
  ~LsConfigGuard() {
    set_incremental_fit(incremental);
    set_thread_count(0);
  }
};

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

struct Shape {
  std::string name;
  std::vector<WorkloadSignature> rows;
  std::vector<WorkloadSignature> queries;
};

/// Queries probing every interesting corner of `rows`: random points in
/// and around the data, exact copies of stored rows (zero-distance ties),
/// and NaN / +-inf coordinates.
std::vector<WorkloadSignature> probe_queries(
    Rng& rng, const std::vector<WorkloadSignature>& rows) {
  const std::size_t dims = rows.front().size();
  std::vector<WorkloadSignature> qs;
  for (int i = 0; i < 24; ++i) {
    WorkloadSignature q(dims);
    for (double& v : q) v = rng.uniform(-0.2, 1.2);
    qs.push_back(std::move(q));
  }
  for (int i = 0; i < 12; ++i) {
    WorkloadSignature q =
        rows[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(rows.size()) - 1))];
    if (i % 2 == 1) {
      for (double& v : q) v += rng.uniform(-1e-3, 1e-3);
    }
    qs.push_back(std::move(q));
  }
  WorkloadSignature q(dims, 0.5);
  q[0] = kNaN;
  qs.push_back(q);
  q[0] = kInf;
  qs.push_back(q);
  q[0] = -kInf;
  qs.push_back(q);
  return qs;
}

std::vector<Shape> battery_shapes() {
  Rng rng(2024);
  std::vector<Shape> shapes;
  // 8 and 16 are the served and scale-bench arities; 1, 3 and 40 pin the
  // narrow and wide ends of the box bound.
  for (const std::size_t dims : {1u, 3u, 8u, 16u, 40u}) {
    Shape uniform{"uniform" + std::to_string(dims), {}, {}};
    for (int i = 0; i < 3000; ++i) {
      WorkloadSignature r(dims);
      for (double& v : r) v = rng.uniform01();
      uniform.rows.push_back(std::move(r));
    }
    shapes.push_back(std::move(uniform));

    // Tight clusters; 150 copies of one row spread through the set, so
    // the exact ties span several leaves.
    Shape clustered{"clustered" + std::to_string(dims), {}, {}};
    std::vector<WorkloadSignature> centres(12, WorkloadSignature(dims));
    for (auto& c : centres) {
      for (double& v : c) v = rng.uniform01();
    }
    WorkloadSignature dup;
    for (int i = 0; i < 3000; ++i) {
      WorkloadSignature r = centres[static_cast<std::size_t>(i % 12)];
      for (double& v : r) v += 0.005 * rng.normal();
      if (i == 7) dup = r;
      if (i > 7 && i % 20 == 7) r = dup;
      clustered.rows.push_back(std::move(r));
    }
    shapes.push_back(std::move(clustered));
  }

  // Every row identical: no split separates anything.
  shapes.push_back({"identical", std::vector<WorkloadSignature>(
                                     700, WorkloadSignature(8, 0.25)),
                    {}});

  // Non-finite rows sprinkled through uniform data.
  Shape nonfinite{"nonfinite", {}, {}};
  for (int i = 0; i < 2000; ++i) {
    WorkloadSignature r(8);
    for (double& v : r) v = rng.uniform01();
    if (i % 37 == 3) r[static_cast<std::size_t>(i % 8)] = kNaN;
    if (i % 41 == 5) r[static_cast<std::size_t>(i % 8)] = kInf;
    if (i % 43 == 6) r[static_cast<std::size_t>(i % 8)] = -kInf;
    if (i % 97 == 0) std::fill(r.begin(), r.end(), kNaN);
    nonfinite.rows.push_back(std::move(r));
  }
  shapes.push_back(std::move(nonfinite));

  // Nothing but NaN and infinite rows: no finite distance anywhere.
  Shape hopeless{"hopeless", {}, {}};
  for (int i = 0; i < 300; ++i) {
    const double v = i % 3 == 0 ? kNaN : (i % 3 == 1 ? kInf : -kInf);
    hopeless.rows.emplace_back(8, v);
  }
  shapes.push_back(std::move(hopeless));

  shapes.push_back({"single", {WorkloadSignature(8, 0.5)}, {}});

  // Rows on a line, ids in descending coordinate order; a query midway
  // between neighbours ties them exactly. Across a leaf boundary the
  // lower-index winner sits in the far child, whose bound then equals the
  // best distance: pruning on >= instead of > would return the other row.
  Shape mirrored{"mirrored", {}, {}};
  for (int i = 0; i < 1000; ++i) {
    WorkloadSignature r(8, 0.5);
    r[0] = (999 - i) * 0.125;
    mirrored.rows.push_back(std::move(r));
  }
  shapes.push_back(std::move(mirrored));

  for (Shape& s : shapes) s.queries = probe_queries(rng, s.rows);
  for (int i = 0; i < 999; ++i) {
    WorkloadSignature q(8, 0.5);
    q[0] = i * 0.125 + 0.0625;
    shapes.back().queries.push_back(std::move(q));
  }
  return shapes;
}

void add_rows(HistoryDatabase& db, const std::vector<WorkloadSignature>& rows,
              std::size_t first, std::size_t last) {
  for (std::size_t i = first; i < last; ++i) {
    ExperienceRecord rec;
    rec.signature = rows[i];
    db.add(std::move(rec));
  }
}

void expect_scalar_answers(const LeastSquareClassifier& ls,
                           const SignatureView& view, const Shape& shape,
                           const std::string& where) {
  for (std::size_t q = 0; q < shape.queries.size(); ++q) {
    const WorkloadSignature& obs = shape.queries[q];
    ASSERT_EQ(ls.classify(obs), nearest_signature_scalar(
                                    view.data, view.count, view.dims,
                                    obs.data()))
        << shape.name << " " << where << " query " << q << " rows "
        << view.count << " indexed " << ls.indexed_rows();
  }
}

/// Grows `db` from `first` rows to all of the shape's rows in batches:
/// small ones that stay in the unindexed tail, then one past the re-index
/// bound. Checks every intermediate model.
void grow_and_check(LeastSquareClassifier& ls, HistoryDatabase& db,
                    const Shape& shape, std::size_t first,
                    const std::string& where) {
  const std::size_t n = shape.rows.size();
  std::size_t at = first;
  for (const std::size_t batch : {std::size_t{1}, n / 64, n / 32, n}) {
    const std::size_t to = std::min(n, at + std::max<std::size_t>(batch, 1));
    if (to == at) break;
    add_rows(db, shape.rows, at, to);
    at = to;
    ls.refit(db.signature_view());
    expect_scalar_answers(ls, db.signature_view(), shape,
                          where + " +" + std::to_string(at));
  }
}

TEST(LeastSquareIndex, FreshFitMatchesScalar) {
  LsConfigGuard guard;
  for (const unsigned threads : {1u, 8u}) {
    set_thread_count(threads);
    for (const Shape& shape : battery_shapes()) {
      HistoryDatabase db;
      add_rows(db, shape.rows, 0, shape.rows.size());
      LeastSquareClassifier ls;
      ls.fit(db.signature_view());
      EXPECT_EQ(ls.indexed_rows(), shape.rows.size());
      expect_scalar_answers(ls, db.signature_view(), shape,
                            "fresh t" + std::to_string(threads));
    }
  }
}

TEST(LeastSquareIndex, AppendTailMatchesScalarWithAndWithoutDelta) {
  LsConfigGuard guard;
  for (const bool incremental : {true, false}) {
    set_incremental_fit(incremental);
    for (const unsigned threads : {1u, 8u}) {
      set_thread_count(threads);
      for (const Shape& shape : battery_shapes()) {
        const std::size_t first = (shape.rows.size() + 1) / 2;
        HistoryDatabase db;
        add_rows(db, shape.rows, 0, first);
        LeastSquareClassifier ls;
        ls.refit(db.signature_view());
        const std::string where = std::string(incremental ? "delta" : "full") +
                                  " t" + std::to_string(threads);
        grow_and_check(ls, db, shape, first, where);
        if (incremental && shape.rows.size() > 1) {
          // Appends never escalate: one full fit, the rest deltas.
          EXPECT_EQ(ls.refit_stats().full, 1u) << shape.name;
        }
        if (!incremental) {
          EXPECT_EQ(ls.refit_stats().incremental, 0u);
        }
      }
    }
  }
}

TEST(LeastSquareIndex, TailStaysWithinAnEighthOfTheIndex) {
  LsConfigGuard guard;
  set_incremental_fit(true);
  Rng rng(5);
  HistoryDatabase db;
  LeastSquareClassifier ls;
  for (int batch = 0; batch < 60; ++batch) {
    for (int i = 0; i < 37; ++i) {
      ExperienceRecord rec;
      rec.signature = {rng.uniform01(), rng.uniform01(), rng.uniform01()};
      db.add(std::move(rec));
    }
    ls.refit(db.signature_view());
    const std::size_t n = db.size();
    EXPECT_LE(n - ls.indexed_rows(), ls.indexed_rows() / 8) << n;
  }
  EXPECT_EQ(ls.refit_stats().full, 1u);
}

TEST(LeastSquareIndex, SnapshotBorrowedIndexMatchesScalar) {
  LsConfigGuard guard;
  int tag = 0;
  for (const unsigned threads : {1u, 8u}) {
    set_thread_count(threads);
    for (const Shape& shape : battery_shapes()) {
      const std::string prefix = ::testing::TempDir() + "/harmony_lsidx_" +
                                 std::to_string(tag++);
      remove_file(ExperienceStore::log_path(prefix));
      remove_file(ExperienceStore::snapshot_path(prefix));
      const std::size_t first = (shape.rows.size() + 1) / 2;
      {
        HistoryDatabase db;
        ExperienceStore store;
        (void)store.open(prefix, db);
        add_rows(db, shape.rows, 0, first);
        store.snapshot(db);
      }
      HistoryDatabase db;
      ExperienceStore store;
      (void)store.open(prefix, db);
      LeastSquareClassifier ls;
      ls.refit(db.signature_view());
      EXPECT_TRUE(ls.index_borrowed()) << shape.name;
      EXPECT_EQ(ls.indexed_rows(), first);
      const std::string where = "snapshot t" + std::to_string(threads);
      expect_scalar_answers(ls, db.signature_view(), shape, where);
      // The first append detaches the rows copy-on-write; the snapshot's
      // index stays borrowed for its prefix while the tail is small.
      grow_and_check(ls, db, shape, first, where);
      store.close();
      remove_file(ExperienceStore::log_path(prefix));
      remove_file(ExperienceStore::snapshot_path(prefix));
    }
  }
}

TEST(LeastSquareIndex, MixedArityIsRejectedOnEveryPath) {
  LsConfigGuard guard;
  set_incremental_fit(true);
  HistoryDatabase db;
  for (int i = 0; i < 200; ++i) {
    ExperienceRecord rec;
    rec.signature = {0.01 * i, 1.0, 2.0};
    db.add(std::move(rec));
  }
  LeastSquareClassifier ls;
  ls.refit(db.signature_view());
  EXPECT_EQ(ls.classify({0.5, 1.0, 2.0}), 50u);
  // An append of another arity turns the set mixed: refit falls back to the
  // full path, and every classify is refused rather than misread.
  ExperienceRecord odd;
  odd.signature = {1.0, 2.0};
  db.add(std::move(odd));
  ls.refit(db.signature_view());
  EXPECT_EQ(ls.refit_stats().full, 2u);
  EXPECT_EQ(ls.indexed_rows(), 0u);
  EXPECT_THROW((void)ls.classify({0.5, 1.0, 2.0}), Error);
  EXPECT_THROW((void)ls.classify({0.5, 1.0}), Error);
  // A query of the wrong arity against a uniform set is refused too.
  LeastSquareClassifier uniform;
  HistoryDatabase one;
  ExperienceRecord rec;
  rec.signature = {1.0, 2.0, 3.0};
  one.add(std::move(rec));
  uniform.fit(one.signature_view());
  EXPECT_EQ(uniform.classify({9.0, 9.0, 9.0}), 0u);
  EXPECT_THROW((void)uniform.classify({1.0, 2.0}), Error);
}

TEST(LeastSquareIndex, PersistedLayoutIsWellFormed) {
  Rng rng(9);
  for (const std::size_t rows : {1u, 64u, 65u, 129u, 1000u, 4097u}) {
    std::vector<double> data(rows * 4);
    for (double& v : data) v = rng.uniform01();
    std::vector<std::size_t> offsets(rows + 1);
    for (std::size_t i = 0; i <= rows; ++i) offsets[i] = i * 4;
    SignatureView view;
    view.data = data.data();
    view.offsets = offsets.data();
    view.count = rows;
    view.dims = 4;
    std::vector<double> boxes;
    std::vector<std::uint32_t> ids;
    build_signature_index(view, boxes, ids);
    EXPECT_EQ(boxes.size(), signature_index_nodes(rows) * 8);
    ASSERT_TRUE(signature_index_well_formed(ids.data(), rows)) << rows;
    // Leaves hold at most kSignatureIndexLeafRows ids.
    const std::size_t leaves = (signature_index_nodes(rows) + 1) / 2;
    EXPECT_LE((rows + leaves - 1) / leaves, kSignatureIndexLeafRows);
    if (rows > 1) {
      std::swap(ids[0], ids[rows - 1]);  // breaks leaf order or a leaf sort
      std::vector<std::uint32_t> dup = ids;
      dup[1] = dup[0];
      EXPECT_FALSE(signature_index_well_formed(dup.data(), rows));
    }
    std::vector<std::uint32_t> wild(rows, 0);
    wild[0] = static_cast<std::uint32_t>(rows);
    EXPECT_FALSE(signature_index_well_formed(wild.data(), rows));
  }
}

TEST(HistoryDatabase, FlatViewMirrorsRecords) {
  HistoryDatabase db;
  EXPECT_TRUE(db.signature_view().empty());
  for (int i = 0; i < 5; ++i) {
    ExperienceRecord rec;
    rec.signature = {static_cast<double>(i), 2.0 * i, 3.0};
    db.add(std::move(rec));
  }
  const SignatureView v = db.signature_view();
  ASSERT_EQ(v.count, 5u);
  EXPECT_EQ(v.dims, 3u);
  EXPECT_EQ(v.version, db.version());
  for (std::size_t i = 0; i < v.count; ++i) {
    ASSERT_EQ(v.arity(i), 3u);
    const auto& sig = db.record(i).signature;
    for (std::size_t d = 0; d < 3; ++d) EXPECT_EQ(v.row(i)[d], sig[d]);
  }
}

TEST(HistoryDatabase, ViewTracksMutationsAndLoad) {
  HistoryDatabase db;
  ExperienceRecord rec;
  rec.signature = {1.0, 2.0};
  db.add(rec);
  const std::uint64_t v1 = db.version();
  db.add(rec);
  EXPECT_NE(db.version(), v1);

  std::stringstream ss;
  db.save(ss);
  HistoryDatabase loaded;
  loaded.load(ss);
  const SignatureView lv = loaded.signature_view();
  ASSERT_EQ(lv.count, 2u);
  EXPECT_EQ(lv.dims, 2u);
  EXPECT_EQ(lv.row(1)[1], 2.0);

  // Copies carry the data but a fresh version: a classifier fitted against
  // the original must refit (the copy's buffers are different memory).
  const HistoryDatabase copy = db;
  EXPECT_NE(copy.version(), db.version());
  EXPECT_EQ(copy.signature_view().count, db.signature_view().count);
}

TEST(HistoryDatabase, MixedArityIsFlaggedInView) {
  HistoryDatabase db;
  ExperienceRecord a;
  a.signature = {1.0, 2.0};
  db.add(a);
  ExperienceRecord b;
  b.signature = {1.0};
  db.add(b);
  EXPECT_EQ(db.signature_view().dims, SignatureView::kMixedDims);
  LeastSquareClassifier ls;
  ls.fit(db.signature_view());
  EXPECT_THROW((void)ls.classify({1.0, 2.0}), Error);
}

// The fit-once/classify-many lifecycle: a fitted classifier must refit
// itself (through DataAnalyzer) when the database version moves, and keep
// serving the cached model while the database is stable.
class ClassifierRefit : public ::testing::TestWithParam<int> {
 protected:
  std::shared_ptr<Classifier> make() const {
    switch (GetParam()) {
      case 0: return std::make_shared<LeastSquareClassifier>();
      case 1: return std::make_shared<KMeansClassifier>(4, 7);
      default: return std::make_shared<DecisionTreeClassifier>(2);
    }
  }
};

TEST_P(ClassifierRefit, AutoRefitsOnVersionBump) {
  auto classifier = make();
  DataAnalyzer analyzer(classifier);
  HistoryDatabase db;
  ExperienceRecord r0;
  r0.signature = {0.0, 0.0};
  db.add(r0);
  ExperienceRecord r1;
  r1.signature = {10.0, 10.0};
  db.add(r1);

  EXPECT_EQ(analyzer.classify(db, {9.0, 9.0}).value(), 1u);
  const std::uint64_t fitted = classifier->fitted_version();
  EXPECT_EQ(fitted, db.version());

  // Stable database: repeated classifies reuse the fitted model.
  EXPECT_EQ(analyzer.classify(db, {0.5, 0.2}).value(), 0u);
  EXPECT_EQ(classifier->fitted_version(), fitted);

  // Version bump: the new record must be visible immediately.
  ExperienceRecord r2;
  r2.signature = {9.0, 9.0};
  db.add(r2);
  EXPECT_EQ(analyzer.classify(db, {9.0, 9.0}).value(), 2u);
  EXPECT_NE(classifier->fitted_version(), fitted);
  EXPECT_EQ(classifier->fitted_version(), db.version());
}

INSTANTIATE_TEST_SUITE_P(AllClassifiers, ClassifierRefit,
                         ::testing::Values(0, 1, 2));

TEST(ExperienceRecord, BestPartialSelectionMatchesFullSort) {
  Rng rng(19);
  for (int trial = 0; trial < 25; ++trial) {
    ExperienceRecord rec;
    const int n = 1 + trial * 3;
    for (int i = 0; i < n; ++i) {
      // Coarse values and configs force performance ties and duplicate
      // configurations.
      const double cfg = static_cast<double>(rng.uniform_int(0, 4));
      const double perf = static_cast<double>(rng.uniform_int(0, 6));
      rec.measurements.push_back({{cfg}, perf, false});
    }
    // Reference: the old full copy + stable sort + dedup.
    std::vector<Measurement> sorted = rec.measurements;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const Measurement& a, const Measurement& b) {
                       return a.performance > b.performance;
                     });
    for (const std::size_t want : {std::size_t{1}, std::size_t{3},
                                   static_cast<std::size_t>(n + 2)}) {
      std::vector<Measurement> ref;
      for (const auto& m : sorted) {
        const bool dup =
            std::any_of(ref.begin(), ref.end(), [&](const auto& o) {
              return o.config == m.config;
            });
        if (dup) continue;
        ref.push_back(m);
        if (ref.size() == want) break;
      }
      const auto got = rec.best(want);
      ASSERT_EQ(got.size(), ref.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].config, ref[i].config);
        EXPECT_EQ(got[i].performance, ref[i].performance);
      }
    }
  }
}

}  // namespace
}  // namespace harmony
