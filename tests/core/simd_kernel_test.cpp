// Differential battery for the SIMD-dispatched signature scan.
//
// The distance scan, and the least-square and k-means classifiers built on
// it, must return bit-identical results at every available SimdLevel —
// values, argmin indices, lowest-index tie breaks — at HARMONY_THREADS=1
// and 8 alike, including on censored / fault-injected inputs (infinities,
// huge sentinels, NaN rows). The scalar blocked kernel is the reference;
// the AVX2 level is compared against it with exact double equality, never
// EXPECT_NEAR. The least-squares solver has no vector path; its solutions
// are pinned to hexfloats instead, so a change to its loops cannot move a
// bit unnoticed.
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/analyzer.hpp"
#include "core/history.hpp"
#include "linalg/lstsq.hpp"
#include "linalg/matrix.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace harmony {
namespace {

std::vector<SimdLevel> available_levels() {
  std::vector<SimdLevel> levels{SimdLevel::kScalar};
  if (simd_supported(SimdLevel::kAvx2)) levels.push_back(SimdLevel::kAvx2);
  return levels;
}

/// Restores the dispatch level and thread count on scope exit so a failing
/// test cannot poison its neighbours.
struct DispatchGuard {
  SimdLevel level = simd_level();
  ~DispatchGuard() {
    set_simd_level(level);
    set_thread_count(0);
  }
};

std::vector<double> random_rows(Rng& rng, std::size_t count,
                                std::size_t dims) {
  std::vector<double> data(count * dims);
  for (double& v : data) v = rng.uniform01();
  return data;
}

/// Plants lowest-index tie cases and censored/fault-injected values: exact
/// duplicate rows, +inf spikes, huge finite sentinels, and a NaN row (which
/// must never win the argmin at any level).
void inject_faults(std::vector<double>& data, std::size_t count,
                   std::size_t dims) {
  if (count >= 8) {
    for (std::size_t d = 0; d < dims; ++d) {
      data[5 * dims + d] = data[1 * dims + d];  // exact duplicate: tie
    }
    data[3 * dims] = std::numeric_limits<double>::infinity();
    data[4 * dims + (dims - 1)] = 1e308;  // censored-measurement sentinel
  }
  if (count >= 20) {
    for (std::size_t d = 0; d < dims; ++d) {
      data[17 * dims + d] = std::numeric_limits<double>::quiet_NaN();
    }
  }
}

TEST(SimdKernels, DistanceScanBitIdenticalAcrossLevels) {
  Rng rng(2024);
  for (const std::size_t dims : {1u, 3u, 7u, 16u, 33u, 64u, 70u, 130u}) {
    for (const std::size_t count : {1u, 2u, 5u, 16u, 17u, 257u, 1024u}) {
      std::vector<double> data = random_rows(rng, count, dims);
      inject_faults(data, count, dims);
      std::vector<double> query(dims);
      for (double& v : query) v = rng.uniform01();

      double ref_d = std::numeric_limits<double>::infinity();
      std::size_t ref_i = 0;
      nearest_signature_scan_scalar(data.data(), dims, 0, count, query.data(),
                                    ref_d, ref_i);
      for (const SimdLevel level : available_levels()) {
        double d = std::numeric_limits<double>::infinity();
        std::size_t i = 0;
        nearest_signature_scan_level(level, data.data(), dims, 0, count,
                                     query.data(), d, i);
        ASSERT_EQ(i, ref_i) << simd_level_name(level) << " dims=" << dims
                            << " count=" << count;
        ASSERT_EQ(d, ref_d) << simd_level_name(level);
      }
    }
  }
}

TEST(SimdKernels, DistanceScanFoldContractHoldsMidRange) {
  // Folding disjoint ranges in index order must equal the full scan at
  // every level — the property the least-square tail scan and the
  // streamed 100M bench both lean on.
  Rng rng(7);
  const std::size_t dims = 16, count = 600;
  std::vector<double> data = random_rows(rng, count, dims);
  inject_faults(data, count, dims);
  std::vector<double> query(dims);
  for (double& v : query) v = rng.uniform01();

  for (const SimdLevel level : available_levels()) {
    double full_d = std::numeric_limits<double>::infinity();
    std::size_t full_i = 0;
    nearest_signature_scan_level(level, data.data(), dims, 0, count,
                                 query.data(), full_d, full_i);
    double fold_d = std::numeric_limits<double>::infinity();
    std::size_t fold_i = 0;
    for (const auto& [lo, hi] :
         {std::pair<std::size_t, std::size_t>{0, 13},
          {13, 130}, {130, 131}, {131, 512}, {512, 600}}) {
      nearest_signature_scan_level(level, data.data(), dims, lo, hi,
                                   query.data(), fold_d, fold_i);
    }
    EXPECT_EQ(fold_i, full_i) << simd_level_name(level);
    EXPECT_EQ(fold_d, full_d) << simd_level_name(level);
  }
}

/// Appends `records` rows of a clustered experience database to `db`.
void grow_database(HistoryDatabase& db, std::size_t records,
                   std::size_t dims) {
  Rng rng(31 + db.size());
  for (std::size_t i = 0; i < records; ++i) {
    ExperienceRecord rec;
    rec.signature.resize(dims);
    const double base = static_cast<double>(i % 13) * 0.07;
    for (double& v : rec.signature) v = base + 0.01 * rng.uniform01();
    db.add(std::move(rec));
  }
}

HistoryDatabase build_database(std::size_t records, std::size_t dims) {
  HistoryDatabase db;
  grow_database(db, records, dims);
  return db;
}

TEST(SimdKernels, ClassifierBitIdenticalAcrossLevelsAndThreadCounts) {
  DispatchGuard guard;
  const std::size_t dims = 16;
  // 9'000 indexed rows plus a 1'000-row append: with the delta refit on,
  // the appended tail is answered by the dispatched scan kernel.
  HistoryDatabase db = build_database(9'000, dims);
  LeastSquareClassifier ls;
  ls.refit(db.signature_view());
  grow_database(db, 1'000, dims);
  const SignatureView view = db.signature_view();
  Rng qrng(5);
  std::vector<WorkloadSignature> queries;
  for (int q = 0; q < 32; ++q) {
    WorkloadSignature obs(dims);
    for (double& v : obs) v = qrng.uniform01();
    queries.push_back(std::move(obs));
  }

  std::vector<std::size_t> reference;
  for (const SimdLevel level : available_levels()) {
    set_simd_level(level);
    for (const unsigned threads : {1u, 8u}) {
      set_thread_count(threads);
      ls.refit(view);
      std::vector<std::size_t> got;
      for (const auto& obs : queries) {
        got.push_back(ls.classify(obs));
        EXPECT_EQ(got.back(), nearest_signature_scalar(view.data, view.count,
                                                       dims, obs.data()));
      }
      if (reference.empty()) {
        reference = got;
      } else {
        EXPECT_EQ(got, reference)
            << simd_level_name(level) << " threads=" << threads;
      }
    }
  }
}

TEST(SimdKernels, KMeansBitIdenticalAcrossLevels) {
  DispatchGuard guard;
  const std::size_t dims = 16;
  const HistoryDatabase db = build_database(4'000, dims);
  Rng qrng(17);
  std::vector<WorkloadSignature> queries;
  for (int q = 0; q < 16; ++q) {
    WorkloadSignature obs(dims);
    for (double& v : obs) v = qrng.uniform01();
    queries.push_back(std::move(obs));
  }

  std::vector<std::size_t> reference;
  for (const SimdLevel level : available_levels()) {
    set_simd_level(level);
    KMeansClassifier km(16, 7, 10);
    km.fit(db.signature_view());
    std::vector<std::size_t> got;
    for (const auto& obs : queries) got.push_back(km.classify(obs));
    if (reference.empty()) {
      reference = got;
    } else {
      EXPECT_EQ(got, reference) << simd_level_name(level);
    }
  }
}

struct LinearSystem {
  linalg::Matrix a;
  std::vector<double> b;
};

/// A rows x cols system with entries in [-2, 2) and right-hand side in
/// [-1, 1), drawn row by row from `seed`.
LinearSystem random_system(std::uint64_t seed, std::size_t rows,
                           std::size_t cols) {
  Rng rng(seed);
  LinearSystem s{linalg::Matrix(rows, cols), std::vector<double>(rows)};
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) s.a(r, c) = rng.uniform(-2.0, 2.0);
    s.b[r] = rng.uniform(-1.0, 1.0);
  }
  return s;
}

TEST(LeastSquaresPins, FullRankSolutionsMatchPinnedBits) {
  const LinearSystem small = random_system(12, 8, 3);
  const auto small_fit = linalg::least_squares(small.a, small.b);
  EXPECT_FALSE(small_fit.regularized);
  EXPECT_EQ(small_fit.x, (std::vector<double>{-0x1.3225313e86675p-1,
                                              -0x1.76661706a8304p-2,
                                              0x1.81e9a904d68ccp-3}));

  const LinearSystem tall = random_system(40, 40, 8);
  const auto tall_fit = linalg::least_squares(tall.a, tall.b);
  EXPECT_FALSE(tall_fit.regularized);
  EXPECT_EQ(tall_fit.x,
            (std::vector<double>{0x1.46f3f699b0f77p-5, 0x1.1dcdc6f6ba16ep-7,
                                 -0x1.2b8cc079656dfp-5, 0x1.041068cae2cap-3,
                                 -0x1.35dc5f8f7ab58p-5, 0x1.0738f132f1c29p-8,
                                 -0x1.03c631b806427p-5,
                                 -0x1.d583e2e92e381p-5}));
}

TEST(LeastSquaresPins, RidgeFallbackMatchesPinnedBits) {
  // Rank-deficient system: column 2 duplicates column 0, forcing the
  // ridge-regularized path.
  LinearSystem s = random_system(44, 24, 5);
  for (std::size_t r = 0; r < 24; ++r) s.a(r, 2) = s.a(r, 0);
  const auto fit = linalg::least_squares(s.a, s.b);
  EXPECT_TRUE(fit.regularized);
  EXPECT_EQ(fit.x,
            (std::vector<double>{0x1.8fed2ea6da08fp-5, 0x1.20ccde2da7905p-4,
                                 0x1.8fed3f27e93f7p-5, 0x1.bf3a984b6ea4ap-4,
                                 -0x1.cf4a27020500dp-4}));
}

TEST(SimdKernels, LevelDispatchHonoursOverride) {
  DispatchGuard guard;
  for (const SimdLevel level : available_levels()) {
    set_simd_level(level);
    EXPECT_EQ(simd_level(), level);
  }
  EXPECT_TRUE(simd_supported(SimdLevel::kScalar));
}

}  // namespace
}  // namespace harmony
