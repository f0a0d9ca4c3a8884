// The AVX2 row-lane kernel for the signature distance scan, plus the level
// dispatcher for the scan entry points (DESIGN.md §11). It is the one
// vector kernel in the code base; everything else runs scalar.
//
// Bit-identity strategy: vector lanes run ACROSS rows — lane L carries row
// L's entire forward accumulation chain, one separately-rounded
// (sub, mul, add) triple per dimension in dimension order — so every
// per-row sum performs exactly the scalar reference's operations in the
// scalar reference's order. The 4x4 in-register transpose only moves data
// between lanes; it never touches a rounding. Early-exit masks are
// conservative in both directions: a vector-computed row the scalar path
// would have skipped provably fails the strict-< argmin update, and a
// vector-skipped row provably cannot win, so the running (best, index)
// fold is identical at both levels.
//
// Compiled with -ffp-contract=off (see core/CMakeLists.txt) so the
// compiler cannot fuse the explicit mul+add pairs — or the scalar
// remainder loops compiled under the avx2 target attribute — into FMAs.
#include "core/analyzer.hpp"

#include <cstddef>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define HARMONY_X86 1
#endif

namespace harmony {

namespace {

using detail::kDimChunk;
using detail::signature_partial_sq;

#if HARMONY_X86

// ----------------------------------------------------------------- AVX2

/// One 4-row x 4-dim tile: half-row loads recombined via insertf128 (whose
/// memory form stays off the shuffle port) and two unpacks per dimension
/// pair put one dimension across the four rows in each register; the four
/// dimensions then run through the row chains held in `acc`'s lanes, in
/// dimension order. `qv` holds the four pre-broadcast query coordinates.
__attribute__((target("avx2"))) inline __m256d tile4_avx2(
    const double* rows, std::size_t dims, const __m256d* qv, std::size_t d,
    __m256d acc) {
  // Dims d, d+1 of rows 0/2 and 1/3.
  __m256d m0 = _mm256_insertf128_pd(
      _mm256_castpd128_pd256(_mm_loadu_pd(rows + d)),
      _mm_loadu_pd(rows + 2 * dims + d), 1);
  __m256d m1 = _mm256_insertf128_pd(
      _mm256_castpd128_pd256(_mm_loadu_pd(rows + dims + d)),
      _mm_loadu_pd(rows + 3 * dims + d), 1);
  __m256d u;
  u = _mm256_sub_pd(_mm256_unpacklo_pd(m0, m1), qv[0]);
  acc = _mm256_add_pd(acc, _mm256_mul_pd(u, u));
  u = _mm256_sub_pd(_mm256_unpackhi_pd(m0, m1), qv[1]);
  acc = _mm256_add_pd(acc, _mm256_mul_pd(u, u));
  // Dims d+2, d+3.
  m0 = _mm256_insertf128_pd(
      _mm256_castpd128_pd256(_mm_loadu_pd(rows + d + 2)),
      _mm_loadu_pd(rows + 2 * dims + d + 2), 1);
  m1 = _mm256_insertf128_pd(
      _mm256_castpd128_pd256(_mm_loadu_pd(rows + dims + d + 2)),
      _mm_loadu_pd(rows + 3 * dims + d + 2), 1);
  u = _mm256_sub_pd(_mm256_unpacklo_pd(m0, m1), qv[2]);
  acc = _mm256_add_pd(acc, _mm256_mul_pd(u, u));
  u = _mm256_sub_pd(_mm256_unpackhi_pd(m0, m1), qv[3]);
  acc = _mm256_add_pd(acc, _mm256_mul_pd(u, u));
  return acc;
}

__attribute__((target("avx2"))) void scan_avx2(
    const double* data, std::size_t dims, std::size_t first, std::size_t last,
    const double* q, double& best_dist_sq, std::size_t& best_index) {
  // Sixteen rows per iteration: four independent accumulator chains hide
  // the add latency the single-chain-per-lane layout would otherwise
  // serialize on.
  constexpr std::size_t kRows = 16;
  std::size_t i = first;
  for (; i + kRows <= last; i += kRows) {
    const double* base = data + i * dims;
    __m256d a0 = _mm256_setzero_pd();
    __m256d a1 = _mm256_setzero_pd();
    __m256d a2 = _mm256_setzero_pd();
    __m256d a3 = _mm256_setzero_pd();
    std::size_t d = 0;
    bool alive = true;
    // Full kDimChunk blocks with the scalar kernel's early-exit cadence.
    while (d + kDimChunk <= dims) {
      const std::size_t d1 = d + kDimChunk;
      for (; d < d1; d += 4) {
        __m256d qv[4];
        qv[0] = _mm256_broadcast_sd(q + d);
        qv[1] = _mm256_broadcast_sd(q + d + 1);
        qv[2] = _mm256_broadcast_sd(q + d + 2);
        qv[3] = _mm256_broadcast_sd(q + d + 3);
        a0 = tile4_avx2(base, dims, qv, d, a0);
        a1 = tile4_avx2(base + 4 * dims, dims, qv, d, a1);
        a2 = tile4_avx2(base + 8 * dims, dims, qv, d, a2);
        a3 = tile4_avx2(base + 12 * dims, dims, qv, d, a3);
      }
      // Monotone partials: once every row of the block is at or above the
      // running best it cannot win under the strict-< update. NaN partials
      // compare false and keep their rows alive, matching the scalar check.
      const __m256d bestv = _mm256_set1_pd(best_dist_sq);
      const int ge =
          _mm256_movemask_pd(_mm256_cmp_pd(a0, bestv, _CMP_GE_OQ)) &
          _mm256_movemask_pd(_mm256_cmp_pd(a1, bestv, _CMP_GE_OQ)) &
          _mm256_movemask_pd(_mm256_cmp_pd(a2, bestv, _CMP_GE_OQ)) &
          _mm256_movemask_pd(_mm256_cmp_pd(a3, bestv, _CMP_GE_OQ));
      if (ge == 0xF) {
        alive = false;
        break;
      }
    }
    if (!alive) continue;
    // Remaining full 4-dim tiles past the last chunk boundary.
    for (; d + 4 <= dims; d += 4) {
      __m256d qv[4];
      qv[0] = _mm256_broadcast_sd(q + d);
      qv[1] = _mm256_broadcast_sd(q + d + 1);
      qv[2] = _mm256_broadcast_sd(q + d + 2);
      qv[3] = _mm256_broadcast_sd(q + d + 3);
      a0 = tile4_avx2(base, dims, qv, d, a0);
      a1 = tile4_avx2(base + 4 * dims, dims, qv, d, a1);
      a2 = tile4_avx2(base + 8 * dims, dims, qv, d, a2);
      a3 = tile4_avx2(base + 12 * dims, dims, qv, d, a3);
    }
    if (d == dims) {
      // All dims consumed: the lane sums are final, so if no lane beats the
      // running best the whole block's scalar update loop can be skipped
      // (the common case once the best has converged).
      const __m256d bestv = _mm256_set1_pd(best_dist_sq);
      const int lt =
          _mm256_movemask_pd(_mm256_cmp_pd(a0, bestv, _CMP_LT_OQ)) |
          _mm256_movemask_pd(_mm256_cmp_pd(a1, bestv, _CMP_LT_OQ)) |
          _mm256_movemask_pd(_mm256_cmp_pd(a2, bestv, _CMP_LT_OQ)) |
          _mm256_movemask_pd(_mm256_cmp_pd(a3, bestv, _CMP_LT_OQ));
      if (lt == 0) continue;
    }
    alignas(32) double acc[kRows];
    _mm256_store_pd(acc + 0, a0);
    _mm256_store_pd(acc + 4, a1);
    _mm256_store_pd(acc + 8, a2);
    _mm256_store_pd(acc + 12, a3);
    // Tail dims (< 4) and the index-order strict-< argmin update.
    for (std::size_t r = 0; r < kRows; ++r) {
      const double dist =
          signature_partial_sq(base + r * dims, q, d, dims, acc[r]);
      if (dist < best_dist_sq) {
        best_dist_sq = dist;
        best_index = i + r;
      }
    }
  }
  if (i < last) {
    nearest_signature_scan_scalar(data, dims, i, last, q, best_dist_sq,
                                  best_index);
  }
}

#endif  // HARMONY_X86

}  // namespace

void nearest_signature_scan_level(SimdLevel level, const double* data,
                                  std::size_t dims, std::size_t first,
                                  std::size_t last, const double* query,
                                  double& best_dist_sq,
                                  std::size_t& best_index) {
#if HARMONY_X86
  if (level == SimdLevel::kAvx2) {
    return scan_avx2(data, dims, first, last, query, best_dist_sq,
                     best_index);
  }
#else
  (void)level;
#endif
  nearest_signature_scan_scalar(data, dims, first, last, query, best_dist_sq,
                                best_index);
}

void nearest_signature_scan(const double* data, std::size_t dims,
                            std::size_t first, std::size_t last,
                            const double* query, double& best_dist_sq,
                            std::size_t& best_index) {
  nearest_signature_scan_level(simd_level(), data, dims, first, last, query,
                               best_dist_sq, best_index);
}

}  // namespace harmony
