// Runtime SIMD dispatch for the signature distance scan.
//
// One kernel has a vector variant: the blocked signature scan behind the
// least-square index's unindexed tail and the k-means centroid search
// (core/analyzer_simd.cpp). It carries a scalar reference implementation,
// which is also the portable path, and an AVX2 variant. The active level is
// chosen once at startup from CPUID (AVX2 when the CPU has it), overridable
// with HARMONY_SIMD=scalar|avx2 for differential testing, and at runtime via
// set_simd_level() (benches flip levels to measure each path).
//
// Bit-identity contract: the vector kernel assigns one *independent scalar
// reduction chain per SIMD lane* (one row of the scan) and combines lane
// results in index order with the same strict-< semantics as the scalar
// code. Lane arithmetic is expressed with explicit mul/add intrinsics
// (never FMA; the kernel's translation unit compiles with
// -ffp-contract=off), so each lane performs the scalar reference's exact
// operation sequence and every result — values, argmin indices, tie
// resolution — is bit-identical across levels, thread counts, and the
// golden CSV pins.
#pragma once

namespace harmony {

/// Kernel instruction-set level, ordered: higher levels require lower ones.
enum class SimdLevel : int {
  kScalar = 0,  ///< portable reference paths
  kAvx2 = 1,    ///< 256-bit doubles (4 lanes)
};

/// Best level this CPU supports (CPUID, cached after the first call).
[[nodiscard]] SimdLevel simd_max_supported() noexcept;

/// Whether `level` can run on this CPU.
[[nodiscard]] bool simd_supported(SimdLevel level) noexcept;

/// The active dispatch level: the HARMONY_SIMD override when set (invalid
/// or unsupported values throw harmony::Error), otherwise the best
/// supported level. Resolved once, then cached; set_simd_level() changes
/// it afterwards.
[[nodiscard]] SimdLevel simd_level();

/// Overrides the active level (tests and benches flip levels to compare
/// paths). Throws harmony::Error when the CPU lacks `level`.
void set_simd_level(SimdLevel level);

/// "scalar" or "avx2".
[[nodiscard]] const char* simd_level_name(SimdLevel level) noexcept;

}  // namespace harmony
