#include "util/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "util/error.hpp"

namespace harmony {

namespace {

SimdLevel detect_max_supported() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
#endif
  return SimdLevel::kScalar;
}

SimdLevel parse_level(const char* name) {
  if (std::strcmp(name, "scalar") == 0) return SimdLevel::kScalar;
  if (std::strcmp(name, "avx2") == 0) return SimdLevel::kAvx2;
  HARMONY_REQUIRE(false, "HARMONY_SIMD must be 'scalar' or 'avx2'");
}

SimdLevel initial_level() {
  if (const char* env = std::getenv("HARMONY_SIMD")) {
    const SimdLevel requested = parse_level(env);
    HARMONY_REQUIRE(simd_supported(requested),
                    "HARMONY_SIMD requests an instruction set this CPU "
                    "does not support");
    return requested;
  }
  return simd_max_supported();
}

// -1 = not yet resolved; otherwise the SimdLevel value. Relaxed loads are
// fine: the value is written once (or by an explicit set_simd_level) and
// any racing first-resolution computes the same initial value.
std::atomic<int> g_level{-1};

}  // namespace

SimdLevel simd_max_supported() noexcept {
  static const SimdLevel max = detect_max_supported();
  return max;
}

bool simd_supported(SimdLevel level) noexcept {
  return static_cast<int>(level) <= static_cast<int>(simd_max_supported());
}

SimdLevel simd_level() {
  const int cached = g_level.load(std::memory_order_relaxed);
  if (cached >= 0) return static_cast<SimdLevel>(cached);
  const SimdLevel resolved = initial_level();
  g_level.store(static_cast<int>(resolved), std::memory_order_relaxed);
  return resolved;
}

void set_simd_level(SimdLevel level) {
  HARMONY_REQUIRE(simd_supported(level),
                  "requested SIMD level is not supported on this CPU");
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

const char* simd_level_name(SimdLevel level) noexcept {
  switch (level) {
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kScalar:
    default:
      return "scalar";
  }
}

}  // namespace harmony
