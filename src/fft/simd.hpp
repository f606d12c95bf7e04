// Runtime SIMD capability detection for the batched FFT executor's kernel
// dispatch. The kernels themselves are compile-time width templates written
// in GCC/Clang vector extensions (one body per radix; width 1 is plain
// Real); this header only decides WHICH width to run at on the current
// machine, mirroring the tile-width dispatch of the convolution kernel in
// src/soi/convolve.cpp. Every width computes the same bits.
//
// The tier can be forced with the SOI_SIMD environment variable
// (scalar | sse2 | avx2 | avx512) — used by the parity tests to exercise
// every dispatch path on one machine, and as an escape hatch.
#pragma once

#include <cstdlib>
#include <cstring>

namespace soi::fft {

enum class SimdTier {
  kScalar,   ///< no vector units assumed (1 Real lane)
  kSse2,     ///< 128-bit (2 doubles / 4 floats)
  kAvx2,     ///< 256-bit (4 doubles / 8 floats)
  kAvx512,   ///< 512-bit (8 doubles / 16 floats)
};

inline const char* simd_tier_name(SimdTier t) {
  switch (t) {
    case SimdTier::kScalar: return "scalar";
    case SimdTier::kSse2: return "sse2";
    case SimdTier::kAvx2: return "avx2";
    case SimdTier::kAvx512: return "avx512";
  }
  return "?";
}

/// Highest tier the host supports (clamped by SOI_SIMD when set).
inline SimdTier detect_simd_tier() {
  SimdTier best = SimdTier::kScalar;
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("sse2")) best = SimdTier::kSse2;
  if (__builtin_cpu_supports("avx2")) best = SimdTier::kAvx2;
  if (__builtin_cpu_supports("avx512f")) best = SimdTier::kAvx512;
#elif defined(__aarch64__)
  best = SimdTier::kSse2;  // NEON: 128-bit lanes, same width class as SSE2
#endif
  if (const char* env = std::getenv("SOI_SIMD")) {
    SimdTier forced = best;
    if (std::strcmp(env, "scalar") == 0) forced = SimdTier::kScalar;
    else if (std::strcmp(env, "sse2") == 0) forced = SimdTier::kSse2;
    else if (std::strcmp(env, "avx2") == 0) forced = SimdTier::kAvx2;
    else if (std::strcmp(env, "avx512") == 0) forced = SimdTier::kAvx512;
    if (forced < best) best = forced;  // can only clamp down, never lie up
  }
  return best;
}

/// Vector width in Real lanes at a tier (1 for scalar).
template <class Real>
constexpr int simd_width(SimdTier t) {
  const int bytes = t == SimdTier::kSse2    ? 16
                    : t == SimdTier::kAvx2  ? 32
                    : t == SimdTier::kAvx512 ? 64
                                             : static_cast<int>(sizeof(Real));
  return bytes / static_cast<int>(sizeof(Real));
}

}  // namespace soi::fft
