// Batched SoA executor tests: parity against the per-transform reference
// plan for every strategy (smooth mixed-radix incl. radix-8 schedules,
// Rader primes, Bluestein composites), both signs, odd batch counts,
// explicit batch widths, strided/fused layouts, and every SIMD dispatch
// tier reachable on this machine via SOI_SIMD.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <type_traits>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "fft/batch.hpp"
#include "fft/factor.hpp"
#include "fft/plan.hpp"
#include "fft/simd.hpp"

namespace soi::fft {
namespace {

cvec random_signal(std::int64_t n, std::uint64_t seed) {
  cvec x(static_cast<std::size_t>(n));
  fill_gaussian(x, seed);
  return x;
}

double max_err(cspan a, cspan b) {
  double m = 0;
  for (std::size_t i = 0; i < a.size(); ++i) m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

double tol_for(std::int64_t n) {
  return 1e-12 * std::max<double>(4.0, std::log2(static_cast<double>(n)) * 4.0);
}

// Reference: per-transform scalar plan over each length-n chunk.
void reference_batch(std::int64_t n, cspan in, mspan out, std::int64_t count,
                     bool inverse) {
  FftPlan plan(n);
  for (std::int64_t b = 0; b < count; ++b) {
    cspan src = in.subspan(static_cast<std::size_t>(b * n),
                           static_cast<std::size_t>(n));
    mspan dst = out.subspan(static_cast<std::size_t>(b * n),
                            static_cast<std::size_t>(n));
    if (inverse) {
      plan.inverse(src, dst);
    } else {
      plan.forward(src, dst);
    }
  }
}

void expect_parity(std::int64_t n, std::int64_t count, std::int64_t width,
                   bool inverse) {
  const cvec x = random_signal(n * count, 77 + static_cast<std::uint64_t>(n));
  cvec got(x.size()), want(x.size());
  BatchFft batch(n, width);
  if (inverse) {
    batch.inverse(x, got, count);
  } else {
    batch.forward(x, got, count);
  }
  reference_batch(n, x, want, count, inverse);
  EXPECT_LT(max_err(got, want), tol_for(n))
      << "n=" << n << " count=" << count << " width=" << width
      << " inverse=" << inverse;
}

// --- batched radix schedule ------------------------------------------------

TEST(BatchSchedule, Pow2PrefersRadix8) {
  const auto r = radix_schedule_batch(512);  // 8*8*8
  ASSERT_EQ(r.size(), 3u);
  for (auto v : r) EXPECT_EQ(v, 8);
}

TEST(BatchSchedule, LeftoverTwosBecomeFourThenTwo) {
  EXPECT_EQ(radix_schedule_batch(16), (std::vector<std::int64_t>{8, 2}));
  EXPECT_EQ(radix_schedule_batch(32), (std::vector<std::int64_t>{8, 4}));
  EXPECT_EQ(radix_schedule_batch(4), (std::vector<std::int64_t>{4}));
}

TEST(BatchSchedule, ProductInvariant) {
  for (std::int64_t n : {6, 8, 24, 30, 120, 256, 360, 1001, 2310}) {
    std::int64_t prod = 1;
    for (auto v : radix_schedule_batch(n)) prod *= v;
    EXPECT_EQ(prod, n);
  }
}

// --- parity across strategies, sizes, signs --------------------------------

TEST(BatchFftParity, SmoothSizesBothSigns) {
  // Radix mixes: pure 2^k (radix-8 paths), 2*3*5 composites, generic 7/11/13.
  for (std::int64_t n : {2, 4, 8, 16, 64, 256, 512, 6, 12, 30, 60, 360, 7, 14,
                         77, 91, 143}) {
    expect_parity(n, 5, 0, false);
    expect_parity(n, 5, 0, true);
  }
}

TEST(BatchFftParity, RaderPrimesBothSigns) {
  for (std::int64_t n : {17, 31, 97, 101}) {
    expect_parity(n, 4, 0, false);
    expect_parity(n, 4, 0, true);
  }
}

TEST(BatchFftParity, BluesteinCompositesBothSigns) {
  for (std::int64_t n : {34, 62, 289}) {  // 2*17, 2*31, 17^2
    expect_parity(n, 3, 0, false);
    expect_parity(n, 3, 0, true);
  }
}

TEST(BatchFftParity, OddAndEdgeBatchCounts) {
  for (std::int64_t count : {1, 2, 3, 7, 9, 33, 65}) {
    expect_parity(60, count, 0, false);
    expect_parity(64, count, 0, true);
  }
}

TEST(BatchFftParity, ExplicitWidths) {
  for (std::int64_t w : {1, 3, 8, 32}) {
    expect_parity(48, 13, w, false);
    expect_parity(48, 13, w, true);
    expect_parity(97, 13, w, false);  // Rader recursion inherits the width
  }
}

TEST(BatchFftParity, SizeOneIdentity) {
  const cvec x = random_signal(9, 5);
  cvec y(x.size());
  BatchFft one(1);
  one.forward(x, y, 9);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(x[i], y[i]);
}

TEST(BatchFft, RoundTripRestoresInput) {
  for (std::int64_t n : {128, 45, 31}) {
    const std::int64_t count = 6;
    const cvec x = random_signal(n * count, 11);
    cvec f(x.size()), r(x.size());
    BatchFft batch(n);
    batch.forward(x, f, count);
    batch.inverse(f, r, count);
    EXPECT_LT(max_err(r, x), tol_for(n)) << "n=" << n;
  }
}

// --- float instantiation ---------------------------------------------------

TEST(BatchFftFloat, Parity) {
  const std::int64_t n = 96, count = 10;
  const cvec xd = random_signal(n * count, 3);
  cvecf x(xd.size());
  for (std::size_t i = 0; i < xd.size(); ++i) x[i] = static_cast<cplxf>(xd[i]);
  cvecf got(x.size());
  BatchFftF batch(n);
  batch.forward(x, got, count);
  FftPlanF plan(n);
  cvecf want(x.size());
  for (std::int64_t b = 0; b < count; ++b) {
    plan.forward(cspanf{x.data() + b * n, static_cast<std::size_t>(n)},
                 mspanf{want.data() + b * n, static_cast<std::size_t>(n)});
  }
  float m = 0;
  for (std::size_t i = 0; i < x.size(); ++i) m = std::max(m, std::abs(got[i] - want[i]));
  EXPECT_LT(m, 1e-3f);
}

// --- strided / fused layouts ----------------------------------------------

TEST(BatchFftStrided, InterleavedStoreIsTranspose) {
  // forward_strided(contiguous -> interleaved) must equal transform-then-
  // transpose: out[j*count + b] = F(x_b)[j]. This is the fused stride-P
  // permutation the SOI pipeline relies on.
  const std::int64_t n = 40, count = 12;
  const cvec x = random_signal(n * count, 21);
  cvec fused(x.size()), ref(x.size());
  BatchFft batch(n);
  batch.forward_strided(x, contiguous_layout(n), fused,
                        interleaved_layout(count), count);
  reference_batch(n, x, ref, count, false);
  double m = 0;
  for (std::int64_t b = 0; b < count; ++b) {
    for (std::int64_t j = 0; j < n; ++j) {
      m = std::max(m, std::abs(fused[static_cast<std::size_t>(j * count + b)] -
                               ref[static_cast<std::size_t>(b * n + j)]));
    }
  }
  EXPECT_LT(m, tol_for(n));
}

TEST(BatchFftStrided, InterleavedLoadMatchesGather) {
  const std::int64_t n = 24, count = 9;
  const cvec xi = random_signal(n * count, 22);  // interleaved: xi[j*count+b]
  cvec contig(xi.size());
  for (std::int64_t b = 0; b < count; ++b) {
    for (std::int64_t j = 0; j < n; ++j) {
      contig[static_cast<std::size_t>(b * n + j)] =
          xi[static_cast<std::size_t>(j * count + b)];
    }
  }
  cvec got(xi.size()), want(xi.size());
  BatchFft batch(n);
  batch.forward_strided(xi, interleaved_layout(count), got,
                        contiguous_layout(n), count);
  reference_batch(n, contig, want, count, false);
  EXPECT_LT(max_err(got, want), tol_for(n));
}

TEST(BatchFftStrided, GenericStridesRoundTrip) {
  // Both strides > 1 exercises the gather/scatter path.
  const std::int64_t n = 16, count = 5;
  const BatchLayout lay{2 * n, 2};  // every other slot used
  cvec x(static_cast<std::size_t>(2 * n * count));
  fill_gaussian(x, 31);
  cvec f(x.size(), cplx{0, 0}), r(x.size(), cplx{0, 0});
  BatchFft batch(n);
  batch.forward_strided(x, lay, f, lay, count);
  batch.inverse_strided(f, lay, r, lay, count);
  double m = 0;
  for (std::int64_t b = 0; b < count; ++b) {
    for (std::int64_t j = 0; j < n; ++j) {
      const auto idx = static_cast<std::size_t>(b * lay.batch_stride +
                                                j * lay.elem_stride);
      m = std::max(m, std::abs(r[idx] - x[idx]));
    }
  }
  EXPECT_LT(m, tol_for(n));
}

// --- SIMD dispatch ---------------------------------------------------------

// Saves the caller's SOI_SIMD and restores it on scope exit, so a suite
// run under a forced tier keeps that tier for the tests that follow.
class SimdEnvGuard {
 public:
  SimdEnvGuard() {
    if (const char* v = std::getenv("SOI_SIMD")) saved_ = v;
  }
  ~SimdEnvGuard() {
    if (saved_) {
      setenv("SOI_SIMD", saved_->c_str(), 1);
    } else {
      unsetenv("SOI_SIMD");
    }
  }
  SimdEnvGuard(const SimdEnvGuard&) = delete;
  SimdEnvGuard& operator=(const SimdEnvGuard&) = delete;

 private:
  std::optional<std::string> saved_;
};

// Every reachable tier runs the same kernel body per radix (the tier only
// picks the vector width), so each must give the first tier's bits; the
// double results are also checked against the scalar plan.
template <class Real>
void expect_tiers_bit_equal(std::int64_t n, std::int64_t count, bool inverse,
                            SimdTier host) {
  const cvec xd = random_signal(n * count, 41 + static_cast<std::uint64_t>(n));
  cvec_t<Real> x(xd.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = {static_cast<Real>(xd[i].real()), static_cast<Real>(xd[i].imag())};
  }
  cvec want(xd.size());
  reference_batch(n, xd, want, count, inverse);
  cvec_t<Real> first;
  for (const char* t : {"scalar", "sse2", "avx2", "avx512"}) {
    setenv("SOI_SIMD", t, 1);
    BatchFftT<Real> batch(n);  // detection happens at construction
    EXPECT_LE(static_cast<int>(batch.simd_tier()), static_cast<int>(host));
    cvec_t<Real> got(x.size());
    if (inverse) {
      batch.inverse(x, got, count);
    } else {
      batch.forward(x, got, count);
    }
    const std::string where = std::string("tier=") + t + " n=" +
                              std::to_string(n) + " count=" +
                              std::to_string(count) +
                              " inverse=" + std::to_string(inverse);
    if constexpr (std::is_same_v<Real, double>) {
      EXPECT_LT(max_err(got, want), tol_for(n)) << where;
    }
    if (first.empty()) {
      first = got;
    } else {
      EXPECT_EQ(std::memcmp(got.data(), first.data(),
                            got.size() * sizeof(got[0])),
                0)
          << where << " differs in bits from tier=scalar";
    }
  }
}

TEST(BatchFftSimd, AllReachableTiersAgree) {
  // Force each tier at or below the host's: 240 runs only radix-2/3/4/5/8
  // passes, 112 = 7*16 and 1001 = 7*11*13 add the generic-radix kernel;
  // counts 1 and 3 give odd butterfly spans (one-lane passes).
  const SimdEnvGuard guard;
  unsetenv("SOI_SIMD");
  const SimdTier host = detect_simd_tier();
  for (std::int64_t n : {240, 112, 1001}) {
    for (std::int64_t count : {1, 3, 17}) {
      for (bool inverse : {false, true}) {
        expect_tiers_bit_equal<double>(n, count, inverse, host);
        expect_tiers_bit_equal<float>(n, count, inverse, host);
      }
    }
  }
}

TEST(BatchFftSimd, EnvCannotRaiseTier) {
  const SimdEnvGuard guard;
  setenv("SOI_SIMD", "avx512", 1);
  const SimdTier forced = detect_simd_tier();
  unsetenv("SOI_SIMD");
  const SimdTier host = detect_simd_tier();
  EXPECT_LE(static_cast<int>(forced), static_cast<int>(host));
}

TEST(BatchFftSimd, EffectiveWidthClampsToCount) {
  BatchFft batch(64, 32);
  EXPECT_EQ(batch.effective_width(3), 3);
  EXPECT_EQ(batch.effective_width(1000), 32);
  BatchFft autow(64, 0);
  EXPECT_GE(autow.effective_width(1000), 1);
}

}  // namespace
}  // namespace soi::fft
