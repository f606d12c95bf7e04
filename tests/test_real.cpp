// Real-input SOI transform (core::SoiRealFft).
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "fft/plan.hpp"
#include "soi/real.hpp"
#include "window/design.hpp"

namespace soi {
namespace {

TEST(SoiRealFft, MatchesComplexReference) {
  const std::int64_t n = 1 << 14;
  const std::int64_t p = 4;
  dvec x(static_cast<std::size_t>(n));
  Rng rng(7);
  for (auto& v : x) v = rng.gaussian();
  // Ground truth from the exact complex engine.
  cvec xc(static_cast<std::size_t>(n));
  for (std::int64_t j = 0; j < n; ++j) {
    xc[static_cast<std::size_t>(j)] = {x[static_cast<std::size_t>(j)], 0.0};
  }
  cvec want(xc.size());
  fft::FftPlan plan(n);
  plan.forward(xc, want);

  core::SoiRealFft rsoi(n, p, win::make_profile(win::Accuracy::kFull));
  cvec got(static_cast<std::size_t>(n / 2 + 1));
  rsoi.forward(x, got);
  const cspan want_half{want.data(), static_cast<std::size_t>(n / 2 + 1)};
  EXPECT_GT(snr_db(got, want_half), 265.0);
}

TEST(SoiRealFft, RoundTrip) {
  const std::int64_t n = 1 << 13;
  const std::int64_t p = 4;
  dvec x(static_cast<std::size_t>(n));
  Rng rng(8);
  for (auto& v : x) v = rng.gaussian();
  core::SoiRealFft rsoi(n, p, win::make_profile(win::Accuracy::kFull));
  cvec spec(static_cast<std::size_t>(n / 2 + 1));
  rsoi.forward(x, spec);
  dvec back(static_cast<std::size_t>(n));
  rsoi.inverse(spec, back);
  double err = 0.0, ref = 0.0;
  for (std::int64_t j = 0; j < n; ++j) {
    const double d = back[static_cast<std::size_t>(j)] -
                     x[static_cast<std::size_t>(j)];
    err += d * d;
    ref += x[static_cast<std::size_t>(j)] * x[static_cast<std::size_t>(j)];
  }
  EXPECT_LT(std::sqrt(err / ref), 1e-12);
}

TEST(SoiRealFft, HermitianSymmetryRealized) {
  // A real signal's bins must satisfy y[0], y[n/2] real (up to SOI error).
  const std::int64_t n = 1 << 13;
  dvec x(static_cast<std::size_t>(n));
  Rng rng(9);
  for (auto& v : x) v = rng.gaussian();
  core::SoiRealFft rsoi(n, 4, win::make_profile(win::Accuracy::kFull));
  cvec spec(static_cast<std::size_t>(n / 2 + 1));
  rsoi.forward(x, spec);
  EXPECT_LT(std::abs(spec[0].imag()), 1e-8 * std::abs(spec[0]));
  EXPECT_LT(std::abs(spec[static_cast<std::size_t>(n / 2)].imag()),
            1e-8 * std::abs(spec[static_cast<std::size_t>(n / 2)]) + 1e-8);
}

TEST(SoiRealFft, RejectsOddLength) {
  EXPECT_THROW(
      core::SoiRealFft(9, 3, win::make_profile(win::Accuracy::kLow)), Error);
}

}  // namespace
}  // namespace soi
