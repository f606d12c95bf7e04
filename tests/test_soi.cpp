// SOI core tests (serial path): geometry validation, convolution table and
// kernels, the full serial factorisation against the exact FFT, the
// accuracy ladder, the segment (zoom) transform and the inverse.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "fft/plan.hpp"
#include "soi/conv_table.hpp"
#include "soi/convolve.hpp"
#include "soi/serial.hpp"
#include "window/design.hpp"

namespace soi::core {
namespace {

// Profiles are produced by a (deterministic) design search; share them.
const win::SoiProfile& full_profile() {
  static const win::SoiProfile p = win::make_profile(win::Accuracy::kFull);
  return p;
}
const win::SoiProfile& medium_profile() {
  static const win::SoiProfile p = win::make_profile(win::Accuracy::kMedium);
  return p;
}
const win::SoiProfile& low_profile() {
  static const win::SoiProfile p = win::make_profile(win::Accuracy::kLow);
  return p;
}

cvec random_signal(std::int64_t n, std::uint64_t seed) {
  cvec x(static_cast<std::size_t>(n));
  fill_gaussian(x, seed);
  return x;
}

cvec reference_fft(const cvec& x) {
  cvec y(x.size());
  fft::FftPlan plan(static_cast<std::int64_t>(x.size()));
  plan.forward(x, y);
  return y;
}

// --- geometry -------------------------------------------------------------------

TEST(Geometry, DerivedSizes) {
  const SoiGeometry g(4096, 4, full_profile());
  EXPECT_EQ(g.m(), 1024);
  EXPECT_EQ(g.mprime(), 1280);  // 1024 * 5/4
  EXPECT_EQ(g.nprime(), 5120);
  EXPECT_EQ(g.chunks_per_rank(), 320);
  EXPECT_EQ(g.groups_per_rank(), 64);
  EXPECT_EQ(g.taps(), full_profile().taps + 8);  // +2*nu slack
  EXPECT_EQ(g.halo(), (g.taps() - 4) * 4);
  EXPECT_EQ(g.local_input(), g.m() + g.halo());
}

TEST(Geometry, RejectsBadDivisibility) {
  EXPECT_THROW(SoiGeometry(4097, 4, full_profile()), Error);  // P !| N
  EXPECT_THROW(SoiGeometry(4096, 3, full_profile()), Error);  // nu !| M fails or chunks
  EXPECT_THROW(SoiGeometry(100, 4, full_profile()), Error);   // halo too big
}

TEST(Geometry, ConvMaddsAccounting) {
  const SoiGeometry g(4096, 4, full_profile());
  EXPECT_EQ(g.conv_madds_per_rank(), g.mprime() * g.taps());
}

// --- convolution kernels ----------------------------------------------------------

TEST(Convolve, OptimizedMatchesReference) {
  const SoiGeometry g(4096, 4, medium_profile());
  ConvTable table(g, *medium_profile().window);
  cvec in(static_cast<std::size_t>(g.local_input()));
  fill_gaussian(in, 33);
  cvec ref(static_cast<std::size_t>(g.chunks_per_rank() * g.p()));
  cvec opt(ref.size());
  convolve_rank_reference(g, table, in, ref);
  convolve_rank(g, table, in, opt);
  EXPECT_LT(rel_error(opt, ref), 1e-14);
}

TEST(Convolve, PhasedWithUnitPhasesMatchesPlain) {
  const SoiGeometry g(4096, 4, medium_profile());
  ConvTable table(g, *medium_profile().window);
  cvec in(static_cast<std::size_t>(g.local_input()));
  fill_gaussian(in, 34);
  cvec plain(static_cast<std::size_t>(g.chunks_per_rank() * g.p()));
  cvec phased(plain.size());
  cvec ones(static_cast<std::size_t>(g.p()), cplx{1.0, 0.0});
  convolve_rank(g, table, in, plain);
  convolve_rank(g, table.phased(ones), in, phased);
  EXPECT_LT(rel_error(phased, plain), 1e-14);
}

TEST(Convolve, PhasedMatchesNaiveApplication) {
  // The segment transform folds the phases into a tap-table copy and runs
  // the tiled kernel on it (SegmentPlan::compute); check that call pair
  // against the direct per-element application, with non-trivial phases.
  const SoiGeometry g(4096, 4, medium_profile());
  ConvTable table(g, *medium_profile().window);
  const std::int64_t p = g.p();
  cvec in(static_cast<std::size_t>(g.local_input()));
  fill_gaussian(in, 35);
  cvec phases(static_cast<std::size_t>(p));
  for (std::int64_t t = 0; t < p; ++t) {
    phases[static_cast<std::size_t>(t)] = omega(3 * t, p);  // s = 3 column set
  }
  cvec got(static_cast<std::size_t>(g.chunks_per_rank() * p));
  convolve_rank(g, table.phased(phases), in, got);
  // Naive reference: triple loop with the phase applied on the fly.
  cvec want(got.size());
  const std::int64_t b = g.taps();
  const std::int64_t mu = g.mu();
  const std::int64_t nu = g.nu();
  for (std::int64_t q = 0; q < g.groups_per_rank(); ++q) {
    const cplx* base = in.data() + q * nu * p;
    for (std::int64_t r = 0; r < mu; ++r) {
      const cplx* e = table.row(r).data();
      cplx* dst = want.data() + (q * mu + r) * p;
      for (std::int64_t pp = 0; pp < p; ++pp) {
        cplx acc{0.0, 0.0};
        for (std::int64_t blk = 0; blk < b; ++blk) {
          acc += e[blk * p + pp] * phases[static_cast<std::size_t>(pp)] *
                 base[blk * p + pp];
        }
        dst[pp] = acc;
      }
    }
  }
  EXPECT_LT(rel_error(got, want), 1e-14);
}

TEST(Convolve, RejectsShortBuffers) {
  const SoiGeometry g(4096, 4, medium_profile());
  ConvTable table(g, *medium_profile().window);
  cvec in(static_cast<std::size_t>(g.local_input() - 1));
  cvec out(static_cast<std::size_t>(g.chunks_per_rank() * g.p()));
  EXPECT_THROW(convolve_rank(g, table, in, out), Error);
}

// --- kernel shapes: lane widths x profiles x precisions ------------------------
//
// P = 3 runs the one-lane tile, P = 4 the serve lanes' width, P = 8 and 32
// whole SIMD vectors; the four tiers have mu = 5, the Gaussian 8/7 profile
// cuts its 8 rows into two row blocks. Each geometry has an odd group count
// (25), so a 2-group tile is cut by some split point of check (b).

struct KernelShape {
  std::int64_t p;
  int profile;  // 0..3: make_profile tiers kLow..kFull; 4: gaussian 8/7
};

const win::SoiProfile& shape_profile(int which) {
  static const std::array<win::SoiProfile, 5> profiles = {
      win::make_profile(win::Accuracy::kLow),
      win::make_profile(win::Accuracy::kMedium),
      win::make_profile(win::Accuracy::kHigh),
      win::make_profile(win::Accuracy::kFull),
      win::make_gaussian_profile(8, 7)};
  return profiles[static_cast<std::size_t>(which)];
}

class ConvolveShapes : public ::testing::TestWithParam<KernelShape> {
 protected:
  /// M = nu * P * 25: 25 groups per rank, and a halo <= M for every tier.
  [[nodiscard]] SoiGeometry geometry() const {
    const win::SoiProfile& prof = shape_profile(GetParam().profile);
    const std::int64_t p = GetParam().p;
    return SoiGeometry(p * prof.nu * p * 25, p, prof);
  }

  /// Checks (a) split kernel == interleaved wrapper bit for bit, (b) every
  /// cut [0, q) + [q, groups) == one full call bit for bit, (c) within
  /// `tol` of the reference triple loop, (d) a range across two segments
  /// == one call per segment bit for bit.
  template <class Real>
  void check(double tol) const {
    using C = cplx_t<Real>;
    const SoiGeometry g = geometry();
    const ConvTableT<Real> table(g, *shape_profile(GetParam().profile).window);
    const auto len = static_cast<std::size_t>(g.local_input());
    const auto outn = static_cast<std::size_t>(g.chunks_per_rank() * g.p());
    ASSERT_EQ(g.groups_per_rank(), 25);

    cvec_t<Real> in(len);
    std::vector<Real> re(len), im(len);
    Rng rng(41 + static_cast<std::uint64_t>(GetParam().p));
    for (std::size_t i = 0; i < len; ++i) {
      re[i] = static_cast<Real>(rng.gaussian());
      im[i] = static_cast<Real>(rng.gaussian());
      in[i] = C{re[i], im[i]};
    }
    const auto bytes = outn * sizeof(C);

    cvec_t<Real> full(outn);
    convolve_rank<Real>(g, table, in, full);

    cvec_t<Real> split(outn);
    convolve_split_groups<Real>(g, table, re, im, split, 0,
                                g.groups_per_rank());
    EXPECT_EQ(std::memcmp(split.data(), full.data(), bytes), 0)
        << "(a) split-input kernel differs from the interleaved wrapper";

    for (std::int64_t q = 0; q <= g.groups_per_rank(); ++q) {
      cvec_t<Real> cut(outn);
      convolve_rank_groups<Real>(g, table, in, cut, 0, q);
      convolve_rank_groups<Real>(g, table, in, cut, q, g.groups_per_rank());
      EXPECT_EQ(std::memcmp(cut.data(), full.data(), bytes), 0)
          << "(b) cut at q = " << q << " differs from one full call";
    }

    // (d) Two consecutive segments (2M points + one halo) are the single
    // group range [0, 2 * groups) of the pipeline kernel.
    const auto m = static_cast<std::size_t>(g.m());
    std::vector<Real> re2(m + len), im2(m + len);
    cvec_t<Real> in1(len);
    for (std::size_t i = 0; i < m + len; ++i) {
      re2[i] = static_cast<Real>(rng.gaussian());
      im2[i] = static_cast<Real>(rng.gaussian());
    }
    cvec_t<Real> both(2 * outn), each(2 * outn);
    convolve_split_groups<Real>(g, table, re2, im2, both, 0,
                                2 * g.groups_per_rank());
    for (std::size_t s = 0; s < 2; ++s) {
      for (std::size_t i = 0; i < len; ++i) {
        in1[i] = C{re2[s * m + i], im2[s * m + i]};
      }
      convolve_rank<Real>(g, table, in1,
                          mspan_t<Real>{each.data() + s * outn, outn});
    }
    EXPECT_EQ(std::memcmp(both.data(), each.data(), 2 * bytes), 0)
        << "(d) a two-segment range differs from per-segment calls";

    cvec_t<Real> ref(outn);
    convolve_rank_reference<Real>(g, table, in, ref);
    double err = 0.0, den = 0.0;
    for (std::size_t i = 0; i < outn; ++i) {
      err += std::norm(cplx(full[i]) - cplx(ref[i]));
      den += std::norm(cplx(ref[i]));
    }
    EXPECT_LT(std::sqrt(err / den), tol) << "(c) against the reference";
  }
};

TEST_P(ConvolveShapes, DoubleKernelIsBitStableAndMatchesReference) {
  check<double>(1e-14);
}

TEST_P(ConvolveShapes, FloatKernelIsBitStableAndMatchesReference) {
  check<float>(1e-5);
}

std::vector<KernelShape> kernel_shapes() {
  std::vector<KernelShape> shapes;
  for (const std::int64_t p : {3, 4, 8, 32}) {
    for (int prof = 0; prof < 5; ++prof) shapes.push_back({p, prof});
  }
  return shapes;
}

std::string kernel_shape_name(
    const ::testing::TestParamInfo<KernelShape>& param) {
  static const char* const kNames[] = {"low", "medium", "high", "full",
                                       "gauss8over7"};
  return "P" + std::to_string(param.param.p) + "_" +
         kNames[param.param.profile];
}

INSTANTIATE_TEST_SUITE_P(Shapes, ConvolveShapes,
                         ::testing::ValuesIn(kernel_shapes()),
                         kernel_shape_name);

TEST(ConvTable, DemodStaysBounded) {
  const SoiGeometry g(4096, 4, full_profile());
  ConvTable table(g, *full_profile().window);
  // |1/w-hat| is bounded by kappa / |Hhat|_max ~ kappa-scale numbers.
  EXPECT_LT(table.max_demod_magnitude(), 1e3);
  EXPECT_EQ(table.demod().size(), static_cast<std::size_t>(g.m()));
  EXPECT_EQ(table.row_width(), g.taps() * g.p());
}

// --- serial transform: the headline correctness test ------------------------------

struct SoiCase {
  std::int64_t n;
  std::int64_t p;
};

class SerialSoi : public ::testing::TestWithParam<SoiCase> {};

TEST_P(SerialSoi, MatchesExactFftAtFullAccuracy) {
  const auto [n, p] = GetParam();
  const cvec x = random_signal(n, 1000 + static_cast<std::uint64_t>(n + p));
  const cvec want = reference_fft(x);
  SoiFftSerial soi(n, p, full_profile());
  cvec got(x.size());
  soi.forward(x, got);
  const double snr = snr_db(got, want);
  // Paper Section 7.2: ~290 dB. Demand at least 270 (13.5 digits).
  EXPECT_GT(snr, 270.0) << "N=" << n << " P=" << p << " snr=" << snr;
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, SerialSoi,
    ::testing::Values(SoiCase{4096, 4}, SoiCase{8192, 4}, SoiCase{8192, 8},
                      SoiCase{16384, 8}, SoiCase{32768, 16},
                      SoiCase{12288, 4},   // non-pow2: 3 * 4096
                      SoiCase{20480, 16}, SoiCase{40960, 16}));

TEST(SerialSoi2, NonPowerOfTwoSegmentCounts) {
  // P need not be a power of two: P = 5 and P = 10 exercise the odd
  // chunk/permutation arithmetic (M' = 5M/4 is always divisible by 5).
  for (auto [n, p] : std::vector<std::pair<std::int64_t, std::int64_t>>{
           {12800, 5}, {25600, 10}, {64000, 20}, {18432, 6}}) {
    const cvec x = random_signal(n, 2000 + static_cast<std::uint64_t>(p));
    const cvec want = reference_fft(x);
    SoiFftSerial soi(n, p, full_profile());
    cvec got(x.size());
    soi.forward(x, got);
    EXPECT_GT(snr_db(got, want), 268.0) << "N=" << n << " P=" << p;
  }
}

TEST(SerialSoi2, RepeatedExecutionIsBitIdentical) {
  const std::int64_t n = 8192, p = 4;
  SoiFftSerial soi(n, p, medium_profile());
  const cvec x = random_signal(n, 71);
  cvec a(x.size()), b(x.size());
  soi.forward(x, a);
  soi.forward(x, b);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].real(), b[i].real());
    EXPECT_EQ(a[i].imag(), b[i].imag());
  }
}

TEST(SerialSoi2, ZeroInputGivesZeroOutput) {
  const std::int64_t n = 8192, p = 4;
  SoiFftSerial soi(n, p, medium_profile());
  cvec x(static_cast<std::size_t>(n), cplx{0.0, 0.0});
  cvec y(x.size(), cplx{1.0, 1.0});
  soi.forward(x, y);
  for (const auto& v : y) {
    EXPECT_EQ(v.real(), 0.0);
    EXPECT_EQ(v.imag(), 0.0);
  }
}

TEST(SerialSoi2, ConstantInputConcentratesInDc) {
  const std::int64_t n = 8192, p = 4;
  SoiFftSerial soi(n, p, full_profile());
  cvec x(static_cast<std::size_t>(n), cplx{1.0, 0.0});
  cvec y(x.size());
  soi.forward(x, y);
  EXPECT_NEAR(y[0].real(), static_cast<double>(n), 1e-6);
  double offpeak = 0.0;
  for (std::size_t k = 1; k < y.size(); ++k) {
    offpeak = std::max(offpeak, std::abs(y[k]));
  }
  EXPECT_LT(offpeak / static_cast<double>(n), 1e-12);
}

TEST(SerialSoiExtra, AccuracyLadderMatchesProfiles) {
  const std::int64_t n = 16384, p = 8;
  const cvec x = random_signal(n, 77);
  const cvec want = reference_fft(x);
  cvec got(x.size());

  double prev_snr = 1e9;
  for (const auto* prof : {&full_profile(), &medium_profile(), &low_profile()}) {
    SoiFftSerial soi(n, p, *prof);
    soi.forward(x, got);
    const double snr = snr_db(got, want);
    // Each profile should meet (approximately) its design target...
    EXPECT_GT(snr, prof->target_snr - 25.0) << prof->name;
    // ...and the ladder must be ordered.
    EXPECT_LT(snr, prev_snr + 30.0) << prof->name;
    prev_snr = snr;
  }
}

TEST(SerialSoiExtra, ImpulseAndToneSignals) {
  const std::int64_t n = 8192, p = 4;
  SoiFftSerial soi(n, p, full_profile());
  // Impulse -> flat spectrum.
  cvec x(static_cast<std::size_t>(n), cplx{0, 0});
  x[3] = cplx{1.0, -2.0};
  const cvec want = reference_fft(x);
  cvec got(x.size());
  soi.forward(x, got);
  EXPECT_GT(snr_db(got, want), 270.0);
  // Tone at a segment boundary bin (stress for demodulation edges).
  const std::size_t bins[] = {static_cast<std::size_t>(n / p) - 1};
  const double amps[] = {1.0};
  fill_tones(x, bins, amps, 0.01, 5);
  const cvec want2 = reference_fft(x);
  soi.forward(x, got);
  EXPECT_GT(snr_db(got, want2), 270.0);
}

TEST(SerialSoiExtra, LinearityHolds) {
  const std::int64_t n = 8192, p = 8;
  SoiFftSerial soi(n, p, medium_profile());
  const cvec a = random_signal(n, 8);
  const cvec b = random_signal(n, 9);
  cvec mix(a.size());
  const cplx ca{0.3, -0.8}, cb{-1.1, 0.2};
  for (std::size_t i = 0; i < a.size(); ++i) mix[i] = ca * a[i] + cb * b[i];
  cvec fa(a.size()), fb(a.size()), fmix(a.size()), want(a.size());
  soi.forward(a, fa);
  soi.forward(b, fb);
  soi.forward(mix, fmix);
  for (std::size_t i = 0; i < a.size(); ++i) want[i] = ca * fa[i] + cb * fb[i];
  // SOI is linear by construction; the two paths must agree to roundoff.
  EXPECT_LT(rel_error(fmix, want), 1e-12);
}

TEST(SerialSoiExtra, InverseRoundTrip) {
  const std::int64_t n = 8192, p = 4;
  SoiFftSerial soi(n, p, full_profile());
  const cvec x = random_signal(n, 21);
  cvec y(x.size()), back(x.size());
  soi.forward(x, y);
  soi.inverse(y, back);
  EXPECT_GT(snr_db(back, x), 260.0);
}

TEST(SerialSoiExtra, TimedBreakdownSumsSanely) {
  const std::int64_t n = 8192, p = 4;
  SoiFftSerial soi(n, p, medium_profile());
  const cvec x = random_signal(n, 30);
  cvec y(x.size());
  SoiPhaseTimes t;
  soi.forward_timed(x, y, t);
  EXPECT_GT(t.conv, 0.0);
  EXPECT_GT(t.fm, 0.0);
  EXPECT_GT(t.total(), 0.0);
  EXPECT_NEAR(t.total(),
              t.halo + t.conv + t.fp + t.pack + t.alltoall + t.fm + t.demod,
              1e-12);
  // Serial = null comm: the exchange never runs.
  EXPECT_EQ(t.alltoall, 0.0);
  EXPECT_EQ(t.alltoall_bytes, 0);
}

TEST(SerialSoiExtra, RejectsWrongSizes) {
  SoiFftSerial soi(8192, 4, medium_profile());
  cvec x(100), y(8192);
  EXPECT_THROW(soi.forward(x, y), Error);
  cvec x2(8192), y2(10);
  EXPECT_THROW(soi.forward(x2, y2), Error);
}

// --- oversampling ablation ----------------------------------------------------------

TEST(Oversampling, BetaHalfAlsoWorks) {
  // mu/nu = 3/2: different group structure (mu=3, nu=2).
  const win::SoiProfile prof =
      win::design_gauss_rect(3, 2, 1e-13, 16.0, "beta-half");
  const std::int64_t n = 8192, p = 4;
  const cvec x = random_signal(n, 55);
  const cvec want = reference_fft(x);
  SoiFftSerial soi(n, p, prof);
  cvec got(x.size());
  soi.forward(x, got);
  EXPECT_GT(snr_db(got, want), 240.0);
}

// --- segment (zoom) transform ---------------------------------------------------------

TEST(Segment, EverySegmentMatchesFullTransform) {
  const std::int64_t n = 8192, p = 8;
  const cvec x = random_signal(n, 14);
  const cvec want = reference_fft(x);
  SegmentPlan plan(n, p, full_profile());
  EXPECT_EQ(plan.segment_length(), n / p);
  const std::int64_t m = n / p;
  cvec seg(static_cast<std::size_t>(m));
  for (std::int64_t s = 0; s < p; ++s) {
    plan.compute(x, s, seg);
    const cspan want_seg{want.data() + s * m, static_cast<std::size_t>(m)};
    EXPECT_GT(snr_db(seg, want_seg), 265.0) << "segment " << s;
  }
}

TEST(Segment, OutOfRangeSegmentThrows) {
  SegmentPlan plan(8192, 8, medium_profile());
  cvec x(8192), seg(1024);
  EXPECT_THROW(plan.compute(x, 8, seg), Error);
  EXPECT_THROW(plan.compute(x, -1, seg), Error);
}

// --- window-family ablation (Section 8) ------------------------------------------------

TEST(WindowFamilies, GaussianWindowReachesItsDesignAccuracy) {
  const win::SoiProfile prof = win::make_gaussian_profile(5, 4);
  const std::int64_t n = 16384, p = 4;
  const cvec x = random_signal(n, 91);
  const cvec want = reference_fft(x);
  SoiFftSerial soi(n, p, prof);
  cvec got(x.size());
  soi.forward(x, got);
  const double snr = snr_db(got, want);
  // Should work, but clearly below the two-parameter window's 290 dB
  // (Section 8's "10 digits at best" statement, with slack both ways).
  EXPECT_GT(snr, 120.0);
  EXPECT_LT(snr, 262.0);
}

TEST(WindowFamilies, BSplineWindowWorksAtItsDesignLevel) {
  // Compact time support: zero truncation error, aliasing-limited — the
  // dual tradeoff to Kaiser-Bessel. Order 30 should give a usable
  // mid-accuracy transform.
  const win::SoiProfile prof = win::make_bspline_profile(5, 4, 30);
  const std::int64_t n = 16384, p = 4;
  const cvec x = random_signal(n, 93);
  const cvec want = reference_fft(x);
  SoiFftSerial soi(n, p, prof);
  cvec got(x.size());
  soi.forward(x, got);
  const double snr = snr_db(got, want);
  EXPECT_GT(snr, prof.target_snr - 30.0);
  EXPECT_LT(snr, 290.0);
}

TEST(WindowFamilies, KaiserCompactSupportIsImpractical) {
  // Section 8 offers compact-support windows as a way to *eliminate*
  // aliasing. The Kaiser-Bessel bump indeed has zero alias leak, but its
  // Hhat does not vanish smoothly at the support edge, so H decays only
  // like 1/t and the truncation width explodes — the documented negative
  // ablation explaining why the paper's smooth (tau, sigma) family wins.
  const win::SoiProfile prof = win::make_kaiser_profile(5, 4, 12.0);
  EXPECT_EQ(prof.eps_alias, 0.0);
  EXPECT_GT(prof.taps, 1000);  // vs ~64 for the two-parameter window
  // The resulting halo cannot fit any reasonable problem size.
  EXPECT_THROW(SoiGeometry(1 << 16, 4, prof), Error);
}

}  // namespace
}  // namespace soi::core
