// Distributed algorithm tests: the single-all-to-all SOI FFT and the
// triple-all-to-all six-step baseline, executed over SimMPI ranks and
// checked against the serial engine; communication-volume assertions verify
// the paper's core claim (1 vs 3 global transposes).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <mutex>

#include "baseline/sixstep.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "fft/plan.hpp"
#include "net/comm.hpp"
#include "soi/dist.hpp"
#include "soi/serial.hpp"
#include "window/design.hpp"

namespace soi {
namespace {

const win::SoiProfile& full_profile() {
  static const win::SoiProfile p = win::make_profile(win::Accuracy::kFull);
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

// Run a block-distributed transform and reassemble the result.
template <class MakePlan>
cvec run_distributed(std::int64_t n, int p, const cvec& x, MakePlan&& make,
                     std::vector<net::CommEvent>* events_out = nullptr) {
  const std::int64_t m = n / p;
  cvec y(static_cast<std::size_t>(n));
  std::mutex mu;
  auto events = net::run_ranks(p, [&](net::Comm& comm) {
    auto plan = make(comm);
    const std::int64_t base = comm.rank() * m;
    cvec y_local(static_cast<std::size_t>(m));
    plan->forward(cspan{x.data() + base, static_cast<std::size_t>(m)},
                  y_local);
    std::lock_guard<std::mutex> lock(mu);
    std::copy(y_local.begin(), y_local.end(), y.begin() + base);
  });
  if (events_out != nullptr) *events_out = std::move(events);
  return y;
}

// --- SOI distributed --------------------------------------------------------------

// Every field of a parameter struct is 8 bytes wide, so the struct has no
// padding. gtest names each case by printing the object's bytes, and
// uninitialised padding would give the case a different name on every run.
struct DistCase {
  std::int64_t n;
  std::int64_t p;
};

class DistSoi : public ::testing::TestWithParam<DistCase> {};

TEST_P(DistSoi, MatchesReference) {
  const auto [n, p] = GetParam();
  const cvec x = random_signal(n, 500 + static_cast<std::uint64_t>(n + p));
  const cvec want = reference_fft(x);
  const cvec got = run_distributed(n, p, x, [&](net::Comm& c) {
    return std::make_unique<core::SoiFftDist>(c, n, full_profile());
  });
  EXPECT_GT(snr_db(got, want), 270.0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, DistSoi,
                         ::testing::Values(DistCase{4096, 4},
                                           DistCase{8192, 4},
                                           DistCase{8192, 8},
                                           DistCase{16384, 8},
                                           DistCase{40960, 16}));

TEST(DistSoiExtra, SingleRankWorks) {
  const std::int64_t n = 4096;
  const cvec x = random_signal(n, 3);
  const cvec want = reference_fft(x);
  const cvec got = run_distributed(n, 1, x, [&](net::Comm& c) {
    return std::make_unique<core::SoiFftDist>(c, n, full_profile());
  });
  EXPECT_GT(snr_db(got, want), 270.0);
}

TEST(DistSoiExtra, ExactlyOneAlltoall) {
  const std::int64_t n = 8192;
  const int p = 8;
  const cvec x = random_signal(n, 4);
  std::vector<net::CommEvent> events;
  run_distributed(n, p, x, [&](net::Comm& c) {
    return std::make_unique<core::SoiFftDist>(c, n, full_profile());
  }, &events);
  const net::TrafficTotals t = net::summarize_events(events);
  EXPECT_EQ(t.alltoall_calls, 1);          // the paper's headline property
  EXPECT_EQ(t.p2p_messages, p);            // one halo sendrecv per rank
  // The exchange moves M'/P complex per pair: (1+beta) N / P^2.
  const std::int64_t mc = n * 5 / 4 / (p * static_cast<std::int64_t>(p));
  EXPECT_EQ(t.alltoall_bytes_per_rank,
            mc * 16 * (p - 1));
}

TEST(DistSoiExtra, HaloIsTinyComparedToAlltoall) {
  const std::int64_t n = 40960;
  const int p = 16;
  const cvec x = random_signal(n, 5);
  std::vector<net::CommEvent> events;
  run_distributed(n, p, x, [&](net::Comm& c) {
    return std::make_unique<core::SoiFftDist>(c, n, full_profile());
  }, &events);
  const net::TrafficTotals t = net::summarize_events(events);
  // Paper: the neighbour exchange is negligible next to the transpose.
  EXPECT_LT(t.p2p_bytes / p, t.alltoall_bytes_per_rank);
}

TEST(DistSoiExtra, MatchesSerialEngineExactlyInStructure) {
  // Dist and serial use the same tables and kernels; outputs should agree
  // to roundoff, not merely to SOI accuracy.
  const std::int64_t n = 8192;
  const int p = 4;
  const cvec x = random_signal(n, 6);
  core::SoiFftSerial serial(n, p, full_profile());
  cvec want(x.size());
  serial.forward(x, want);
  const cvec got = run_distributed(n, p, x, [&](net::Comm& c) {
    return std::make_unique<core::SoiFftDist>(c, n, full_profile());
  });
  EXPECT_LT(rel_error(got, want), 1e-13);
}

TEST(DistSoiExtra, BreakdownPopulated) {
  const std::int64_t n = 8192;
  const int p = 4;
  const cvec x = random_signal(n, 7);
  std::mutex mu;
  core::SoiDistBreakdown bd{};
  net::run_ranks(p, [&](net::Comm& c) {
    core::SoiFftDist plan(c, n, full_profile());
    const std::int64_t m = n / p;
    cvec y_local(static_cast<std::size_t>(m));
    plan.forward(cspan{x.data() + c.rank() * m, static_cast<std::size_t>(m)},
                 y_local);
    if (c.rank() == 0) {
      std::lock_guard<std::mutex> lock(mu);
      bd = plan.last_breakdown();
    }
  });
  EXPECT_GT(bd.conv, 0.0);
  EXPECT_GT(bd.fm, 0.0);
  EXPECT_GT(bd.alltoall_bytes, 0);
  EXPECT_GT(bd.halo_bytes, 0);
  EXPECT_GT(bd.compute_total(), 0.0);
}

TEST(DistSoiExtra, WrongLocalSizeThrows) {
  EXPECT_THROW(
      net::run_ranks(4,
                     [&](net::Comm& c) {
                       core::SoiFftDist plan(c, 8192, full_profile());
                       cvec x(10), y(2048);
                       plan.forward(x, y);
                     }),
      Error);
}

// --- multi-segment distribution (Section 6: P = multiple of rank count) ----

struct SprCase {
  std::int64_t n;
  std::int64_t ranks;
  std::int64_t spr;
};

class DistSoiMultiSeg : public ::testing::TestWithParam<SprCase> {};

TEST_P(DistSoiMultiSeg, MatchesReference) {
  const auto [n, ranks, spr] = GetParam();
  const cvec x = random_signal(n, 700 + static_cast<std::uint64_t>(n + spr));
  const cvec want = reference_fft(x);
  const cvec got = run_distributed(n, ranks, x, [&](net::Comm& c) {
    return std::make_unique<core::SoiFftDist>(c, n, full_profile(), spr);
  });
  EXPECT_GT(snr_db(got, want), 270.0)
      << "ranks=" << ranks << " spr=" << spr;
}

INSTANTIATE_TEST_SUITE_P(Grid, DistSoiMultiSeg,
                         ::testing::Values(SprCase{16384, 4, 2},
                                           SprCase{16384, 2, 4},
                                           SprCase{32768, 4, 4},
                                           SprCase{32768, 1, 8},
                                           SprCase{65536, 8, 2}));

TEST(DistSoiMultiSeg2, SameResultForEverySegmentation) {
  // P = 8 segments realised as 8x1, 4x2, 2x4 and 1x8 ranks-x-segments must
  // produce identical transforms (up to roundoff).
  const std::int64_t n = 16384;
  const cvec x = random_signal(n, 15);
  cvec base;
  for (const auto& [ranks, spr] :
       std::vector<std::pair<int, std::int64_t>>{{8, 1}, {4, 2}, {2, 4}, {1, 8}}) {
    const cvec got = run_distributed(n, ranks, x, [&](net::Comm& c) {
      return std::make_unique<core::SoiFftDist>(c, n, full_profile(), spr);
    });
    if (base.empty()) {
      base = got;
    } else {
      EXPECT_LT(rel_error(got, base), 1e-13)
          << "ranks=" << ranks << " spr=" << spr;
    }
  }
}

TEST(DistSoiMultiSeg2, StillExactlyOneAlltoall) {
  const std::int64_t n = 16384;
  const int ranks = 4;
  const cvec x = random_signal(n, 16);
  std::vector<net::CommEvent> events;
  run_distributed(n, ranks, x, [&](net::Comm& c) {
    return std::make_unique<core::SoiFftDist>(c, n, full_profile(), 2);
  }, &events);
  const auto t = net::summarize_events(events);
  EXPECT_EQ(t.alltoall_calls, 1);
  EXPECT_EQ(t.p2p_messages, ranks);
}

TEST(DistSoiMultiSeg2, RejectsBadSegmentation) {
  EXPECT_THROW(
      net::run_ranks(2,
                     [&](net::Comm& c) {
                       core::SoiFftDist plan(c, 16384, full_profile(), 0);
                       (void)plan;
                     }),
      Error);
}

// --- communication/computation overlap -----------------------------------------

TEST(DistOverlap, OverlappedMatchesBlockingBitExactly) {
  // Same group order, same kernels: a plan built with overlap on must
  // agree to the last bit with the same plan built with overlap off.
  const std::int64_t n = 16384;
  for (const auto& [ranks, spr] :
       std::vector<std::pair<int, std::int64_t>>{{4, 1}, {4, 2}, {2, 4}}) {
    const cvec x = random_signal(n, 23 + static_cast<std::uint64_t>(spr));
    const std::int64_t m = n / ranks;
    cvec plain(x.size()), fast(x.size());
    std::mutex mu;
    net::run_ranks(ranks, [&](net::Comm& c) {
      core::DistOptions opts;
      opts.segments_per_rank = spr;
      core::SoiFftDist plan(c, n, full_profile(), opts);
      opts.overlap = true;
      core::SoiFftDist overlapped(c, n, full_profile(), opts);
      cvec ya(static_cast<std::size_t>(m)), yb(static_cast<std::size_t>(m));
      plan.forward(cspan{x.data() + c.rank() * m, static_cast<std::size_t>(m)},
                   ya);
      overlapped.forward(
          cspan{x.data() + c.rank() * m, static_cast<std::size_t>(m)}, yb);
      std::lock_guard<std::mutex> lock(mu);
      std::copy(ya.begin(), ya.end(), plain.begin() + c.rank() * m);
      std::copy(yb.begin(), yb.end(), fast.begin() + c.rank() * m);
    });
    for (std::size_t i = 0; i < plain.size(); ++i) {
      ASSERT_EQ(plain[i].real(), fast[i].real()) << "i=" << i;
      ASSERT_EQ(plain[i].imag(), fast[i].imag()) << "i=" << i;
    }
  }
}

TEST(DistOverlap, SingleRankOverlapFallsBack) {
  const std::int64_t n = 8192;
  const cvec x = random_signal(n, 29);
  const cvec want = reference_fft(x);
  cvec got(x.size());
  net::run_ranks(1, [&](net::Comm& c) {
    core::DistOptions opts;
    opts.overlap = true;
    core::SoiFftDist plan(c, n, full_profile(), opts);
    plan.forward(x, got);
  });
  EXPECT_GT(snr_db(got, want), 270.0);
}

// --- distributed inverse ------------------------------------------------------

TEST(DistInverse, SoiRoundTrip) {
  const std::int64_t n = 16384;
  const int ranks = 4;
  const std::int64_t m = n / ranks;
  const cvec x = random_signal(n, 17);
  cvec back(x.size());
  std::mutex mu;
  net::run_ranks(ranks, [&](net::Comm& c) {
    core::SoiFftDist plan(c, n, full_profile(), 2);
    cvec y_local(static_cast<std::size_t>(m));
    cvec x_local(static_cast<std::size_t>(m));
    plan.forward(cspan{x.data() + c.rank() * m, static_cast<std::size_t>(m)},
                 y_local);
    plan.inverse(y_local, x_local);
    std::lock_guard<std::mutex> lock(mu);
    std::copy(x_local.begin(), x_local.end(), back.begin() + c.rank() * m);
  });
  EXPECT_GT(snr_db(back, x), 260.0);
}

TEST(DistInverse, SoiInverseMatchesSerialInverse) {
  const std::int64_t n = 8192;
  const int ranks = 4;
  const std::int64_t m = n / ranks;
  const cvec y = random_signal(n, 18);
  core::SoiFftSerial serial(n, ranks, full_profile());
  cvec want(y.size());
  serial.inverse(y, want);
  cvec got(y.size());
  std::mutex mu;
  net::run_ranks(ranks, [&](net::Comm& c) {
    core::SoiFftDist plan(c, n, full_profile());
    cvec x_local(static_cast<std::size_t>(m));
    plan.inverse(cspan{y.data() + c.rank() * m, static_cast<std::size_t>(m)},
                 x_local);
    std::lock_guard<std::mutex> lock(mu);
    std::copy(x_local.begin(), x_local.end(), got.begin() + c.rank() * m);
  });
  EXPECT_LT(rel_error(got, want), 1e-13);
}

TEST(DistInverse, SixStepRoundTrip) {
  const std::int64_t n = 4096;
  const int ranks = 4;
  const std::int64_t m = n / ranks;
  const cvec x = random_signal(n, 19);
  cvec back(x.size());
  std::mutex mu;
  net::run_ranks(ranks, [&](net::Comm& c) {
    baseline::SixStepFftDist plan(c, n);
    cvec y_local(static_cast<std::size_t>(m));
    cvec x_local(static_cast<std::size_t>(m));
    plan.forward(cspan{x.data() + c.rank() * m, static_cast<std::size_t>(m)},
                 y_local);
    plan.inverse(y_local, x_local);
    std::lock_guard<std::mutex> lock(mu);
    std::copy(x_local.begin(), x_local.end(), back.begin() + c.rank() * m);
  });
  EXPECT_GT(snr_db(back, x), 290.0);
}

// --- six-step baseline ---------------------------------------------------------------

class DistSixStep : public ::testing::TestWithParam<DistCase> {};

TEST_P(DistSixStep, MatchesReference) {
  const auto [n, p] = GetParam();
  const cvec x = random_signal(n, 900 + static_cast<std::uint64_t>(n + p));
  const cvec want = reference_fft(x);
  const cvec got = run_distributed(n, p, x, [&](net::Comm& c) {
    return std::make_unique<baseline::SixStepFftDist>(c, n);
  });
  // Exact algorithm: agreement to FFT roundoff.
  EXPECT_GT(snr_db(got, want), 290.0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, DistSixStep,
                         ::testing::Values(DistCase{1024, 4},
                                           DistCase{4096, 4},
                                           DistCase{4096, 8},
                                           DistCase{16384, 16},
                                           DistCase{12288, 8},
                                           DistCase{4096, 2}));

TEST(SixStepExtra, ExactlyThreeAlltoalls) {
  const std::int64_t n = 4096;
  const int p = 8;
  const cvec x = random_signal(n, 10);
  std::vector<net::CommEvent> events;
  run_distributed(n, p, x, [&](net::Comm& c) {
    return std::make_unique<baseline::SixStepFftDist>(c, n);
  }, &events);
  const net::TrafficTotals t = net::summarize_events(events);
  EXPECT_EQ(t.alltoall_calls, 3);
  EXPECT_EQ(t.p2p_messages, 0);
  // Each exchange moves N/P^2 complex per pair; three of them.
  const std::int64_t rows = n / (p * static_cast<std::int64_t>(p));
  EXPECT_EQ(t.alltoall_bytes_per_rank, 3 * rows * 16 * (p - 1));
}

TEST(SixStepExtra, CommunicationRatioVsSoi) {
  // SOI moves (1+beta) of one transpose; baseline moves 3 transposes:
  // ratio should be 3 / (1 + beta) = 2.4 at beta = 1/4.
  const std::int64_t n = 40960;
  const int p = 16;
  const cvec x = random_signal(n, 11);
  std::vector<net::CommEvent> soi_ev, base_ev;
  run_distributed(n, p, x, [&](net::Comm& c) {
    return std::make_unique<core::SoiFftDist>(c, n, full_profile());
  }, &soi_ev);
  run_distributed(n, p, x, [&](net::Comm& c) {
    return std::make_unique<baseline::SixStepFftDist>(c, n);
  }, &base_ev);
  const auto ts = net::summarize_events(soi_ev);
  const auto tb = net::summarize_events(base_ev);
  const double ratio = static_cast<double>(tb.alltoall_bytes_per_rank) /
                       static_cast<double>(ts.alltoall_bytes_per_rank);
  EXPECT_NEAR(ratio, 3.0 / 1.25, 1e-12);
}

TEST(SixStepExtra, RejectsBadSizes) {
  EXPECT_THROW(
      net::run_ranks(4,
                     [&](net::Comm& c) {
                       // N = 28: P | N but P^2 does not divide N.
                       baseline::SixStepFftDist plan(c, 28);
                       (void)plan;
                     }),
      Error);
}

TEST(SixStepExtra, BreakdownPopulated) {
  const std::int64_t n = 4096;
  const int p = 4;
  const cvec x = random_signal(n, 12);
  std::mutex mu;
  baseline::SixStepBreakdown bd{};
  net::run_ranks(p, [&](net::Comm& c) {
    baseline::SixStepFftDist plan(c, n);
    const std::int64_t m = n / p;
    cvec y_local(static_cast<std::size_t>(m));
    plan.forward(cspan{x.data() + c.rank() * m, static_cast<std::size_t>(m)},
                 y_local);
    if (c.rank() == 0) {
      std::lock_guard<std::mutex> lock(mu);
      bd = plan.last_breakdown();
    }
  });
  EXPECT_GT(bd.fm, 0.0);
  EXPECT_EQ(bd.alltoall_count, 3);
  EXPECT_GT(bd.alltoall_bytes_each, 0);
}

}  // namespace
}  // namespace soi
