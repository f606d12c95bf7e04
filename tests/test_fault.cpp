// Resilience tests: fault-spec parsing, deterministic injection, CRC32C,
// transport recovery (retransmit/dedup/timeout), the chaos sweep asserting
// faulty runs are bit-identical to fault-free ones, typed-error surfacing
// when recovery is disabled, the kappa-scaled residual guard, input
// validation, graceful degradation, and the SOI_CHECK error paths of
// soi/params.cpp and soi/dist.cpp.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <mutex>
#include <span>
#include <string>

#include "baseline/sixstep.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "net/comm.hpp"
#include "net/erasure.hpp"
#include "net/fault.hpp"
#include "soi/dist.hpp"
#include "soi/exec.hpp"
#include "soi/serial.hpp"
#include "window/design.hpp"

namespace soi {
namespace {

using net::FaultKind;
using net::FaultSpec;

const win::SoiProfile& full_profile() {
  static const win::SoiProfile p = win::make_profile(win::Accuracy::kFull);
  return p;
}

cvec random_signal(std::int64_t n, std::uint64_t seed) {
  cvec x(static_cast<std::size_t>(n));
  fill_gaussian(x, seed);
  return x;
}

/// Run the distributed SOI forward under `nopts`/`dopts` and reassemble
/// the global result. Throws whatever a rank body throws. `stats_out` is
/// world-global (rank 0's post-barrier snapshot covers everyone);
/// `degraded_out` ORs across ranks and `coded_out` sums each rank's
/// plan-local coded counters, because parity reconstruction is
/// receive-side per-rank work.
cvec run_dist(std::int64_t n, int p, const cvec& x,
              const net::NetOptions& nopts, core::DistOptions dopts,
              net::FaultStats* stats_out = nullptr,
              bool* degraded_out = nullptr,
              net::CodedStats* coded_out = nullptr) {
  const std::int64_t m = n / p;
  cvec y(static_cast<std::size_t>(n));
  std::mutex mu;
  if (degraded_out != nullptr) *degraded_out = false;
  if (coded_out != nullptr) *coded_out = net::CodedStats{};
  net::run_ranks(p, nopts, [&](net::Comm& comm) {
    core::SoiFftDist plan(comm, n, full_profile(), dopts);
    const std::int64_t base = comm.rank() * m;
    cvec y_local(static_cast<std::size_t>(m));
    plan.forward(cspan{x.data() + base, static_cast<std::size_t>(m)},
                 y_local);
    comm.barrier();  // all ranks done before anyone reads fault stats
    std::lock_guard<std::mutex> lock(mu);
    std::copy(y_local.begin(), y_local.end(), y.begin() + base);
    if (comm.rank() == 0 && stats_out != nullptr) {
      *stats_out = comm.fault_stats();
    }
    if (degraded_out != nullptr && plan.degraded()) {
      *degraded_out = true;
    }
    if (coded_out != nullptr) {
      const net::CodedStats cs = plan.coded_stats();
      coded_out->codewords += cs.codewords;
      coded_out->recovered_chunks += cs.recovered_chunks;
      coded_out->parity_bytes += cs.parity_bytes;
      coded_out->coded_fallbacks += cs.coded_fallbacks;
    }
  });
  return y;
}

// --- FaultSpec parsing -------------------------------------------------------

TEST(FaultSpec, EmptyTextIsInactive) {
  const FaultSpec spec = FaultSpec::parse("");
  EXPECT_FALSE(spec.any());
  EXPECT_TRUE(spec.rules.empty());
}

TEST(FaultSpec, ParsesSeedKindsAndStall) {
  const FaultSpec spec =
      FaultSpec::parse("42:drop:0.1,corrupt:0.05,stall:2:35");
  EXPECT_TRUE(spec.any());
  EXPECT_EQ(spec.seed, 42u);
  ASSERT_EQ(spec.rules.size(), 2u);
  EXPECT_EQ(spec.rules[0].kind, FaultKind::kDrop);
  EXPECT_DOUBLE_EQ(spec.rules[0].rate, 0.1);
  EXPECT_EQ(spec.rules[1].kind, FaultKind::kCorrupt);
  EXPECT_DOUBLE_EQ(spec.rules[1].rate, 0.05);
  EXPECT_EQ(spec.stall_rank, 2);
  EXPECT_DOUBLE_EQ(spec.stall_ms, 35.0);
}

TEST(FaultSpec, ParsesStragglerKind) {
  const FaultSpec spec = FaultSpec::parse("5:straggler:0.15,drop:0.02");
  EXPECT_TRUE(spec.any());
  EXPECT_EQ(spec.seed, 5u);
  ASSERT_EQ(spec.rules.size(), 2u);
  EXPECT_EQ(spec.rules[0].kind, FaultKind::kStraggler);
  EXPECT_DOUBLE_EQ(spec.rules[0].rate, 0.15);
  EXPECT_EQ(spec.rules[1].kind, FaultKind::kDrop);
  EXPECT_STREQ(net::fault_kind_name(FaultKind::kStraggler), "straggler");
}

TEST(FaultSpec, StrRoundTrips) {
  for (const char* text :
       {"7:delay:0.25", "3:drop:0.01,duplicate:1",
        "11:truncate:0.5,stall:0:12.5", "9:stall:1:20",
        "5:straggler:0.15", "2:straggler:0.1,corrupt:0.05,stall:1:10"}) {
    const FaultSpec a = FaultSpec::parse(text);
    const FaultSpec b = FaultSpec::parse(a.str());
    EXPECT_EQ(a.str(), b.str()) << "spec '" << text << "'";
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.rules.size(), b.rules.size());
    EXPECT_EQ(a.stall_rank, b.stall_rank);
  }
}

TEST(FaultSpec, RejectsMalformedSpecs) {
  for (const char* bad :
       {"drop:0.1",          // missing seed
        "x:drop:0.1",        // non-numeric seed
        "-1:drop:0.1",       // negative seed
        "1:drop",            // missing rate
        "1:drop:nope",       // non-numeric rate
        "1:drop:1.5",        // rate out of [0, 1]
        "1:drop:-0.1",       // rate out of [0, 1]
        "1:frobnicate:0.5",  // unknown kind
        "1:stall:0",         // stall needs rank and ms
        "1:stall:0:-5",      // negative stall ms
        "1:straggler",       // straggler needs a rate
        "1:straggler:1.01",  // straggler rate out of [0, 1]
        "1:straggler:0:5",   // straggler takes no extra field
        "1:drop:0.1,"})  {   // trailing empty entry
    EXPECT_THROW((void)FaultSpec::parse(bad), Error) << "spec '" << bad
                                                     << "'";
  }
}

// --- deterministic injection -------------------------------------------------

TEST(FaultInjector, DecisionsAreDeterministicInSeedAndCoordinates) {
  const FaultSpec spec = FaultSpec::parse("5:drop:0.3,corrupt:0.3");
  const net::FaultInjector a(spec);
  const net::FaultInjector b(spec);
  for (std::uint64_t seq = 1; seq <= 200; ++seq) {
    const auto x = a.decide(0, 1, 7, seq, 64);
    const auto y = b.decide(0, 1, 7, seq, 64);
    EXPECT_EQ(x.drop, y.drop);
    EXPECT_EQ(x.corrupt_bit, y.corrupt_bit);
    EXPECT_EQ(x.truncate, y.truncate);
    EXPECT_EQ(x.duplicate, y.duplicate);
    EXPECT_EQ(x.delay, y.delay);
  }
}

TEST(FaultInjector, RateZeroNeverFiresRateOneAlwaysFires) {
  const net::FaultInjector never(FaultSpec::parse("9:drop:0"));
  const net::FaultInjector always(FaultSpec::parse("9:drop:1"));
  for (std::uint64_t seq = 1; seq <= 100; ++seq) {
    EXPECT_FALSE(never.decide(1, 0, 3, seq, 16).fired());
    EXPECT_TRUE(always.decide(1, 0, 3, seq, 16).drop);
  }
}

TEST(FaultInjector, DifferentSeedsGiveDifferentDecisions) {
  const net::FaultInjector a(FaultSpec::parse("1:drop:0.5"));
  const net::FaultInjector b(FaultSpec::parse("2:drop:0.5"));
  int differing = 0;
  for (std::uint64_t seq = 1; seq <= 200; ++seq) {
    if (a.decide(0, 1, 7, seq, 64).drop != b.decide(0, 1, 7, seq, 64).drop) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 20);
}

TEST(FaultInjector, StragglerDrawsDeterministicBoundedHeavyTailed) {
  const net::FaultInjector a(FaultSpec::parse("7:straggler:1"));
  const net::FaultInjector b(FaultSpec::parse("7:straggler:1"));
  double lo = std::numeric_limits<double>::infinity();
  double hi = 0.0;
  for (std::uint64_t seq = 1; seq <= 500; ++seq) {
    const auto x = a.decide(0, 1, 9, seq, 256);
    const auto y = b.decide(0, 1, 9, seq, 256);
    EXPECT_DOUBLE_EQ(x.straggle_ms, y.straggle_ms);
    EXPECT_TRUE(x.fired());
    // The Pareto draw is clamped to [0.05, 200] ms so a single straggler
    // can never outlive the bounded-deadline machinery entirely.
    EXPECT_GE(x.straggle_ms, 0.05);
    EXPECT_LE(x.straggle_ms, 200.0);
    lo = std::min(lo, x.straggle_ms);
    hi = std::max(hi, x.straggle_ms);
  }
  // Heavy tail: across 500 draws the extremes span orders of magnitude —
  // a fixed-delay rule (like stall) could never produce this spread.
  EXPECT_LT(lo, 1.0);
  EXPECT_GT(hi, 5.0);
}

// --- CRC32C ------------------------------------------------------------------

TEST(Crc32, MatchesCastagnoliCheckValue) {
  // The standard CRC32C check value for the ASCII string "123456789".
  EXPECT_EQ(net::crc32("123456789", 9), 0xe3069283u);
  EXPECT_EQ(net::crc32(nullptr, 0), 0u);
}

TEST(Crc32, DetectsEverySingleBitFlipInASmallBuffer) {
  unsigned char buf[24];
  for (std::size_t i = 0; i < sizeof(buf); ++i) {
    buf[i] = static_cast<unsigned char>(i * 37 + 1);
  }
  const std::uint32_t clean = net::crc32(buf, sizeof(buf));
  for (std::size_t bit = 0; bit < sizeof(buf) * 8; ++bit) {
    buf[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
    EXPECT_NE(net::crc32(buf, sizeof(buf)), clean) << "bit " << bit;
    buf[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
  }
}

// --- transport recovery ------------------------------------------------------

TEST(Transport, CorruptionIsDetectedAndRetransmitted) {
  net::NetOptions nopts;
  nopts.faults = FaultSpec::parse("21:corrupt:1");  // every message
  net::run_ranks(2, nopts, [](net::Comm& c) {
    if (c.rank() == 0) {
      cvec d = {cplx{1.5, -2.5}, cplx{3.0, 4.0}};
      c.send(1, 5, d);
    } else {
      cvec got(2);
      c.recv(0, 5, got);
      EXPECT_EQ(got[0], (cplx{1.5, -2.5}));
      EXPECT_EQ(got[1], (cplx{3.0, 4.0}));
      const net::FaultStats st = c.fault_stats();
      EXPECT_GE(st.corruptions, 1);
      EXPECT_GE(st.checksum_failures, 1);
      EXPECT_GE(st.retransmits, 1);
    }
  });
}

TEST(Transport, DropIsRecoveredFromRetainedCopy) {
  net::NetOptions nopts;
  nopts.faults = FaultSpec::parse("4:drop:1");
  nopts.timeout_ms = 10;  // short deadline: the test waits it out
  net::run_ranks(2, nopts, [](net::Comm& c) {
    if (c.rank() == 0) {
      cvec d = {cplx{7.0, 8.0}};
      c.send(1, 3, d);
    } else {
      cvec got(1);
      c.recv(0, 3, got);
      EXPECT_EQ(got[0], (cplx{7.0, 8.0}));
      const net::FaultStats st = c.fault_stats();
      EXPECT_GE(st.drops, 1);
      EXPECT_GE(st.retransmits, 1);
      EXPECT_GE(st.timeouts, 1);
    }
  });
}

TEST(Transport, NonblockingDropRecoveryCountsTheTimeout) {
  // FaultStats::timeouts counts every expired deadline, also when the
  // retransmit at expiry recovers the message: irecv + wait must report
  // the same expiry as a blocking recv does.
  net::NetOptions nopts;
  nopts.faults = FaultSpec::parse("4:drop:1");
  nopts.timeout_ms = 10;
  net::run_ranks(2, nopts, [](net::Comm& c) {
    if (c.rank() == 0) {
      cvec d = {cplx{7.0, 8.0}};
      c.send(1, 3, d);
    } else {
      cvec got(1);
      net::Request rq = c.irecv(0, 3, got);
      c.wait(rq);
      EXPECT_EQ(got[0], (cplx{7.0, 8.0}));
      const net::FaultStats st = c.fault_stats();
      EXPECT_GE(st.drops, 1);
      EXPECT_GE(st.retransmits, 1);
      EXPECT_GE(st.timeouts, 1);
    }
  });
}

TEST(Transport, DuplicatesAreDeliveredExactlyOnce) {
  net::NetOptions nopts;
  nopts.faults = FaultSpec::parse("6:duplicate:1");
  net::run_ranks(2, nopts, [](net::Comm& c) {
    const int kCount = 20;
    if (c.rank() == 0) {
      for (int i = 0; i < kCount; ++i) {
        cvec d = {cplx{static_cast<double>(i), 0.0}};
        c.send(1, 2, d);
      }
    } else {
      for (int i = 0; i < kCount; ++i) {
        cvec got(1);
        c.recv(0, 2, got);
        // FIFO and exactly-once: duplicates must not shift the stream.
        EXPECT_EQ(got[0], (cplx{static_cast<double>(i), 0.0})) << i;
      }
      EXPECT_GE(c.fault_stats().duplicates, kCount);
    }
  });
}

TEST(Transport, CorruptionThrowsTypedErrorWhenRecoveryDisabled) {
  net::NetOptions nopts;
  nopts.faults = FaultSpec::parse("21:corrupt:1");
  nopts.max_retries = 0;
  EXPECT_THROW(net::run_ranks(2, nopts,
                              [](net::Comm& c) {
                                if (c.rank() == 0) {
                                  cvec d = {cplx{1.0, 2.0}};
                                  c.send(1, 5, d);
                                } else {
                                  cvec got(1);
                                  c.recv(0, 5, got);
                                }
                              }),
               PayloadCorruptionError);
}

TEST(Transport, TruncationThrowsTypedErrorWhenRecoveryDisabled) {
  net::NetOptions nopts;
  nopts.faults = FaultSpec::parse("8:truncate:1");
  nopts.max_retries = 0;
  EXPECT_THROW(net::run_ranks(2, nopts,
                              [](net::Comm& c) {
                                if (c.rank() == 0) {
                                  cvec d = {cplx{1.0, 2.0}, cplx{3.0, 4.0}};
                                  c.send(1, 5, d);
                                } else {
                                  cvec got(2);
                                  c.recv(0, 5, got);
                                }
                              }),
               PayloadCorruptionError);
}

TEST(Transport, SilentPeerTimesOutWithTypedError) {
  net::NetOptions nopts;
  nopts.timeout_ms = 5;
  nopts.max_retries = 2;
  EXPECT_THROW(net::run_ranks(2, nopts,
                              [](net::Comm& c) {
                                if (c.rank() == 1) {
                                  cvec got(1);
                                  c.recv(0, 4, got);  // rank 0 never sends
                                }
                              }),
               CommTimeoutError);
}

TEST(Transport, StalledRankDelaysButCompletes) {
  net::NetOptions nopts;
  nopts.faults = FaultSpec::parse("1:stall:0:30");
  net::run_ranks(2, nopts, [](net::Comm& c) {
    if (c.rank() == 0) {
      cvec d = {cplx{9.0, 9.0}};
      c.send(1, 1, d);  // sleeps ~30 ms before delivering
    } else {
      cvec got(1);
      c.recv(0, 1, got);
      EXPECT_EQ(got[0], (cplx{9.0, 9.0}));
    }
  });
}

TEST(Transport, StragglersArriveLateButIntactWithoutRetransmit) {
  net::NetOptions nopts;
  nopts.faults = FaultSpec::parse("3:straggler:1");  // every message lags
  nopts.timeout_ms = 250;  // above the 200 ms straggle clamp
  net::run_ranks(2, nopts, [](net::Comm& c) {
    const int kCount = 3;
    if (c.rank() == 0) {
      for (int i = 0; i < kCount; ++i) {
        cvec d = {cplx{static_cast<double>(i), -1.0}};
        c.send(1, 6, d);
      }
    } else {
      for (int i = 0; i < kCount; ++i) {
        cvec got(1);
        c.recv(0, 6, got);
        EXPECT_EQ(got[0], (cplx{static_cast<double>(i), -1.0})) << i;
      }
      const net::FaultStats st = c.fault_stats();
      EXPECT_GE(st.stragglers, kCount);
      // Late but intact and inside the deadline: the payload arrives
      // unmodified and no recovery machinery fires.
      EXPECT_EQ(st.retransmits, 0);
      EXPECT_EQ(st.checksum_failures, 0);
    }
  });
}

TEST(Transport, ErrorTaxonomyCarriesStatusCodes) {
  EXPECT_EQ(CommTimeoutError("t").status(), Status::kCommTimeout);
  EXPECT_EQ(PayloadCorruptionError("p").status(),
            Status::kPayloadCorruption);
  EXPECT_EQ(AccuracyFaultError("a").status(), Status::kAccuracyFault);
  EXPECT_EQ(InvalidArgumentError("i").status(), Status::kInvalidArgument);
  EXPECT_EQ(Error("e").status(), Status::kInvalidArgument);
  EXPECT_STREQ(status_name(Status::kOk), "Ok");
  EXPECT_STREQ(status_name(Status::kCommTimeout), "CommTimeout");
  EXPECT_STREQ(status_name(Status::kPayloadCorruption),
               "PayloadCorruption");
  EXPECT_STREQ(status_name(Status::kAccuracyFault), "AccuracyFault");
  EXPECT_STREQ(status_name(Status::kInvalidArgument), "InvalidArgument");
}

// --- chaos sweep -------------------------------------------------------------
//
// The acceptance gate: with the injector active and retries enabled, the
// distributed forward output is BIT-identical to the fault-free run for
// every tested seed and fault kind; recovery must reconstruct the exact
// payload bytes, not merely something numerically close.

class ChaosSweep : public ::testing::TestWithParam<int> {};

TEST_P(ChaosSweep, EveryKindBitIdenticalToFaultFreeRun) {
  const int seed = GetParam();
  const std::int64_t n = 8192;
  const int p = 4;
  const cvec x = random_signal(n, 900 + static_cast<std::uint64_t>(seed));
  const cvec clean = run_dist(n, p, x, net::NetOptions{}, {});
  for (const char* kind : {"drop", "corrupt", "delay", "duplicate"}) {
    net::NetOptions nopts;
    nopts.faults = FaultSpec::parse(std::to_string(seed) + ":" +
                                    std::string(kind) + ":0.05");
    nopts.timeout_ms = 20;
    net::FaultStats stats{};
    const cvec got = run_dist(n, p, x, nopts, {}, &stats);
    ASSERT_EQ(got.size(), clean.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(std::memcmp(&got[i], &clean[i], sizeof(cplx)), 0)
          << "seed " << seed << " kind " << kind << " bin " << i;
    }
  }
}

TEST_P(ChaosSweep, MixedFaultsLargerShapeBitIdentical) {
  const int seed = GetParam();
  const std::int64_t n = 16384;
  const int p = 8;
  const cvec x = random_signal(n, 1700 + static_cast<std::uint64_t>(seed));
  const cvec clean = run_dist(n, p, x, net::NetOptions{}, {});
  net::NetOptions nopts;
  nopts.faults = FaultSpec::parse(
      std::to_string(seed) +
      ":drop:0.02,corrupt:0.02,delay:0.02,duplicate:0.02");
  nopts.timeout_ms = 20;
  net::FaultStats stats{};
  const cvec got = run_dist(n, p, x, nopts, {}, &stats);
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::memcmp(&got[i], &clean[i], sizeof(cplx)), 0)
        << "seed " << seed << " bin " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(Chaos, ChecksumFlagsEveryInjectedCorruption) {
  const std::int64_t n = 8192;
  const int p = 4;
  const cvec x = random_signal(n, 33);
  net::NetOptions nopts;
  nopts.faults = FaultSpec::parse("13:corrupt:1");  // corrupt every message
  nopts.timeout_ms = 20;
  net::FaultStats stats{};
  const cvec clean = run_dist(n, p, x, net::NetOptions{}, {});
  const cvec got = run_dist(n, p, x, nopts, {}, &stats);
  EXPECT_GT(stats.corruptions, 0);
  // 100% detection: every injected corruption tripped the checksum.
  EXPECT_EQ(stats.checksum_failures, stats.corruptions);
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::memcmp(&got[i], &clean[i], sizeof(cplx)), 0) << i;
  }
}

TEST(Chaos, RetriesDisabledSurfacesTypedErrorNotHang) {
  const std::int64_t n = 8192;
  const int p = 4;
  const cvec x = random_signal(n, 34);
  net::NetOptions nopts;
  nopts.faults = FaultSpec::parse("2:corrupt:1");
  nopts.timeout_ms = 20;
  nopts.max_retries = 0;
  try {
    (void)run_dist(n, p, x, nopts, {});
    FAIL() << "expected a typed resilience error";
  } catch (const Error& e) {
    EXPECT_TRUE(e.status() == Status::kPayloadCorruption ||
                e.status() == Status::kCommTimeout)
        << "status " << status_name(e.status());
  }
}

TEST(Chaos, StagedTopologiesBitIdenticalToFaultFreeFlat) {
  // The staged two-level and torus exchanges route every block across two
  // (or more) hops; each hop runs the same CRC32C-verified retransmit
  // transport, so a chaos run under either schedule must still reproduce
  // the fault-free FLAT pipeline bit for bit.
  const std::int64_t n = 16384;
  const int p = 4;
  const cvec x = random_signal(n, 3100);
  const cvec clean = run_dist(n, p, x, net::NetOptions{}, {});
  for (const char* topo : {"two-level:2", "torus:2x2x1"}) {
    for (const int seed : {11, 29}) {
      core::DistOptions dopts;
      dopts.topology = topo;
      net::NetOptions nopts;
      nopts.faults = FaultSpec::parse(
          std::to_string(seed) +
          ":drop:0.03,corrupt:0.03,duplicate:0.02,delay:0.02");
      nopts.timeout_ms = 20;
      net::FaultStats stats{};
      const cvec got = run_dist(n, p, x, nopts, dopts, &stats);
      EXPECT_GT(stats.faults_injected, 0) << topo << " seed " << seed;
      ASSERT_EQ(got.size(), clean.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(std::memcmp(&got[i], &clean[i], sizeof(cplx)), 0)
            << "topo " << topo << " seed " << seed << " bin " << i;
      }
    }
  }
}

TEST(Chaos, PipelinedDeepChunkStagedExchangeRecovers) {
  // Chunked pipelined schedule on top of a staged topology: each chunk
  // group runs its own multi-hop exchange concurrently with downstream
  // compute, and every hop of every group must recover independently.
  const std::int64_t n = 16384;
  const int p = 4;
  const cvec x = random_signal(n, 3200);
  core::DistOptions base;
  base.segments_per_rank = 2;
  base.overlap = true;
  base.chunk_depth = 2;
  const cvec clean = run_dist(n, p, x, net::NetOptions{}, base);
  for (const char* topo : {"two-level:2", "torus:2x2x1"}) {
    core::DistOptions dopts = base;
    dopts.topology = topo;
    net::NetOptions nopts;
    nopts.faults =
        FaultSpec::parse("41:drop:0.03,corrupt:0.03,duplicate:0.02");
    nopts.timeout_ms = 20;
    net::FaultStats stats{};
    const cvec got = run_dist(n, p, x, nopts, dopts, &stats);
    EXPECT_GT(stats.faults_injected, 0) << topo;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(std::memcmp(&got[i], &clean[i], sizeof(cplx)), 0)
          << "topo " << topo << " bin " << i;
    }
  }
}

TEST(Chaos, StragglersDelayButOutputBitIdentical) {
  // Heavy-tailed per-message latency with a deadline above the 200 ms
  // straggle clamp: every message eventually shows up intact, so the run
  // must finish bit-identically with ZERO recovery actions — stragglers
  // cost time, not correctness.
  const std::int64_t n = 8192;
  const int p = 4;
  const cvec x = random_signal(n, 3300);
  const cvec clean = run_dist(n, p, x, net::NetOptions{}, {});
  net::NetOptions nopts;
  nopts.faults = FaultSpec::parse("17:straggler:0.05");
  nopts.timeout_ms = 250;
  net::FaultStats stats{};
  const cvec got = run_dist(n, p, x, nopts, {}, &stats);
  EXPECT_GT(stats.stragglers, 0);
  EXPECT_EQ(stats.retransmits, 0);
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::memcmp(&got[i], &clean[i], sizeof(cplx)), 0) << i;
  }
}

// --- coded exchange chaos ----------------------------------------------------
//
// The erasure-coded all-to-all must satisfy a stronger contract than the
// retransmit path: losses within the parity budget are absorbed IN BAND
// (zero retransmit round trips, zero extra deadline waits), and only
// losses beyond it fall back to the CRC/retransmit machinery — in every
// case the output stays bit-identical to the uncoded fault-free run.

net::Coding coding_or_die(const char* text) {
  net::Coding c;
  EXPECT_TRUE(net::Coding::parse(text, &c)) << text;
  return c;
}

TEST(ChaosCoded, DropsWithinParityBudgetRecoverWithoutRetransmit) {
  const std::int64_t n = 8192;
  const int p = 4;
  const cvec x = random_signal(n, 4100);
  const cvec clean = run_dist(n, p, x, net::NetOptions{}, {});
  core::DistOptions dopts;
  dopts.coding = coding_or_die("2+1");
  net::NetOptions nopts;
  nopts.faults = FaultSpec::parse("19:drop:0.03");
  nopts.timeout_ms = 20;
  net::FaultStats stats{};
  bool degraded = false;
  net::CodedStats coded{};
  const cvec got = run_dist(n, p, x, nopts, dopts, &stats, &degraded,
                            &coded);
  EXPECT_GT(stats.faults_injected, 0);
  EXPECT_GT(coded.codewords, 0u);
  EXPECT_GT(coded.parity_bytes, 0u);
  // Every dropped shard was rebuilt from parity at the receiver: no
  // retransmit round trip, no fallback, and the plan never degrades.
  EXPECT_GT(coded.recovered_chunks, 0u);
  EXPECT_EQ(coded.coded_fallbacks, 0u);
  EXPECT_EQ(stats.retransmits, 0);
  EXPECT_FALSE(degraded);
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::memcmp(&got[i], &clean[i], sizeof(cplx)), 0) << i;
  }
}

TEST(ChaosCoded, CorruptShardsAreErasuresNotRetransmitTriggers) {
  // A corrupt coded shard fails the CRC and is discarded as an ERASURE:
  // the codec rebuilds it from parity instead of requesting the retained
  // clean copy, so checksum failures rise while retransmits stay at zero.
  const std::int64_t n = 8192;
  const int p = 4;
  const cvec x = random_signal(n, 4200);
  const cvec clean = run_dist(n, p, x, net::NetOptions{}, {});
  core::DistOptions dopts;
  dopts.coding = coding_or_die("2+1");
  net::NetOptions nopts;
  nopts.faults = FaultSpec::parse("18:corrupt:0.03");
  nopts.timeout_ms = 20;
  net::FaultStats stats{};
  bool degraded = false;
  net::CodedStats coded{};
  const cvec got = run_dist(n, p, x, nopts, dopts, &stats, &degraded,
                            &coded);
  EXPECT_GT(stats.corruptions, 0);
  EXPECT_GT(stats.checksum_failures, 0);
  EXPECT_GT(coded.recovered_chunks, 0u);
  EXPECT_EQ(coded.coded_fallbacks, 0u);
  EXPECT_EQ(stats.retransmits, 0);
  EXPECT_FALSE(degraded);
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::memcmp(&got[i], &clean[i], sizeof(cplx)), 0) << i;
  }
}

TEST(ChaosCoded, StragglingShardsAbandonedOnceKArrive) {
  // A coded receiver reconstructs as soon as ANY k shards land — a
  // straggling shard is simply never waited for. Rate 1 straggles EVERY
  // shard with an independent heavy-tailed delay, so plenty of codewords
  // see their parity land while a data shard is still in flight; with the
  // deadline above the straggle clamp nothing times out, yet recoveries
  // still happen: the codeword completes from the k prompt shards. Seed
  // pinned to one whose delay spread keeps the race comfortably open even
  // under sanitizer slowdown.
  const std::int64_t n = 8192;
  const int p = 4;
  const cvec x = random_signal(n, 4300);
  const cvec clean = run_dist(n, p, x, net::NetOptions{}, {});
  core::DistOptions dopts;
  dopts.coding = coding_or_die("2+1");
  net::NetOptions nopts;
  nopts.faults = FaultSpec::parse("13:straggler:1");
  nopts.timeout_ms = 250;
  net::FaultStats stats{};
  bool degraded = false;
  net::CodedStats coded{};
  const cvec got = run_dist(n, p, x, nopts, dopts, &stats, &degraded,
                            &coded);
  EXPECT_GT(stats.stragglers, 0);
  EXPECT_GT(coded.recovered_chunks, 0u);
  EXPECT_EQ(coded.coded_fallbacks, 0u);
  EXPECT_EQ(stats.retransmits, 0);
  EXPECT_FALSE(degraded);
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::memcmp(&got[i], &clean[i], sizeof(cplx)), 0) << i;
  }
}

TEST(ChaosCoded, LossesBeyondParityBudgetFallBackAndDegrade) {
  // Hammer the wire far past what r=1 can absorb: codewords that lose
  // more than one shard take the retransmit fallback, which bumps the
  // record's retry counter and degrades the plan — but the output is
  // still bit-identical because the fallback drains the retained copies.
  const std::int64_t n = 8192;
  const int p = 4;
  const cvec x = random_signal(n, 4400);
  const cvec clean = run_dist(n, p, x, net::NetOptions{}, {});
  core::DistOptions dopts;
  dopts.coding = coding_or_die("2+1");
  net::NetOptions nopts;
  nopts.faults = FaultSpec::parse("7:drop:0.4");
  nopts.timeout_ms = 20;
  net::FaultStats stats{};
  bool degraded = false;
  net::CodedStats coded{};
  const cvec got = run_dist(n, p, x, nopts, dopts, &stats, &degraded,
                            &coded);
  EXPECT_GT(coded.coded_fallbacks, 0u);
  EXPECT_GT(stats.retransmits, 0);
  EXPECT_TRUE(degraded);
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::memcmp(&got[i], &clean[i], sizeof(cplx)), 0) << i;
  }
}

TEST(ChaosCoded, StagedTopologiesRecoverUnderMixedLoss) {
  // Coded staged exchange: every hop of the two-level and torus schedules
  // frames its blocks into codewords, so per-hop losses are absorbed by
  // parity hop-locally. Reed-Solomon r=2 here for codec coverage beyond
  // the XOR fast path.
  const std::int64_t n = 16384;
  const int p = 4;
  const cvec x = random_signal(n, 4500);
  const cvec clean = run_dist(n, p, x, net::NetOptions{}, {});
  for (const char* topo : {"two-level:2", "torus:2x2x1"}) {
    core::DistOptions dopts;
    dopts.topology = topo;
    dopts.coding = coding_or_die("2+2");
    net::NetOptions nopts;
    nopts.faults = FaultSpec::parse("11:drop:0.04,corrupt:0.03");
    nopts.timeout_ms = 20;
    net::FaultStats stats{};
    net::CodedStats coded{};
    const cvec got =
        run_dist(n, p, x, nopts, dopts, &stats, nullptr, &coded);
    EXPECT_GT(stats.faults_injected, 0) << topo;
    EXPECT_GT(coded.codewords, 0u) << topo;
    EXPECT_GT(coded.recovered_chunks, 0u) << topo;
    ASSERT_EQ(got.size(), clean.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(std::memcmp(&got[i], &clean[i], sizeof(cplx)), 0)
          << "topo " << topo << " bin " << i;
    }
  }
}

TEST(ChaosCoded, PipelinedDeepChunksRecoverPerGroup) {
  // Chunked pipelined schedule with coding on: each in-flight chunk
  // group frames its own codewords, and groups recover independently
  // while downstream compute overlaps.
  const std::int64_t n = 16384;
  const int p = 4;
  const cvec x = random_signal(n, 4600);
  core::DistOptions base;
  base.segments_per_rank = 2;
  base.overlap = true;
  base.chunk_depth = 2;
  const cvec clean = run_dist(n, p, x, net::NetOptions{}, base);
  core::DistOptions dopts = base;
  dopts.coding = coding_or_die("4+1");
  net::NetOptions nopts;
  nopts.faults = FaultSpec::parse("19:drop:0.03,corrupt:0.02");
  nopts.timeout_ms = 20;
  net::FaultStats stats{};
  net::CodedStats coded{};
  const cvec got = run_dist(n, p, x, nopts, dopts, &stats, nullptr, &coded);
  EXPECT_GT(stats.faults_injected, 0);
  EXPECT_GT(coded.codewords, 0u);
  EXPECT_GT(coded.recovered_chunks, 0u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::memcmp(&got[i], &clean[i], sizeof(cplx)), 0) << i;
  }
}

// --- mixed-shape epoch chaos -------------------------------------------------

TEST(Chaos, MixedShapeEpochFaultsStayIsolatedPerMember) {
  // Two plans of DIFFERENT shapes share one faulty transport and their
  // chunk graphs are composed into ONE epoch (exec::run_epoch) — the
  // serving layer's mixed-shape packing. Injected drop/corrupt/delay
  // faults must be recovered member-locally: every member's output stays
  // bit-identical to its fault-free solo forward(), so one request's
  // retries (and any degraded fallback its plan takes afterwards) never
  // perturb a co-scheduled request's bits or completion.
  const std::int64_t n0 = 8192;
  const std::int64_t n1 = 16384;
  const int p = 4;
  const cvec x0 = random_signal(n0, 5100);
  const cvec x1 = random_signal(n1, 5101);
  core::DistOptions dopts;
  dopts.segments_per_rank = 2;
  dopts.overlap = true;
  dopts.chunk_depth = 2;
  const cvec clean0 = run_dist(n0, p, x0, net::NetOptions{}, dopts);
  const cvec clean1 = run_dist(n1, p, x1, net::NetOptions{}, dopts);
  for (const char* kind : {"drop", "corrupt", "delay"}) {
    net::NetOptions nopts;
    nopts.faults = FaultSpec::parse("23:" + std::string(kind) + ":0.05");
    nopts.timeout_ms = 20;
    cvec y0(static_cast<std::size_t>(n0));
    cvec y1(static_cast<std::size_t>(n1));
    net::FaultStats stats{};
    std::mutex mu;
    net::run_ranks(p, nopts, [&](net::Comm& comm) {
      core::SoiFftDist plan0(comm, n0, full_profile(), dopts);
      core::SoiFftDist plan1(comm, n1, full_profile(), dopts);
      exec::RunScratch scratch;
      exec::bind_epoch_scratch(scratch,
                               plan0.node_count() + plan1.node_count(), 2);
      const std::int64_t m0 = n0 / p;
      const std::int64_t m1 = n1 / p;
      const std::int64_t b0 = comm.rank() * m0;
      const std::int64_t b1 = comm.rank() * m1;
      cvec y0l(static_cast<std::size_t>(m0));
      cvec y1l(static_cast<std::size_t>(m1));
      std::array<exec::EpochMemberT<double>, 2> members;
      plan0.bind_epoch_member(members[0], 0, 0,
                              cspan{x0.data() + b0,
                                    static_cast<std::size_t>(m0)},
                              y0l);
      plan1.bind_epoch_member(members[1], 0, 1,
                              cspan{x1.data() + b1,
                                    static_cast<std::size_t>(m1)},
                              y1l);
      members[0].tier = 0;  // interactive small member...
      members[1].tier = 2;  // ...co-scheduled with a background large one
      exec::run_epoch(std::span<const exec::EpochMemberT<double>>(
                          members.data(), members.size()),
                      scratch);
      plan0.finish_epoch(1);
      plan1.finish_epoch(1);
      comm.barrier();
      std::lock_guard<std::mutex> lock(mu);
      std::copy(y0l.begin(), y0l.end(), y0.begin() + b0);
      std::copy(y1l.begin(), y1l.end(), y1.begin() + b1);
      if (comm.rank() == 0) stats = comm.fault_stats();
    });
    EXPECT_GT(stats.faults_injected, 0) << kind;
    for (std::size_t i = 0; i < y0.size(); ++i) {
      ASSERT_EQ(std::memcmp(&y0[i], &clean0[i], sizeof(cplx)), 0)
          << "kind " << kind << " member 0 bin " << i;
    }
    for (std::size_t i = 0; i < y1.size(); ++i) {
      ASSERT_EQ(std::memcmp(&y1[i], &clean1[i], sizeof(cplx)), 0)
          << "kind " << kind << " member 1 bin " << i;
    }
  }
}

// --- residual guard ----------------------------------------------------------

TEST(ResidualGuard, FlagsSilentCorruptionWhenChecksumsAreOff) {
  // Disable checksums so a bit-flip sails through the transport; the
  // kappa-scaled Parseval gate (active because an injector is installed)
  // must reject the poisoned output instead of returning garbage.
  const std::int64_t n = 8192;
  const int p = 4;
  const cvec x = random_signal(n, 35);
  bool caught_any = false;
  for (int seed = 1; seed <= 6 && !caught_any; ++seed) {
    net::NetOptions nopts;
    nopts.faults =
        FaultSpec::parse(std::to_string(seed) + ":corrupt:1");
    nopts.checksums = false;
    try {
      (void)run_dist(n, p, x, nopts, {});
    } catch (const AccuracyFaultError&) {
      caught_any = true;
    }
  }
  EXPECT_TRUE(caught_any)
      << "no corrupted run tripped the residual guard";
}

TEST(ResidualGuard, CleanRunPassesWithInjectorInstalled) {
  const std::int64_t n = 8192;
  const int p = 4;
  const cvec x = random_signal(n, 36);
  net::NetOptions nopts;
  nopts.faults = FaultSpec::parse("3:drop:0");  // installed but inert
  const cvec clean = run_dist(n, p, x, net::NetOptions{}, {});
  const cvec got = run_dist(n, p, x, nopts, {});  // guard's global tier on
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::memcmp(&got[i], &clean[i], sizeof(cplx)), 0) << i;
  }
}

// --- input validation --------------------------------------------------------

TEST(ValidateInput, SerialRejectsNaN) {
  core::SoiFftSerial plan(4096, 4, full_profile());
  plan.set_validate_input(true);
  cvec x = random_signal(4096, 40);
  x[123] = cplx{std::numeric_limits<double>::quiet_NaN(), 0.0};
  cvec y(x.size());
  EXPECT_THROW(plan.forward(x, y), InvalidArgumentError);
}

TEST(ValidateInput, SerialRejectsInf) {
  core::SoiFftSerial plan(4096, 4, full_profile());
  plan.set_validate_input(true);
  cvec x = random_signal(4096, 41);
  x[7] = cplx{0.0, std::numeric_limits<double>::infinity()};
  cvec y(x.size());
  EXPECT_THROW(plan.forward(x, y), InvalidArgumentError);
}

TEST(ValidateInput, SerialAcceptsFiniteWhenForcedOn) {
  core::SoiFftSerial plan(4096, 4, full_profile());
  plan.set_validate_input(true);
  const cvec x = random_signal(4096, 42);
  cvec y(x.size());
  EXPECT_NO_THROW(plan.forward(x, y));
}

TEST(ValidateInput, DistRejectsNaN) {
  const std::int64_t n = 8192;
  const int p = 4;
  cvec x = random_signal(n, 43);
  // Poison every rank's block: the pre-scan throws before any
  // communication, so all ranks must fail together (a single poisoned
  // rank would leave its neighbours waiting on a halo that never comes —
  // exactly the failure mode the pre-scan exists to prevent).
  for (int r = 0; r < p; ++r) {
    x[static_cast<std::size_t>(r) * static_cast<std::size_t>(n / p) + 17] =
        cplx{std::numeric_limits<double>::quiet_NaN(), 0.0};
  }
  core::DistOptions dopts;
  dopts.validate_input = 1;
  EXPECT_THROW((void)run_dist(n, p, x, net::NetOptions{}, dopts),
               InvalidArgumentError);
}

TEST(ValidateInput, FirstNonfiniteFindsIndexOrMinusOne) {
  cvec x = random_signal(64, 44);
  EXPECT_EQ(core::first_nonfinite<double>(cspan{x.data(), x.size()}), -1);
  x[13] = cplx{1.0, std::numeric_limits<double>::quiet_NaN()};
  EXPECT_EQ(core::first_nonfinite<double>(cspan{x.data(), x.size()}), 13);
}

// --- graceful degradation ----------------------------------------------------

TEST(Degradation, RetriesMarkThePlanDegradedAndOutputStaysCorrect) {
  const std::int64_t n = 8192;
  const int p = 4;
  const cvec x = random_signal(n, 50);
  const cvec clean = run_dist(n, p, x, net::NetOptions{}, {});
  const std::int64_t m = n / p;
  // Stall rank 1 for 40 ms before each of its sends while every bounded
  // wait has a 5 ms deadline: waits on rank 1's traffic deterministically
  // expire at least once, the retries mark those plans degraded, and the
  // next forward (fallen back to the in-order schedule) must still be
  // bit-identical.
  net::NetOptions nopts;
  nopts.faults = FaultSpec::parse("1:stall:1:40");
  nopts.timeout_ms = 5;
  cvec y(static_cast<std::size_t>(n));
  bool any_degraded = false;
  std::mutex mu;
  net::run_ranks(p, nopts, [&](net::Comm& comm) {
    core::DistOptions dopts;
    dopts.overlap = true;
    core::SoiFftDist plan(comm, n, full_profile(), dopts);
    const std::int64_t base = comm.rank() * m;
    const cspan xin{x.data() + base, static_cast<std::size_t>(m)};
    cvec y_local(static_cast<std::size_t>(m));
    plan.forward(xin, y_local);
    const bool first_degraded = plan.degraded();
    plan.forward(xin, y_local);  // degraded plans fall back to in-order
    comm.barrier();
    std::lock_guard<std::mutex> lock(mu);
    std::copy(y_local.begin(), y_local.end(), y.begin() + base);
    if (first_degraded) any_degraded = true;
  });
  for (std::size_t i = 0; i < y.size(); ++i) {
    ASSERT_EQ(std::memcmp(&y[i], &clean[i], sizeof(cplx)), 0) << "bin " << i;
  }
  EXPECT_TRUE(any_degraded) << "no stalled run ever recorded a retry";
}

// --- SOI_CHECK error paths (soi/params.cpp) ----------------------------------

void expect_throw_containing(const std::function<void()>& f,
                             const std::string& needle) {
  try {
    f();
    FAIL() << "expected soi::Error containing '" << needle << "'";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "message was: " << e.what();
  }
}

TEST(ErrorPathsParams, GeometryChecks) {
  const win::SoiProfile& prof = full_profile();

  expect_throw_containing(
      [&] { core::SoiGeometry g(0, 4, prof); (void)g; },
      "need n >= 1, p >= 1");
  expect_throw_containing(
      [&] { core::SoiGeometry g(4096, 0, prof); (void)g; },
      "need n >= 1, p >= 1");
  expect_throw_containing(
      [&] { core::SoiGeometry g(4097, 4, prof); (void)g; },
      "must divide N=");

  win::SoiProfile bad = prof;
  bad.mu = 3;
  bad.nu = 4;  // mu <= nu
  expect_throw_containing(
      [&] { core::SoiGeometry g(4096, 4, bad); (void)g; },
      "oversampling mu/nu must be > 1");

  bad = prof;
  bad.mu = 6;
  bad.nu = 4;  // reducible
  expect_throw_containing(
      [&] { core::SoiGeometry g(4096, 4, bad); (void)g; },
      "must be irreducible");

  bad = prof;
  bad.nu = 3;  // with mu=5: M=1024 not divisible by 3
  ASSERT_EQ(bad.mu, 5);
  expect_throw_containing(
      [&] { core::SoiGeometry g(4096, 4, bad); (void)g; },
      "must divide M=");

  // P=24, M=1020, nu=4 -> M'=1275, not divisible by P.
  expect_throw_containing(
      [&] { core::SoiGeometry g(24480, 24, prof); (void)g; },
      "must divide M'=");

  // P=5, M=12, M'=15, M'/P=3: mu=5 does not divide 3.
  expect_throw_containing(
      [&] { core::SoiGeometry g(60, 5, prof); (void)g; },
      "row groups must not straddle ranks");

  bad = prof;
  bad.taps = 0;
  expect_throw_containing(
      [&] { core::SoiGeometry g(4096, 4, bad); (void)g; },
      "profile has no taps");

  // Tiny N at full accuracy: M=16 passes every divisibility check but the
  // halo (B-nu)*P at B in the ~70s vastly exceeds it.
  expect_throw_containing(
      [&] { core::SoiGeometry g(64, 4, prof); (void)g; },
      "N too small for this window");
}

// --- SOI_CHECK error paths (soi/dist.cpp) ------------------------------------

TEST(ErrorPathsDist, ConstructorAndForwardChecks) {
  const std::int64_t n = 8192;
  const int p = 4;
  net::run_ranks(p, [n](net::Comm& comm) {
    core::DistOptions dopts;
    dopts.segments_per_rank = 0;
    // The geometry is built in the member-init list, so P = 0 trips its
    // own precondition before the plan's segments_per_rank check runs.
    expect_throw_containing(
        [&] {
          core::SoiFftDist plan(comm, n, full_profile(), dopts);
        },
        "p >= 1");

    dopts = {};
    dopts.chunk_depth = 0;
    expect_throw_containing(
        [&] {
          core::SoiFftDist plan(comm, n, full_profile(), dopts);
        },
        "chunk_depth must be >= 1");

    dopts = {};
    dopts.max_retries = -1;
    expect_throw_containing(
        [&] {
          core::SoiFftDist plan(comm, n, full_profile(), dopts);
        },
        "max_retries must be >= 0");

    dopts = {};
    dopts.timeout_ms = -2.0;
    expect_throw_containing(
        [&] {
          core::SoiFftDist plan(comm, n, full_profile(), dopts);
        },
        "timeout_ms must be >= 0");

    // Oversized segmentation: P=32 shrinks the segment to 256 points
    // while growing the halo to (B-4)*32 — the geometry rejects it.
    dopts = {};
    dopts.segments_per_rank = 8;
    expect_throw_containing(
        [&] {
          core::SoiFftDist plan(comm, n, full_profile(), dopts);
        },
        "halo");

    core::SoiFftDist plan(comm, n, full_profile(), core::DistOptions{});
    const std::int64_t m = plan.local_size();
    cvec right(static_cast<std::size_t>(m));
    cvec wrong(static_cast<std::size_t>(m - 1));
    expect_throw_containing([&] { plan.forward(wrong, right); },
                            "local points");
    expect_throw_containing([&] { plan.forward(right, wrong); },
                            "local output too small");
    expect_throw_containing([&] { plan.inverse(wrong, right); },
                            "local input size mismatch");
    expect_throw_containing([&] { plan.inverse(right, wrong); },
                            "local output too small");
  });
}

// --- baseline six-step comparator under faults -------------------------------

/// Run the triple-all-to-all baseline under `sopts` and reassemble the
/// global spectrum. The plan itself installs the resilience options
/// (SixStepOptions -> configure_resilience), mirroring SoiFftDist.
cvec run_sixstep(std::int64_t n, int p, const cvec& x,
                 const baseline::SixStepOptions& sopts) {
  const std::int64_t m = n / p;
  cvec y(static_cast<std::size_t>(n));
  std::mutex mu;
  net::run_ranks(p, [&](net::Comm& comm) {
    baseline::SixStepFftDist plan(comm, n, sopts);
    const std::int64_t base = comm.rank() * m;
    cvec y_local(static_cast<std::size_t>(m));
    plan.forward(cspan{x.data() + base, static_cast<std::size_t>(m)}, y_local);
    comm.barrier();
    std::lock_guard<std::mutex> lock(mu);
    std::copy(y_local.begin(), y_local.end(), y.begin() + base);
  });
  return y;
}

TEST(SixStepChaos, FaultyRunsBitIdenticalToCleanRun) {
  // The comparator must survive the same chaos scenarios as the SOI
  // path: its three all-to-alls recover through the identical
  // checksum/retransmit machinery, so a faulty run is bit-identical.
  const std::int64_t n = 4096;
  const int p = 4;
  const cvec x = random_signal(n, 71);
  const cvec clean = run_sixstep(n, p, x, baseline::SixStepOptions{});
  for (int seed = 1; seed <= 4; ++seed) {
    baseline::SixStepOptions sopts;
    sopts.faults = FaultSpec::parse(std::to_string(seed) +
                                    ":drop:0.05,corrupt:0.05,duplicate:0.05");
    sopts.timeout_ms = 20;
    const cvec got = run_sixstep(n, p, x, sopts);
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(std::memcmp(&got[i], &clean[i], sizeof(cplx)), 0)
          << "seed " << seed << " bin " << i;
    }
  }
}

TEST(SixStepChaos, RetriesDisabledSurfacesTypedError) {
  const std::int64_t n = 4096;
  const int p = 4;
  const cvec x = random_signal(n, 72);
  baseline::SixStepOptions sopts;
  sopts.faults = FaultSpec::parse("3:corrupt:1");
  sopts.timeout_ms = 20;
  sopts.max_retries = 0;
  try {
    (void)run_sixstep(n, p, x, sopts);
    FAIL() << "expected a typed resilience error";
  } catch (const Error& e) {
    EXPECT_TRUE(e.status() == Status::kPayloadCorruption ||
                e.status() == Status::kCommTimeout)
        << "status " << status_name(e.status());
  }
}

TEST(SixStepChaos, OutputGuardFlagsNonFiniteSpectra) {
  // Deterministic guard check: a non-finite input value poisons the
  // whole spectrum; the output guard must refuse to return it.
  const std::int64_t n = 4096;
  const int p = 4;
  cvec x = random_signal(n, 73);
  x[17] = cplx(std::numeric_limits<double>::infinity(), 0.0);
  EXPECT_THROW((void)run_sixstep(n, p, x, baseline::SixStepOptions{}),
               AccuracyFaultError);
  // Guard off: the legacy behaviour — non-finite values propagate to the
  // caller unchecked.
  baseline::SixStepOptions off;
  off.output_guard = false;
  const cvec got = run_sixstep(n, p, x, off);
  EXPECT_EQ(got.size(), static_cast<std::size_t>(n));
}

TEST(SixStepChaos, RejectsNegativeResilienceKnobs) {
  net::run_ranks(2, [&](net::Comm& comm) {
    baseline::SixStepOptions sopts;
    sopts.max_retries = -1;
    expect_throw_containing(
        [&] { baseline::SixStepFftDist plan(comm, 4096, sopts); },
        "max_retries must be >= 0");
    sopts = {};
    sopts.timeout_ms = -1.0;
    expect_throw_containing(
        [&] { baseline::SixStepFftDist plan(comm, 4096, sopts); },
        "timeout_ms must be >= 0");
  });
}

}  // namespace
}  // namespace soi
