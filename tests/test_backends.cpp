// Backend registries and transport conformance (the pluggable-backend
// refactor's contract tests).
//
// Three layers:
//
//   * registry contracts — lazy built-ins, exactly-once registration,
//     typed unknown-name errors listing the registered set, env-driven
//     defaults, and thread-safe concurrent lookup, for BOTH
//     net::TransportRegistry and fft::EngineRegistry;
//
//   * a transport-conformance suite instantiated over EVERY launchable
//     registered backend: tag/source matching, per-channel FIFO order,
//     nonblocking completion, cancel-on-drop, the collective set,
//     alltoall variant parity, error propagation out of a failed world,
//     capability reporting, and the bytes-sent counter. Assertions inside
//     rank bodies throw (SOI_CHECK) instead of using gtest macros:
//     cross-process backends run bodies in forked children where a gtest
//     failure would vanish silently — a thrown soi::Error travels back
//     through the backend's error protocol and fails the test in the
//     parent process;
//
//   * cross-backend parity — the distributed SOI transform must produce
//     BIT-identical spectra over "sim" and "shm" (rank 0 of each world
//     writes its gathered spectrum to a file; the parent compares bytes),
//     and the "scalar" engine must agree with "batch" through the full
//     pipeline to working precision.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "fft/engine.hpp"
#include "net/registry.hpp"
#include "net/shm_frame.hpp"
#include "net/transport.hpp"
#include "soi/dist.hpp"
#include "window/design.hpp"

using namespace soi;

// Counts every global operator new in this process (and in each forked shm
// rank, which inherits the counter): ShmSteadyPath asserts on it. Every
// non-aligned form is replaced, so each delete meets the new it pairs with
// (sanitizer runtimes check that pairing).
namespace {
std::atomic<std::int64_t> g_operator_news{0};

void* counted_malloc(std::size_t bytes) noexcept {
  g_operator_news.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(bytes == 0 ? 1 : bytes);
}

void* counted_new(std::size_t bytes) {
  if (void* p = counted_malloc(bytes)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_new(n); }
void* operator new[](std::size_t n) { return counted_new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
// GCC cannot see that these free what counted_malloc returned and warns at
// every inlined delete.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace {

// Restores an environment variable on scope exit.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_ = old != nullptr;
    if (had_) saved_ = old;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_) {
      ::setenv(name_, saved_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  bool had_ = false;
  std::string saved_;
};

net::TransportBackend noop_backend(const char* name) {
  net::TransportBackend b;
  b.caps.name = name;
  b.run = [](int, const net::NetOptions&, const net::WorldBody&) {
    return std::vector<net::CommEvent>{};
  };
  return b;
}

}  // namespace

// --- transport registry ------------------------------------------------------

TEST(TransportRegistryTest, BuiltinBackendsRegistered) {
  auto& reg = net::TransportRegistry::instance();
  EXPECT_TRUE(reg.contains("sim"));
  EXPECT_TRUE(reg.contains("shm"));
  EXPECT_FALSE(reg.contains("hypercube"));
  const auto names = reg.names();
  EXPECT_GE(names.size(), 2u);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(TransportRegistryTest, CapabilitySheetsDescribeTheBackends) {
  auto& reg = net::TransportRegistry::instance();
  const auto& sim = reg.caps("sim");
  EXPECT_STREQ(sim.name, "sim");
  EXPECT_TRUE(sim.threaded_world);
  EXPECT_FALSE(sim.cross_process);
  EXPECT_TRUE(sim.fault_injection);
  EXPECT_TRUE(sim.latency_emulation);
  EXPECT_TRUE(sim.traffic_events);
  const auto& shm = reg.caps("shm");
  EXPECT_STREQ(shm.name, "shm");
  EXPECT_TRUE(shm.cross_process);
  EXPECT_FALSE(shm.threaded_world);
  EXPECT_TRUE(shm.checksums);
  EXPECT_FALSE(shm.latency_emulation);
  EXPECT_LE(sim.max_coll_channels, net::kMaxChannels);
  EXPECT_LE(shm.max_coll_channels, net::kMaxChannels);
}

TEST(TransportRegistryTest, UnknownNameThrowsListingRegisteredBackends) {
  try {
    (void)net::TransportRegistry::instance().caps("hypercube");
    FAIL() << "lookup of an unknown backend must throw";
  } catch (const InvalidArgumentError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("hypercube"), std::string::npos) << msg;
    EXPECT_NE(msg.find("sim"), std::string::npos) << msg;
    EXPECT_NE(msg.find("shm"), std::string::npos) << msg;
  }
}

TEST(TransportRegistryTest, RegistrationIsExactlyOncePerName) {
  auto& reg = net::TransportRegistry::instance();
  reg.register_backend("test-dup-transport", noop_backend("test-dup-transport"));
  EXPECT_TRUE(reg.contains("test-dup-transport"));
  EXPECT_THROW(reg.register_backend("test-dup-transport",
                                    noop_backend("test-dup-transport")),
               InvalidArgumentError);
  EXPECT_THROW(reg.register_backend("sim", noop_backend("sim")),
               InvalidArgumentError);
  EXPECT_THROW(reg.register_backend("", noop_backend("")),
               InvalidArgumentError);
  net::TransportBackend no_run;
  no_run.caps.name = "test-no-run";
  EXPECT_THROW(reg.register_backend("test-no-run", std::move(no_run)),
               InvalidArgumentError);
}

TEST(TransportRegistryTest, DefaultTransportFollowsEnv) {
  {
    ScopedEnv env("SOI_TRANSPORT", "shm");
    EXPECT_EQ(net::default_transport(), "shm");
  }
  {
    ScopedEnv env("SOI_TRANSPORT", nullptr);
    EXPECT_EQ(net::default_transport(), "sim");
  }
  {
    // Empty means unset, not "a backend named ''".
    ScopedEnv env("SOI_TRANSPORT", "");
    EXPECT_EQ(net::default_transport(), "sim");
  }
}

TEST(TransportRegistryTest, ConcurrentLookupsAreConsistent) {
  auto& reg = net::TransportRegistry::instance();
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 400; ++i) {
        if (std::string(reg.caps("sim").name) != "sim") ++errors;
        if (!reg.contains("shm")) ++errors;
        if (reg.names().size() < 2) ++errors;
        try {
          (void)reg.lookup("no-such-backend");
          ++errors;  // must have thrown
        } catch (const InvalidArgumentError&) {
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(errors.load(), 0);
}

// --- fft engine registry -----------------------------------------------------

TEST(EngineRegistryTest, BuiltinEnginesRegistered) {
  auto& reg = fft::EngineRegistry::instance();
  EXPECT_TRUE(reg.contains("batch"));
  EXPECT_TRUE(reg.contains("scalar"));
  EXPECT_TRUE(reg.info("batch").simd_batched);
  EXPECT_DOUBLE_EQ(reg.info("batch").compute_scale, 1.0);
  EXPECT_FALSE(reg.info("scalar").simd_batched);
  EXPECT_GT(reg.info("scalar").compute_scale, 0.0);
  EXPECT_LT(reg.info("scalar").compute_scale, 1.0);
  const auto names = reg.names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(EngineRegistryTest, UnknownEngineThrowsListingRegisteredEngines) {
  try {
    (void)fft::EngineRegistry::instance().info("cuda");
    FAIL() << "lookup of an unknown engine must throw";
  } catch (const InvalidArgumentError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("cuda"), std::string::npos) << msg;
    EXPECT_NE(msg.find("batch"), std::string::npos) << msg;
    EXPECT_NE(msg.find("scalar"), std::string::npos) << msg;
  }
}

TEST(EngineRegistryTest, RegistrationIsExactlyOncePerName) {
  auto& reg = fft::EngineRegistry::instance();
  const auto factory_d = [](std::int64_t n, std::int64_t w) {
    return fft::EngineRegistry::instance().make("batch", n, w);
  };
  const auto factory_f = [](std::int64_t n, std::int64_t w) {
    return fft::EngineRegistry::instance().make_f("batch", n, w);
  };
  fft::EngineInfo info;
  info.name = "test-dup-engine";
  reg.register_engine(info, factory_d, factory_f);
  EXPECT_TRUE(reg.contains("test-dup-engine"));
  EXPECT_THROW(reg.register_engine(info, factory_d, factory_f),
               InvalidArgumentError);
  fft::EngineInfo empty_name;
  empty_name.name = "";
  EXPECT_THROW(reg.register_engine(empty_name, factory_d, factory_f),
               InvalidArgumentError);
  fft::EngineInfo no_factory;
  no_factory.name = "test-no-factory";
  EXPECT_THROW(reg.register_engine(no_factory, nullptr, factory_f),
               InvalidArgumentError);
}

TEST(EngineRegistryTest, DefaultEngineFollowsEnv) {
  {
    ScopedEnv env("SOI_FFT_ENGINE", "scalar");
    EXPECT_EQ(fft::default_engine(), "scalar");
  }
  {
    ScopedEnv env("SOI_FFT_ENGINE", nullptr);
    EXPECT_EQ(fft::default_engine(), "batch");
  }
}

TEST(EngineRegistryTest, ConcurrentLookupsAreConsistent) {
  auto& reg = fft::EngineRegistry::instance();
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 400; ++i) {
        if (std::string(reg.info("batch").name) != "batch") ++errors;
        if (!reg.contains("scalar")) ++errors;
        if (reg.names().size() < 2) ++errors;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(errors.load(), 0);
}

TEST(EngineRegistryTest, EnginesComputeTheSameTransform) {
  const std::int64_t n = 384;  // 2^7 * 3: exercises the mixed-radix path
  const std::int64_t count = 5;
  cvec in(static_cast<std::size_t>(n * count));
  fill_gaussian(in, 7);
  cvec batch_out(in.size()), scalar_out(in.size()), round(in.size());
  const auto batch = fft::make_batch_plan("batch", n);
  const auto scalar = fft::make_batch_plan("scalar", n);
  EXPECT_EQ(batch->size(), n);
  EXPECT_EQ(scalar->size(), n);
  batch->forward(in, batch_out, count);
  scalar->forward(in, scalar_out, count);
  EXPECT_GT(snr_db(scalar_out, batch_out), 250.0);
  scalar->inverse(scalar_out, round, count);
  EXPECT_GT(snr_db(round, in), 250.0);
}

// --- transport conformance (every launchable backend) ------------------------

namespace {

std::vector<std::string> launchable_backends() {
  std::vector<std::string> out;
  for (const auto& name : net::TransportRegistry::instance().names()) {
    if (name.rfind("test-", 0) == 0) continue;  // registered by tests above
    out.push_back(name);
  }
  return out;
}

}  // namespace

class TransportConformance : public ::testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(Backends, TransportConformance,
                         ::testing::ValuesIn(launchable_backends()),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           return i.param;
                         });

TEST_P(TransportConformance, TagAndSourceMatching) {
  net::run_world(GetParam(), 3, [](net::Transport& t) {
    const int r = t.rank();
    SOI_CHECK(t.size() == 3, "world size must be 3, got " << t.size());
    if (r == 1) t.send(0, /*tag=*/7, cvec{{1.0, -1.0}});
    if (r == 2) t.send(0, /*tag=*/9, cvec{{2.0, -2.0}});
    if (r == 0) {
      // Receive in the opposite order of the ranks: matching is by
      // (src, tag), not by arrival.
      cvec a(1), b(1);
      t.recv(2, 9, a);
      t.recv(1, 7, b);
      SOI_CHECK(a[0] == cplx(2.0, -2.0), "tag-9 payload mismatch");
      SOI_CHECK(b[0] == cplx(1.0, -1.0), "tag-7 payload mismatch");
    }
    t.barrier();
    // Any-source: both peers send on one tag; rank 0 must see both
    // payloads, whichever arrives first.
    if (r != 0) t.send(0, /*tag=*/11, cvec{cplx(r, 0.0)});
    if (r == 0) {
      cvec a(1), b(1);
      t.recv(net::kAnySource, 11, a);
      t.recv(net::kAnySource, 11, b);
      const double lo = std::min(a[0].real(), b[0].real());
      const double hi = std::max(a[0].real(), b[0].real());
      SOI_CHECK(lo == 1.0 && hi == 2.0,
                "any-source must deliver both peers exactly once");
    }
  });
}

TEST_P(TransportConformance, FifoOrderPerChannel) {
  net::run_world(GetParam(), 2, [](net::Transport& t) {
    constexpr int kMsgs = 8;
    if (t.rank() == 0) {
      for (int i = 0; i < kMsgs; ++i) t.send(1, /*tag=*/3, cvec{cplx(i, 0.0)});
    } else {
      for (int i = 0; i < kMsgs; ++i) {
        cvec v(1);
        t.recv(0, 3, v);
        SOI_CHECK(v[0].real() == static_cast<double>(i),
                  "same-channel messages must arrive in send order: expected "
                      << i << ", got " << v[0].real());
      }
    }
  });
}

TEST_P(TransportConformance, NonblockingCompletionAndCancelOnDrop) {
  net::run_world(GetParam(), 2, [](net::Transport& t) {
    if (t.rank() == 1) {
      cvec buf(2);
      // Nothing is in flight yet: try_recv must decline, not block.
      SOI_CHECK(!t.try_recv(0, 21, buf), "try_recv matched a ghost message");
      {
        // A posted-then-dropped receive must forget its posting — the
        // message sent below has to remain matchable by a fresh receive.
        net::Request dropped = t.irecv(0, 21, buf);
        SOI_CHECK(dropped.active() && !dropped.done(),
                  "irecv must return a live, incomplete request");
      }
      t.barrier();
      cvec got(2);
      net::Request rq = t.irecv(0, 21, got);
      t.wait(rq);
      SOI_CHECK(rq.done(), "waited request must be done");
      SOI_CHECK(rq.source() == 0, "completed receive must report its source");
      SOI_CHECK(got[0] == cplx(5.0, 6.0) && got[1] == cplx(7.0, 8.0),
                "nonblocking payload mismatch");
    } else {
      t.barrier();
      net::Request sq = t.isend(1, 21, cvec{{5.0, 6.0}, {7.0, 8.0}});
      SOI_CHECK(sq.done(), "buffered sends complete at post time");
      t.wait(sq);  // must be a no-op, not an error
    }
  });
}

TEST_P(TransportConformance, CollectivesMatchLocalComputation) {
  net::run_world(GetParam(), 4, [](net::Transport& t) {
    const int r = t.rank();
    const int p = t.size();
    // bcast from a non-zero root.
    cvec msg(3);
    if (r == 2) msg = {{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
    t.bcast(msg, /*root=*/2);
    SOI_CHECK(msg[1] == cplx(3.0, 4.0), "bcast payload mismatch on rank " << r);
    // gather to a non-zero root, rank order.
    cvec mine{cplx(r, -r), cplx(10.0 + r, 0.0)};
    cvec all(static_cast<std::size_t>(2 * p));
    t.gather(mine, all, /*root=*/1);
    if (r == 1) {
      for (int s = 0; s < p; ++s) {
        SOI_CHECK(all[static_cast<std::size_t>(2 * s)] == cplx(s, -s),
                  "gather block " << s << " out of place");
      }
    }
    // allgather: everyone sees every block.
    cvec everywhere(static_cast<std::size_t>(2 * p));
    t.allgather(mine, everywhere);
    for (int s = 0; s < p; ++s) {
      SOI_CHECK(everywhere[static_cast<std::size_t>(2 * s + 1)] ==
                    cplx(10.0 + s, 0.0),
                "allgather block " << s << " mismatch on rank " << r);
    }
    // Scalar reductions over exactly-representable values.
    SOI_CHECK(t.allreduce_sum(static_cast<double>(r + 1)) == 10.0,
              "allreduce_sum(1+2+3+4) must be exact");
    SOI_CHECK(t.allreduce_max(static_cast<double>(r * r)) == 9.0,
              "allreduce_max mismatch");
    // Vector reduction: every rank must receive BIT-identical results
    // (checked by allgathering the reduced vector and comparing bytes).
    std::vector<double> vals = {0.1 * (r + 1), -0.25 * (r + 1)};
    t.allreduce_sum(std::span<double>(vals));
    cvec packed{cplx(vals[0], vals[1])};
    cvec gathered(static_cast<std::size_t>(p));
    t.allgather(packed, gathered);
    for (int s = 1; s < p; ++s) {
      SOI_CHECK(std::memcmp(&gathered[0], &gathered[static_cast<std::size_t>(s)],
                            sizeof(cplx)) == 0,
                "allreduce_sum(span) results must be bit-identical on every "
                "rank");
    }
  });
}

TEST_P(TransportConformance, AlltoallVariantsAreBitIdentical) {
  net::run_world(GetParam(), 4, [](net::Transport& t) {
    const int r = t.rank();
    const int p = t.size();
    const std::int64_t count = 6;
    const auto elem = [](int src, int dst, std::int64_t k) {
      return cplx(100.0 * src + dst, static_cast<double>(k));
    };
    cvec send(static_cast<std::size_t>(p * count));
    for (int d = 0; d < p; ++d) {
      for (std::int64_t k = 0; k < count; ++k) {
        send[static_cast<std::size_t>(d * count + k)] = elem(r, d, k);
      }
    }
    cvec pairwise(send.size()), direct(send.size()), nb(send.size()),
        vv(send.size());
    t.alltoall(send, pairwise, count, net::AlltoallAlgo::kPairwise);
    for (int s = 0; s < p; ++s) {
      for (std::int64_t k = 0; k < count; ++k) {
        SOI_CHECK(pairwise[static_cast<std::size_t>(s * count + k)] ==
                      elem(s, r, k),
                  "alltoall block from rank " << s << " corrupted");
      }
    }
    t.alltoall(send, direct, count, net::AlltoallAlgo::kDirect);
    SOI_CHECK(std::memcmp(pairwise.data(), direct.data(),
                          pairwise.size() * sizeof(cplx)) == 0,
              "kDirect must deliver bit-identical data to kPairwise");
    // Nonblocking variant on a non-default channel.
    const int channel = std::min(1, t.caps().max_coll_channels - 1);
    net::Request rq =
        t.ialltoall(send, nb, count, net::AlltoallAlgo::kPairwise, channel);
    t.wait(rq);
    SOI_CHECK(std::memcmp(pairwise.data(), nb.data(),
                          pairwise.size() * sizeof(cplx)) == 0,
              "ialltoall must match the blocking alltoall");
    // alltoallv with uniform counts must agree as well.
    std::vector<std::int64_t> counts(static_cast<std::size_t>(p), count);
    std::vector<std::int64_t> displs(static_cast<std::size_t>(p));
    for (int d = 0; d < p; ++d) displs[static_cast<std::size_t>(d)] = d * count;
    t.alltoallv(send, counts, displs, vv, counts, displs);
    SOI_CHECK(std::memcmp(pairwise.data(), vv.data(),
                          pairwise.size() * sizeof(cplx)) == 0,
              "alltoallv with uniform counts must match alltoall");
  });
}

TEST_P(TransportConformance, RankFailureSurfacesPrimaryError) {
  try {
    net::run_world(GetParam(), 3, [](net::Transport& t) {
      if (t.rank() == 1) {
        throw Error("conformance-primary-failure on rank 1");
      }
      // The other ranks block on a message that can never arrive; the
      // world abort must wake them instead of deadlocking, and run_world
      // must rethrow rank 1's PRIMARY error, not the induced aborts.
      cvec v(1);
      t.recv(1, /*tag=*/40, v);
    });
    FAIL() << "run_world must rethrow the failing rank's error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("conformance-primary-failure"),
              std::string::npos)
        << e.what();
  }
}

TEST_P(TransportConformance, BytesSentCounterIsMonotonic) {
  net::run_world(GetParam(), 2, [](net::Transport& t) {
    const std::int64_t before = t.bytes_sent();
    SOI_CHECK(before >= 0, "bytes_sent must be non-negative");
    cvec payload(16);
    if (t.rank() == 0) {
      t.send(1, 5, payload);
      SOI_CHECK(t.bytes_sent() >=
                    before + static_cast<std::int64_t>(16 * sizeof(cplx)),
                "bytes_sent must grow by at least the payload size");
    } else {
      t.recv(0, 5, payload);
    }
  });
}

TEST_P(TransportConformance, UnsupportedOptionsAreReportedNotIgnored) {
  const auto& caps = net::TransportRegistry::instance().caps(GetParam());
  net::NetOptions opts;
  opts.faults = net::FaultSpec::parse("1:drop:0.01");
  opts.wire_latency_us = 5.0;
  opts.intra_latency_us = 1.0;
  opts.topo_group_size = 2;
  const auto warnings = net::unsupported_option_warnings(caps, opts);
  const auto mentions = [&](const char* needle) {
    return std::any_of(warnings.begin(), warnings.end(),
                       [&](const std::string& w) {
                         return w.find(needle) != std::string::npos;
                       });
  };
  EXPECT_EQ(mentions("fault-injection"), !caps.fault_injection);
  EXPECT_EQ(mentions("wire-latency"), !caps.latency_emulation);
  EXPECT_EQ(mentions("intra-node latency"), !caps.latency_emulation);
  // Every warning names the backend it is about.
  for (const auto& w : warnings) {
    EXPECT_NE(w.find(caps.name), std::string::npos) << w;
  }
  // A fully supported option set warns about nothing.
  EXPECT_TRUE(net::unsupported_option_warnings(caps, net::NetOptions{}).empty());
}

// --- ring overflow: blocks several times the shm transport's 1 MiB ring ----

namespace {

constexpr std::int64_t kBigBlock = std::int64_t{3} << 16;  // 3 MiB of cplx

/// Element k of the block `src` sends to `dst` on exchange `salt`; every
/// value is exact in double, so comparisons are bit-exact.
cplx big_elem(int src, int dst, std::int64_t k, int salt) {
  return {1e7 * src + 1e6 * dst + static_cast<double>(k),
          static_cast<double>(salt) - static_cast<double>(k)};
}

cvec big_send_buffer(int rank, int p, int salt) {
  cvec send(static_cast<std::size_t>(p * kBigBlock));
  for (int d = 0; d < p; ++d) {
    for (std::int64_t k = 0; k < kBigBlock; ++k) {
      send[static_cast<std::size_t>(d * kBigBlock + k)] =
          big_elem(rank, d, k, salt);
    }
  }
  return send;
}

void check_big_recv(const cvec& got, int rank, int p, int salt,
                    const char* what) {
  for (int s = 0; s < p; ++s) {
    for (std::int64_t k = 0; k < kBigBlock; ++k) {
      SOI_CHECK(got[static_cast<std::size_t>(s * kBigBlock + k)] ==
                    big_elem(s, rank, k, salt),
                what << ": element " << k << " of the block from rank " << s
                     << " differs on rank " << rank);
    }
  }
}

}  // namespace

TEST_P(TransportConformance, BlockingCollectivesShareChannelZeroInOrder) {
  // A blocking all-to-all draws channel 0's next sequence number, exactly
  // like a posted one. With an ialltoall in flight on channel 0, every
  // blocking collective below must still match its own blocks, and the
  // posted exchange must complete bit-exact afterwards.
  net::run_world(GetParam(), 4, [](net::Transport& t) {
    const int r = t.rank();
    const int p = t.size();
    const cvec big = big_send_buffer(r, p, /*salt=*/3);
    cvec big_got(big.size());
    net::Request posted = t.ialltoall(big, big_got, kBigBlock,
                                      net::AlltoallAlgo::kPairwise, 0);

    const std::int64_t count = 5;
    cvec send(static_cast<std::size_t>(p * count));
    for (int d = 0; d < p; ++d) {
      for (std::int64_t k = 0; k < count; ++k) {
        send[static_cast<std::size_t>(d * count + k)] =
            cplx(100.0 * r + d, static_cast<double>(k));
      }
    }
    cvec got(send.size());
    t.alltoall(send, got, count);
    for (int s = 0; s < p; ++s) {
      for (std::int64_t k = 0; k < count; ++k) {
        SOI_CHECK(got[static_cast<std::size_t>(s * count + k)] ==
                      cplx(100.0 * s + r, static_cast<double>(k)),
                  "blocking alltoall block from rank " << s << " differs");
      }
    }

    // alltoallv with counts that differ per (src, dst) pair.
    const auto vcount = [](int src, int dst) -> std::int64_t {
      return (src + 2 * dst) % 3 + 1;
    };
    std::vector<std::int64_t> sc(static_cast<std::size_t>(p)),
        sd(static_cast<std::size_t>(p)), rc(static_cast<std::size_t>(p)),
        rd(static_cast<std::size_t>(p));
    std::int64_t so = 0, ro = 0;
    for (int q = 0; q < p; ++q) {
      const auto i = static_cast<std::size_t>(q);
      sc[i] = vcount(r, q);
      sd[i] = so;
      so += sc[i];
      rc[i] = vcount(q, r);
      rd[i] = ro;
      ro += rc[i];
    }
    cvec vsend(static_cast<std::size_t>(so)), vgot(static_cast<std::size_t>(ro));
    for (int q = 0; q < p; ++q) {
      for (std::int64_t k = 0; k < sc[static_cast<std::size_t>(q)]; ++k) {
        vsend[static_cast<std::size_t>(sd[static_cast<std::size_t>(q)] + k)] =
            cplx(-1.0 * r, 10.0 * q + static_cast<double>(k));
      }
    }
    t.alltoallv(vsend, sc, sd, vgot, rc, rd);
    for (int q = 0; q < p; ++q) {
      for (std::int64_t k = 0; k < rc[static_cast<std::size_t>(q)]; ++k) {
        SOI_CHECK(vgot[static_cast<std::size_t>(rd[static_cast<std::size_t>(q)] +
                                                k)] ==
                      cplx(-1.0 * q, 10.0 * r + static_cast<double>(k)),
                  "blocking alltoallv block from rank " << q << " differs");
      }
    }

    cvec msg(2);
    if (r == 3) msg = {{0.5, -0.25}, {1e-300, 7.0}};
    t.bcast(msg, /*root=*/3);
    SOI_CHECK(msg[0] == cplx(0.5, -0.25) && msg[1] == cplx(1e-300, 7.0),
              "bcast payload differs on rank " << r);

    cvec ring_in(3);
    t.sendrecv((r + 1) % p, cvec(3, cplx(r, 1.0 / (r + 1))), (r + p - 1) % p,
               ring_in, /*tag=*/31);
    const int left = (r + p - 1) % p;
    for (const cplx& v : ring_in) {
      SOI_CHECK(v == cplx(left, 1.0 / (left + 1)),
                "cyclic sendrecv payload differs on rank " << r);
    }

    t.wait(posted);
    check_big_recv(big_got, r, p, 3, "posted channel-0 ialltoall");
  });
}

TEST_P(TransportConformance, RingOverflowAlltoallVariantsAreBitExact) {
  net::run_world(GetParam(), 4, [](net::Transport& t) {
    const int r = t.rank();
    const int p = t.size();
    const cvec send = big_send_buffer(r, p, /*salt=*/0);
    cvec got(send.size());
    t.alltoall(send, got, kBigBlock);
    check_big_recv(got, r, p, 0, "alltoall");
    std::fill(got.begin(), got.end(), cplx{});
    net::Request rq = t.ialltoall(send, got, kBigBlock,
                                  net::AlltoallAlgo::kPairwise, /*channel=*/0);
    t.wait(rq);
    check_big_recv(got, r, p, 0, "ialltoall");
    std::fill(got.begin(), got.end(), cplx{});
    std::vector<std::int64_t> counts(static_cast<std::size_t>(p), kBigBlock);
    std::vector<std::int64_t> displs(static_cast<std::size_t>(p));
    for (int d = 0; d < p; ++d) {
      displs[static_cast<std::size_t>(d)] = d * kBigBlock;
    }
    t.alltoallv(send, counts, displs, got, counts, displs);
    check_big_recv(got, r, p, 0, "alltoallv");
  });
}

TEST_P(TransportConformance, RingOverflowChannelsPostedInOppositeOrders) {
  if (net::TransportRegistry::instance().caps(GetParam()).max_coll_channels <
      2) {
    GTEST_SKIP() << "backend has a single collective channel";
  }
  net::run_world(GetParam(), 4, [](net::Transport& t) {
    const int r = t.rank();
    const int p = t.size();
    // Channel c carries salt c. Even ranks post channel 0 first, odd ranks
    // channel 1 first, so each rank's first exchange meets the other
    // channel's blocks streaming in while its own sends are blocked.
    const cvec send0 = big_send_buffer(r, p, /*salt=*/0);
    const cvec send1 = big_send_buffer(r, p, /*salt=*/1);
    cvec got0(send0.size()), got1(send1.size());
    net::Request rq0, rq1;
    if (r % 2 == 0) {
      rq0 = t.ialltoall(send0, got0, kBigBlock, net::AlltoallAlgo::kPairwise, 0);
      rq1 = t.ialltoall(send1, got1, kBigBlock, net::AlltoallAlgo::kPairwise, 1);
    } else {
      rq1 = t.ialltoall(send1, got1, kBigBlock, net::AlltoallAlgo::kPairwise, 1);
      rq0 = t.ialltoall(send0, got0, kBigBlock, net::AlltoallAlgo::kPairwise, 0);
    }
    t.wait(rq1);
    t.wait(rq0);
    check_big_recv(got0, r, p, 0, "channel 0");
    check_big_recv(got1, r, p, 1, "channel 1");
  });
}

TEST_P(TransportConformance, SenderBlockedOnFullRingSurfacesReceiverError) {
  try {
    net::run_world(GetParam(), 2, [](net::Transport& t) {
      if (t.rank() == 0) {
        // Take the small message, then fail with the large one (4x the
        // ring) still streaming in: rank 1 must end up blocked on a full
        // ring that nobody will drain again.
        cvec small(1);
        t.recv(1, /*tag=*/50, small);
        throw PayloadCorruptionError("ring-overflow-primary on rank 0");
      }
      t.send(0, /*tag=*/50, cvec(1));
      t.send(0, /*tag=*/51, cvec(static_cast<std::size_t>(4 << 16)));
    });
    FAIL() << "run_world must rethrow the receiving rank's error";
  } catch (const PayloadCorruptionError& e) {
    EXPECT_NE(std::string(e.what()).find("ring-overflow-primary"),
              std::string::npos)
        << e.what();
  }
}

namespace {

/// A p2p payload from rank 0 to rank 1, distinct per (salt, index).
cvec p2p_payload(std::size_t n, int salt) {
  cvec v(n);
  for (std::size_t k = 0; k < n; ++k) {
    v[k] = {static_cast<double>(salt) * 1e6 + static_cast<double>(k),
            -static_cast<double>(k)};
  }
  return v;
}

}  // namespace

TEST_P(TransportConformance, DroppedRingOverflowExchangeKeepsP2pIntact) {
  // Rank 1 takes a p2p message from rank 0 (so the receiver has already
  // handed one reassembled buffer to a receive), then posts and drops a
  // live ialltoall whose 3 MiB block from rank 0 arrives afterwards —
  // entirely (round 0) or racing the drop, often mid-landing (round 1).
  // The later p2p messages, no larger than the first, must land intact.
  constexpr std::size_t kFirst = std::size_t{3} << 13;  // 384 KiB of cplx
  const std::size_t sizes[] = {kFirst, kFirst, kFirst / 2, 1, kFirst};
  net::run_world(GetParam(), 2, [&](net::Transport& t) {
    const int r = t.rank();
    const cvec send = big_send_buffer(r, 2, /*salt=*/7);
    cvec got(send.size());
    for (int round = 0; round < 2; ++round) {
      const int base = 70 + 10 * round;
      if (r == 0) {
        t.send(1, base, p2p_payload(kFirst, base));
        // Round 0: post only once rank 1 has dropped its exchange; the
        // recv drains rank 1's block into the mailbox while it waits.
        if (round == 0) {
          cvec go(1);
          t.recv(1, base + 1, go);
        }
        net::Request rq = t.ialltoall(send, got, kBigBlock,
                                      net::AlltoallAlgo::kPairwise, 0);
        t.wait(rq);
        check_big_recv(got, r, 2, 7, "exchange dropped by the peer");
        for (std::size_t i = 0; i < std::size(sizes); ++i) {
          t.send(1, base + 2,
                 p2p_payload(sizes[i], base + static_cast<int>(i)));
        }
      } else {
        cvec first(kFirst);
        t.recv(0, base, first);
        SOI_CHECK(first == p2p_payload(kFirst, base), "first p2p differs");
        {
          net::Request dropped = t.ialltoall(send, got, kBigBlock,
                                             net::AlltoallAlgo::kPairwise, 0);
        }
        if (round == 0) t.send(0, base + 1, cvec(1));
        for (std::size_t i = 0; i < std::size(sizes); ++i) {
          cvec msg(sizes[i]);
          t.recv(0, base + 2, msg);
          SOI_CHECK(msg == p2p_payload(sizes[i], base + static_cast<int>(i)),
                    "p2p message " << i << " of round " << round
                                   << " differs after a dropped exchange");
        }
      }
    }
  });
}

// --- cross-backend parity ----------------------------------------------------

namespace {

/// Runs the distributed SOI transform over `transport` and writes rank 0's
/// gathered spectrum to `path` (results cannot flow back through captured
/// memory on cross-process backends; a file works for every backend).
void dist_spectrum_to_file(const std::string& transport, std::int64_t n,
                           int ranks, const win::SoiProfile& prof,
                           const core::DistOptions& dopts, const cvec& x,
                           const std::string& path) {
  net::run_world(transport, ranks, [&](net::Transport& comm) {
    core::SoiFftDist plan(comm, n, prof, dopts);
    const std::int64_t m = plan.local_size();
    cvec y_local(static_cast<std::size_t>(m));
    plan.forward(cspan{x.data() + comm.rank() * m, static_cast<std::size_t>(m)},
                 y_local);
    cvec y(x.size());
    comm.gather(y_local, y, 0);
    if (comm.rank() == 0) {
      std::ofstream f(path, std::ios::binary | std::ios::trunc);
      f.write(reinterpret_cast<const char*>(y.data()),
              static_cast<std::streamsize>(y.size() * sizeof(cplx)));
      SOI_CHECK(f.good(), "failed to write spectrum to " << path);
    }
  });
}

std::vector<char> slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

}  // namespace

TEST(ShmWorld, RankKilledBySignalAbortsTheWorld) {
  // Rank 1 dies outside any catch block, so it records no error and never
  // raises the abort flag itself. The parent must notice the death, abort
  // the world so rank 0 stops waiting for rank 1, and report the signal.
  try {
    net::run_world("shm", 2, [](net::Transport& t) {
      if (t.rank() == 1) ::raise(SIGKILL);
      cvec v(1);
      t.recv(1, /*tag=*/60, v);
    });
    FAIL() << "run_world must report the killed rank";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("signal 9"), std::string::npos)
        << e.what();
  }
}

TEST(BackendParity, SoiDistBitIdenticalOverSimAndShm) {
  const std::int64_t n = 1 << 12;
  const int ranks = 4;
  const win::SoiProfile prof = win::make_profile(win::Accuracy::kMedium);
  cvec x(static_cast<std::size_t>(n));
  fill_gaussian(x, 2026);

  // Both the in-order and the pipelined chunked-exchange schedules must be
  // transport-invariant, bit for bit.
  core::DistOptions inorder;
  inorder.segments_per_rank = 2;
  core::DistOptions pipelined;
  pipelined.segments_per_rank = 2;
  pipelined.overlap = true;
  pipelined.chunk_depth = 2;

  const struct {
    const char* label;
    const core::DistOptions* opts;
  } cases[] = {{"inorder", &inorder}, {"pipelined", &pipelined}};
  for (const auto& c : cases) {
    const std::string sim_path =
        std::string("backend_parity_sim_") + c.label + ".bin";
    const std::string shm_path =
        std::string("backend_parity_shm_") + c.label + ".bin";
    dist_spectrum_to_file("sim", n, ranks, prof, *c.opts, x, sim_path);
    dist_spectrum_to_file("shm", n, ranks, prof, *c.opts, x, shm_path);
    const auto sim_bytes = slurp(sim_path);
    const auto shm_bytes = slurp(shm_path);
    ASSERT_EQ(sim_bytes.size(), static_cast<std::size_t>(n) * sizeof(cplx))
        << c.label;
    ASSERT_EQ(sim_bytes.size(), shm_bytes.size()) << c.label;
    EXPECT_EQ(std::memcmp(sim_bytes.data(), shm_bytes.data(),
                          sim_bytes.size()),
              0)
        << "SOI spectrum (" << c.label
        << " schedule) must be bit-identical over sim and shm";
    std::remove(sim_path.c_str());
    std::remove(shm_path.c_str());
  }
}

TEST(BackendParity, ScalarEngineMatchesBatchThroughDistPipeline) {
  const std::int64_t n = 1 << 12;
  const int ranks = 4;
  const win::SoiProfile prof = win::make_profile(win::Accuracy::kMedium);
  cvec x(static_cast<std::size_t>(n));
  fill_gaussian(x, 515);
  auto run_engine = [&](const std::string& engine) {
    cvec y(x.size());
    net::run_world("sim", ranks, [&](net::Transport& comm) {
      core::DistOptions dopts;
      dopts.segments_per_rank = 2;
      dopts.engine = engine;
      core::SoiFftDist plan(comm, n, prof, dopts);
      const std::int64_t m = plan.local_size();
      cvec y_local(static_cast<std::size_t>(m));
      plan.forward(
          cspan{x.data() + comm.rank() * m, static_cast<std::size_t>(m)},
          y_local);
      comm.gather(y_local, y, 0);
    });
    return y;
  };
  const cvec batch = run_engine("batch");
  const cvec scalar = run_engine("scalar");
  EXPECT_GT(snr_db(scalar, batch), 200.0);
}

// --- shm frame validation (pure) ---------------------------------------------

namespace {

using net::shm_frame::FragCursor;
using net::shm_frame::FrameHeader;
using net::shm_frame::kMaxFragPayload;
using net::shm_frame::validate_frame;

FrameHeader frame(int src, std::uint64_t seq, std::uint64_t msg_bytes,
                  std::uint64_t frag_offset, std::uint32_t frag_bytes) {
  FrameHeader h;
  h.src = src;
  h.seq = seq;
  h.msg_bytes = msg_bytes;
  h.frag_offset = frag_offset;
  h.frag_bytes = frag_bytes;
  return h;
}

}  // namespace

TEST(ShmFrame, AcceptsWellFormedFrames) {
  std::vector<FragCursor> cursors(4);
  EXPECT_EQ(validate_frame(frame(3, 1, 100, 0, 100), cursors), nullptr);
  EXPECT_EQ(validate_frame(frame(0, 7, 0, 0, 0), cursors), nullptr);
  const auto k = static_cast<std::uint32_t>(kMaxFragPayload);
  EXPECT_EQ(validate_frame(frame(1, 2, 3 * k, 0, k), cursors), nullptr);
  // The continuation of an open message.
  cursors[1] = FragCursor{true, 2, 3 * std::uint64_t{k}, k};
  EXPECT_EQ(validate_frame(frame(1, 2, 3 * k, k, k), cursors), nullptr);
}

TEST(ShmFrame, RejectsMalformedHeadersBeforeAnyWrite) {
  std::vector<FragCursor> cursors(4);
  const auto k = static_cast<std::uint32_t>(kMaxFragPayload);
  const std::uint64_t top = ~std::uint64_t{0};
  // Source rank out of range (would index the per-source state).
  EXPECT_NE(validate_frame(frame(-1, 1, 8, 0, 8), cursors), nullptr);
  EXPECT_NE(validate_frame(frame(4, 1, 8, 0, 8), cursors), nullptr);
  // Fragment larger than any sender produces.
  EXPECT_NE(
      validate_frame(frame(0, 1, 2 * std::uint64_t{k}, 0, k + 1), cursors),
      nullptr);
  // Fragment past the end of its message, including offset overflow.
  EXPECT_NE(validate_frame(frame(0, 1, 100, 0, 101), cursors), nullptr);
  EXPECT_NE(validate_frame(frame(0, 1, 100, 101, 0), cursors), nullptr);
  EXPECT_NE(validate_frame(frame(0, 1, top, top - 10, 100), cursors), nullptr);
  // Empty fragment of a non-empty message; a message not starting at 0.
  EXPECT_NE(validate_frame(frame(0, 1, 100, 0, 0), cursors), nullptr);
  EXPECT_NE(validate_frame(frame(0, 1, 100, 50, 50), cursors), nullptr);
  // While a message is open: msg_bytes changed, another seq, a gap.
  const std::uint64_t k64 = k;
  cursors[2] = FragCursor{true, 5, 3 * k64, k};
  EXPECT_NE(validate_frame(frame(2, 5, 4 * k64, k, k), cursors), nullptr);
  EXPECT_NE(validate_frame(frame(2, 6, 3 * k64, k, k), cursors), nullptr);
  EXPECT_NE(validate_frame(frame(2, 5, 3 * k64, 2 * k64, k), cursors), nullptr);
}

// --- shm steady path: no heap allocation per frame ---------------------------

TEST(ShmSteadyPath, ExchangeAllocatesNothingPerFrame) {
  net::run_world("shm", 4, [](net::Transport& t) {
    const int p = t.size();
    const cvec send = big_send_buffer(t.rank(), p, /*salt=*/0);
    cvec got(send.size());
    const auto exchange = [&] {
      net::Request rq = t.ialltoall(send, got, kBigBlock,
                                    net::AlltoallAlgo::kPairwise, 0);
      t.wait(rq);
    };
    exchange();  // warm-up: fills the reassembly pool and mailbox capacity
    constexpr int kReps = 3;
    const std::int64_t before = g_operator_news.load();
    for (int i = 0; i < kReps; ++i) exchange();
    const std::int64_t allocs = g_operator_news.load() - before;
    // Each exchange lands (p-1) blocks of 3 MiB in ~60 KiB frames, about
    // 150 frames per rank. It may allocate its request, its receive slots
    // and, for a block that arrives before its slot is posted, one pool
    // buffer — never anything per frame.
    SOI_CHECK(allocs <= kReps * (2 + (p - 1)),
              allocs << " heap allocations over " << kReps
                     << " exchanges on rank " << t.rank());
    check_big_recv(got, t.rank(), p, 0, "steady-state ialltoall");
  });
}
