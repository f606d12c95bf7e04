// SimMPI tests: point-to-point semantics, every collective, both all-to-all
// schedules, traffic recording, error propagation from rank bodies, and the
// fabric cost models.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <mutex>
#include <numeric>
#include <thread>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "common/types.hpp"
#include "net/comm.hpp"
#include "net/costmodel.hpp"
#include "net/erasure.hpp"
#include "net/fault.hpp"
#include "net/topology.hpp"

namespace soi::net {
namespace {

cplx val(int a, int b) { return {static_cast<double>(a), static_cast<double>(b)}; }

// --- wire-latency emulation ---------------------------------------------------

TEST(WireLatency, DelaysVisibilityButNotPayloads) {
  // A 2 ms emulated wire: the receiver must sleep out the flight time yet
  // see exactly the bytes that were sent. The flight is timed from a send
  // timestamp that travels in the message, so scheduling delay on either
  // side can only lengthen the measured time, never shorten it.
  NetOptions opts;
  opts.wire_latency_us = 2000;
  std::atomic<bool> send_returned{false};
  run_ranks(2, opts, [&](Comm& c) {
    const auto now_s = [] {
      return std::chrono::duration<double>(
                 std::chrono::steady_clock::now().time_since_epoch())
          .count();
    };
    if (c.rank() == 0) {
      cvec data = {val(5, 6), cplx(now_s(), 0.0)};
      c.send(1, 3, data);
      // Buffered semantics: the send returns before any receive is posted
      // (rank 1 waits for this flag first, so a blocking send deadlocks).
      send_returned.store(true, std::memory_order_release);
    } else {
      while (!send_returned.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      cvec got(2);
      c.recv(0, 3, got);
      EXPECT_GE(now_s() - got[1].real(), 1.5e-3);
      EXPECT_EQ(got[0], val(5, 6));
    }
  });
}

TEST(WireLatency, NonblockingTestReportsNotReadyInFlight) {
  NetOptions opts;
  opts.wire_latency_us = 5000;
  run_ranks(2, opts, [](Comm& c) {
    if (c.rank() == 0) {
      cvec data = {val(7, 8)};
      c.send(1, 4, data);
    } else {
      cvec got(1);
      auto req = c.irecv(0, 4, got);
      // Immediately after the (ordered) send, the message is still in
      // flight; a poll loop must eventually complete without blocking
      // longer than the flight time per call.
      while (!c.test(req)) {
      }
      c.wait(req);
      EXPECT_EQ(got[0], val(7, 8));
    }
  });
}

TEST(WireLatency, AlltoallBitIdenticalToZeroLatency) {
  const int p = 4;
  const std::int64_t block = 16;
  cvec clean, delayed;
  for (const double lat : {0.0, 500.0}) {
    NetOptions opts;
    opts.wire_latency_us = lat;
    cvec out(static_cast<std::size_t>(p) * static_cast<std::size_t>(p) *
             static_cast<std::size_t>(block));
    std::mutex mu;
    run_ranks(p, opts, [&](Comm& c) {
      cvec in(static_cast<std::size_t>(p * block));
      fill_gaussian(in, 90 + static_cast<std::uint64_t>(c.rank()));
      cvec got(static_cast<std::size_t>(p * block));
      c.alltoall(in, got, block);
      std::lock_guard<std::mutex> lock(mu);
      std::copy(got.begin(), got.end(),
                out.begin() + static_cast<std::ptrdiff_t>(
                                  c.rank() * p * block));
    });
    (lat > 0 ? delayed : clean) = out;
  }
  ASSERT_EQ(clean.size(), delayed.size());
  for (std::size_t i = 0; i < clean.size(); ++i) {
    ASSERT_EQ(std::memcmp(&clean[i], &delayed[i], sizeof(cplx)), 0) << i;
  }
}

// --- point to point -----------------------------------------------------------

TEST(P2P, SimpleSendRecv) {
  run_ranks(2, [](Comm& c) {
    if (c.rank() == 0) {
      cvec data = {val(1, 2), val(3, 4)};
      c.send(1, 7, data);
    } else {
      cvec got(2);
      c.recv(0, 7, got);
      EXPECT_EQ(got[0], val(1, 2));
      EXPECT_EQ(got[1], val(3, 4));
    }
  });
}

TEST(P2P, TagMatchingSelectsRightMessage) {
  run_ranks(2, [](Comm& c) {
    if (c.rank() == 0) {
      cvec a = {val(1, 0)};
      cvec b = {val(2, 0)};
      c.send(1, 10, a);
      c.send(1, 20, b);
    } else {
      cvec got(1);
      // Receive in reverse tag order: matching must be by tag, not arrival.
      c.recv(0, 20, got);
      EXPECT_EQ(got[0], val(2, 0));
      c.recv(0, 10, got);
      EXPECT_EQ(got[0], val(1, 0));
    }
  });
}

TEST(P2P, FifoPerChannel) {
  run_ranks(2, [](Comm& c) {
    const int kCount = 100;
    if (c.rank() == 0) {
      for (int i = 0; i < kCount; ++i) {
        cvec d = {val(i, 0)};
        c.send(1, 1, d);
      }
    } else {
      for (int i = 0; i < kCount; ++i) {
        cvec got(1);
        c.recv(0, 1, got);
        EXPECT_EQ(got[0], val(i, 0)) << "message order violated at " << i;
      }
    }
  });
}

TEST(P2P, AnySourceReceivesFromBoth) {
  run_ranks(3, [](Comm& c) {
    if (c.rank() == 0) {
      double sum = 0;
      for (int i = 0; i < 2; ++i) {
        cvec got(1);
        c.recv(kAnySource, 5, got);
        sum += got[0].real();
      }
      EXPECT_DOUBLE_EQ(sum, 3.0);  // 1 + 2 in either order
    } else {
      cvec d = {val(c.rank(), 0)};
      c.send(0, 5, d);
    }
  });
}

TEST(P2P, SizeMismatchThrows) {
  EXPECT_THROW(run_ranks(2,
                         [](Comm& c) {
                           if (c.rank() == 0) {
                             cvec d(3);
                             c.send(1, 1, d);
                           } else {
                             cvec got(5);  // wrong size
                             c.recv(0, 1, got);
                           }
                         }),
               Error);
}

TEST(P2P, NegativeUserTagRejected) {
  EXPECT_THROW(run_ranks(1,
                         [](Comm& c) {
                           cvec d(1);
                           c.send(0, -1, d);
                         }),
               Error);
}

TEST(P2P, OutOfRangeDestinationRejected) {
  EXPECT_THROW(run_ranks(1,
                         [](Comm& c) {
                           cvec d(1);
                           c.send(3, 0, d);
                         }),
               Error);
}

TEST(P2P, SendRecvRingDoesNotDeadlock) {
  const int p = 8;
  run_ranks(p, [p](Comm& c) {
    const int right = (c.rank() + 1) % p;
    const int left = (c.rank() - 1 + p) % p;
    cvec mine = {val(c.rank(), 0)};
    cvec got(1);
    c.sendrecv(right, mine, left, got, 3);
    EXPECT_EQ(got[0], val(left, 0));
  });
}

// --- exceptions ---------------------------------------------------------------

TEST(Runtime, RankExceptionPropagates) {
  EXPECT_THROW(run_ranks(4,
                         [](Comm& c) {
                           if (c.rank() == 2) throw Error("rank 2 failed");
                         }),
               Error);
}

TEST(Runtime, NeedsAtLeastOneRank) {
  EXPECT_THROW(run_ranks(0, [](Comm&) {}), Error);
}

// --- collectives ----------------------------------------------------------------

TEST(Collectives, Barrier) {
  std::atomic<int> phase1{0};
  std::atomic<bool> violated{false};
  run_ranks(6, [&](Comm& c) {
    phase1.fetch_add(1);
    c.barrier();
    if (phase1.load() != 6) violated.store(true);
    c.barrier();
  });
  EXPECT_FALSE(violated.load());
}

TEST(Collectives, BarrierReusable) {
  run_ranks(4, [](Comm& c) {
    for (int i = 0; i < 50; ++i) c.barrier();
  });
}

TEST(Collectives, Bcast) {
  run_ranks(5, [](Comm& c) {
    cvec data(3);
    if (c.rank() == 2) data = {val(7, 1), val(8, 2), val(9, 3)};
    c.bcast(data, 2);
    EXPECT_EQ(data[0], val(7, 1));
    EXPECT_EQ(data[2], val(9, 3));
  });
}

TEST(Collectives, Gather) {
  const int p = 4;
  run_ranks(p, [p](Comm& c) {
    cvec mine = {val(c.rank(), 0), val(c.rank(), 1)};
    cvec all(static_cast<std::size_t>(2 * p));
    c.gather(mine, all, 1);
    if (c.rank() == 1) {
      for (int r = 0; r < p; ++r) {
        EXPECT_EQ(all[static_cast<std::size_t>(2 * r)], val(r, 0));
        EXPECT_EQ(all[static_cast<std::size_t>(2 * r + 1)], val(r, 1));
      }
    }
  });
}

TEST(Collectives, Allgather) {
  const int p = 5;
  run_ranks(p, [p](Comm& c) {
    cvec mine = {val(c.rank() * 10, 0)};
    cvec all(static_cast<std::size_t>(p));
    c.allgather(mine, all);
    for (int r = 0; r < p; ++r) {
      EXPECT_EQ(all[static_cast<std::size_t>(r)], val(r * 10, 0));
    }
  });
}

TEST(Collectives, AllreduceSumAndMax) {
  const int p = 7;
  run_ranks(p, [p](Comm& c) {
    const double sum = c.allreduce_sum(static_cast<double>(c.rank() + 1));
    EXPECT_DOUBLE_EQ(sum, p * (p + 1) / 2.0);
    const double mx = c.allreduce_max(static_cast<double>(c.rank()));
    EXPECT_DOUBLE_EQ(mx, p - 1.0);
  });
}

TEST(Collectives, AllreduceReusable) {
  run_ranks(3, [](Comm& c) {
    for (int i = 0; i < 30; ++i) {
      const double v = c.allreduce_sum(1.0);
      EXPECT_DOUBLE_EQ(v, 3.0);
    }
  });
}

// --- all-to-all -------------------------------------------------------------------

void check_alltoall(int p, std::int64_t count, AlltoallAlgo algo) {
  run_ranks(p, [=](Comm& c) {
    // Block d carries (src, dst, element) encoded values.
    cvec send(static_cast<std::size_t>(p * count));
    for (int d = 0; d < p; ++d) {
      for (std::int64_t e = 0; e < count; ++e) {
        send[static_cast<std::size_t>(d * count + e)] =
            val(c.rank() * 1000 + d, static_cast<int>(e));
      }
    }
    cvec recv(static_cast<std::size_t>(p * count));
    c.alltoall(send, recv, count, algo);
    for (int s = 0; s < p; ++s) {
      for (std::int64_t e = 0; e < count; ++e) {
        EXPECT_EQ(recv[static_cast<std::size_t>(s * count + e)],
                  val(s * 1000 + c.rank(), static_cast<int>(e)))
            << "from " << s << " elem " << e;
      }
    }
  });
}

TEST(Alltoall, PairwiseCorrect) { check_alltoall(6, 5, AlltoallAlgo::kPairwise); }
TEST(Alltoall, DirectCorrect) { check_alltoall(6, 5, AlltoallAlgo::kDirect); }
TEST(Alltoall, SingleRank) { check_alltoall(1, 4, AlltoallAlgo::kPairwise); }
TEST(Alltoall, TwoRanks) { check_alltoall(2, 9, AlltoallAlgo::kDirect); }
TEST(Alltoall, ManyRanks) { check_alltoall(16, 3, AlltoallAlgo::kPairwise); }

TEST(Alltoall, RepeatedCallsStayConsistent) {
  run_ranks(4, [](Comm& c) {
    for (int iter = 0; iter < 20; ++iter) {
      cvec send(4), recv(4);
      for (int d = 0; d < 4; ++d) send[static_cast<std::size_t>(d)] = val(iter, d);
      c.alltoall(send, recv, 1);
      for (int s = 0; s < 4; ++s) {
        EXPECT_EQ(recv[static_cast<std::size_t>(s)], val(iter, c.rank()));
      }
    }
  });
}

TEST(Alltoall, SchedulesProduceIdenticalResults) {
  // kPairwise and kDirect are two schedules of the SAME collective; for
  // identical inputs their outputs must match element for element.
  const int p = 8;
  const std::int64_t count = 7;
  run_ranks(p, [=](Comm& c) {
    cvec send(static_cast<std::size_t>(p * count));
    fill_gaussian(send, static_cast<std::uint64_t>(c.rank()) + 41);
    cvec via_pairwise(send.size());
    cvec via_direct(send.size());
    c.alltoall(send, via_pairwise, count, AlltoallAlgo::kPairwise);
    c.alltoall(send, via_direct, count, AlltoallAlgo::kDirect);
    for (std::size_t i = 0; i < send.size(); ++i) {
      ASSERT_EQ(via_pairwise[i], via_direct[i]) << "element " << i;
    }
  });
}

TEST(Alltoallv, ZeroCountRanksAndRaggedDisplacements) {
  // Rank r sends nothing to d whenever (r + d) % 3 == 0 (so some rank
  // pairs exchange zero elements, and rank 0 sends nothing to rank 3 and
  // vice versa), and the send/recv blocks are laid out with 3-element
  // sentinel gaps between them — the collective must honour the given
  // displacements exactly and leave the gaps untouched.
  const int p = 4;
  const std::int64_t kGap = 3;
  const cplx sentinel = val(-7, -7);
  auto count_for = [](int src, int dst) -> std::int64_t {
    return (src + dst) % 3 == 0 ? 0 : src + 2 * dst + 1;
  };
  run_ranks(p, [&](Comm& c) {
    std::vector<std::int64_t> scnt(p), sdsp(p), rcnt(p), rdsp(p);
    std::int64_t soff = 0;
    std::int64_t roff = 0;
    for (int d = 0; d < p; ++d) {
      scnt[static_cast<std::size_t>(d)] = count_for(c.rank(), d);
      sdsp[static_cast<std::size_t>(d)] = soff;
      soff += scnt[static_cast<std::size_t>(d)] + kGap;
      rcnt[static_cast<std::size_t>(d)] = count_for(d, c.rank());
      rdsp[static_cast<std::size_t>(d)] = roff;
      roff += rcnt[static_cast<std::size_t>(d)] + kGap;
    }
    cvec send(static_cast<std::size_t>(soff), sentinel);
    for (int d = 0; d < p; ++d) {
      for (std::int64_t e = 0; e < scnt[static_cast<std::size_t>(d)]; ++e) {
        send[static_cast<std::size_t>(sdsp[static_cast<std::size_t>(d)] + e)] =
            val(c.rank() * 100 + d, static_cast<int>(e));
      }
    }
    cvec recv(static_cast<std::size_t>(roff), sentinel);
    c.alltoallv(send, scnt, sdsp, recv, rcnt, rdsp);
    for (int s = 0; s < p; ++s) {
      const auto base = rdsp[static_cast<std::size_t>(s)];
      for (std::int64_t e = 0; e < rcnt[static_cast<std::size_t>(s)]; ++e) {
        EXPECT_EQ(recv[static_cast<std::size_t>(base + e)],
                  val(s * 100 + c.rank(), static_cast<int>(e)))
            << "from " << s << " elem " << e;
      }
      // The gap after each block must keep its sentinel fill.
      for (std::int64_t g = 0; g < kGap; ++g) {
        EXPECT_EQ(recv[static_cast<std::size_t>(
                      base + rcnt[static_cast<std::size_t>(s)] + g)],
                  sentinel)
            << "gap after block " << s << " clobbered at +" << g;
      }
    }
  });
}

TEST(Alltoallv, VariableCounts) {
  const int p = 4;
  run_ranks(p, [p](Comm& c) {
    // Rank r sends (d+1) elements to destination d.
    std::vector<std::int64_t> scnt(p), sdsp(p), rcnt(p), rdsp(p);
    std::int64_t off = 0;
    for (int d = 0; d < p; ++d) {
      scnt[static_cast<std::size_t>(d)] = d + 1;
      sdsp[static_cast<std::size_t>(d)] = off;
      off += d + 1;
    }
    cvec send(static_cast<std::size_t>(off));
    for (int d = 0; d < p; ++d) {
      for (std::int64_t e = 0; e < scnt[static_cast<std::size_t>(d)]; ++e) {
        send[static_cast<std::size_t>(sdsp[static_cast<std::size_t>(d)] + e)] =
            val(c.rank(), d);
      }
    }
    // Everyone receives rank()+1 elements from each source.
    off = 0;
    for (int s = 0; s < p; ++s) {
      rcnt[static_cast<std::size_t>(s)] = c.rank() + 1;
      rdsp[static_cast<std::size_t>(s)] = off;
      off += c.rank() + 1;
    }
    cvec recv(static_cast<std::size_t>(off));
    c.alltoallv(send, scnt, sdsp, recv, rcnt, rdsp);
    for (int s = 0; s < p; ++s) {
      for (std::int64_t e = 0; e < rcnt[static_cast<std::size_t>(s)]; ++e) {
        EXPECT_EQ(recv[static_cast<std::size_t>(rdsp[static_cast<std::size_t>(s)] + e)],
                  val(s, c.rank()));
      }
    }
  });
}

// --- nonblocking requests --------------------------------------------------------

TEST(Nonblocking, IsendCompletesAtPostIrecvOnWait) {
  run_ranks(2, [](Comm& c) {
    if (c.rank() == 0) {
      cvec d = {val(5, 6)};
      Request s = c.isend(1, 3, d);
      EXPECT_TRUE(s.active());
      EXPECT_TRUE(s.done());  // buffered: finished at post time
      c.wait(s);              // must be a no-op, not a hang
    } else {
      cvec got(1);
      Request r = c.irecv(0, 3, got);
      EXPECT_TRUE(r.active());
      c.wait(r);
      EXPECT_TRUE(r.done());
      EXPECT_EQ(r.source(), 0);
      EXPECT_EQ(got[0], val(5, 6));
    }
  });
}

TEST(Nonblocking, TestNeverBlocksAndEventuallyCompletes) {
  run_ranks(2, [](Comm& c) {
    if (c.rank() == 1) {
      cvec got(1);
      Request r = c.irecv(0, 9, got);
      // The sender is held behind the barrier: this test() must see an
      // empty mailbox and return false rather than block.
      EXPECT_FALSE(c.test(r));
      c.barrier();
      while (!c.test(r)) {
      }
      EXPECT_EQ(r.source(), 0);
      EXPECT_EQ(got[0], val(4, 4));
    } else {
      c.barrier();
      cvec d = {val(4, 4)};
      c.send(1, 9, d);
    }
  });
}

TEST(Nonblocking, AnySourceIrecvReportsMatchedSource) {
  run_ranks(3, [](Comm& c) {
    if (c.rank() == 0) {
      cvec got(1);
      Request r = c.irecv(kAnySource, 4, got);
      c.wait(r);
      const int first = r.source();
      EXPECT_TRUE(first == 1 || first == 2);
      EXPECT_EQ(got[0], val(first, 0));
      Request r2 = c.irecv(kAnySource, 4, got);
      c.wait(r2);
      EXPECT_EQ(r2.source(), 3 - first);  // the other sender
      EXPECT_EQ(got[0], val(3 - first, 0));
    } else {
      cvec d = {val(c.rank(), 0)};
      c.send(0, 4, d);
    }
  });
}

TEST(Nonblocking, WaitallCoversMixedDirections) {
  const int p = 4;
  run_ranks(p, [p](Comm& c) {
    const int right = (c.rank() + 1) % p;
    const int left = (c.rank() - 1 + p) % p;
    cvec out = {val(c.rank(), 7)};
    cvec in(1);
    std::vector<Request> reqs;
    reqs.push_back(c.irecv(left, 2, in));
    reqs.push_back(c.isend(right, 2, out));
    c.waitall(reqs);
    EXPECT_EQ(in[0], val(left, 7));
  });
}

TEST(Nonblocking, DroppedIrecvLeavesMessageForBlockingRecv) {
  run_ranks(2, [](Comm& c) {
    if (c.rank() == 0) {
      cvec d = {val(8, 1)};
      c.send(1, 6, d);
      c.barrier();
    } else {
      cvec a(1);
      {
        // Dropped untested: a passive handle has no effect on the mailbox.
        [[maybe_unused]] Request r = c.irecv(0, 6, a);
      }
      c.barrier();  // the message is certainly queued by now
      cvec b(1);
      c.recv(0, 6, b);
      EXPECT_EQ(b[0], val(8, 1));
    }
  });
}

void check_ialltoall(int p, std::int64_t count, AlltoallAlgo algo) {
  run_ranks(p, [=](Comm& c) {
    cvec send(static_cast<std::size_t>(p * count));
    fill_gaussian(send, static_cast<std::uint64_t>(c.rank()) + 71);
    cvec blocking(send.size());
    c.alltoall(send, blocking, count, algo);
    cvec nb(send.size());
    Request r = c.ialltoall(send, nb, count, algo);
    c.wait(r);
    EXPECT_TRUE(r.done());
    for (std::size_t i = 0; i < send.size(); ++i) {
      ASSERT_EQ(nb[i], blocking[i]) << "element " << i;
    }
  });
}

TEST(Nonblocking, IalltoallPairwiseMatchesBlocking) {
  check_ialltoall(6, 5, AlltoallAlgo::kPairwise);
}
TEST(Nonblocking, IalltoallDirectMatchesBlocking) {
  check_ialltoall(6, 5, AlltoallAlgo::kDirect);
}
TEST(Nonblocking, IalltoallTwoRanks) {
  check_ialltoall(2, 9, AlltoallAlgo::kDirect);
}

TEST(Nonblocking, TwoInFlightCollectivesDisambiguatedBySequence) {
  const int p = 4;
  const std::int64_t count = 3;
  run_ranks(p, [=](Comm& c) {
    cvec s1(static_cast<std::size_t>(p * count));
    cvec s2(s1.size());
    fill_gaussian(s1, static_cast<std::uint64_t>(c.rank()) + 100);
    fill_gaussian(s2, static_cast<std::uint64_t>(c.rank()) + 200);
    cvec r1(s1.size()), r2(s2.size());
    Request q1 = c.ialltoall(s1, r1, count);
    Request q2 = c.ialltoall(s2, r2, count);
    // Complete in reverse post order: block matching must go by the
    // collective sequence number, not by arrival interleaving.
    c.wait(q2);
    c.wait(q1);
    cvec e1(s1.size()), e2(s2.size());
    c.alltoall(s1, e1, count);
    c.alltoall(s2, e2, count);
    for (std::size_t i = 0; i < e1.size(); ++i) {
      ASSERT_EQ(r1[i], e1[i]) << "first collective, element " << i;
      ASSERT_EQ(r2[i], e2[i]) << "second collective, element " << i;
    }
  });
}

TEST(Nonblocking, IalltoallvMatchesBlocking) {
  const int p = 4;
  run_ranks(p, [p](Comm& c) {
    // Rank r sends (d+1) elements to destination d (VariableCounts layout).
    std::vector<std::int64_t> scnt(p), sdsp(p), rcnt(p), rdsp(p);
    std::int64_t off = 0;
    for (int d = 0; d < p; ++d) {
      scnt[static_cast<std::size_t>(d)] = d + 1;
      sdsp[static_cast<std::size_t>(d)] = off;
      off += d + 1;
    }
    cvec send(static_cast<std::size_t>(off));
    fill_gaussian(send, static_cast<std::uint64_t>(c.rank()) + 9);
    off = 0;
    for (int s = 0; s < p; ++s) {
      rcnt[static_cast<std::size_t>(s)] = c.rank() + 1;
      rdsp[static_cast<std::size_t>(s)] = off;
      off += c.rank() + 1;
    }
    cvec blocking(static_cast<std::size_t>(off));
    c.alltoallv(send, scnt, sdsp, blocking, rcnt, rdsp);
    cvec nb(blocking.size());
    Request r = c.ialltoallv(send, scnt, sdsp, nb, rcnt, rdsp);
    c.wait(r);
    for (std::size_t i = 0; i < nb.size(); ++i) {
      ASSERT_EQ(nb[i], blocking[i]) << "element " << i;
    }
  });
}

// --- resilience regressions -------------------------------------------------

TEST(Fault, DroppedLiveIalltoallDoesNotPoisonLaterTraffic) {
  // Regression for the dropped-without-wait footgun: a Request abandoned
  // while its collective is still in flight must cancel that collective's
  // deliveries instead of leaving stale blocks to be matched by the next
  // exchange. Every rank shares the collective sequence counter, so all
  // ranks cancel the same tag.
  const int p = 4;
  const std::int64_t count = 3;
  run_ranks(p, [=](Comm& c) {
    cvec s1(static_cast<std::size_t>(p * count));
    fill_gaussian(s1, static_cast<std::uint64_t>(c.rank()) + 300);
    cvec r1(s1.size());
    {
      [[maybe_unused]] Request dropped = c.ialltoall(s1, r1, count);
      // goes out of scope unwaited
    }
    c.barrier();
    cvec s2(s1.size());
    fill_gaussian(s2, static_cast<std::uint64_t>(c.rank()) + 400);
    cvec r2(s2.size()), expect(s2.size());
    c.alltoall(s2, r2, count);
    c.alltoall(s2, expect, count);
    for (std::size_t i = 0; i < r2.size(); ++i) {
      ASSERT_EQ(r2[i], expect[i]) << "element " << i;
    }
  });
}

TEST(Fault, WaitForTimesOutThenCompletes) {
  run_ranks(2, [](Comm& c) {
    if (c.rank() == 0) {
      c.barrier();  // released only after rank 1's first wait expired
      cvec d = {val(4, 2)};
      c.send(1, 9, d);
    } else {
      cvec in(1);
      Request r = c.irecv(0, 9, in);
      EXPECT_FALSE(c.wait_for(r, 30.0));  // peer is silent: must time out
      c.barrier();
      EXPECT_TRUE(c.wait_for(r, 5000.0));
      EXPECT_EQ(in[0], val(4, 2));
    }
  });
}

TEST(Fault, DuplicateInjectionIsCountedAndAbsorbed) {
  NetOptions opts;
  opts.faults = FaultSpec::parse("17:duplicate:1");
  run_ranks(2, opts, [](Comm& c) {
    cvec send = {val(c.rank(), 1), val(c.rank(), 2)};  // send[d] = val(r, d+1)
    cvec got(send.size());
    c.alltoall(send, got, 1);
    for (int s = 0; s < 2; ++s) {
      EXPECT_EQ(got[static_cast<std::size_t>(s)], val(s, c.rank() + 1));
    }
    c.barrier();
    if (c.rank() == 0) {
      const FaultStats st = c.fault_stats();
      EXPECT_GT(st.duplicates, 0);
      EXPECT_EQ(st.faults_injected, st.duplicates);
    }
  });
}

// --- try_recv (built on the Request layer) ---------------------------------------

TEST(TryRecv, FalseWhenNothingQueued) {
  run_ranks(2, [](Comm& c) {
    if (c.rank() == 0) {
      cvec got(1);
      EXPECT_FALSE(c.try_recv(1, 5, got));
      EXPECT_FALSE(c.try_recv(kAnySource, 5, got));
    }
    c.barrier();
  });
}

TEST(TryRecv, ConsumesQueuedMessageExactlyOnce) {
  run_ranks(2, [](Comm& c) {
    if (c.rank() == 0) {
      cvec d = {val(3, 3)};
      c.send(1, 8, d);
      c.barrier();
    } else {
      c.barrier();
      cvec got(1);
      EXPECT_TRUE(c.try_recv(0, 8, got));
      EXPECT_EQ(got[0], val(3, 3));
      EXPECT_FALSE(c.try_recv(0, 8, got));
    }
  });
}

TEST(TryRecv, AnySourceWithInterleavedTags) {
  // Two senders each queue one tag-1 and one tag-2 message. A wildcard
  // drain of tag 1 must consume exactly the two tag-1 messages and leave
  // both tag-2 messages matchable afterwards.
  run_ranks(3, [](Comm& c) {
    if (c.rank() != 0) {
      cvec a = {val(c.rank(), 1)};
      cvec b = {val(c.rank(), 2)};
      c.send(0, 1, a);
      c.send(0, 2, b);
      c.barrier();
    } else {
      c.barrier();  // all four messages queued
      cvec got(1);
      int hits = 0;
      double tag1_sum = 0.0;
      while (c.try_recv(kAnySource, 1, got)) {
        EXPECT_DOUBLE_EQ(got[0].imag(), 1.0);
        tag1_sum += got[0].real();
        ++hits;
      }
      EXPECT_EQ(hits, 2);
      EXPECT_DOUBLE_EQ(tag1_sum, 3.0);  // senders 1 + 2
      double tag2_sum = 0.0;
      for (int i = 0; i < 2; ++i) {
        ASSERT_TRUE(c.try_recv(kAnySource, 2, got));
        EXPECT_DOUBLE_EQ(got[0].imag(), 2.0);
        tag2_sum += got[0].real();
      }
      EXPECT_DOUBLE_EQ(tag2_sum, 3.0);
      EXPECT_FALSE(c.try_recv(kAnySource, 2, got));
    }
  });
}

TEST(TryRecv, UnaffectedByInFlightAlltoall) {
  // A wildcard try_recv must never match the internal messages of an
  // in-flight collective, under either all-to-all schedule.
  for (const auto algo : {AlltoallAlgo::kPairwise, AlltoallAlgo::kDirect}) {
    const int p = 4;
    run_ranks(p, [=](Comm& c) {
      if (c.rank() == 1) {
        cvec d = {val(42, 0)};
        c.send(0, 77, d);
      }
      c.barrier();  // the user message is queued before the collective
      cvec send(static_cast<std::size_t>(p));
      cvec recv(send.size());
      for (int d = 0; d < p; ++d) {
        send[static_cast<std::size_t>(d)] = val(c.rank(), d);
      }
      Request q = c.ialltoall(send, recv, 1, algo);
      if (c.rank() == 0) {
        cvec got(1);
        EXPECT_TRUE(c.try_recv(kAnySource, 77, got));
        EXPECT_EQ(got[0], val(42, 0));
        // Collective blocks are queued but carry internal tags only.
        EXPECT_FALSE(c.try_recv(kAnySource, 77, got));
      }
      c.wait(q);
      for (int s = 0; s < p; ++s) {
        EXPECT_EQ(recv[static_cast<std::size_t>(s)], val(s, c.rank()));
      }
    });
  }
}

// --- stress / interleaving -------------------------------------------------------

TEST(Stress, ManyInterleavedOperations) {
  // Every rank alternates p2p traffic, collectives and all-to-alls in a
  // data-dependent order; correctness of the matching and FIFO rules under
  // heavy interleaving is what this hammers.
  const int p = 6;
  const int rounds = 25;
  run_ranks(p, [&](Comm& c) {
    Rng rng(static_cast<std::uint64_t>(c.rank()) * 31 + 7);
    for (int round = 0; round < rounds; ++round) {
      // Ring p2p with round-tagged messages.
      const int right = (c.rank() + 1) % p;
      const int left = (c.rank() - 1 + p) % p;
      cvec token = {val(c.rank(), round)};
      cvec got(1);
      c.sendrecv(right, token, left, got, 100 + round);
      ASSERT_EQ(got[0], val(left, round));
      // All-to-all with payload derived from the round.
      cvec send(static_cast<std::size_t>(p));
      for (int d = 0; d < p; ++d) {
        send[static_cast<std::size_t>(d)] = val(c.rank() * 100 + d, round);
      }
      cvec recv(static_cast<std::size_t>(p));
      c.alltoall(send, recv, 1,
                 round % 2 == 0 ? AlltoallAlgo::kPairwise
                                : AlltoallAlgo::kDirect);
      for (int s = 0; s < p; ++s) {
        ASSERT_EQ(recv[static_cast<std::size_t>(s)],
                  val(s * 100 + c.rank(), round));
      }
      // Reduction sanity interleaved with everything else.
      const double sum = c.allreduce_sum(1.0);
      ASSERT_DOUBLE_EQ(sum, static_cast<double>(p));
      // Random extra sends to keep mailboxes busy (drained same round).
      const int buddy = static_cast<int>(rng.uniform_index(p));
      if (buddy != c.rank()) {
        cvec extra = {val(round, buddy)};
        c.send(buddy, 5000 + round, extra);
      }
      c.barrier();
      // Drain whatever arrived this round.
      for (int s = 0; s < p; ++s) {
        if (s == c.rank()) continue;
        // Peek-free drain: we cannot know who sent, so the sender tells us
        // via a count exchange.
      }
      c.barrier();
      // Collect the extras deterministically: each rank announces its
      // buddy via allgather, then receivers pull the message.
      cvec mine = {val(buddy, 0)};
      cvec all(static_cast<std::size_t>(p));
      c.allgather(mine, all);
      for (int s = 0; s < p; ++s) {
        if (s == c.rank()) continue;
        const int their_buddy =
            static_cast<int>(all[static_cast<std::size_t>(s)].real());
        if (their_buddy == c.rank()) {
          cvec extra(1);
          c.recv(s, 5000 + round, extra);
          ASSERT_EQ(extra[0], val(round, c.rank()));
        }
      }
    }
  });
}

TEST(Stress, LargePayloadAlltoall) {
  const int p = 4;
  const std::int64_t count = 1 << 15;  // 2 MiB per pair
  run_ranks(p, [&](Comm& c) {
    cvec send(static_cast<std::size_t>(p * count));
    fill_gaussian(send, static_cast<std::uint64_t>(c.rank()));
    cvec recv(send.size());
    c.alltoall(send, recv, count);
    // Spot-check a value from each source block.
    for (int s = 0; s < p; ++s) {
      cvec theirs(static_cast<std::size_t>(p * count));
      fill_gaussian(theirs, static_cast<std::uint64_t>(s));
      EXPECT_EQ(recv[static_cast<std::size_t>(s * count + 17)],
                theirs[static_cast<std::size_t>(c.rank() * count + 17)]);
    }
  });
}

TEST(Stress, RepeatedWorldsAreIndependent) {
  for (int iter = 0; iter < 10; ++iter) {
    run_ranks(3, [iter](Comm& c) {
      const double v = c.allreduce_sum(static_cast<double>(iter));
      ASSERT_DOUBLE_EQ(v, 3.0 * iter);
    });
  }
}

// --- traffic recording ---------------------------------------------------------

TEST(Traffic, AlltoallRecordedOnce) {
  auto events = run_ranks(4, [](Comm& c) {
    cvec send(8), recv(8);
    c.alltoall(send, recv, 2);
  });
  const TrafficTotals t = summarize_events(events);
  EXPECT_EQ(t.alltoall_calls, 1);
  // 2 complex * 16 bytes * 3 destinations
  EXPECT_EQ(t.alltoall_bytes_per_rank, 2 * 16 * 3);
  EXPECT_EQ(t.p2p_messages, 0);  // internal sends must not double-count
}

TEST(Traffic, P2PRecorded) {
  auto events = run_ranks(2, [](Comm& c) {
    if (c.rank() == 0) {
      cvec d(4);
      c.send(1, 0, d);
    } else {
      cvec d(4);
      c.recv(0, 0, d);
    }
  });
  const TrafficTotals t = summarize_events(events);
  EXPECT_EQ(t.p2p_messages, 1);
  EXPECT_EQ(t.p2p_bytes, 4 * 16);
}

// --- cost models ------------------------------------------------------------------

TEST(CostModel, SingleNodeAlltoallIsFree) {
  FatTreeModel ft;
  Torus3DModel torus;
  EthernetModel eth;
  EXPECT_EQ(ft.alltoall_seconds(1, 1 << 20), 0.0);
  EXPECT_EQ(torus.alltoall_seconds(1, 1 << 20), 0.0);
  EXPECT_EQ(eth.alltoall_seconds(1, 1 << 20), 0.0);
}

TEST(CostModel, FatTreeBandwidthBound) {
  FatTreeModel ft(LinkSpec{40.0, 0.0}, 32, 0.35);
  // 40 Gbit/s link, 5 GB payload -> 1 second at <= 32 nodes.
  const double t = ft.alltoall_seconds(16, 5LL * 1000 * 1000 * 1000);
  EXPECT_NEAR(t, 1.0, 1e-9);
}

TEST(CostModel, FatTreePenaltyBeyondFullBisection) {
  FatTreeModel ft(LinkSpec{40.0, 0.0}, 32, 0.35);
  const std::int64_t bytes = 1 << 26;
  const double t32 = ft.alltoall_seconds(32, bytes);
  const double t64 = ft.alltoall_seconds(64, bytes);
  const double t256 = ft.alltoall_seconds(256, bytes);
  EXPECT_GT(t64, t32);
  EXPECT_GT(t256, t64);
  EXPECT_NEAR(t64 / t32, std::pow(2.0, 0.35), 1e-9);
}

TEST(CostModel, TorusRadix) {
  Torus3DModel torus(LinkSpec{40.0, 0.0}, 120.0, 16);
  EXPECT_EQ(torus.radix_for(16), 1);
  EXPECT_EQ(torus.radix_for(128), 2);
  EXPECT_EQ(torus.radix_for(1024), 4);
  EXPECT_EQ(torus.radix_for(1025), 5);
}

TEST(CostModel, TorusLocalBoundSmallBisectionBoundLarge) {
  Torus3DModel torus(LinkSpec{40.0, 0.0}, 120.0, 16);
  const std::int64_t bytes = 1LL << 30;
  // Small systems: local link bound == bytes/40Gbit regardless of n.
  const double t_small = torus.alltoall_seconds(64, bytes);
  EXPECT_NEAR(t_small, 8.0 * static_cast<double>(bytes) / 40e9, 1e-9);
  // Large systems: bisection dominates and grows with n (k grows).
  const double t_2k = torus.alltoall_seconds(2048, bytes);
  const double t_16k = torus.alltoall_seconds(16384, bytes);
  EXPECT_GT(t_2k, t_small);
  EXPECT_GT(t_16k, t_2k);
}

TEST(CostModel, TorusBisectionFormula) {
  Torus3DModel torus(LinkSpec{40.0, 0.0}, 120.0, 16);
  const int n = 16384;  // k = 10.08... -> radix 11? 16*10^3=16000 < 16384 -> k=11
  const int k = torus.radix_for(n);
  EXPECT_EQ(k, 11);
  const std::int64_t bytes = 1LL << 30;
  const double total_bits = 8.0 * static_cast<double>(bytes) * n;
  // Bisection channels of the k-ary 3-cube: 4k^2.
  const double expect =
      (total_bits / 2.0) / (4.0 * static_cast<double>(k * k) * 120e9);
  EXPECT_NEAR(torus.alltoall_seconds(n, bytes), expect, expect * 1e-9);
}

TEST(CostModel, EthernetSlowerThanIB) {
  EthernetModel eth(LinkSpec{10.0, 0.0});
  FatTreeModel ft(LinkSpec{40.0, 0.0}, 32, 0.35);
  const std::int64_t bytes = 1 << 24;
  EXPECT_NEAR(eth.alltoall_seconds(8, bytes) / ft.alltoall_seconds(8, bytes),
              4.0, 1e-6);
}

TEST(CostModel, EventsSecondsAggregates) {
  auto model = make_endeavor_fat_tree();
  std::vector<CommEvent> events;
  events.push_back({CommEvent::Kind::kAlltoall, 8, 1 << 20, 7});
  events.push_back({CommEvent::Kind::kP2P, 2, 1 << 10, 1});
  const double t = model->events_seconds(events);
  EXPECT_GT(t, 0.0);
  EXPECT_NEAR(t,
              model->alltoall_seconds(8, 1 << 20) + model->p2p_seconds(1 << 10),
              1e-12);
}

TEST(CostModel, InvalidInputsThrow) {
  FatTreeModel ft;
  EXPECT_THROW((void)ft.alltoall_seconds(0, 100), Error);
  EXPECT_THROW(Torus3DModel(LinkSpec{}, -1.0, 16), Error);
}

// --- topology-aware staged exchange ------------------------------------------

TEST(Topology, ParseAndStrRoundTrip) {
  EXPECT_EQ(Topology::parse("", 8).kind(), TopologyKind::kFlat);
  EXPECT_EQ(Topology::parse("flat", 8).kind(), TopologyKind::kFlat);
  // Auto shapes canonicalise: group size nearest sqrt(ranks), near-cube
  // torus dims in decreasing order.
  EXPECT_EQ(Topology::parse("two-level", 8).str(), "two-level:2");
  EXPECT_EQ(Topology::parse("two-level:4", 8).str(), "two-level:4");
  EXPECT_EQ(Topology::parse("torus", 8).str(), "torus:2x2x2");
  EXPECT_EQ(Topology::parse("torus:4x2x1", 8).str(), "torus:4x2x1");
  for (const char* text : {"two-level:4", "torus:4x2x1"}) {
    EXPECT_EQ(Topology::parse(Topology::parse(text, 8).str(), 8).str(),
              Topology::parse(text, 8).str());
  }
  EXPECT_THROW(Topology::parse("ring", 8), Error);
  EXPECT_THROW(Topology::parse("two-level:3", 8), Error);  // not a divisor
  EXPECT_THROW(Topology::parse("torus:3x3x1", 8), Error);  // product != 8
}

TEST(Topology, RoutingConvergesToDestinationEveryPair) {
  for (const Topology& topo :
       {Topology::two_level(12), Topology::two_level(12, 6),
        Topology::torus(12), Topology::torus(8, 2, 2, 2)}) {
    for (int src = 0; src < topo.ranks(); ++src) {
      for (int dst = 0; dst < topo.ranks(); ++dst) {
        int holder = src;
        for (int ph = 0; ph < topo.phases(); ++ph) {
          holder = topo.route(ph, holder, dst);
        }
        EXPECT_EQ(holder, dst) << topo.str() << " src=" << src;
      }
    }
  }
}

TEST(Topology, StagedPlanConservesBlocksAndCutsMessageCount) {
  for (const Topology& topo : {Topology::two_level(8), Topology::torus(8)}) {
    const StagedPlan plan0 = build_staged_plan(topo, 0);
    // Fewer total messages than the flat all-to-all's R*(R-1)...
    EXPECT_LT(plan0.total_messages,
              static_cast<std::int64_t>(topo.ranks()) * (topo.ranks() - 1))
        << topo.str();
    // ...while every rank still ends up holding one block per source.
    for (int r = 0; r < topo.ranks(); ++r) {
      const StagedPlan plan = build_staged_plan(topo, r);
      std::vector<int> seen(static_cast<std::size_t>(topo.ranks()), 0);
      ASSERT_EQ(plan.final_src.size(),
                static_cast<std::size_t>(topo.ranks()));
      for (const int src : plan.final_src) {
        ASSERT_GE(src, 0);
        ASSERT_LT(src, topo.ranks());
        ++seen[static_cast<std::size_t>(src)];
      }
      for (const int count : seen) EXPECT_EQ(count, 1) << topo.str();
    }
  }
  // The aligned two-level cut moves the same bisection bytes as flat; the
  // torus store-and-forward moves at least as many.
  EXPECT_EQ(build_staged_plan(Topology::two_level(8, 4), 0).bisection_blocks,
            flat_bisection_blocks(8));
  EXPECT_GE(build_staged_plan(Topology::torus(8), 0).bisection_blocks,
            flat_bisection_blocks(8));
}

TEST(StagedAlltoall, BitIdenticalToBlockingAlltoall) {
  for (const int ranks : {4, 8}) {
    for (const Topology& topo :
         {Topology::two_level(ranks), Topology::torus(ranks)}) {
      const std::int64_t count = 37;  // odd block size: no alignment luck
      run_ranks(ranks, [&](Comm& c) {
        const StagedPlan plan = build_staged_plan(topo, c.rank());
        cvec send(static_cast<std::size_t>(ranks) * count);
        fill_gaussian(send, static_cast<std::uint64_t>(c.rank()) + 77);
        cvec ref(send.size()), got(send.size());
        cvec scratch(static_cast<std::size_t>(3 * ranks) * count);
        c.alltoall(send, ref, count, AlltoallAlgo::kPairwise);
        staged_alltoall(c, plan, send.data(), got.data(),
                        count * static_cast<std::int64_t>(sizeof(cplx)),
                        scratch.data(), /*tag_base=*/700);
        ASSERT_EQ(std::memcmp(got.data(), ref.data(),
                              ref.size() * sizeof(cplx)),
                  0)
            << topo.str() << " ranks=" << ranks;
      });
    }
  }
}

TEST(StagedAlltoall, ChaosOnBothHopsStaysBitIdentical) {
  // Faults hit intra-group and inter-group (or per-dimension) hops alike;
  // the CRC32C-verified retransmit path must recover every stage, so the
  // staged result still matches a fault-free flat exchange bit for bit.
  const int ranks = 8;
  const std::int64_t count = 19;
  for (const Topology& topo :
       {Topology::two_level(ranks), Topology::torus(ranks)}) {
    cvec clean;
    for (const bool faulty : {false, true}) {
      NetOptions opts;
      if (faulty) {
        opts.faults =
            FaultSpec::parse("23:drop:0.05,corrupt:0.05,duplicate:0.05");
        opts.timeout_ms = 20;
      }
      cvec out(static_cast<std::size_t>(ranks) * ranks * count);
      std::mutex mu;
      std::int64_t injected = 0;
      run_ranks(ranks, opts, [&](Comm& c) {
        const StagedPlan plan = build_staged_plan(topo, c.rank());
        cvec send(static_cast<std::size_t>(ranks) * count);
        fill_gaussian(send, static_cast<std::uint64_t>(c.rank()) + 131);
        cvec got(send.size());
        cvec scratch(static_cast<std::size_t>(3 * ranks) * count);
        staged_alltoall(c, plan, send.data(), got.data(),
                        count * static_cast<std::int64_t>(sizeof(cplx)),
                        scratch.data(), /*tag_base=*/700);
        c.barrier();
        std::lock_guard<std::mutex> lock(mu);
        std::copy(got.begin(), got.end(),
                  out.begin() + static_cast<std::int64_t>(c.rank()) *
                                    ranks * count);
        if (c.rank() == 0 && faulty) {
          injected = c.fault_stats().faults_injected;
        }
      });
      if (!faulty) {
        clean = std::move(out);
        continue;
      }
      EXPECT_GT(injected, 0) << topo.str();
      ASSERT_EQ(std::memcmp(out.data(), clean.data(),
                            clean.size() * sizeof(cplx)),
                0)
          << topo.str();
    }
  }
}

TEST(WireLatency, IntraGroupTierIsCheaperThanInterGroup) {
  // Two latency tiers: ranks 0/1 share a node group, rank 2 does not.
  // The margins are wide (250x) so scheduler noise cannot flip the
  // comparison: the cross-group recv must sleep out >= the wire latency,
  // the intra-group recv must come back well before it.
  NetOptions opts;
  opts.wire_latency_us = 250e3;  // 250 ms
  opts.intra_latency_us = 1e3;   // 1 ms
  opts.topo_group_size = 2;
  run_ranks(4, opts, [](Comm& c) {
    cvec buf(8);
    if (c.rank() == 1) c.send(0, 5, cspan(buf));
    if (c.rank() == 2) c.send(0, 6, cspan(buf));
    if (c.rank() == 0) {
      cvec intra(8), inter(8);
      Timer t_intra;
      c.recv(1, 5, mspan(intra));
      const double intra_s = t_intra.seconds();
      Timer t_inter;
      c.recv(2, 6, mspan(inter));
      const double inter_s = t_inter.seconds();
      EXPECT_LT(intra_s, 0.125);  // never slept the wire tier
      // Both messages were posted before the intra recv returned, so the
      // second wait overlaps most of the inter flight; it still cannot
      // finish before the full wire latency has elapsed since the send.
      EXPECT_GE(intra_s + inter_s, 0.9 * 0.250);
    }
    c.barrier();
  });
}

// --- erasure codec -----------------------------------------------------------

TEST(Erasure, Gf256FieldAxiomsHold) {
  // Multiplicative round trip: a * inv(a) == 1 for every nonzero element,
  // and the field is commutative with 1 as identity.
  for (int a = 1; a < 256; ++a) {
    const auto ua = static_cast<std::uint8_t>(a);
    EXPECT_EQ(gf256_mul(ua, gf256_inv(ua)), 1) << "a=" << a;
    EXPECT_EQ(gf256_mul(ua, 1), ua);
    EXPECT_EQ(gf256_mul(ua, 0), 0);
  }
  for (int a = 1; a < 256; a += 13) {
    for (int b = 1; b < 256; b += 17) {
      EXPECT_EQ(gf256_mul(static_cast<std::uint8_t>(a),
                          static_cast<std::uint8_t>(b)),
                gf256_mul(static_cast<std::uint8_t>(b),
                          static_cast<std::uint8_t>(a)));
    }
  }
}

namespace {
/// Deterministic test shards: k data shards of `bytes` pseudo-random
/// bytes each.
std::vector<std::vector<std::uint8_t>> make_shards(int k, std::size_t bytes,
                                                   std::uint64_t seed) {
  std::vector<std::vector<std::uint8_t>> shards(
      static_cast<std::size_t>(k));
  std::uint64_t s = seed * 0x9e3779b97f4a7c15ULL + 1;
  for (auto& sh : shards) {
    sh.resize(bytes);
    for (auto& b : sh) {
      s = s * 6364136223846793005ULL + 1442695040888963407ULL;
      b = static_cast<std::uint8_t>(s >> 56);
    }
  }
  return shards;
}
}  // namespace

TEST(Erasure, SystematicIdentityAllDataPresent) {
  // With every data shard present, reconstruct() is the identity — the
  // parity never perturbs clean data (systematic code).
  const int k = 4, r = 2;
  const std::size_t bytes = 257;
  const ErasureCode code(k, r);
  const auto data = make_shards(k, bytes, 7);
  std::vector<const std::uint8_t*> in(static_cast<std::size_t>(k));
  std::vector<int> present(static_cast<std::size_t>(k));
  std::vector<std::vector<std::uint8_t>> out(
      static_cast<std::size_t>(k), std::vector<std::uint8_t>(bytes, 0xee));
  std::vector<std::uint8_t*> outp(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) {
    in[static_cast<std::size_t>(i)] = data[static_cast<std::size_t>(i)].data();
    present[static_cast<std::size_t>(i)] = i;
    outp[static_cast<std::size_t>(i)] = out[static_cast<std::size_t>(i)].data();
  }
  ASSERT_TRUE(code.reconstruct(present.data(), in.data(), outp.data(), bytes));
  for (int i = 0; i < k; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)],
              data[static_cast<std::size_t>(i)]) << "shard " << i;
  }
}

TEST(Erasure, XorParityRecoversSingleLoss) {
  // r = 1 is plain XOR: the parity equals the XOR of the data shards, and
  // any single missing data shard comes back from the rest.
  const int k = 3, r = 1;
  const std::size_t bytes = 64;
  const ErasureCode code(k, r);
  const auto data = make_shards(k, bytes, 9);
  std::vector<std::uint8_t> parity(bytes, 0);
  const std::uint8_t* in[3] = {data[0].data(), data[1].data(),
                               data[2].data()};
  std::uint8_t* pout[1] = {parity.data()};
  code.encode(in, pout, bytes);
  for (std::size_t j = 0; j < bytes; ++j) {
    EXPECT_EQ(parity[j], static_cast<std::uint8_t>(data[0][j] ^ data[1][j] ^
                                                   data[2][j]));
  }
  for (int lost = 0; lost < k; ++lost) {
    std::vector<int> present;
    std::vector<const std::uint8_t*> shards;
    for (int i = 0; i < k; ++i) {
      if (i == lost) continue;
      present.push_back(i);
      shards.push_back(data[static_cast<std::size_t>(i)].data());
    }
    present.push_back(k);  // the parity shard
    shards.push_back(parity.data());
    std::vector<std::vector<std::uint8_t>> out(
        static_cast<std::size_t>(k), std::vector<std::uint8_t>(bytes, 0));
    std::uint8_t* outp[3] = {out[0].data(), out[1].data(), out[2].data()};
    ASSERT_TRUE(
        code.reconstruct(present.data(), shards.data(), outp, bytes));
    for (int i = 0; i < k; ++i) {
      EXPECT_EQ(out[static_cast<std::size_t>(i)],
                data[static_cast<std::size_t>(i)])
          << "lost " << lost << " shard " << i;
    }
  }
}

TEST(Erasure, ReedSolomonRecoversAnyRLosses) {
  // MDS property at r = 2 and r = 3: EVERY subset of k survivors (data
  // and parity mixed) reconstructs the original data bit-exactly.
  for (const int r : {2, 3}) {
    const int k = 4;
    const std::size_t bytes = 96;
    const ErasureCode code(k, r);
    const auto data = make_shards(k, bytes, 11 + static_cast<std::uint64_t>(r));
    std::vector<std::vector<std::uint8_t>> parity(
        static_cast<std::size_t>(r), std::vector<std::uint8_t>(bytes, 0));
    std::vector<const std::uint8_t*> in(static_cast<std::size_t>(k));
    std::vector<std::uint8_t*> pout(static_cast<std::size_t>(r));
    for (int i = 0; i < k; ++i) {
      in[static_cast<std::size_t>(i)] =
          data[static_cast<std::size_t>(i)].data();
    }
    for (int j = 0; j < r; ++j) {
      pout[static_cast<std::size_t>(j)] =
          parity[static_cast<std::size_t>(j)].data();
    }
    code.encode(in.data(), pout.data(), bytes);
    // All k-subsets of the k+r shards (indices ascending).
    const int total = k + r;
    for (int mask = 0; mask < (1 << total); ++mask) {
      if (__builtin_popcount(static_cast<unsigned>(mask)) != k) continue;
      std::vector<int> present;
      std::vector<const std::uint8_t*> shards;
      for (int i = 0; i < total; ++i) {
        if ((mask >> i & 1) == 0) continue;
        present.push_back(i);
        shards.push_back(i < k
                             ? data[static_cast<std::size_t>(i)].data()
                             : parity[static_cast<std::size_t>(i - k)].data());
      }
      std::vector<std::vector<std::uint8_t>> out(
          static_cast<std::size_t>(k),
          std::vector<std::uint8_t>(bytes, 0xaa));
      std::vector<std::uint8_t*> outp(static_cast<std::size_t>(k));
      for (int i = 0; i < k; ++i) {
        outp[static_cast<std::size_t>(i)] =
            out[static_cast<std::size_t>(i)].data();
      }
      ASSERT_TRUE(
          code.reconstruct(present.data(), shards.data(), outp.data(), bytes))
          << "r=" << r << " mask=" << mask;
      for (int i = 0; i < k; ++i) {
        ASSERT_EQ(out[static_cast<std::size_t>(i)],
                  data[static_cast<std::size_t>(i)])
            << "r=" << r << " mask=" << mask << " shard " << i;
      }
    }
  }
}

TEST(Erasure, ReconstructRejectsMalformedPresentLists) {
  const ErasureCode code(2, 1);
  const std::size_t bytes = 8;
  const auto data = make_shards(2, bytes, 21);
  const std::uint8_t* shards[2] = {data[0].data(), data[1].data()};
  std::vector<std::vector<std::uint8_t>> out(
      2, std::vector<std::uint8_t>(bytes, 0));
  std::uint8_t* outp[2] = {out[0].data(), out[1].data()};
  const int dup[2] = {1, 1};       // duplicate index
  const int oob[2] = {0, 3};       // out of range (k + r == 3)
  const int neg[2] = {-1, 1};      // negative
  EXPECT_FALSE(code.reconstruct(dup, shards, outp, bytes));
  EXPECT_FALSE(code.reconstruct(oob, shards, outp, bytes));
  EXPECT_FALSE(code.reconstruct(neg, shards, outp, bytes));
}

TEST(Erasure, CodedHeaderRoundTripsAndRejectsTruncation) {
  CodedFrame f;
  f.epoch = 0xdeadbeef;
  f.sub = 17;
  f.k = 4;
  f.r = 2;
  f.cw_bytes = 0x123456789abcULL;
  std::uint8_t buf[kCodedHeaderBytes];
  write_coded_header(buf, f);
  CodedFrame g;
  ASSERT_TRUE(read_coded_header(buf, sizeof(buf), &g));
  EXPECT_EQ(g.epoch, f.epoch);
  EXPECT_EQ(g.sub, f.sub);
  EXPECT_EQ(g.k, f.k);
  EXPECT_EQ(g.r, f.r);
  EXPECT_EQ(g.cw_bytes, f.cw_bytes);
  EXPECT_FALSE(read_coded_header(buf, kCodedHeaderBytes - 1, &g));
}

TEST(Erasure, CodingParseAcceptsValidRejectsInvalid) {
  Coding c;
  ASSERT_TRUE(Coding::parse("4+1", &c));
  EXPECT_EQ(c.k, 4);
  EXPECT_EQ(c.r, 1);
  EXPECT_TRUE(c.enabled());
  EXPECT_EQ(c.str(), "4+1");
  ASSERT_TRUE(Coding::parse("16+16", &c));  // k + r == kMaxCodedSubs
  for (const char* bad :
       {"", "4", "4+", "+1", "4+0", "0+1", "1+2",  // r > k
        "4+1+1", "a+1", "4+b", "4 +1", "-4+1", "33+1", "17+16"}) {
    Coding keep = c;
    EXPECT_FALSE(Coding::parse(bad, &keep)) << "'" << bad << "'";
    EXPECT_EQ(keep.k, c.k) << "'" << bad << "' touched *out";
    EXPECT_EQ(keep.r, c.r) << "'" << bad << "' touched *out";
  }
  EXPECT_EQ(Coding{}.str(), "");
  EXPECT_FALSE(Coding{}.enabled());
}

TEST(Erasure, ShardBytesCeilsAndPadsConsistently) {
  EXPECT_EQ(coded_shard_bytes(10, 2), 5u);
  EXPECT_EQ(coded_shard_bytes(11, 2), 6u);
  EXPECT_EQ(coded_shard_bytes(1, 8), 1u);
  // (k - 1) * ceil(pb / k) may exceed pb: the assembly path must clamp
  // the final shard's copy length, never trust k * sb == pb.
  EXPECT_GT(3u * coded_shard_bytes(10, 4), 10u - coded_shard_bytes(10, 4));
}

}  // namespace
}  // namespace soi::net
