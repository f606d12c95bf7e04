// Pipeline-executor tests: WorkspaceArena lifetime-aliased packing, the
// TraceLog surface, the zero-allocation steady state of the pipelined
// plans, and serial-vs-distributed per-stage parity (same stage chain,
// bit-identical outputs).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/aligned.hpp"
#include "common/arena.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "net/comm.hpp"
#include "soi/dist.hpp"
#include "soi/exec.hpp"
#include "soi/real.hpp"
#include "soi/serial.hpp"
#include "window/design.hpp"

namespace soi {
namespace {

const win::SoiProfile& full_profile() {
  static const win::SoiProfile p = win::make_profile(win::Accuracy::kFull);
  return p;
}

const win::SoiProfile& medium_profile() {
  // Short enough taps that 16 segments fit a 2^15-point problem (the
  // chunked-schedule tests below want several segments per rank).
  static const win::SoiProfile p = win::make_profile(win::Accuracy::kMedium);
  return p;
}

cvec random_signal(std::int64_t n, std::uint64_t seed) {
  cvec x(static_cast<std::size_t>(n));
  fill_gaussian(x, seed);
  return x;
}

// --- WorkspaceArena ---------------------------------------------------------

TEST(Arena, DisjointLifetimesAlias) {
  WorkspaceArena arena;
  const auto a = arena.reserve("a", 4096, 0, 1);
  const auto b = arena.reserve("b", 4096, 2, 3);
  arena.commit();
  // Same size, disjoint live intervals: the packer must overlay them.
  EXPECT_EQ(arena.data(a), arena.data(b));
  EXPECT_EQ(arena.peak_bytes(), 4096u);
  EXPECT_EQ(arena.total_reserved_bytes(), 8192u);
}

TEST(Arena, OverlappingLifetimesDoNotAlias) {
  WorkspaceArena arena;
  const auto a = arena.reserve("a", 4096, 0, 2);
  const auto b = arena.reserve("b", 4096, 1, 3);
  arena.commit();
  const auto* pa = static_cast<const std::byte*>(arena.data(a));
  const auto* pb = static_cast<const std::byte*>(arena.data(b));
  EXPECT_TRUE(pa + 4096 <= pb || pb + 4096 <= pa);
  EXPECT_GE(arena.peak_bytes(), 8192u);
}

TEST(Arena, RandomizedPackingNeverOverlapsLiveBuffers) {
  // Deterministic pseudo-random plan; every pair of lifetime-overlapping
  // buffers must occupy disjoint byte ranges, and the pack must never
  // exceed the no-aliasing total.
  WorkspaceArena arena;
  std::uint64_t s = 12345;
  const auto next = [&s] {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    return s >> 33;
  };
  std::vector<WorkspaceArena::BufferId> ids;
  for (int i = 0; i < 40; ++i) {
    const std::size_t bytes = 64 + (next() % 8192);
    const int first = static_cast<int>(next() % 10);
    const int last = first + static_cast<int>(next() % 4);
    ids.push_back(arena.reserve("buf" + std::to_string(i), bytes,
                                first, last));
  }
  arena.commit();
  const auto& bufs = arena.buffers();
  for (std::size_t i = 0; i < bufs.size(); ++i) {
    // 64-byte alignment of every placement.
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(arena.data(ids[i])) % 64, 0u);
    for (std::size_t j = i + 1; j < bufs.size(); ++j) {
      const bool live_overlap = bufs[i].first_stage <= bufs[j].last_stage &&
                                bufs[j].first_stage <= bufs[i].last_stage;
      if (!live_overlap) continue;
      const bool mem_overlap =
          bufs[i].offset < bufs[j].offset + bufs[j].bytes &&
          bufs[j].offset < bufs[i].offset + bufs[i].bytes;
      EXPECT_FALSE(mem_overlap)
          << bufs[i].name << " and " << bufs[j].name << " are both live and "
          << "overlap in memory";
    }
  }
  EXPECT_LE(arena.peak_bytes(), arena.total_reserved_bytes());
  EXPECT_LT(arena.peak_bytes(), arena.total_reserved_bytes());
}

TEST(Arena, RecommitAfterGrowthCountsOnce) {
  WorkspaceArena arena;
  arena.reserve("a", 1024, 0, 0);
  arena.commit();
  EXPECT_EQ(arena.growths(), 0);
  arena.reserve("b", 1 << 20, 0, 0);
  arena.commit();
  EXPECT_EQ(arena.growths(), 1);
}

// --- TraceLog ---------------------------------------------------------------

TEST(TraceLog, PlanZeroFindTotal) {
  exec::TraceLog log;
  EXPECT_TRUE(log.empty());
  std::vector<exec::StageRecord> recs(2);
  recs[0].name = "conv";
  recs[1].name = "f_p";
  log.plan(std::move(recs));
  log.at(0)->seconds = 1.0;
  log.at(1)->seconds = 2.0;
  EXPECT_DOUBLE_EQ(log.total_seconds(), 3.0);
  ASSERT_NE(log.find("f_p"), nullptr);
  EXPECT_DOUBLE_EQ(log.find("f_p")->seconds, 2.0);
  EXPECT_EQ(log.find("missing"), nullptr);
  log.zero_seconds();
  EXPECT_DOUBLE_EQ(log.total_seconds(), 0.0);
  EXPECT_EQ(log.find("conv")->name, "conv");  // names survive zeroing
}

// --- zero-allocation steady state -------------------------------------------

TEST(Pipeline, SerialSteadyStateAllocatesNothing) {
  // Smooth geometry: P and M' run the batched executor's persistent-
  // scratch path (Rader/Bluestein sizes intentionally allocate per call).
  const std::int64_t n = 8192, p = 4;
  core::SoiFftSerial soi(n, p, full_profile());
  const cvec x = random_signal(n, 7);
  cvec y(x.size());
  soi.forward(x, y);  // warm: arena committed, per-thread FFT scratch built
  soi.forward(x, y);
  const std::int64_t growths_before = soi.workspace().growths();
  const std::int64_t allocs_before = alloc_stats().count;
  soi.forward(x, y);
  EXPECT_EQ(alloc_stats().count - allocs_before, 0);
  EXPECT_EQ(soi.workspace().growths() - growths_before, 0);
  // The aliased pack must beat a no-aliasing layout.
  EXPECT_LT(soi.workspace().peak_bytes(),
            soi.workspace().total_reserved_bytes());
}

TEST(Pipeline, RealSteadyStateAllocatesNothing) {
  const std::int64_t n = 16384, p = 4;
  core::SoiRealFft plan(n, p, full_profile());
  std::vector<double> in(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = std::sin(0.01 * static_cast<double>(i));
  }
  cvec out(static_cast<std::size_t>(n / 2 + 1));
  plan.forward(in, out);
  plan.forward(in, out);
  const std::int64_t allocs_before = alloc_stats().count;
  plan.forward(in, out);
  EXPECT_EQ(alloc_stats().count - allocs_before, 0);
  EXPECT_EQ(plan.workspace().growths(), 0);
}

// Runs `run_once` (one forward, or one epoch) twice on every rank to warm
// up, then stores in `delta` the alloc_stats() count of one more call
// bracketed by barriers. Every rank reads `before` before any rank starts
// the counted call, so no rank's allocations escape the window.
template <class Fn>
void steady_epoch_allocs(net::Comm& comm, std::mutex& mu, std::int64_t& delta,
                         Fn run_once) {
  run_once();
  run_once();
  comm.barrier();
  const std::int64_t before = alloc_stats().count;
  comm.barrier();
  run_once();
  comm.barrier();
  if (comm.rank() == 0) {
    std::lock_guard<std::mutex> lock(mu);
    delta = alloc_stats().count - before;
  }
}

TEST(Pipeline, DistSteadyStateAllocatesNothing) {
  const std::int64_t n = 8192;
  const int ranks = 4;
  const cvec x = random_signal(n, 11);
  std::int64_t delta = -1;
  std::mutex mu;
  net::run_ranks(ranks, [&](net::Comm& comm) {
    core::SoiFftDist plan(comm, n, full_profile());
    const std::int64_t m = plan.local_size();
    cvec y(static_cast<std::size_t>(m));
    const cspan xin{x.data() + comm.rank() * m, static_cast<std::size_t>(m)};
    // Warm-up runs within THIS rank thread's lifetime; then every rank
    // runs exactly one steady-state forward inside the counted window, so
    // the process-global counter must not move.
    steady_epoch_allocs(comm, mu, delta, [&] { plan.forward(xin, y); });
    EXPECT_EQ(plan.workspace().growths(), 0);
  });
  EXPECT_EQ(delta, 0);
}

// --- co-scheduled (multi-member epoch) steady state -------------------------

TEST(Pipeline, CoScheduledSamePlanEpochAllocatesNothing) {
  // Three instances of one plan in one epoch: per-instance arenas,
  // traces, request slots and the epoch scratch are all preallocated.
  const std::int64_t n = 8192;
  const int ranks = 4;
  const int k = 3;
  const cvec x = random_signal(n, 13);
  std::int64_t delta = -1;
  std::mutex mu;
  net::run_ranks(ranks, [&](net::Comm& comm) {
    core::DistOptions opts;
    opts.max_concurrency = k;
    core::SoiFftDist plan(comm, n, full_profile(), opts);
    const std::int64_t m = plan.local_size();
    const cspan xin{x.data() + comm.rank() * m, static_cast<std::size_t>(m)};
    std::vector<cvec> ys(k, cvec(static_cast<std::size_t>(m)));
    exec::RunScratch scratch;
    exec::bind_epoch_scratch(scratch, k * plan.node_count(), k);
    std::array<exec::EpochMemberT<double>, k> members;
    steady_epoch_allocs(comm, mu, delta, [&] {
      for (int i = 0; i < k; ++i) {
        plan.bind_epoch_member(members[static_cast<std::size_t>(i)], i, i,
                               xin, ys[static_cast<std::size_t>(i)]);
      }
      exec::run_epoch(std::span<const exec::EpochMemberT<double>>(members),
                      scratch);
      plan.finish_epoch(k);
    });
    EXPECT_EQ(plan.workspace().growths(), 0);
  });
  EXPECT_EQ(delta, 0);
}

TEST(Pipeline, CoScheduledMixedShapeEpochAllocatesNothing) {
  // Two plans of different shapes composed into one epoch at different
  // tiers.
  const std::int64_t n0 = 8192;
  const std::int64_t n1 = 16384;
  const int ranks = 4;
  const cvec x0 = random_signal(n0, 14);
  const cvec x1 = random_signal(n1, 15);
  std::int64_t delta = -1;
  std::mutex mu;
  net::run_ranks(ranks, [&](net::Comm& comm) {
    core::SoiFftDist plan0(comm, n0, full_profile());
    core::SoiFftDist plan1(comm, n1, full_profile());
    const std::int64_t m0 = plan0.local_size();
    const std::int64_t m1 = plan1.local_size();
    const cspan x0in{x0.data() + comm.rank() * m0,
                     static_cast<std::size_t>(m0)};
    const cspan x1in{x1.data() + comm.rank() * m1,
                     static_cast<std::size_t>(m1)};
    cvec y0(static_cast<std::size_t>(m0));
    cvec y1(static_cast<std::size_t>(m1));
    exec::RunScratch scratch;
    exec::bind_epoch_scratch(scratch,
                             plan0.node_count() + plan1.node_count(), 2);
    std::array<exec::EpochMemberT<double>, 2> members;
    steady_epoch_allocs(comm, mu, delta, [&] {
      plan0.bind_epoch_member(members[0], 0, 0, x0in, y0);
      plan1.bind_epoch_member(members[1], 0, 1, x1in, y1);
      members[0].tier = 0;
      members[1].tier = 2;
      exec::run_epoch(std::span<const exec::EpochMemberT<double>>(members),
                      scratch);
      plan0.finish_epoch(1);
      plan1.finish_epoch(1);
    });
    EXPECT_EQ(plan0.workspace().growths(), 0);
    EXPECT_EQ(plan1.workspace().growths(), 0);
  });
  EXPECT_EQ(delta, 0);
}

// --- serial vs distributed stage parity -------------------------------------

TEST(Pipeline, SerialDistStageParity) {
  // Same factorisation (P = 8 segments) executed serially and over 4 ranks
  // with 2 segments each: stage-for-stage identical chains, identical
  // planned byte volumes on the comm-free stages, bit-identical outputs.
  const std::int64_t n = 16384;
  const int ranks = 4;
  const std::int64_t spr = 2;
  const std::int64_t p_total = ranks * spr;
  const cvec x = random_signal(n, 21);

  core::SoiFftSerial serial(n, p_total, full_profile());
  cvec want(x.size());
  serial.forward(x, want);
  const auto serial_recs = serial.last_trace().records();

  cvec got(x.size());
  std::vector<exec::StageRecord> dist_recs;
  std::mutex mu;
  net::run_ranks(ranks, [&](net::Comm& comm) {
    core::DistOptions opts;
    opts.segments_per_rank = spr;
    core::SoiFftDist plan(comm, n, full_profile(), opts);
    const std::int64_t m = plan.local_size();
    cvec y(static_cast<std::size_t>(m));
    plan.forward(cspan{x.data() + comm.rank() * m,
                       static_cast<std::size_t>(m)},
                 y);
    std::lock_guard<std::mutex> lock(mu);
    std::copy(y.begin(), y.end(), got.begin() + comm.rank() * m);
    if (comm.rank() == 0) {
      const auto recs = plan.last_trace().records();
      dist_recs.assign(recs.begin(), recs.end());
    }
  });

  // One shared stage chain: identical names in identical order.
  ASSERT_EQ(serial_recs.size(), dist_recs.size());
  for (std::size_t i = 0; i < serial_recs.size(); ++i) {
    EXPECT_EQ(serial_recs[i].name, dist_recs[i].name) << "stage " << i;
  }

  // Serial = null comm: communication stages carry zero volume.
  const auto byname = [&](std::span<const exec::StageRecord> recs,
                          const char* name) -> const exec::StageRecord& {
    for (const auto& r : recs) {
      if (r.name == name) return r;
    }
    ADD_FAILURE() << "stage " << name << " missing";
    return recs[0];
  };
  EXPECT_EQ(byname(serial_recs, "halo").bytes_moved, 0);
  EXPECT_EQ(byname(serial_recs, "exchange").bytes_moved, 0);
  EXPECT_EQ(byname(serial_recs, "unpack").bytes_moved, 0);

  // Distributed volumes match the geometry (Section 5's accounting).
  const core::SoiGeometry g(n, p_total, full_profile());
  const std::int64_t csize = static_cast<std::int64_t>(sizeof(cplx));
  EXPECT_EQ(byname(dist_recs, "halo").bytes_moved, csize * g.halo());
  const std::int64_t chunks = spr * g.chunks_per_rank();
  EXPECT_EQ(byname(dist_recs, "exchange").bytes_moved,
            csize * spr * chunks * (ranks - 1));

  // Same stage bodies on the same data: outputs are bit-identical.
  std::int64_t mismatches = 0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (want[i].real() != got[i].real() || want[i].imag() != got[i].imag()) {
      ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0);
}

// --- executor reentrancy guard ----------------------------------------------

TEST(Pipeline, ReentrantRunOnOnePlanThrows) {
  // Plan objects keep their ExecState mutable, so a second run() entering
  // the same plan mid-execution would be corruption. The executor must
  // refuse loudly — and release the guard on unwind so the plan stays
  // usable afterwards.
  struct Reenter : exec::StageT<double> {
    exec::PipelineT<double>* pipe = nullptr;
    exec::ExecContextT<double>* ctx = nullptr;
    mutable bool reenter = true;
    void plan_records(std::vector<exec::StageRecord>& out) const override {
      exec::StageRecord r;
      r.name = "reenter";
      out.push_back(r);
    }
    void run(exec::ExecContextT<double>&, exec::StageRecord*) const override {
      if (reenter) {
        reenter = false;
        pipe->run(*ctx);  // reentrant: must throw, not corrupt
      }
    }
  };
  exec::PipelineT<double> pipe;
  auto stage = std::make_unique<Reenter>();
  Reenter* raw = stage.get();
  pipe.add(std::move(stage));
  exec::TraceLog trace;
  pipe.init_trace(trace);
  WorkspaceArena arena;
  exec::ExecContextT<double> ctx;
  ctx.arena = &arena;
  ctx.trace = &trace;
  raw->pipe = &pipe;
  raw->ctx = &ctx;
  EXPECT_THROW(pipe.run(ctx), Error);
  // Guard released by the unwind: a fresh non-reentrant run succeeds.
  EXPECT_FALSE(raw->reenter);
  pipe.run(ctx);
}

// --- schedule order ---------------------------------------------------------

// One stage of eight declared nodes, each appending 100 * instance + its
// id (carried in NodeSpec::phase) to a log. Distinct seq/ovl keys and
// mixed many_phase classes make every ordering rule visible in the log.
struct LogStage : exec::StageT<double> {
  mutable std::vector<int> log;
  void plan_records(std::vector<exec::StageRecord>& out) const override {
    exec::StageRecord r;
    r.name = "log";
    out.push_back(r);
  }
  void run(exec::ExecContextT<double>&, exec::StageRecord*) const override {}
  void run_node(exec::ExecContextT<double>& ctx, exec::StageRecord*,
                const exec::NodeSpec& node) const override {
    log.push_back(100 * ctx.instance + node.phase);
  }
};

TEST(Pipeline, ScheduleOrderIsPinned) {
  // The expected sequences are the orders the separate solo and
  // same-pipeline batch schedulers produced before run_epoch replaced
  // them: a one-member epoch orders by schedule key alone, a two-member
  // epoch at equal tiers by (many_phase, key, member) — posts interleave
  // across members, fronts and tails run member-major. Workload schedules
  // (the overlap schedule of dist_shm_1m included) depend on both rules.
  exec::PipelineT<double> pipe;
  auto owned = std::make_unique<LogStage>();
  LogStage* stage = owned.get();
  pipe.add(std::move(owned));
  // {seq_key, ovl_key, many_phase} per node.
  const int keys[8][3] = {{0, 0, 1}, {1, 3, 0}, {2, 1, 1}, {3, 5, 2},
                          {4, 6, 0}, {5, 2, 2}, {6, 4, 1}, {7, 7, 2}};
  for (int v = 0; v < 8; ++v) {
    exec::NodeSpec node;
    node.phase = v;
    node.seq_key = keys[v][0];
    node.ovl_key = keys[v][1];
    node.many_phase = keys[v][2];
    pipe.add_node(node);
  }
  for (const auto& [before, after] : std::vector<std::pair<int, int>>{
           {0, 2}, {1, 3}, {2, 4}, {2, 5}, {3, 6}, {4, 6}, {5, 7}, {6, 7}}) {
    pipe.add_edge(before, after);
  }
  exec::TraceLog trace0;
  pipe.init_trace(trace0);
  exec::TraceLog trace1 = trace0;
  WorkspaceArena arena0;
  WorkspaceArena arena1;

  for (const bool overlap : {false, true}) {
    exec::ExecContextT<double> ctx;
    ctx.arena = &arena0;
    ctx.trace = &trace0;
    ctx.overlap = overlap;
    stage->log.clear();
    pipe.run(ctx);
    const std::vector<int> want =
        overlap ? std::vector<int>{0, 2, 5, 1, 3, 4, 6, 7}
                : std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7};
    EXPECT_EQ(stage->log, want) << "overlap=" << overlap;
  }

  struct Case {
    bool overlap0, overlap1;
    std::vector<int> want;
  };
  const Case cases[] = {
      {false, false, {1, 101, 0, 2, 4, 100, 102, 104,  //
                      3, 6, 5, 7, 103, 106, 105, 107}},
      {true, true, {1, 101, 0, 2, 4, 100, 102, 104,  //
                    5, 3, 6, 7, 105, 103, 106, 107}},
      {false, true, {1, 101, 0, 2, 4, 100, 102, 104,  //
                     3, 6, 5, 7, 105, 103, 106, 107}},
  };
  exec::RunScratch scratch;
  exec::bind_epoch_scratch(scratch, 2 * pipe.node_count(), 2);
  for (const Case& c : cases) {
    exec::ExecContextT<double> ctx0;
    ctx0.arena = &arena0;
    ctx0.trace = &trace0;
    ctx0.overlap = c.overlap0;
    exec::ExecContextT<double> ctx1;
    ctx1.arena = &arena1;
    ctx1.trace = &trace1;
    ctx1.overlap = c.overlap1;
    ctx1.instance = 1;
    ctx1.channel = 1;
    const std::array<exec::EpochMemberT<double>, 2> members{
        {{&pipe, &ctx0, 1}, {&pipe, &ctx1, 1}}};
    stage->log.clear();
    exec::run_epoch(std::span<const exec::EpochMemberT<double>>(members),
                    scratch);
    EXPECT_EQ(stage->log, c.want)
        << "overlap=" << c.overlap0 << c.overlap1;
  }
}

// --- chunked (D > 1) schedules ----------------------------------------------

TEST(Pipeline, ChunkedOverlapMatchesInOrderBitExactly) {
  // The pipelined and in-order schedules are topological orders of the
  // same dataflow edges over the same kernels on the same operands, so at
  // every chunk depth the two outputs must be bit-identical. Across
  // depths the arithmetic is not: a depth-D plan runs its F_M' batch as D
  // groups of spr/D transforms, and batch size may select a different
  // (equally valid) kernel path, so depth D > 1 is held to a
  // rounding-level bound against the serial reference while D = 1 — the
  // same batching as serial — must match it bit-exactly.
  const std::int64_t n = 1 << 15;
  const int ranks = 4;
  const std::int64_t spr = 4;
  const cvec x = random_signal(n, 33);
  core::SoiFftSerial serial(n, ranks * spr, medium_profile());
  cvec want(x.size());
  serial.forward(x, want);
  double ref_scale = 0.0;
  for (const cplx& w : want) ref_scale = std::max(ref_scale, std::abs(w));

  for (const std::int64_t cd :
       {std::int64_t{1}, std::int64_t{2}, std::int64_t{4}}) {
    cvec by_schedule[2];
    for (const bool overlap : {false, true}) {
      cvec got(x.size());
      std::mutex mu;
      net::run_ranks(ranks, [&](net::Comm& comm) {
        core::DistOptions opts;
        opts.segments_per_rank = spr;
        opts.overlap = overlap;
        opts.chunk_depth = cd;
        core::SoiFftDist plan(comm, n, medium_profile(), opts);
        const std::int64_t m = plan.local_size();
        cvec y(static_cast<std::size_t>(m));
        plan.forward(cspan{x.data() + comm.rank() * m,
                           static_cast<std::size_t>(m)},
                     y);
        std::lock_guard<std::mutex> lock(mu);
        std::copy(y.begin(), y.end(), got.begin() + comm.rank() * m);
      });
      double worst = 0.0;
      for (std::size_t i = 0; i < want.size(); ++i) {
        worst = std::max(worst, std::abs(want[i] - got[i]));
      }
      EXPECT_LE(worst, (cd == 1 ? 0.0 : 1e-12) * ref_scale)
          << "cd=" << cd << " overlap=" << overlap;
      by_schedule[overlap ? 1 : 0] = std::move(got);
    }
    std::int64_t schedule_mismatches = 0;
    for (std::size_t i = 0; i < want.size(); ++i) {
      if (by_schedule[0][i].real() != by_schedule[1][i].real() ||
          by_schedule[0][i].imag() != by_schedule[1][i].imag()) {
        ++schedule_mismatches;
      }
    }
    EXPECT_EQ(schedule_mismatches, 0) << "cd=" << cd;
  }
}

TEST(Pipeline, TopologySchedulesMatchFlatBitExactly) {
  // The staged two-level and torus exchanges route the same blocks through
  // different message schedules and scatter them into the exact layout the
  // flat ialltoallv produces — so at every chunk depth, for both executor
  // schedules, the output must be bit-identical to the flat topology's.
  // n = 36864 with P = 24 gives spr = 6 on 4 ranks, so chunk depths 1, 2
  // and 3 all tile the rank's segments exactly.
  const std::int64_t n = 36864;
  const int ranks = 4;
  const std::int64_t spr = 6;
  const cvec x = random_signal(n, 71);
  for (const std::int64_t cd :
       {std::int64_t{1}, std::int64_t{2}, std::int64_t{3}}) {
    cvec flat;
    for (const std::string& topo :
         {std::string{}, std::string{"two-level:2"}, std::string{"torus:2x2x1"}}) {
      for (const bool overlap : {false, true}) {
        cvec got(x.size());
        std::mutex mu;
        net::run_ranks(ranks, [&](net::Comm& comm) {
          core::DistOptions opts;
          opts.segments_per_rank = spr;
          opts.overlap = overlap;
          opts.chunk_depth = cd;
          opts.topology = topo;
          core::SoiFftDist plan(comm, n, medium_profile(), opts);
          EXPECT_EQ(plan.chunk_depth(), cd);
          const std::int64_t m = plan.local_size();
          cvec y(static_cast<std::size_t>(m));
          plan.forward(cspan{x.data() + comm.rank() * m,
                             static_cast<std::size_t>(m)},
                       y);
          std::lock_guard<std::mutex> lock(mu);
          std::copy(y.begin(), y.end(), got.begin() + comm.rank() * m);
        });
        if (flat.empty()) {
          flat = std::move(got);
          continue;
        }
        std::int64_t mismatches = 0;
        for (std::size_t i = 0; i < flat.size(); ++i) {
          if (flat[i].real() != got[i].real() ||
              flat[i].imag() != got[i].imag()) {
            ++mismatches;
          }
        }
        EXPECT_EQ(mismatches, 0) << "cd=" << cd << " topo=" << topo
                                 << " overlap=" << overlap;
      }
    }
  }
}

TEST(Pipeline, StagedTopologyDeepChunksAllocateNothing) {
  // Acceptance gate: the staged schedules' pack/ping-pong scratch and
  // request slots are all preplanned, so a pipelined forward() stays
  // heap-silent at every supported slot count — chunk_depth 2 and 3 on
  // the P = 24 geometry, 4 on the power-of-two one.
  struct Case {
    std::int64_t n, spr, cd;
    const char* topo;
  };
  for (const Case& c : {Case{36864, 6, 2, "two-level:2"},
                        Case{36864, 6, 3, "torus:2x2x1"},
                        Case{1 << 15, 4, 4, "two-level"}}) {
    const cvec x = random_signal(c.n, 19);
    std::int64_t delta = -1;
    std::mutex mu;
    net::run_ranks(4, [&](net::Comm& comm) {
      core::DistOptions opts;
      opts.segments_per_rank = c.spr;
      opts.overlap = true;
      opts.chunk_depth = c.cd;
      opts.topology = c.topo;
      core::SoiFftDist plan(comm, c.n, medium_profile(), opts);
      ASSERT_EQ(plan.chunk_depth(), c.cd);
      const std::int64_t m = plan.local_size();
      cvec y(static_cast<std::size_t>(m));
      const cspan xin{x.data() + comm.rank() * m,
                      static_cast<std::size_t>(m)};
      steady_epoch_allocs(comm, mu, delta, [&] { plan.forward(xin, y); });
      EXPECT_EQ(plan.workspace().growths(), 0);
    });
    EXPECT_EQ(delta, 0) << "cd=" << c.cd << " topo=" << c.topo;
  }
}

TEST(Pipeline, ChunkedDistSteadyStateAllocatesNothing) {
  // The double-buffered slots and per-group requests are all part of the
  // plan: a chunked pipelined forward() must stay heap-silent too.
  const std::int64_t n = 1 << 15;
  const int ranks = 4;
  const cvec x = random_signal(n, 17);
  std::int64_t delta = -1;
  std::mutex mu;
  net::run_ranks(ranks, [&](net::Comm& comm) {
    core::DistOptions opts;
    opts.segments_per_rank = 4;
    opts.overlap = true;
    opts.chunk_depth = 2;
    core::SoiFftDist plan(comm, n, medium_profile(), opts);
    const std::int64_t m = plan.local_size();
    cvec y(static_cast<std::size_t>(m));
    const cspan xin{x.data() + comm.rank() * m, static_cast<std::size_t>(m)};
    steady_epoch_allocs(comm, mu, delta, [&] { plan.forward(xin, y); });
    EXPECT_EQ(plan.workspace().growths(), 0);
  });
  EXPECT_EQ(delta, 0);
}

TEST(Pipeline, ChunkDepthClampsToDivisorOfSegments) {
  const std::int64_t n = 1 << 15;
  net::run_ranks(2, [&](net::Comm& comm) {
    core::DistOptions opts;
    opts.segments_per_rank = 4;
    opts.overlap = true;
    opts.chunk_depth = 3;  // not a divisor of spr: clamps down to 2
    core::SoiFftDist plan(comm, n, medium_profile(), opts);
    EXPECT_EQ(plan.chunk_depth(), 2);
    opts.chunk_depth = 99;  // larger than spr: clamps to spr
    core::SoiFftDist wide(comm, n, medium_profile(), opts);
    EXPECT_EQ(wide.chunk_depth(), 4);
  });
}

TEST(Pipeline, RealTraceBracketsSharedChain) {
  const std::int64_t n = 16384, p = 4;
  core::SoiRealFft plan(n, p, full_profile());
  std::vector<double> in(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = std::cos(0.02 * static_cast<double>(i));
  }
  cvec out(static_cast<std::size_t>(n / 2 + 1));
  plan.forward(in, out);
  const auto recs = plan.last_trace().records();
  const std::vector<std::string> want = {"r2c_pack", "halo",     "conv",
                                         "f_p",      "exchange", "unpack",
                                         "f_mprime", "demod",    "r2c_untangle"};
  ASSERT_EQ(recs.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(recs[i].name, want[i]);
  }
}

}  // namespace
}  // namespace soi
