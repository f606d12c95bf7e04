// bench_serve — multi-tenant serving throughput and latency.
//
// An open-loop Poisson load generator drives K mixed-shape tenants
// through one serve::TransformService and reports the queueing metrics
// (p50/p99 latency, sustained transforms/sec, admitted/rejected counts,
// queue high-water mark) into the bench JSON schema. Three measured
// cases:
//
//   serial_baseline — the SAME request trace executed one-at-a-time
//     through SoiFftDist::forward() inside a sim rank-team world: the
//     no-serving-layer reference the co-scheduled throughput must beat.
//   serve_dist — the service's distributed backend co-schedules epochs
//     of up to K same-shape requests through exec::run_epoch, every
//     member's exchange pieces posted on its own SimMPI channel before
//     any member blocks.
//   serve_serial — the service's in-process worker-pool backend (strict
//     p50/p99 + zero-allocation story without a rank team).
//
// Plus three tenant-mix sweeps through the epoch-packing dist backend,
// same open-loop Poisson arrivals, reporting per-tier p50/p99 and shed
// counts ("tiers"/"shed" in the JSON):
//
//   mix_70_30 — 70% small-lane interactive, 30% large-lane batch.
//   mix_uniform — lanes alternate evenly; priorities cycle through all
//     three tiers.
//   mix_priority_skew — 80% interactive small-lane with a generous
//     deadline, 20% background large-lane with a tight one; under the
//     saturating load the background tail is shed before execution while
//     the interactive tier keeps completing.
//
// Every completed request's output is compared BIT-IDENTICAL against a
// solo execution of the same transform, and the steady phase asserts
// zero aligned-heap allocations after warmup (the acceptance criteria of
// the serving layer).
//
// Both rank-team cases run over the SAME emulated interconnect
// (net::NetOptions::wire_latency_us, default 150 us): on the zero-latency
// in-process transport there is no wire time for co-scheduling to hide
// and the two dist cases tie, which says nothing about the regime the
// SOI decomposition targets. The latency knob models the expensive
// network of the paper's setting; one-at-a-time forward() exposes the
// per-chunk flight time while the co-scheduler fills it with other
// tenants' compute. Scale knobs (env): SOI_BENCH_SERVE_LOG2 (lane-0
// log2 N, default 13), SOI_BENCH_SERVE_REQUESTS (trace length, default
// 128), SOI_BENCH_SERVE_RANKS (default 4), SOI_BENCH_SERVE_LAT_US
// (emulated wire latency in us, default 150; 0 = raw transport).
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <random>
#include <thread>
#include <vector>

#include "common/aligned.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "harness.hpp"
#include "net/registry.hpp"
#include "serve/service.hpp"
#include "soi/dist.hpp"
#include "soi/serial.hpp"
#include "tune/registry.hpp"

namespace soi {
namespace {

std::int64_t env_i64(const char* name, std::int64_t dflt) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? std::atoll(v) : dflt;
}

constexpr int kTenants = 4;  // two per lane, two lanes (mixed shapes)

struct TraceSpec {
  std::vector<int> tenant;          // request i -> tenant
  std::vector<int> lane;            // request i -> lane
  std::vector<cvec> inputs;         // per tenant (full N of its lane)
  std::vector<std::int64_t> n_of;   // per lane
  /// Per-request priority/deadline (empty = all defaults).
  std::vector<serve::SubmitOptions> sopt;
};

/// One shared request trace: round-robin tenants, tenant t on lane t%2,
/// deterministic Gaussian input per tenant.
TraceSpec make_trace(int requests, std::int64_t n0, std::int64_t n1) {
  TraceSpec ts;
  ts.n_of = {n0, n1};
  for (int t = 0; t < kTenants; ++t) {
    cvec x(static_cast<std::size_t>(ts.n_of[static_cast<std::size_t>(t % 2)]));
    fill_gaussian(x, 900 + static_cast<std::uint64_t>(t));
    ts.inputs.push_back(std::move(x));
  }
  for (int i = 0; i < requests; ++i) {
    ts.tenant.push_back(i % kTenants);
    ts.lane.push_back((i % kTenants) % 2);
  }
  return ts;
}

/// A tenant-mix trace: the lane split and per-request priority/deadline
/// follow the named mix; tenants stay on their fixed lanes (lane parity,
/// two tenants per lane) so the solo reference outputs still apply.
TraceSpec make_mix_trace(const std::string& mix, int requests,
                         std::int64_t n0, std::int64_t n1) {
  TraceSpec ts = make_trace(requests, n0, n1);
  std::mt19937_64 rng(777);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  ts.sopt.resize(ts.tenant.size());
  for (std::size_t i = 0; i < ts.tenant.size(); ++i) {
    int lane = 0;
    serve::SubmitOptions so;
    if (mix == "mix_70_30") {
      lane = uni(rng) < 0.7 ? 0 : 1;
      so.priority = lane == 0 ? serve::Priority::kInteractive
                              : serve::Priority::kBatch;
    } else if (mix == "mix_uniform") {
      lane = static_cast<int>(i) % 2;
      so.priority = static_cast<serve::Priority>(i % 3);
    } else {  // mix_priority_skew
      const bool small = uni(rng) < 0.8;
      lane = small ? 0 : 1;
      so.priority = small ? serve::Priority::kInteractive
                          : serve::Priority::kBackground;
      so.deadline_ms = small ? 10'000.0 : 250.0;
    }
    ts.lane[i] = lane;
    ts.tenant[i] = lane + 2 * (static_cast<int>(i) & 1);
    ts.sopt[i] = so;
  }
  return ts;
}

/// Drive `ts` through `svc` as an open-loop Poisson arrival process at
/// `rate` requests/sec, harvesting completions on a side thread so slots
/// recycle. Outputs land in the preallocated `youts`; returns the wall
/// time of the load phase. No allocations between warmup and return.
double run_load(serve::TransformService& svc, const TraceSpec& ts,
                const std::vector<int>& lane_ids, std::vector<cvec>& youts,
                double rate, std::vector<serve::Ticket>& tickets,
                std::vector<signed char>& status) {
  const auto requests = ts.tenant.size();
  std::mt19937_64 rng(12345);
  std::exponential_distribution<double> exp_dist(rate);
  std::vector<double> arrival(requests);
  double at = 0.0;
  for (auto& a : arrival) {
    at += exp_dist(rng);
    a = at;
  }
  std::mutex mu;
  std::condition_variable cv;
  std::size_t submitted = 0;
  std::thread harvester([&] {
    for (std::size_t i = 0; i < requests; ++i) {
      std::unique_lock<std::mutex> lk(mu);
      cv.wait(lk, [&] { return submitted > i; });
      const signed char st = status[i];
      lk.unlock();
      if (st == 1) {
        try {
          svc.wait(tickets[i]);
        } catch (const Error&) {
          // Shed (deadline) or failed request: mark it so the
          // bit-identity check skips the never-written output. The
          // metrics snapshot reports the shed/failed split.
          status[i] = 3;
        }
      }
    }
  });
  Timer wall;
  for (std::size_t i = 0; i < requests; ++i) {
    const double now = wall.seconds();
    if (arrival[i] > now) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(arrival[i] - now));
    }
    const int t = ts.tenant[i];
    const int l = ts.lane[i];
    const auto ticket = svc.try_submit(
        lane_ids[static_cast<std::size_t>(l)], t, ts.inputs[static_cast<std::size_t>(t)],
        youts[i], ts.sopt.empty() ? serve::SubmitOptions{} : ts.sopt[i]);
    {
      std::lock_guard<std::mutex> lk(mu);
      if (ticket) {
        tickets[i] = *ticket;
        status[i] = 1;
      } else {
        status[i] = 2;
      }
      submitted = i + 1;
    }
    cv.notify_one();
  }
  harvester.join();
  return wall.seconds();
}

/// Bit-compare every completed request against its tenant's solo
/// reference output; returns the number of mismatching requests.
int check_bit_identity(const TraceSpec& ts, const std::vector<cvec>& youts,
                       const std::vector<signed char>& status,
                       const std::vector<cvec>& ref) {
  int bad = 0;
  for (std::size_t i = 0; i < ts.tenant.size(); ++i) {
    if (status[i] != 1) continue;
    const auto& want = ref[static_cast<std::size_t>(ts.tenant[i])];
    if (std::memcmp(youts[i].data(), want.data(),
                    want.size() * sizeof(cplx)) != 0) {
      ++bad;
    }
  }
  return bad;
}

void fill_queueing(bench::BenchRecord& r, const serve::MetricsSnapshot& m,
                   double elapsed, std::int64_t allocs) {
  r.seconds = elapsed;
  r.batch = m.completed;
  r.p50_ms = m.p50_ms;
  r.p99_ms = m.p99_ms;
  r.transforms_per_sec =
      elapsed > 0 ? static_cast<double>(m.completed) / elapsed : 0.0;
  r.admitted = m.admitted;
  r.rejected = m.rejected;
  r.queue_peak = m.queue_peak;
  r.steady_state_allocs = allocs;
  r.shed = m.shed;
  for (int t = 0; t < serve::kTiers; ++t) {
    const auto& tr = m.tiers[static_cast<std::size_t>(t)];
    if (tr.admitted == 0 && tr.shed == 0) continue;
    bench::BenchRecord::TierRecord out;
    out.tier = serve::priority_name(static_cast<serve::Priority>(t));
    out.admitted = tr.admitted;
    out.completed = tr.completed;
    out.shed = tr.shed;
    out.p50_ms = tr.p50_ms;
    out.p99_ms = tr.p99_ms;
    r.tiers.push_back(out);
  }
  if (!m.tenants.empty()) {
    double acc = 0.0;
    for (const auto& t : m.tenants) acc += t.overlap_efficiency;
    r.overlap_efficiency = acc / static_cast<double>(m.tenants.size());
  }
}

}  // namespace
}  // namespace soi

int main(int argc, char** argv) {
  using namespace soi;
  const bool json = bench::json_mode(argc, argv);
  const std::int64_t n0 = std::int64_t{1}
                          << env_i64("SOI_BENCH_SERVE_LOG2", 13);
  const std::int64_t n1 = n0 * 2;
  const int requests =
      static_cast<int>(env_i64("SOI_BENCH_SERVE_REQUESTS", 128));
  const int ranks = static_cast<int>(env_i64("SOI_BENCH_SERVE_RANKS", 4));
  const double lat_us =
      static_cast<double>(env_i64("SOI_BENCH_SERVE_LAT_US", 150));
  net::NetOptions nopts;
  nopts.wire_latency_us = lat_us;
  const std::int64_t spr = 2;
  const int kconc = 4;
  auto& reg = tune::PlanRegistry::global();
  const auto prof = reg.profile(win::Accuracy::kHigh);

  const TraceSpec ts = make_trace(requests, n0, n1);
  std::vector<bench::BenchRecord> records;

  // --- serial baseline: the same trace, one forward() at a time ----------
  // Also produces the per-tenant solo reference outputs the service
  // results must match bit-for-bit.
  std::vector<cvec> ref_dist;
  for (int t = 0; t < kTenants; ++t) {
    ref_dist.emplace_back(
        static_cast<std::size_t>(ts.n_of[static_cast<std::size_t>(t % 2)]));
  }
  double serial_seconds = 0.0;
  // Pinned to "sim": the emulated wire latency above is a SimMPI
  // capability, and both measured cases must run the same interconnect.
  net::run_world("sim", ranks, nopts, [&](net::Transport& comm) {
    std::vector<std::unique_ptr<core::SoiFftDist>> plans;
    for (int l = 0; l < 2; ++l) {
      core::DistOptions dopts;
      dopts.segments_per_rank = spr;
      dopts.chunk_depth = 1;
      dopts.overlap = true;
      dopts.validate_input = 0;
      dopts.table = reg.conv_table(ts.n_of[static_cast<std::size_t>(l)],
                                   ranks * spr, *prof);
      plans.push_back(std::make_unique<core::SoiFftDist>(
          comm, ts.n_of[static_cast<std::size_t>(l)], *prof, dopts));
    }
    const int rank = comm.rank();
    // Solo reference pass (one transform per tenant), then the timed
    // one-at-a-time trace.
    for (int t = 0; t < kTenants; ++t) {
      auto& plan = *plans[static_cast<std::size_t>(t % 2)];
      const std::int64_t local = plan.local_size();
      plan.forward(cspan{ts.inputs[static_cast<std::size_t>(t)].data() +
                             rank * local,
                         static_cast<std::size_t>(local)},
                   mspan{ref_dist[static_cast<std::size_t>(t)].data() +
                             rank * local,
                         static_cast<std::size_t>(local)});
    }
    comm.barrier();
    Timer t;
    for (std::size_t i = 0; i < ts.tenant.size(); ++i) {
      auto& plan = *plans[static_cast<std::size_t>(ts.lane[i])];
      const std::int64_t local = plan.local_size();
      const auto ten = static_cast<std::size_t>(ts.tenant[i]);
      plan.forward(cspan{ts.inputs[ten].data() + rank * local,
                         static_cast<std::size_t>(local)},
                   mspan{ref_dist[ten].data() + rank * local,
                         static_cast<std::size_t>(local)});
    }
    comm.barrier();
    if (rank == 0) serial_seconds = t.seconds();
  });
  const double serial_rate =
      static_cast<double>(requests) / serial_seconds;
  {
    auto r = bench::make_record("bench_serve", "serial_baseline", n0,
                                requests, serial_seconds);
    r.transforms_per_sec = serial_rate;
    r.p50_ms = serial_seconds / static_cast<double>(requests) * 1e3;
    r.p99_ms = r.p50_ms;
    r.admitted = requests;
    r.rejected = 0;
    r.queue_peak = 1;
    records.push_back(r);
  }

  // --- serve_dist: co-scheduled batches through the service --------------
  double dist_rate = 0.0;
  int dist_bad = 0;
  {
    serve::ServeOptions so;
    so.transport = "sim";  // same emulated interconnect as the baseline
    so.ranks = ranks;
    so.max_concurrency = kconc;
    so.queue_capacity = 48;
    so.wire_latency_us = lat_us;
    so.batch_linger_us = 1500;  // ~2 same-lane inter-arrivals at 2x load
    serve::TransformService svc(so);
    std::vector<int> lane_ids;
    for (int l = 0; l < 2; ++l) {
      serve::LaneSpec spec;
      spec.n = ts.n_of[static_cast<std::size_t>(l)];
      spec.segments_per_rank = spr;
      lane_ids.push_back(svc.create_lane(spec));
    }
    svc.warmup();
    std::vector<cvec> youts;
    for (std::size_t i = 0; i < ts.tenant.size(); ++i) {
      youts.emplace_back(static_cast<std::size_t>(
          ts.n_of[static_cast<std::size_t>(ts.lane[i])]));
    }
    std::vector<serve::Ticket> tickets(ts.tenant.size());
    std::vector<signed char> status(ts.tenant.size(), 0);
    svc.reset_metrics();
    const std::int64_t allocs0 = alloc_stats().count;
    // 2x the serial-baseline rate: the queue saturates, so batches fill
    // to max_concurrency and the measurement is the service's capacity.
    const double elapsed =
        run_load(svc, ts, lane_ids, youts, 2.0 * serial_rate, tickets,
                 status);
    const std::int64_t allocs = alloc_stats().count - allocs0;
    const auto m = svc.metrics();
    dist_rate = elapsed > 0 ? static_cast<double>(m.completed) / elapsed : 0;
    dist_bad = check_bit_identity(ts, youts, status, ref_dist);
    auto r = bench::make_record("bench_serve", "serve_dist", n0,
                                m.completed, elapsed);
    fill_queueing(r, m, elapsed, allocs);
    records.push_back(r);
    svc.stop();
  }

  // --- tenant-mix sweeps: epoch-packed mixed shapes with priorities -----
  // Each mix drives the same dist backend at the saturating 2x rate; the
  // scheduler packs both lanes' chunk graphs into shared epochs, so the
  // per-tier latency split and the shed counts land in the JSON.
  int mix_bad = 0;
  for (const char* mix :
       {"mix_70_30", "mix_uniform", "mix_priority_skew"}) {
    const TraceSpec mts = make_mix_trace(mix, requests, n0, n1);
    serve::ServeOptions so;
    so.transport = "sim";
    so.ranks = ranks;
    so.max_concurrency = kconc;
    so.queue_capacity = 48;
    so.wire_latency_us = lat_us;
    so.batch_linger_us = 1500;
    serve::TransformService svc(so);
    std::vector<int> lane_ids;
    for (int l = 0; l < 2; ++l) {
      serve::LaneSpec spec;
      spec.n = mts.n_of[static_cast<std::size_t>(l)];
      spec.segments_per_rank = spr;
      lane_ids.push_back(svc.create_lane(spec));
    }
    svc.warmup();
    std::vector<cvec> youts;
    for (std::size_t i = 0; i < mts.tenant.size(); ++i) {
      youts.emplace_back(static_cast<std::size_t>(
          mts.n_of[static_cast<std::size_t>(mts.lane[i])]));
    }
    std::vector<serve::Ticket> tickets(mts.tenant.size());
    std::vector<signed char> status(mts.tenant.size(), 0);
    svc.reset_metrics();
    const std::int64_t allocs0 = alloc_stats().count;
    const double elapsed = run_load(svc, mts, lane_ids, youts,
                                    2.0 * serial_rate, tickets, status);
    const std::int64_t allocs = alloc_stats().count - allocs0;
    const auto m = svc.metrics();
    mix_bad += check_bit_identity(mts, youts, status, ref_dist);
    auto r = bench::make_record("bench_serve", mix, n0,
                                std::max<std::int64_t>(m.completed, 1),
                                elapsed);
    fill_queueing(r, m, elapsed, allocs);
    records.push_back(r);
    svc.stop();
  }

  // --- serve_serial: in-process worker-pool backend ----------------------
  int serial_bad = 0;
  {
    serve::ServeOptions so;
    so.ranks = 0;
    so.workers = 1;
    so.queue_capacity = 32;
    serve::TransformService svc(so);
    std::vector<int> lane_ids;
    for (int l = 0; l < 2; ++l) {
      serve::LaneSpec spec;
      spec.n = ts.n_of[static_cast<std::size_t>(l)];
      spec.segments_per_rank = spr;
      lane_ids.push_back(svc.create_lane(spec));
    }
    svc.warmup();
    // Solo reference per tenant: the SAME shared plan the lanes use
    // (serial geometry P = segments_per_rank differs from the dist one).
    std::vector<cvec> ref;
    for (int t = 0; t < kTenants; ++t) {
      const auto n = ts.n_of[static_cast<std::size_t>(t % 2)];
      cvec y(static_cast<std::size_t>(n));
      reg.serial_plan(n, spr, *prof)->forward(
          ts.inputs[static_cast<std::size_t>(t)], y);
      ref.push_back(std::move(y));
    }
    // Estimate the solo service time to set the open-loop rate.
    std::vector<cvec> youts;
    for (std::size_t i = 0; i < ts.tenant.size(); ++i) {
      youts.emplace_back(static_cast<std::size_t>(
          ts.n_of[static_cast<std::size_t>(ts.lane[i])]));
    }
    Timer probe;
    svc.wait(svc.submit(lane_ids[0], 0, ts.inputs[0], youts[0]));
    const double solo = probe.seconds();
    std::vector<serve::Ticket> tickets(ts.tenant.size());
    std::vector<signed char> status(ts.tenant.size(), 0);
    svc.reset_metrics();
    const std::int64_t allocs0 = alloc_stats().count;
    const double elapsed =
        run_load(svc, ts, lane_ids, youts, 1.2 / solo, tickets, status);
    const std::int64_t allocs = alloc_stats().count - allocs0;
    const auto m = svc.metrics();
    serial_bad = check_bit_identity(ts, youts, status, ref);
    auto r = bench::make_record("bench_serve", "serve_serial", n0,
                                m.completed, elapsed);
    fill_queueing(r, m, elapsed, allocs);
    records.push_back(r);
    svc.stop();
  }

  if (json) {
    std::fputs(bench::to_json(records).c_str(), stdout);
  } else {
    std::printf("%-16s %10s %10s %10s %10s %8s %8s %6s %6s\n", "case",
                "xput/s", "p50 ms", "p99 ms", "admitted", "rejected",
                "qpeak", "shed", "allocs");
    for (const auto& r : records) {
      std::printf(
          "%-16s %10.1f %10.3f %10.3f %10lld %8lld %8lld %6lld %6lld\n",
          r.label.c_str(), r.transforms_per_sec, r.p50_ms, r.p99_ms,
          static_cast<long long>(r.admitted),
          static_cast<long long>(r.rejected),
          static_cast<long long>(r.queue_peak),
          static_cast<long long>(std::max<std::int64_t>(r.shed, 0)),
          static_cast<long long>(r.steady_state_allocs));
      for (const auto& t : r.tiers) {
        std::printf("  tier %-11s admitted %6lld completed %6lld shed "
                    "%6lld p50 %10.3f p99 %10.3f\n",
                    t.tier.c_str(), static_cast<long long>(t.admitted),
                    static_cast<long long>(t.completed),
                    static_cast<long long>(t.shed), t.p50_ms, t.p99_ms);
      }
    }
    std::printf("co-scheduled vs one-at-a-time: %.2fx transforms/sec\n",
                dist_rate / serial_rate);
  }
  if (dist_bad != 0 || serial_bad != 0 || mix_bad != 0) {
    std::fprintf(stderr,
                 "bench_serve: BIT-IDENTITY FAILURE (dist %d, serial %d, "
                 "mix %d mismatching requests)\n",
                 dist_bad, serial_bad, mix_bad);
    return 1;
  }
  return 0;
}
