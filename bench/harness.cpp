#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>

#include "common/env.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "common/types.hpp"
#include "fft/plan.hpp"
#include "net/topology.hpp"
#include "soi/conv_table.hpp"
#include "soi/convolve.hpp"
#include "soi/params.hpp"
#include "tune/autotuner.hpp"

namespace soi::bench {

namespace {
template <class F>
double best_of(int reps, F&& f) {
  double best = 1e300;
  for (int i = 0; i < reps; ++i) {
    Timer t;
    f();
    best = std::min(best, t.seconds());
  }
  return best;
}
}  // namespace

bool json_mode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) return true;
  }
  return false;
}

namespace {
std::int64_t peak_rss_bytes() {
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<std::int64_t>(ru.ru_maxrss) * 1024;  // Linux: KiB
}
}  // namespace

double process_cpu_seconds() {
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                    ru.ru_stime.tv_usec);
}

BenchRecord make_record(std::string bench, std::string label, std::int64_t n,
                        std::int64_t batch, double seconds) {
  BenchRecord rec;
  rec.bench = std::move(bench);
  rec.label = std::move(label);
  rec.n = n;
  rec.batch = batch;
  rec.seconds = seconds;
  const double points = static_cast<double>(n) * static_cast<double>(batch);
  rec.gflops =
      5.0 * points * std::log2(static_cast<double>(n)) / seconds / 1e9;
  rec.ns_per_point = seconds * 1e9 / points;
  rec.peak_rss_bytes = peak_rss_bytes();
  return rec;
}

namespace {
void json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
}
}  // namespace

std::string to_json(const std::vector<BenchRecord>& records) {
  std::ostringstream os;
  os.precision(17);
  os << "[";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    os << (i == 0 ? "\n" : ",\n") << "  {\"bench\": ";
    json_string(os, r.bench);
    os << ", \"case\": ";
    json_string(os, r.label);
    os << ", \"n\": " << r.n << ", \"batch\": " << r.batch
       << ", \"seconds\": " << r.seconds << ", \"gflops\": " << r.gflops
       << ", \"ns_per_point\": " << r.ns_per_point
       << ", \"peak_rss_bytes\": " << r.peak_rss_bytes
       << ", \"steady_state_allocs\": " << r.steady_state_allocs;
    if (r.overlap_efficiency >= 0.0) {
      os << ", \"overlap_efficiency\": " << r.overlap_efficiency;
    }
    if (r.bisection_bytes >= 0) {
      os << ", \"bisection_bytes\": " << r.bisection_bytes;
    }
    if (r.faults_injected >= 0) {
      os << ", \"faults_injected\": " << r.faults_injected
         << ", \"retries\": " << r.retries
         << ", \"checksum_failures\": " << r.checksum_failures;
    }
    if (r.resilience_overhead >= -0.5) {
      os << ", \"resilience_overhead\": " << r.resilience_overhead;
    }
    if (r.recovered_chunks >= 0) {
      os << ", \"recovered_chunks\": " << r.recovered_chunks
         << ", \"parity_bytes\": " << r.parity_bytes;
    }
    if (r.coding_overhead >= 0.0) {
      os << ", \"coding_overhead\": " << r.coding_overhead;
    }
    if (r.transforms_per_sec >= 0.0) {
      os << ", \"p50_ms\": " << r.p50_ms << ", \"p99_ms\": " << r.p99_ms
         << ", \"transforms_per_sec\": " << r.transforms_per_sec
         << ", \"admitted\": " << r.admitted
         << ", \"rejected\": " << r.rejected
         << ", \"queue_peak\": " << r.queue_peak;
      if (r.shed >= 0) os << ", \"shed\": " << r.shed;
      if (!r.tiers.empty()) {
        os << ", \"tiers\": [";
        for (std::size_t t = 0; t < r.tiers.size(); ++t) {
          const BenchRecord::TierRecord& tr = r.tiers[t];
          os << (t == 0 ? "" : ", ") << "{\"tier\": ";
          json_string(os, tr.tier);
          os << ", \"admitted\": " << tr.admitted
             << ", \"completed\": " << tr.completed
             << ", \"shed\": " << tr.shed << ", \"p50_ms\": " << tr.p50_ms
             << ", \"p99_ms\": " << tr.p99_ms << "}";
        }
        os << "]";
      }
    }
    if (!r.transport.empty()) {
      os << ", \"transport\": ";
      json_string(os, r.transport);
    }
    if (!r.engine.empty()) {
      os << ", \"engine\": ";
      json_string(os, r.engine);
    }
    if (!r.stages.empty()) {
      os << ", \"stages\": [";
      for (std::size_t s = 0; s < r.stages.size(); ++s) {
        const exec::StageRecord& st = r.stages[s];
        os << (s == 0 ? "" : ", ") << "{\"stage\": ";
        json_string(os, st.name);
        os << ", \"chunks\": " << st.chunks << ", \"seconds\": "
           << st.seconds << ", \"wait_seconds\": " << st.wait_seconds
           << ", \"retries\": " << st.retries << ", \"bytes\": "
           << st.bytes_moved << ", \"measured\": "
           << (st.bytes_measured ? "true" : "false")
           << ", \"flops\": " << st.flops << "}";
      }
      os << "]";
    }
    os << "}";
  }
  os << "\n]\n";
  return os.str();
}

RankCompute measure_soi_rank(std::int64_t points_per_rank, int nodes,
                             const win::SoiProfile& profile, int reps,
                             std::int64_t max_segments_per_rank) {
  const std::int64_t s = points_per_rank;
  const std::int64_t n_total = s * nodes;

  // The paper runs 8 segments per process ("8 segment/process", Table 1):
  // finer granularity and decent F_P sizes even on few nodes. Use the
  // largest segments-per-rank (<= the cap) whose geometry is valid at this
  // problem size (the halo must fit inside one segment).
  std::int64_t spr = max_segments_per_rank;
  std::unique_ptr<core::SoiGeometry> geom;
  for (; spr >= 1; spr /= 2) {
    try {
      geom = std::make_unique<core::SoiGeometry>(
          n_total, spr * static_cast<std::int64_t>(nodes), profile);
      break;
    } catch (const Error&) {
      continue;  // halo/divisibility fails; try coarser segmentation
    }
  }
  SOI_CHECK(geom != nullptr, "measure_soi_rank: no valid segmentation for S="
                                 << s << " nodes=" << nodes);
  const core::SoiGeometry& g = *geom;
  const core::ConvTable table(g, *profile.window);
  const std::int64_t mc = g.chunks_per_rank();   // per geometry-rank
  const std::int64_t p = g.p();                  // segments total
  const std::int64_t mprime = g.mprime();        // per-segment M'

  // One physical rank owns `spr` consecutive geometry-ranks.
  cvec in(static_cast<std::size_t>(g.local_input() + (spr - 1) * g.m()));
  fill_gaussian(in, 1234);
  cvec v(static_cast<std::size_t>(spr * mc * p));
  cvec vf(v.size());
  cvec sendbuf(v.size());
  cvec u(static_cast<std::size_t>(spr * mprime));
  cvec uf(u.size());
  cvec y(static_cast<std::size_t>(spr * g.m()));

  const fft::FftPlan plan_p(p);
  const fft::FftPlan plan_mp(mprime);

  RankCompute rc;
  // The pipeline's conv stage: split the rank's input once, then one
  // kernel call over the groups of all spr segments.
  dvec split(2 * in.size());
  const std::span<const double> in_re{split.data(), in.size()};
  const std::span<const double> in_im{split.data() + in.size(), in.size()};
  rc.conv = best_of(reps, [&] {
    core::split_complex<double>(in, split.data(), split.data() + in.size());
    core::convolve_split_groups<double>(g, table, in_re, in_im, v, 0,
                                        spr * g.groups_per_rank());
  });
  rc.fp = best_of(reps, [&] { plan_p.forward_batch(v, vf, spr * mc); });
  rc.pack = best_of(reps, [&] {
    for (std::int64_t dst = 0; dst < p; ++dst) {
      cplx* out = sendbuf.data() + dst * spr * mc;
      const cplx* src = vf.data() + dst;
      for (std::int64_t j = 0; j < spr * mc; ++j) out[j] = src[j * p];
    }
  });
  // Stand-in contents for the post-exchange buffer (timing only).
  std::copy(sendbuf.begin(), sendbuf.end(), u.begin());
  rc.fm = best_of(reps, [&] { plan_mp.forward_batch(u, uf, spr); });
  const cspan demod = table.demod();
  rc.demod = best_of(reps, [&] {
    for (std::int64_t seg = 0; seg < spr; ++seg) {
      const cplx* src = uf.data() + seg * mprime;
      cplx* dst = y.data() + seg * g.m();
      for (std::int64_t k = 0; k < g.m(); ++k) {
        dst[k] = src[k] * demod[static_cast<std::size_t>(k)];
      }
    }
  });
  return rc;
}

RankCompute measure_sixstep_rank(std::int64_t points_per_rank, int nodes,
                                 int reps) {
  const std::int64_t s = points_per_rank;  // == M (points per rank)
  const std::int64_t p = nodes;
  const std::int64_t rows = s / p;  // chunks of F_P after transpose #1

  cvec a(static_cast<std::size_t>(s));
  fill_gaussian(a, 4321);
  cvec b(a.size());
  cvec tw(a.size());
  fill_gaussian(tw, 99);  // stand-in twiddles: same flop count

  const fft::FftPlan plan_p(p);
  const fft::FftPlan plan_m(s);

  RankCompute rc;
  rc.fp = best_of(reps, [&] { plan_p.forward_batch(a, b, rows); });
  rc.twiddle = best_of(reps, [&] {
    for (std::int64_t i = 0; i < s; ++i) {
      a[static_cast<std::size_t>(i)] *= tw[static_cast<std::size_t>(i)];
    }
  });
  rc.fm = best_of(reps, [&] { plan_m.forward(a, b); });
  // Three local transposes accompany the three exchanges (Fig. 3's local
  // permutations); measure one and count it three times.
  const double one_pack = best_of(reps, [&] {
    for (std::int64_t r = 0; r < p; ++r) {
      for (std::int64_t j = 0; j < rows; ++j) {
        b[static_cast<std::size_t>(j * p + r)] =
            a[static_cast<std::size_t>(r * rows + j)];
      }
    }
  });
  rc.pack = 3.0 * one_pack;
  return rc;
}

ClusterTime soi_cluster_time(const RankCompute& rc,
                             const net::NetworkModel& net, int nodes,
                             std::int64_t points_per_rank,
                             const win::SoiProfile& profile) {
  ClusterTime ct;
  ct.compute = rc.total();
  const double oversample = profile.oversampling();
  const auto a2a_bytes = static_cast<std::int64_t>(
      oversample * 16.0 * static_cast<double>(points_per_rank));
  ct.comm = net.alltoall_seconds(nodes, a2a_bytes);
  if (nodes > 1) {
    // Halo sendrecv: (B + 2 nu - nu) * P complex values.
    const std::int64_t halo_bytes =
        (profile.taps + profile.nu) * nodes * 16;
    ct.comm += net.p2p_seconds(halo_bytes);
  }
  return ct;
}

ClusterTime sixstep_cluster_time(const RankCompute& rc,
                                 const net::NetworkModel& net, int nodes,
                                 std::int64_t points_per_rank) {
  ClusterTime ct;
  ct.compute = rc.total();
  const std::int64_t a2a_bytes = 16 * points_per_rank;
  ct.comm = 3.0 * net.alltoall_seconds(nodes, a2a_bytes);
  return ct;
}

double gflops(std::int64_t points_per_rank, int nodes, double seconds) {
  const double n =
      static_cast<double>(points_per_rank) * static_cast<double>(nodes);
  return 5.0 * n * std::log2(n) / seconds / 1e9;
}

double measured_fft_gflops(std::int64_t points_per_rank, int reps) {
  const fft::FftPlan plan(points_per_rank);
  cvec x(static_cast<std::size_t>(points_per_rank)), y(x.size());
  cvec work(plan.workspace_size());
  fill_gaussian(x, 555);
  const double t = best_of(reps, [&] { plan.forward(x, y, work); });
  const double s = static_cast<double>(points_per_rank);
  return 5.0 * s * std::log2(s) / t / 1e9;
}

double fabric_balance_scale(std::int64_t points_per_rank, int reps) {
  return measured_fft_gflops(points_per_rank, reps) / kPaperNodeFftGflops;
}

std::unique_ptr<net::NetworkModel> scaled_fat_tree(double scale) {
  // 50% full-exchange efficiency as in make_endeavor_fat_tree().
  return std::make_unique<net::FatTreeModel>(
      net::LinkSpec{40.0 * scale, 1.5e-6 / scale}, 32, 0.35, 0.5);
}

std::unique_ptr<net::NetworkModel> scaled_torus(double scale) {
  return std::make_unique<net::Torus3DModel>(
      net::LinkSpec{40.0 * scale, 1.5e-6 / scale}, 120.0 * scale, 16, 0.5);
}

std::unique_ptr<net::NetworkModel> scaled_ethernet(double scale) {
  return std::make_unique<net::EthernetModel>(
      net::LinkSpec{10.0 * scale, 10e-6 / scale}, 0.30);
}

void check_topology_pricing_parity(const net::NetworkModel& fabric,
                                   std::int64_t points_per_rank, int nodes,
                                   win::Accuracy accuracy) {
  if (nodes < 4) return;  // no non-degenerate staged shape to price
  const tune::TuneKey key{points_per_rank * nodes, nodes, accuracy};
  tune::TuneOptions opts;
  opts.fabric = &fabric;
  // Finest feasible segmentation at this shape (the tuner's own sweep
  // starts the same way); the comparison only needs one valid geometry.
  tune::CandidateScore flat{};
  tune::Candidate cand;
  cand.accuracy = accuracy;
  bool found = false;
  for (std::int64_t spr = 8; spr >= 1 && !found; spr /= 2) {
    cand.segments_per_rank = spr;
    try {
      flat = tune::score_candidate(key, cand, opts);
      found = true;
    } catch (const Error&) {
      continue;  // halo/divisibility infeasible; coarsen
    }
  }
  SOI_CHECK(found, "topology parity: no feasible segmentation for "
                       << key.str());

  tune::Candidate explicit_flat = cand;
  explicit_flat.topology = "flat";
  const double flat_named =
      tune::score_candidate(key, explicit_flat, opts).total_seconds();
  SOI_CHECK(flat_named == flat.total_seconds(),
            "topology parity: '' and 'flat' priced differently ("
                << flat_named << " vs " << flat.total_seconds() << ")");

  tune::Candidate two_level = cand;
  two_level.topology = net::Topology::two_level(nodes).str();
  tune::Candidate torus = cand;
  torus.topology = net::Topology::torus(nodes).str();
  const double tl = tune::score_candidate(key, two_level, opts).total_seconds();
  const double tr = tune::score_candidate(key, torus, opts).total_seconds();
  const double fl = flat.total_seconds();
  SOI_CHECK(tl <= fl * (1.0 + 1e-12),
            "topology parity: two-level priced above flat pairwise ("
                << tl << " vs " << fl << ") on " << fabric.name());
  SOI_CHECK(tr > 0.2 * fl && tr < 3.0 * fl,
            "topology parity: torus estimate " << tr
                << " outside the [0.2, 3.0]x sanity band of flat " << fl
                << " on " << fabric.name());
  std::printf(
      "topology pricing parity (%s, %d nodes): two-level/flat = %.3f, "
      "torus/flat = %.3f — flat remains the figure reference\n",
      fabric.name().c_str(), nodes, tl / fl, tr / fl);
}

BenchScale bench_scale() {
  BenchScale s;
  const std::int64_t lg = env_i64("SOI_BENCH_POINTS_LOG2", 17);
  s.points_per_rank = std::int64_t{1} << lg;
  s.reps = static_cast<int>(env_i64("SOI_BENCH_REPS", 3));
  s.max_nodes = static_cast<int>(env_i64("SOI_BENCH_MAX_NODES", 64));
  return s;
}

}  // namespace soi::bench
