// perfbench — the measuring program behind perfbench/run.py (see
// perfbench/README.md for the workloads and every metric).
//
//   perfbench --workload serial_4m|dist_shm_1m|serve_mix --seed S
//             --seconds T --trace 0|1 --phase setup|measure [--smoke]
//
// One invocation runs ONE phase of ONE workload and prints one JSON line:
//
//   * `setup` builds the workload cold, from nothing to its first output,
//     and reports the set-up timings. run.py starts several of these
//     processes per run, so every set-up sample is genuinely cold.
//   * `measure` repeats the set-up once, runs the warm phase for T
//     seconds, and checks every output (bit-identity against the first
//     output or a solo run, SNR against an fft::FftPlan reference, zero
//     aligned allocations in steady state). With --trace 1 it also times
//     the layer calls listed in README.md and reads the trace records the
//     library already keeps for the same forwards.
//
// Everything is measured from here, through the library's public API:
// nothing in src/ is instrumented for the benchmark.
#include <sched.h>
#include <sys/mman.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <new>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "common/aligned.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/timer.hpp"
#include "common/types.hpp"
#include "fft/engine.hpp"
#include "fft/plan.hpp"
#include "net/registry.hpp"
#include "net/transport.hpp"
#include "serve/service.hpp"
#include "soi/conv_table.hpp"
#include "soi/convolve.hpp"
#include "soi/dist.hpp"
#include "soi/serial.hpp"
#include "tune/registry.hpp"
#include "window/design.hpp"

namespace {

using soi::cplx;
using soi::cspan;
using soi::cvec;
using soi::mspan;
using soi::Timer;
namespace core = soi::core;
namespace net = soi::net;
namespace serve = soi::serve;
namespace win = soi::win;

constexpr win::Accuracy kAccuracy = win::Accuracy::kHigh;
/// SNR floor: the accuracy tier's design target minus one digit.
constexpr double kSnrMarginDb = 20.0;
/// Warm repetitions at least: the p90 then has >= 10 samples beyond it.
constexpr int kMinWarmReps = 100;
constexpr int kMaxReps = 4096;
constexpr int kMaxRanks = 8;
/// Lock-step repetitions of each layer call timed inside a rank world.
constexpr int kMicroReps = 15;
/// Blocks of consecutive warm samples behind transform_p90_ms: with at
/// least kMinWarmReps samples, each block holds at least 20.
constexpr std::size_t kTailBlocks = 5;
constexpr double kMiB = 1024.0 * 1024.0;

// --- small helpers ---------------------------------------------------------

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Harrell-Davis estimate of quantile q in (0, 1): the mean of the order
/// statistics weighted by a Beta((n+1)q, (n+1)(1-q)) density. Unlike the
/// plain sample quantile it does not jump between neighbouring samples, so
/// tails of lumpy timing distributions read steadily from run to run.
/// +inf samples (lost requests) propagate once their weight is material.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n == 1) return v[0];
  const double a = static_cast<double>(n + 1) * q;
  const double b = static_cast<double>(n + 1) * (1.0 - q);
  const double log_norm = std::lgamma(a) + std::lgamma(b) - std::lgamma(a + b);
  // Weight of order statistic i: the Beta mass over [i/n, (i+1)/n),
  // integrated with a midpoint rule and renormalised.
  constexpr int kSub = 16;
  const double h = 1.0 / static_cast<double>(n * kSub);
  double total = 0.0, acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double w = 0.0;
    for (int k = 0; k < kSub; ++k) {
      const double x = (static_cast<double>(i * kSub + k) + 0.5) * h;
      w += std::exp((a - 1.0) * std::log(x) + (b - 1.0) * std::log1p(-x) -
                    log_norm);
    }
    w *= h;
    total += w;
    if (w > 1e-9) acc += w * v[i];
  }
  return acc / total;
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Plain sample median, for a few per-block figures: unlike the
/// Harrell-Davis estimate, it gives an outlying block no weight at all.
double block_median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return 0.5 * (v[(n - 1) / 2] + v[n / 2]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

void set_omp_threads(int threads) {
#ifdef _OPENMP
  omp_set_num_threads(threads);
#else
  (void)threads;
#endif
}

/// Median seconds of `f` after one untimed warm call: at least `min_reps`
/// calls and at least `budget_s` seconds.
template <class F>
double median_seconds(F&& f, double budget_s, int min_reps) {
  f();
  std::vector<double> t;
  const Timer total;
  while (static_cast<int>(t.size()) < min_reps ||
         (total.seconds() < budget_s && t.size() < 1000)) {
    const Timer one;
    f();
    t.push_back(one.seconds());
  }
  return median(t);
}

/// 5 N log2 N, the customary flop count of one complex FFT of length n.
double fft_flops(std::int64_t n, std::int64_t count) {
  return 5.0 * static_cast<double>(n) * std::log2(static_cast<double>(n)) *
         static_cast<double>(count);
}

double snr_floor_db() { return win::target_snr_db(kAccuracy) - kSnrMarginDb; }

bool same_bits(cspan a, cspan b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(cplx)) == 0;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

// --- report ----------------------------------------------------------------

struct Budget {
  int ranks = 1;
  int omp_threads = 1;
  [[nodiscard]] int threads() const { return ranks * omp_threads; }
};

/// Metrics, operation counts and failures of one invocation; printed as
/// the single JSON line run.py parses.
class Report {
 public:
  void put(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  void fail(const std::string& why) { errors_.push_back(why); }
  void count(std::int64_t attempted, std::int64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  [[nodiscard]] bool ok() const { return errors_.empty(); }

  void print(const std::string& phase, const std::string& workload,
             const Budget& b) const {
    std::printf(
        "{\"phase\": \"%s\", \"workload\": \"%s\", \"ranks\": %d, "
        "\"omp_threads\": %d, \"threads\": %d, \"nproc\": %d, "
        "\"attempted\": %lld, \"failed\": %lld, \"errors\": [",
        phase.c_str(), workload.c_str(), b.ranks, b.omp_threads, b.threads(),
        nproc(), static_cast<long long>(attempted_),
        static_cast<long long>(failed_));
    for (std::size_t i = 0; i < errors_.size(); ++i) {
      std::printf("%s\"%s\"", i ? ", " : "", json_escape(errors_[i]).c_str());
    }
    std::printf("], \"metrics\": {");
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const auto& m = metrics_[i];
      // Non-finite values would not be JSON; run.py rejects the null.
      if (std::isfinite(m.value)) {
        std::printf("%s\"%s\": [%.17g, \"%s\"]", i ? ", " : "",
                    m.name.c_str(), m.value, m.unit.c_str());
      } else {
        std::printf("%s\"%s\": [null, \"%s\"]", i ? ", " : "",
                    m.name.c_str(), m.unit.c_str());
      }
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> errors_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

struct Args {
  std::string workload;
  std::string phase = "measure";
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  [[nodiscard]] bool setup_only() const { return phase == "setup"; }
};

/// Quantile q of the warm samples, read per block: the plain median of the
/// quantiles of kTailBlocks consecutive blocks of samples. A burst of host
/// interference that spoils fewer than half of the blocks does not move it,
/// whereas it would drag a tail quantile taken over the whole run.
double block_quantile(const std::vector<double>& v, double q) {
  const std::size_t per_block = v.size() / kTailBlocks;
  if (per_block < 2) return quantile(v, q);
  std::vector<double> per;
  for (std::size_t b = 0; b < kTailBlocks; ++b) {
    const auto first = v.begin() + static_cast<std::ptrdiff_t>(b * per_block);
    per.push_back(quantile(
        std::vector<double>(first,
                            first + static_cast<std::ptrdiff_t>(per_block)),
        q));
  }
  return block_median(per);
}

/// Closed-loop end-to-end metrics from warm per-transform wall times: one
/// caller issuing transforms back to back, so its request latency is the
/// transform time.
void put_closed_loop(Report& rep, const std::vector<double>& wall_s) {
  const double p50 = median(wall_s) * 1e3;
  rep.put("transform_ms", p50, "ms");
  rep.put("transform_p90_ms", block_quantile(wall_s, 0.9) * 1e3, "ms");
  rep.put("serve_p50_ms", p50, "ms");
}

/// Quartiles of the warm transform times, reported with the layers.
void put_quartiles(Report& rep, const std::vector<double>& wall_s) {
  rep.put("transform_q1_ms", quantile(wall_s, 0.25) * 1e3, "ms");
  rep.put("transform_q3_ms", quantile(wall_s, 0.75) * 1e3, "ms");
}

void put_ok_frac(Report& rep, std::int64_t attempted, std::int64_t failed) {
  rep.count(attempted, failed);
  rep.put("ok_frac",
          static_cast<double>(attempted - failed) /
              static_cast<double>(std::max<std::int64_t>(attempted, 1)),
          "ratio");
}

void check_snr(Report& rep, double snr) {
  rep.put("snr_db", snr, "dB");
  if (!(snr >= snr_floor_db())) {
    rep.fail("SNR " + std::to_string(snr) + " dB below the floor " +
             std::to_string(snr_floor_db()) + " dB");
  }
}

void check_allocs(Report& rep, std::int64_t allocs) {
  if (allocs != 0) {
    rep.fail(std::to_string(allocs) + " aligned allocations in steady state");
  }
}

// --- trace records ---------------------------------------------------------

/// Stage seconds of one forward, read from the plan's own trace log.
struct StageSample {
  core::SoiStageBreakdown bd;
  double exchange_wait = 0.0;  ///< part of the exchange blocked in waits
  double sum = 0.0;            ///< every record's seconds
};

StageSample read_trace(const soi::exec::TraceLog& log) {
  StageSample s;
  s.bd = core::SoiStageBreakdown::from_trace(log);
  if (const auto* ex = log.find("exchange")) s.exchange_wait = ex->wait_seconds;
  s.sum = log.total_seconds();
  return s;
}

/// A per-layer metric read from the stage records, and its field.
struct StageField {
  const char* metric;
  double& (*get)(StageSample&);
};

constexpr StageField kStageFields[] = {
    {"soi.conv_stage_ms", [](StageSample& s) -> double& { return s.bd.conv; }},
    {"soi.f_p_ms", [](StageSample& s) -> double& { return s.bd.fp; }},
    {"soi.unpack_ms", [](StageSample& s) -> double& { return s.bd.pack; }},
    {"soi.f_mprime_ms", [](StageSample& s) -> double& { return s.bd.fm; }},
    {"soi.demod_ms", [](StageSample& s) -> double& { return s.bd.demod; }},
    {"net.halo_ms", [](StageSample& s) -> double& { return s.bd.halo; }},
    {"net.exchange_ms",
     [](StageSample& s) -> double& { return s.bd.alltoall; }},
    {"net.exchange_wait_ms",
     [](StageSample& s) -> double& { return s.exchange_wait; }},
};

/// Per-layer figures of the traced forwards: `stages[i]` was read right
/// after the forward whose call took `wall[i]` seconds. Returns the median
/// conv stage in ms.
double put_stage_metrics(Report& rep, const std::vector<StageSample>& stages,
                         const std::vector<double>& wall) {
  for (const auto& f : kStageFields) {
    std::vector<double> v;
    for (StageSample s : stages) v.push_back(f.get(s) * 1e3);
    rep.put(f.metric, median(v), "ms");
  }
  std::vector<double> conv, ratio, overhead;
  for (std::size_t i = 0; i < stages.size(); ++i) {
    conv.push_back(stages[i].bd.conv * 1e3);
    ratio.push_back(stages[i].sum / wall[i]);
    overhead.push_back((wall[i] - stages[i].sum) * 1e3);
  }
  rep.put("soi.stage_sum_over_wall", median(ratio), "ratio");
  rep.put("exec.overhead_ms", median(overhead), "ms");
  return median(conv);
}

// --- layer calls timed on their own ----------------------------------------

/// Buffers and engines for timing convolve_rank and the batch/scalar FFT
/// engines at one rank's shape: `spr` segments of geometry `g`. The conv
/// output, the F_P input (chunks x P) and the F_M' input (spr x M') all
/// hold spr * M' points, so the kit keeps one input and one output.
struct LayerKit {
  LayerKit(const core::SoiGeometry& g, const win::SoiProfile& prof,
           std::int64_t spr_, cspan x, std::int64_t offset)
      : geom(g),
        spr(spr_),
        table(g, *prof.window),
        ext(static_cast<std::size_t>(spr_ * g.m() + g.halo())),
        in(static_cast<std::size_t>(spr_ * g.mprime())),
        out(in.size()),
        batch_fp(soi::fft::EngineRegistry::instance().make("batch", g.p(), 0)),
        batch_fmp(
            soi::fft::EngineRegistry::instance().make("batch", g.mprime(), 0)),
        scalar_fmp(soi::fft::EngineRegistry::instance().make("scalar",
                                                             g.mprime(), 0)) {
    const auto n = static_cast<std::int64_t>(x.size());
    for (std::size_t i = 0; i < ext.size(); ++i) {
      ext[i] = x[static_cast<std::size_t>(
          (offset + static_cast<std::int64_t>(i)) % n)];
    }
    for (std::size_t i = 0; i < in.size(); ++i) in[i] = ext[i % ext.size()];
  }

  void conv() {
    const std::int64_t rows = geom.chunks_per_rank() * geom.p();
    for (std::int64_t s = 0; s < spr; ++s) {
      core::convolve_rank<double>(
          geom, table,
          cspan{ext.data() + s * geom.m(),
                static_cast<std::size_t>(geom.local_input())},
          mspan{out.data() + s * rows, static_cast<std::size_t>(rows)});
    }
  }
  void fp() { batch_fp->forward(in, out, spr * geom.chunks_per_rank()); }
  void fmp() { batch_fmp->forward(in, out, spr); }
  void scalar() { scalar_fmp->forward(in, out, spr); }

  const core::SoiGeometry geom;
  const std::int64_t spr;
  const core::ConvTable table;
  cvec ext, in, out;
  std::unique_ptr<const soi::fft::BatchTransform> batch_fp, batch_fmp,
      scalar_fmp;
};

/// Bytes convolving `spr` segments must move at least (computed, not
/// measured): every segment's input window and output rows plus the
/// coefficient table.
double conv_bytes(const core::SoiGeometry& g, std::int64_t spr) {
  const double per_seg =
      static_cast<double>(g.local_input() + g.chunks_per_rank() * g.p());
  const double tab = static_cast<double>(g.mu() * g.taps() * g.p());
  return (static_cast<double>(spr) * per_seg + tab) *
         static_cast<double>(sizeof(cplx));
}

void put_conv_fft(Report& rep, const core::SoiGeometry& g, std::int64_t spr,
                  double conv_s, double fp_s, double fmp_s, double scalar_s,
                  double conv_stage_ms) {
  rep.put("soi.conv_kernel_ms", conv_s * 1e3, "ms");
  rep.put("soi.conv_kernel_gbps", conv_bytes(g, spr) / conv_s / 1e9, "GB/s");
  rep.put("soi.conv_stage_over_kernel", conv_stage_ms / (conv_s * 1e3),
          "ratio");
  rep.put("fft.fp_ms", fp_s * 1e3, "ms");
  rep.put("fft.fmp_ms", fmp_s * 1e3, "ms");
  rep.put("fft.fmp_gflops",
          fft_flops(g.mprime(), spr) / fmp_s / 1e9, "GFLOP/s");
  rep.put("fft.scalar_fmp_ms", scalar_s * 1e3, "ms");
}

/// Plain single-threaded FftPlan of the full length: the baseline the SOI
/// transform is compared with.
void put_plain_fft(Report& rep, cspan x, double budget_s, int omp_restore) {
  set_omp_threads(1);
  const auto n = static_cast<std::int64_t>(x.size());
  const soi::fft::FftPlan plan(n);
  cvec out(x.size());
  cvec work(plan.workspace_size());
  const double s = median_seconds([&] { plan.forward(x, out, work); },
                                  budget_s, 3);
  set_omp_threads(omp_restore);
  rep.put("fft.plain_ms", s * 1e3, "ms");
  rep.put("fft.plain_gflops", fft_flops(n, 1) / s / 1e9, "GFLOP/s");
}

double reference_snr(cspan x, cspan y) {
  const soi::fft::FftPlan plan(static_cast<std::int64_t>(x.size()));
  cvec want(x.size());
  plan.forward(x, want);
  return soi::snr_db(y, want);
}

// --- serial_4m ---------------------------------------------------------------

void run_serial(const Args& a, const Budget& b, Report& rep) {
  const std::int64_t n = a.smoke ? std::int64_t{1} << 16 : std::int64_t{1}
                                                                << 22;
  const std::int64_t p = 32;
  cvec x(static_cast<std::size_t>(n));
  cvec y0(x.size());
  cvec y(x.size());
  soi::fill_gaussian(x, a.seed);

  const Timer setup;
  Timer t;
  const win::SoiProfile prof = win::make_profile(kAccuracy);
  const double profile_s = t.seconds();
  t.reset();
  const auto plan = std::make_unique<core::SoiFftSerial>(n, p, prof, "batch");
  const double plan_s = t.seconds();
  t.reset();
  plan->forward(x, y0);
  const double first_s = t.seconds();
  rep.put("setup_s", setup.seconds(), "s");
  rep.put("window.profile_s", profile_s, "s");
  rep.put("soi.plan_s", plan_s, "s");
  rep.put("soi.first_forward_s", first_s, "s");
  if (a.setup_only()) return;

  // Warm phase. With tracing on, every forward's trace is read after its
  // wall time is taken.
  std::vector<double> wall;
  std::vector<StageSample> stages;
  wall.reserve(kMaxReps);
  stages.reserve(kMaxReps);
  std::int64_t wrong = 0, allocs = 0;
  const Timer phase;
  int reps = 0;
  while (reps < kMaxReps &&
         (reps < kMinWarmReps || phase.seconds() < a.seconds)) {
    const std::int64_t a0 = soi::alloc_stats().count;
    const Timer one;
    plan->forward(x, y);
    wall.push_back(one.seconds());
    allocs += soi::alloc_stats().count - a0;
    if (a.trace) stages.push_back(read_trace(plan->last_trace()));
    if (!same_bits(y, y0)) ++wrong;
    ++reps;
  }
  const double rss = peak_rss_mb();
  if (wrong != 0) {
    rep.fail(std::to_string(wrong) + " warm outputs differ from the first");
  }
  check_allocs(rep, allocs);
  const double snr = reference_snr(x, y0);
  check_snr(rep, snr);
  put_closed_loop(rep, wall);
  rep.put("peak_rss_mb", rss, "MiB");
  put_ok_frac(rep, reps + 1, wrong + (snr >= snr_floor_db() ? 0 : 1));
  if (!a.trace) return;

  // Per-layer figures: stage records of the traced forwards above, then
  // the layer calls timed on their own at the same shape and threads.
  put_quartiles(rep, wall);
  const double conv_stage_ms = put_stage_metrics(rep, stages, wall);
  t.reset();
  { const core::ConvTable table(plan->geometry(), *prof.window); }
  rep.put("soi.table_s", t.seconds(), "s");
  LayerKit kit(plan->geometry(), prof, p, x, 0);
  const double micro = a.smoke ? 0.02 : 0.5;
  const double conv_s = median_seconds([&] { kit.conv(); }, micro, 3);
  const double fp_s = median_seconds([&] { kit.fp(); }, micro, 3);
  const double fmp_s = median_seconds([&] { kit.fmp(); }, micro, 3);
  const double sc_s = median_seconds([&] { kit.scalar(); }, micro, 3);
  put_conv_fft(rep, kit.geom, p, conv_s, fp_s, fmp_s, sc_s, conv_stage_ms);
  put_plain_fft(rep, x, micro, b.omp_threads);
  rep.put("mem.arena_mb",
          static_cast<double>(plan->workspace().peak_bytes()) / kMiB, "MiB");
  rep.put("mem.steady_allocs", static_cast<double>(allocs), "count");
}

// --- rank worlds (dist_shm_1m; the serve_mix traced run) -------------------

struct DistShape {
  std::string transport;
  int ranks = 4;
  std::int64_t n = 0;
  std::int64_t spr = 8;
  double wire_latency_us = 0.0;
};

/// What each rank reports back. Lives in an anonymous shared mapping, so
/// forked ranks ("shm") and rank threads ("sim") write it alike.
struct RankSlot {
  double table_s, plan_s, first_s;
  double rep_s[kMaxReps];  ///< barrier to barrier
  double fwd_s[kMaxReps];  ///< the forward() call alone
  StageSample stage[kMaxReps];
  double conv_s[kMicroReps], fp_s[kMicroReps], fmp_s[kMicroReps],
      scalar_s[kMicroReps], a2a_s[kMicroReps];
  double rss_mb, arena_mb, snr;
  std::int64_t allocs, wrong, comm_bytes;
  int done;
};

struct WorldShared {
  double first_output_at;  ///< steady clock, after the first forward
  double messages;         ///< messages one forward sends per rank
  std::int64_t reps;
  RankSlot rank[kMaxRanks];
};

/// Owner of one anonymous MAP_SHARED mapping holding a WorldShared.
class SharedWorld {
 public:
  SharedWorld() {
    mem_ = mmap(nullptr, sizeof(WorldShared), PROT_READ | PROT_WRITE,
                MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (mem_ == MAP_FAILED) throw std::bad_alloc();
    data_ = new (mem_) WorldShared();
  }
  ~SharedWorld() { munmap(mem_, sizeof(WorldShared)); }
  SharedWorld(const SharedWorld&) = delete;
  SharedWorld& operator=(const SharedWorld&) = delete;
  WorldShared& operator*() const { return *data_; }
  WorldShared* operator->() const { return data_; }

 private:
  void* mem_ = nullptr;
  WorldShared* data_ = nullptr;
};

struct WorldRun {
  double setup_s = 0.0;
  std::int64_t reps = 0;
};

/// Launch the world, build every rank's plan, run the first forward and —
/// unless `setup_only` — the warm lock-step loop for `budget_s` seconds,
/// the gathered SNR check and (with `micro`) the layer calls in lock step.
WorldRun run_world_phase(const DistShape& sh, const win::SoiProfile& prof,
                         cspan x, double t_start, double budget_s,
                         int min_reps, bool setup_only, bool trace,
                         bool micro, WorldShared& out) {
  net::NetOptions nopts;
  nopts.wire_latency_us = sh.wire_latency_us;
  net::run_world(sh.transport, sh.ranks, nopts, [&](net::Transport& comm) {
    const int r = comm.rank();
    RankSlot& me = out.rank[r];
    Timer t;
    const core::SoiGeometry geom(sh.n, sh.ranks * sh.spr, prof);
    const auto table = std::make_shared<const core::ConvTable>(geom,
                                                               *prof.window);
    me.table_s = t.seconds();
    t.reset();
    core::DistOptions o;
    o.segments_per_rank = sh.spr;
    o.overlap = true;
    o.engine = "batch";
    o.validate_input = 0;
    o.table = table;
    core::SoiFftDist plan(comm, sh.n, prof, o);
    me.plan_s = t.seconds();
    t.reset();
    const std::int64_t local = plan.local_size();
    const cspan xl{x.data() + r * local, static_cast<std::size_t>(local)};
    cvec y0(static_cast<std::size_t>(local));
    cvec y(y0.size());
    plan.forward(xl, y0);
    me.first_s = t.seconds();
    comm.barrier();
    if (r == 0) out.first_output_at = now_s();
    if (setup_only) {
      me.done = 1;
      return;
    }

    const Timer phase;
    int reps = 0;
    for (;;) {
      comm.barrier();
      const std::int64_t a0 = soi::alloc_stats().count;
      const double t0 = now_s();
      plan.forward(xl, y);
      const double t1 = now_s();
      me.allocs += soi::alloc_stats().count - a0;
      comm.barrier();
      me.rep_s[reps] = now_s() - t0;
      me.fwd_s[reps] = t1 - t0;
      if (trace) me.stage[reps] = read_trace(plan.last_trace());
      if (!same_bits(y, y0)) ++me.wrong;
      ++reps;
      const bool stop = reps >= kMaxReps ||
                        (reps >= min_reps && phase.seconds() >= budget_s);
      if (comm.allreduce_max(r == 0 && stop ? 1.0 : 0.0) > 0.0) break;
    }
    me.rss_mb = peak_rss_mb();
    me.arena_mb = static_cast<double>(plan.workspace().peak_bytes()) / kMiB;
    const auto bd = core::SoiStageBreakdown::from_trace(plan.last_trace());
    me.comm_bytes = bd.halo_bytes + bd.alltoall_bytes;
    if (r == 0) out.reps = reps;

    cvec full(x.size());
    comm.gather(y0, full, 0);
    if (r == 0) me.snr = reference_snr(x, full);

    if (micro) {
      // Messages one forward sends per rank: counted in the transport's
      // traffic log where it keeps one ("sim": every p2p send is one event,
      // a collective one event carrying its per-rank message count). "shm"
      // keeps none, so there the count is derived from the plan: one halo
      // send plus R-1 sends per exchange chunk group (flat topology).
      if (comm.caps().traffic_events) {
        const std::size_t e0 = comm.traffic().events().size();
        comm.barrier();
        plan.forward(xl, y);
        comm.barrier();
        if (r == 0) {
          const auto ev = comm.traffic().events();
          double p2p = 0.0, coll = 0.0;
          for (std::size_t i = e0; i < ev.size(); ++i) {
            if (ev[i].kind == net::CommEvent::Kind::kP2P) p2p += 1.0;
            if (ev[i].kind == net::CommEvent::Kind::kAlltoall) {
              coll += static_cast<double>(ev[i].messages);
            }
          }
          out.messages = p2p / sh.ranks + coll;
        }
      } else if (r == 0) {
        out.messages =
            static_cast<double>(1 + (sh.ranks - 1) * plan.chunk_depth());
      }
      auto lockstep = [&](double* dst, auto&& f) {
        f();
        for (int k = 0; k < kMicroReps; ++k) {
          comm.barrier();
          const Timer one;
          f();
          dst[k] = one.seconds();
        }
      };
      LayerKit kit(geom, prof, sh.spr, x, r * local);
      lockstep(me.conv_s, [&] { kit.conv(); });
      lockstep(me.fp_s, [&] { kit.fp(); });
      lockstep(me.fmp_s, [&] { kit.fmp(); });
      lockstep(me.scalar_s, [&] { kit.scalar(); });
      // The exchange's all-to-all alone at the workload's per-pair count.
      const std::int64_t count = sh.spr * geom.mprime() / sh.ranks;
      lockstep(me.a2a_s, [&] { comm.alltoall(kit.in, kit.out, count); });
    }
    me.done = 1;
  });
  for (int r = 0; r < sh.ranks; ++r) {
    SOI_CHECK(out.rank[r].done == 1, "rank " << r << " did not finish");
  }
  return WorldRun{out.first_output_at - t_start, out.reps};
}

/// Per sample index below `count`: the largest value any rank recorded.
template <std::size_t N>
std::vector<double> max_over_ranks(const WorldShared& w, int ranks,
                                   double (RankSlot::*field)[N],
                                   std::int64_t count = N) {
  std::vector<double> v;
  for (std::int64_t i = 0; i < count; ++i) {
    double m = 0.0;
    for (int r = 0; r < ranks; ++r) m = std::max(m, (w.rank[r].*field)[i]);
    v.push_back(m);
  }
  return v;
}

/// Per-layer figures of a finished traced world: stage records of the
/// warm forwards (the slowest rank per forward) and the layer calls timed
/// in lock step.
void put_world_layers(Report& rep, const DistShape& sh,
                      const win::SoiProfile& prof, const WorldShared& w,
                      std::int64_t reps) {
  const int R = sh.ranks;
  std::vector<StageSample> stages;
  std::vector<double> fwd;
  for (std::int64_t i = 0; i < reps; ++i) {
    StageSample worst;
    double worst_fwd = 0.0;
    for (int r = 0; r < R; ++r) {
      StageSample s = w.rank[r].stage[i];
      for (const auto& f : kStageFields) {
        f.get(worst) = std::max(f.get(worst), f.get(s));
      }
      // Sum and call time of the rank whose call took longest, so their
      // ratio and difference describe one real forward.
      if (w.rank[r].fwd_s[i] > worst_fwd) {
        worst_fwd = w.rank[r].fwd_s[i];
        worst.sum = s.sum;
      }
    }
    stages.push_back(worst);
    fwd.push_back(worst_fwd);
  }
  const double conv_stage_ms = put_stage_metrics(rep, stages, fwd);

  auto micro = [&](double (RankSlot::*field)[kMicroReps]) {
    return median(max_over_ranks(w, R, field));
  };
  const core::SoiGeometry geom(sh.n, R * sh.spr, prof);
  put_conv_fft(rep, geom, sh.spr, micro(&RankSlot::conv_s),
               micro(&RankSlot::fp_s), micro(&RankSlot::fmp_s),
               micro(&RankSlot::scalar_s), conv_stage_ms);
  const double a2a = micro(&RankSlot::a2a_s);
  const std::int64_t count = sh.spr * geom.mprime() / R;
  rep.put("net.alltoall_ms", a2a * 1e3, "ms");
  rep.put("net.alltoall_gbps",
          static_cast<double>((R - 1) * count) * sizeof(cplx) / a2a / 1e9,
          "GB/s");
  double table_s = 0.0, arena = 0.0;
  std::int64_t bytes = 0;
  for (int r = 0; r < R; ++r) {
    table_s = std::max(table_s, w.rank[r].table_s);
    arena = std::max(arena, w.rank[r].arena_mb);
    bytes = std::max(bytes, w.rank[r].comm_bytes);
  }
  rep.put("soi.table_s", table_s, "s");
  rep.put("mem.arena_mb", arena, "MiB");
  rep.put("net.bytes_per_rank", static_cast<double>(bytes), "bytes");
  rep.put("net.messages_per_rank", w.messages, "count");
}

// --- dist_shm_1m -------------------------------------------------------------

void run_dist(const Args& a, const Budget& b, Report& rep) {
  DistShape sh;
  sh.transport = "shm";
  sh.ranks = b.ranks;
  sh.n = a.smoke ? std::int64_t{1} << 16 : std::int64_t{1} << 20;
  sh.spr = 8;
  cvec x(static_cast<std::size_t>(sh.n));
  soi::fill_gaussian(x, a.seed);
  SharedWorld w;

  const double t_start = now_s();
  const Timer t;
  const win::SoiProfile prof = win::make_profile(kAccuracy);
  const double profile_s = t.seconds();
  const WorldRun run =
      run_world_phase(sh, prof, x, t_start, a.seconds, kMinWarmReps,
                      a.setup_only(), a.trace, a.trace, *w);
  double plan_s = 0.0, first_s = 0.0;
  for (int r = 0; r < sh.ranks; ++r) {
    plan_s = std::max(plan_s, w->rank[r].plan_s);
    first_s = std::max(first_s, w->rank[r].first_s);
  }
  rep.put("setup_s", run.setup_s, "s");
  rep.put("window.profile_s", profile_s, "s");
  rep.put("soi.plan_s", plan_s, "s");
  rep.put("soi.first_forward_s", first_s, "s");
  if (a.setup_only()) return;

  const auto rep_s = max_over_ranks(*w, sh.ranks, &RankSlot::rep_s, run.reps);
  std::int64_t wrong = 0, allocs = 0;
  double rss = 0.0;
  for (int r = 0; r < sh.ranks; ++r) {
    wrong += w->rank[r].wrong;
    allocs += w->rank[r].allocs;
    rss = std::max(rss, w->rank[r].rss_mb);
  }
  if (wrong != 0) {
    rep.fail(std::to_string(wrong) +
             " warm rank outputs differ from the first");
  }
  check_allocs(rep, allocs);
  const double snr = w->rank[0].snr;
  check_snr(rep, snr);
  put_closed_loop(rep, rep_s);
  rep.put("peak_rss_mb", rss, "MiB");
  put_ok_frac(rep, run.reps + 1, wrong + (snr >= snr_floor_db() ? 0 : 1));
  if (!a.trace) return;

  put_quartiles(rep, rep_s);
  put_world_layers(rep, sh, prof, *w, run.reps);
  put_plain_fft(rep, x, a.smoke ? 0.02 : 0.5, b.omp_threads);
  rep.put("mem.steady_allocs", static_cast<double>(allocs), "count");
}

// --- serve_mix ---------------------------------------------------------------

/// Offered rates of the open-loop ladder, ascending, in requests/second.
/// Absolute numbers, fixed once from the seed commit's measured capacity
/// on a 4-core host: they never follow the code under test.
constexpr std::array<double, 9> kLadder = {300,  500,  800,  1000, 1100,
                                           1200, 1300, 1500, 1800};
/// About 25% of the measured capacity (1.0-1.4k req/s at two ranks):
/// queueing shows in the latency, and the rate keeps a wide margin when
/// the host takes CPU away. With three busy-looping processes beside it on
/// a 4-vCPU host, the p50 at 500 req/s rose 8-14x (the queue ran away),
/// while at 300 req/s it rose about 2.3x.
constexpr double kKneeRate = 300;
constexpr std::size_t kKneeBlocks = 8;
/// A rung passes when its p99 and its backlog drain both stay within this.
constexpr double kLatencyLimitMs = 25.0;
constexpr double kInteractiveFrac = 0.7;
constexpr int kPool = 8;   ///< distinct inputs per lane
constexpr int kRing = 288;  ///< output buffers per lane (> queue capacity)
constexpr int kLanes = 2;

struct ServeShape {
  std::array<std::int64_t, kLanes> n{};
  std::int64_t spr = 2;
  double wire_latency_us = 150.0;
  /// Deep enough that a host stall of ~0.8 s at the knee rate queues
  /// instead of refusing.
  int queue_capacity = 256;
  int max_concurrency = 4;
};

/// The service plus everything the load generator hands it: per-lane
/// input pools, their solo reference outputs and the output rings.
struct ServeFixture {
  ServeShape shape;
  std::unique_ptr<serve::TransformService> svc;
  std::array<int, kLanes> lane_id{};
  std::array<std::vector<cvec>, kLanes> pool, ref, ring;
  std::array<std::array<std::atomic<bool>, kRing>, kLanes> busy{};
  std::array<int, kLanes> ring_next{};
};

serve::SubmitOptions lane_options(int lane) {
  serve::SubmitOptions so;
  so.priority =
      lane == 0 ? serve::Priority::kInteractive : serve::Priority::kBatch;
  return so;
}

/// One request of the tenant mix: its lane and pool input.
struct Pick {
  int lane = 0;
  int input = 0;
};

Pick next_pick(soi::Rng& rng) {
  Pick p;
  p.lane = rng.uniform() < kInteractiveFrac ? 0 : 1;
  p.input = static_cast<int>(rng.uniform_index(kPool));
  return p;
}

/// One open-loop Poisson phase at a fixed offered rate.
struct Rung {
  double rate = 0.0;
  std::int64_t attempted = 0;
  std::int64_t refused = 0;  ///< queue full or no free output buffer
  std::int64_t errors = 0;   ///< wait() rethrew (shed or failed)
  std::int64_t wrong = 0;    ///< output differs from the solo run
  std::vector<double> lat_ms;   ///< from the scheduled arrival; inf = lost
  std::vector<double> late_ms;  ///< how late the generator submitted
  double drain_ms = 0.0;  ///< last completion minus last scheduled arrival
  std::int64_t allocs = 0;
  serve::MetricsSnapshot snap;

  /// p99 over every attempt (lost requests count as infinitely late) or
  /// the drain time, whichever is worse: the rung passes when <= limit.
  [[nodiscard]] double tail_ms() const {
    return std::max(quantile(lat_ms, 0.99), drain_ms);
  }
  [[nodiscard]] bool ok() const { return tail_ms() <= kLatencyLimitMs; }
};

Rung open_loop(ServeFixture& fx, double rate, std::int64_t count,
               std::uint64_t seed) {
  Rung rung;
  rung.rate = rate;
  rung.attempted = count;
  const auto n = static_cast<std::size_t>(count);
  std::vector<double> due(n), sent(n), done(n, 0.0);
  std::vector<Pick> pick(n);
  std::vector<int> slot(n, -1);
  std::vector<serve::Ticket> ticket(n);
  // 0 = not yet submitted, 1 = admitted, 2 = refused, 3 = wait() threw.
  std::vector<signed char> state(n, 0);
  std::array<std::vector<std::size_t>, kLanes> of_lane;
  soi::Rng rng(seed);
  double at = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    at += -std::log(1.0 - rng.uniform()) / rate;
    due[i] = at;
    pick[i] = next_pick(rng);
    of_lane[static_cast<std::size_t>(pick[i].lane)].push_back(i);
  }

  std::mutex mu;
  std::condition_variable cv;
  std::size_t submitted = 0;
  std::atomic<std::int64_t> wrong{0}, errors{0};
  // One harvester per lane: a lane's requests finish in submission order
  // (one priority tier per lane, FIFO within a tier), so waiting on them
  // in order timestamps each completion when it happens.
  auto harvest = [&](int lane) {
    for (const std::size_t i : of_lane[static_cast<std::size_t>(lane)]) {
      signed char st = 0;
      {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return submitted > i; });
        st = state[i];
      }
      if (st != 1) continue;
      const auto l = static_cast<std::size_t>(lane);
      const auto s = static_cast<std::size_t>(slot[i]);
      try {
        fx.svc->wait(ticket[i]);
        done[i] = now_s();
        if (!same_bits(fx.ring[l][s],
                       fx.ref[l][static_cast<std::size_t>(pick[i].input)])) {
          wrong.fetch_add(1);
        }
      } catch (const soi::Error&) {
        state[i] = 3;
        errors.fetch_add(1);
      }
      fx.busy[l][s].store(false, std::memory_order_release);
    }
  };

  fx.svc->reset_metrics();
  const std::int64_t a0 = soi::alloc_stats().count;
  std::thread h0(harvest, 0), h1(harvest, 1);
  const double t0 = now_s() + 0.002;
  for (std::size_t i = 0; i < n; ++i) {
    const double when = t0 + due[i];
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(when))));
    sent[i] = now_s();
    const auto l = static_cast<std::size_t>(pick[i].lane);
    const auto s = static_cast<std::size_t>(fx.ring_next[l]++ % kRing);
    signed char st = 2;
    if (!fx.busy[l][s].exchange(true, std::memory_order_acq_rel)) {
      const auto tk = fx.svc->try_submit(
          fx.lane_id[l], pick[i].lane * 2 + static_cast<int>(i & 1),
          fx.pool[l][static_cast<std::size_t>(pick[i].input)], fx.ring[l][s],
          lane_options(pick[i].lane));
      if (tk) {
        ticket[i] = *tk;
        slot[i] = static_cast<int>(s);
        st = 1;
      } else {
        fx.busy[l][s].store(false, std::memory_order_release);
      }
    }
    {
      const std::lock_guard<std::mutex> lk(mu);
      state[i] = st;
      submitted = i + 1;
    }
    cv.notify_all();
  }
  h0.join();
  h1.join();
  rung.allocs = soi::alloc_stats().count - a0;
  rung.snap = fx.svc->metrics();
  rung.wrong = wrong.load();
  rung.errors = errors.load();
  double last_done = t0;
  for (std::size_t i = 0; i < n; ++i) {
    rung.late_ms.push_back((sent[i] - (t0 + due[i])) * 1e3);
    if (state[i] == 1) {
      rung.lat_ms.push_back((done[i] - (t0 + due[i])) * 1e3);
      last_done = std::max(last_done, done[i]);
    } else {
      rung.lat_ms.push_back(std::numeric_limits<double>::infinity());
      if (state[i] == 2) ++rung.refused;
    }
  }
  rung.drain_ms = std::max(0.0, (last_done - (t0 + due.back())) * 1e3);
  return rung;
}

/// Highest offered rate that meets the latency limit: the crossing of
/// log(tail) between the last passing rung and the first failing one
/// (linear in rate), so the figure moves smoothly instead of jumping a
/// whole rung.
double max_ok_rate(const std::vector<Rung>& rungs) {
  std::size_t f = 0;
  while (f < rungs.size() && rungs[f].ok()) ++f;
  if (f == rungs.size()) return rungs.back().rate;
  const double cap = 100.0 * kLatencyLimitMs;
  const double hi_tail = std::min(rungs[f].tail_ms(), cap);
  if (f == 0) return rungs[0].rate * kLatencyLimitMs / hi_tail;
  const double lo_tail = std::max(rungs[f - 1].tail_ms(), 1e-3);
  const double frac = (std::log(kLatencyLimitMs) - std::log(lo_tail)) /
                      (std::log(hi_tail) - std::log(lo_tail));
  return rungs[f - 1].rate + frac * (rungs[f].rate - rungs[f - 1].rate);
}

void run_serve(const Args& a, const Budget& b, Report& rep) {
  ServeFixture fx;
  ServeShape& sh = fx.shape;
  sh.n = a.smoke ? std::array<std::int64_t, kLanes>{1 << 11, 1 << 12}
                 : std::array<std::int64_t, kLanes>{1 << 13, 1 << 14};
  for (int l = 0; l < kLanes; ++l) {
    const auto ls = static_cast<std::size_t>(l);
    for (int k = 0; k < kPool; ++k) {
      cvec x(static_cast<std::size_t>(sh.n[ls]));
      soi::fill_gaussian(x, a.seed * 1000 + static_cast<std::uint64_t>(
                                                l * kPool + k));
      fx.pool[ls].push_back(std::move(x));
      fx.ref[ls].emplace_back(static_cast<std::size_t>(sh.n[ls]));
    }
    for (int k = 0; k < kRing; ++k) {
      fx.ring[ls].emplace_back(static_cast<std::size_t>(sh.n[ls]));
    }
  }

  const Timer setup;
  Timer t;
  auto& reg = soi::tune::PlanRegistry::global();
  const auto prof = reg.profile(kAccuracy);
  const double profile_s = t.seconds();
  t.reset();
  serve::ServeOptions so;
  so.ranks = b.ranks;
  so.transport = "sim";
  so.max_concurrency = sh.max_concurrency;
  so.queue_capacity = sh.queue_capacity;
  so.wire_latency_us = sh.wire_latency_us;
  so.overlap = true;
  fx.svc = std::make_unique<serve::TransformService>(so);
  for (int l = 0; l < kLanes; ++l) {
    serve::LaneSpec spec;
    spec.n = sh.n[static_cast<std::size_t>(l)];
    spec.accuracy = kAccuracy;
    spec.segments_per_rank = sh.spr;
    fx.lane_id[static_cast<std::size_t>(l)] = fx.svc->create_lane(spec);
  }
  const double plan_s = t.seconds();
  t.reset();
  fx.svc->warmup();
  // First output of every lane: the pool's first input, solo.
  for (int l = 0; l < kLanes; ++l) {
    const auto ls = static_cast<std::size_t>(l);
    fx.svc->wait(fx.svc->submit(fx.lane_id[ls], 0, fx.pool[ls][0],
                                fx.ref[ls][0], lane_options(l)));
  }
  const double first_s = t.seconds();
  rep.put("setup_s", setup.seconds(), "s");
  rep.put("window.profile_s", profile_s, "s");
  rep.put("soi.plan_s", plan_s, "s");
  rep.put("soi.first_forward_s", first_s, "s");
  if (a.setup_only()) return;

  // Solo references for the rest of each pool, then the closed-loop solo
  // phase: one request at a time through the idle service.
  for (int l = 0; l < kLanes; ++l) {
    const auto ls = static_cast<std::size_t>(l);
    for (std::size_t k = 1; k < kPool; ++k) {
      fx.svc->wait(fx.svc->submit(fx.lane_id[ls], 0, fx.pool[ls][k],
                                  fx.ref[ls][k], lane_options(l)));
    }
  }
  double snr = 1e9;
  for (std::size_t l = 0; l < kLanes; ++l) {
    for (std::size_t k = 0; k < kPool; ++k) {
      snr = std::min(snr, reference_snr(fx.pool[l][k], fx.ref[l][k]));
    }
  }
  std::vector<double> solo;
  std::int64_t solo_wrong = 0;
  {
    soi::Rng rng(a.seed * 7919 + 1);
    const Timer phase;
    const double budget = 0.1 * a.seconds;
    while (solo.size() < 2 * kMinWarmReps || phase.seconds() < budget) {
      const Pick p = next_pick(rng);
      const auto l = static_cast<std::size_t>(p.lane);
      const auto k = static_cast<std::size_t>(p.input);
      const Timer one;
      fx.svc->wait(fx.svc->submit(fx.lane_id[l], p.lane * 2, fx.pool[l][k],
                                  fx.ring[l][0], lane_options(p.lane)));
      solo.push_back(one.seconds());
      if (!same_bits(fx.ring[l][0], fx.ref[l][k])) ++solo_wrong;
    }
  }

  // The open-loop ladder, ascending. The knee rung runs longest (its
  // p50/p99 are the headline); rungs above it stop at the first failure.
  std::vector<Rung> rungs;
  const Rung* knee = nullptr;
  rungs.reserve(kLadder.size());
  for (std::size_t i = 0; i < kLadder.size(); ++i) {
    const double rate = kLadder[i];
    // At --seconds 30 the knee rung offers 7.2k requests, so ~70 of them
    // lie beyond its p99; every other rung offers >= 1000.
    const double share = rate == kKneeRate ? 0.8 : 0.05;
    const auto count = std::max<std::int64_t>(
        a.smoke ? 50 : 1000,
        static_cast<std::int64_t>(rate * share * a.seconds));
    rungs.push_back(open_loop(fx, rate, count, a.seed * 1000 + 100 + i));
    const Rung& r = rungs.back();
    std::printf("# rung %7.1f req/s: %6lld requests, p50 %8.3f ms, p99 %8.3f "
                "ms, drain %8.3f ms, refused %lld, late p99 %.3f ms -> %s\n",
                rate, static_cast<long long>(r.attempted),
                quantile(r.lat_ms, 0.5), quantile(r.lat_ms, 0.99),
                r.drain_ms, static_cast<long long>(r.refused),
                quantile(r.late_ms, 0.99), r.ok() ? "ok" : "over");
    if (rate == kKneeRate) knee = &r;
    if (rate > kKneeRate && !r.ok()) break;
  }
  fx.svc->stop();
  const double rss = peak_rss_mb();
  SOI_CHECK(knee != nullptr, "the knee rate is not on the ladder");

  // Failures: wrong outputs and failed requests anywhere, and the SNR
  // floor. Refusals are typed backpressure, not failures: at the knee
  // they count against ok_frac only.
  std::int64_t wrong = solo_wrong, errors = 0;
  auto attempts = static_cast<std::int64_t>(solo.size()) + 2 * kPool;
  for (const auto& r : rungs) {
    wrong += r.wrong;
    errors += r.errors;
    attempts += r.attempted;
  }
  if (wrong != 0) {
    rep.fail(std::to_string(wrong) + " served outputs differ from solo runs");
  }
  if (errors != 0) rep.fail(std::to_string(errors) + " requests failed");
  check_allocs(rep, knee->allocs);
  check_snr(rep, snr);
  const std::int64_t snr_bad = snr >= snr_floor_db() ? 0 : 1;
  rep.count(attempts, wrong + errors + snr_bad);
  // The knee's p50, p99 and lost share (refused or failed) are each the
  // plain median over kKneeBlocks consecutive blocks of arrivals (each
  // 900 requests at --seconds 30), so a host stall that spoils fewer
  // than half of the blocks does not move them.
  std::vector<double> block, block_p50, block_p99, block_lost;
  std::size_t lost = 0;
  const std::size_t per_block = knee->lat_ms.size() / kKneeBlocks;
  for (std::size_t i = 0; i < knee->lat_ms.size(); ++i) {
    const double l = knee->lat_ms[i];
    if (std::isfinite(l)) {
      block.push_back(l);
    } else {
      ++lost;
    }
    if ((i + 1) % per_block == 0 && block_lost.size() < kKneeBlocks) {
      if (!block.empty()) {
        block_p50.push_back(quantile(block, 0.5));
        block_p99.push_back(quantile(block, 0.99));
      }
      block_lost.push_back(static_cast<double>(lost) /
                           static_cast<double>(per_block));
      block.clear();
      lost = 0;
    }
  }
  const double knee_p99 = block_median(block_p99);
  const double solo_ms = median(solo) * 1e3;
  rep.put("transform_ms", solo_ms, "ms");
  rep.put("transform_p90_ms", block_quantile(solo, 0.9) * 1e3, "ms");
  rep.put("serve_p50_ms", block_median(block_p50), "ms");
  rep.put("peak_rss_mb", rss, "MiB");
  const double knee_attempts = static_cast<double>(
      static_cast<std::int64_t>(solo.size()) + 2 * kPool + knee->attempted);
  const double knee_lost =
      block_median(block_lost) * static_cast<double>(knee->attempted) +
      static_cast<double>(solo_wrong + knee->wrong + snr_bad);
  rep.put("ok_frac", 1.0 - knee_lost / knee_attempts, "ratio");
  if (!a.trace) return;

  const auto& m = knee->snap;
  put_quartiles(rep, solo);
  rep.put("serve.p99_ms", knee_p99, "ms");
  rep.put("serve.max_ok_rps", max_ok_rate(rungs), "req/s");
  rep.put("serve.solo_ms", solo_ms, "ms");
  rep.put("serve.queue_wait_p99_ms", knee_p99 - solo_ms, "ms");
  rep.put("serve.occupancy", m.arena_occupancy, "ratio");
  double eff = 0.0;
  int tenants = 0;
  for (const auto& tn : m.tenants) {
    if (tn.completed == 0) continue;
    eff += tn.overlap_efficiency;
    ++tenants;
  }
  rep.put("serve.overlap_efficiency", tenants ? eff / tenants : 0.0, "ratio");
  rep.put("serve.queue_peak", static_cast<double>(m.queue_peak), "count");
  rep.put("serve.rejected", static_cast<double>(knee->refused), "count");
  rep.put("serve.shed", static_cast<double>(m.shed), "count");
  rep.put("serve.gen_late_p99_ms", quantile(knee->late_ms, 0.99), "ms");
  rep.put("mem.steady_allocs", static_cast<double>(knee->allocs), "count");

  // The service keeps its plans private; the soi/fft/exec/net layers are
  // timed on a stand-alone rank world of the interactive lane's shape over
  // the same transport and wire latency.
  DistShape ws;
  ws.transport = "sim";
  ws.ranks = b.ranks;
  ws.n = sh.n[0];
  ws.spr = sh.spr;
  ws.wire_latency_us = sh.wire_latency_us;
  SharedWorld w;
  const WorldRun run = run_world_phase(ws, *prof, fx.pool[0][0], now_s(),
                                       0.1 * a.seconds, kMinWarmReps, false,
                                       true, true, *w);
  put_world_layers(rep, ws, *prof, *w, run.reps);
  put_plain_fft(rep, fx.pool[0][0], a.smoke ? 0.02 : 0.3, b.omp_threads);
}

// --- driver ----------------------------------------------------------------

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "serial_4m|dist_shm_1m|serve_mix --seed S --seconds T "
               "--trace 0|1 [--phase setup|measure] [--smoke]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    try {
      if (k == "--workload") {
        a.workload = v;
      } else if (k == "--phase") {
        a.phase = v;
      } else if (k == "--seed") {
        a.seed = std::stoull(v);
      } else if (k == "--seconds") {
        a.seconds = std::stod(v);
      } else if (k == "--trace") {
        a.trace = std::stoi(v) != 0;
      } else {
        return usage(("unknown flag " + k).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + k + ": " + v).c_str());
    }
  }
  if (a.phase != "setup" && a.phase != "measure") return usage("bad --phase");
  if (!(a.seconds > 0)) return usage("--seconds must be > 0");

  // Fixed thread budget per workload: ranks x OpenMP threads per rank.
  Budget b;
  void (*run)(const Args&, const Budget&, Report&) = nullptr;
  if (a.workload == "serial_4m") {
    b = {1, 2};
    run = run_serial;
  } else if (a.workload == "dist_shm_1m") {
    b = {4, 1};
    run = run_dist;
  } else if (a.workload == "serve_mix") {
    b = {2, 1};
    run = run_serve;
  } else {
    return usage("unknown --workload");
  }
  if (b.threads() > nproc()) {
    std::fprintf(stderr,
                 "perfbench: %s needs %d threads (%d ranks x %d OpenMP) but "
                 "only %d CPUs are available\n",
                 a.workload.c_str(), b.threads(), b.ranks, b.omp_threads,
                 nproc());
    return 3;
  }
  set_omp_threads(b.omp_threads);
  Report rep;
  try {
    run(a, b, rep);
  } catch (const std::exception& e) {
    rep.fail(std::string("exception: ") + e.what());
  }
  rep.print(a.phase, a.workload, b);
  return rep.ok() ? 0 : 1;
}
