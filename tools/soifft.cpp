// soifft — command-line front end for the SOI-FFT library.
//
//   soifft design    [--accuracy A] [--mu M --nu N] [--eps E --kappa K]
//   soifft transform --n N --p P [--accuracy A] [--inverse] [--check]
//                    [--input FILE] [--output FILE] [--wisdom FILE]
//   soifft segment   --n N --p P --s S [--accuracy A] [--input FILE]
//   soifft bench     --n N --p P [--accuracy A] [--reps R]
//   soifft tune      --n N --p P [--accuracy A] [--wisdom FILE]
//                    [--mode modeled|measured] [--reps R] [--seed S]
//   soifft dist      --n N --p P [--accuracy A] [--wisdom FILE] [--check]
//
// Files are raw little-endian complex128 (interleaved re/im); without
// --input a deterministic Gaussian test signal is used. --check compares
// against the exact FFT engine and prints the SNR.
//
// Wisdom (`--wisdom FILE`) persists autotuned plan decisions keyed by
// (N, ranks, accuracy): `tune` writes them, every other subcommand reuses
// them — a hit skips both the tuning sweep and the window design search.
// Unknown flags are rejected with the list of valid options; a typo never
// silently falls back to a default.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <random>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <string>
#include <vector>

#include "common/timer.hpp"
#include "serve/service.hpp"
#include "soi/soi.hpp"

namespace {

using namespace soi;

struct Args {
  std::string command;
  std::map<std::string, std::string> kv;
  bool flag(const std::string& name) const { return kv.count(name) > 0; }
  std::string get(const std::string& name, const std::string& dflt) const {
    auto it = kv.find(name);
    return it == kv.end() ? dflt : it->second;
  }
  std::int64_t geti(const std::string& name, std::int64_t dflt) const {
    auto it = kv.find(name);
    if (it == kv.end()) return dflt;
    try {
      return std::stoll(it->second);
    } catch (const std::exception&) {
      throw Error("flag '--" + name + "': expected an integer, got '" +
                  it->second + "'");
    }
  }
  double getf(const std::string& name, double dflt) const {
    auto it = kv.find(name);
    if (it == kv.end()) return dflt;
    try {
      return std::stod(it->second);
    } catch (const std::exception&) {
      throw Error("flag '--" + name + "': expected a number, got '" +
                  it->second + "'");
    }
  }
};

/// Valid flags per subcommand; parse() rejects anything else.
const std::map<std::string, std::set<std::string>>& valid_flags() {
  static const std::map<std::string, std::set<std::string>> kFlags = {
      {"design", {"accuracy", "mu", "nu", "eps", "kappa", "help"}},
      {"transform",
       {"n", "p", "accuracy", "mu", "nu", "eps", "kappa", "inverse", "check",
        "input", "output", "seed", "wisdom", "trace", "engine", "help"}},
      {"segment",
       {"n", "p", "s", "accuracy", "mu", "nu", "eps", "kappa", "check",
        "input", "output", "seed", "help"}},
      {"bench",
       {"n", "p", "accuracy", "mu", "nu", "eps", "kappa", "reps", "input",
        "seed", "trace", "engine", "help"}},
      {"tune",
       {"n", "p", "accuracy", "wisdom", "mode", "reps", "seed", "gflops",
        "max-spr", "transport", "engine", "help"}},
      {"dist",
       {"n", "p", "accuracy", "wisdom", "check", "seed", "trace",
        "fault-spec", "timeout-ms", "retries", "topology", "coding",
        "transport", "engine", "help"}},
      {"serve",
       {"n", "p", "accuracy", "lanes", "requests", "concurrency", "queue",
        "rate", "workers", "wire-latency-us", "linger-us", "seed",
        "transport", "priority", "deadline-ms", "coding", "help"}},
  };
  return kFlags;
}

int usage(std::FILE* out) {
  std::fputs(
      "usage: soifft <design|transform|segment|bench|tune|dist|serve> "
      "[--options]\n"
      "  design    --accuracy full|high|medium|low | --mu --nu --eps --kappa\n"
      "  transform --n N --p P [--accuracy A] [--inverse] [--check]\n"
      "            [--input F] [--output F] [--seed S] [--wisdom F] [--trace]\n"
      "  segment   --n N --p P --s S [--accuracy A] [--check]\n"
      "  bench     --n N --p P [--accuracy A] [--reps R] [--trace]\n"
      "  tune      --n N --p P [--accuracy A] [--wisdom F]\n"
      "            [--mode modeled|measured] [--reps R] [--seed S]\n"
      "            [--gflops G] [--max-spr G]\n"
      "  dist      --n N --p P [--accuracy A] [--wisdom F] [--check]\n"
      "            [--trace] [--fault-spec SEED:KIND:RATE[,...]]\n"
      "            [--timeout-ms T] [--retries R] [--topology T]\n"
      "            [--coding K+R]\n"
      "  serve     --n N [--p P] [--accuracy A] [--lanes L] [--requests R]\n"
      "            [--concurrency K] [--queue Q] [--rate RPS] [--workers W]\n"
      "            [--wire-latency-us U] [--linger-us U] [--seed S]\n"
      "            [--priority interactive|batch|background]\n"
      "            [--deadline-ms D] [--coding K+R]\n"
      "            multi-tenant serving demo: L lanes (N, 2N, ...) behind\n"
      "            one TransformService (--p 0 = serial worker backend,\n"
      "            default co-scheduled rank team), open-loop Poisson\n"
      "            arrivals at RPS (0 = burst), queueing metrics summary.\n"
      "            --priority sets the submission tier (default batch);\n"
      "            --deadline-ms a per-request deadline (0 = none) —\n"
      "            infeasible requests are shed with DeadlineExceeded\n"
      "            before execution. A cross-process --transport falls\n"
      "            back to the serial worker backend with a note\n"
      "  --help    print this message (exit 0)\n"
      "  --trace   per-stage table (name, seconds, bytes, flops, retries)\n"
      "            of the last pipeline execution (rank 0 for dist)\n"
      "  --fault-spec  deterministic chaos scenario for dist: seed plus\n"
      "            kind:rate rules (drop, corrupt, truncate, duplicate,\n"
      "            delay, straggler) and optional stall:RANK:MS, e.g.\n"
      "            42:drop:0.02,corrupt:0.01 — strictly validated\n"
      "  --timeout-ms  base deadline of one comm wait attempt (dist);\n"
      "            exponential backoff, typed CommTimeout after --retries\n"
      "  --retries chunk-granularity retry budget (dist, default 8;\n"
      "            0 = first detected fault is fatal)\n"
      "  --topology  exchange schedule for dist: flat (default, direct\n"
      "            all-to-all), two-level[:G] (intra-group gather then\n"
      "            inter-group fused exchange), torus[:AxBxC] (dimension-\n"
      "            staged neighbour forwarding); overrides the tuned\n"
      "            topo= knob from --wisdom; results are bit-identical\n"
      "            across schedules\n"
      "  --coding  erasure-code the exchange (dist/serve): K data + R\n"
      "            parity shards per message, e.g. 4+1 (systematic XOR\n"
      "            for R=1, Reed-Solomon GF(2^8) for R>=2). Receivers\n"
      "            rebuild up to R lost/late/corrupt shards from parity\n"
      "            instead of retransmitting; outputs stay bit-identical.\n"
      "            Overrides the tuned code= knob from --wisdom\n"
      "  --transport  rank fabric (tune/dist/serve): a registered\n"
      "            net::TransportRegistry backend — sim (in-process\n"
      "            threads, default), shm (forked processes over shared\n"
      "            memory). Default from $SOI_TRANSPORT; unknown names\n"
      "            are rejected with the registered list. serve and\n"
      "            measured tune need an in-process (threaded) transport\n"
      "  --engine  FFT executor (transform/bench/tune/dist): a registered\n"
      "            fft::EngineRegistry backend — batch (SIMD SoA,\n"
      "            default), scalar (one transform at a time). Default\n"
      "            from $SOI_FFT_ENGINE; unknown names are rejected with\n"
      "            the registered list\n"
      "\n"
      "wisdom: `tune` persists the fastest (profile tier, segments/rank,\n"
      "all-to-all schedule, overlap) per shape; other subcommands reuse it\n"
      "via --wisdom FILE instead of re-tuning or re-running the design\n"
      "search.\n",
      out);
  return out == stdout ? 0 : 2;
}

Args parse(int argc, char** argv) {
  Args a;
  if (argc >= 2) a.command = argv[1];
  const auto cmd_it = valid_flags().find(a.command);
  for (int i = 2; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      throw Error("unexpected argument '" + key + "' (flags start with --)");
    }
    key = key.substr(2);
    if (key != "help" && cmd_it != valid_flags().end() &&
        cmd_it->second.count(key) == 0) {
      std::string valid;
      for (const auto& f : cmd_it->second) {
        if (f == "help") continue;
        valid += (valid.empty() ? "--" : ", --") + f;
      }
      throw Error("unknown flag '--" + key + "' for '" + a.command +
                  "' (valid: " + valid + ", --help)");
    }
    static const std::set<std::string> kBoolean = {"check", "inverse", "trace",
                                                   "help"};
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      a.kv[key] = argv[++i];
    } else if (kBoolean.count(key) > 0) {
      a.kv[key] = "1";
    } else {
      throw Error("flag '--" + key + "' requires a value");
    }
  }
  return a;
}

win::SoiProfile profile_from(const Args& a) {
  if (a.flag("eps") || a.flag("mu")) {
    return win::design_gauss_rect(a.geti("mu", 5), a.geti("nu", 4),
                                  a.getf("eps", 3.16e-15),
                                  a.getf("kappa", 16.0), "custom");
  }
  // Registry-cached: repeated profile requests skip the design search.
  return *tune::PlanRegistry::global().profile(
      tune::accuracy_from_name(a.get("accuracy", "full")));
}

/// --transport, strictly validated: a named backend must exist in the
/// registry (unknown names throw the registry's soi::InvalidArgumentError
/// listing every registered backend). "" = the session default
/// ($SOI_TRANSPORT, else "sim") — resolved by the callee.
std::string transport_from(const Args& a) {
  const std::string name = a.get("transport", "");
  if (!name.empty()) net::TransportRegistry::instance().caps(name);
  return name;
}

/// --engine, strictly validated against fft::EngineRegistry ("" = the
/// session default: $SOI_FFT_ENGINE, else "batch").
std::string engine_from(const Args& a) {
  const std::string name = a.get("engine", "");
  if (!name.empty()) fft::EngineRegistry::instance().info(name);
  return name;
}

tune::TuneKey key_from(const Args& a, std::int64_t n, std::int64_t p) {
  tune::TuneKey key;
  key.n = n;
  key.ranks = static_cast<int>(p);
  key.accuracy = tune::accuracy_from_name(a.get("accuracy", "full"));
  return key;
}

/// Wisdom lookup shared by transform/dist: returns the tuned config on a
/// hit (logged), nullopt when no --wisdom was given or the key is absent.
std::optional<tune::TunedConfig> wisdom_lookup(const Args& a,
                                               const tune::TuneKey& key) {
  if (!a.flag("wisdom")) return std::nullopt;
  const std::string path = a.get("wisdom", "");
  const tune::WisdomStore store = tune::WisdomStore::load(path);
  if (auto hit = store.find(key)) {
    std::printf("wisdom: cache hit for [%s] -> %s (no re-tuning)\n",
                key.str().c_str(), hit->candidate.describe().c_str());
    return hit;
  }
  std::printf("wisdom: miss for [%s] in %s (run `soifft tune`); using "
              "defaults\n",
              key.str().c_str(), path.c_str());
  return std::nullopt;
}

/// `--trace` output: one row per stage record of the last execution.
/// Communication stages report bytes MEASURED from the SimMPI counters
/// (tagged "meas"); compute stages carry plan-time estimates ("est").
/// wait_ms is the subset of a stage's time blocked in comm waits; the
/// overlap line is exec::overlap_efficiency over the same records.
void print_trace(const exec::TraceLog& trace) {
  const auto records = trace.records();
  std::printf("%-14s %6s %12s %10s %8s %19s %14s\n", "stage", "chunks", "ms",
              "wait_ms", "retries", "bytes", "flops");
  double total = 0.0;
  for (const auto& r : records) {
    std::printf("%-14s %6lld %12.4f %10.4f %8lld %14lld %-4s %14lld\n",
                r.name.c_str(), static_cast<long long>(r.chunks),
                r.seconds * 1e3, r.wait_seconds * 1e3,
                static_cast<long long>(r.retries),
                static_cast<long long>(r.bytes_moved),
                r.bytes_measured ? "meas" : "est",
                static_cast<long long>(r.flops));
    total += r.seconds;
  }
  std::printf("%-14s %6s %12.4f\n", "total", "", total * 1e3);
  std::printf("overlap efficiency: %.3f\n", exec::overlap_efficiency(trace));
}

cvec load_or_generate(const Args& a, std::int64_t n) {
  cvec x(static_cast<std::size_t>(n));
  const std::string path = a.get("input", "");
  if (path.empty()) {
    fill_gaussian(x, static_cast<std::uint64_t>(a.geti("seed", 1)));
    return x;
  }
  std::ifstream f(path, std::ios::binary);
  SOI_CHECK(f.good(), "cannot open input file " << path);
  f.read(reinterpret_cast<char*>(x.data()),
         static_cast<std::streamsize>(x.size() * sizeof(cplx)));
  SOI_CHECK(f.gcount() ==
                static_cast<std::streamsize>(x.size() * sizeof(cplx)),
            "input file " << path << " holds fewer than " << n
                          << " complex values");
  return x;
}

void maybe_save(const Args& a, const cvec& y) {
  const std::string path = a.get("output", "");
  if (path.empty()) return;
  std::ofstream f(path, std::ios::binary);
  SOI_CHECK(f.good(), "cannot open output file " << path);
  f.write(reinterpret_cast<const char*>(y.data()),
          static_cast<std::streamsize>(y.size() * sizeof(cplx)));
  std::printf("wrote %zu complex values to %s\n", y.size(), path.c_str());
}

int cmd_design(const Args& a) {
  const win::SoiProfile p = profile_from(a);
  std::printf("profile    : %s\n", p.name.c_str());
  std::printf("window     : %s\n", p.window->name().c_str());
  std::printf("oversample : %lld/%lld (beta = %.4f)\n",
              static_cast<long long>(p.mu), static_cast<long long>(p.nu),
              p.beta());
  std::printf("taps B     : %lld (+%lld group slack when planned)\n",
              static_cast<long long>(p.taps),
              static_cast<long long>(2 * p.nu));
  std::printf("kappa      : %.3f\n", p.kappa);
  std::printf("eps_alias  : %.3e\n", p.eps_alias);
  std::printf("eps_trunc  : %.3e\n", p.eps_trunc);
  std::printf("target SNR : %.0f dB (~%.1f digits)\n", p.target_snr,
              p.target_snr / 20.0);
  return 0;
}

int cmd_transform(const Args& a) {
  const std::int64_t n = a.geti("n", 1 << 16);
  const std::int64_t p = a.geti("p", 8);
  win::SoiProfile prof;
  std::int64_t segments = p;
  std::string engine = engine_from(a);
  if (const auto tuned = wisdom_lookup(a, key_from(a, n, p))) {
    // Serial execution maps the tuned (ranks, segments/rank) granularity
    // onto P = ranks * spr total segments and reuses the tuned profile.
    // An explicit --engine overrides the wisdom line's engine pin.
    prof = tuned->profile;
    segments = p * tuned->candidate.segments_per_rank;
    if (engine.empty()) engine = tuned->candidate.engine;
  } else {
    prof = profile_from(a);
  }
  const auto plan =
      tune::PlanRegistry::global().serial_plan(n, segments, prof, engine);
  const cvec x = load_or_generate(a, n);
  cvec y(x.size());
  Timer t;
  if (a.flag("inverse")) {
    plan->inverse(x, y);
  } else {
    plan->forward(x, y);
  }
  const double sec = t.seconds();
  std::printf("%s SOI transform: N=%lld P=%lld in %.3f ms (%.2f GFLOPS)\n",
              a.flag("inverse") ? "inverse" : "forward",
              static_cast<long long>(n), static_cast<long long>(segments),
              sec * 1e3, fft_gflops(static_cast<std::size_t>(n), sec));
  if (a.flag("trace")) print_trace(plan->last_trace());
  if (a.flag("check")) {
    fft::FftPlan exact(n);
    cvec want(x.size());
    if (a.flag("inverse")) {
      exact.inverse(x, want);
    } else {
      exact.forward(x, want);
    }
    const double snr = snr_db(y, want);
    std::printf("SNR vs exact engine: %.1f dB (%.1f digits)\n", snr,
                snr_digits(snr));
  }
  maybe_save(a, y);
  return 0;
}

int cmd_segment(const Args& a) {
  const std::int64_t n = a.geti("n", 1 << 18);
  const std::int64_t p = a.geti("p", 64);
  const std::int64_t s = a.geti("s", 0);
  const win::SoiProfile prof = profile_from(a);
  core::SegmentPlan plan(n, p, prof);
  const cvec x = load_or_generate(a, n);
  cvec seg(static_cast<std::size_t>(plan.segment_length()));
  Timer t;
  plan.compute(x, s, seg);
  std::printf("segment %lld of %lld (bins [%lld, %lld)) in %.3f ms\n",
              static_cast<long long>(s), static_cast<long long>(p),
              static_cast<long long>(s * plan.segment_length()),
              static_cast<long long>((s + 1) * plan.segment_length()),
              t.millis());
  if (a.flag("check")) {
    fft::FftPlan exact(n);
    cvec want(x.size());
    exact.forward(x, want);
    const cspan want_seg{want.data() + s * plan.segment_length(),
                         seg.size()};
    std::printf("SNR vs exact engine: %.1f dB\n", snr_db(seg, want_seg));
  }
  maybe_save(a, seg);
  return 0;
}

int cmd_bench(const Args& a) {
  const std::int64_t n = a.geti("n", 1 << 18);
  const std::int64_t p = a.geti("p", 8);
  const int reps = static_cast<int>(a.geti("reps", 5));
  const win::SoiProfile prof = profile_from(a);
  core::SoiFftSerial soi(n, p, prof, engine_from(a));
  fft::FftPlan exact(n);
  const cvec x = load_or_generate(a, n);
  cvec y(x.size());
  double best_soi = 1e300, best_fft = 1e300;
  core::SoiPhaseTimes phases;
  for (int r = 0; r < reps; ++r) {
    Timer t;
    soi.forward_timed(x, y, phases);
    best_soi = std::min(best_soi, t.seconds());
    t.reset();
    exact.forward(x, y);
    best_fft = std::min(best_fft, t.seconds());
  }
  std::printf("N=%lld P=%lld reps=%d\n", static_cast<long long>(n),
              static_cast<long long>(p), reps);
  std::printf("SOI     : %.3f ms (%.2f GFLOPS)\n", best_soi * 1e3,
              fft_gflops(static_cast<std::size_t>(n), best_soi));
  std::printf("plain FFT: %.3f ms (%.2f GFLOPS)\n", best_fft * 1e3,
              fft_gflops(static_cast<std::size_t>(n), best_fft));
  std::printf("phase split: conv %.2f / F_P %.2f / pack %.2f / F_M' %.2f / "
              "demod %.2f ms\n",
              phases.conv * 1e3, phases.fp * 1e3, phases.pack * 1e3,
              phases.fm * 1e3, phases.demod * 1e3);
  if (a.flag("trace")) print_trace(soi.last_trace());
  return 0;
}

int cmd_tune(const Args& a) {
  const std::int64_t n = a.geti("n", 1 << 16);
  const std::int64_t p = a.geti("p", 4);
  const tune::TuneKey key = key_from(a, n, p);

  tune::TuneOptions opts;
  const std::string mode = a.get("mode", "modeled");
  if (mode == "modeled") {
    opts.mode = tune::TuneMode::kModeled;
  } else if (mode == "measured") {
    opts.mode = tune::TuneMode::kMeasured;
  } else {
    throw Error("unknown --mode '" + mode + "' (modeled|measured)");
  }
  opts.reps = static_cast<int>(a.geti("reps", 3));
  opts.seed = static_cast<std::uint64_t>(a.geti("seed", 1));
  opts.node_gflops = a.getf("gflops", 4.0);
  opts.max_segments_per_rank = a.geti("max-spr", 8);
  opts.transport = transport_from(a);
  opts.engine = engine_from(a);

  std::printf("tuning [%s], mode=%s\n", key.str().c_str(), mode.c_str());
  const Timer t;
  const tune::TuneResult result = tune::autotune(key, opts);
  std::printf("%-44s %12s %12s %12s\n", "candidate", "compute ms", "comm ms",
              "total ms");
  for (const auto& s : result.scores) {
    const bool winner = s.candidate == result.best.candidate;
    std::printf("%c %-42s %12.4f %12.4f %12.4f\n", winner ? '*' : ' ',
                s.candidate.describe().c_str(), s.compute_seconds * 1e3,
                s.comm_seconds * 1e3, s.total_seconds() * 1e3);
  }
  std::printf("winner: %s (%.4f ms, %zu candidates, tuned in %.2f s)\n",
              result.best.candidate.describe().c_str(),
              result.best.total_seconds() * 1e3, result.scores.size(),
              t.seconds());

  if (a.flag("wisdom")) {
    const std::string path = a.get("wisdom", "");
    tune::WisdomStore store = tune::WisdomStore::load_or_empty(path);
    store.put(key, result.config());
    store.save(path);
    std::printf("wisdom: saved [%s] to %s (%zu entr%s)\n", key.str().c_str(),
                path.c_str(), store.size(), store.size() == 1 ? "y" : "ies");
  }
  return 0;
}

int cmd_dist(const Args& a) {
  const std::int64_t n = a.geti("n", 1 << 16);
  const int ranks = static_cast<int>(a.geti("p", 4));
  const tune::TuneKey key = key_from(a, n, ranks);

  tune::Candidate cand;  // seed defaults: spr=1, pairwise, no overlap
  cand.accuracy = key.accuracy;
  win::SoiProfile prof;
  if (const auto tuned = wisdom_lookup(a, key)) {
    cand = tuned->candidate;
    prof = tuned->profile;
  } else {
    prof = profile_from(a);
  }
  // Explicit flags override the wisdom line's backend pins; the resolved
  // names (wisdom pins included — they may come from a foreign build) are
  // validated against the registries before any ranks launch.
  std::string transport = transport_from(a);
  if (transport.empty()) transport = cand.transport;
  if (!transport.empty()) net::TransportRegistry::instance().caps(transport);
  std::string engine = engine_from(a);
  if (engine.empty()) engine = cand.engine;
  if (!engine.empty()) fft::EngineRegistry::instance().info(engine);

  // Resilience knobs: --fault-spec is strictly validated (a malformed
  // spec is rejected with a precise message before any ranks launch).
  net::NetOptions nopts;
  nopts.faults = net::FaultSpec::parse(a.get("fault-spec", ""));
  nopts.timeout_ms = a.getf("timeout-ms", 0.0);
  nopts.max_retries = static_cast<int>(a.geti("retries", 8));
  SOI_CHECK(nopts.timeout_ms >= 0, "--timeout-ms must be >= 0");
  SOI_CHECK(nopts.max_retries >= 0, "--retries must be >= 0");

  // --coding overrides the tuned code= knob from --wisdom (explicit flag
  // wins, like --topology); strictly validated before any ranks launch.
  net::Coding coding;
  const std::string coding_text = a.get("coding", cand.coding);
  SOI_CHECK(coding_text.empty() || net::Coding::parse(coding_text, &coding),
            "--coding '" << coding_text
                         << "' invalid — want K+R with 1 <= R <= K and "
                            "K + R <= "
                         << net::kMaxCodedSubs
                         << " (e.g. 2+1, 4+1, 4+2)");

  cvec x = load_or_generate(a, n);
  const bool want_check = a.flag("check");
  const bool want_trace = a.flag("trace");
  auto& registry = tune::PlanRegistry::global();
  Timer t;
  // Every result is assembled and printed INSIDE the world body, by rank
  // 0: with a cross-process transport (shm) the rank bodies run in child
  // processes, where writes to captured host memory never propagate back
  // to this caller — the full spectrum travels through the transport's
  // own gather instead, and stdout (a shared descriptor) carries the
  // report. The same path serves in-process transports unchanged.
  net::run_world(transport, ranks, nopts, [&](net::Transport& comm) {
    core::DistOptions dopts;
    dopts.segments_per_rank = cand.segments_per_rank;
    dopts.alltoall_algo = cand.alltoall_algo;
    dopts.overlap = cand.overlap;
    dopts.batch_width = cand.batch_width;
    dopts.chunk_depth = cand.chunk_depth;
    dopts.engine = engine;
    // --topology overrides the wisdom candidate's topo= knob (explicit
    // flag wins over tuned default; "flat" forces the flat schedule).
    dopts.topology = a.get("topology", cand.topology);
    dopts.coding = coding;
    dopts.faults = nopts.faults;
    dopts.timeout_ms = nopts.timeout_ms;
    dopts.max_retries = nopts.max_retries;
    // One conv table per address space, built by whichever rank gets
    // there first (cross-process worlds build one per rank process).
    dopts.table =
        registry.conv_table(n, ranks * cand.segments_per_rank, prof);
    core::SoiFftDist plan(comm, n, prof, dopts);
    const std::int64_t m_rank = plan.local_size();
    cvec y_local(static_cast<std::size_t>(m_rank));
    plan.forward(cspan{x.data() + comm.rank() * m_rank,
                       static_cast<std::size_t>(m_rank)},
                 y_local);
    // All traffic (and fault recovery) has quiesced once every rank
    // reaches this barrier, so rank 0's stats snapshot is complete.
    comm.barrier();
    cvec y(x.size());
    if (want_check) comm.gather(y_local, y, 0);
    if (comm.rank() != 0) return;
    if (comm.caps().threaded_world) {
      // Only meaningful when the ranks share this registry instance.
      const auto stats = registry.stats();
      std::printf("plan registry: %lld hits / %lld misses (conv table "
                  "built once, shared by %d ranks)\n",
                  static_cast<long long>(stats.hits),
                  static_cast<long long>(stats.misses), ranks);
    }
    const core::SoiDistBreakdown bd0 = plan.last_breakdown();
    std::printf("rank-0 breakdown: halo %.2e conv %.2e F_P %.2e pack %.2e "
                "a2a %.2e F_M' %.2e demod %.2e s\n",
                bd0.halo, bd0.conv, bd0.fp, bd0.pack, bd0.alltoall, bd0.fm,
                bd0.demod);
    if (nopts.faults.any()) {
      const net::FaultStats fstats = comm.fault_stats();
      std::printf("faults [%s]: injected %lld (drop %lld corrupt %lld "
                  "truncate %lld duplicate %lld delay %lld straggle %lld), "
                  "checksum failures %lld, retransmits %lld, timeouts "
                  "%lld\n",
                  nopts.faults.str().c_str(),
                  static_cast<long long>(fstats.faults_injected),
                  static_cast<long long>(fstats.drops),
                  static_cast<long long>(fstats.corruptions),
                  static_cast<long long>(fstats.truncations),
                  static_cast<long long>(fstats.duplicates),
                  static_cast<long long>(fstats.delays),
                  static_cast<long long>(fstats.stragglers),
                  static_cast<long long>(fstats.checksum_failures),
                  static_cast<long long>(fstats.retransmits),
                  static_cast<long long>(fstats.timeouts));
    }
    if (coding.enabled()) {
      // Rank 0's receive-side view; every rank does the same work.
      const net::CodedStats cstats = plan.coded_stats();
      std::printf("coded exchange [%s]: codewords %lld, shards rebuilt "
                  "from parity %lld, parity bytes sent %lld, retransmit "
                  "fallbacks %lld\n",
                  coding.str().c_str(),
                  static_cast<long long>(cstats.codewords),
                  static_cast<long long>(cstats.recovered_chunks),
                  static_cast<long long>(cstats.parity_bytes),
                  static_cast<long long>(cstats.coded_fallbacks));
    }
    if (want_trace) print_trace(plan.last_trace());
    if (want_check) {
      fft::FftPlan exact(n);
      cvec want(x.size());
      exact.forward(x, want);
      const double snr = snr_db(y, want);
      std::printf("SNR vs exact engine: %.1f dB (%.1f digits)\n", snr,
                  snr_digits(snr));
    }
  });
  const double sec = t.seconds();
  std::printf("distributed SOI transform: N=%lld ranks=%d (%s) over "
              "transport=%s engine=%s in %.3f ms\n",
              static_cast<long long>(n), ranks, cand.describe().c_str(),
              (transport.empty() ? net::default_transport() : transport)
                  .c_str(),
              (engine.empty() ? fft::default_engine() : engine).c_str(),
              sec * 1e3);
  return 0;
}

int cmd_serve(const Args& a) {
  const std::int64_t n = a.geti("n", 1 << 13);
  const int ranks = static_cast<int>(a.geti("p", 4));
  const int lanes = static_cast<int>(a.geti("lanes", 2));
  const int requests = static_cast<int>(a.geti("requests", 64));
  SOI_CHECK(lanes >= 1 && lanes <= serve::kMaxLanes,
            "--lanes must be in [1, " << serve::kMaxLanes << "]");
  SOI_CHECK(requests >= 1, "--requests must be >= 1");

  // Per-request scheduling knobs, strictly validated before any setup:
  // an unknown tier is rejected listing the valid ones (same style as
  // --transport / --engine).
  serve::SubmitOptions sopt;
  sopt.priority = serve::priority_from_name(a.get("priority", "batch"));
  sopt.deadline_ms = a.getf("deadline-ms", 0.0);
  SOI_CHECK(sopt.deadline_ms >= 0.0, "--deadline-ms must be >= 0");

  serve::ServeOptions so;
  so.ranks = ranks;
  so.transport = transport_from(a);
  so.workers = static_cast<int>(a.geti("workers", 1));
  so.max_concurrency = static_cast<int>(a.geti("concurrency", 4));
  so.queue_capacity = static_cast<int>(a.geti("queue", 64));
  so.wire_latency_us = a.getf("wire-latency-us", 0.0);
  so.batch_linger_us = a.getf("linger-us", 0.0);
  // Erasure-code the rank team's exchange; same strict grammar as dist.
  const std::string coding_text = a.get("coding", "");
  SOI_CHECK(coding_text.empty() ||
                net::Coding::parse(coding_text, &so.coding),
            "--coding '" << coding_text
                         << "' invalid — want K+R with 1 <= R <= K and "
                            "K + R <= "
                         << net::kMaxCodedSubs
                         << " (e.g. 2+1, 4+1, 4+2)");
  if (so.ranks >= 2 && !so.transport.empty() &&
      !net::TransportRegistry::instance().caps(so.transport)
           .threaded_world) {
    // The rank team needs every rank in this address space; a
    // cross-process fabric (e.g. shm) can still serve — through the
    // serial worker backend — so the demo degrades instead of failing.
    std::fprintf(stderr,
                 "note: transport '%s' runs ranks in separate processes; "
                 "serving falls back to the serial worker backend\n",
                 so.transport.c_str());
    so.ranks = 0;
    so.transport.clear();
    if (so.workers < 1) so.workers = 1;
  }
  serve::TransformService svc(so);

  const auto accuracy =
      tune::accuracy_from_name(a.get("accuracy", "high"));
  std::vector<int> lane_ids;
  std::vector<cvec> inputs;
  for (int l = 0; l < lanes; ++l) {
    serve::LaneSpec spec;
    spec.n = n << l;
    spec.accuracy = accuracy;
    spec.segments_per_rank = 2;
    lane_ids.push_back(svc.create_lane(spec));
    cvec x(static_cast<std::size_t>(spec.n));
    fill_gaussian(x, static_cast<std::uint64_t>(a.geti("seed", 1) + l));
    inputs.push_back(std::move(x));
  }
  svc.warmup();
  svc.reset_metrics();

  // One tenant per (lane, parity) pair, round-robin over the trace; each
  // request reuses its tenant's input and a preallocated output.
  const int tenants = 2 * lanes;
  std::vector<cvec> youts;
  for (int i = 0; i < requests; ++i) {
    youts.emplace_back(
        static_cast<std::size_t>(n << ((i % tenants) % lanes)));
  }
  const double rate = a.getf("rate", 0.0);
  std::mt19937_64 rng(static_cast<std::uint64_t>(a.geti("seed", 1)));
  std::exponential_distribution<double> gap(rate > 0 ? rate : 1.0);
  std::vector<serve::Ticket> tickets(static_cast<std::size_t>(requests));
  std::vector<signed char> ok(static_cast<std::size_t>(requests), 0);
  Timer wall;
  double due = 0.0;
  for (int i = 0; i < requests; ++i) {
    if (rate > 0) {
      due += gap(rng);
      const double now = wall.seconds();
      if (due > now) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(due - now));
      }
    }
    const int tenant = i % tenants;
    const auto t = svc.try_submit(lane_ids[static_cast<std::size_t>(
                                      tenant % lanes)],
                                  tenant,
                                  inputs[static_cast<std::size_t>(
                                      tenant % lanes)],
                                  youts[static_cast<std::size_t>(i)], sopt);
    if (t) {
      tickets[static_cast<std::size_t>(i)] = *t;
      ok[static_cast<std::size_t>(i)] = 1;
    }
    // Burst mode keeps the queue saturated: harvest the oldest ticket
    // whenever admission rejects, then retry once.
    if (!t && rate <= 0) {
      for (int j = 0; j < i; ++j) {
        if (ok[static_cast<std::size_t>(j)] == 1) {
          svc.wait(tickets[static_cast<std::size_t>(j)]);
          ok[static_cast<std::size_t>(j)] = 2;
          break;
        }
      }
      if (const auto t2 = svc.try_submit(
              lane_ids[static_cast<std::size_t>(tenant % lanes)], tenant,
              inputs[static_cast<std::size_t>(tenant % lanes)],
              youts[static_cast<std::size_t>(i)], sopt)) {
        tickets[static_cast<std::size_t>(i)] = *t2;
        ok[static_cast<std::size_t>(i)] = 1;
      }
    }
  }
  int failed = 0;
  int shed = 0;
  for (int i = 0; i < requests; ++i) {
    if (ok[static_cast<std::size_t>(i)] != 1) continue;
    try {
      svc.wait(tickets[static_cast<std::size_t>(i)]);
    } catch (const DeadlineExceededError&) {
      ++shed;  // deadline shedding is a policy outcome, not a failure
    } catch (const std::exception& e) {
      ++failed;
      std::fprintf(stderr, "request %d failed: %s\n", i, e.what());
    }
  }
  const auto m = svc.metrics();
  svc.stop();

  std::printf("serving %d lanes (N=%lld..%lld) on %s, %d tenants, "
              "tier %s\n",
              lanes, static_cast<long long>(n),
              static_cast<long long>(n << (lanes - 1)),
              so.ranks > 0 ? "rank team" : "worker pool", tenants,
              serve::priority_name(sopt.priority));
  std::printf("admitted %lld  rejected %lld  completed %lld  failed %lld  "
              "shed %lld\n",
              static_cast<long long>(m.admitted),
              static_cast<long long>(m.rejected),
              static_cast<long long>(m.completed),
              static_cast<long long>(m.failed),
              static_cast<long long>(m.shed));
  std::printf("throughput %.1f transforms/s  p50 %.3f ms  p99 %.3f ms  "
              "queue peak %lld  occupancy %.2f\n",
              m.transforms_per_sec, m.p50_ms, m.p99_ms,
              static_cast<long long>(m.queue_peak), m.arena_occupancy);
  for (const auto& t : m.tenants) {
    std::printf("tenant %d: completed %lld  overlap efficiency %.3f\n",
                t.tenant, static_cast<long long>(t.completed),
                t.overlap_efficiency);
  }
  static const char* kTierNames[serve::kTiers] = {"interactive", "batch",
                                                  "background"};
  for (int t = 0; t < serve::kTiers; ++t) {
    const auto& tier = m.tiers[static_cast<std::size_t>(t)];
    if (tier.admitted == 0 && tier.shed == 0) continue;
    std::printf("tier %-11s admitted %lld  completed %lld  shed %lld  "
                "p50 %.3f ms  p99 %.3f ms",
                kTierNames[t], static_cast<long long>(tier.admitted),
                static_cast<long long>(tier.completed),
                static_cast<long long>(tier.shed), tier.p50_ms, tier.p99_ms);
    if (so.coding.enabled() || tier.recovered_chunks > 0 ||
        tier.parity_bytes > 0 || tier.retries > 0) {
      std::printf("  recovered %lld  parity %lld B  retries %lld",
                  static_cast<long long>(tier.recovered_chunks),
                  static_cast<long long>(tier.parity_bytes),
                  static_cast<long long>(tier.retries));
    }
    std::printf("\n");
  }
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc >= 2 && (std::strcmp(argv[1], "--help") == 0 ||
                      std::strcmp(argv[1], "-h") == 0 ||
                      std::strcmp(argv[1], "help") == 0)) {
      return usage(stdout);
    }
    const Args a = parse(argc, argv);
    if (a.flag("help")) return usage(stdout);
    if (a.command == "design") return cmd_design(a);
    if (a.command == "transform") return cmd_transform(a);
    if (a.command == "segment") return cmd_segment(a);
    if (a.command == "bench") return cmd_bench(a);
    if (a.command == "tune") return cmd_tune(a);
    if (a.command == "dist") return cmd_dist(a);
    if (a.command == "serve") return cmd_serve(a);
    return usage(stderr);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "soifft: %s\n", e.what());
    return 1;
  }
}
