#include "soi/dist.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace {
// Residual-guard slack: the paper's Section-5 bound is an order estimate,
// so the acceptance gate leaves generous headroom above
// kappa*(eps_fft + eps_alias + eps_trunc) — injected corruption that slips
// past the checksums perturbs the energy by orders of magnitude more.
constexpr double kGuardSlack = 256.0;
}  // namespace

namespace soi::core {

SoiFftDist::SoiFftDist(net::Transport& comm, std::int64_t n,
                       win::SoiProfile profile, std::int64_t segments_per_rank)
    : SoiFftDist(comm, n, std::move(profile), [&] {
        DistOptions opts;
        opts.segments_per_rank = segments_per_rank;
        return opts;
      }()) {}

SoiFftDist::SoiFftDist(net::Transport& comm, std::int64_t n,
                       win::SoiProfile profile, DistOptions options)
    : comm_(comm),
      profile_(std::move(profile)),
      opts_(std::move(options)),
      spr_(opts_.segments_per_rank),
      geom_(n, comm.size() * spr_, profile_),
      table_(opts_.table ? opts_.table
                         : std::make_shared<const ConvTable>(
                               geom_, *profile_.window)),
      batch_p_(fft::make_batch_plan(opts_.engine, geom_.p(),
                                    opts_.batch_width)),
      batch_mp_(fft::make_batch_plan(opts_.engine, geom_.mprime(),
                                     opts_.batch_width)) {
  SOI_CHECK(spr_ >= 1, "SoiFftDist: segments_per_rank must be >= 1");
  // The halo crosses exactly one rank boundary (Fig. 4); a geometry whose
  // halo exceeds one segment would need points beyond the right neighbour.
  SOI_CHECK(geom_.halo() <= geom_.m(),
            "SoiFftDist: halo " << geom_.halo() << " exceeds segment length "
                                << geom_.m()
                                << " (reduce segments_per_rank or taps)");
  // The plan is the shared stage chain bound to this communicator; all
  // workspace (ext, v, send, recv, xt, uf) is preplanned in the arena so
  // steady-state forward() allocates nothing.
  env_.geom = &geom_;
  env_.table = table_.get();
  env_.batch_p = batch_p_.get();
  env_.batch_mp = batch_mp_.get();
  env_.ranks = comm.size();
  env_.spr = spr_;
  env_.has_comm = true;
  env_.algo = opts_.alltoall_algo;
  SOI_CHECK(opts_.chunk_depth >= 1,
            "SoiFftDist: chunk_depth must be >= 1");
  // Largest divisor of spr not exceeding the requested depth, so the
  // chunk groups tile the rank's segments exactly.
  std::int64_t depth = std::min(opts_.chunk_depth, spr_);
  while (spr_ % depth != 0) --depth;
  env_.chunk_depth = depth;
  // Topology-aware exchange: parse the fabric shape (throws
  // InvalidArgumentError on bad syntax / non-factorable shapes) and build
  // this rank's staged store-and-forward plan once, at plan time.
  env_.topo = net::Topology::parse(opts_.topology, comm.size());
  if (env_.staged_exchange()) {
    env_.staged = net::build_staged_plan(env_.topo, comm.rank());
  }
  SOI_CHECK(opts_.max_concurrency >= 1 &&
                opts_.max_concurrency <= comm.caps().max_coll_channels,
            "SoiFftDist: max_concurrency "
                << opts_.max_concurrency << " not in [1, "
                << comm.caps().max_coll_channels << "] (transport '"
                << comm.caps().name << "')");
  env_.max_instances = opts_.max_concurrency;
  // Coded exchange: validate the redundancy knob against the coded tag
  // space before any scratch is sized off it.
  if (opts_.coding.enabled()) {
    SOI_CHECK(opts_.coding.k >= 1 && opts_.coding.r >= 1 &&
                  opts_.coding.r <= opts_.coding.k &&
                  opts_.coding.total() <= net::kMaxCodedSubs,
              "SoiFftDist: coding " << opts_.coding.str()
                                    << " invalid (need 1 <= r <= k, k + r <= "
                                    << net::kMaxCodedSubs << ")");
    SOI_CHECK(env_.chunk_depth <= net::kMaxCodedGroups,
              "SoiFftDist: coded exchange supports chunk_depth <= "
                  << net::kMaxCodedGroups << ", got " << env_.chunk_depth);
    SOI_CHECK(!env_.staged_exchange() ||
                  static_cast<int>(env_.staged.phases.size()) <=
                      net::kMaxCodedPhases,
              "SoiFftDist: coded staged exchange supports <= "
                  << net::kMaxCodedPhases << " phases, topology '"
                  << opts_.topology << "' needs "
                  << env_.staged.phases.size());
    if (comm.size() > 1) {
      env_.coding = opts_.coding;
      env_.coded_stats = &coded_stats_;
    }
  }
  reserve_chain_buffers(state_.arena, env_, 0);
  append_chain_stages(pipeline_, env_);
  state_.arena.commit();
  pipeline_.init_trace(state_.trace);
  pipeline_.bind_scratch(state_.scratch);
  // Per-instance execution states for epochs: instance i > 0 gets its own
  // cloned-layout arena and trace.
  const int kmax = opts_.max_concurrency;
  slots_.reserve(static_cast<std::size_t>(kmax - 1));
  for (int i = 1; i < kmax; ++i) {
    auto st = std::make_unique<exec::ExecState>();
    st->arena.adopt_layout(state_.arena);
    st->trace = state_.trace;
    slots_.push_back(std::move(st));
  }
  ctxs_.resize(static_cast<std::size_t>(kmax));
  guard_energies_.resize(2 * static_cast<std::size_t>(kmax));
  epoch_xs_.resize(static_cast<std::size_t>(kmax));
  epoch_ys_.resize(static_cast<std::size_t>(kmax));
  SOI_CHECK(opts_.max_retries >= 0,
            "SoiFftDist: max_retries must be >= 0");
  SOI_CHECK(opts_.timeout_ms >= 0,
            "SoiFftDist: timeout_ms must be >= 0");
  // Install the plan's resilience configuration into the shared world.
  // Every rank constructs the plan with identical options; the first
  // configure wins and the rest are no-ops.
  if (opts_.faults.any() || opts_.timeout_ms > 0) {
    net::NetOptions nopts;
    nopts.faults = opts_.faults;
    nopts.timeout_ms = opts_.timeout_ms;
    nopts.max_retries = opts_.max_retries;
    comm_.configure_resilience(nopts);
  }
}

void SoiFftDist::forward(cspan x_local, mspan y_local) {
  exec::EpochMemberT<double> solo;
  bind_epoch_member(solo, 0, 0, x_local, y_local);
  exec::run_epoch(std::span<const exec::EpochMemberT<double>>(&solo, 1),
                  state_.scratch);
  finish_epoch(1);
}

void SoiFftDist::bind_epoch_member(exec::EpochMemberT<double>& member,
                                   int instance, int channel, cspan x_local,
                                   mspan y_local) {
  const std::int64_t m_rank = local_size();
  SOI_CHECK(instance >= 0 && instance < opts_.max_concurrency,
            "SoiFftDist::bind_epoch_member: instance "
                << instance << " not in [0, " << opts_.max_concurrency
                << ") (raise max_concurrency)");
  SOI_CHECK(channel >= 0 && channel < comm_.caps().max_coll_channels,
            "SoiFftDist::bind_epoch_member: channel "
                << channel << " not in [0, "
                << comm_.caps().max_coll_channels << ") (transport '"
                << comm_.caps().name << "')");
  SOI_CHECK(x_local.size() == static_cast<std::size_t>(m_rank),
            "SoiFftDist: rank " << comm_.rank() << " instance " << instance
                                << " expects " << m_rank
                                << " local points, got " << x_local.size());
  SOI_CHECK(y_local.size() >= static_cast<std::size_t>(m_rank),
            "SoiFftDist: rank " << comm_.rank() << " instance " << instance
                                << " local output too small");
  bool validate = opts_.validate_input > 0;
#ifndef NDEBUG
  if (opts_.validate_input < 0) validate = true;
#endif
  if (validate) {
    const std::int64_t bad = first_nonfinite<double>(x_local);
    if (bad >= 0) {
      std::ostringstream os;
      os << "SoiFftDist: rank " << comm_.rank() << " instance " << instance
         << " input contains a non-finite value (NaN/Inf) at local index "
         << bad;
      throw InvalidArgumentError(os.str());
    }
  }
  const auto i = static_cast<std::size_t>(instance);
  exec::ExecContextT<double>& ctx = ctxs_[i];
  ctx = exec::ExecContextT<double>{};
  ctx.in = x_local;
  ctx.out = y_local;
  ctx.comm = &comm_;
  // Graceful degradation, plan-global: once a run of this plan needed
  // communication retries, every later member of it gives up the
  // overlapped schedule and runs in order (same nodes and edges, so
  // results stay bit-identical).
  ctx.overlap = opts_.overlap && !degraded_;
  ctx.arena = i == 0 ? &state_.arena : &slots_[i - 1]->arena;
  ctx.trace = i == 0 ? &state_.trace : &slots_[i - 1]->trace;
  ctx.instance = instance;
  ctx.channel = channel;
  epoch_xs_[i] = x_local;
  epoch_ys_[i] = y_local;
  member.pipeline = &pipeline_;
  member.ctx = &ctx;
}

void SoiFftDist::finish_epoch(int k) {
  SOI_CHECK(k >= 1 && k <= opts_.max_concurrency,
            "SoiFftDist::finish_epoch: " << k << " members not in [1, "
                                         << opts_.max_concurrency << "]");
  breakdown_ = SoiDistBreakdown::from_trace(state_.trace);
  last_retries_ = 0;
  for (int i = 0; i < k; ++i) {
    for (const auto& r :
         ctxs_[static_cast<std::size_t>(i)].trace->records()) {
      last_retries_ += r.retries;
    }
  }
  if (last_retries_ > 0) degraded_ = true;
  guard_outputs(
      std::span<const cspan>(epoch_xs_.data(), static_cast<std::size_t>(k)),
      std::span<const mspan>(epoch_ys_.data(), static_cast<std::size_t>(k)));
}

void SoiFftDist::guard_outputs(std::span<const cspan> xs,
                               std::span<const mspan> ys) {
  if (!opts_.residual_guard) return;
  // Output acceptance gate. Two tiers:
  //
  // Local (every run): scan each output segment for non-finite values —
  // poisoned arithmetic shows up as NaN/Inf with no communication.
  //
  // Global (only when the world can actually experience faults, i.e.
  // comm_.resilience_active()): the Parseval check sum|y|^2 ==
  // N*sum|x|^2 up to the window-conditioned error model of Section 5,
  // ||y_hat - y||/||y|| = O(kappa*(eps_fft + eps_alias + eps_trunc)) —
  // an ABFT-style end-to-end gate that catches corruption which slipped
  // past the transport checksums. The global tier needs one allreduce;
  // on the oversubscribed SimMPI host an extra rendezvous costs
  // O(ranks x scheduler latency), so the fault-free fast path must not
  // pay it — and a co-scheduled batch shares ONE allreduce carrying all
  // instances' energies. resilience_active() is world-global, keeping the
  // collective call pattern identical on every rank.
  const std::int64_t m_rank = local_size();
  for (std::size_t i = 0; i < ys.size(); ++i) {
    const std::int64_t bad = core::first_nonfinite<double>(
        cspan{ys[i].data(), static_cast<std::size_t>(m_rank)});
    if (bad >= 0) {
      std::ostringstream os;
      os << "SoiFftDist: residual guard tripped: rank " << comm_.rank()
         << " transform " << i
         << " output contains a non-finite value at local index " << bad;
      throw AccuracyFaultError(os.str());
    }
  }
  if (!comm_.resilience_active()) return;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    double ein = 0.0;
    double eout = 0.0;
    for (const auto& v : xs[i]) ein += std::norm(v);
    for (std::int64_t j = 0; j < m_rank; ++j) {
      eout += std::norm(ys[i][static_cast<std::size_t>(j)]);
    }
    guard_energies_[2 * i] = ein;
    guard_energies_[2 * i + 1] = eout;
  }
  const double nd = static_cast<double>(geom_.n());
  comm_.allreduce_sum(
      std::span<double>(guard_energies_.data(), 2 * xs.size()));
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double expected = guard_energies_[2 * i] * nd;
    if (expected <= 0.0) continue;
    const double rel =
        std::abs(guard_energies_[2 * i + 1] - expected) / expected;
    const double eps_fft = 1e-15 * std::log2(nd);
    const double eps = profile_.eps_alias + profile_.eps_trunc + eps_fft;
    const double tol = kGuardSlack * std::max(profile_.kappa, 1.0) * eps;
    if (!(rel <= tol)) {
      std::ostringstream os;
      os << "SoiFftDist: residual guard tripped: transform " << i
         << " relative energy residual " << rel
         << " exceeds kappa-scaled bound " << tol
         << " (kappa=" << profile_.kappa << ", eps=" << eps << ")";
      throw AccuracyFaultError(os.str());
    }
  }
}

void SoiFftDist::inverse(cspan y_local, mspan x_local) {
  const std::int64_t m_rank = local_size();
  SOI_CHECK(y_local.size() == static_cast<std::size_t>(m_rank),
            "SoiFftDist::inverse: local input size mismatch");
  SOI_CHECK(x_local.size() >= static_cast<std::size_t>(m_rank),
            "SoiFftDist::inverse: local output too small");
  // inverse(y) = conj(forward(conj(y))) / N; conjugation is local, the
  // block layout is symmetric, so this costs one extra local pass only.
  conj_in_.resize(static_cast<std::size_t>(m_rank));
  conj_out_.resize(static_cast<std::size_t>(m_rank));
  for (std::int64_t i = 0; i < m_rank; ++i) {
    conj_in_[static_cast<std::size_t>(i)] =
        std::conj(y_local[static_cast<std::size_t>(i)]);
  }
  forward(conj_in_, conj_out_);
  const double scale = 1.0 / static_cast<double>(geom_.n());
  for (std::int64_t i = 0; i < m_rank; ++i) {
    x_local[static_cast<std::size_t>(i)] =
        std::conj(conj_out_[static_cast<std::size_t>(i)]) * scale;
  }
}

}  // namespace soi::core
