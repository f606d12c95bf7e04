#include "soi/stages.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstring>
#include <optional>
#include <thread>
#include <type_traits>

#include "common/error.hpp"
#include "soi/breakdown.hpp"
#include "soi/convolve.hpp"

namespace soi::core {

namespace {

constexpr int kTagHalo = 101;
// Staged topology exchange: each store-and-forward phase travels on its
// own tag, offset by the execution channel so co-scheduled instances
// never cross-match (phases <= 3, channels < kMaxChannels, so the
// range [160, 160 + 3*16) stays clear of every other user tag).
constexpr int kTagStaged = 160;

template <class Real>
std::int64_t cbytes(std::int64_t count) {
  return static_cast<std::int64_t>(sizeof(cplx_t<Real>)) * count;
}

std::int64_t fft_flops(std::int64_t batch, std::int64_t n) {
  return static_cast<std::int64_t>(
      static_cast<double>(batch) * 5.0 * static_cast<double>(n) *
      std::log2(static_cast<double>(n)));
}

// Node phases (NodeSpec::phase) shared by the chunked stages.
constexpr int kPhasePost = 0;  ///< stage input + nonblocking comm posts
constexpr int kPhaseWait = 1;  ///< complete a posted operation
constexpr int kPhaseWork = 2;  ///< compute kernel

/// Demodulate + project `segs` segments: y[s*m + k] = uf[s*mprime + k] *
/// demod[k] for k < m, parallel over segments. Both demod entry points
/// (whole rank, one chunk group) run this one loop. The product is spelt
/// out as (ac - bd, bc + ad) with one fused multiply-add per part: the
/// bits GCC's double std::complex product has on an FMA target, whether or
/// not the loop is outlined into an OpenMP region or vectorised. A pass
/// below kParallelMinPoints stays on the calling thread.
template <class Real>
void demodulate(const ConvTableT<Real>& table, const cplx_t<Real>* uf,
                std::int64_t mprime, cplx_t<Real>* y, std::int64_t m,
                std::int64_t segs) {
  const auto* __restrict w =
      reinterpret_cast<const Real*>(table.demod().data());
#ifdef _OPENMP
#pragma omp parallel for schedule(static) if (segs * m >= kParallelMinPoints)
#endif
  for (std::int64_t s = 0; s < segs; ++s) {
    const auto* __restrict src = reinterpret_cast<const Real*>(uf + s * mprime);
    auto* __restrict dst = reinterpret_cast<Real*>(y + s * m);
    for (std::int64_t k = 0; k < m; ++k) {
      const Real a = src[2 * k], b = src[2 * k + 1];
      const Real c = w[2 * k], d = w[2 * k + 1];
#ifdef __FMA__
      dst[2 * k] = std::fma(a, c, -(b * d));
      dst[2 * k + 1] = std::fma(b, c, a * d);
#else
      dst[2 * k] = a * c - b * d;
      dst[2 * k + 1] = b * c + a * d;
#endif
    }
  }
}

/// Stages 1+2 of the per-rank pipeline: halo materialisation and the
/// convolution W x. Emits "halo" and "conv". Node-driven: a post node
/// stages the input (and isend/irecvs the halo when remote), a wait node
/// completes the receive, and the convolution is split into a
/// halo-independent "safe" node (chunk 0) plus the last sub-rank's tail
/// (chunk 1) that depends on the wait — the pipelined schedule runs the
/// safe groups while the halo travels.
template <class Real>
class HaloConvStageT final : public exec::StageT<Real> {
 public:
  explicit HaloConvStageT(const ChainEnvT<Real>* env)
      : env_(env),
        hsend_(static_cast<std::size_t>(env->max_instances)),
        hrecv_(static_cast<std::size_t>(env->max_instances)) {}

  void plan_records(std::vector<exec::StageRecord>& out) const override {
    const SoiGeometry& g = *env_->geom;
    exec::StageRecord halo;
    halo.name = "halo";
    halo.bytes_moved = remote() ? cbytes<Real>(g.halo()) : 0;
    halo.bytes_measured = remote();
    out.push_back(std::move(halo));
    exec::StageRecord conv;
    conv.name = "conv";
    conv.flops = 8 * env_->spr * g.conv_madds_per_rank();
    conv.bytes_moved = cbytes<Real>(env_->spr * g.local_input() +
                                    env_->chunks() * g.p());
    conv.chunks = remote() ? 2 : 1;
    out.push_back(std::move(conv));
  }

  void run(exec::ExecContextT<Real>& ctx,
           exec::StageRecord* rec) const override {
    (void)ctx;
    (void)rec;
    SOI_CHECK(false, "halo+conv is node-driven (append_chain_stages "
                     "declares its nodes)");
  }

  void run_node(exec::ExecContextT<Real>& ctx, exec::StageRecord* rec,
                const exec::NodeSpec& node) const override {
    switch (node.phase) {
      case kPhasePost:
        post(ctx, rec);
        return;
      case kPhaseWait:
        wait_halo(ctx, rec);
        return;
      default:
        conv(ctx, rec, node.chunk);
        return;
    }
  }

 private:
  [[nodiscard]] bool remote() const {
    return env_->has_comm && env_->ranks > 1;
  }

  void post(exec::ExecContextT<Real>& ctx, exec::StageRecord* rec) const {
    using C = cplx_t<Real>;
    const ChainEnvT<Real>& env = *env_;
    const SoiGeometry& g = *env.geom;
    const std::int64_t m_rank = env.m_rank();
    const std::int64_t halo = g.halo();
    exec::StageRecord& rhalo = rec[0];
    exec::StageRecord& rconv = rec[1];
    const SplitExt ext = split_ext(ctx);
    const cspan_t<Real> x =
        env.src.valid()
            ? cspan_t<Real>(ctx.arena->template span<C>(env.src))
            : ctx.in;

    {
      // Staging the owned block split is part of materialising the conv
      // input: one pass, parallel over x.
      exec::StageTimer st(rconv);
      split_complex<Real>(x, ext.re, ext.im);
    }

    if (!remote()) {
      exec::StageTimer st(rhalo);
      split_complex<Real>(x.first(static_cast<std::size_t>(halo)),
                          ext.re + m_rank, ext.im + m_rank);
      return;
    }
    SOI_CHECK(ctx.comm != nullptr,
              "SOI pipeline: distributed chain run without a communicator");
    if constexpr (std::is_same_v<Real, double>) {
      const int ranks = env.ranks;
      const int rank = ctx.comm->rank();
      const int left = (rank - 1 + ranks) % ranks;
      const int right = (rank + 1) % ranks;
      const cspan halo_out{x.data(), static_cast<std::size_t>(halo)};
      const mspan halo_in = ctx.arena->template span<C>(env.halo);
      const auto inst = static_cast<std::size_t>(ctx.instance);
      // Each concurrent execution's halo travels on its own tag so two
      // co-scheduled transforms' halos never cross-match. Channels must
      // be unique across EVERY execution sharing this transport — every
      // member of the epoch (exec::run_epoch), whichever plan it belongs
      // to — and bounded so the staged-exchange tag blocks (kTagStaged +
      // phase*kMaxChannels + channel) stay disjoint.
      SOI_CHECK(ctx.channel >= 0 && ctx.channel < net::kMaxChannels,
                "SOI pipeline: channel " << ctx.channel << " not in [0, "
                                         << net::kMaxChannels << ")");
      const int tag = kTagHalo + ctx.channel;
      exec::StageTimer st(rhalo);
      const std::int64_t before = ctx.comm->bytes_sent();
      hsend_[inst] = ctx.comm->isend(left, tag, halo_out);
      hrecv_[inst] = ctx.comm->irecv(right, tag, halo_in);
      rhalo.bytes_moved += ctx.comm->bytes_sent() - before;
    } else {
      SOI_CHECK(false, "SOI pipeline: communicator paths are double-only");
    }
  }

  void wait_halo(exec::ExecContextT<Real>& ctx,
                 exec::StageRecord* rec) const {
    using C = cplx_t<Real>;
    const auto inst = static_cast<std::size_t>(ctx.instance);
    {
      exec::WaitTimer wt(rec[0]);
      rec[0].retries += ctx.comm->wait(hrecv_[inst]);
      rec[0].retries += ctx.comm->wait(hsend_[inst]);
    }
    // The halo landed interleaved; split it into the tail of ext.
    exec::StageTimer st(rec[0]);
    const SplitExt ext = split_ext(ctx);
    const std::int64_t m_rank = env_->m_rank();
    split_complex<Real>(ctx.arena->template span<C>(env_->halo),
                        ext.re + m_rank, ext.im + m_rank);
  }

  void conv(exec::ExecContextT<Real>& ctx, exec::StageRecord* rec,
            int chunk) const {
    using C = cplx_t<Real>;
    const ChainEnvT<Real>& env = *env_;
    const SoiGeometry& g = *env.geom;
    const std::int64_t p = g.p();
    const SplitExt ext = split_ext(ctx);
    const auto len = static_cast<std::size_t>(env.m_rank() + g.halo());
    // The rank's spr segments are one range of groups over ext (see
    // convolve_split_groups).
    const std::int64_t groups = env.spr * g.groups_per_rank();
    const auto convolve_groups = [&](std::int64_t q_begin,
                                     std::int64_t q_end) {
      convolve_split_groups<Real>(g, *env.table,
                                  std::span<const Real>{ext.re, len},
                                  std::span<const Real>{ext.im, len},
                                  ctx.arena->template span<C>(env.v), q_begin,
                                  q_end);
    };

    exec::StageTimer st(rec[1]);
    if (!remote()) {
      convolve_groups(0, groups);
      return;
    }
    // Groups whose window fits in local data: every group of the first
    // spr-1 segments (halo <= M_seg) and the last segment's first q_safe.
    const std::int64_t q_safe = std::clamp<std::int64_t>(
        (g.m() - g.taps() * p) / (g.nu() * p) + 1, 0, g.groups_per_rank());
    const std::int64_t q_local = groups - g.groups_per_rank() + q_safe;
    if (chunk == 0) {
      convolve_groups(0, q_local);
    } else {
      convolve_groups(q_local, groups);
    }
  }

  /// The arena's `ext` buffer as split-complex input: re[0, L) then
  /// im[0, L), L = m_rank + halo (the same bytes as L interleaved points).
  struct SplitExt {
    Real* re;
    Real* im;
  };
  [[nodiscard]] SplitExt split_ext(exec::ExecContextT<Real>& ctx) const {
    const std::span<Real> raw = ctx.arena->template span<Real>(env_->ext);
    const std::size_t len = raw.size() / 2;
    return {raw.data(), raw.data() + len};
  }

  const ChainEnvT<Real>* env_;
  // In-flight halo requests, one pair per concurrent execution
  // (ExecContext::instance); sized from env->max_instances.
  mutable std::vector<net::Request> hsend_, hrecv_;
};

/// Stage "f_p": I (x) F_P over the local chunks, with the Fig. 3
/// per-destination transpose fused into the batched pass's interleaved
/// store. Under a null comm it stores straight into x-tilde.
template <class Real>
class FpStageT final : public exec::StageT<Real> {
 public:
  explicit FpStageT(const ChainEnvT<Real>* env) : env_(env) {}

  void plan_records(std::vector<exec::StageRecord>& out) const override {
    const std::int64_t p = env_->geom->p();
    exec::StageRecord r;
    r.name = "f_p";
    r.bytes_moved = 2 * cbytes<Real>(env_->chunks() * p);
    r.flops = fft_flops(env_->chunks(), p);
    out.push_back(std::move(r));
  }

  void run(exec::ExecContextT<Real>& ctx,
           exec::StageRecord* rec) const override {
    using C = cplx_t<Real>;
    const ChainEnvT<Real>& env = *env_;
    const std::int64_t p = env.geom->p();
    const std::int64_t chunks = env.chunks();
    const std::span<C> v = ctx.arena->template span<C>(env.v);
    const std::span<C> dst =
        ctx.arena->template span<C>(env.has_comm ? env.send : env.xt);
    exec::StageTimer st(*rec);
    // Destination rank d gets, for each of its segments sigma, element
    // sigma of every local chunk, laid out [sigma][chunk]: exactly the
    // interleaved store layout, so no separate pack sweep runs.
    env.batch_p->forward_strided(v, fft::contiguous_layout(p), dst,
                                 fft::interleaved_layout(chunks), chunks);
  }

 private:
  const ChainEnvT<Real>* env_;
};

/// Stage "exchange": the single global all-to-all, cut into chunk_depth
/// nonblocking pieces. A post node (per chunk group) fires ialltoall /
/// ialltoallv into that group's buffer slot; a wait node completes it.
/// bytes_moved accumulates the measured per-rank send volume (the transport
/// counters); a null comm declares no nodes and run() is a no-op.
template <class Real>
class ExchangeStageT final : public exec::StageT<Real> {
 public:
  explicit ExchangeStageT(const ChainEnvT<Real>* env)
      : env_(env),
        reqs_(static_cast<std::size_t>(env->max_instances) *
              static_cast<std::size_t>(env->chunk_depth)),
        sreqs_(env->staged_exchange()
                   ? static_cast<std::size_t>(env->max_instances) *
                         static_cast<std::size_t>(env->chunk_depth) *
                         static_cast<std::size_t>(env->staged.max_peers)
                   : 0),
        wreqs_(env->staged_exchange()
                   ? static_cast<std::size_t>(env->max_instances) *
                         static_cast<std::size_t>(env->staged.max_peers)
                   : 0) {
    if (env->coded_exchange()) {
      const auto inst = static_cast<std::size_t>(env->max_instances);
      const auto depth = static_cast<std::size_t>(env->chunk_depth);
      const std::size_t mpg = msgs_per_group();
      const auto subs = static_cast<std::size_t>(env->coding.total());
      cstate_.resize(inst * depth * mpg);
      creqs_.resize(inst * depth * mpg * subs);
      if (env->staged_exchange()) {
        cwstate_.resize(inst * mpg);
        cwreqs_.resize(inst * mpg * subs);
      }
      epochs_.assign(inst * depth, 0);
      codec_.emplace(env->coding);
    }
  }

  void plan_records(std::vector<exec::StageRecord>& out) const override {
    exec::StageRecord r;
    r.name = "exchange";
    r.bytes_moved = env_->has_comm
                        ? cbytes<Real>(env_->spr * env_->chunks() *
                                       (env_->ranks - 1))
                        : 0;
    r.bytes_measured = remote();
    r.chunks = remote() ? env_->chunk_depth : 1;
    out.push_back(std::move(r));
    if (env_->coded_exchange()) {
      // Codec share of the exchange, broken out for --trace: encode/decode
      // seconds are subsets of the exchange record's wall time (the
      // breakdown folds only "exchange", so totals stay comparable with
      // uncoded runs); parity_encode's bytes_moved counts parity payload.
      exec::StageRecord enc;
      enc.name = "parity_encode";
      enc.chunks = env_->chunk_depth;
      out.push_back(std::move(enc));
      exec::StageRecord dec;
      dec.name = "parity_decode";
      dec.chunks = env_->chunk_depth;
      out.push_back(std::move(dec));
    }
  }

  void run(exec::ExecContextT<Real>& ctx,
           exec::StageRecord* rec) const override {
    (void)ctx;
    (void)rec;
    // Null-comm auto node: F_P already stored into x-tilde.
  }

  void run_node(exec::ExecContextT<Real>& ctx, exec::StageRecord* rec,
                const exec::NodeSpec& node) const override {
    using C = cplx_t<Real>;
    const ChainEnvT<Real>& env = *env_;
    SOI_CHECK(ctx.comm != nullptr,
              "SOI pipeline: distributed chain run without a communicator");
    if constexpr (std::is_same_v<Real, double>) {
      if (env.staged_exchange()) {
        if (node.phase == kPhaseWait) {
          wait_staged(ctx, rec, node);
        } else {
          post_staged(ctx, rec, node);
        }
        return;
      }
      if (env.coded_exchange()) {
        if (node.phase == kPhaseWait) {
          wait_coded_flat(ctx, rec, node);
        } else {
          post_coded_flat(ctx, rec, node);
        }
        return;
      }
      const auto g = static_cast<std::size_t>(node.chunk);
      const auto slot0 = static_cast<std::size_t>(ctx.instance) *
                         static_cast<std::size_t>(env.chunk_depth);
      if (node.phase == kPhaseWait) {
        exec::WaitTimer wt(*rec);
        rec->retries += ctx.comm->wait(reqs_[slot0 + g]);
        return;
      }
      const std::span<C> send = ctx.arena->template span<C>(env.send);
      const std::int64_t before = ctx.comm->bytes_sent();
      {
        exec::StageTimer st(*rec);
        if (env.chunk_depth == 1) {
          const std::span<C> recv = ctx.arena->template span<C>(env.recv);
          reqs_[slot0] = ctx.comm->ialltoall(send, recv,
                                             env.spr * env.chunks(),
                                             env.algo, ctx.channel);
        } else {
          const std::span<C> recv = ctx.arena->template span<C>(
              WorkspaceArena::slot(env.recv,
                                   node.chunk % env.nslots()));
          const auto ranks = static_cast<std::size_t>(env.ranks);
          const std::span<const std::int64_t> counts{env.a2a_counts.data(),
                                                     ranks};
          const std::span<const std::int64_t> sdispls{
              env.a2a_send_displs.data() + g * ranks, ranks};
          const std::span<const std::int64_t> rdispls{
              env.a2a_recv_displs.data(), ranks};
          reqs_[slot0 + g] = ctx.comm->ialltoallv(send, counts, sdispls,
                                                  recv, counts, rdispls,
                                                  ctx.channel);
        }
      }
      rec->bytes_moved += ctx.comm->bytes_sent() - before;
    } else {
      SOI_CHECK(false, "SOI pipeline: communicator paths are double-only");
    }
  }

 private:
  [[nodiscard]] bool remote() const {
    return env_->has_comm && env_->ranks > 1;
  }

  /// Element count of one (source, destination) block of a chunk group.
  [[nodiscard]] std::int64_t block_elems() const {
    return env_->gseg() * env_->chunks();
  }

  [[nodiscard]] int staged_tag(int phase, int channel) const {
    return kTagStaged + phase * net::kMaxChannels + channel;
  }


  // ---- coded exchange -------------------------------------------------
  //
  // Every peer message of the exchange (flat per-destination block, staged
  // fused phase message) becomes one CODEWORD: k data shards + r parity
  // shards, each framed with a 16-byte header and sent on its own tag
  // (net::coded_tag over epoch/channel/phase/group/shard). The receiver
  // reconstructs the payload as soon as ANY k shards land — a dropped,
  // corrupted, truncated or straggling shard is an erasure the codec
  // absorbs with no retransmit round trip. Only when more than r shards of
  // one codeword are missing at the bounded deadline does the receiver
  // fall back to the CRC32C + retained-copy retransmit path (data shards
  // only; abandoned parity costs nothing), which bumps the record's retry
  // counter and degrades the plan exactly like an uncoded retry.

  /// One expected incoming codeword.
  struct CodedMsg {
    int peer = -1;
    std::uint8_t* dst = nullptr;     ///< payload destination
    std::size_t pb = 0;              ///< payload bytes
    std::uint8_t* frames = nullptr;  ///< k+r receive frames
    std::size_t sb = 0;              ///< shard bytes
    std::size_t fb = 0;              ///< frame stride (header+shard, aligned)
    std::uint8_t* dec = nullptr;     ///< r * sb decode scratch
    std::uint32_t mask = 0;          ///< accepted-shard bitmask
    bool done = false;
  };

  /// Expected codewords per chunk group (receive-state sizing).
  [[nodiscard]] std::size_t msgs_per_group() const {
    if (!env_->coded_exchange()) return 0;
    return env_->staged_exchange()
               ? static_cast<std::size_t>(env_->staged.max_peers)
               : static_cast<std::size_t>(env_->ranks);
  }

  [[nodiscard]] static std::size_t frame_stride(std::size_t sb) {
    return (net::kCodedHeaderBytes + sb + 7) & ~std::size_t{7};
  }

  /// Initialise one expected codeword at frame offset `off` of the slot's
  /// frame scratch and post its k+r shard receives. Returns the offset
  /// past this codeword's frames + decode scratch.
  std::size_t coded_post_msg(exec::ExecContextT<Real>& ctx, CodedMsg& m,
                             net::Request* rq, int peer, std::uint8_t* dst,
                             std::size_t pb, std::span<std::uint8_t> frames,
                             std::size_t off, std::uint32_t epoch, int phase,
                             int group) const {
    const net::Coding c = env_->coding;
    const int subs = c.total();
    m = CodedMsg{};
    m.peer = peer;
    m.dst = dst;
    m.pb = pb;
    m.sb = net::coded_shard_bytes(pb, c.k);
    m.fb = frame_stride(m.sb);
    m.frames = frames.data() + off;
    m.dec = m.frames + static_cast<std::size_t>(subs) * m.fb;
    const std::size_t need = off +
                             static_cast<std::size_t>(subs) * m.fb +
                             static_cast<std::size_t>(c.r) * m.sb;
    SOI_CHECK(need <= frames.size(),
              "coded exchange: frame scratch overflow (" << need << " > "
                                                         << frames.size()
                                                         << " bytes)");
    for (int sub = 0; sub < subs; ++sub) {
      rq[sub] = ctx.comm->irecv_bytes(
          peer, net::coded_tag(epoch, ctx.channel, phase, group, sub),
          m.frames + static_cast<std::size_t>(sub) * m.fb,
          net::kCodedHeaderBytes + m.sb);
    }
    return need;
  }

  /// Split one outgoing message into k data + r parity framed shards and
  /// post them (SimMPI/shm sends are buffered-complete at post, so the
  /// single staging frame in `pack` is reusable between isend calls).
  /// Encode time folds into `enc_rec` ("parity_encode").
  void coded_send(exec::ExecContextT<Real>& ctx, const std::uint8_t* payload,
                  std::size_t pb, int peer, std::uint32_t epoch, int phase,
                  int group, std::span<std::uint8_t> pack,
                  exec::StageRecord* enc_rec) const {
    const net::Coding c = env_->coding;
    const int subs = c.total();
    const std::size_t sb = net::coded_shard_bytes(pb, c.k);
    const std::size_t fb = frame_stride(sb);
    SOI_CHECK((static_cast<std::size_t>(c.r) + 1) * sb + fb <= pack.size(),
              "coded exchange: send staging scratch overflow");
    std::uint8_t* parity0 = pack.data();
    std::uint8_t* pad = parity0 + static_cast<std::size_t>(c.r) * sb;
    std::uint8_t* frame = pad + sb;
    std::array<const std::uint8_t*, net::kMaxCodedSubs> data{};
    for (int j = 0; j < c.k; ++j) {
      data[static_cast<std::size_t>(j)] =
          payload + static_cast<std::size_t>(j) * sb;
    }
    if (static_cast<std::size_t>(c.k) * sb != pb) {
      // Zero-pad the tail shard so every shard is exactly sb bytes.
      const std::size_t tail = pb - static_cast<std::size_t>(c.k - 1) * sb;
      std::memset(pad, 0, sb);
      std::memcpy(pad, payload + static_cast<std::size_t>(c.k - 1) * sb, tail);
      data[static_cast<std::size_t>(c.k - 1)] = pad;
    }
    std::array<std::uint8_t*, net::kMaxCodedSubs> par{};
    for (int i = 0; i < c.r; ++i) {
      par[static_cast<std::size_t>(i)] =
          parity0 + static_cast<std::size_t>(i) * sb;
    }
    {
      exec::StageTimer et(*enc_rec);
      codec_->encode(data.data(), par.data(), sb);
    }
    enc_rec->bytes_moved += static_cast<std::int64_t>(c.r) *
                            static_cast<std::int64_t>(sb);
    net::CodedFrame f;
    f.epoch = epoch;
    f.k = static_cast<std::uint8_t>(c.k);
    f.r = static_cast<std::uint8_t>(c.r);
    f.cw_bytes = pb;
    for (int sub = 0; sub < subs; ++sub) {
      f.sub = static_cast<std::uint16_t>(sub);
      net::write_coded_header(frame, f);
      std::memcpy(frame + net::kCodedHeaderBytes,
                  sub < c.k ? data[static_cast<std::size_t>(sub)]
                            : par[static_cast<std::size_t>(sub - c.k)],
                  sb);
      ctx.comm->isend_bytes(
          peer, net::coded_tag(epoch, ctx.channel, phase, group, sub), frame,
          net::kCodedHeaderBytes + sb);
    }
    if (env_->coded_stats != nullptr) {
      env_->coded_stats->parity_bytes.fetch_add(
          static_cast<std::uint64_t>(c.r) * sb, std::memory_order_relaxed);
    }
  }

  /// Validate a completed frame: a shard is accepted only when every
  /// header field matches the expectation; anything else is a stale
  /// arrival from a previous epoch (tag reuse) and becomes an erasure.
  [[nodiscard]] bool coded_accept(const CodedMsg& m, int sub,
                                  std::uint32_t epoch) const {
    net::CodedFrame f;
    if (!net::read_coded_header(
            m.frames + static_cast<std::size_t>(sub) * m.fb,
            net::kCodedHeaderBytes, &f)) {
      return false;
    }
    const net::Coding c = env_->coding;
    return f.epoch == epoch && f.sub == static_cast<std::uint16_t>(sub) &&
           f.k == static_cast<std::uint8_t>(c.k) &&
           f.r == static_cast<std::uint8_t>(c.r) && f.cw_bytes == m.pb;
  }

  void coded_repost(exec::ExecContextT<Real>& ctx, CodedMsg& m,
                    net::Request& rq, std::uint32_t epoch, int phase,
                    int group, int sub) const {
    rq = ctx.comm->irecv_bytes(
        m.peer, net::coded_tag(epoch, ctx.channel, phase, group, sub),
        m.frames + static_cast<std::size_t>(sub) * m.fb,
        net::kCodedHeaderBytes + m.sb);
  }

  /// Rebuild the codeword payload from the k accepted shards (any mix of
  /// data and parity) into m.dst, byte-exact.
  void coded_reconstruct(CodedMsg& m) const {
    const net::Coding c = env_->coding;
    std::array<int, net::kMaxCodedSubs> present{};
    std::array<const std::uint8_t*, net::kMaxCodedSubs> shards{};
    int np = 0;
    for (int sub = 0; sub < c.total() && np < c.k; ++sub) {
      if ((m.mask & (1u << sub)) != 0) {
        present[static_cast<std::size_t>(np)] = sub;
        shards[static_cast<std::size_t>(np)] =
            m.frames + static_cast<std::size_t>(sub) * m.fb +
            net::kCodedHeaderBytes;
        ++np;
      }
    }
    std::array<std::uint8_t*, net::kMaxCodedSubs> out{};
    int nrec = 0;
    for (int j = 0; j < c.k; ++j) {
      if ((m.mask & (1u << j)) != 0) {
        out[static_cast<std::size_t>(j)] = const_cast<std::uint8_t*>(
            m.frames + static_cast<std::size_t>(j) * m.fb +
            net::kCodedHeaderBytes);
      } else {
        out[static_cast<std::size_t>(j)] =
            m.dec + static_cast<std::size_t>(nrec++) * m.sb;
      }
    }
    SOI_CHECK(codec_->reconstruct(present.data(), shards.data(), out.data(),
                                  m.sb),
              "coded exchange: reconstruction failed");
    for (int j = 0; j < c.k; ++j) {
      const std::size_t at = static_cast<std::size_t>(j) * m.sb;
      std::memcpy(m.dst + at, out[static_cast<std::size_t>(j)],
                  std::min(m.sb, m.pb - at));
    }
    if (env_->coded_stats != nullptr && nrec > 0) {
      env_->coded_stats->recovered_chunks.fetch_add(
          static_cast<std::uint64_t>(nrec), std::memory_order_relaxed);
    }
  }

  /// > r shards of one codeword lost: surface the retained clean copies of
  /// the missing DATA shards through the bounded-deadline retransmit path,
  /// then assemble without decoding. Abandoned parity receives cost
  /// nothing. Counts as one retry on the stage record regardless of how
  /// fast the retained copies land — exceeding the parity budget means the
  /// coding choice failed and the plan must degrade (like an uncoded
  /// retry), even though the requeued copy may satisfy the very wait that
  /// expired.
  void coded_fallback(exec::ExecContextT<Real>& ctx, CodedMsg& m,
                      net::Request* rq, std::uint32_t epoch, int phase,
                      int group, exec::StageRecord* rec) const {
    const net::Coding c = env_->coding;
    rec->retries += 1;
    for (int j = 0; j < c.k; ++j) {
      const std::uint32_t bit = 1u << j;
      while ((m.mask & bit) == 0) {
        rec->retries += ctx.comm->wait(rq[j]);
        if (coded_accept(m, j, epoch)) {
          m.mask |= bit;
        } else {
          coded_repost(ctx, m, rq[j], epoch, phase, group, j);
        }
      }
    }
    for (int j = 0; j < c.k; ++j) {
      const std::size_t at = static_cast<std::size_t>(j) * m.sb;
      std::memcpy(m.dst + at,
                  m.frames + static_cast<std::size_t>(j) * m.fb +
                      net::kCodedHeaderBytes,
                  std::min(m.sb, m.pb - at));
    }
    m.done = true;
    if (env_->coded_stats != nullptr) {
      env_->coded_stats->coded_fallbacks.fetch_add(1,
                                                   std::memory_order_relaxed);
    }
  }

  /// Complete `n` expected codewords: poll the shard receives, reconstruct
  /// each codeword as soon as ANY k shards are accepted, and fall back to
  /// retransmit for codewords still short of k at the bounded deadline.
  /// Decode time folds into `dec_rec` ("parity_decode"). Never calls a
  /// blocking wait on the happy path, so erasures cost zero round trips.
  void coded_complete(exec::ExecContextT<Real>& ctx, CodedMsg* msgs,
                      std::size_t n, net::Request* rq, std::uint32_t epoch,
                      int phase, int group, exec::StageRecord* rec,
                      exec::StageRecord* dec_rec) const {
    const net::Coding c = env_->coding;
    const int subs = c.total();
    std::size_t remaining = n;
    const double tmo = ctx.comm->timeout_ms();
    const auto t0 = std::chrono::steady_clock::now();
    bool expired = false;
    while (remaining > 0 && !expired) {
      bool progress = false;
      for (std::size_t i = 0; i < n; ++i) {
        CodedMsg& m = msgs[i];
        if (m.done) continue;
        for (int sub = 0; sub < subs && !m.done; ++sub) {
          const std::uint32_t bit = 1u << sub;
          if ((m.mask & bit) != 0) continue;
          net::Request& r_ = rq[i * static_cast<std::size_t>(subs) +
                                static_cast<std::size_t>(sub)];
          if (!ctx.comm->test(r_)) continue;
          progress = true;
          if (coded_accept(m, sub, epoch)) {
            m.mask |= bit;
            if (std::popcount(m.mask) >= c.k) {
              exec::StageTimer dt(*dec_rec);
              coded_reconstruct(m);
              m.done = true;
              --remaining;
            }
          } else {
            coded_repost(ctx, m, r_, epoch, phase, group, sub);
          }
        }
      }
      if (remaining == 0) break;
      if (!progress) {
        if (tmo > 0 &&
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - t0)
                    .count() > tmo) {
          expired = true;
          break;
        }
        // Faultless worlds (tmo == 0) only reach here while shards are
        // genuinely in wire flight, so a short sleep-poll is safe.
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
    }
    if (expired) {
      for (std::size_t i = 0; i < n; ++i) {
        if (!msgs[i].done) {
          coded_fallback(ctx, msgs[i],
                         rq + i * static_cast<std::size_t>(subs), epoch,
                         phase, group, rec);
        }
      }
    }
    // Opportunistic drain: consume shards that already arrived but were
    // not needed, then drop the rest of the receives (stale-arrival GC at
    // tag reuse reclaims whatever still lands later).
    for (std::size_t i = 0; i < n; ++i) {
      for (int sub = 0; sub < subs; ++sub) {
        if ((msgs[i].mask & (1u << sub)) == 0) {
          (void)ctx.comm->test(rq[i * static_cast<std::size_t>(subs) +
                                  static_cast<std::size_t>(sub)]);
        }
      }
    }
    if (env_->coded_stats != nullptr) {
      env_->coded_stats->codewords.fetch_add(static_cast<std::uint64_t>(n),
                                             std::memory_order_relaxed);
    }
  }

  /// Flat coded post: post the k+r shard receives for every source's
  /// block of this chunk group, copy the self block, and shard + send each
  /// destination block. Replaces ialltoall(v) with point-to-point coded
  /// messages in the same block layout, so unpack is schedule-oblivious.
  void post_coded_flat(exec::ExecContextT<Real>& ctx, exec::StageRecord* rec,
                       const exec::NodeSpec& node) const {
    using C = cplx_t<Real>;
    const ChainEnvT<Real>& env = *env_;
    const auto g = static_cast<std::size_t>(node.chunk);
    const auto gi = static_cast<std::size_t>(ctx.instance) *
                        static_cast<std::size_t>(env.chunk_depth) +
                    g;
    const std::uint32_t epoch = ++epochs_[gi];
    const std::int64_t B =
        env.chunk_depth == 1 ? env.spr * env.chunks() : block_elems();
    const std::size_t pb = static_cast<std::size_t>(B) * sizeof(C);
    const std::span<C> send = ctx.arena->template span<C>(env.send);
    const std::span<C> recv = ctx.arena->template span<C>(
        WorkspaceArena::slot(env.recv, node.chunk % env.nslots()));
    const std::span<std::uint8_t> frames =
        ctx.arena->template span<std::uint8_t>(
            WorkspaceArena::slot(env.cframe, node.chunk % env.nslots()));
    const std::span<std::uint8_t> pk =
        ctx.arena->template span<std::uint8_t>(env.cpack);
    const auto ranks = static_cast<std::size_t>(env.ranks);
    const std::int64_t* sdispls =
        env.chunk_depth == 1 ? nullptr
                             : env.a2a_send_displs.data() + g * ranks;
    const auto sdispl = [&](int d) {
      return env.chunk_depth == 1 ? static_cast<std::int64_t>(d) * B
                                  : sdispls[d];
    };
    const int me = ctx.comm->rank();
    const std::size_t mpg = msgs_per_group();
    const auto subs = static_cast<std::size_t>(env.coding.total());
    CodedMsg* msgs = cstate_.data() + gi * mpg;
    net::Request* rq = creqs_.data() + gi * mpg * subs;
    const std::int64_t before = ctx.comm->bytes_sent();
    {
      exec::StageTimer st(*rec);
      std::size_t off = 0;
      std::size_t mi = 0;
      for (int src = 0; src < env.ranks; ++src) {
        if (src == me) continue;
        off = coded_post_msg(
            ctx, msgs[mi], rq + mi * subs, src,
            reinterpret_cast<std::uint8_t*>(recv.data() +
                                            static_cast<std::int64_t>(src) *
                                                B),
            pb, frames, off, epoch, 0, node.chunk);
        ++mi;
      }
      std::copy_n(send.data() + sdispl(me), B,
                  recv.data() + static_cast<std::int64_t>(me) * B);
      for (int dst = 0; dst < env.ranks; ++dst) {
        if (dst == me) continue;
        coded_send(ctx,
                   reinterpret_cast<const std::uint8_t*>(send.data() +
                                                         sdispl(dst)),
                   pb, dst, epoch, 0, node.chunk, pk, rec + 1);
      }
    }
    rec->bytes_moved += ctx.comm->bytes_sent() - before;
  }

  /// Flat coded wait: complete the group's ranks-1 codewords.
  void wait_coded_flat(exec::ExecContextT<Real>& ctx, exec::StageRecord* rec,
                       const exec::NodeSpec& node) const {
    const ChainEnvT<Real>& env = *env_;
    const auto gi = static_cast<std::size_t>(ctx.instance) *
                        static_cast<std::size_t>(env.chunk_depth) +
                    static_cast<std::size_t>(node.chunk);
    const std::size_t mpg = msgs_per_group();
    const auto subs = static_cast<std::size_t>(env.coding.total());
    exec::WaitTimer wt(*rec);
    coded_complete(ctx, cstate_.data() + gi * mpg,
                   static_cast<std::size_t>(env.ranks - 1),
                   creqs_.data() + gi * mpg * subs, epochs_[gi], 0,
                   node.chunk, rec, rec + 2);
  }

  /// Staged post node: pack + fire phase 0 of the store-and-forward
  /// schedule. Fuses this group's blocks for each first-hop peer out of
  /// the send buffer (phase-0 gather indices ARE destination ranks, so
  /// they map through the group's send displacements), posts the phase-0
  /// receives into the slot's first holdings half, and copies the kept
  /// blocks across. SimMPI sends are buffered-complete at post, so the
  /// pack region is reusable as soon as isend_bytes returns.
  void post_staged(exec::ExecContextT<Real>& ctx, exec::StageRecord* rec,
                   const exec::NodeSpec& node) const {
    using C = cplx_t<Real>;
    const ChainEnvT<Real>& env = *env_;
    const net::StagedPlan& plan = env.staged;
    const auto g = static_cast<std::size_t>(node.chunk);
    const std::int64_t B = block_elems();
    const std::int64_t RB = static_cast<std::int64_t>(plan.ranks) * B;
    const std::span<C> send = ctx.arena->template span<C>(env.send);
    const std::span<C> stg = ctx.arena->template span<C>(
        WorkspaceArena::slot(env.stg, node.chunk % env.nslots()));
    C* pack = stg.data();
    C* hold = stg.data() + RB;  // first ping-pong half: phase-0 holdings
    const auto ranks = static_cast<std::size_t>(env.ranks);
    const std::int64_t* displs = env.a2a_send_displs.data() + g * ranks;
    const net::StagedPlan::Phase& ph0 = plan.phases.front();
    const int tag = staged_tag(0, ctx.channel);
    net::Request* rq =
        sreqs_.data() +
        (static_cast<std::size_t>(ctx.instance) *
             static_cast<std::size_t>(env.chunk_depth) +
         g) *
            static_cast<std::size_t>(plan.max_peers);
    const bool coded = env.coded_exchange();
    const auto gi = static_cast<std::size_t>(ctx.instance) *
                        static_cast<std::size_t>(env.chunk_depth) +
                    g;
    const auto subs = static_cast<std::size_t>(env.coding.total());
    std::uint32_t epoch = 0;
    CodedMsg* cmsgs = nullptr;
    net::Request* crq = nullptr;
    std::span<std::uint8_t> frames, cpk;
    if (coded) {
      epoch = ++epochs_[gi];
      const std::size_t mpg = msgs_per_group();
      cmsgs = cstate_.data() + gi * mpg;
      crq = creqs_.data() + gi * mpg * subs;
      frames = ctx.arena->template span<std::uint8_t>(
          WorkspaceArena::slot(env.cframe, node.chunk % env.nslots()));
      cpk = ctx.arena->template span<std::uint8_t>(env.cpack);
    }
    const std::int64_t before = ctx.comm->bytes_sent();
    {
      exec::StageTimer st(*rec);
      std::size_t ri = 0;
      std::size_t coff = 0;
      for (const net::StagedPlan::Recv& rv : ph0.recvs) {
        std::uint8_t* dst = reinterpret_cast<std::uint8_t*>(
            hold + static_cast<std::int64_t>(rv.first_slot) * B);
        const std::size_t rb = static_cast<std::size_t>(rv.nblocks) *
                               static_cast<std::size_t>(B) * sizeof(C);
        if (coded) {
          coff = coded_post_msg(ctx, cmsgs[ri], crq + subs * ri, rv.peer,
                                dst, rb, frames, coff, epoch, 0, node.chunk);
          ++ri;
        } else {
          rq[ri++] = ctx.comm->irecv_bytes(rv.peer, tag, dst, rb);
        }
      }
      std::int64_t off = 0;
      for (const net::StagedPlan::Send& sd : ph0.sends) {
        C* msg = pack + off;
        for (const int d : sd.gather) {
          std::copy_n(send.data() + displs[d], B, pack + off);
          off += B;
        }
        const std::size_t mb = sd.gather.size() *
                               static_cast<std::size_t>(B) * sizeof(C);
        if (coded) {
          coded_send(ctx, reinterpret_cast<const std::uint8_t*>(msg), mb,
                     sd.peer, epoch, 0, node.chunk, cpk, rec + 1);
        } else {
          ctx.comm->isend_bytes(sd.peer, tag, msg, mb);
        }
      }
      for (const net::StagedPlan::Keep& kp : ph0.keeps) {
        std::copy_n(send.data() + displs[kp.from], B,
                    hold + static_cast<std::int64_t>(kp.to) * B);
      }
    }
    rec->bytes_moved += ctx.comm->bytes_sent() - before;
  }

  /// Staged wait node: complete phase 0, run the remaining forwarding
  /// phases inline (gather from the previous holdings, isend, irecv into
  /// the other ping-pong half, copy keeps, wait), then scatter the final
  /// holdings into source-rank order in the recv slot — the exact layout
  /// the flat ialltoallv produces, so unpack and everything downstream is
  /// schedule-oblivious and the output stays bit-identical.
  void wait_staged(exec::ExecContextT<Real>& ctx, exec::StageRecord* rec,
                   const exec::NodeSpec& node) const {
    using C = cplx_t<Real>;
    const ChainEnvT<Real>& env = *env_;
    const net::StagedPlan& plan = env.staged;
    const auto g = static_cast<std::size_t>(node.chunk);
    const std::int64_t B = block_elems();
    const std::int64_t RB = static_cast<std::int64_t>(plan.ranks) * B;
    const int slot = node.chunk % env.nslots();
    const std::span<C> stg =
        ctx.arena->template span<C>(WorkspaceArena::slot(env.stg, slot));
    C* pack = stg.data();
    C* prev = stg.data() + RB;      // phase-0 receives landed here
    C* cur = stg.data() + 2 * RB;   // next phase's holdings
    net::Request* rq =
        sreqs_.data() +
        (static_cast<std::size_t>(ctx.instance) *
             static_cast<std::size_t>(env.chunk_depth) +
         g) *
            static_cast<std::size_t>(plan.max_peers);
    const bool coded = env.coded_exchange();
    const auto gi = static_cast<std::size_t>(ctx.instance) *
                        static_cast<std::size_t>(env.chunk_depth) +
                    g;
    const auto subs = static_cast<std::size_t>(env.coding.total());
    const std::size_t mpg = coded ? msgs_per_group() : 0;
    const std::uint32_t epoch = coded ? epochs_[gi] : 0;
    CodedMsg* cwmsgs = nullptr;
    net::Request* cwrq = nullptr;
    std::span<std::uint8_t> frames, cpk;
    if (coded) {
      cwmsgs = cwstate_.data() +
               static_cast<std::size_t>(ctx.instance) * mpg;
      cwrq = cwreqs_.data() +
             static_cast<std::size_t>(ctx.instance) * mpg * subs;
      frames = ctx.arena->template span<std::uint8_t>(
          WorkspaceArena::slot(env.cframe, slot));
      cpk = ctx.arena->template span<std::uint8_t>(env.cpack);
    }
    {
      exec::WaitTimer wt(*rec);
      if (coded) {
        coded_complete(ctx, cstate_.data() + gi * mpg,
                       plan.phases.front().recvs.size(),
                       creqs_.data() + gi * mpg * subs, epoch, 0, node.chunk,
                       rec, rec + 2);
      } else {
        for (std::size_t i = 0; i < plan.phases.front().recvs.size(); ++i) {
          rec->retries += ctx.comm->wait(rq[i]);
        }
      }
    }
    const std::int64_t before = ctx.comm->bytes_sent();
    net::Request* wq = wreqs_.data() +
                       static_cast<std::size_t>(ctx.instance) *
                           static_cast<std::size_t>(plan.max_peers);
    for (std::size_t p = 1; p < plan.phases.size(); ++p) {
      const net::StagedPlan::Phase& ph = plan.phases[p];
      const int tag = staged_tag(static_cast<int>(p), ctx.channel);
      std::size_t nr = 0;
      {
        exec::StageTimer st(*rec);
        std::size_t coff = 0;
        for (const net::StagedPlan::Recv& rv : ph.recvs) {
          std::uint8_t* dst = reinterpret_cast<std::uint8_t*>(
              cur + static_cast<std::int64_t>(rv.first_slot) * B);
          const std::size_t rb = static_cast<std::size_t>(rv.nblocks) *
                                 static_cast<std::size_t>(B) * sizeof(C);
          if (coded) {
            coff = coded_post_msg(ctx, cwmsgs[nr], cwrq + subs * nr,
                                  rv.peer, dst, rb, frames, coff, epoch,
                                  static_cast<int>(p), node.chunk);
            ++nr;
          } else {
            wq[nr++] = ctx.comm->irecv_bytes(rv.peer, tag, dst, rb);
          }
        }
        std::int64_t off = 0;
        for (const net::StagedPlan::Send& sd : ph.sends) {
          C* msg = pack + off;
          for (const int from : sd.gather) {
            std::copy_n(prev + static_cast<std::int64_t>(from) * B, B,
                        pack + off);
            off += B;
          }
          const std::size_t mb = sd.gather.size() *
                                 static_cast<std::size_t>(B) * sizeof(C);
          if (coded) {
            coded_send(ctx, reinterpret_cast<const std::uint8_t*>(msg), mb,
                       sd.peer, epoch, static_cast<int>(p), node.chunk, cpk,
                       rec + 1);
          } else {
            ctx.comm->isend_bytes(sd.peer, tag, msg, mb);
          }
        }
        for (const net::StagedPlan::Keep& kp : ph.keeps) {
          std::copy_n(prev + static_cast<std::int64_t>(kp.from) * B, B,
                      cur + static_cast<std::int64_t>(kp.to) * B);
        }
      }
      {
        exec::WaitTimer wt(*rec);
        if (coded) {
          coded_complete(ctx, cwmsgs, nr, cwrq, epoch, static_cast<int>(p),
                         node.chunk, rec, rec + 2);
        } else {
          for (std::size_t i = 0; i < nr; ++i) {
            rec->retries += ctx.comm->wait(wq[i]);
          }
        }
      }
      std::swap(prev, cur);
    }
    rec->bytes_moved += ctx.comm->bytes_sent() - before;
    const std::span<C> recv = ctx.arena->template span<C>(
        WorkspaceArena::slot(env.recv, slot));
    exec::StageTimer st(*rec);
    for (int s = 0; s < plan.ranks; ++s) {
      std::copy_n(prev + static_cast<std::int64_t>(s) * B, B,
                  recv.data() +
                      static_cast<std::int64_t>(plan.final_src[
                          static_cast<std::size_t>(s)]) *
                          B);
    }
  }

  const ChainEnvT<Real>* env_;
  // One in-flight request per (execution instance, chunk group), laid out
  // instance-major; reassigned every run (requests are passive value
  // types, so steady-state reuse allocates nothing).
  mutable std::vector<net::Request> reqs_;
  // Staged schedules only: phase-0 receive requests, laid out
  // [instance][chunk group][peer], plus the in-wait forwarding-phase
  // requests [instance][peer] (later phases run inline inside the wait
  // node, so one group per instance uses them at a time).
  mutable std::vector<net::Request> sreqs_, wreqs_;
  // Coded exchange only: per-(instance, group) expected codewords with
  // their shard receive requests ([instance][group][message][sub]), the
  // staged forwarding phases' equivalents ([instance][message][sub] — one
  // group per instance forwards at a time), and the per-(instance, group)
  // exchange epoch counters that keep shard tags from colliding across
  // calls (stale arrivals are recognised by header and reposted over).
  mutable std::vector<CodedMsg> cstate_, cwstate_;
  mutable std::vector<net::Request> creqs_, cwreqs_;
  mutable std::vector<std::uint32_t> epochs_;
  std::optional<net::ErasureCode> codec_;
};

/// Stage "unpack": assemble the received per-source blocks into segment
/// order, one chunk group (gseg segments, buffer slot chunk mod 2) at a
/// time. Source rank s computed the global chunks [s*chunks, (s+1)*chunks);
/// its group-g block is laid out [sl][chunk], so segment sl's M' values
/// are gathered as xt[sl*M' + s*chunks + j] = recv[(s*gseg + sl)*chunks + j].
template <class Real>
class UnpackStageT final : public exec::StageT<Real> {
 public:
  explicit UnpackStageT(const ChainEnvT<Real>* env) : env_(env) {}

  void plan_records(std::vector<exec::StageRecord>& out) const override {
    exec::StageRecord r;
    r.name = "unpack";
    r.bytes_moved = env_->has_comm
                        ? 2 * cbytes<Real>(env_->spr * env_->geom->mprime())
                        : 0;
    r.chunks = (env_->has_comm && env_->ranks > 1) ? env_->chunk_depth : 1;
    out.push_back(std::move(r));
  }

  void run(exec::ExecContextT<Real>& ctx,
           exec::StageRecord* rec) const override {
    (void)ctx;
    (void)rec;
    // Null-comm auto node: nothing to assemble.
  }

  void run_node(exec::ExecContextT<Real>& ctx, exec::StageRecord* rec,
                const exec::NodeSpec& node) const override {
    using C = cplx_t<Real>;
    const ChainEnvT<Real>& env = *env_;
    const std::int64_t chunks = env.chunks();
    const std::int64_t gseg = env.gseg();
    const std::int64_t mprime = env.geom->mprime();
    const int slot = node.chunk % env.nslots();
    const std::span<C> recv =
        ctx.arena->template span<C>(WorkspaceArena::slot(env.recv, slot));
    const std::span<C> xt =
        ctx.arena->template span<C>(WorkspaceArena::slot(env.xt, slot));
    exec::StageTimer st(*rec);
    for (std::int64_t sl = 0; sl < gseg; ++sl) {
      C* seg = xt.data() + sl * mprime;
      for (int s = 0; s < env.ranks; ++s) {
        const C* blk = recv.data() + (s * gseg + sl) * chunks;
        std::copy_n(blk, chunks, seg + s * chunks);
      }
    }
  }

 private:
  const ChainEnvT<Real>* env_;
};

/// Stage "f_mprime": I (x) F_M' over the assembled local segments — the
/// whole rank under a null comm, one chunk group per node when remote.
template <class Real>
class FmStageT final : public exec::StageT<Real> {
 public:
  explicit FmStageT(const ChainEnvT<Real>* env) : env_(env) {}

  void plan_records(std::vector<exec::StageRecord>& out) const override {
    const std::int64_t mprime = env_->geom->mprime();
    exec::StageRecord r;
    r.name = "f_mprime";
    r.bytes_moved = 2 * cbytes<Real>(env_->spr * mprime);
    r.flops = fft_flops(env_->spr, mprime);
    r.chunks = (env_->has_comm && env_->ranks > 1) ? env_->chunk_depth : 1;
    out.push_back(std::move(r));
  }

  void run(exec::ExecContextT<Real>& ctx,
           exec::StageRecord* rec) const override {
    using C = cplx_t<Real>;
    const ChainEnvT<Real>& env = *env_;
    const std::size_t count =
        static_cast<std::size_t>(env.spr * env.geom->mprime());
    const std::span<C> xt = ctx.arena->template span<C>(env.xt);
    const std::span<C> uf = ctx.arena->template span<C>(env.uf);
    exec::StageTimer st(*rec);
    env.batch_mp->forward(cspan_t<Real>{xt.data(), count},
                          mspan_t<Real>{uf.data(), count}, env.spr);
  }

  void run_node(exec::ExecContextT<Real>& ctx, exec::StageRecord* rec,
                const exec::NodeSpec& node) const override {
    using C = cplx_t<Real>;
    const ChainEnvT<Real>& env = *env_;
    const std::int64_t gseg = env.gseg();
    const std::size_t count =
        static_cast<std::size_t>(gseg * env.geom->mprime());
    const int slot = node.chunk % env.nslots();
    const std::span<C> xt =
        ctx.arena->template span<C>(WorkspaceArena::slot(env.xt, slot));
    const std::span<C> uf =
        ctx.arena->template span<C>(WorkspaceArena::slot(env.uf, slot));
    exec::StageTimer st(*rec);
    env.batch_mp->forward(cspan_t<Real>{xt.data(), count},
                          mspan_t<Real>{uf.data(), count}, gseg);
  }

 private:
  const ChainEnvT<Real>* env_;
};

/// Stage "demod": demodulate + project each segment's first M bins (per
/// chunk group when remote; group g covers segments [g*gseg, (g+1)*gseg)).
template <class Real>
class DemodStageT final : public exec::StageT<Real> {
 public:
  explicit DemodStageT(const ChainEnvT<Real>* env) : env_(env) {}

  void plan_records(std::vector<exec::StageRecord>& out) const override {
    const std::int64_t m = env_->geom->m();
    exec::StageRecord r;
    r.name = "demod";
    r.bytes_moved = cbytes<Real>(2 * env_->spr * m + m);
    r.flops = 6 * env_->spr * m;
    r.chunks = (env_->has_comm && env_->ranks > 1) ? env_->chunk_depth : 1;
    out.push_back(std::move(r));
  }

  void run(exec::ExecContextT<Real>& ctx,
           exec::StageRecord* rec) const override {
    using C = cplx_t<Real>;
    const ChainEnvT<Real>& env = *env_;
    const std::int64_t m = env.geom->m();
    const std::int64_t mprime = env.geom->mprime();
    const std::span<C> uf = ctx.arena->template span<C>(env.uf);
    const mspan_t<Real> y =
        env.dst.valid() ? mspan_t<Real>(ctx.arena->template span<C>(env.dst))
                        : ctx.out;
    exec::StageTimer st(*rec);
    demodulate(*env.table, uf.data(), mprime, y.data(), m, env.spr);
  }

  void run_node(exec::ExecContextT<Real>& ctx, exec::StageRecord* rec,
                const exec::NodeSpec& node) const override {
    using C = cplx_t<Real>;
    const ChainEnvT<Real>& env = *env_;
    const std::int64_t m = env.geom->m();
    const std::int64_t mprime = env.geom->mprime();
    const std::int64_t gseg = env.gseg();
    const int slot = node.chunk % env.nslots();
    const std::span<C> uf =
        ctx.arena->template span<C>(WorkspaceArena::slot(env.uf, slot));
    const mspan_t<Real> y =
        env.dst.valid() ? mspan_t<Real>(ctx.arena->template span<C>(env.dst))
                        : ctx.out;
    exec::StageTimer st(*rec);
    demodulate(*env.table, uf.data(), mprime, y.data() + node.chunk * gseg * m,
               m, gseg);
  }

 private:
  const ChainEnvT<Real>* env_;
};

/// "r2c_pack": z[j] = in[2j] + i*in[2j+1] from ctx.real_in.
class R2cPackStage final : public exec::StageT<double> {
 public:
  R2cPackStage(WorkspaceArena::BufferId z, std::int64_t h) : z_(z), h_(h) {}

  void plan_records(std::vector<exec::StageRecord>& out) const override {
    exec::StageRecord r;
    r.name = "r2c_pack";
    r.bytes_moved = cbytes<double>(2 * h_);
    out.push_back(std::move(r));
  }

  void run(exec::ExecContextT<double>& ctx,
           exec::StageRecord* rec) const override {
    const std::span<cplx> z = ctx.arena->span<cplx>(z_);
    const std::span<const double> in = ctx.real_in;
    exec::StageTimer st(*rec);
    for (std::int64_t j = 0; j < h_; ++j) {
      z[static_cast<std::size_t>(j)] = {in[static_cast<std::size_t>(2 * j)],
                                        in[static_cast<std::size_t>(2 * j + 1)]};
    }
  }

 private:
  WorkspaceArena::BufferId z_;
  std::int64_t h_;
};

/// "r2c_untangle": split the half-length spectrum zf into the h+1 bins of
/// the real signal's DFT (even/odd untangling with the twiddle table).
class R2cUntangleStage final : public exec::StageT<double> {
 public:
  R2cUntangleStage(WorkspaceArena::BufferId zf, const cvec* twiddle,
                   std::int64_t h)
      : zf_(zf), twiddle_(twiddle), h_(h) {}

  void plan_records(std::vector<exec::StageRecord>& out) const override {
    exec::StageRecord r;
    r.name = "r2c_untangle";
    r.bytes_moved = cbytes<double>(2 * h_);
    r.flops = 14 * h_;
    out.push_back(std::move(r));
  }

  void run(exec::ExecContextT<double>& ctx,
           exec::StageRecord* rec) const override {
    const std::span<const cplx> zf = ctx.arena->span<cplx>(zf_);
    const cvec& tw = *twiddle_;
    exec::StageTimer st(*rec);
    for (std::int64_t k = 0; k <= h_; ++k) {
      const std::int64_t km = k % h_;
      const std::int64_t kc = (h_ - k) % h_;
      const cplx zk = zf[static_cast<std::size_t>(km)];
      const cplx zc = std::conj(zf[static_cast<std::size_t>(kc)]);
      const cplx even = 0.5 * (zk + zc);
      const cplx odd = cplx{0.0, -0.5} * (zk - zc);
      const cplx t =
          (k == h_) ? cplx{-1.0, 0.0} : tw[static_cast<std::size_t>(k)];
      ctx.out[static_cast<std::size_t>(k)] = even + t * odd;
    }
  }

 private:
  WorkspaceArena::BufferId zf_;
  const cvec* twiddle_;
  std::int64_t h_;
};

}  // namespace

template <class Real>
void reserve_chain_buffers(WorkspaceArena& arena, ChainEnvT<Real>& env,
                           int base) {
  if constexpr (!std::is_same_v<Real, double>) {
    SOI_CHECK(!env.has_comm,
              "SOI pipeline: communicator paths are double-only");
  }
  SOI_CHECK(env.chunk_depth >= 1 && env.spr % env.chunk_depth == 0,
            "SOI pipeline: chunk_depth " << env.chunk_depth
                                         << " must divide spr " << env.spr);
  const SoiGeometry& g = *env.geom;
  const auto cb = [](std::int64_t count) {
    return static_cast<std::size_t>(cbytes<Real>(count));
  };
  const std::int64_t chunks = env.chunks();
  const std::int64_t seg_total = env.spr * g.mprime();  // == chunks * P
  env.ext = arena.reserve("ext", cb(env.m_rank() + g.halo()), base, base);
  if (env.has_comm && env.ranks > 1) {
    env.halo = arena.reserve("halo", cb(g.halo()), base, base);
  }
  env.v = arena.reserve("v", cb(chunks * g.p()), base, base + 1);
  if (env.has_comm && (env.chunk_depth > 1 || env.staged_exchange())) {
    // Chunked exchange: the pipelined schedule interleaves positions
    // base+2..base+5, so every buffer those nodes touch must be live over
    // the whole span (no aliasing between the chain's own stages), and
    // recv/x-tilde/uf become nslots() group-sized slots each. A staged
    // topology schedule additionally gets a per-slot scratch holding the
    // fused-message pack region plus the ping-pong holdings halves.
    const std::int64_t gtotal = env.gseg() * g.mprime();
    const int ns = env.nslots();
    env.send = arena.reserve("send", cb(chunks * g.p()), base + 1, base + 5);
    env.recv = arena.reserve_slots("recv", cb(gtotal), ns, base + 2, base + 5);
    env.xt = arena.reserve_slots("xt", cb(gtotal), ns, base + 2, base + 5);
    env.uf = arena.reserve_slots("uf", cb(gtotal), ns, base + 2, base + 5);
    if (env.staged_exchange()) {
      SOI_CHECK(env.topo.ranks() == env.ranks,
                "SOI pipeline: topology built for " << env.topo.ranks()
                                                    << " ranks, communicator has "
                                                    << env.ranks);
      env.stg =
          arena.reserve_slots("stg", cb(3 * gtotal), ns, base + 2, base + 5);
    }
    if (env.coded_exchange()) {
      // Frame scratch per slot: the worst case over (a) flat — ranks-1
      // codewords of one block each, (b) staged — max_peers codewords
      // whose payloads sum to at most the whole slot. Sum of per-shard
      // sizes is bounded by total/k + nmsg (one ceil per message), each
      // frame adds a <= 24-byte aligned header, plus r decode shards per
      // message. The send pack needs r parity shards + 1 pad shard + 1
      // frame of the largest single message.
      const int k = env.coding.k;
      const int r = env.coding.r;
      const int subs = env.coding.total();
      const std::size_t total = cb(static_cast<std::int64_t>(env.ranks) *
                                   env.gseg() * chunks);
      const std::size_t nmsg =
          env.staged_exchange()
              ? static_cast<std::size_t>(env.staged.max_peers)
              : static_cast<std::size_t>(env.ranks - 1);
      const std::size_t max_msg =
          env.staged_exchange() ? total : cb(env.gseg() * chunks);
      const std::size_t sb_sum =
          total / static_cast<std::size_t>(k) + nmsg + 1;
      const std::size_t slot_bytes =
          static_cast<std::size_t>(subs) * (sb_sum + 24 * nmsg) +
          static_cast<std::size_t>(r) * sb_sum + 64;
      const std::size_t sb_max = net::coded_shard_bytes(max_msg, k);
      const std::size_t pack_bytes =
          static_cast<std::size_t>(r + 2) * sb_max + 32;
      env.cframe =
          arena.reserve_slots("cframe", slot_bytes, ns, base + 2, base + 5);
      env.cpack = arena.reserve("cpack", pack_bytes, base + 2, base + 5);
    }

    // ialltoallv layout: destination d's block for group g starts at
    // segment d*spr + g*gseg of the [sigma][chunk] send buffer; source s's
    // block lands slot-relative at s*gseg*chunks.
    const auto ranks = static_cast<std::size_t>(env.ranks);
    const auto depth = static_cast<std::size_t>(env.chunk_depth);
    env.a2a_counts.assign(ranks, env.gseg() * chunks);
    env.a2a_send_displs.resize(depth * ranks);
    env.a2a_recv_displs.resize(ranks);
    for (std::size_t gi = 0; gi < depth; ++gi) {
      for (std::size_t d = 0; d < ranks; ++d) {
        env.a2a_send_displs[gi * ranks + d] =
            (static_cast<std::int64_t>(d) * env.spr +
             static_cast<std::int64_t>(gi) * env.gseg()) *
            chunks;
      }
    }
    for (std::size_t s = 0; s < ranks; ++s) {
      env.a2a_recv_displs[s] =
          static_cast<std::int64_t>(s) * env.gseg() * chunks;
    }
  } else if (env.has_comm) {
    env.send = arena.reserve("send", cb(chunks * g.p()), base + 1, base + 2);
    env.recv = arena.reserve("recv", cb(seg_total), base + 2, base + 3);
    env.xt = arena.reserve("xt", cb(seg_total), base + 3, base + 4);
    env.uf = arena.reserve("uf", cb(seg_total), base + 4, base + 5);
    if (env.coded_exchange()) {
      const int k = env.coding.k;
      const int r = env.coding.r;
      const int subs = env.coding.total();
      const std::size_t block = cb(env.spr * chunks);
      const auto nmsg = static_cast<std::size_t>(env.ranks - 1);
      const std::size_t sb_sum =
          block * nmsg / static_cast<std::size_t>(k) + nmsg + 1;
      const std::size_t slot_bytes =
          static_cast<std::size_t>(subs) * (sb_sum + 24 * nmsg) +
          static_cast<std::size_t>(r) * sb_sum + 64;
      const std::size_t pack_bytes =
          static_cast<std::size_t>(r + 2) * net::coded_shard_bytes(block, k) +
          32;
      env.cframe = arena.reserve("cframe", slot_bytes, base + 2, base + 2);
      env.cpack = arena.reserve("cpack", pack_bytes, base + 2, base + 2);
    }
  } else {
    // F_P stores straight into x-tilde; no exchange staging needed.
    env.xt = arena.reserve("xt", cb(seg_total), base + 1, base + 4);
    env.uf = arena.reserve("uf", cb(seg_total), base + 4, base + 5);
  }
}

template <class Real>
void append_chain_stages(exec::PipelineT<Real>& pl,
                         const ChainEnvT<Real>& env) {
  using exec::NodeSpec;
  using exec::StageClass;
  const int s_halo = pl.next_index();
  pl.add(std::make_unique<HaloConvStageT<Real>>(&env));
  pl.add(std::make_unique<FpStageT<Real>>(&env));
  const int s_exch = s_halo + 2;
  pl.add(std::make_unique<ExchangeStageT<Real>>(&env));
  pl.add(std::make_unique<UnpackStageT<Real>>(&env));
  pl.add(std::make_unique<FmStageT<Real>>(&env));
  pl.add(std::make_unique<DemodStageT<Real>>(&env));

  const auto node = [&pl](int stage, int chunk, int phase, StageClass cls,
                          int seq_key, int ovl_key, int many_phase = 1) {
    NodeSpec n;
    n.stage = stage;
    n.chunk = chunk;
    n.phase = phase;
    n.cls = cls;
    n.seq_key = seq_key;
    n.ovl_key = ovl_key;
    n.many_phase = many_phase;
    return pl.add_node(n);
  };

  const bool remote = env.has_comm && env.ranks > 1;
  if (!remote) {
    // Serial wrap: stage the input + fill the wrap halo, then one whole-
    // rank convolution. Everything downstream stays an atomic auto node.
    const int hpost = node(s_halo, 0, kPhasePost, StageClass::kCompute, 0, 0);
    const int conv = node(s_halo, 0, kPhaseWork, StageClass::kCompute, 1, 1);
    pl.add_edge(hpost, conv);
    return;
  }

  // Halo + split convolution. In-order keys run wait before the safe
  // groups (the classic blocking order); pipelined keys convolve the safe
  // groups while the halo travels.
  const int hpost =
      node(s_halo, 0, kPhasePost, StageClass::kCommPost, 0, 0, 0);
  const int hwait = node(s_halo, 0, kPhaseWait, StageClass::kCommWait, 1, 2);
  const int csafe = node(s_halo, 0, kPhaseWork, StageClass::kCompute, 2, 1);
  const int ctail = node(s_halo, 1, kPhaseWork, StageClass::kCompute, 3, 3);
  pl.add_edge(hpost, hwait);
  pl.add_edge(hpost, csafe);
  pl.add_edge(hpost, ctail);
  pl.add_edge(hwait, ctail);

  // Per-chunk-group exchange..demod. seq keys are chunk-major (the
  // in-order executor); ovl keys realise the software pipeline
  //   post(0), post(1), wait(0), unpack(0), fm(0), demod(0), post(2), ...
  // f_p (no declared nodes) is an auto barrier between conv and the posts.
  const int depth = static_cast<int>(env.chunk_depth);
  const int ns = env.nslots();
  std::vector<int> post(static_cast<std::size_t>(depth));
  std::vector<int> wait(static_cast<std::size_t>(depth));
  std::vector<int> unp(static_cast<std::size_t>(depth));
  std::vector<int> fm(static_cast<std::size_t>(depth));
  std::vector<int> dem(static_cast<std::size_t>(depth));
  std::vector<int> post_ovl(static_cast<std::size_t>(depth));
  // Pipelined key layout: a prologue posts the first nslots() groups (the
  // pipeline keeps up to nslots() exchanges in flight), then each group's
  // wait..demod runs with group g+ns's post interleaved after it — at
  // ns == 2 this reduces to post(0), post(1), wait(0), ..., post(2), ...
  int ko = 200;
  for (int g = 0; g < std::min(ns, depth); ++g) {
    post_ovl[static_cast<std::size_t>(g)] = ko++;
  }
  std::vector<std::array<int, 4>> rest_ovl(static_cast<std::size_t>(depth));
  for (int g = 0; g < depth; ++g) {
    for (int i = 0; i < 4; ++i) rest_ovl[static_cast<std::size_t>(g)][static_cast<std::size_t>(i)] = ko++;
    if (g + ns < depth) post_ovl[static_cast<std::size_t>(g + ns)] = ko++;
  }
  for (int g = 0; g < depth; ++g) {
    const auto gi = static_cast<std::size_t>(g);
    const int ks = 100 + 5 * g;
    post[gi] = node(s_exch, g, kPhasePost, StageClass::kCommPost, ks,
                    post_ovl[gi], 0);
    wait[gi] = node(s_exch, g, kPhaseWait, StageClass::kCommWait, ks + 1,
                    rest_ovl[gi][0], 2);
    unp[gi] = node(s_exch + 1, g, kPhaseWork, StageClass::kCompute, ks + 2,
                   rest_ovl[gi][1], 2);
    fm[gi] = node(s_exch + 2, g, kPhaseWork, StageClass::kCompute, ks + 3,
                  rest_ovl[gi][2], 2);
    dem[gi] = node(s_exch + 3, g, kPhaseWork, StageClass::kCompute, ks + 4,
                   rest_ovl[gi][3], 2);
    pl.add_edge(post[gi], wait[gi]);
    pl.add_edge(wait[gi], unp[gi]);
    pl.add_edge(unp[gi], fm[gi]);
    pl.add_edge(fm[gi], dem[gi]);
    // Slot-cycle write-after-read edges: group g+ns reuses group g's
    // slots, so its writers wait for g's readers. (The unp[g-ns] ->
    // post[g] edge also orders post[g] after wait[g-ns] transitively,
    // which guards the staged schedule's stg scratch reuse.)
    if (g >= ns) {
      const auto gp = static_cast<std::size_t>(g - ns);
      pl.add_edge(unp[gp], post[gi]);  // recv + stg slots
      pl.add_edge(fm[gp], unp[gi]);    // xt slot
      pl.add_edge(dem[gp], fm[gi]);    // uf slot
    }
  }
}

std::unique_ptr<exec::StageT<double>> make_r2c_pack_stage(
    WorkspaceArena::BufferId z, std::int64_t h) {
  return std::make_unique<R2cPackStage>(z, h);
}

std::unique_ptr<exec::StageT<double>> make_r2c_untangle_stage(
    WorkspaceArena::BufferId zf, const cvec* twiddle, std::int64_t h) {
  return std::make_unique<R2cUntangleStage>(zf, twiddle, h);
}

SoiStageBreakdown SoiStageBreakdown::from_trace(const exec::TraceLog& trace) {
  SoiStageBreakdown bd;
  for (const auto& r : trace.records()) {
    if (r.name == "halo") {
      bd.halo += r.seconds;
      bd.halo_bytes += r.bytes_moved;
    } else if (r.name == "conv") {
      bd.conv += r.seconds;
    } else if (r.name == "f_p") {
      bd.fp += r.seconds;
    } else if (r.name == "exchange") {
      bd.alltoall += r.seconds;
      bd.alltoall_bytes += r.bytes_moved;
    } else if (r.name == "unpack") {
      bd.pack += r.seconds;
    } else if (r.name == "f_mprime") {
      bd.fm += r.seconds;
    } else if (r.name == "demod") {
      bd.demod += r.seconds;
    }
  }
  return bd;
}

template void reserve_chain_buffers<double>(WorkspaceArena&,
                                            ChainEnvT<double>&, int);
template void reserve_chain_buffers<float>(WorkspaceArena&, ChainEnvT<float>&,
                                           int);
template void append_chain_stages<double>(exec::PipelineT<double>&,
                                          const ChainEnvT<double>&);
template void append_chain_stages<float>(exec::PipelineT<float>&,
                                         const ChainEnvT<float>&);

}  // namespace soi::core
