// The shared SOI stage chain (Eq. 6), expressed once for every execution
// path: serial (null comm), distributed (any net::Transport) and the
// real-input wrapper all append THESE stages to their pipelines — the
// conv, F_P + permute, exchange, F_M' and demod bodies exist exactly once,
// in stages.cpp.
//
// Chain layout (pipeline positions relative to `base`):
//   base+0  halo+conv   emits records "halo", "conv"
//   base+1  f_p         batched I (x) F_P, stride-P permutation fused
//   base+2  exchange    the single all-to-all (no-op under a null comm)
//   base+3  unpack      post-exchange segment assembly (no-op, null comm)
//   base+4  f_mprime    batched I (x) F_M'
//   base+5  demod       demodulate + project
// Under a null comm the F_P stage stores straight into the x-tilde buffer
// (the exchange would be the identity), so serial pays no extra copies.
//
// Distributed chains are chunk-granular dataflow graphs: the halo travels
// as isend/irecv with the convolution split into halo-independent "safe"
// groups and a tail that waits, and the exchange..demod stages are cut
// into `chunk_depth` segment groups, each moved by its own nonblocking
// ialltoallv into one of two group-sized buffer slots. Under the
// pipelined schedule (ExecContext::overlap) group g+1's exchange is in
// flight while group g's f_mprime/demod computes; the in-order schedule
// runs the same nodes chunk-major. Both are topological orders of the
// same edges, so outputs are bit-identical.
#pragma once

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "common/arena.hpp"
#include "fft/engine.hpp"
#include "net/erasure.hpp"
#include "net/topology.hpp"
#include "net/transport.hpp"
#include "soi/conv_table.hpp"
#include "soi/exec.hpp"
#include "soi/params.hpp"

namespace soi::core {

/// Index of the first NaN/Inf sample in `x`, or -1 when every value is
/// finite — the input-validation pre-scan of the forward entry points.
template <class Real>
[[nodiscard]] inline std::int64_t first_nonfinite(
    std::span<const std::complex<Real>> x) {
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (!std::isfinite(x[i].real()) || !std::isfinite(x[i].imag())) {
      return static_cast<std::int64_t>(i);
    }
  }
  return -1;
}

/// Plan-time environment of one chain instance on one rank. The plan
/// object owns this (and the pointed-to geometry/table/FFT plans) for the
/// pipeline's lifetime; stages hold a pointer to it.
template <class Real>
struct ChainEnvT {
  const SoiGeometry* geom = nullptr;
  const ConvTableT<Real>* table = nullptr;
  const fft::BatchTransformT<Real>* batch_p = nullptr;
  const fft::BatchTransformT<Real>* batch_mp = nullptr;
  int ranks = 1;          ///< communicator size (1 for serial)
  std::int64_t spr = 1;   ///< segments computed on this rank
  bool has_comm = false;  ///< false = null comm: serial specialisation
  net::AlltoallAlgo algo = net::AlltoallAlgo::kPairwise;
  /// Chunk groups the exchange..demod stages are cut into; must divide
  /// spr. 1 = whole-rank exchange (the classic single all-to-all call).
  std::int64_t chunk_depth = 1;
  /// Fabric shape the exchange schedule targets. Flat keeps the native
  /// ialltoall(v) path; two-level / torus route each chunk group through
  /// the staged store-and-forward schedule of `staged` (set alongside this
  /// by the plan owner, before append_chain_stages). All schedules place
  /// blocks bit-identically.
  net::Topology topo;
  net::StagedPlan staged;
  /// Exchange redundancy (k data + r parity shards per peer message).
  /// Disabled (the default) keeps the pure CRC32C + retransmit path; when
  /// enabled every exchange message — flat AND staged schedules — travels
  /// as k+r coded shards and up to r losses per message are reconstructed
  /// locally with no retransmit round trip.
  net::Coding coding;
  /// Sink for the coded exchange's counters (recovered shards, parity
  /// bytes, fallbacks). Owned by the plan; null = untracked.
  net::CodedStatsAtomic* coded_stats = nullptr;
  /// Executions of this chain that may be in flight at once (members of
  /// one exec::run_epoch or racing from worker threads). The stages
  /// size their per-execution mutable state (in-flight requests) from
  /// this at construction, indexed by ExecContext::instance — so it must
  /// be set BEFORE append_chain_stages().
  int max_instances = 1;

  // Arena buffers, filled by reserve_chain_buffers(). ext holds the conv
  // input split-complex (re[] then im[] over the rank's points plus the
  // halo); halo (remote chains only) is where the neighbour's interleaved
  // halo lands before it is split into ext's tail. With chunk_depth > 1
  // recv/xt/uf are the FIRST of nslots() group-sized slots (slot g mod
  // nslots serves chunk group g; WorkspaceArena::slot() addresses the
  // rest). stg (staged topology schedules only) holds the per-slot
  // pack + ping-pong holdings scratch of the store-and-forward exchange.
  WorkspaceArena::BufferId ext, halo, v, send, recv, xt, uf, stg;
  /// Coded-exchange scratch (coding.enabled() only): cframe holds the
  /// per-slot receive frames + decode scratch, cpack the send-side
  /// staging frames (parity shards, padded tail shard, one wire frame).
  WorkspaceArena::BufferId cpack, cframe;
  /// Optional chain endpoints: invalid = use ctx.in / ctx.out (the real
  /// wrapper brackets the chain with arena-resident z / zf instead).
  WorkspaceArena::BufferId src, dst;

  // Plan-time ialltoallv layout (chunk_depth > 1 only): uniform
  // per-destination counts, per-group send displacements (chunk_depth x
  // ranks, row-major), and slot-relative recv displacements.
  std::vector<std::int64_t> a2a_counts;
  std::vector<std::int64_t> a2a_send_displs;
  std::vector<std::int64_t> a2a_recv_displs;

  [[nodiscard]] std::int64_t chunks() const {
    return spr * geom->chunks_per_rank();
  }
  [[nodiscard]] std::int64_t m_rank() const { return spr * geom->m(); }
  /// Segments per chunk group.
  [[nodiscard]] std::int64_t gseg() const { return spr / chunk_depth; }
  /// Buffer slots backing the chunked stages: one per chunk group up to
  /// four, so the pipelined schedule can keep up to nslots() exchanges in
  /// flight (slot g mod nslots serves chunk group g).
  [[nodiscard]] int nslots() const {
    return chunk_depth > 1
               ? static_cast<int>(std::min<std::int64_t>(chunk_depth, 4))
               : 1;
  }
  /// True when the exchange runs the staged topology schedule instead of
  /// the native flat all-to-all.
  [[nodiscard]] bool staged_exchange() const {
    return has_comm && ranks > 1 &&
           topo.kind() != net::TopologyKind::kFlat;
  }
  /// True when the exchange sends coded shards instead of raw blocks.
  [[nodiscard]] bool coded_exchange() const {
    return has_comm && ranks > 1 && coding.enabled();
  }
};

/// Declare the chain's intermediate buffers in `arena` with live intervals
/// relative to pipeline position `base` (the halo+conv stage's index).
template <class Real>
void reserve_chain_buffers(WorkspaceArena& arena, ChainEnvT<Real>& env,
                           int base);

/// Append the six shared stages to `pl` and declare their dataflow nodes
/// and edges (halo post/wait + safe/tail convolution; per-chunk-group
/// exchange post/wait, unpack, f_mprime, demod with double-buffer
/// write-after-read edges). `env` must outlive the pipeline.
template <class Real>
void append_chain_stages(exec::PipelineT<Real>& pl, const ChainEnvT<Real>& env);

/// r2c wrapper stages (double precision): pack interleaves the real signal
/// into the half-length complex buffer `z` (record "r2c_pack"); untangle
/// splits the half-spectrum buffer `zf` into the h+1 output bins using the
/// caller-owned twiddle table (record "r2c_untangle").
std::unique_ptr<exec::StageT<double>> make_r2c_pack_stage(
    WorkspaceArena::BufferId z, std::int64_t h);
std::unique_ptr<exec::StageT<double>> make_r2c_untangle_stage(
    WorkspaceArena::BufferId zf, const cvec* twiddle, std::int64_t h);

}  // namespace soi::core
