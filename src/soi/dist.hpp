// Distributed SOI FFT (paper, Sections 5-6, Figs. 2-4): the single-
// all-to-all, in-order, O(N log N) 1-D FFT over any net::Transport.
//
// Data distribution: block layout. Rank s holds x[s*M_rank .. (s+1)*M_rank)
// on input and receives the same span of y (its segments of interest) on
// output — natural order is preserved end to end.
//
// Segmentation: the factorisation's segment count P may exceed the rank
// count R ("In general, P can be a multiple of number of processor nodes,
// increasing the granularity of parallelism", Section 6). With
// segments_per_rank = g, P = g*R: each rank computes g consecutive
// segments; the convolution halo still crosses only one rank boundary.
//
// Pipeline per rank (communication in *italics*):
//   1. *halo*: one sendrecv of (B-nu)*P points with the ring neighbours,
//   2. convolution W x (g sub-blocks of chunks),
//   3. I (x) F_P over the local chunks, with the Fig. 3 per-destination
//      transpose pack fused into the batched pass's store phase,
//   5. *one Alltoall*,
//   6. g transforms F_M' on the assembled segment data,
//   7. demodulate + project to the M_rank outputs.
#pragma once

#include <memory>
#include <string>

#include "common/types.hpp"
#include "fft/engine.hpp"
#include "net/erasure.hpp"
#include "net/transport.hpp"
#include "soi/breakdown.hpp"
#include "soi/conv_table.hpp"
#include "soi/exec.hpp"
#include "soi/params.hpp"
#include "soi/stages.hpp"
#include "window/design.hpp"

namespace soi::core {

/// Execution knobs of one distributed plan — the tunable point in the
/// candidate space src/tune searches over. Defaults reproduce the seed
/// behaviour (one segment per rank, pairwise exchange, no overlap).
struct DistOptions {
  /// P = comm.size() * segments_per_rank segments in total (Section 6).
  std::int64_t segments_per_rank = 1;
  /// Message schedule of the single global exchange.
  net::AlltoallAlgo alltoall_algo = net::AlltoallAlgo::kPairwise;
  /// Run the pipelined dataflow schedule: the halo isend/irecv overlaps
  /// the halo-independent convolution groups (generalising the
  /// overlapping technique of the paper's reference [11]), and with
  /// chunk_depth > 1 each chunk group's all-to-all piece is in flight
  /// while the previous group's f_mprime/demod computes. Same nodes, same
  /// dependency edges, different schedule — results are bit-identical to
  /// overlap = false.
  bool overlap = false;
  /// Transforms per SoA pass of the batched FFT stages (fft/batch.hpp);
  /// 0 derives the width from the detected SIMD tier. Autotuner knob.
  std::int64_t batch_width = 0;
  /// FFT-engine backend the local transform stages run on ("" = the
  /// process default: $SOI_FFT_ENGINE, else "batch"). Unknown names throw
  /// soi::InvalidArgumentError listing the registered engines. Wisdom
  /// records carry this, so tuned plans replay on the engine that scored
  /// them.
  std::string engine;
  /// Chunk groups the exchange..demod stages are cut into (the dataflow
  /// executor's double-buffer depth): group g+1's all-to-all piece is in
  /// flight while group g's f_mprime/demod computes under the pipelined
  /// schedule. Clamped to the largest divisor of segments_per_rank not
  /// exceeding it; 1 = the classic whole-rank exchange. Autotuner knob
  /// (cd=).
  std::int64_t chunk_depth = 1;
  /// Fabric shape the exchange schedule targets (net::Topology::parse
  /// syntax): "" / "flat" keeps the native all-to-all; "two-level[:G]"
  /// fuses each chunk group's blocks into an intra-group gather followed
  /// by fewer, larger inter-group messages; "torus[:k0xk1xk2]" forwards
  /// them dimension-by-dimension. All schedules place blocks
  /// bit-identically. Autotuner knob (topo=).
  std::string topology;
  /// Pre-built convolution table for this (N, P, profile) geometry, e.g.
  /// from tune::PlanRegistry so all ranks share one table instead of each
  /// building an identical copy. When null the plan builds its own.
  std::shared_ptr<const ConvTable> table;
  /// Chaos scenario installed into the communicator's world at plan
  /// construction (first configurer wins; every rank passes the same
  /// options). Empty = no injected faults.
  net::FaultSpec faults;
  /// Base deadline of one communication wait attempt in ms; 0 keeps waits
  /// unbounded (a default deadline is applied when faults are active).
  double timeout_ms = 0.0;
  /// Chunk-granularity retry budget before a wait surfaces
  /// soi::CommTimeoutError; 0 disables recovery (first detected fault is
  /// fatal with its typed error).
  int max_retries = 8;
  /// Post-demodulation Parseval/energy check scaled by the window
  /// condition number kappa (the paper's Section-5 error model as an
  /// acceptance gate); throws soi::AccuracyFaultError on violation.
  bool residual_guard = true;
  /// NaN/Inf input pre-scan: -1 = automatic (on in Debug builds, off in
  /// Release), 0 = off, 1 = on. Violations throw
  /// soi::InvalidArgumentError before any communication happens.
  int validate_input = -1;
  /// Instances of this plan one epoch may hold (bind_epoch_member's
  /// `instance` < max_concurrency; the serving layer's batch width).
  /// Sizes the per-instance execution states, request slots and transport
  /// collective channels at plan time; must not exceed the transport's
  /// caps().max_coll_channels. 1 = solo execution only.
  int max_concurrency = 1;
  /// Forward-error-correct the exchange ("k+r", the code= knob): each
  /// peer message travels as k data + r parity shards and the receiver
  /// rebuilds up to r lost/late/corrupt shards locally from parity — zero
  /// retransmit round trips, bit-identical output — falling back to the
  /// CRC32C + retransmit path (and the degraded() protocol) only beyond r
  /// losses. Default-constructed = coding off. Autotuner knob (code=).
  net::Coding coding;
};

/// Distributed SOI plan bound to a communicator.
/// Construct once per (N, profile, segmentation) and execute repeatedly.
class SoiFftDist {
 public:
  /// P = comm.size() * segments_per_rank segments in total.
  SoiFftDist(net::Transport& comm, std::int64_t n, win::SoiProfile profile,
             std::int64_t segments_per_rank = 1);

  /// Fully-knobbed constructor (autotuner / registry entry point).
  SoiFftDist(net::Transport& comm, std::int64_t n, win::SoiProfile profile,
             DistOptions options);

  [[nodiscard]] const SoiGeometry& geometry() const { return geom_; }
  [[nodiscard]] std::int64_t segments_per_rank() const { return spr_; }
  [[nodiscard]] const DistOptions& options() const { return opts_; }
  /// Points per rank: N / comm.size().
  [[nodiscard]] std::int64_t local_size() const { return spr_ * geom_.m(); }

  /// Forward transform of the block-distributed signal. `x_local` and
  /// `y_local` are this rank's local_size() input/output points. A
  /// one-member epoch: bind_epoch_member(instance 0, channel 0),
  /// exec::run_epoch, finish_epoch(1). Runs the pipelined schedule when
  /// options().overlap is set (bit-identical results either way).
  void forward(cspan x_local, mspan y_local);

  /// Effective chunk depth after clamping to a divisor of
  /// segments_per_rank.
  [[nodiscard]] std::int64_t chunk_depth() const { return env_.chunk_depth; }

  /// Inverse transform (scaled by 1/N) via the conjugation identity —
  /// same block layout, same single all-to-all.
  void inverse(cspan y_local, mspan x_local);

  /// --- epoch membership (exec::run_epoch) ------------------------------
  ///
  /// An epoch composes members of one or SEVERAL SoiFftDist plans (up to
  /// max_concurrency instances each, mixed shapes welcome) sharing one
  /// transport into a single merged schedule: every member's exchange
  /// pieces post before any member blocks, so waits mostly find their
  /// data already delivered — the multi-tenant throughput path. Protocol,
  /// per epoch and identical on every rank:
  ///   1. bind_epoch_member() once per member, instances of each plan
  ///      numbered 0..k-1 in epoch order, channels globally unique across
  ///      the whole epoch (< caps().max_coll_channels);
  ///   2. exec::run_epoch() over all members (scratch sized via
  ///      exec::bind_epoch_scratch for the sum of the plans' node
  ///      counts);
  ///   3. finish_epoch() on each participating plan, in the SAME plan
  ///      order on every rank (its residual guard may issue a collective).
  /// Each member's output is bit-identical to a solo forward() of the
  /// same input; all epoch state is preallocated at construction, so the
  /// steady-state path allocates nothing.
  void bind_epoch_member(exec::EpochMemberT<double>& member, int instance,
                         int channel, cspan x_local, mspan y_local);

  /// Fold trace/degradation bookkeeping and run the output acceptance
  /// guard over instances 0..k-1 bound since the last finish_epoch().
  void finish_epoch(int k);

  /// Nodes in this plan's finalised chunk graph (sizes epoch scratch).
  [[nodiscard]] std::size_t node_count() const {
    return pipeline_.node_count();
  }

  /// Timing/volume breakdown of the most recent execution's instance 0 —
  /// a view over its per-stage trace.
  [[nodiscard]] const SoiDistBreakdown& last_breakdown() const {
    return breakdown_;
  }

  /// Structured per-stage trace of the most recent execution.
  [[nodiscard]] const exec::TraceLog& last_trace() const {
    return state_.trace;
  }
  /// Trace of epoch instance `i` from the most recent execution (instance
  /// 0 is last_trace()). The serving layer reads per-tenant overlap
  /// efficiency from these.
  [[nodiscard]] const exec::TraceLog& instance_trace(int i) const {
    return i == 0 ? state_.trace
                  : slots_[static_cast<std::size_t>(i - 1)]->trace;
  }
  /// The preplanned workspace (peak bytes, growth count — test surface).
  [[nodiscard]] const WorkspaceArena& workspace() const {
    return state_.arena;
  }

  /// True once a run needed communication retries: the plan has degraded
  /// to the in-order (non-overlapped) schedule for subsequent runs —
  /// results stay bit-identical, only the overlap is given up.
  [[nodiscard]] bool degraded() const { return degraded_; }
  /// Bounded-wait retries observed during the most recent run (summed
  /// over all stage records).
  [[nodiscard]] std::int64_t last_retries() const { return last_retries_; }
  /// Cumulative coded-exchange counters (all zero when options().coding
  /// is off): codewords completed, shards rebuilt from parity, parity
  /// payload bytes sent, and codewords that exceeded r losses and fell
  /// back to retransmit.
  [[nodiscard]] net::CodedStats coded_stats() const {
    return coded_stats_.snapshot();
  }

 private:
  void guard_outputs(std::span<const cspan> xs, std::span<const mspan> ys);

  net::Transport& comm_;
  win::SoiProfile profile_;
  DistOptions opts_;
  std::int64_t spr_;
  SoiGeometry geom_;
  std::shared_ptr<const ConvTable> table_;
  std::unique_ptr<const fft::BatchTransform> batch_p_;
  std::unique_ptr<const fft::BatchTransform> batch_mp_;
  ChainEnvT<double> env_;
  exec::PipelineT<double> pipeline_;
  exec::ExecState state_;
  SoiDistBreakdown breakdown_;
  // Per-instance epoch state: instance i > 0 executes on slots_[i-1]
  // (cloned arena layout + trace); instance 0 reuses state_, whose
  // scratch drives forward()'s one-member epochs. The buffers bound per
  // instance let finish_epoch run the guard without the caller
  // re-passing them. All preallocated at construction so the steady state
  // allocates nothing.
  std::vector<std::unique_ptr<exec::ExecState>> slots_;
  std::vector<exec::ExecContextT<double>> ctxs_;
  std::vector<double> guard_energies_;  // 2 per instance (in, out)
  std::vector<cspan> epoch_xs_;
  std::vector<mspan> epoch_ys_;
  bool degraded_ = false;
  std::int64_t last_retries_ = 0;
  net::CodedStatsAtomic coded_stats_;  // env_.coded_stats points here
  cvec conj_in_, conj_out_;  // conjugation scratch (inverse)
};

}  // namespace soi::core
