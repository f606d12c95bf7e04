// soi::exec — the chunk-granular dataflow executor.
//
// A plan (serial, distributed, or real-input) is expressed as a Pipeline:
// a list of Stage objects sharing one WorkspaceArena, plus a dataflow
// graph of NODES. A node is one unit of work — (stage, chunk, phase) —
// and edges are its per-chunk dependencies (including write-after-read
// edges that serialise reuse of double-buffered arena slots). Stages
// declare everything expensive at plan time — workspace requirements (via
// the arena), the trace records they emit, and their nodes/edges — so
// run() is pure execution: no heap allocation, no string construction,
// just a ready-queue over preallocated arrays driving kernels and timed
// trace updates.
//
// Two schedules coexist on one graph: every node carries an in-order key
// (chunk-major, equivalent to the old run-to-completion stage list) and a
// pipelined key (chunk g+1's exchange posts while chunk g's f_mprime
// computes). ExecContext::overlap picks the key set at run time; both are
// topological orders of the same edges, so outputs are bit-identical.
// Stages that declare no nodes get one auto node with barrier edges to
// their neighbour stages — a plain ordered stage list is just the
// degenerate graph.
//
// Every execution fills a TraceLog: one StageRecord per stage event with
// wall seconds (and the subset spent blocked in communication waits),
// bytes moved (measured for communication stages, estimated for compute
// stages) and a flop estimate. Per-chunk node executions fold into their
// stage's record, so SoiPhaseTimes/SoiDistBreakdown are unchanged thin
// views over this log (soi/breakdown.hpp); the measured autotuner and
// `soifft --trace` consume it directly.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/arena.hpp"
#include "common/timer.hpp"
#include "common/types.hpp"

namespace soi::net {
class Transport;
}

namespace soi::exec {

/// One structured trace event of one stage execution. Chunked stages fold
/// every per-chunk node execution into the same record (`chunks` counts
/// them), so name-keyed consumers see one row per stage as before.
struct StageRecord {
  std::string name;            ///< fixed at plan time ("conv", "f_p", ...)
  double seconds = 0.0;        ///< measured wall time, reset per execution
  double wait_seconds = 0.0;   ///< subset of seconds blocked in comm waits
  std::int64_t bytes_moved = 0;  ///< payload bytes (measured for comm)
  std::int64_t flops = 0;        ///< plan-time flop estimate
  std::int64_t chunks = 1;       ///< node executions folded into this record
  std::int64_t retries = 0;      ///< bounded-wait retries this execution
  bool bytes_measured = false;   ///< bytes_moved measured vs plan estimate
};

/// Per-execution trace. The record vector is built once at plan time
/// (Pipeline::init_trace); each run only zeroes the timings (and the byte
/// counters of measured records, which re-accumulate), so tracing itself
/// allocates nothing in steady state.
class TraceLog {
 public:
  void plan(std::vector<StageRecord> records) { records_ = std::move(records); }
  void zero_seconds() {
    for (auto& r : records_) {
      r.seconds = 0.0;
      r.wait_seconds = 0.0;
      r.retries = 0;
      if (r.bytes_measured) r.bytes_moved = 0;
    }
  }
  [[nodiscard]] StageRecord* at(std::size_t i) { return &records_[i]; }
  [[nodiscard]] std::span<const StageRecord> records() const {
    return records_;
  }
  [[nodiscard]] bool empty() const { return records_.empty(); }
  /// First record with this name, or nullptr.
  [[nodiscard]] const StageRecord* find(std::string_view name) const;
  [[nodiscard]] double total_seconds() const;

 private:
  std::vector<StageRecord> records_;
};

/// Fraction of trace wall time NOT spent blocked in communication waits:
/// 1 - sum(wait_seconds) / sum(seconds), clamped to [0, 1]. 1.0 for an
/// empty/zero trace (nothing waited).
[[nodiscard]] double overlap_efficiency(const TraceLog& trace);

/// What a node does, for schedulers and trace accounting.
enum class StageClass : std::uint8_t {
  kCompute,   ///< kernels; never blocks on communication
  kCommPost,  ///< posts sends / nonblocking collectives; returns immediately
  kCommWait,  ///< completes a posted operation; time counts as wait_seconds
};

/// One schedulable unit of work: (stage, chunk, phase). `rec` indexes the
/// record (within the owning stage's plan_records) its time folds into;
/// `phase` is a stage-private discriminator (post vs wait vs kernel
/// variant). The two keys are scheduling priorities among READY nodes for
/// the in-order and pipelined schedules; correctness comes from edges
/// alone, keys only pick which valid order materialises.
struct NodeSpec {
  int stage = 0;
  int rec = 0;
  int chunk = 0;
  int phase = 0;
  StageClass cls = StageClass::kCompute;
  int seq_key = 0;  ///< priority under the in-order (chunk-major) schedule
  int ovl_key = 0;  ///< priority under the pipelined schedule
  /// Priority class in epochs of two or more members (run_epoch). 0 =
  /// run as soon as ready, ordered across members by key (communication
  /// posts: every member's traffic goes on the wire before anyone
  /// blocks). 1 = the pre-exchange front, 2 = the wait..demod tail; both
  /// run depth-first per member ((member, key) order, all fronts before
  /// any tail) so one member's working set streams through the cache
  /// instead of K interleaving stage-major. Ignored by one-member runs.
  int many_phase = 1;
  /// Set by finalize_graph() on generated barrier nodes: the executor
  /// calls the stage's atomic run() instead of run_node().
  bool is_auto = false;
};

/// Per-execution scheduler scratch: the ready-queue arrays one epoch
/// drives its members' graphs with, plus the reentrancy flag guarding
/// them. Plans own one (inside ExecState) for their built-in execution;
/// callers that execute ONE shared pipeline from several threads (the
/// serving layer) bind one RunScratch per concurrent execution instead —
/// the pipeline graph itself is immutable after init_trace(), so K
/// executions with distinct (scratch, arena, trace) triples never share
/// mutable state. Sized by bind_epoch_scratch() (Pipeline::bind_scratch()
/// for one member); run() and run_epoch() never allocate.
struct RunScratch {
  std::vector<int> indegree;
  std::vector<int> heap;
  std::atomic<bool> running{false};
  /// Node slots this scratch was bound for (summed over the members).
  std::size_t capacity = 0;
  /// Epoch composition tables: per-member first global node id, and the
  /// member owning each global node id.
  std::vector<int> epoch_base;
  std::vector<std::int32_t> epoch_member;
};

/// Everything a stage needs at run time. in/out are the caller's spans;
/// stages bound to arena buffers ignore them. comm == nullptr means
/// single-process execution (the serial plan's "null comm").
///
/// The last three fields exist for co-scheduled execution (run_epoch):
/// `instance` selects the per-execution slot of stage-held communication
/// requests, `channel` is the transport collective channel (and halo tag
/// offset) keeping concurrent executions' messages from cross-matching,
/// and `scratch` overrides the pipeline's built-in ready-queue arrays so
/// independent executions of one shared plan never contend.
template <class Real>
struct ExecContextT {
  cspan_t<Real> in;
  mspan_t<Real> out;
  std::span<const Real> real_in;  ///< r2c wrapper input (real path only)
  net::Transport* comm = nullptr;
  bool overlap = false;
  WorkspaceArena* arena = nullptr;
  TraceLog* trace = nullptr;
  int instance = 0;   ///< execution slot (indexes stage request storage)
  int channel = 0;    ///< transport collective channel / halo tag offset
  RunScratch* scratch = nullptr;  ///< null = the pipeline's built-in scratch
};

/// Stage interface. plan_records() declares the trace events the stage
/// emits (most stages: one; halo+conv: two); run_node() executes one node
/// of the dataflow graph and must add its wall time to `rec` (StageTimer /
/// WaitTimer below). Stages that declare no nodes are atomic: they get one
/// auto node and only run() is called.
template <class Real>
class StageT {
 public:
  virtual ~StageT() = default;
  virtual void plan_records(std::vector<StageRecord>& out) const = 0;
  virtual void run(ExecContextT<Real>& ctx, StageRecord* rec) const = 0;
  /// Execute one declared node. `rec` already points at the record the
  /// node's NodeSpec::rec selected. Default: atomic stages ignore the node.
  virtual void run_node(ExecContextT<Real>& ctx, StageRecord* rec,
                        const NodeSpec& node) const {
    (void)node;
    run(ctx, rec);
  }
};

template <class Real>
class PipelineT;

/// One member of a cross-graph epoch (run_epoch): an independent chunk
/// graph — a finalised pipeline plus the execution context it runs under —
/// co-scheduled with the other members' graphs in one merged ready-queue.
/// `tier` is the member's priority class (0 = most urgent): among READY
/// compute/wait nodes, lower tiers run first, so an interactive member's
/// tail never queues behind a background member's. Communication posts
/// ignore the tier (every member's traffic goes on the wire before anyone
/// blocks — that interleaving IS the epoch's throughput win).
template <class Real>
struct EpochMemberT {
  const PipelineT<Real>* pipeline = nullptr;
  ExecContextT<Real>* ctx = nullptr;
  int tier = 0;
};

/// Largest epoch run_epoch accepts (bounds the tier/member priority
/// packing; transports cap concurrency far below this anyway).
inline constexpr int kMaxEpochMembers = 64;

/// Size `s` for epochs of heterogeneous graphs totalling up to
/// `total_nodes` node slots over at most `max_members` members. Call at
/// setup time (after the member pipelines' init_trace()) so steady-state
/// run_epoch() calls never allocate.
void bind_epoch_scratch(RunScratch& s, std::size_t total_nodes,
                        int max_members);

/// The executor: runs one or more INDEPENDENT chunk graphs — possibly of
/// different shapes/pipelines — in one deterministic merged schedule.
/// Each member's node ids live in their own namespace (member m's node v
/// is global id epoch_base[m] + v) and every edge stays member-local (WAR
/// slot-cycle edges included). A one-member epoch orders READY nodes by
/// the member's schedule key alone; with more members the merged binary
/// heap orders them by (many_phase, key, member): communication posts of
/// all members interleave on the wire first, then compute/wait nodes run
/// depth-first per member, lower tiers first. Members must carry distinct
/// transport channels when a communicator is attached (their
/// collective/halo traffic must not cross-match) and, when they share one
/// pipeline, distinct instance numbers. Per-member node order is a
/// topological order of the member's own edges, so each member's output
/// is bit-identical to a solo run of its pipeline. Allocation-free once
/// `scratch` was bound via bind_epoch_scratch().
template <class Real>
void run_epoch(std::span<const EpochMemberT<Real>> members,
               RunScratch& scratch);

extern template void run_epoch<double>(
    std::span<const EpochMemberT<double>> members, RunScratch& scratch);
extern template void run_epoch<float>(
    std::span<const EpochMemberT<float>> members, RunScratch& scratch);

/// Stage list + dataflow graph over one arena. add() all stages, declare
/// nodes/edges for the chunked ones, then init_trace() once against the
/// plan's TraceLog (this finalises the graph); run() executes it as a
/// one-member epoch. Stages without declared nodes receive one auto node with
/// full barrier edges to the nodes of their neighbouring stages, so a
/// graph-free pipeline executes exactly like the old ordered list.
template <class Real>
class PipelineT {
 public:
  void add(std::unique_ptr<StageT<Real>> stage);
  /// Pipeline position the next add() will occupy (arena lifetime index).
  [[nodiscard]] int next_index() const {
    return static_cast<int>(stages_.size());
  }
  /// Declare one node; returns its id for add_edge().
  int add_node(const NodeSpec& spec);
  /// Declare that `before` must complete before `after` becomes ready.
  void add_edge(int before, int after);
  /// Build the trace template from the stages' declared records and
  /// finalise the dataflow graph (auto nodes, CSR edges, scratch arrays).
  void init_trace(TraceLog& trace);
  /// run_epoch() over the one member (this, ctx), on ctx.scratch when set,
  /// else the pipeline's built-in scratch.
  void run(ExecContextT<Real>& ctx) const;

  /// Size `s` for one-member epochs of this pipeline (init_trace() must
  /// have run); a bound scratch serves run() via ExecContext::scratch.
  void bind_scratch(RunScratch& s) const;

  /// Nodes in the finalised graph (init_trace() must have run).
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }

  template <class R>
  friend void run_epoch(std::span<const EpochMemberT<R>> members,
                        RunScratch& scratch);

 private:
  void finalize_graph();

  std::vector<std::unique_ptr<StageT<Real>>> stages_;
  std::vector<std::size_t> rec_offset_;  // stage -> first record index
  // Declared nodes/edges first, then the auto nodes/barrier edges that
  // finalize_graph() appends (declared_* mark the boundary so the graph
  // can be re-finalised without duplicating them).
  std::vector<NodeSpec> nodes_;
  std::vector<std::pair<int, int>> edges_;
  std::size_t declared_nodes_ = 0;
  std::size_t declared_edges_ = 0;
  // Finalised graph: successor adjacency in CSR form + indegree template.
  std::vector<int> succ_off_;
  std::vector<int> succ_;
  std::vector<int> indegree0_;
  bool finalized_ = false;
  // Built-in run-time scratch, preallocated by finalize_graph() for one
  // execution. Guarded by its reentrancy flag — concurrent executions of
  // one plan must bind their own RunScratch (ExecContext::scratch) and
  // their own arena/trace; racing on the BUILT-IN state is corruption,
  // not parallelism, and fails loudly.
  mutable RunScratch scratch_;
};

/// Adds its lifetime to `rec.seconds` on destruction; scoped sections of
/// one stage may open several (e.g. overlap: send / poll separately).
class StageTimer {
 public:
  explicit StageTimer(StageRecord& rec) : rec_(rec) {}
  ~StageTimer() { rec_.seconds += t_.seconds(); }
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

 private:
  StageRecord& rec_;
  Timer t_;
};

/// StageTimer variant for kCommWait sections: the elapsed time counts
/// toward both `seconds` and `wait_seconds`, feeding overlap_efficiency().
class WaitTimer {
 public:
  explicit WaitTimer(StageRecord& rec) : rec_(rec) {}
  ~WaitTimer() {
    const double s = t_.seconds();
    rec_.seconds += s;
    rec_.wait_seconds += s;
  }
  WaitTimer(const WaitTimer&) = delete;
  WaitTimer& operator=(const WaitTimer&) = delete;

 private:
  StageRecord& rec_;
  Timer t_;
};

/// Mutable per-execution state: one workspace arena, one trace, one set
/// of scheduler scratch arrays. Plan objects keep one `mutable` so const
/// forward() stays allocation-free; callers that need parallel execution
/// of one shared plan initialise EXTRA states from the plan (the serial
/// plan's init_state()) and run each execution against its own — racing
/// concurrent forward() calls on ONE state is corruption, not
/// parallelism, and Pipeline::run fails loudly on it.
struct ExecState {
  WorkspaceArena arena;
  TraceLog trace;
  RunScratch scratch;
};

extern template class PipelineT<double>;
extern template class PipelineT<float>;

}  // namespace soi::exec
