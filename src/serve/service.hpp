// Multi-tenant transform serving: admission control + co-scheduled
// execution of many independent SOI transforms in one process.
//
// A TransformService owns a fixed pool of request slots and a bounded
// FIFO admission queue. submit() binds caller-owned input/output buffers
// to a free slot and enqueues it — or rejects with the typed
// soi::AdmissionRejectedError (Status::kResourceExhausted) when the
// queue is full, which is backpressure, not failure. wait() blocks until
// the request finishes, rethrows its typed error if it failed, and
// returns the slot to the pool. All steady-state paths (submit, execute,
// complete, wait) are allocation-free; plans, execution states and queue
// storage are built at create_lane()/warmup() time.
//
// Two execution backends share that front end:
//
//   * ranks == 0 (serial): a pool of worker threads drains the queue,
//     each executing requests through its own exec::ExecState of the
//     lane's shared SoiFftSerial plan (init_state()/forward_on() — the
//     plan is built once per shape via tune::PlanRegistry and never
//     copied). Mixed-shape tenants run concurrently without contention.
//
//   * ranks >= 2 (distributed): the service hosts an in-process rank
//     team (any registered transport whose caps report threaded_world —
//     the rank bodies share the service's address space) and a scheduler
//     thread. The scheduler packs EPOCHS of up to max_concurrency
//     requests in (priority tier, FIFO) order, one lane or several, and
//     every pack runs the same way: its members' chunk graphs are
//     composed into one merged schedule via exec::run_epoch, each
//     member's exchange pieces posting on its own tagged collective
//     channel before any member blocks. Requests carry the FULL N-point
//     signal; rank r transforms the block subspan [r*N/R, (r+1)*N/R).
//
// Priority and deadlines: every request carries a tier (interactive <
// batch < background) and an optional absolute deadline. The scheduler
// admits lower tiers first within an epoch, and sheds any request whose
// modeled execution cost (tune::score_candidate, kModeled) can no
// longer fit before its deadline — the waiter sees the typed
// soi::DeadlineExceededError BEFORE any of its segment FFTs ran, so an
// infeasible background request never steals arena slots or exchange
// bandwidth from co-admitted interactive work. epoch_budget_ms caps the
// summed modeled cost packed into one epoch.
//
// Outputs are bit-identical to solo execution of the same request in
// both backends (the dataflow executor runs each instance's nodes in a
// topological order of its own edges). Queueing metrics — admitted /
// rejected / queued, p50/p99 latency, transforms/sec, slot occupancy,
// per-tenant overlap efficiency, per-tier completions and sheds —
// accumulate in serve::ServeMetrics.
#pragma once

#include <array>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/timer.hpp"
#include "common/types.hpp"
#include "net/erasure.hpp"
#include "net/registry.hpp"
#include "net/transport.hpp"
#include "serve/metrics.hpp"
#include "soi/dist.hpp"
#include "soi/serial.hpp"
#include "window/design.hpp"

namespace soi::serve {

/// Transform shapes one service instance can hold concurrently.
inline constexpr int kMaxLanes = 8;

/// Scheduling tier of a request. Lower values pack into an epoch first;
/// maps 1:1 onto the serve::kTiers metric buckets.
enum class Priority : std::uint8_t {
  kInteractive = 0,
  kBatch = 1,
  kBackground = 2,
};

/// Canonical tier name ("interactive" / "batch" / "background").
[[nodiscard]] const char* priority_name(Priority p);

/// Parse a tier name; throws soi::InvalidArgumentError listing the
/// valid tiers on anything else (mirrors the transport/engine registry
/// error style).
[[nodiscard]] Priority priority_from_name(const std::string& name);

/// Per-request scheduling knobs carried alongside the buffers.
struct SubmitOptions {
  Priority priority = Priority::kBatch;
  /// Relative deadline in milliseconds from submit(); 0 = none. A
  /// request whose modeled cost no longer fits before the deadline is
  /// shed with soi::DeadlineExceededError before any execution.
  double deadline_ms = 0.0;
};

/// One transform shape ("lane") requests are admitted against. Requests
/// on the same lane share one plan (and, distributed, one co-scheduled
/// batch); different lanes are independent tenant shapes.
struct LaneSpec {
  std::int64_t n = 0;  ///< transform length
  win::Accuracy accuracy = win::Accuracy::kHigh;
  /// Factorisation granularity: total segments P = max(ranks, 1) *
  /// segments_per_rank.
  std::int64_t segments_per_rank = 8;
  /// Distributed backend: chunk groups of the pipelined exchange
  /// (DistOptions::chunk_depth). Ignored by the serial backend.
  std::int64_t chunk_depth = 1;
};

struct ServeOptions {
  /// 0 = in-process serial backend (worker pool); >= 2 = in-process rank
  /// team co-scheduling epochs through exec::run_epoch.
  int ranks = 0;
  /// Distributed backend: registered transport name hosting the rank
  /// team ("" = net::default_transport()). The rank bodies read the
  /// service's request slots directly, so the backend must report
  /// TransportCaps::threaded_world; selecting a cross-process transport
  /// (e.g. "shm") throws soi::InvalidArgumentError at construction.
  std::string transport;
  /// Serial backend worker threads. 0 is allowed (nothing executes until
  /// stop(); admission/rejection stays fully deterministic for tests).
  int workers = 1;
  /// Max requests per co-scheduled batch (distributed backend); bounded
  /// by net::kMaxChannels. Also the occupancy normaliser.
  int max_concurrency = 4;
  /// Bounded admission queue == request slot pool size. A request holds
  /// its slot from submit() until wait() returns, so this caps total
  /// in-flight work (queued + running + finished-unclaimed).
  int queue_capacity = 64;
  /// Distributed backend: run the pipelined (overlapped) schedule.
  bool overlap = true;
  /// Distributed backend: emulated per-message wire latency in
  /// microseconds for the rank world (net::NetOptions::wire_latency_us).
  /// 0 = the raw in-process transport.
  double wire_latency_us = 0.0;
  /// Distributed backend: batching delay in microseconds. A batch that
  /// would dispatch below max_concurrency lingers this long for more
  /// same-lane arrivals first (a partial batch amortises the exchange
  /// flight time over fewer transforms). 0 = dispatch immediately;
  /// bounded per batch, so worst-case added latency is exactly this.
  double batch_linger_us = 0.0;
  /// Distributed backend: cap on the summed modeled execution cost
  /// (tune::score_candidate, kModeled) packed into one epoch, in
  /// milliseconds. The first packed request always fits (no livelock);
  /// 0 = unlimited (pack to max_concurrency).
  double epoch_budget_ms = 0.0;
  /// Distributed backend: erasure-code the rank team's exchange
  /// (DistOptions::coding, "k+r"). Recoveries and parity volume surface
  /// in the per-tier resilience counters of the metrics snapshot.
  /// Default-constructed = coding off. Ignored by the serial backend.
  net::Coding coding;
};

/// Handle of one submitted request. Value type; becomes stale after
/// wait() returns (the slot generation advances).
struct Ticket {
  std::int32_t slot = -1;
  std::uint32_t gen = 0;
  [[nodiscard]] bool valid() const { return slot >= 0; }
};

class TransformService {
 public:
  explicit TransformService(ServeOptions opts);
  ~TransformService();
  TransformService(const TransformService&) = delete;
  TransformService& operator=(const TransformService&) = delete;

  /// Register a transform shape. Builds the lane's plan (through
  /// tune::PlanRegistry, so same-shape lanes across services share the
  /// expensive artifacts) and, distributed, constructs every rank's plan
  /// before returning. Not allocation-free; call during setup.
  int create_lane(const LaneSpec& spec);

  /// Drive every execution slot of every lane through one transform so
  /// all thread-local FFT scratch and per-instance states are touched;
  /// after warmup the submit/execute/wait cycle allocates nothing.
  void warmup();

  /// Admit a request: transform lane `lane` of `x` (length n) into `y`
  /// (length >= n), attributed to `tenant`. Buffers are caller-owned and
  /// must stay valid until wait() returns. Throws AdmissionRejectedError
  /// when the queue is full.
  Ticket submit(int lane, int tenant, cspan x, mspan y);
  Ticket submit(int lane, int tenant, cspan x, mspan y,
                const SubmitOptions& so);

  /// submit() that reports a full queue as std::nullopt instead of
  /// throwing (the open-loop load generator's path; still counts into
  /// metrics().rejected).
  std::optional<Ticket> try_submit(int lane, int tenant, cspan x, mspan y);
  std::optional<Ticket> try_submit(int lane, int tenant, cspan x, mspan y,
                                   const SubmitOptions& so);

  /// Modeled solo execution cost of one request on `lane`, in seconds
  /// (the deadline-shedding and epoch-budget price; priced once at
  /// create_lane via the modeled autotuner scorer).
  [[nodiscard]] double lane_cost_seconds(int lane) const;

  /// Block until the request finishes; rethrows its typed soi::Error if
  /// it failed, then frees the slot (the ticket becomes stale).
  void wait(const Ticket& t);

  /// Fail everything still queued (waiters see Status::kResourceExhausted),
  /// finish everything running, join all threads. Idempotent; the
  /// destructor calls it.
  void stop();

  /// Counter snapshot over the current metrics epoch.
  [[nodiscard]] MetricsSnapshot metrics() const;

  /// Zero the counters and restart the epoch clock (call while idle,
  /// e.g. right after warmup, so in-flight latencies don't straddle it).
  void reset_metrics();

  [[nodiscard]] int lane_count() const;
  [[nodiscard]] const ServeOptions& options() const { return opts_; }
  /// Execution slots occupancy is normalised by (workers or instances).
  [[nodiscard]] int slot_count() const;

 private:
  enum class SlotState : std::uint8_t {
    kFree,
    kQueued,
    kRunning,
    kDone,
    kFailed,
  };

  struct RequestSlot {
    SlotState state = SlotState::kFree;
    std::uint32_t gen = 0;
    std::int32_t lane = -1;
    std::int32_t tenant = 0;
    cspan in;
    mspan out;
    double submit_seconds = 0.0;  ///< epoch clock at admission
    Priority priority = Priority::kBatch;
    /// Absolute epoch-clock deadline in seconds; 0 = none.
    double deadline_seconds = 0.0;
    std::exception_ptr error;
  };

  struct Lane {
    LaneSpec spec;
    std::shared_ptr<const core::SoiFftSerial> plan;  // serial backend only
    cvec warm_in;
    cvec warm_out;
    /// Modeled solo execution cost (tune::score_candidate, kModeled) —
    /// the deadline-shedding / epoch-budget price of one request.
    double cost_seconds = 0.0;
  };

  /// Rank-team commands: build a lane's plan, warm it up, run one epoch
  /// of packed requests (the only execution command), or stop.
  enum class CmdType : std::uint8_t { kLane, kWarm, kEpoch, kStop };

  /// One entry of the rank team's command log (distributed backend).
  /// Plain copyable value: rank bodies copy it out under the service
  /// mutex, so log growth never invalidates a reader.
  struct Command {
    CmdType type = CmdType::kEpoch;
    std::int32_t lane = -1;  ///< kLane/kWarm: the single lane
    std::int32_t count = 0;
    std::array<std::int32_t, net::kMaxChannels> slots{};
    /// kEpoch: per-member lane ids (one lane or several; member i rides
    /// collective channel i).
    std::array<std::int32_t, net::kMaxChannels> lanes{};
  };

  [[nodiscard]] bool dist_mode() const { return opts_.ranks >= 2; }
  std::optional<Ticket> admit(int lane, int tenant, cspan x, mspan y,
                              const SubmitOptions& so, bool throw_on_full);
  void finish_slot_locked(std::int32_t idx, std::exception_ptr err,
                          double trace_seconds, double trace_wait_seconds);
  /// Fail a queued slot with DeadlineExceededError (counts into the
  /// shed metrics, not failed); caller already removed it from the ring.
  void shed_slot_locked(std::int32_t idx, double now);
  std::size_t append_command_locked(const Command& cmd);
  void await_acks(std::size_t cmd_idx, std::unique_lock<std::mutex>& lock);
  void worker_main(int w);
  void scheduler_main();
  void rank_main(net::Transport& comm);

  ServeOptions opts_;
  Timer epoch_;

  mutable std::mutex mu_;
  std::condition_variable cv_work_;  ///< queue work for workers/scheduler
  std::condition_variable cv_done_;  ///< completions, acks, warmup
  std::condition_variable cv_cmd_;   ///< new command-log entries (ranks)

  // Request slots + FIFO admission ring + free-slot stack, all sized
  // queue_capacity at construction.
  std::vector<RequestSlot> slots_;
  std::vector<std::int32_t> ring_;
  std::size_t ring_head_ = 0;
  std::size_t ring_size_ = 0;
  std::vector<std::int32_t> free_;

  std::array<Lane, kMaxLanes> lanes_;
  int nlanes_ = 0;

  // Serial backend: per-(worker, lane) execution states and the warmup
  // handshake flags (warmup must run ON the worker threads — BatchFft
  // scratch is thread-local).
  std::vector<std::unique_ptr<exec::ExecState>> states_;
  std::vector<std::thread> workers_;
  std::vector<char> warm_pending_;

  // Distributed backend: rank team + scheduler + command log. The
  // scheduler keeps at most kMaxBatchesInFlight batches issued ahead of
  // execution — one executing, one staged — so the admission backlog
  // accumulates in the ring and batches fill toward max_concurrency
  // instead of forming at arrival granularity.
  static constexpr std::int64_t kMaxBatchesInFlight = 2;
  std::thread world_thread_;
  std::thread scheduler_;
  std::vector<Command> commands_;
  // Per-command completion countdowns: kLane/kWarm acks gate await_acks;
  // a kEpoch entry reaching `ranks` means every rank wrote its output
  // block and the last rank retires the epoch (no inter-epoch barrier).
  std::vector<int> cmd_acks_;
  std::vector<std::exception_ptr> cmd_errors_;
  std::int64_t batches_issued_ = 0;
  std::int64_t batches_done_ = 0;
  std::exception_ptr world_error_;
  bool world_failed_ = false;

  bool stopping_ = false;
  bool stopped_ = false;

  ServeMetrics metrics_;
};

}  // namespace soi::serve
