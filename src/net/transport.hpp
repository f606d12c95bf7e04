// Transport ABI: the abstract message-passing surface the SOI pipeline,
// serving layer and baselines are written against. Everything above
// src/net (src/soi, src/serve, src/baseline, src/tune) includes THIS
// header — never a concrete backend header like net/comm.hpp — so the
// same transform code runs over interchangeable fabrics:
//
//   * "sim"  — SimMPI, thread-per-rank in one process with fault
//              injection and wire-latency emulation (net/comm.hpp),
//   * "shm"  — multi-process shared-memory rings, fork + mmap with the
//              same CRC32C/sequence integrity envelope (net/shm.hpp).
//
// Backends register a factory in net::TransportRegistry (net/registry.hpp)
// and advertise what they can do through TransportCaps. Capabilities are
// NOT silently dropped: a NetOptions field a backend cannot honour (say,
// wire-latency emulation on a real fabric) is reported through
// unsupported_options() so callers can warn instead of measuring nothing.
//
// Primitives and derived operations. A backend implements only the pure
// virtuals below: buffered isend_bytes / irecv_bytes on any tag, the
// nonblocking ialltoall / ialltoallv, test, one deadline-bounded wait_for,
// barrier, one vector allreduce, and the resilience and introspection
// getters. Everything else is a non-virtual member written once here over
// those primitives:
//
//   * typed and blocking point to point (send/recv/isend/irecv/sendrecv/
//     try_recv): post + wait;
//   * wait/waitall: the world's deadline-doubling retry loop over
//     wait_for — the only one in the library;
//   * bcast/gather/allgather: point to point on reserved tags;
//   * the scalar allreduces: the vector allreduce on one element;
//   * blocking alltoall/alltoallv: ialltoall/ialltoallv on channel 0 +
//     wait. The channel-0 rule: a blocking all-to-all draws channel 0's
//     next collective sequence number exactly like a posted one, so ranks
//     must interleave blocking all-to-alls with their channel-0 postings in
//     the same program order (other channels stay free to differ).
//
// Negative tags are reserved: the derived collectives use a few fixed
// ones, and each ialltoall(v) posting takes a unique one from a
// per-(rank, channel) sequence counter (next_coll_tag()). User-facing
// point to point rejects them; the byte primitives accept them so the
// base can build collectives on top.
//
// Request handles are type-erased and move-only. Dropping a live request
// has the semantics the SimMPI layer pioneered: an unfinished collective
// is cancelled (its in-flight pieces purged, future arrivals discarded), a
// pending receive forgets its posting, a completed/send request is a
// no-op. Every backend must preserve these drop semantics — the
// conformance suite in tests/test_backends.cpp checks them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "net/fault.hpp"
#include "net/traffic.hpp"

namespace soi::net {

/// Wildcard source for recv_any-style matching.
inline constexpr int kAnySource = -1;

/// ABI-wide ceiling on collective co-scheduling channels
/// (ialltoall/ialltoallv's `channel` parameter). Channels exist for
/// multi-tenant co-scheduling: all ranks must post the collectives of ONE
/// channel in the same program order, but the relative order of postings
/// on DIFFERENT channels is free to differ per rank. Fixed-size tables
/// (the serving layer's slot arrays, the staged-exchange tag space) are
/// dimensioned by this constant; an individual backend may support fewer
/// — query TransportCaps::max_coll_channels for the live limit.
inline constexpr int kMaxChannels = 16;

/// Secondary error delivered to ranks blocked on communication when a peer
/// rank's body already failed: the world is marked aborted and every
/// sleeping wait unwinds with this instead of deadlocking on a message or
/// rendezvous that can never arrive. run_world() resurfaces the peer's
/// primary error; this one is only rethrown when no primary exists.
class WorldAbortedError : public CommTimeoutError {
 public:
  using CommTimeoutError::CommTimeoutError;
};

/// All-to-all algorithm selection (both give identical results; tests
/// assert so — the choice models different message schedules). Backends
/// without TransportCaps::alltoall_algo_choice run their single native
/// schedule for either value.
enum class AlltoallAlgo {
  kPairwise,  ///< P-1 rounds of sendrecv with partner (rank + step) mod P
  kDirect,    ///< post all sends, then drain all receives
};

/// Where each rank's block sits in one side of an all-to-all buffer:
/// `count` elements at `count * r` when uniform (count >= 0), else
/// `counts[r]` elements at `displs[r]`. The counts/displs arrays are
/// caller-owned. Backends describe both sides of an ialltoall(v) with it.
struct BlockLayout {
  std::int64_t count = -1;
  const std::int64_t* counts = nullptr;
  const std::int64_t* displs = nullptr;

  [[nodiscard]] std::size_t size(int r) const {
    return static_cast<std::size_t>(
        count >= 0 ? count : counts[static_cast<std::size_t>(r)]);
  }
  [[nodiscard]] std::ptrdiff_t offset(int r) const {
    return static_cast<std::ptrdiff_t>(
        count >= 0 ? count * r : displs[static_cast<std::size_t>(r)]);
  }
};

/// Element-wise reduction of Transport::allreduce.
enum class ReduceOp { kSum, kMax };

/// Per-world resilience configuration. Defaults are the legacy semantics:
/// no injected faults, unbounded waits, checksums stamped and verified.
/// Not every backend honours every field — run the options through
/// Transport::unsupported_options() (run_world() does, and logs a warning
/// per ignored field).
struct NetOptions {
  /// Chaos scenario (empty = none). When set and timeout_ms == 0, a
  /// default deadline is applied so injected drops/delays cannot hang.
  /// Requires TransportCaps::fault_injection.
  FaultSpec faults;
  /// Base deadline of one wait attempt in ms; 0 = wait forever.
  double timeout_ms = 0.0;
  /// Bounded-wait attempts (with doubling backoff) before a wait throws
  /// soi::CommTimeoutError; 0 disables recovery entirely (corruption and
  /// timeouts surface as typed errors on first detection).
  int max_retries = 8;
  /// Stamp CRC32C payload checksums on every send. Off only to measure
  /// the stamping cost.
  bool checksums = true;
  /// Emulated per-message wire latency in microseconds (0 = off). A sent
  /// message only becomes matchable this long after the send posts.
  /// Requires TransportCaps::latency_emulation.
  double wire_latency_us = 0.0;
  /// Second, cheaper latency tier for hierarchical fabrics: messages
  /// between ranks of the same node group (rank / topo_group_size) take
  /// this latency instead of wire_latency_us. Only meaningful with
  /// topo_group_size > 0. Requires TransportCaps::latency_emulation.
  double intra_latency_us = 0.0;
  /// Ranks per node group for the intra/inter latency split (0 = no
  /// grouping, every message pays wire_latency_us).
  int topo_group_size = 0;
};

/// What one registered backend can do. Returned both statically from the
/// registry (so callers can validate options before launching a world) and
/// from a live Transport via caps().
struct TransportCaps {
  /// Registered backend name ("sim", "shm").
  const char* name = "?";
  /// Collective channels this backend disambiguates (<= kMaxChannels).
  int max_coll_channels = kMaxChannels;
  /// kDirect runs a genuinely different message schedule from kPairwise
  /// (false: one native schedule serves both values).
  bool alltoall_algo_choice = false;
  /// Payloads carry a CRC32C integrity envelope verified at delivery.
  bool checksums = false;
  /// NetOptions::faults is honoured (deterministic chaos injection).
  bool fault_injection = false;
  /// wire_latency_us / intra_latency_us / topo_group_size are honoured.
  bool latency_emulation = false;
  /// run_world() returns per-message CommEvents (cost-model input).
  bool traffic_events = false;
  /// Ranks are threads of the calling process sharing its address space —
  /// required by in-process hosts like serve::TransformService that hand
  /// pointers across the rank boundary.
  bool threaded_world = false;
  /// Ranks are separate OS processes (address-space isolation; a crashed
  /// rank cannot corrupt its peers).
  bool cross_process = false;
};

/// Backend-owned completion state behind a type-erased Request. Concrete
/// transports subclass this; the destructor runs the backend's
/// cancel-on-drop path for live operations.
class RequestState {
 public:
  virtual ~RequestState() = default;
  /// True once the operation has completed (always true for send
  /// requests — sends are buffered and finish at post time).
  [[nodiscard]] virtual bool done() const = 0;
  /// For completed receives: the matched source rank (useful with
  /// kAnySource). -1 until completion.
  [[nodiscard]] virtual int source() const = 0;
};

/// Handle for an in-flight nonblocking operation. Move-only and passive:
/// no registry, no background progress. Completion is driven by the owning
/// rank's thread through Transport::test/wait/waitall. Constructed
/// inactive (done); obtain live ones from isend/irecv/ialltoall(v).
/// Destroying (or overwriting) a live request runs the backend's
/// cancel-on-drop semantics (see header comment).
class Request {
 public:
  Request() = default;
  explicit Request(std::unique_ptr<RequestState> state)
      : state_(std::move(state)) {}
  Request(Request&&) noexcept = default;
  Request& operator=(Request&&) noexcept = default;
  Request(const Request&) = delete;
  Request& operator=(const Request&) = delete;
  ~Request() = default;

  /// True once the operation has completed (inactive handles are done).
  [[nodiscard]] bool done() const { return !state_ || state_->done(); }

  /// True if this handle refers to a posted operation (even a finished one).
  [[nodiscard]] bool active() const { return state_ != nullptr; }

  /// Matched source rank of a completed receive; -1 until completion.
  [[nodiscard]] int source() const {
    return state_ ? state_->source() : kAnySource;
  }

  /// Backend access to the concrete state (downcast point). Null for
  /// inactive handles.
  [[nodiscard]] RequestState* state() const { return state_.get(); }

 private:
  std::unique_ptr<RequestState> state_;
};

/// The abstract per-rank communicator. One instance per rank per world;
/// obtained inside a run_world() body (net/registry.hpp). All operations
/// are blocking unless named i*; everything is safe to call only from the
/// owning rank's thread of control.
class Transport {
 public:
  virtual ~Transport() = default;

  // ---- primitives (each backend implements these) ----

  [[nodiscard]] virtual int rank() const = 0;
  [[nodiscard]] virtual int size() const = 0;
  [[nodiscard]] virtual const TransportCaps& caps() const = 0;

  /// Post a buffered send. Completes immediately (the returned request is
  /// already done); it exists so send/recv pairs read symmetrically and so
  /// waitall can cover both directions. Accepts the reserved tags.
  virtual Request isend_bytes(int dst, int tag, const void* data,
                              std::size_t bytes) = 0;

  /// Post a receive (src may be kAnySource). No data moves until
  /// test()/wait() matches a message; `data` must stay valid until then.
  /// Accepts the reserved tags.
  virtual Request irecv_bytes(int src, int tag, void* data,
                              std::size_t bytes) = 0;

  /// Nonblocking alltoall: block d of `send_data` goes to rank d, block s
  /// of `recv_data` arrives from rank s. All ranks must post the
  /// collectives of one `channel` in the same program order (a per-rank,
  /// per-channel sequence number disambiguates concurrent in-flight
  /// collectives); postings on different channels may interleave
  /// differently per rank. `channel` must be < caps().max_coll_channels.
  virtual Request ialltoall(cspan send_data, mspan recv_data,
                            std::int64_t count,
                            AlltoallAlgo algo = AlltoallAlgo::kPairwise,
                            int channel = 0) = 0;

  /// Nonblocking alltoallv (counts/displacements per destination/source,
  /// in complex elements). `recv_counts`/`recv_displs` are captured by
  /// pointer and must outlive the request. Same per-channel ordering
  /// contract as ialltoall.
  virtual Request ialltoallv(cspan send_data,
                             std::span<const std::int64_t> send_counts,
                             std::span<const std::int64_t> send_displs,
                             mspan recv_data,
                             std::span<const std::int64_t> recv_counts,
                             std::span<const std::int64_t> recv_displs,
                             int channel = 0) = 0;

  /// One progress attempt on the calling rank's mailbox; true when the
  /// request has completed. Never blocks.
  virtual bool test(Request& req) = 0;

  /// One deadline-bounded completion attempt: progress, sleep until the
  /// deadline, run the backend's recovery at expiry (counting the expiry
  /// in FaultStats::timeouts), and report whether the request finished.
  /// timeout_ms <= 0 blocks until completion. Throws
  /// soi::PayloadCorruptionError when a payload fails verification and
  /// recovery is disabled or impossible; never throws on timeout (wait()
  /// owns the retry policy).
  virtual bool wait_for(Request& req, double timeout_ms) = 0;

  virtual void barrier() = 0;

  /// Element-wise reduction over all ranks, in place — one rendezvous for
  /// the whole vector. Every backend must hand BIT-IDENTICAL result
  /// vectors to every rank (a single accumulation broadcast to all, or a
  /// rank-ordered reduction — never an order-varying tree per rank), so
  /// collective guards above the ABI stay consistent across the world.
  virtual void allreduce(std::span<double> values, ReduceOp op) = 0;

  /// Install the world's resilience configuration (fault injector,
  /// deadlines, retry budget). First caller wins; later calls are no-ops,
  /// so every rank may call it with the same options. Worlds from
  /// run_world(n, opts, body) are pre-configured.
  virtual void configure_resilience(const NetOptions& opts) = 0;

  /// True when this world can experience or recover from faults: a fault
  /// injector is installed or a wait deadline is configured. World-global
  /// (every rank sees the same answer), so callers may condition
  /// collective call patterns on it.
  [[nodiscard]] virtual bool resilience_active() const = 0;

  /// Base deadline of one wait attempt in ms (0 = unbounded waits).
  [[nodiscard]] virtual double timeout_ms() const = 0;
  /// Bounded-wait retry budget (0 = recovery disabled).
  [[nodiscard]] virtual int max_retries() const = 0;
  /// Snapshot of the world-wide fault/recovery counters.
  [[nodiscard]] virtual FaultStats fault_stats() const = 0;

  /// Shared traffic recorder for the whole world (same object on all
  /// ranks; empty and inert on backends without caps().traffic_events).
  [[nodiscard]] virtual TrafficLog& traffic() = 0;

  /// Monotonic payload bytes THIS rank has sent (p2p and collectives;
  /// own-block copies inside collectives are not sends). Pipeline stages
  /// read the delta around a communication call to trace measured
  /// per-stage byte volumes.
  [[nodiscard]] virtual std::int64_t bytes_sent() const = 0;

  // ---- derived operations (written once, over the primitives) ----

  // -- point to point; user tags must be >= 0 --
  void send_bytes(int dst, int tag, const void* data, std::size_t bytes);
  void recv_bytes(int src, int tag, void* data, std::size_t bytes);
  void send(int dst, int tag, cspan data) {
    send_bytes(dst, tag, data.data(), data.size_bytes());
  }
  void recv(int src, int tag, mspan data) {
    recv_bytes(src, tag, data.data(), data.size_bytes());
  }
  Request isend(int dst, int tag, cspan data);
  Request irecv(int src, int tag, mspan data);

  /// Simultaneous exchange. Sends are buffered, so send-then-recv cannot
  /// deadlock even for self/neighbour cycles.
  void sendrecv(int dst, cspan send_data, int src, mspan recv_data, int tag);

  /// Non-blocking receive attempt: if a matching message is already
  /// queued, consume it into `data` and return true; otherwise return
  /// false immediately (the unmatched posting is dropped).
  bool try_recv(int src, int tag, mspan data);

  /// Block until the request completes and return its retry count: the
  /// attempts that expired without completing. Under the world's
  /// resilience configuration (timeout_ms() > 0) each attempt is a
  /// wait_for whose deadline doubles after every such expiry;
  /// soi::CommTimeoutError after max_retries() + 1 of them. An expiry
  /// whose recovery completes the request ends the wait without a retry
  /// (FaultStats::timeouts still counts it). Unbounded worlds block and
  /// return 0.
  int wait(Request& req);

  /// wait() over a span, in order.
  void waitall(std::span<Request> reqs) {
    for (auto& r : reqs) wait(r);
  }

  // -- collectives --
  void bcast(mspan data, int root);
  /// Root gathers size-per-rank blocks in rank order.
  void gather(cspan send_data, mspan recv_data, int root);
  void allgather(cspan send_data, mspan recv_data);
  double allreduce_sum(double value);
  double allreduce_max(double value);
  void allreduce_sum(std::span<double> values) {
    allreduce(values, ReduceOp::kSum);
  }

  /// Blocking alltoall: ialltoall on channel 0 + wait (see the channel-0
  /// rule in the header comment). This is the single global transpose of
  /// the SOI algorithm.
  void alltoall(cspan send_data, mspan recv_data, std::int64_t count,
                AlltoallAlgo algo = AlltoallAlgo::kPairwise);

  /// Blocking alltoallv: ialltoallv on channel 0 + wait.
  void alltoallv(cspan send_data, std::span<const std::int64_t> send_counts,
                 std::span<const std::int64_t> send_displs, mspan recv_data,
                 std::span<const std::int64_t> recv_counts,
                 std::span<const std::int64_t> recv_displs);

  /// Human-readable warnings, one per NetOptions field this backend cannot
  /// honour (capability mismatches are reported, never silently ignored).
  /// Empty when every requested option is supported.
  [[nodiscard]] std::vector<std::string> unsupported_options(
      const NetOptions& opts) const;

 protected:
  /// Tag of this rank's next ialltoall(v) posting on `channel` (checked
  /// against caps().max_coll_channels): -16 - (seq * kMaxChannels +
  /// channel) for the channel's seq-th posting. All ranks post one
  /// channel's collectives in the same program order, so every rank
  /// derives the same tag; channels occupy disjoint residues, so postings
  /// on different channels never cross-match.
  int next_coll_tag(int channel);

  /// The uniform layout of an ialltoall, after checking `count` and both
  /// buffer sizes.
  [[nodiscard]] BlockLayout alltoall_layout(cspan send_data, mspan recv_data,
                                            std::int64_t count) const;

  /// Checks ialltoallv's arguments (one entry per rank, matching own
  /// block) and returns the {send, recv} layouts.
  [[nodiscard]] std::pair<BlockLayout, BlockLayout> alltoallv_layouts(
      std::span<const std::int64_t> send_counts,
      std::span<const std::int64_t> send_displs,
      std::span<const std::int64_t> recv_counts,
      std::span<const std::int64_t> recv_displs) const;

 private:
  int coll_seq_[kMaxChannels] = {};
};

/// Caps-driven capability check shared by every backend (and usable
/// statically, before a world exists, from the registry's caps table):
/// one warning string per NetOptions field `caps` cannot honour.
std::vector<std::string> unsupported_option_warnings(const TransportCaps& caps,
                                                     const NetOptions& opts);

/// Environment knobs fill any NetOptions field left at its default:
/// SOI_FAULTS (spec string), SOI_TIMEOUT_MS, SOI_MAX_RETRIES,
/// SOI_CHECKSUMS=0. Every backend's world launcher resolves through this.
NetOptions resolve_env_options(NetOptions opts);

}  // namespace soi::net
