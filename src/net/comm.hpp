// SimMPI: the "sim" backend of the net::Transport ABI (net/transport.hpp).
// Ranks are threads inside one process, standing in for MPI on a real
// cluster: data movement and matching run for real, while communication
// *time* on cluster fabrics comes from the cost models in costmodel.hpp.
//
// What this backend owns — the Transport primitives: per-rank mailboxes
// with (src, tag) matching (kAnySource allowed), buffered isend/irecv, the
// ialltoall(v) ring schedules (pairwise or direct posting order), test,
// the deadline-bounded wait_for, a generation-counted barrier and the
// vector allreduce. Every derived operation (blocking p2p, wait's retry
// loop, bcast/gather/allgather, blocking all-to-all) is the Transport
// base's. Traffic: one aggregated CommEvent per collective, and kP2P only
// for user-tag (>= 0) sends.
//
// Requests are passive: sends complete at post time, and all receive-side
// progress happens on the waiting thread inside test()/wait_for(), which
// drain the caller's own mailbox. A dropped live collective is cancelled
// (its queued blocks purged, future arrivals for its tag discarded); a
// dropped receive forgets its posting.
//
// Resilience (NetOptions): every payload is CRC32-stamped at send. With a
// FaultSpec installed (env SOI_FAULTS, run_ranks options, or
// DistOptions::faults) messages also carry per-channel sequence numbers
// and a retained clean copy: verification failures and expired deadlines
// re-queue the retained copy (an idempotent, receiver-driven retransmit),
// duplicates are absorbed by sequence-number dedup, and injected delays,
// stragglers and emulated wire latency are honoured at match time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "net/traffic.hpp"
#include "net/transport.hpp"

namespace soi::net {

namespace detail {
struct World;
}

/// SimMPI's concrete request state behind the type-erased net::Request.
/// Fully passive: no registry, no background progress — completion is
/// driven by the owning rank's thread through test/wait_for.
/// Destruction cancels a live collective (see header comment).
class SimRequest final : public RequestState {
 public:
  SimRequest() = default;
  SimRequest(const SimRequest&) = delete;
  SimRequest& operator=(const SimRequest&) = delete;
  ~SimRequest() override { release(); }

  [[nodiscard]] bool done() const override { return done_; }
  [[nodiscard]] int source() const override { return src_matched_; }

 private:
  friend class Comm;
  enum class Kind : std::uint8_t {
    kNone,  ///< default-constructed, nothing to do
    kSend,  ///< completed at post time
    kRecv,  ///< completes when a matching message is drained
    kColl,  ///< alltoall(v): completes when all P-1 blocks have landed
  };

  /// Cancel a live collective (purge its blocks, discard future arrivals);
  /// no-op for every other state. Defined out of line (needs World).
  void release() noexcept;

  Kind kind_ = Kind::kNone;
  bool done_ = true;
  int peer_ = kAnySource;  ///< recv: source filter (or kAnySource)
  int tag_ = 0;
  int src_matched_ = -1;
  void* data_ = nullptr;  ///< recv payload destination
  std::size_t bytes_ = 0;

  // Collective state: remaining receives drain in ring order (step k reads
  // from (rank - k) mod P) during test/wait. The layout's counts/displs
  // are caller-owned and must outlive the request.
  int next_step_ = 1;
  cplx* recv_base_ = nullptr;
  BlockLayout recv_layout_;

  // Cancellation route for live collectives dropped without a wait.
  detail::World* world_ = nullptr;
  int owner_ = -1;
};

/// Per-rank communicator handle of the "sim" backend. Obtained from
/// run_ranks() (or net::run_world("sim", ...)); a view onto the shared
/// world.
class Comm final : public Transport {
 public:
  Comm(std::shared_ptr<detail::World> world, int rank);

  [[nodiscard]] int rank() const override { return rank_; }
  [[nodiscard]] int size() const override;
  [[nodiscard]] const TransportCaps& caps() const override;

  Request isend_bytes(int dst, int tag, const void* data,
                      std::size_t bytes) override;
  Request irecv_bytes(int src, int tag, void* data, std::size_t bytes) override;

  /// The own-block copy and every send happen at post time; the P-1
  /// receive blocks land during test()/wait_for().
  Request ialltoall(cspan send_data, mspan recv_data, std::int64_t count,
                    AlltoallAlgo algo = AlltoallAlgo::kPairwise,
                    int channel = 0) override;
  Request ialltoallv(cspan send_data,
                     std::span<const std::int64_t> send_counts,
                     std::span<const std::int64_t> send_displs,
                     mspan recv_data,
                     std::span<const std::int64_t> recv_counts,
                     std::span<const std::int64_t> recv_displs,
                     int channel = 0) override;

  bool test(Request& req) override;

  /// At expiry: promote injector-delayed messages and re-queue retained
  /// clean copies of the request's pending pieces, then one last attempt.
  bool wait_for(Request& req, double timeout_ms) override;

  void barrier() override;
  void allreduce(std::span<double> values, ReduceOp op) override;

  void configure_resilience(const NetOptions& opts) override;
  [[nodiscard]] bool resilience_active() const override;
  [[nodiscard]] double timeout_ms() const override;
  [[nodiscard]] int max_retries() const override;
  [[nodiscard]] FaultStats fault_stats() const override;
  [[nodiscard]] TrafficLog& traffic() override;
  [[nodiscard]] std::int64_t bytes_sent() const override;

 private:
  /// One completion attempt for `req`. Caller holds this rank's mailbox
  /// mutex; all receive-side data movement happens here, on the waiter's
  /// thread.
  bool progress_locked(SimRequest& req);

  /// Post one all-to-all: own-block copy, sends in `algo`'s order, one
  /// aggregated traffic event; the receives drain in ring order.
  Request post_exchange(const cplx* send, BlockLayout sb, cplx* recv,
                        BlockLayout rb, AlltoallAlgo algo, int channel);

  std::shared_ptr<detail::World> world_;
  int rank_;
};

/// Launch `nranks` rank bodies on dedicated threads and wait for all to
/// finish. Exceptions thrown by rank bodies are captured; the first one (by
/// rank order) is rethrown here after every thread has joined.
/// Returns a snapshot of the world's traffic events (cost-model input).
///
/// The two-argument form reads the resilience environment knobs
/// (SOI_FAULTS spec string, SOI_TIMEOUT_MS, SOI_MAX_RETRIES,
/// SOI_CHECKSUMS=0); the NetOptions overload configures the world
/// explicitly (environment fills only the fields left at their defaults).
///
/// This is the sim-pinned entry point (the body receives the concrete
/// Comm); transport-generic callers go through net::run_world()
/// (net/registry.hpp), which dispatches here for the "sim" backend.
std::vector<CommEvent> run_ranks(int nranks,
                                 const std::function<void(Comm&)>& body);
std::vector<CommEvent> run_ranks(int nranks, const NetOptions& opts,
                                 const std::function<void(Comm&)>& body);

/// Registers the "sim" backend in the TransportRegistry. Called exactly
/// once by the registry's lazy initialiser — not by user code.
void register_sim_transport();

}  // namespace soi::net
