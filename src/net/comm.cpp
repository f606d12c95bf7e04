#include "net/comm.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <exception>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <unordered_set>

#include "net/erasure.hpp"
#include "net/registry.hpp"

namespace soi::net {

namespace detail {

namespace {
// When faults are active but no deadline was configured, waits must still
// be bounded or an injected drop would hang the world.
constexpr double kDefaultFaultTimeoutMs = 50.0;

std::chrono::steady_clock::duration to_duration(double ms) {
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}
}  // namespace

struct Message {
  int src = 0;
  int tag = 0;
  std::vector<std::byte> payload;
  /// Emulated wire latency: the message exists in the mailbox from push
  /// time (so ordering and recovery metadata behave normally) but only
  /// becomes matchable once the clock passes this stamp. Default-epoch
  /// means immediately visible (latency emulation off).
  std::chrono::steady_clock::time_point visible_at{};
  // Integrity + recovery metadata. `crc` covers the payload as sent;
  // `seq` numbers the src->dst channel; `reliable` marks messages sent
  // while the injector was engaged (only those carry a retained clean
  // copy and participate in sequence-number dedup, so mixed-mode worlds
  // stay well-defined).
  std::uint32_t crc = 0;
  std::uint64_t seq = 0;
  bool has_crc = false;
  bool reliable = false;
};

struct Mailbox {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Message> msgs;
  // Resilience state (only populated in reliable mode; the fault-free
  // path never touches these):
  std::deque<Message> delayed;   ///< injector-parked, promoted on deadline
  std::deque<Message> retained;  ///< clean copies pending delivery
  std::unordered_set<std::uint64_t> delivered;  ///< (src, seq) dedup keys
  std::unordered_set<int> cancelled;  ///< tags of dropped collectives
};

struct World {
  explicit World(int n)
      : nranks(n),
        boxes(static_cast<std::size_t>(n)),
        sent_bytes(static_cast<std::size_t>(n), 0),
        chan_seq(static_cast<std::size_t>(n) * static_cast<std::size_t>(n),
                 0) {}

  int nranks;
  std::deque<Mailbox> boxes;  // deque: Mailbox is not movable
  // Per-rank sent-payload counters; each slot is only ever written by its
  // own rank's thread (senders update their own entry).
  std::vector<std::int64_t> sent_bytes;
  // Per-channel (src*nranks+dst) message sequence numbers; slot src*n+dst
  // is only ever touched by rank src's thread.
  std::vector<std::uint64_t> chan_seq;

  // Resilience configuration. Installed once (configure(), first caller
  // wins) and read lock-free on the send/wait hot paths; the raw injector
  // pointer is published with release ordering and owned by the world.
  std::mutex cfg_mu;
  bool configured = false;
  std::unique_ptr<const FaultInjector> injector_owned;
  std::atomic<const FaultInjector*> injector{nullptr};
  std::atomic<double> timeout_ms{0.0};
  std::atomic<int> max_retries{8};
  std::atomic<bool> checksums{true};
  /// Emulated per-message wire latency in seconds (0 = off). Read on the
  /// send and match hot paths; the zero value keeps both byte-identical
  /// to the latency-free transport.
  std::atomic<double> wire_latency_s{0.0};
  /// Cheap intra-group latency tier (seconds) and the node-group size
  /// that selects it: a message whose source and destination share
  /// rank / latency_group pays intra_latency_s instead of
  /// wire_latency_s. latency_group == 0 disables the split.
  std::atomic<double> intra_latency_s{0.0};
  std::atomic<int> latency_group{0};
  /// Set when the injector spec contains a straggler rule: stragglers are
  /// expressed purely through Message::visible_at, so matching must honor
  /// the stamps even when no latency tier is configured.
  std::atomic<bool> straggle_active{false};
  FaultStatsAtomic stats;

  /// True when any latency tier is emulated — matching must then honor
  /// Message::visible_at stamps (even intra-only configurations stamp).
  bool latency_emulated() const {
    return wire_latency_s.load(std::memory_order_relaxed) > 0 ||
           intra_latency_s.load(std::memory_order_relaxed) > 0 ||
           straggle_active.load(std::memory_order_relaxed);
  }

  /// Emulated latency of one src -> dst message, in seconds.
  double message_latency_s(int src, int dst) const {
    const int g = latency_group.load(std::memory_order_relaxed);
    if (g > 0 && src / g == dst / g) {
      return intra_latency_s.load(std::memory_order_relaxed);
    }
    return wire_latency_s.load(std::memory_order_relaxed);
  }

  // Generation-counted barrier.
  std::mutex bar_mu;
  std::condition_variable bar_cv;
  int bar_waiting = 0;
  std::uint64_t bar_gen = 0;

  // Generation-counted reduction rendezvous.
  std::mutex red_mu;
  std::condition_variable red_cv;
  int red_count = 0;
  std::uint64_t red_gen = 0;
  std::vector<double> red_acc;
  std::vector<double> red_result;

  // Set when a rank's body failed: every blocked wait unwinds with
  // WorldAbortedError instead of deadlocking on a peer that will never
  // arrive (run_ranks resurfaces the primary error, not these).
  std::atomic<bool> aborted{false};

  TrafficLog traffic;

  void configure(const NetOptions& opts);

  /// Mark the world dead and wake every sleeper (mailboxes, barrier,
  /// reduction rendezvous) so they observe `aborted` and throw.
  void abort_world() {
    aborted.store(true, std::memory_order_release);
    for (auto& b : boxes) {
      std::lock_guard<std::mutex> lock(b.mu);  // guarantee no missed wakeup
      b.cv.notify_all();
    }
    {
      std::lock_guard<std::mutex> lock(bar_mu);
      bar_cv.notify_all();
    }
    {
      std::lock_guard<std::mutex> lock(red_mu);
      red_cv.notify_all();
    }
  }

  void check_alive() const {
    if (aborted.load(std::memory_order_acquire)) {
      throw WorldAbortedError(
          "comm: world aborted after a failure on a peer rank");
    }
  }

  void push(int dst, Message msg) {
    auto& box = boxes[static_cast<std::size_t>(dst)];
    {
      std::lock_guard<std::mutex> lock(box.mu);
      if (box.cancelled.count(msg.tag) == 0) {
        box.msgs.push_back(std::move(msg));
      }
    }
    box.cv.notify_all();
  }
};

void World::configure(const NetOptions& opts) {
  std::lock_guard<std::mutex> lock(cfg_mu);
  if (configured) return;
  configured = true;
  double t = opts.timeout_ms;
  if (opts.faults.any() && t <= 0) t = kDefaultFaultTimeoutMs;
  checksums.store(opts.checksums, std::memory_order_relaxed);
  max_retries.store(opts.max_retries, std::memory_order_relaxed);
  timeout_ms.store(t, std::memory_order_relaxed);
  wire_latency_s.store(std::max(opts.wire_latency_us, 0.0) * 1e-6,
                       std::memory_order_relaxed);
  intra_latency_s.store(std::max(opts.intra_latency_us, 0.0) * 1e-6,
                        std::memory_order_relaxed);
  latency_group.store(std::max(opts.topo_group_size, 0),
                      std::memory_order_relaxed);
  if (opts.faults.any()) {
    for (const FaultRule& r : opts.faults.rules) {
      if (r.kind == FaultKind::kStraggler) {
        straggle_active.store(true, std::memory_order_relaxed);
      }
    }
    injector_owned = std::make_unique<FaultInjector>(opts.faults);
    injector.store(injector_owned.get(), std::memory_order_release);
  }
}

namespace {

std::uint64_t dedup_key(int src, std::uint64_t seq) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 48) |
         seq;
}

/// Move every injector-parked message into the deliverable queue.
/// Caller holds the mailbox mutex.
int promote_delayed_locked(Mailbox& box) {
  int moved = 0;
  while (!box.delayed.empty()) {
    box.msgs.push_back(std::move(box.delayed.front()));
    box.delayed.pop_front();
    ++moved;
  }
  return moved;
}

/// Drop the retained clean copy of a delivered message.
/// Caller holds the mailbox mutex.
void erase_retained_locked(Mailbox& box, int src, int tag, std::uint64_t seq) {
  for (auto it = box.retained.begin(); it != box.retained.end(); ++it) {
    if (it->src == src && it->tag == tag && it->seq == seq) {
      box.retained.erase(it);
      return;
    }
  }
}

/// Re-queue the retained clean copies of every undelivered (src, tag)
/// message — the receiver-driven, idempotent retransmit. Returns how many
/// were moved. Caller holds the mailbox mutex.
int requeue_retained_locked(World& w, Mailbox& box, int src, int tag) {
  int moved = 0;
  for (auto it = box.retained.begin(); it != box.retained.end();) {
    const bool pending =
        (src == kAnySource || it->src == src) && it->tag == tag &&
        box.delivered.count(dedup_key(it->src, it->seq)) == 0;
    if (pending) {
      box.msgs.push_back(std::move(*it));
      it = box.retained.erase(it);
      ++moved;
    } else {
      ++it;
    }
  }
  if (moved > 0) {
    w.stats.retransmits.fetch_add(moved, std::memory_order_relaxed);
  }
  return moved;
}

/// Coded tags are reused only every kCodedEpochCycle exchanges, and the
/// coded receive path may abandon shards it no longer needs (a parity
/// shard arriving after its codeword already reconstructed, or a shard
/// whose wire copy was dropped and recovered from parity instead). Any
/// queued or retained copy with a lower sequence number than a freshly
/// delivered shard on the same (src, tag) channel belongs to a previous
/// epoch and can never be wanted again — purge it so abandoned shards do
/// not accumulate across epochs. Caller holds the mailbox mutex.
void gc_stale_coded_locked(Mailbox& box, int src, int tag, std::uint64_t seq) {
  const auto stale = [&](const Message& p) {
    return p.src == src && p.tag == tag && p.reliable && p.seq < seq;
  };
  for (std::deque<Message>* q : {&box.msgs, &box.delayed, &box.retained}) {
    for (auto it = q->begin(); it != q->end();) {
      if (stale(*it)) {
        it = q->erase(it);
      } else {
        ++it;
      }
    }
  }
}

/// Ordered match for reliable traffic. An engaged injector can scramble
/// the queue order of one (src, tag) channel — a dropped or delayed
/// message leaves the queue while a LATER same-tag send (e.g. the next
/// blocking alltoall's block, which reuses the collective tag) arrives
/// first, and positional matching would deliver it into the earlier
/// receive. Restore the FIFO contract by sequence number: deliver the
/// lowest undelivered seq, and refuse to deliver while an earlier
/// undelivered copy of the channel is still parked in the delayed or
/// retained queues (the bounded wait + retransmit recovery surfaces it).
/// Unreliable messages (sent before the injector engaged) cannot be
/// reordered and keep plain queue-position matching.
/// Caller holds the mailbox mutex.
std::optional<Message> match_ordered_locked(
    Mailbox& box, int src, int tag,
    std::chrono::steady_clock::time_point now) {
  auto chosen = box.msgs.end();
  for (auto it = box.msgs.begin(); it != box.msgs.end(); ++it) {
    if ((src != kAnySource && it->src != src) || it->tag != tag ||
        it->visible_at > now) {
      continue;
    }
    if (!it->reliable) {  // pre-injector traffic precedes all reliable sends
      chosen = it;
      break;
    }
    if (chosen == box.msgs.end() || it->seq < chosen->seq) chosen = it;
  }
  if (chosen == box.msgs.end()) return std::nullopt;
  // Coded shards opt out of the parked-copy refusal: each shard travels on
  // its own tag, a missing shard is an ERASURE the codec absorbs, and a
  // lower-seq parked copy on the same tag is a previous epoch's leftover —
  // blocking on it would turn every erasure back into a retransmit wait.
  if (chosen->reliable && !is_coded_tag(tag)) {
    const int csrc = chosen->src;
    const std::uint64_t cseq = chosen->seq;
    const auto earlier_parked = [&](const std::deque<Message>& q) {
      for (const auto& p : q) {
        if (p.src == csrc && p.tag == tag && p.reliable && p.seq < cseq &&
            box.delivered.count(dedup_key(p.src, p.seq)) == 0) {
          return true;
        }
      }
      return false;
    };
    if (earlier_parked(box.delayed) || earlier_parked(box.retained)) {
      return std::nullopt;
    }
  }
  Message m = std::move(*chosen);
  box.msgs.erase(chosen);
  return m;
}


/// Match + verify loop: dedup stale duplicates/retransmits, check size and
/// CRC, and on a verification failure either recover (re-queue the retained
/// clean copy and match again) or throw soi::PayloadCorruptionError.
/// Caller holds the mailbox mutex.
std::optional<Message> take_verified_locked(World& w, Mailbox& box, int src,
                                            int tag,
                                            std::size_t expected_bytes) {
  const auto now = w.latency_emulated()
                       ? std::chrono::steady_clock::now()
                       : std::chrono::steady_clock::time_point::max();
  for (;;) {
    auto m = match_ordered_locked(box, src, tag, now);
    if (!m.has_value()) return std::nullopt;
    std::uint64_t key = 0;
    if (m->reliable) {
      key = dedup_key(m->src, m->seq);
      if (box.delivered.count(key) != 0) continue;  // stale duplicate
    }
    const bool size_ok = m->payload.size() == expected_bytes;
    // Verify the checksum only for messages that crossed the simulated
    // unreliable wire (`reliable` = an injector was engaged at send). A
    // plain in-process queue move cannot corrupt the payload, so
    // re-hashing every fault-free delivery would be dead work on the
    // critical path; the stamp is still computed unconditionally so any
    // consumer (or a future real-network backend) can verify.
    const bool crc_ok =
        !m->has_crc || !m->reliable ||
        crc32(m->payload.data(), m->payload.size()) == m->crc;
    if (size_ok && crc_ok) {
      if (m->reliable) {
        box.delivered.insert(key);
        erase_retained_locked(box, m->src, tag, m->seq);
        if (is_coded_tag(tag)) {
          gc_stale_coded_locked(box, m->src, tag, m->seq);
        }
      }
      return m;
    }
    w.stats.checksum_failures.fetch_add(1, std::memory_order_relaxed);
    if (m->reliable && is_coded_tag(tag)) {
      // A corrupt or truncated coded shard is an ERASURE, not a
      // retransmit trigger: discard the bad wire copy and let the codec
      // reconstruct from parity. The retained clean copy stays put — the
      // > r-losses fallback path can still surface it via the bounded
      // wait's requeue.
      continue;
    }
    if (m->reliable && w.max_retries.load(std::memory_order_relaxed) > 0) {
      // Recovery on: re-queue the retained clean copy (if still held) and
      // keep scanning. A failed requeue must NOT be fatal — when a message
      // is both duplicated and corrupted, both wire copies are corrupt and
      // the clean copy may already sit in the queue BEHIND the second bad
      // one (the first failure consumed the retained slot). Each loop
      // iteration removes one matching message, so this terminates; if the
      // queue drains without a verified match the caller's bounded wait
      // takes over.
      requeue_retained_locked(w, box, m->src, tag);
      continue;
    }
    std::ostringstream os;
    os << "recv: expected " << expected_bytes << " bytes from rank "
       << m->src << " tag " << tag << ", got " << m->payload.size();
    if (!crc_ok) os << " (CRC mismatch)";
    throw PayloadCorruptionError(os.str());
  }
}

/// Earliest visibility stamp among queued (src, tag) matches, if any.
/// After a failed take_verified_locked, every remaining match is still in
/// wire flight — a blocking wait must wake at this stamp (no further
/// notify is coming for an already-pushed message). Caller holds the
/// mailbox mutex.
std::optional<std::chrono::steady_clock::time_point> earliest_match_locked(
    const Mailbox& box, int src, int tag) {
  std::optional<std::chrono::steady_clock::time_point> best;
  for (const auto& m : box.msgs) {
    if ((src == kAnySource || m.src == src) && m.tag == tag &&
        (!best.has_value() || m.visible_at < *best)) {
      best = m.visible_at;
    }
  }
  return best;
}

/// Discard a collective a receiver gave up on: purge its queued blocks and
/// make push() drop future arrivals for its (never reused) tag.
void cancel_collective(World& w, int owner, int tag) {
  auto& box = w.boxes[static_cast<std::size_t>(owner)];
  std::lock_guard<std::mutex> lock(box.mu);
  box.cancelled.insert(tag);
  const auto has_tag = [tag](const Message& m) { return m.tag == tag; };
  std::erase_if(box.msgs, has_tag);
  std::erase_if(box.delayed, has_tag);
  std::erase_if(box.retained, has_tag);
}

}  // namespace

}  // namespace detail

void SimRequest::release() noexcept {
  if (kind_ == Kind::kColl && !done_ && world_ != nullptr) {
    detail::cancel_collective(*world_, owner_, tag_);
  }
  kind_ = Kind::kNone;
  done_ = true;
  world_ = nullptr;
}

Comm::Comm(std::shared_ptr<detail::World> world, int rank)
    : world_(std::move(world)), rank_(rank) {}

int Comm::size() const { return world_->nranks; }

namespace {
constexpr TransportCaps kSimCaps{
    /*name=*/"sim",
    /*max_coll_channels=*/kMaxChannels,
    /*alltoall_algo_choice=*/true,
    /*checksums=*/true,
    /*fault_injection=*/true,
    /*latency_emulation=*/true,
    /*traffic_events=*/true,
    /*threaded_world=*/true,
    /*cross_process=*/false,
};
}  // namespace

const TransportCaps& Comm::caps() const { return kSimCaps; }

TrafficLog& Comm::traffic() { return world_->traffic; }

std::int64_t Comm::bytes_sent() const {
  return world_->sent_bytes[static_cast<std::size_t>(rank_)];
}

void Comm::configure_resilience(const NetOptions& opts) {
  world_->configure(opts);
}

double Comm::timeout_ms() const {
  return world_->timeout_ms.load(std::memory_order_relaxed);
}

int Comm::max_retries() const {
  return world_->max_retries.load(std::memory_order_relaxed);
}

FaultStats Comm::fault_stats() const { return world_->stats.snapshot(); }

namespace {
/// Buffered send. Only user-tag (>= 0) sends record a kP2P event; the
/// reserved tags belong to collectives, which record one aggregated event.
void send_impl(detail::World& w, int src, int dst, int tag, const void* data,
               std::size_t bytes) {
  SOI_CHECK(dst >= 0 && dst < w.nranks,
            "send: destination rank " << dst << " out of range");
  const FaultInjector* inj =
      w.injector.load(std::memory_order_acquire);
  if (inj != nullptr && inj->spec().stall_rank == src &&
      inj->spec().stall_ms > 0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(inj->spec().stall_ms));
  }
  detail::Message m;
  m.src = src;
  m.tag = tag;
  const double lat_s = w.message_latency_s(src, dst);
  if (lat_s > 0) {
    m.visible_at = std::chrono::steady_clock::now() +
                   std::chrono::duration_cast<
                       std::chrono::steady_clock::duration>(
                       std::chrono::duration<double>(lat_s));
  }
  m.payload.resize(bytes);
  if (bytes > 0) std::memcpy(m.payload.data(), data, bytes);
  if (w.checksums.load(std::memory_order_relaxed)) {
    m.crc = crc32(data, bytes);
    m.has_crc = true;
  }
  w.sent_bytes[static_cast<std::size_t>(src)] +=
      static_cast<std::int64_t>(bytes);
  if (tag >= 0) {
    w.traffic.record({CommEvent::Kind::kP2P, 2,
                      static_cast<std::int64_t>(bytes), 1});
  }
  if (inj == nullptr) {
    w.push(dst, std::move(m));
    return;
  }

  // Reliable mode: stamp the channel sequence number, retain a clean copy
  // in the destination mailbox (the recovery source for drops and
  // corruption), then deliver whatever the injector decides the wire copy
  // looks like.
  m.reliable = true;
  m.seq = ++w.chan_seq[static_cast<std::size_t>(src) *
                           static_cast<std::size_t>(w.nranks) +
                       static_cast<std::size_t>(dst)];
  const FaultInjector::Action act = inj->decide(src, dst, tag, m.seq, bytes);
  auto& st = w.stats;
  auto& box = w.boxes[static_cast<std::size_t>(dst)];
  {
    std::lock_guard<std::mutex> lock(box.mu);
    if (box.cancelled.count(tag) != 0) return;  // receiver gave this up
    box.retained.push_back(m);
    if (act.fired()) st.faults_injected.fetch_add(1, std::memory_order_relaxed);
    if (act.drop) {
      st.drops.fetch_add(1, std::memory_order_relaxed);
    } else {
      detail::Message wire = std::move(m);
      if (act.truncate && !wire.payload.empty()) {
        wire.payload.resize(wire.payload.size() / 2);
        st.truncations.fetch_add(1, std::memory_order_relaxed);
      }
      if (act.corrupt_bit >= 0 && !wire.payload.empty()) {
        const auto bit = static_cast<std::size_t>(act.corrupt_bit) %
                         (wire.payload.size() * 8);
        wire.payload[bit / 8] ^=
            static_cast<std::byte>(1u << (bit % 8));
        st.corruptions.fetch_add(1, std::memory_order_relaxed);
      }
      if (act.duplicate) {
        box.msgs.push_back(wire);  // second, independently matchable copy
        st.duplicates.fetch_add(1, std::memory_order_relaxed);
      }
      if (act.straggle_ms > 0.0) {
        // The wire copy arrives intact but late; the retained clean copy
        // keeps the original stamp so a retransmit is never slower than
        // the straggler it replaces.
        const auto base =
            wire.visible_at == std::chrono::steady_clock::time_point{}
                ? std::chrono::steady_clock::now()
                : wire.visible_at;  // stack on top of emulated wire latency
        wire.visible_at =
            base +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double, std::milli>(act.straggle_ms));
        st.stragglers.fetch_add(1, std::memory_order_relaxed);
      }
      if (act.delay) {
        box.delayed.push_back(std::move(wire));
        st.delays.fetch_add(1, std::memory_order_relaxed);
      } else {
        box.msgs.push_back(std::move(wire));
      }
    }
  }
  box.cv.notify_all();
}

}  // namespace

Request Comm::isend_bytes(int dst, int tag, const void* data,
                          std::size_t bytes) {
  send_impl(*world_, rank_, dst, tag, data, bytes);
  auto req = std::make_unique<SimRequest>();
  req->kind_ = SimRequest::Kind::kSend;
  req->done_ = true;  // buffered: complete at post time
  req->peer_ = dst;
  req->tag_ = tag;
  req->bytes_ = bytes;
  return Request(std::move(req));
}

Request Comm::irecv_bytes(int src, int tag, void* data, std::size_t bytes) {
  SOI_CHECK(src == kAnySource || (src >= 0 && src < world_->nranks),
            "irecv: source rank " << src << " out of range");
  auto req = std::make_unique<SimRequest>();
  req->kind_ = SimRequest::Kind::kRecv;
  req->done_ = false;
  req->peer_ = src;
  req->tag_ = tag;
  req->data_ = data;
  req->bytes_ = bytes;
  return Request(std::move(req));
}

Request Comm::ialltoall(cspan send_data, mspan recv_data, std::int64_t count,
                        AlltoallAlgo algo, int channel) {
  const BlockLayout b = alltoall_layout(send_data, recv_data, count);
  return post_exchange(send_data.data(), b, recv_data.data(), b, algo,
                       channel);
}

Request Comm::ialltoallv(cspan send_data,
                         std::span<const std::int64_t> send_counts,
                         std::span<const std::int64_t> send_displs,
                         mspan recv_data,
                         std::span<const std::int64_t> recv_counts,
                         std::span<const std::int64_t> recv_displs,
                         int channel) {
  const auto [sb, rb] =
      alltoallv_layouts(send_counts, send_displs, recv_counts, recv_displs);
  return post_exchange(send_data.data(), sb, recv_data.data(), rb,
                       AlltoallAlgo::kPairwise, channel);
}

Request Comm::post_exchange(const cplx* send, BlockLayout sb, cplx* recv,
                            BlockLayout rb, AlltoallAlgo algo, int channel) {
  auto& w = *world_;
  const int p = w.nranks;
  const int tag = next_coll_tag(channel);

  // Own block: straight copy at post time.
  std::copy_n(send + sb.offset(rank_), sb.size(rank_), recv + rb.offset(rank_));

  // Every send is posted here (buffered); only the receive side is
  // deferred. The algo picks the posting order: ring steps for pairwise,
  // rank order for direct.
  std::int64_t bytes_out = 0;
  for (int k = 0; k < p; ++k) {
    const int to = algo == AlltoallAlgo::kPairwise ? (rank_ + k) % p : k;
    if (to == rank_) continue;
    const std::size_t bytes = sb.size(to) * sizeof(cplx);
    send_impl(w, rank_, to, tag, send + sb.offset(to), bytes);
    bytes_out += static_cast<std::int64_t>(bytes);
  }
  if (rank_ == 0) {
    w.traffic.record({CommEvent::Kind::kAlltoall, p, bytes_out, p - 1});
  }

  auto req = std::make_unique<SimRequest>();
  req->kind_ = SimRequest::Kind::kColl;
  req->done_ = (p == 1);
  req->tag_ = tag;
  req->recv_base_ = recv;
  req->recv_layout_ = rb;
  req->next_step_ = 1;
  req->world_ = world_.get();
  req->owner_ = rank_;
  return Request(std::move(req));
}

bool Comm::progress_locked(SimRequest& req) {
  auto& w = *world_;
  auto& box = w.boxes[static_cast<std::size_t>(rank_)];
  switch (req.kind_) {
    case SimRequest::Kind::kNone:
    case SimRequest::Kind::kSend:
      return true;
    case SimRequest::Kind::kRecv: {
      auto m = detail::take_verified_locked(w, box, req.peer_, req.tag_,
                                            req.bytes_);
      if (!m.has_value()) return false;
      if (!m->payload.empty()) {
        std::memcpy(req.data_, m->payload.data(), m->payload.size());
      }
      req.src_matched_ = m->src;
      req.done_ = true;
      return true;
    }
    case SimRequest::Kind::kColl: {
      // Drain the remaining blocks in ring order: step k reads from
      // (rank - k) mod P. Ring order keeps the scan deterministic and
      // bounded; every block lands eventually because all sends were
      // posted when the collective was.
      const int p = w.nranks;
      while (req.next_step_ < p) {
        const int from = (rank_ - req.next_step_ + p) % p;
        auto m = detail::take_verified_locked(
            w, box, from, req.tag_, req.recv_layout_.size(from) * sizeof(cplx));
        if (!m.has_value()) return false;
        if (!m->payload.empty()) {
          std::memcpy(req.recv_base_ + req.recv_layout_.offset(from),
                      m->payload.data(), m->payload.size());
        }
        ++req.next_step_;
      }
      req.done_ = true;
      return true;
    }
  }
  return false;
}

bool Comm::test(Request& req) {
  auto* st = static_cast<SimRequest*>(req.state());
  if (st == nullptr || st->done_) return true;
  auto& box = world_->boxes[static_cast<std::size_t>(rank_)];
  std::lock_guard<std::mutex> lock(box.mu);
  return progress_locked(*st);
}

bool Comm::wait_for(Request& handle, double timeout_ms) {
  auto* st = static_cast<SimRequest*>(handle.state());
  if (st == nullptr || st->done_) return true;
  SimRequest& req = *st;
  auto& w = *world_;
  auto& box = w.boxes[static_cast<std::size_t>(rank_)];
  // The (src, tag) piece this request blocks on next: the posted source
  // for a recv, the current ring step for a collective. Used to wake a
  // blocked wait exactly when an emulated-wire match becomes visible.
  const auto pending_earliest =
      [&]() -> std::optional<std::chrono::steady_clock::time_point> {
    if (!w.latency_emulated()) {
      return std::nullopt;
    }
    if (req.kind_ == SimRequest::Kind::kRecv) {
      return detail::earliest_match_locked(box, req.peer_, req.tag_);
    }
    if (req.kind_ == SimRequest::Kind::kColl) {
      const int p = w.nranks;
      const int from = (rank_ - req.next_step_ + p) % p;
      return detail::earliest_match_locked(box, from, req.tag_);
    }
    return std::nullopt;
  };
  std::unique_lock<std::mutex> lock(box.mu);
  if (progress_locked(req)) return true;
  if (timeout_ms <= 0) {
    while (!progress_locked(req)) {
      w.check_alive();
      if (auto at = pending_earliest()) {
        box.cv.wait_until(lock, *at);
      } else {
        box.cv.wait(lock);
      }
    }
    return true;
  }
  const auto deadline =
      std::chrono::steady_clock::now() + detail::to_duration(timeout_ms);
  for (;;) {
    w.check_alive();
    if (progress_locked(req)) return true;
    auto wake = deadline;
    if (auto at = pending_earliest()) wake = std::min(wake, *at);
    if (box.cv.wait_until(lock, wake) == std::cv_status::timeout &&
        std::chrono::steady_clock::now() >= deadline) {
      // Deadline expired: count it whether or not the recovery below
      // succeeds (FaultStats::timeouts is "expired at least once"), promote
      // injector-parked messages, re-queue the retained clean copies of
      // this request's pending pieces, and give progress one final attempt.
      w.stats.timeouts.fetch_add(1, std::memory_order_relaxed);
      detail::promote_delayed_locked(box);
      if (w.injector.load(std::memory_order_acquire) != nullptr &&
          w.max_retries.load(std::memory_order_relaxed) > 0) {
        if (req.kind_ == SimRequest::Kind::kRecv) {
          detail::requeue_retained_locked(w, box, req.peer_, req.tag_);
        } else if (req.kind_ == SimRequest::Kind::kColl) {
          const int p = w.nranks;
          for (int k = req.next_step_; k < p; ++k) {
            detail::requeue_retained_locked(w, box, (rank_ - k + p) % p,
                                            req.tag_);
          }
        }
      }
      return progress_locked(req);
    }
  }
}

void Comm::barrier() {
  auto& w = *world_;
  std::unique_lock<std::mutex> lock(w.bar_mu);
  w.check_alive();
  const std::uint64_t gen = w.bar_gen;
  if (++w.bar_waiting == w.nranks) {
    w.bar_waiting = 0;
    ++w.bar_gen;
    w.bar_cv.notify_all();
  } else {
    w.bar_cv.wait(lock, [&w, gen] {
      return w.bar_gen != gen ||
             w.aborted.load(std::memory_order_acquire);
    });
    if (w.bar_gen == gen) w.check_alive();  // woken by abort, not release
  }
  if (rank_ == 0) {
    w.traffic.record({CommEvent::Kind::kBarrier, w.nranks, 0, 1});
  }
}

void Comm::allreduce(std::span<double> values, ReduceOp op) {
  auto& w = *world_;
  std::unique_lock<std::mutex> lock(w.red_mu);
  w.check_alive();
  const std::uint64_t gen = w.red_gen;
  if (w.red_count == 0) {
    w.red_acc.assign(values.begin(), values.end());
  } else {
    SOI_CHECK(w.red_acc.size() == values.size(),
              "allreduce: vector length mismatch across ranks");
    for (std::size_t i = 0; i < values.size(); ++i) {
      w.red_acc[i] = op == ReduceOp::kSum ? w.red_acc[i] + values[i]
                                          : std::max(w.red_acc[i], values[i]);
    }
  }
  if (++w.red_count == w.nranks) {
    w.red_result = w.red_acc;
    w.red_count = 0;
    ++w.red_gen;
    w.red_cv.notify_all();
    w.traffic.record({CommEvent::Kind::kAllreduce, w.nranks,
                      static_cast<std::int64_t>(values.size_bytes()), 1});
  } else {
    w.red_cv.wait(lock, [&w, gen] {
      return w.red_gen != gen || w.aborted.load(std::memory_order_acquire);
    });
    if (w.red_gen == gen) w.check_alive();  // woken by abort, not completion
  }
  std::copy(w.red_result.begin(), w.red_result.end(), values.begin());
}

bool Comm::resilience_active() const {
  return world_->injector.load(std::memory_order_acquire) != nullptr ||
         world_->timeout_ms.load(std::memory_order_relaxed) > 0;
}

std::vector<CommEvent> run_ranks(int nranks,
                                 const std::function<void(Comm&)>& body) {
  return run_ranks(nranks, NetOptions{}, body);
}

std::vector<CommEvent> run_ranks(int nranks, const NetOptions& opts,
                                 const std::function<void(Comm&)>& body) {
  SOI_CHECK(nranks >= 1, "run_ranks: need at least one rank");
  const NetOptions resolved = resolve_env_options(opts);
  auto world = std::make_shared<detail::World>(nranks);
  // Only a non-default configuration claims the configure slot; otherwise
  // it stays open for DistOptions-level plumbing to install one later.
  if (resolved.faults.any() || resolved.timeout_ms > 0 ||
      !resolved.checksums || resolved.wire_latency_us > 0 ||
      resolved.intra_latency_us > 0) {
    world->configure(resolved);
  }
  // Primary errors (a rank body failed on its own) are kept separate from
  // induced WorldAbortedErrors (a rank unwound only because a peer already
  // failed) so the root cause is what callers see. Any failure aborts the
  // world: peers blocked on messages or rendezvous that can now never
  // arrive wake up and unwind instead of deadlocking the join below.
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(nranks));
  std::vector<std::exception_ptr> aborts(static_cast<std::size_t>(nranks));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    threads.emplace_back([&world, &body, &errors, &aborts, r] {
      try {
        Comm comm(world, r);
        body(comm);
      } catch (const WorldAbortedError&) {
        aborts[static_cast<std::size_t>(r)] = std::current_exception();
        world->abort_world();
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
        world->abort_world();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  for (const auto& e : aborts) {
    if (e) std::rethrow_exception(e);
  }
  return world->traffic.events();
}

void register_sim_transport() {
  TransportRegistry::instance().register_backend(
      "sim",
      TransportBackend{
          kSimCaps,
          [](int nranks, const NetOptions& opts, const WorldBody& body) {
            return run_ranks(nranks, opts, [&body](Comm& comm) { body(comm); });
          },
      });
}

}  // namespace soi::net
