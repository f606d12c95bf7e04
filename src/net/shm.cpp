#include "net/shm.hpp"

#include <poll.h>
#include <pthread.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <new>
#include <optional>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "net/registry.hpp"
#include "net/shm_frame.hpp"

namespace soi::net {

namespace shm_frame {

const char* validate_frame(const FrameHeader& h,
                           std::span<const FragCursor> cursors) {
  if (h.src < 0 || static_cast<std::size_t>(h.src) >= cursors.size()) {
    return "source rank out of range";
  }
  if (h.frag_bytes > kMaxFragPayload) return "fragment exceeds kMaxFragPayload";
  if (h.frag_offset > h.msg_bytes || h.frag_bytes > h.msg_bytes - h.frag_offset) {
    return "fragment extends past the message";
  }
  if (h.frag_bytes == 0 && h.msg_bytes != 0) {
    return "empty fragment of a non-empty message";
  }
  const FragCursor& cur = cursors[static_cast<std::size_t>(h.src)];
  if (!cur.open) {
    return h.frag_offset != 0 ? "message does not start at offset 0" : nullptr;
  }
  if (h.seq != cur.seq) return "fragment of another message while one is open";
  if (h.msg_bytes != cur.msg_bytes) {
    return "msg_bytes changed between fragments";
  }
  if (h.frag_offset != cur.received) return "fragment out of order";
  return nullptr;
}

}  // namespace shm_frame

namespace {

using shm_frame::FragCursor;
using shm_frame::FrameHeader;
using shm_frame::kMaxFragPayload;

// ---------------------------------------------------------------------------
// Shared-region layout
// ---------------------------------------------------------------------------

constexpr std::size_t kRingCapacity = std::size_t{1} << 20;  ///< per-rank inbox
constexpr std::size_t kMaxReduceLen = 1024;  ///< doubles per reduction
constexpr int kMaxShmRanks = 64;  ///< one bit each in RingHdr::waiters
constexpr std::size_t kMaxErrWhat = 480;
/// Staleness bound of the abort flag, and nothing more. Every blocking wait
/// is woken by an event (a push into the waiter's ring, a drain of the ring
/// it is blocked on, the last barrier or reduction arrival); this cap only
/// bounds how long a rank takes to notice a dead peer whose wakeup died
/// with it.
constexpr double kAbortPollMs = 25.0;
/// Free reassembly buffers a rank keeps for reuse.
constexpr std::size_t kPoolBuffers = 8;

/// Ring-buffer control block; the data area follows at a fixed offset.
/// head/tail are monotonic byte counters (offset = counter % capacity).
struct RingHdr {
  pthread_mutex_t mu;
  /// The owner's doorbell: broadcast on every push into this ring, and by
  /// any rank that drains a ring the owner is blocked on.
  pthread_cond_t cv;
  std::uint64_t head;
  std::uint64_t tail;
  /// Bumped (under mu) each time the owner frees space. Atomic because a
  /// blocked sender re-reads it under its OWN ring's mutex.
  std::atomic<std::uint64_t> drain_gen;
  std::uint64_t waiters;  ///< bit r: rank r is blocked on a full ring here
};

/// Typed error a failing rank records for the parent to rethrow.
struct ErrSlot {
  std::int32_t valid;   ///< 0 = none, 1 = primary, 2 = induced world-abort
  std::int32_t status;  ///< soi::Status of the primary error
  char what[kMaxErrWhat];
};

struct WorldHdr {
  std::int32_t nranks;
  std::atomic<int> aborted;

  // Resilience configuration (first configure_resilience caller wins).
  std::atomic<int> configured;
  std::atomic<double> timeout_ms;
  std::atomic<int> max_retries;
  std::atomic<int> checksums;

  // World-wide counters surfaced through fault_stats().
  std::atomic<std::int64_t> checksum_failures;
  std::atomic<std::int64_t> timeouts;

  // Generation-counted barrier.
  pthread_mutex_t bar_mu;
  pthread_cond_t bar_cv;
  std::int32_t bar_waiting;
  std::uint64_t bar_gen;

  // Generation-counted reduction rendezvous. Contributions land in
  // per-rank slots; the LAST arrival reduces them in RANK ORDER, so the
  // result bits are identical on every rank and independent of arrival
  // order.
  pthread_mutex_t red_mu;
  pthread_cond_t red_cv;
  std::int32_t red_count;
  std::uint64_t red_gen;
  std::uint64_t red_len;
  std::int32_t red_op;  ///< ReduceOp of the pending reduction
};

constexpr std::size_t align_up(std::size_t v, std::size_t a) {
  return (v + a - 1) / a * a;
}

/// Ring bytes one frame occupies (header + payload, 8-byte aligned).
constexpr std::size_t frame_bytes(std::size_t payload) {
  return align_up(sizeof(FrameHeader) + payload, 8);
}

struct Layout {
  std::size_t hdr_off;
  std::size_t err_off;
  std::size_t rings_off;
  std::size_t ring_stride;  ///< RingHdr + data area, per rank
  std::size_t red_off;      ///< (nranks + 1) * kMaxReduceLen doubles
  std::size_t total;
};

Layout compute_layout(int nranks) {
  Layout l{};
  l.hdr_off = 0;
  l.err_off = align_up(sizeof(WorldHdr), 64);
  l.rings_off = align_up(
      l.err_off + sizeof(ErrSlot) * static_cast<std::size_t>(nranks), 64);
  l.ring_stride = align_up(sizeof(RingHdr), 64) + kRingCapacity;
  l.red_off = align_up(
      l.rings_off + l.ring_stride * static_cast<std::size_t>(nranks), 64);
  l.total = align_up(l.red_off + sizeof(double) * kMaxReduceLen *
                                     static_cast<std::size_t>(nranks + 1),
                     4096);
  return l;
}

// ---------------------------------------------------------------------------
// pthread helpers (process-shared, monotonic-clock timed waits)
// ---------------------------------------------------------------------------

void init_shared_mutex(pthread_mutex_t* mu) {
  pthread_mutexattr_t attr;
  pthread_mutexattr_init(&attr);
  pthread_mutexattr_setpshared(&attr, PTHREAD_PROCESS_SHARED);
  pthread_mutex_init(mu, &attr);
  pthread_mutexattr_destroy(&attr);
}

void init_shared_cond(pthread_cond_t* cv) {
  pthread_condattr_t attr;
  pthread_condattr_init(&attr);
  pthread_condattr_setpshared(&attr, PTHREAD_PROCESS_SHARED);
  pthread_condattr_setclock(&attr, CLOCK_MONOTONIC);
  pthread_cond_init(cv, &attr);
  pthread_condattr_destroy(&attr);
}

class MutexLock {
 public:
  explicit MutexLock(pthread_mutex_t* mu) : mu_(mu) { pthread_mutex_lock(mu_); }
  ~MutexLock() { pthread_mutex_unlock(mu_); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  pthread_mutex_t* mu_;
};

/// Bounded condition wait (caller holds `mu`); never longer than `ms`.
void timed_wait_ms(pthread_cond_t* cv, pthread_mutex_t* mu, double ms) {
  if (ms <= 0) ms = 0.1;
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  const auto ns = static_cast<long>(ms * 1e6);
  ts.tv_nsec += ns % 1000000000L;
  ts.tv_sec += ns / 1000000000L + ts.tv_nsec / 1000000000L;
  ts.tv_nsec %= 1000000000L;
  pthread_cond_timedwait(cv, mu, &ts);
}

// ---------------------------------------------------------------------------
// The per-rank communicator (lives in the CHILD process)
// ---------------------------------------------------------------------------

/// Reassembly storage: uninitialised bytes whose capacity survives reuse
/// through the per-rank pool. A moved-from Buf is empty (no memory, cap 0),
/// so a stale one can never enter the pool as if it had capacity.
struct Buf {
  std::unique_ptr<std::byte[]> mem;
  std::size_t cap = 0;
  std::size_t size = 0;

  Buf() = default;
  Buf(Buf&& o) noexcept
      : mem(std::move(o.mem)),
        cap(std::exchange(o.cap, 0)),
        size(std::exchange(o.size, 0)) {}
  Buf& operator=(Buf&& o) noexcept {
    mem = std::move(o.mem);
    cap = std::exchange(o.cap, 0);
    size = std::exchange(o.size, 0);
    return *this;
  }
};

/// A message reassembled out of the ring, waiting in the process-local
/// mailbox for a matching receive.
struct LocalMsg {
  int src = 0;
  int tag = 0;
  std::uint32_t crc = 0;
  bool has_crc = false;
  Buf payload;
};

/// One peer's block of a posted exchange. Registered before the exchange
/// sends anything, so drain_ring can land the block straight from the ring
/// into `data` instead of reassembling it in a pool buffer.
struct Posting {
  enum class State : std::uint8_t {
    kPending,  ///< registered, nothing bound yet
    kLanding,  ///< a message's fragments are landing in `data`
    kLanded,   ///< whole message in `data`, CRC not yet verified
    kDone,
  };
  int src = 0;
  int tag = 0;
  std::byte* data = nullptr;
  std::size_t bytes = 0;
  State state = State::kDone;
  std::uint32_t crc = 0;
  bool has_crc = false;
};

class ShmComm;

/// shm's concrete request state. Passive, like SimRequest: completion is
/// driven by the owning rank through test/wait. Destruction of a live
/// collective withdraws its receive slots via the owning communicator.
class ShmRequest final : public RequestState {
 public:
  ShmRequest() = default;
  ~ShmRequest() override;

  [[nodiscard]] bool done() const override { return done_; }
  [[nodiscard]] int source() const override { return src_matched_; }

 private:
  friend class ShmComm;
  enum class Kind : std::uint8_t { kNone, kSend, kRecv, kColl };

  Kind kind_ = Kind::kNone;
  bool done_ = true;
  int peer_ = kAnySource;
  int tag_ = 0;
  int src_matched_ = -1;
  void* data_ = nullptr;
  std::size_t bytes_ = 0;

  int next_step_ = 1;
  std::vector<Posting> posts_;  ///< kColl: indexed by source rank

  ShmComm* owner_ = nullptr;  ///< cancellation route for dropped collectives
};

constexpr TransportCaps kShmCaps{
    /*name=*/"shm",
    /*max_coll_channels=*/kMaxChannels,
    /*alltoall_algo_choice=*/false,
    /*checksums=*/true,
    /*fault_injection=*/false,
    /*latency_emulation=*/false,
    /*traffic_events=*/false,
    /*threaded_world=*/false,
    /*cross_process=*/true,
};

class ShmComm final : public Transport {
 public:
  ShmComm(std::byte* base, const Layout& lay, int rank, int nranks)
      : base_(base),
        lay_(lay),
        hdr_(reinterpret_cast<WorldHdr*>(base)),
        rank_(rank),
        nranks_(nranks),
        cursors_(static_cast<std::size_t>(nranks)),
        inbound_(static_cast<std::size_t>(nranks)),
        send_seq_(static_cast<std::size_t>(nranks), 0),
        last_seq_from_(static_cast<std::size_t>(nranks), 0) {
    pool_.reserve(kPoolBuffers);
    posted_.reserve(static_cast<std::size_t>(4 * nranks));
  }

  [[nodiscard]] int rank() const override { return rank_; }
  [[nodiscard]] int size() const override { return nranks_; }
  [[nodiscard]] const TransportCaps& caps() const override { return kShmCaps; }

  Request isend_bytes(int dst, int tag, const void* data,
                      std::size_t bytes) override {
    send_message(dst, tag, data, bytes);
    auto req = std::make_unique<ShmRequest>();
    req->kind_ = ShmRequest::Kind::kSend;
    req->done_ = true;  // buffered: complete at post time
    req->peer_ = dst;
    req->tag_ = tag;
    req->bytes_ = bytes;
    return Request(std::move(req));
  }

  Request irecv_bytes(int src, int tag, void* data,
                      std::size_t bytes) override {
    SOI_CHECK(src == kAnySource || (src >= 0 && src < nranks_),
              "irecv: source rank " << src << " out of range");
    auto req = std::make_unique<ShmRequest>();
    req->kind_ = ShmRequest::Kind::kRecv;
    req->done_ = false;
    req->peer_ = src;
    req->tag_ = tag;
    req->data_ = data;
    req->bytes_ = bytes;
    req->owner_ = this;
    return Request(std::move(req));
  }

  Request ialltoall(cspan send_data, mspan recv_data, std::int64_t count,
                    AlltoallAlgo algo, int channel) override {
    (void)algo;  // one native schedule (caps().alltoall_algo_choice == false)
    const BlockLayout b = alltoall_layout(send_data, recv_data, count);
    return post_exchange(next_coll_tag(channel), send_data.data(), b,
                         recv_data.data(), b);
  }

  Request ialltoallv(cspan send_data,
                     std::span<const std::int64_t> send_counts,
                     std::span<const std::int64_t> send_displs,
                     mspan recv_data,
                     std::span<const std::int64_t> recv_counts,
                     std::span<const std::int64_t> recv_displs,
                     int channel) override {
    const auto [sb, rb] =
        alltoallv_layouts(send_counts, send_displs, recv_counts, recv_displs);
    return post_exchange(next_coll_tag(channel), send_data.data(), sb,
                         recv_data.data(), rb);
  }

  bool test(Request& req) override {
    auto* st = static_cast<ShmRequest*>(req.state());
    if (st == nullptr || st->done_) return true;
    drain_ring();
    return progress(*st);
  }

  bool wait_for(Request& req, double timeout_ms) override {
    auto* st = static_cast<ShmRequest*>(req.state());
    if (st == nullptr || st->done_) return true;
    const bool bounded = timeout_ms > 0;
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration<double, std::milli>(bounded ? timeout_ms : 0.0);
    for (;;) {
      drain_ring();
      if (progress(*st)) return true;
      check_alive();
      double wait_ms = kAbortPollMs;
      if (bounded) {
        const double remaining =
            std::chrono::duration<double, std::milli>(
                deadline - std::chrono::steady_clock::now())
                .count();
        if (remaining <= 0) {
          // Count every expired deadline, recovered or not.
          hdr_->timeouts.fetch_add(1, std::memory_order_relaxed);
          drain_ring();
          return progress(*st);
        }
        wait_ms = std::min(wait_ms, remaining);
      }
      wait_for_inbox(wait_ms);
    }
  }

  void barrier() override {
    auto& h = *hdr_;
    MutexLock lock(&h.bar_mu);
    check_alive();
    const std::uint64_t gen = h.bar_gen;
    if (++h.bar_waiting == nranks_) {
      h.bar_waiting = 0;
      ++h.bar_gen;
      pthread_cond_broadcast(&h.bar_cv);
    } else {
      while (h.bar_gen == gen) {
        check_alive();
        timed_wait_ms(&h.bar_cv, &h.bar_mu, kAbortPollMs);
      }
    }
  }

  /// Deterministic reduction: contributions land in per-rank slots, the
  /// last arrival reduces them in rank order, every rank reads back
  /// identical bits.
  void allreduce(std::span<double> values, ReduceOp op) override {
    SOI_CHECK(values.size() <= kMaxReduceLen,
              "shm allreduce: vector longer than " << kMaxReduceLen);
    auto& h = *hdr_;
    MutexLock lock(&h.red_mu);
    check_alive();
    const std::uint64_t gen = h.red_gen;
    std::copy(values.begin(), values.end(), red_slot(rank_));
    if (h.red_count == 0) {
      h.red_len = values.size();
      h.red_op = static_cast<std::int32_t>(op);
    } else {
      SOI_CHECK(h.red_len == values.size(),
                "allreduce: vector length mismatch across ranks");
      SOI_CHECK(h.red_op == static_cast<std::int32_t>(op),
                "allreduce: operation mismatch across ranks");
    }
    if (++h.red_count == nranks_) {
      double* out = red_result();
      for (std::size_t i = 0; i < values.size(); ++i) {
        double acc = red_slot(0)[i];
        for (int r = 1; r < nranks_; ++r) {
          acc = op == ReduceOp::kSum ? acc + red_slot(r)[i]
                                     : std::max(acc, red_slot(r)[i]);
        }
        out[i] = acc;
      }
      h.red_count = 0;
      ++h.red_gen;
      pthread_cond_broadcast(&h.red_cv);
    } else {
      while (h.red_gen == gen) {
        check_alive();
        timed_wait_ms(&h.red_cv, &h.red_mu, kAbortPollMs);
      }
    }
    std::copy_n(red_result(), values.size(), values.begin());
  }

  void configure_resilience(const NetOptions& opts) override {
    int expected = 0;
    if (hdr_->configured.compare_exchange_strong(expected, 1)) {
      hdr_->timeout_ms.store(opts.timeout_ms, std::memory_order_relaxed);
      hdr_->max_retries.store(opts.max_retries, std::memory_order_relaxed);
      hdr_->checksums.store(opts.checksums ? 1 : 0, std::memory_order_relaxed);
      // Capability mismatches are reported, never silently ignored.
      for (const auto& w : unsupported_options(opts)) {
        std::cerr << "soifft: warning: " << w << "\n";
      }
    }
  }

  [[nodiscard]] bool resilience_active() const override {
    return hdr_->timeout_ms.load(std::memory_order_relaxed) > 0;
  }

  [[nodiscard]] double timeout_ms() const override {
    return hdr_->timeout_ms.load(std::memory_order_relaxed);
  }

  [[nodiscard]] int max_retries() const override {
    return hdr_->max_retries.load(std::memory_order_relaxed);
  }

  [[nodiscard]] FaultStats fault_stats() const override {
    FaultStats s;
    s.checksum_failures =
        hdr_->checksum_failures.load(std::memory_order_relaxed);
    s.timeouts = hdr_->timeouts.load(std::memory_order_relaxed);
    return s;
  }

  [[nodiscard]] TrafficLog& traffic() override { return traffic_; }

  [[nodiscard]] std::int64_t bytes_sent() const override {
    return bytes_sent_;
  }

 private:
  friend class ShmRequest;  // cancel-on-drop route

  /// Per-source state of the message currently arriving (see FragCursor).
  struct Inbound {
    int tag = 0;
    std::uint32_t crc = 0;
    bool has_crc = false;
    bool discard = false;       ///< its collective was dropped
    Posting* post = nullptr;    ///< landing in place, else in `buf`
    Buf buf;
  };

  // -- shared-region accessors --

  RingHdr& ring(int r) {
    return *reinterpret_cast<RingHdr*>(
        base_ + lay_.rings_off + lay_.ring_stride * static_cast<std::size_t>(r));
  }

  std::byte* ring_data(int r) {
    return base_ + lay_.rings_off +
           lay_.ring_stride * static_cast<std::size_t>(r) +
           align_up(sizeof(RingHdr), 64);
  }

  double* red_slot(int r) {
    return reinterpret_cast<double*>(base_ + lay_.red_off) +
           kMaxReduceLen * static_cast<std::size_t>(r);
  }

  double* red_result() { return red_slot(nranks_); }

  void check_alive() const {
    if (hdr_->aborted.load(std::memory_order_acquire) != 0) {
      throw WorldAbortedError(
          "shm: world aborted after a failure on a peer rank");
    }
  }

  [[nodiscard]] bool checksums_on() const {
    return hdr_->checksums.load(std::memory_order_relaxed) != 0;
  }

  [[noreturn]] void corrupt(const std::string& what) {
    hdr_->checksum_failures.fetch_add(1, std::memory_order_relaxed);
    throw PayloadCorruptionError(what);
  }

  /// Posts one all-to-all exchange: registers a receive slot per peer
  /// FIRST (so blocks arriving while this rank is still sending land in
  /// place), copies the own block, then sends the others in ring order.
  Request post_exchange(int tag, const cplx* send, BlockLayout sb, cplx* recv,
                        BlockLayout rb) {
    const int p = nranks_;
    auto req = std::make_unique<ShmRequest>();
    req->kind_ = ShmRequest::Kind::kColl;
    req->done_ = (p == 1);
    req->tag_ = tag;
    req->next_step_ = 1;
    req->owner_ = this;
    req->posts_.resize(static_cast<std::size_t>(p));
    for (int from = 0; from < p; ++from) {
      if (from == rank_) continue;
      Posting& post = req->posts_[static_cast<std::size_t>(from)];
      post.src = from;
      post.tag = tag;
      post.data = reinterpret_cast<std::byte*>(recv + rb.offset(from));
      post.bytes = rb.size(from) * sizeof(cplx);
      post.state = Posting::State::kPending;
      posted_.push_back(&post);
    }
    std::copy_n(send + sb.offset(rank_), sb.size(rank_),
                recv + rb.offset(rank_));
    for (int step = 1; step < p; ++step) {
      const int to = (rank_ + step) % p;
      send_message(to, tag, send + sb.offset(to), sb.size(to) * sizeof(cplx));
    }
    return Request(std::move(req));
  }

  // -- ring I/O (wrap-aware) --

  static void ring_write(std::byte* data, std::uint64_t pos, const void* src,
                         std::size_t n) {
    const std::size_t off = static_cast<std::size_t>(pos % kRingCapacity);
    const std::size_t first = std::min(n, kRingCapacity - off);
    std::memcpy(data + off, src, first);
    if (n > first) {
      std::memcpy(data, static_cast<const std::byte*>(src) + first, n - first);
    }
  }

  static void ring_read(const std::byte* data, std::uint64_t pos, void* dst,
                        std::size_t n) {
    const std::size_t off = static_cast<std::size_t>(pos % kRingCapacity);
    const std::size_t first = std::min(n, kRingCapacity - off);
    std::memcpy(dst, data + off, first);
    if (n > first) {
      std::memcpy(static_cast<std::byte*>(dst) + first, data, n - first);
    }
  }

  /// Append one frame to `dst`'s ring and ring `dst`'s doorbell. When the
  /// ring is full the sender joins the ring's waiter set and notes its
  /// drain generation (both under that ring's mutex), drains its OWN inbox
  /// so peers blocked on it progress, then sleeps on its own doorbell until
  /// its inbox is non-empty or `dst`'s generation moves. The sleep's
  /// kAbortPollMs cap only bounds how late a dead peer is noticed.
  void push_frame(int dst, const FrameHeader& h, const void* payload) {
    SOI_CHECK(dst >= 0 && dst < nranks_,
              "send: destination rank " << dst << " out of range");
    RingHdr& r = ring(dst);
    std::byte* data = ring_data(dst);
    const std::size_t need = frame_bytes(h.frag_bytes);
    SOI_CHECK(need <= kRingCapacity, "shm: frame exceeds ring capacity");
    for (;;) {
      std::uint64_t gen = 0;
      {
        MutexLock lock(&r.mu);
        if (kRingCapacity - static_cast<std::size_t>(r.tail - r.head) >=
            need) {
          ring_write(data, r.tail, &h, sizeof(FrameHeader));
          if (h.frag_bytes > 0) {
            ring_write(data, r.tail + sizeof(FrameHeader), payload,
                       h.frag_bytes);
          }
          r.tail += need;
          pthread_cond_broadcast(&r.cv);
          return;
        }
        r.waiters |= std::uint64_t{1} << rank_;
        gen = r.drain_gen.load(std::memory_order_relaxed);
      }
      drain_ring();
      check_alive();
      RingHdr& me = ring(rank_);
      MutexLock lock(&me.mu);
      if (me.head == me.tail &&
          r.drain_gen.load(std::memory_order_acquire) == gen) {
        timed_wait_ms(&me.cv, &me.mu, kAbortPollMs);
      }
    }
  }

  /// Send one whole message (fragmenting as needed) with the CRC32C + seq
  /// integrity envelope.
  void send_message(int dst, int tag, const void* data, std::size_t bytes) {
    const std::uint64_t seq =
        ++send_seq_[static_cast<std::size_t>(dst)];
    const bool has_crc = checksums_on();
    const std::uint32_t crc = has_crc ? crc32(data, bytes) : 0;
    std::size_t off = 0;
    do {
      const std::size_t frag = std::min(bytes - off, kMaxFragPayload);
      FrameHeader h;
      h.src = rank_;
      h.tag = tag;
      h.seq = seq;
      h.msg_bytes = bytes;
      h.frag_offset = off;
      h.frag_bytes = static_cast<std::uint32_t>(frag);
      h.crc = crc;
      h.has_crc = has_crc ? 1 : 0;
      push_frame(dst, h, static_cast<const std::byte*>(data) + off);
      off += frag;
    } while (off < bytes);
    bytes_sent_ += static_cast<std::int64_t>(bytes);
  }

  /// Land every frame in our own ring: validate its header, copy its
  /// payload straight to a posted exchange slot or a pool buffer, then free
  /// its ring space. [head, tail) belongs to this reader until head moves,
  /// so payloads are copied without the ring lock while senders keep
  /// appending. Each advance bumps the drain generation and takes the
  /// waiter set under the lock; the waiters' doorbells ring after it is
  /// released, so no two ring mutexes are ever held at once.
  void drain_ring() {
    RingHdr& r = ring(rank_);
    const std::byte* data = ring_data(rank_);
    std::uint64_t head = 0;
    std::uint64_t tail = 0;
    {
      MutexLock lock(&r.mu);
      head = r.head;
      tail = r.tail;
    }
    while (head < tail) {
      FrameHeader h;
      ring_read(data, head, &h, sizeof(FrameHeader));
      if (const char* why = shm_frame::validate_frame(h, cursors_)) {
        std::ostringstream os;
        os << "shm: malformed frame (src " << h.src << ", seq " << h.seq
           << ", msg_bytes " << h.msg_bytes << ", frag_offset "
           << h.frag_offset << ", frag_bytes " << h.frag_bytes << "): " << why
           << " — shared region corrupted";
        corrupt(os.str());
      }
      const std::size_t need = frame_bytes(h.frag_bytes);
      if (need > tail - head) {
        std::ostringstream os;
        os << "shm: frame from rank " << h.src << " overruns the ring ("
           << need << " bytes, " << (tail - head) << " written)";
        corrupt(os.str());
      }
      land_frame(h, data, head + sizeof(FrameHeader));
      head += need;
      std::uint64_t waiters = 0;
      {
        MutexLock lock(&r.mu);
        r.head = head;
        r.drain_gen.fetch_add(1, std::memory_order_release);
        waiters = std::exchange(r.waiters, 0);
        tail = r.tail;
      }
      ring_doorbells(waiters);
    }
  }

  /// Wake every rank in `waiters` (a RingHdr::waiters bit set): broadcast
  /// on that rank's own doorbell, under its own ring mutex.
  void ring_doorbells(std::uint64_t waiters) {
    for (int w = 0; waiters != 0; ++w, waiters >>= 1) {
      if ((waiters & 1U) == 0) continue;
      RingHdr& wr = ring(w);
      MutexLock lock(&wr.mu);
      pthread_cond_broadcast(&wr.cv);
    }
  }

  /// Copy one validated frame's payload (at ring position `pos`) to where
  /// its message lands.
  void land_frame(const FrameHeader& h, const std::byte* data,
                  std::uint64_t pos) {
    const auto s = static_cast<std::size_t>(h.src);
    FragCursor& cur = cursors_[s];
    Inbound& in = inbound_[s];
    if (!cur.open) open_message(h, cur, in);
    std::byte* dst = in.post != nullptr ? in.post->data : in.buf.mem.get();
    if (!in.discard && h.frag_bytes > 0) {
      ring_read(data, pos, dst + h.frag_offset, h.frag_bytes);
    }
    cur.received += h.frag_bytes;
    if (cur.received == cur.msg_bytes) close_message(h, cur, in);
  }

  void open_message(const FrameHeader& h, FragCursor& cur, Inbound& in) {
    cur.open = true;
    cur.seq = h.seq;
    cur.msg_bytes = h.msg_bytes;
    cur.received = 0;
    in.tag = h.tag;
    in.crc = h.crc;
    in.has_crc = h.has_crc != 0;
    in.discard = cancelled_.count(h.tag) != 0;
    in.post = in.discard ? nullptr : claim_posting(h.src, h.tag, h.msg_bytes);
    if (!in.discard && in.post == nullptr) in.buf = acquire_buf(h.msg_bytes);
  }

  void close_message(const FrameHeader& h, FragCursor& cur, Inbound& in) {
    cur.open = false;
    // Per-source sequence numbers are strictly increasing (each sender
    // stamps its own counter and the ring preserves its order): a
    // violation means shared-memory corruption, not reordering.
    auto& last = last_seq_from_[static_cast<std::size_t>(h.src)];
    if (h.seq <= last) {
      std::ostringstream os;
      os << "shm: out-of-order sequence " << h.seq << " from rank " << h.src
         << " (last " << last << ") — shared region corrupted";
      corrupt(os.str());
    }
    last = h.seq;
    if (in.post != nullptr) {
      in.post->state = Posting::State::kLanded;
      in.post->crc = in.crc;
      in.post->has_crc = in.has_crc;
      unregister(in.post);
      in.post = nullptr;
      return;
    }
    if (in.discard || cancelled_.count(in.tag) != 0) {  // dropped collective
      in.discard = false;
      release_buf(std::move(in.buf));
      return;
    }
    LocalMsg msg;
    msg.src = h.src;
    msg.tag = in.tag;
    msg.crc = in.crc;
    msg.has_crc = in.has_crc;
    msg.payload = std::move(in.buf);
    mailbox_.push_back(std::move(msg));
  }

  /// The pending posting a new message from (src, tag) lands in, if any.
  /// It must be the posting's first match: an earlier arrival still in the
  /// mailbox owns the slot, and a size mismatch goes through the mailbox so
  /// take_match reports it at delivery, as for any receive.
  Posting* claim_posting(int src, int tag, std::uint64_t bytes) {
    for (Posting* p : posted_) {
      if (p->state != Posting::State::kPending || p->src != src ||
          p->tag != tag) {
        continue;
      }
      if (p->bytes != bytes || mailbox_has(src, tag)) return nullptr;
      p->state = Posting::State::kLanding;
      return p;
    }
    return nullptr;
  }

  void unregister(const Posting* p) {
    const auto it = std::find(posted_.begin(), posted_.end(), p);
    if (it != posted_.end()) posted_.erase(it);
  }

  [[nodiscard]] bool mailbox_has(int src, int tag) const {
    return std::any_of(mailbox_.begin(), mailbox_.end(),
                       [&](const LocalMsg& m) {
                         return m.src == src && m.tag == tag;
                       });
  }

  Buf acquire_buf(std::size_t bytes) {
    Buf b;
    if (bytes == 0) return b;
    if (!pool_.empty()) {
      // Reuse the first buffer big enough, else grow the last one.
      auto it = std::find_if(pool_.begin(), pool_.end(),
                             [&](const Buf& f) { return f.cap >= bytes; });
      if (it == pool_.end()) it = pool_.end() - 1;
      b = std::move(*it);
      pool_.erase(it);
    }
    if (b.cap < bytes) {
      b.mem.reset(new std::byte[bytes]);
      b.cap = bytes;
    }
    b.size = bytes;
    return b;
  }

  void release_buf(Buf&& b) {
    if (b.cap > 0 && pool_.size() < kPoolBuffers) pool_.push_back(std::move(b));
  }

  /// Size and CRC checks of a delivered payload. Mismatches throw — there
  /// is no retransmit source on this backend, so corruption is fatal (and
  /// loud).
  void verify_payload(int src, int tag, const std::byte* data,
                      std::size_t got, std::size_t expected_bytes,
                      std::uint32_t crc, bool has_crc) {
    if (got != expected_bytes) {
      std::ostringstream os;
      os << "shm: size mismatch from rank " << src << " tag " << tag
         << ": got " << got << " bytes, expected " << expected_bytes;
      corrupt(os.str());
    }
    if (has_crc && checksums_on() && crc32(data, got) != crc) {
      std::ostringstream os;
      os << "shm: CRC mismatch from rank " << src << " tag " << tag << " ("
         << got << " bytes)";
      corrupt(os.str());
    }
  }

  /// First mailbox entry matching (src, tag), verified against the
  /// integrity envelope.
  std::optional<LocalMsg> take_match(int src, int tag,
                                     std::size_t expected_bytes) {
    for (auto it = mailbox_.begin(); it != mailbox_.end(); ++it) {
      if (it->tag != tag) continue;
      if (src != kAnySource && it->src != src) continue;
      LocalMsg m = std::move(*it);
      mailbox_.erase(it);
      verify_payload(m.src, tag, m.payload.mem.get(), m.payload.size,
                     expected_bytes, m.crc, m.has_crc);
      return m;
    }
    return std::nullopt;
  }

  /// Sleep (bounded) until our inbox plausibly has new data.
  void wait_for_inbox(double ms) {
    RingHdr& r = ring(rank_);
    MutexLock lock(&r.mu);
    if (r.head == r.tail) {
      timed_wait_ms(&r.cv, &r.mu, std::min(ms, kAbortPollMs));
    }
  }

  /// Completes one posted block: verify what landed in place, or take it
  /// from the mailbox when it arrived before its slot was claimable.
  bool complete_posting(Posting& post) {
    switch (post.state) {
      case Posting::State::kDone:
        return true;
      case Posting::State::kLanding:
        return false;
      case Posting::State::kLanded:
        verify_payload(post.src, post.tag, post.data, post.bytes, post.bytes,
                       post.crc, post.has_crc);
        break;
      case Posting::State::kPending: {
        auto m = take_match(post.src, post.tag, post.bytes);
        if (!m.has_value()) return false;
        if (post.bytes > 0) {
          std::memcpy(post.data, m->payload.mem.get(), post.bytes);
        }
        release_buf(std::move(m->payload));
        unregister(&post);
        break;
      }
    }
    post.state = Posting::State::kDone;
    return true;
  }

  /// One completion attempt (mailbox already drained by the caller).
  bool progress(ShmRequest& req) {
    switch (req.kind_) {
      case ShmRequest::Kind::kNone:
      case ShmRequest::Kind::kSend:
        return true;
      case ShmRequest::Kind::kRecv: {
        auto m = take_match(req.peer_, req.tag_, req.bytes_);
        if (!m.has_value()) return false;
        if (m->payload.size > 0) {
          std::memcpy(req.data_, m->payload.mem.get(), m->payload.size);
        }
        release_buf(std::move(m->payload));
        req.src_matched_ = m->src;
        req.done_ = true;
        return true;
      }
      case ShmRequest::Kind::kColl: {
        // Ring order, as SimMPI: step k reads from (rank - k) mod P.
        const int p = nranks_;
        while (req.next_step_ < p) {
          const int from = (rank_ - req.next_step_ + p) % p;
          if (!complete_posting(req.posts_[static_cast<std::size_t>(from)])) {
            return false;
          }
          ++req.next_step_;
        }
        req.done_ = true;
        return true;
      }
    }
    return false;
  }

  /// A live exchange dropped without a wait: withdraw its slots so no
  /// frame is ever written into its (possibly freed) receive buffer. A
  /// block caught mid-landing has its remaining fragments discarded; its
  /// (never reused) tag is cancelled — landed blocks purged, future
  /// arrivals discarded.
  void drop_exchange(ShmRequest& req) {
    for (Posting& post : req.posts_) {
      if (post.state == Posting::State::kLanding) {
        for (Inbound& in : inbound_) {
          if (in.post == &post) {
            in.post = nullptr;
            in.discard = true;
          }
        }
      }
      if (post.state == Posting::State::kPending ||
          post.state == Posting::State::kLanding) {
        unregister(&post);
      }
    }
    const int tag = req.tag_;
    cancelled_.insert(tag);
    for (auto it = mailbox_.begin(); it != mailbox_.end();) {
      if (it->tag == tag) {
        release_buf(std::move(it->payload));
        it = mailbox_.erase(it);
      } else {
        ++it;
      }
    }
    // A half-assembled message of that tag is discarded when it completes
    // (the cancelled_ check in close_message).
  }

  std::byte* base_;
  Layout lay_;
  WorldHdr* hdr_;
  int rank_;
  int nranks_;

  // Child-private state.
  std::vector<FragCursor> cursors_;  ///< per source, see validate_frame
  std::vector<Inbound> inbound_;     ///< per source, parallel to cursors_
  std::vector<Posting*> posted_;     ///< claimable slots, oldest first
  std::vector<Buf> pool_;            ///< free reassembly buffers
  std::vector<LocalMsg> mailbox_;
  std::set<int> cancelled_;
  std::vector<std::uint64_t> send_seq_;
  std::vector<std::uint64_t> last_seq_from_;
  std::int64_t bytes_sent_ = 0;
  TrafficLog traffic_;  ///< inert (caps().traffic_events == false)
};

ShmRequest::~ShmRequest() {
  if (kind_ == Kind::kColl && !done_ && owner_ != nullptr) {
    owner_->drop_exchange(*this);
  }
}

// ---------------------------------------------------------------------------
// World launch (parent side)
// ---------------------------------------------------------------------------

void record_error(ErrSlot& slot, int valid, Status status, const char* what) {
  std::snprintf(slot.what, kMaxErrWhat, "%s", what);
  slot.status = static_cast<std::int32_t>(status);
  // `valid` is written LAST (the parent only reads slots after waitpid, so
  // ordering is belt-and-braces, not load-bearing).
  slot.valid = valid;
}

[[noreturn]] void rethrow_slot(const ErrSlot& slot) {
  const std::string what(slot.what);
  switch (static_cast<Status>(slot.status)) {
    case Status::kCommTimeout:
      throw CommTimeoutError(what);
    case Status::kPayloadCorruption:
      throw PayloadCorruptionError(what);
    case Status::kAccuracyFault:
      throw AccuracyFaultError(what);
    case Status::kResourceExhausted:
      throw AdmissionRejectedError(what);
    default:
      throw Error(what, static_cast<Status>(slot.status));
  }
}

/// RAII holder for the mapped region (parent side).
struct Mapping {
  void* mem = MAP_FAILED;
  std::size_t size = 0;
  ~Mapping() {
    if (mem != MAP_FAILED) ::munmap(mem, size);
  }
};

/// True when a rank exited through child_main: 0 on success, 2 after
/// recording a primary error, 3 after an induced world-abort.
bool clean_exit(int st) {
  return WIFEXITED(st) &&
         (WEXITSTATUS(st) == 0 || WEXITSTATUS(st) == 2 || WEXITSTATUS(st) == 3);
}

/// Reap every rank in whatever order they exit and return their wait
/// statuses by rank. The first abnormal exit (a signal, or an exit code
/// child_main never uses) raises the world's abort flag, so peers blocked
/// on the dead rank unwind instead of hanging. Sleeps on one pidfd per
/// rank; a rank whose pidfd cannot be opened is polled every 10 ms.
std::vector<int> reap_ranks(const std::vector<pid_t>& pids, WorldHdr* hdr) {
  const std::size_t n = pids.size();
  std::vector<int> statuses(n, 0);
  std::vector<bool> reaped(n, false);
  std::vector<pollfd> fds(n);
  bool all_fds = true;
  for (std::size_t i = 0; i < n; ++i) {
#ifdef SYS_pidfd_open
    fds[i].fd = static_cast<int>(::syscall(SYS_pidfd_open, pids[i], 0));
#else
    fds[i].fd = -1;
#endif
    fds[i].events = POLLIN;
    all_fds = all_fds && fds[i].fd >= 0;
  }
  for (std::size_t left = n; left > 0;) {
    ::poll(fds.data(), static_cast<nfds_t>(n), all_fds ? -1 : 10);
    for (std::size_t i = 0; i < n; ++i) {
      int st = 0;
      if (reaped[i] || ::waitpid(pids[i], &st, WNOHANG) != pids[i]) continue;
      reaped[i] = true;
      statuses[i] = st;
      --left;
      if (fds[i].fd >= 0) ::close(fds[i].fd);
      fds[i].fd = -1;  // poll ignores it from now on
      if (!clean_exit(st)) hdr->aborted.store(1, std::memory_order_release);
    }
  }
  return statuses;
}

[[noreturn]] void child_main(std::byte* base, const Layout& lay, int rank,
                             int nranks,
                             const std::function<void(Transport&)>& body) {
  auto* hdr = reinterpret_cast<WorldHdr*>(base);
  auto* err = reinterpret_cast<ErrSlot*>(base + lay.err_off);
  int code = 0;
  try {
    ShmComm comm(base, lay, rank, nranks);
    body(comm);
  } catch (const WorldAbortedError& e) {
    record_error(err[rank], /*valid=*/2, Status::kCommTimeout, e.what());
    hdr->aborted.store(1, std::memory_order_release);
    code = 3;
  } catch (const Error& e) {
    record_error(err[rank], /*valid=*/1, e.status(), e.what());
    hdr->aborted.store(1, std::memory_order_release);
    code = 2;
  } catch (const std::exception& e) {
    record_error(err[rank], /*valid=*/1, Status::kInvalidArgument, e.what());
    hdr->aborted.store(1, std::memory_order_release);
    code = 2;
  } catch (...) {
    record_error(err[rank], /*valid=*/1, Status::kInvalidArgument,
                 "shm rank body failed with a non-standard exception");
    hdr->aborted.store(1, std::memory_order_release);
    code = 2;
  }
  // Skip static destructors (we forked from an arbitrary host process) but
  // push out anything the body printed.
  std::fflush(stdout);
  std::fflush(stderr);
  ::_exit(code);
}

}  // namespace

std::vector<CommEvent> run_shm_world(
    int nranks, const NetOptions& opts,
    const std::function<void(Transport&)>& body) {
  SOI_CHECK(nranks >= 1, "run_shm_world: need at least one rank");
  SOI_CHECK(nranks <= kMaxShmRanks,
            "run_shm_world: at most " << kMaxShmRanks << " ranks (got "
                                      << nranks << ")");
  const NetOptions resolved = resolve_env_options(opts);
  // Capability mismatches are reported, never silently ignored.
  for (const auto& w : unsupported_option_warnings(kShmCaps, resolved)) {
    std::cerr << "soifft: warning: " << w << "\n";
  }

  const Layout lay = compute_layout(nranks);
  Mapping map;
  map.size = lay.total;
  map.mem = ::mmap(nullptr, lay.total, PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  SOI_CHECK(map.mem != MAP_FAILED, "run_shm_world: mmap failed");
  auto* base = static_cast<std::byte*>(map.mem);
  std::memset(base, 0, lay.total);

  auto* hdr = new (base) WorldHdr{};
  hdr->nranks = nranks;
  init_shared_mutex(&hdr->bar_mu);
  init_shared_cond(&hdr->bar_cv);
  init_shared_mutex(&hdr->red_mu);
  init_shared_cond(&hdr->red_cv);
  hdr->max_retries.store(resolved.max_retries, std::memory_order_relaxed);
  hdr->checksums.store(resolved.checksums ? 1 : 0, std::memory_order_relaxed);
  // Only a non-default configuration claims the configure slot; otherwise
  // it stays open for DistOptions-level plumbing to install one later.
  if (resolved.timeout_ms > 0 || !resolved.checksums) {
    hdr->configured.store(1, std::memory_order_relaxed);
    hdr->timeout_ms.store(resolved.timeout_ms, std::memory_order_relaxed);
  }
  for (int r = 0; r < nranks; ++r) {
    auto* ring = new (base + lay.rings_off +
                      lay.ring_stride * static_cast<std::size_t>(r)) RingHdr{};
    init_shared_mutex(&ring->mu);
    init_shared_cond(&ring->cv);
  }

  // Buffered stdio must be flushed before forking or every child re-flushes
  // the parent's pending output.
  std::fflush(stdout);
  std::fflush(stderr);

  std::vector<pid_t> pids(static_cast<std::size_t>(nranks), -1);
  for (int r = 0; r < nranks; ++r) {
    const pid_t pid = ::fork();
    if (pid == 0) {
      child_main(base, lay, r, nranks, body);  // never returns
    }
    if (pid < 0) {
      // Fork failed: abort the world so already-launched children unwind,
      // then reap them before reporting.
      hdr->aborted.store(1, std::memory_order_release);
      for (int k = 0; k < r; ++k) {
        int st = 0;
        while (::waitpid(pids[static_cast<std::size_t>(k)], &st, 0) < 0 &&
               errno == EINTR) {
        }
      }
      throw Error("run_shm_world: fork failed", Status::kResourceExhausted);
    }
    pids[static_cast<std::size_t>(r)] = pid;
  }

  const std::vector<int> statuses = reap_ranks(pids, hdr);

  // Primary errors first (by rank order), induced world-aborts only when
  // no primary exists — exactly run_ranks' rethrow contract.
  auto* err = reinterpret_cast<ErrSlot*>(base + lay.err_off);
  for (int r = 0; r < nranks; ++r) {
    if (err[r].valid == 1) rethrow_slot(err[r]);
  }
  for (int r = 0; r < nranks; ++r) {
    const int st = statuses[static_cast<std::size_t>(r)];
    if (!clean_exit(st)) {
      std::ostringstream os;
      os << "run_shm_world: rank " << r << " terminated abnormally (";
      if (WIFSIGNALED(st)) {
        os << "signal " << WTERMSIG(st);
      } else {
        os << "exit status " << (WIFEXITED(st) ? WEXITSTATUS(st) : -1);
      }
      os << ")";
      throw Error(os.str(), Status::kCommTimeout);
    }
  }
  for (int r = 0; r < nranks; ++r) {
    if (err[r].valid == 2) {
      throw WorldAbortedError(std::string(err[r].what));
    }
  }
  return {};  // no traffic events on this backend (caps.traffic_events)
}

void register_shm_transport() {
  TransportRegistry::instance().register_backend(
      "shm", TransportBackend{kShmCaps, run_shm_world});
}

}  // namespace soi::net
