#include "net/transport.hpp"

#include <algorithm>
#include <sstream>

#include "common/env.hpp"

namespace soi::net {

namespace {
// Reserved (negative) tags; user tags are >= 0.
constexpr int kTagBcast = -2;
constexpr int kTagGather = -3;
constexpr int kTagAllgather = -4;
constexpr int kTagCollBase = -16;  ///< ialltoall(v) tags start here

void check_user_tag(int tag) {
  SOI_CHECK(tag >= 0, "user tags must be non-negative (got " << tag << ")");
}
}  // namespace

std::vector<std::string> unsupported_option_warnings(const TransportCaps& caps,
                                                     const NetOptions& opts) {
  std::vector<std::string> warnings;
  const auto warn = [&](const std::string& what) {
    std::ostringstream os;
    os << "transport '" << caps.name << "' cannot honour " << what
       << " (capability not supported; the option is ignored)";
    warnings.push_back(os.str());
  };
  if (opts.faults.any() && !caps.fault_injection) {
    warn("the fault-injection spec (NetOptions::faults)");
  }
  if (!caps.latency_emulation) {
    if (opts.wire_latency_us > 0) {
      warn("wire-latency emulation (NetOptions::wire_latency_us)");
    }
    if (opts.intra_latency_us > 0 || opts.topo_group_size > 0) {
      warn("the intra-node latency tier (NetOptions::intra_latency_us / "
           "topo_group_size)");
    }
  }
  if (!opts.checksums && !caps.checksums) {
    // Disabling checksums on a backend that never stamps them is a no-op
    // worth flagging: the caller believes they toggled something.
    warn("a checksum toggle (NetOptions::checksums — this backend has no "
         "CRC envelope)");
  }
  return warnings;
}

NetOptions resolve_env_options(NetOptions opts) {
  if (!opts.faults.any()) {
    const std::string spec = env_str("SOI_FAULTS", "");
    if (!spec.empty()) opts.faults = FaultSpec::parse(spec);
  }
  if (opts.timeout_ms <= 0) opts.timeout_ms = env_f64("SOI_TIMEOUT_MS", 0.0);
  opts.max_retries =
      static_cast<int>(env_i64("SOI_MAX_RETRIES", opts.max_retries));
  if (env_i64("SOI_CHECKSUMS", opts.checksums ? 1 : 0) == 0) {
    opts.checksums = false;
  }
  return opts;
}

std::vector<std::string> Transport::unsupported_options(
    const NetOptions& opts) const {
  return unsupported_option_warnings(caps(), opts);
}

int Transport::next_coll_tag(int channel) {
  const int limit = caps().max_coll_channels;
  SOI_CHECK(channel >= 0 && channel < limit,
            "collective channel " << channel << " out of range [0, " << limit
                                  << ")");
  return kTagCollBase - (coll_seq_[channel]++ * kMaxChannels + channel);
}

BlockLayout Transport::alltoall_layout(cspan send_data, mspan recv_data,
                                       std::int64_t count) const {
  SOI_CHECK(count >= 0, "ialltoall: negative count");
  const auto total = static_cast<std::size_t>(count) *
                     static_cast<std::size_t>(size());
  SOI_CHECK(send_data.size() >= total, "ialltoall: send buffer too small");
  SOI_CHECK(recv_data.size() >= total, "ialltoall: recv buffer too small");
  return BlockLayout{count};
}

std::pair<BlockLayout, BlockLayout> Transport::alltoallv_layouts(
    std::span<const std::int64_t> send_counts,
    std::span<const std::int64_t> send_displs,
    std::span<const std::int64_t> recv_counts,
    std::span<const std::int64_t> recv_displs) const {
  const auto p = static_cast<std::size_t>(size());
  SOI_CHECK(send_counts.size() == p && send_displs.size() == p &&
                recv_counts.size() == p && recv_displs.size() == p,
            "ialltoallv: counts/displs must have one entry per rank");
  const auto me = static_cast<std::size_t>(rank());
  SOI_CHECK(send_counts[me] == recv_counts[me],
            "ialltoallv: self send/recv count mismatch");
  return {BlockLayout{-1, send_counts.data(), send_displs.data()},
          BlockLayout{-1, recv_counts.data(), recv_displs.data()}};
}

// -- point to point --

void Transport::send_bytes(int dst, int tag, const void* data,
                           std::size_t bytes) {
  check_user_tag(tag);
  isend_bytes(dst, tag, data, bytes);  // buffered: done at post time
}

void Transport::recv_bytes(int src, int tag, void* data, std::size_t bytes) {
  check_user_tag(tag);
  Request req = irecv_bytes(src, tag, data, bytes);
  wait(req);
}

Request Transport::isend(int dst, int tag, cspan data) {
  check_user_tag(tag);
  return isend_bytes(dst, tag, data.data(), data.size_bytes());
}

Request Transport::irecv(int src, int tag, mspan data) {
  check_user_tag(tag);
  return irecv_bytes(src, tag, data.data(), data.size_bytes());
}

void Transport::sendrecv(int dst, cspan send_data, int src, mspan recv_data,
                         int tag) {
  send(dst, tag, send_data);
  recv(src, tag, recv_data);
}

bool Transport::try_recv(int src, int tag, mspan data) {
  Request req = irecv(src, tag, data);
  return test(req);
}

int Transport::wait(Request& req) {
  if (req.done()) return 0;
  const double base = timeout_ms();
  if (base <= 0) {
    wait_for(req, 0);  // unbounded
    return 0;
  }
  const int maxr = max_retries();
  double t = base;
  for (int expired = 0;;) {
    if (wait_for(req, t)) return expired;
    if (++expired > maxr) {
      std::ostringstream os;
      os << "wait: request timed out after " << expired
         << " attempt(s), base deadline " << base << " ms";
      throw CommTimeoutError(os.str());
    }
    t *= 2;  // exponential backoff
  }
}

// -- collectives over point to point (reserved tags) --

void Transport::bcast(mspan data, int root) {
  const int p = size();
  SOI_CHECK(root >= 0 && root < p, "bcast: bad root " << root);
  if (rank() != root) {
    Request req = irecv_bytes(root, kTagBcast, data.data(), data.size_bytes());
    wait(req);
    return;
  }
  for (int r = 0; r < p; ++r) {
    if (r != root) isend_bytes(r, kTagBcast, data.data(), data.size_bytes());
  }
  if (caps().traffic_events) {
    traffic().record({CommEvent::Kind::kBcast, p,
                      static_cast<std::int64_t>(data.size_bytes()), p - 1});
  }
}

void Transport::gather(cspan send_data, mspan recv_data, int root) {
  const int p = size();
  SOI_CHECK(root >= 0 && root < p, "gather: bad root " << root);
  if (rank() != root) {
    isend_bytes(root, kTagGather, send_data.data(), send_data.size_bytes());
    return;
  }
  const std::size_t block = send_data.size();
  SOI_CHECK(recv_data.size() >= block * static_cast<std::size_t>(p),
            "gather: receive buffer too small");
  std::copy(send_data.begin(), send_data.end(),
            recv_data.begin() + static_cast<std::ptrdiff_t>(block) * root);
  for (int r = 0; r < p; ++r) {
    if (r == root) continue;
    Request req = irecv_bytes(r, kTagGather,
                              recv_data.data() + block * static_cast<std::size_t>(r),
                              block * sizeof(cplx));
    wait(req);
  }
  if (caps().traffic_events) {
    traffic().record({CommEvent::Kind::kAllgather, p,
                      static_cast<std::int64_t>(block * sizeof(cplx)), 1});
  }
}

void Transport::allgather(cspan send_data, mspan recv_data) {
  const int p = size();
  const int me = rank();
  const std::size_t block = send_data.size();
  SOI_CHECK(recv_data.size() >= block * static_cast<std::size_t>(p),
            "allgather: receive buffer too small");
  for (int r = 0; r < p; ++r) {
    if (r != me) {
      isend_bytes(r, kTagAllgather, send_data.data(), send_data.size_bytes());
    }
  }
  std::copy(send_data.begin(), send_data.end(),
            recv_data.begin() + static_cast<std::ptrdiff_t>(block) * me);
  for (int r = 0; r < p; ++r) {
    if (r == me) continue;
    Request req = irecv_bytes(r, kTagAllgather,
                              recv_data.data() + block * static_cast<std::size_t>(r),
                              block * sizeof(cplx));
    wait(req);
  }
  if (me == 0 && caps().traffic_events) {
    traffic().record({CommEvent::Kind::kAllgather, p,
                      static_cast<std::int64_t>(block * sizeof(cplx)) * (p - 1),
                      p - 1});
  }
}

double Transport::allreduce_sum(double value) {
  allreduce(std::span<double>(&value, 1), ReduceOp::kSum);
  return value;
}

double Transport::allreduce_max(double value) {
  allreduce(std::span<double>(&value, 1), ReduceOp::kMax);
  return value;
}

void Transport::alltoall(cspan send_data, mspan recv_data, std::int64_t count,
                         AlltoallAlgo algo) {
  Request req = ialltoall(send_data, recv_data, count, algo, /*channel=*/0);
  wait(req);
}

void Transport::alltoallv(cspan send_data,
                          std::span<const std::int64_t> send_counts,
                          std::span<const std::int64_t> send_displs,
                          mspan recv_data,
                          std::span<const std::int64_t> recv_counts,
                          std::span<const std::int64_t> recv_displs) {
  Request req = ialltoallv(send_data, send_counts, send_displs, recv_data,
                           recv_counts, recv_displs, /*channel=*/0);
  wait(req);
}

}  // namespace soi::net
