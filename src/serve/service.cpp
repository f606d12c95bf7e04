#include "serve/service.hpp"

#include <algorithm>
#include <chrono>
#include <limits>

#include "common/error.hpp"
#include "tune/autotuner.hpp"
#include "tune/registry.hpp"

namespace soi::serve {

const char* priority_name(Priority p) {
  switch (p) {
    case Priority::kInteractive: return "interactive";
    case Priority::kBatch: return "batch";
    case Priority::kBackground: return "background";
  }
  return "batch";
}

Priority priority_from_name(const std::string& name) {
  if (name == "interactive") return Priority::kInteractive;
  if (name == "batch") return Priority::kBatch;
  if (name == "background") return Priority::kBackground;
  std::ostringstream os;
  os << "unknown priority tier '" << name
     << "'; valid tiers: interactive, batch, background";
  throw InvalidArgumentError(os.str());
}

namespace {

/// Modeled solo execution price of one request on a lane — the currency
/// of deadline shedding and the epoch budget. Deliberately the SAME
/// scorer the autotuner prices candidates with (kModeled), so the
/// scheduler and the tuner agree on what "expensive" means.
double modeled_lane_cost(const LaneSpec& spec, int ranks, bool overlap) {
  tune::TuneKey key;
  key.n = spec.n;
  key.ranks = std::max(ranks, 1);
  key.accuracy = spec.accuracy;
  tune::Candidate cand;
  cand.accuracy = spec.accuracy;
  cand.segments_per_rank = spec.segments_per_rank;
  cand.overlap = overlap;
  cand.chunk_depth = overlap ? spec.chunk_depth : 1;
  return tune::score_candidate(key, cand, tune::TuneOptions{})
      .total_seconds();
}

}  // namespace

TransformService::TransformService(ServeOptions opts) : opts_(opts) {
  SOI_CHECK(opts_.ranks == 0 || opts_.ranks >= 2,
            "TransformService: ranks must be 0 (serial) or >= 2, got "
                << opts_.ranks);
  SOI_CHECK(opts_.workers >= 0,
            "TransformService: workers must be >= 0");
  SOI_CHECK(opts_.max_concurrency >= 1 &&
                opts_.max_concurrency <= net::kMaxChannels,
            "TransformService: max_concurrency " << opts_.max_concurrency
                                                 << " not in [1, "
                                                 << net::kMaxChannels
                                                 << "]");
  SOI_CHECK(opts_.queue_capacity >= 1,
            "TransformService: queue_capacity must be >= 1");
  const auto cap = static_cast<std::size_t>(opts_.queue_capacity);
  slots_.resize(cap);
  ring_.resize(cap);
  free_.reserve(cap);
  for (std::size_t i = cap; i > 0; --i) {
    free_.push_back(static_cast<std::int32_t>(i - 1));
  }
  commands_.reserve(256);
  cmd_acks_.reserve(256);
  cmd_errors_.reserve(256);
  if (dist_mode()) {
    // Resolve + validate the transport up front, in the caller's thread:
    // unknown names throw the registry's typed error (listing every
    // registered backend), and cross-process fabrics are rejected here —
    // the rank bodies read the service's request slots directly, which
    // only works when every rank shares this address space.
    const std::string tname = opts_.transport.empty()
                                  ? net::default_transport()
                                  : opts_.transport;
    const net::TransportCaps& tcaps =
        net::TransportRegistry::instance().caps(tname);
    if (!tcaps.threaded_world) {
      std::ostringstream os;
      os << "TransformService: transport '" << tname
         << "' runs ranks in separate processes; the serving rank team "
            "needs a threaded_world transport (e.g. \"sim\")";
      throw InvalidArgumentError(os.str());
    }
    world_thread_ = std::thread([this, tname] {
      try {
        net::NetOptions nopts;
        nopts.wire_latency_us = opts_.wire_latency_us;
        net::run_world(tname, opts_.ranks, nopts,
                       [this](net::Transport& c) { rank_main(c); });
      } catch (...) {
        std::lock_guard<std::mutex> lk(mu_);
        if (!world_failed_) {
          world_failed_ = true;
          world_error_ = std::current_exception();
        }
        cv_done_.notify_all();
      }
    });
    scheduler_ = std::thread(&TransformService::scheduler_main, this);
  } else {
    states_.resize(static_cast<std::size_t>(opts_.workers) * kMaxLanes);
    warm_pending_.assign(static_cast<std::size_t>(opts_.workers), 0);
    workers_.reserve(static_cast<std::size_t>(opts_.workers));
    for (int w = 0; w < opts_.workers; ++w) {
      workers_.emplace_back(&TransformService::worker_main, this, w);
    }
  }
}

TransformService::~TransformService() {
  try {
    stop();
  } catch (...) {
    // Destructor must not throw; stop() failures are unrecoverable here.
  }
}

int TransformService::lane_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return nlanes_;
}

int TransformService::slot_count() const {
  return dist_mode() ? opts_.max_concurrency : std::max(opts_.workers, 1);
}

int TransformService::create_lane(const LaneSpec& spec) {
  SOI_CHECK(spec.n > 0, "TransformService: lane n must be > 0");
  SOI_CHECK(spec.segments_per_rank >= 1,
            "TransformService: segments_per_rank must be >= 1");
  auto& reg = tune::PlanRegistry::global();
  const auto prof = reg.profile(spec.accuracy);
  const auto n = static_cast<std::size_t>(spec.n);

  if (!dist_mode()) {
    // The shared plan and the per-worker execution states are the
    // expensive part; build them before taking the service lock.
    const auto plan = reg.serial_plan(spec.n, spec.segments_per_rank, *prof);
    std::vector<std::unique_ptr<exec::ExecState>> sts;
    sts.reserve(static_cast<std::size_t>(opts_.workers));
    for (int w = 0; w < opts_.workers; ++w) {
      auto st = std::make_unique<exec::ExecState>();
      plan->init_state(*st);
      sts.push_back(std::move(st));
    }
    std::lock_guard<std::mutex> lk(mu_);
    SOI_CHECK(!stopping_, "TransformService: create_lane after stop()");
    SOI_CHECK(nlanes_ < kMaxLanes,
              "TransformService: lane limit " << kMaxLanes << " reached");
    const int id = nlanes_;
    Lane& lane = lanes_[static_cast<std::size_t>(id)];
    lane.spec = spec;
    lane.plan = plan;
    lane.cost_seconds = modeled_lane_cost(spec, /*ranks=*/1, opts_.overlap);
    lane.warm_in.assign(n, cplx{1.0, 0.0});
    // One warm-out slice per worker: all workers warm every lane
    // concurrently, so a shared output buffer would be a data race.
    lane.warm_out.assign(
        std::max<std::size_t>(1, static_cast<std::size_t>(opts_.workers)) * n,
        cplx{});
    for (int w = 0; w < opts_.workers; ++w) {
      states_[static_cast<std::size_t>(w) * kMaxLanes +
              static_cast<std::size_t>(id)] =
          std::move(sts[static_cast<std::size_t>(w)]);
    }
    nlanes_ = id + 1;
    return id;
  }

  std::unique_lock<std::mutex> lk(mu_);
  SOI_CHECK(!stopping_, "TransformService: create_lane after stop()");
  SOI_CHECK(nlanes_ < kMaxLanes,
            "TransformService: lane limit " << kMaxLanes << " reached");
  const int id = nlanes_;
  Lane& lane = lanes_[static_cast<std::size_t>(id)];
  lane.spec = spec;
  lane.cost_seconds = modeled_lane_cost(spec, opts_.ranks, opts_.overlap);
  lane.warm_in.assign(n, cplx{1.0, 0.0});
  lane.warm_out.assign(
      static_cast<std::size_t>(opts_.max_concurrency) * n, cplx{});
  nlanes_ = id + 1;
  Command cmd;
  cmd.type = CmdType::kLane;
  cmd.lane = id;
  const std::size_t cidx = append_command_locked(cmd);
  await_acks(cidx, lk);
  return id;
}

void TransformService::warmup() {
  std::unique_lock<std::mutex> lk(mu_);
  if (nlanes_ == 0) return;
  if (!dist_mode()) {
    if (opts_.workers == 0) return;
    for (auto& f : warm_pending_) f = 1;
    cv_work_.notify_all();
    cv_done_.wait(lk, [&] {
      return stopping_ ||
             std::all_of(warm_pending_.begin(), warm_pending_.end(),
                         [](char f) { return f == 0; });
    });
    return;
  }
  for (int l = 0; l < nlanes_; ++l) {
    Command cmd;
    cmd.type = CmdType::kWarm;
    cmd.lane = l;
    const std::size_t cidx = append_command_locked(cmd);
    await_acks(cidx, lk);
  }
}

Ticket TransformService::submit(int lane, int tenant, cspan x, mspan y) {
  return *admit(lane, tenant, x, y, SubmitOptions{}, /*throw_on_full=*/true);
}

Ticket TransformService::submit(int lane, int tenant, cspan x, mspan y,
                                const SubmitOptions& so) {
  return *admit(lane, tenant, x, y, so, /*throw_on_full=*/true);
}

std::optional<Ticket> TransformService::try_submit(int lane, int tenant,
                                                   cspan x, mspan y) {
  return admit(lane, tenant, x, y, SubmitOptions{}, /*throw_on_full=*/false);
}

std::optional<Ticket> TransformService::try_submit(int lane, int tenant,
                                                   cspan x, mspan y,
                                                   const SubmitOptions& so) {
  return admit(lane, tenant, x, y, so, /*throw_on_full=*/false);
}

double TransformService::lane_cost_seconds(int lane) const {
  std::lock_guard<std::mutex> lk(mu_);
  SOI_CHECK(lane >= 0 && lane < nlanes_,
            "TransformService: unknown lane " << lane);
  return lanes_[static_cast<std::size_t>(lane)].cost_seconds;
}

std::optional<Ticket> TransformService::admit(int lane, int tenant, cspan x,
                                              mspan y, const SubmitOptions& so,
                                              bool throw_on_full) {
  std::lock_guard<std::mutex> lk(mu_);
  SOI_CHECK(!stopping_, "TransformService: submit after stop()");
  SOI_CHECK(lane >= 0 && lane < nlanes_,
            "TransformService: unknown lane " << lane);
  SOI_CHECK(tenant >= 0, "TransformService: tenant must be >= 0");
  SOI_CHECK(so.deadline_ms >= 0.0,
            "TransformService: deadline_ms must be >= 0, got "
                << so.deadline_ms);
  const auto n = static_cast<std::size_t>(
      lanes_[static_cast<std::size_t>(lane)].spec.n);
  SOI_CHECK(x.size() == n, "TransformService: lane " << lane << " expects "
                                                     << n << " points, got "
                                                     << x.size());
  SOI_CHECK(y.size() >= n, "TransformService: output too small for lane "
                               << lane);
  if (free_.empty()) {
    metrics_.note_rejected();
    if (throw_on_full) {
      std::ostringstream os;
      os << "TransformService: admission queue full ("
         << opts_.queue_capacity << " slots occupied)";
      throw AdmissionRejectedError(os.str());
    }
    return std::nullopt;
  }
  const std::int32_t idx = free_.back();
  free_.pop_back();
  RequestSlot& s = slots_[static_cast<std::size_t>(idx)];
  s.state = SlotState::kQueued;
  s.lane = lane;
  s.tenant = tenant;
  s.in = x;
  s.out = y;
  s.submit_seconds = epoch_.seconds();
  s.priority = so.priority;
  s.deadline_seconds =
      so.deadline_ms > 0 ? s.submit_seconds + so.deadline_ms * 1e-3 : 0.0;
  s.error = nullptr;
  ring_[(ring_head_ + ring_size_) % ring_.size()] = idx;
  ++ring_size_;
  metrics_.note_admitted(static_cast<std::int64_t>(ring_size_),
                         static_cast<int>(so.priority));
  cv_work_.notify_one();
  return Ticket{idx, s.gen};
}

void TransformService::wait(const Ticket& t) {
  std::unique_lock<std::mutex> lk(mu_);
  SOI_CHECK(t.valid() &&
                static_cast<std::size_t>(t.slot) < slots_.size(),
            "TransformService::wait: invalid ticket");
  RequestSlot& s = slots_[static_cast<std::size_t>(t.slot)];
  SOI_CHECK(s.gen == t.gen && s.state != SlotState::kFree,
            "TransformService::wait: stale ticket (already waited?)");
  cv_done_.wait(lk, [&] {
    return s.state == SlotState::kDone || s.state == SlotState::kFailed;
  });
  const std::exception_ptr err = s.error;
  s.error = nullptr;
  s.state = SlotState::kFree;
  ++s.gen;
  s.in = {};
  s.out = {};
  s.lane = -1;
  free_.push_back(t.slot);
  lk.unlock();
  if (err) std::rethrow_exception(err);
}

MetricsSnapshot TransformService::metrics() const {
  return metrics_.snapshot(epoch_.seconds(), slot_count());
}

void TransformService::reset_metrics() {
  metrics_.reset();
  epoch_.reset();
}

void TransformService::finish_slot_locked(std::int32_t idx,
                                          std::exception_ptr err,
                                          double trace_seconds,
                                          double trace_wait_seconds) {
  RequestSlot& s = slots_[static_cast<std::size_t>(idx)];
  s.state = err ? SlotState::kFailed : SlotState::kDone;
  s.error = err;
  if (err) {
    metrics_.note_failed();
  } else {
    metrics_.note_completed(epoch_.seconds() - s.submit_seconds,
                            static_cast<int>(s.priority));
    metrics_.note_tenant(s.tenant, trace_seconds, trace_wait_seconds);
  }
}

void TransformService::shed_slot_locked(std::int32_t idx, double now) {
  RequestSlot& s = slots_[static_cast<std::size_t>(idx)];
  const Lane& lane = lanes_[static_cast<std::size_t>(s.lane)];
  std::exception_ptr err;
  try {
    std::ostringstream os;
    os << "TransformService: request on lane " << s.lane << " ("
       << priority_name(s.priority) << ") shed before execution: "
       << (now >= s.deadline_seconds
               ? "deadline already passed"
               : "modeled cost exceeds the remaining deadline budget")
       << " (deadline in " << (s.deadline_seconds - now) * 1e3
       << " ms, modeled cost " << lane.cost_seconds * 1e3 << " ms)";
    throw DeadlineExceededError(os.str());
  } catch (...) {
    err = std::current_exception();
  }
  s.state = SlotState::kFailed;
  s.error = err;
  metrics_.note_shed(static_cast<int>(s.priority));
}

std::size_t TransformService::append_command_locked(const Command& cmd) {
  commands_.push_back(cmd);
  cmd_acks_.push_back(0);
  cmd_errors_.push_back(nullptr);
  cv_cmd_.notify_all();
  return commands_.size() - 1;
}

void TransformService::await_acks(std::size_t cmd_idx,
                                  std::unique_lock<std::mutex>& lock) {
  cv_done_.wait(lock, [&] {
    return world_failed_ || cmd_acks_[cmd_idx] >= opts_.ranks;
  });
  if (world_failed_) std::rethrow_exception(world_error_);
}

void TransformService::stop() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stopped_) return;
    stopping_ = true;
    if (ring_size_ > 0) {
      std::exception_ptr err;
      try {
        throw AdmissionRejectedError(
            "TransformService stopped before the request was executed");
      } catch (...) {
        err = std::current_exception();
      }
      for (std::size_t i = 0; i < ring_size_; ++i) {
        const std::int32_t idx = ring_[(ring_head_ + i) % ring_.size()];
        metrics_.note_dequeued();
        finish_slot_locked(idx, err, 0.0, 0.0);
      }
      ring_size_ = 0;
    }
    for (auto& f : warm_pending_) f = 0;
    cv_work_.notify_all();
    cv_done_.notify_all();
  }
  for (auto& th : workers_) th.join();
  workers_.clear();
  if (dist_mode()) {
    if (scheduler_.joinable()) scheduler_.join();
    {
      std::lock_guard<std::mutex> lk(mu_);
      Command cmd;
      cmd.type = CmdType::kStop;
      append_command_locked(cmd);
    }
    if (world_thread_.joinable()) world_thread_.join();
  }
  std::lock_guard<std::mutex> lk(mu_);
  stopped_ = true;
}

// --- serial backend ---------------------------------------------------------

void TransformService::worker_main(int w) {
  const auto wi = static_cast<std::size_t>(w);
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    cv_work_.wait(lk, [&] {
      return stopping_ || warm_pending_[wi] != 0 || ring_size_ > 0;
    });
    if (stopping_) return;
    if (warm_pending_[wi] != 0) {
      // Warmup runs HERE, on the worker thread: the batched FFT scratch
      // is thread-local, so only an execution on this thread can touch
      // the buffers this thread's steady-state requests will reuse.
      const int nl = nlanes_;
      lk.unlock();
      for (int l = 0; l < nl; ++l) {
        Lane& lane = lanes_[static_cast<std::size_t>(l)];
        exec::ExecState& st =
            *states_[wi * kMaxLanes + static_cast<std::size_t>(l)];
        const auto ln = static_cast<std::size_t>(lane.spec.n);
        lane.plan->forward_on(st, lane.warm_in,
                              mspan{lane.warm_out.data() + wi * ln, ln});
      }
      lk.lock();
      warm_pending_[wi] = 0;
      cv_done_.notify_all();
      continue;
    }
    // Tier-aware pick: the lowest tier present wins; within a tier the
    // scan order IS admission order, so FIFO fairness is preserved.
    const auto cap = ring_.size();
    std::size_t pick = 0;
    int best = static_cast<int>(
        slots_[static_cast<std::size_t>(ring_[ring_head_])].priority);
    for (std::size_t i = 1; i < ring_size_ && best > 0; ++i) {
      const auto cidx =
          static_cast<std::size_t>(ring_[(ring_head_ + i) % cap]);
      const int tier = static_cast<int>(slots_[cidx].priority);
      if (tier < best) {
        best = tier;
        pick = i;
      }
    }
    const std::int32_t idx = ring_[(ring_head_ + pick) % cap];
    for (std::size_t i = pick; i + 1 < ring_size_; ++i) {
      ring_[(ring_head_ + i) % cap] = ring_[(ring_head_ + i + 1) % cap];
    }
    --ring_size_;
    RequestSlot& s = slots_[static_cast<std::size_t>(idx)];
    metrics_.note_dequeued();
    // Deadline-aware shedding at dispatch: if the modeled cost no longer
    // fits before the deadline, fail the request NOW — before any of its
    // segment FFTs run — instead of wasting the worker on a result the
    // caller will discard.
    const Lane& lane = lanes_[static_cast<std::size_t>(s.lane)];
    const double now = epoch_.seconds();
    if (s.deadline_seconds > 0 &&
        now + lane.cost_seconds > s.deadline_seconds) {
      shed_slot_locked(idx, now);
      cv_done_.notify_all();
      continue;
    }
    s.state = SlotState::kRunning;
    exec::ExecState& st =
        *states_[wi * kMaxLanes + static_cast<std::size_t>(s.lane)];
    const cspan in = s.in;
    const mspan out = s.out;
    lk.unlock();

    Timer t;
    std::exception_ptr err;
    try {
      lane.plan->forward_on(st, in, out);
    } catch (...) {
      err = std::current_exception();
    }
    metrics_.note_busy(t.seconds());
    double secs = 0.0;
    double wait = 0.0;
    if (!err) {
      for (const auto& r : st.trace.records()) {
        secs += r.seconds;
        wait += r.wait_seconds;
      }
    }

    lk.lock();
    finish_slot_locked(idx, err, secs, wait);
    cv_done_.notify_all();
  }
}

// --- distributed backend ----------------------------------------------------

void TransformService::scheduler_main() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    cv_work_.wait(lk, [&] {
      return stopping_ ||
             (ring_size_ > 0 &&
              batches_issued_ - batches_done_ < kMaxBatchesInFlight);
    });
    if (stopping_) return;
    // Epoch linger: a below-capacity epoch waits (bounded) for more
    // arrivals of ANY shape — a partial epoch amortises the exchange
    // flight time over fewer transforms. Only the scheduler dequeues, so
    // queued requests cannot disappear while lingering.
    if (opts_.batch_linger_us > 0 &&
        ring_size_ < static_cast<std::size_t>(opts_.max_concurrency)) {
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double, std::micro>(
                  opts_.batch_linger_us));
      cv_work_.wait_until(lk, deadline, [&] {
        return stopping_ ||
               ring_size_ >= static_cast<std::size_t>(opts_.max_concurrency);
      });
      if (stopping_) return;
    }
    const auto cap = ring_.size();
    // Pass 1 — deadline-aware shedding. A request whose modeled cost no
    // longer fits before its deadline fails HERE, before any of its
    // segment FFTs run, so it never occupies an epoch slot a feasible
    // request could use.
    {
      const double now = epoch_.seconds();
      std::size_t kept = 0;
      bool any_shed = false;
      for (std::size_t i = 0; i < ring_size_; ++i) {
        const std::int32_t idx = ring_[(ring_head_ + i) % cap];
        const RequestSlot& s = slots_[static_cast<std::size_t>(idx)];
        const Lane& lane = lanes_[static_cast<std::size_t>(s.lane)];
        if (s.deadline_seconds > 0 &&
            now + lane.cost_seconds > s.deadline_seconds) {
          metrics_.note_dequeued();
          shed_slot_locked(idx, now);
          any_shed = true;
        } else {
          ring_[(ring_head_ + kept++) % cap] = idx;
        }
      }
      ring_size_ = kept;
      if (any_shed) cv_done_.notify_all();
      if (ring_size_ == 0) continue;
    }
    // Pass 2 — epoch packing in (tier, FIFO) order: interactive members
    // first, then batch, then background; within a tier the scan order
    // IS admission order. Mixed shapes are welcome — the rank bodies
    // compose them into one merged chunk graph (exec::run_epoch).
    Command cmd;
    const double budget = opts_.epoch_budget_ms > 0
                              ? opts_.epoch_budget_ms * 1e-3
                              : std::numeric_limits<double>::infinity();
    double packed = 0.0;
    int taken = 0;
    for (int tier = 0; tier < kTiers && taken < opts_.max_concurrency;
         ++tier) {
      for (std::size_t i = 0;
           i < ring_size_ && taken < opts_.max_concurrency; ++i) {
        const std::int32_t idx = ring_[(ring_head_ + i) % cap];
        RequestSlot& s = slots_[static_cast<std::size_t>(idx)];
        if (s.state != SlotState::kQueued ||
            static_cast<int>(s.priority) != tier) {
          continue;
        }
        const double cost =
            lanes_[static_cast<std::size_t>(s.lane)].cost_seconds;
        // The first member always fits (no livelock); after that only
        // what the summed modeled price still allows.
        if (taken > 0 && packed + cost > budget) continue;
        cmd.slots[static_cast<std::size_t>(taken)] = idx;
        cmd.lanes[static_cast<std::size_t>(taken)] = s.lane;
        ++taken;
        packed += cost;
        s.state = SlotState::kRunning;
        metrics_.note_dequeued();
      }
    }
    // Compact: everything still queued keeps admission order.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < ring_size_; ++i) {
      const std::int32_t idx = ring_[(ring_head_ + i) % cap];
      if (slots_[static_cast<std::size_t>(idx)].state == SlotState::kQueued) {
        ring_[(ring_head_ + kept++) % cap] = idx;
      }
    }
    ring_size_ = kept;
    cmd.type = CmdType::kEpoch;
    cmd.count = taken;
    ++batches_issued_;
    append_command_locked(cmd);
  }
}

void TransformService::rank_main(net::Transport& comm) {
  const int rank = comm.rank();
  std::array<std::unique_ptr<core::SoiFftDist>, kMaxLanes> plans;
  // Rank-local epoch scratch, (re)sized at kLane time so steady-state
  // epochs never allocate.
  exec::RunScratch escratch;
  // Rank-local coded-exchange snapshots (per lane): the plan's counters
  // are cumulative, so per-batch resilience attribution is the delta
  // against the previous retirement.
  std::array<net::CodedStats, kMaxLanes> prev_coded{};
  std::size_t cursor = 0;
  try {
    for (;;) {
      Command cmd;
      {
        std::unique_lock<std::mutex> lk(mu_);
        cv_cmd_.wait(lk,
                     [&] { return world_failed_ || commands_.size() > cursor; });
        if (world_failed_) return;
        cmd = commands_[cursor];
      }
      const std::size_t cmd_idx = cursor++;
      switch (cmd.type) {
        case CmdType::kStop:
          return;
        case CmdType::kLane: {
          // Every rank constructs its own plan; the registry memoises the
          // expensive shared artifacts (profile design, conv table), so R
          // concurrent constructions build each exactly once.
          const Lane& lane = lanes_[static_cast<std::size_t>(cmd.lane)];
          auto& reg = tune::PlanRegistry::global();
          const auto prof = reg.profile(lane.spec.accuracy);
          core::DistOptions dopts;
          dopts.segments_per_rank = lane.spec.segments_per_rank;
          dopts.chunk_depth = lane.spec.chunk_depth;
          dopts.overlap = opts_.overlap;
          dopts.max_concurrency = opts_.max_concurrency;
          dopts.coding = opts_.coding;
          dopts.validate_input = 0;  // service-level contract: no pre-scan
          dopts.table = reg.conv_table(
              lane.spec.n, comm.size() * lane.spec.segments_per_rank, *prof);
          plans[static_cast<std::size_t>(cmd.lane)] =
              std::make_unique<core::SoiFftDist>(comm, lane.spec.n, *prof,
                                                 dopts);
          // Worst-case epoch: max_concurrency members all running the
          // largest lane's graph.
          std::size_t max_nodes = 0;
          for (const auto& p : plans) {
            if (p) max_nodes = std::max(max_nodes, p->node_count());
          }
          exec::bind_epoch_scratch(
              escratch,
              static_cast<std::size_t>(opts_.max_concurrency) * max_nodes,
              opts_.max_concurrency);
          std::lock_guard<std::mutex> lk(mu_);
          ++cmd_acks_[cmd_idx];
          cv_done_.notify_all();
          break;
        }
        case CmdType::kWarm: {
          // The lane's max_concurrency instances as one epoch, so every
          // per-instance state and request slot is touched.
          Lane& lane = lanes_[static_cast<std::size_t>(cmd.lane)];
          auto& plan = *plans[static_cast<std::size_t>(cmd.lane)];
          const std::int64_t local = plan.local_size();
          const int k = opts_.max_concurrency;
          std::array<exec::EpochMemberT<double>, net::kMaxChannels>
              members{};
          for (int i = 0; i < k; ++i) {
            plan.bind_epoch_member(
                members[static_cast<std::size_t>(i)], i, i,
                cspan{lane.warm_in.data() + rank * local,
                      static_cast<std::size_t>(local)},
                mspan{lane.warm_out.data() +
                          static_cast<std::int64_t>(i) * lane.spec.n +
                          rank * local,
                      static_cast<std::size_t>(local)});
          }
          exec::run_epoch(std::span<const exec::EpochMemberT<double>>(
                              members.data(), static_cast<std::size_t>(k)),
                          escratch);
          plan.finish_epoch(k);
          comm.barrier();
          std::lock_guard<std::mutex> lk(mu_);
          ++cmd_acks_[cmd_idx];
          cv_done_.notify_all();
          break;
        }
        case CmdType::kEpoch: {
          // Compose every member's chunk graph — one or several lanes —
          // into one merged schedule (exec::run_epoch). Member i rides
          // collective channel i; instances of each plan are numbered in
          // epoch order, identically on every rank.
          const auto cnt = static_cast<std::size_t>(cmd.count);
          std::array<exec::EpochMemberT<double>, net::kMaxChannels>
              members{};
          std::array<int, net::kMaxChannels> inst_of{};
          std::array<int, kMaxLanes> per_lane{};
          Timer bt;
          std::exception_ptr err;
          try {
            for (std::size_t i = 0; i < cnt; ++i) {
              const auto l = static_cast<std::size_t>(cmd.lanes[i]);
              auto& plan = *plans[l];
              const std::int64_t local = plan.local_size();
              const RequestSlot& s =
                  slots_[static_cast<std::size_t>(cmd.slots[i])];
              inst_of[i] = per_lane[l]++;
              plan.bind_epoch_member(
                  members[i], inst_of[i], static_cast<int>(i),
                  cspan{s.in.data() + rank * local,
                        static_cast<std::size_t>(local)},
                  mspan{s.out.data() + rank * local,
                        static_cast<std::size_t>(local)});
              members[i].tier = static_cast<int>(s.priority);
            }
            exec::run_epoch(std::span<const exec::EpochMemberT<double>>(
                                members.data(), cnt),
                            escratch);
            // Per plan, ascending lane order — identical on every rank,
            // because finish_epoch's residual guard may issue a
            // collective.
            for (std::size_t l = 0; l < kMaxLanes; ++l) {
              if (per_lane[l] > 0) plans[l]->finish_epoch(per_lane[l]);
            }
          } catch (...) {
            err = std::current_exception();
          }
          // No inter-epoch barrier: a rendezvous between every epoch
          // convoys the ranks and costs O(ranks x scheduler latency) on
          // an oversubscribed host. The transport matches messages FIFO
          // per (src, dst, tag), so a fast rank may run ahead into the next
          // epoch while a slow rank drains this one — its sends queue
          // behind the current epoch's and match in order. Completion is
          // a countdown instead: the LAST rank to finish observes that
          // every rank has written its output block and retires every
          // member.
          std::lock_guard<std::mutex> lk(mu_);
          if (err && !cmd_errors_[cmd_idx]) cmd_errors_[cmd_idx] = err;
          {
            // Each rank folds its OWN resilience deltas (parity
            // recoveries are receive-side, per-rank work) into the
            // epoch's tier: the tier of the epoch's first request.
            const int tier0 = static_cast<int>(
                slots_[static_cast<std::size_t>(cmd.slots[0])].priority);
            for (std::size_t l = 0; l < kMaxLanes; ++l) {
              if (per_lane[l] == 0) continue;
              auto& pc = prev_coded[l];
              const net::CodedStats cs = plans[l]->coded_stats();
              metrics_.note_resilience(
                  tier0, cs.recovered_chunks - pc.recovered_chunks,
                  cs.parity_bytes - pc.parity_bytes, plans[l]->last_retries());
              pc = cs;
            }
          }
          if (++cmd_acks_[cmd_idx] == opts_.ranks) {
            metrics_.note_busy(bt.seconds() * static_cast<double>(cnt));
            ++batches_done_;
            cv_work_.notify_all();  // unblocks the scheduler's flow control
            const std::exception_ptr berr = cmd_errors_[cmd_idx];
            for (std::size_t i = 0; i < cnt; ++i) {
              double secs = 0.0;
              double wait = 0.0;
              if (!berr) {
                const auto& plan =
                    *plans[static_cast<std::size_t>(cmd.lanes[i])];
                for (const auto& r :
                     plan.instance_trace(inst_of[i]).records()) {
                  secs += r.seconds;
                  wait += r.wait_seconds;
                }
              }
              finish_slot_locked(cmd.slots[i], berr, secs, wait);
            }
            cv_done_.notify_all();
          }
          break;
        }
      }
    }
  } catch (...) {
    std::lock_guard<std::mutex> lk(mu_);
    if (!world_failed_) {
      world_failed_ = true;
      world_error_ = std::current_exception();
    }
    cv_cmd_.notify_all();
    cv_done_.notify_all();
  }
}

}  // namespace soi::serve
