#include "soi/exec.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace soi::exec {

const StageRecord* TraceLog::find(std::string_view name) const {
  for (const auto& r : records_) {
    if (r.name == name) return &r;
  }
  return nullptr;
}

double TraceLog::total_seconds() const {
  double total = 0.0;
  for (const auto& r : records_) total += r.seconds;
  return total;
}

double overlap_efficiency(const TraceLog& trace) {
  double total = 0.0;
  double wait = 0.0;
  for (const auto& r : trace.records()) {
    total += r.seconds;
    wait += r.wait_seconds;
  }
  if (total <= 0.0) return 1.0;
  return std::clamp(1.0 - wait / total, 0.0, 1.0);
}

template <class Real>
void PipelineT<Real>::add(std::unique_ptr<StageT<Real>> stage) {
  SOI_CHECK(stage != nullptr, "Pipeline::add: null stage");
  stages_.push_back(std::move(stage));
  rec_offset_.clear();  // trace template is stale until init_trace()
  finalized_ = false;
}

template <class Real>
int PipelineT<Real>::add_node(const NodeSpec& spec) {
  SOI_CHECK(spec.stage >= 0 &&
                spec.stage < static_cast<int>(stages_.size()),
            "Pipeline::add_node: stage " << spec.stage << " not added yet");
  finalized_ = false;
  nodes_.resize(declared_nodes_);
  edges_.resize(declared_edges_);
  nodes_.push_back(spec);
  declared_nodes_ = nodes_.size();
  return static_cast<int>(nodes_.size()) - 1;
}

template <class Real>
void PipelineT<Real>::add_edge(int before, int after) {
  finalized_ = false;
  nodes_.resize(declared_nodes_);
  edges_.resize(declared_edges_);
  SOI_CHECK(before >= 0 && before < static_cast<int>(nodes_.size()) &&
                after >= 0 && after < static_cast<int>(nodes_.size()) &&
                before != after,
            "Pipeline::add_edge: bad edge " << before << " -> " << after);
  edges_.emplace_back(before, after);
  declared_edges_ = edges_.size();
}

template <class Real>
void PipelineT<Real>::finalize_graph() {
  const int nstages = static_cast<int>(stages_.size());
  nodes_.resize(declared_nodes_);
  edges_.resize(declared_edges_);

  // Stages that declared no nodes become atomic auto nodes with barrier
  // edges to every node of their neighbouring stages; a pipeline with no
  // declared nodes at all degenerates to the old ordered stage list.
  std::vector<bool> has_nodes(static_cast<std::size_t>(nstages), false);
  for (const auto& n : nodes_) {
    has_nodes[static_cast<std::size_t>(n.stage)] = true;
  }
  for (int s = 0; s < nstages; ++s) {
    if (has_nodes[static_cast<std::size_t>(s)]) continue;
    NodeSpec spec;
    spec.stage = s;
    spec.seq_key = s;
    spec.ovl_key = s;
    spec.is_auto = true;
    nodes_.push_back(spec);
  }
  for (int v = 0; v < static_cast<int>(nodes_.size()); ++v) {
    const int s = nodes_[static_cast<std::size_t>(v)].stage;
    const bool is_auto = !has_nodes[static_cast<std::size_t>(s)];
    if (!is_auto) continue;
    for (int u = 0; u < static_cast<int>(nodes_.size()); ++u) {
      const int us = nodes_[static_cast<std::size_t>(u)].stage;
      if (us == s - 1) edges_.emplace_back(u, v);
      if (us == s + 1 && has_nodes[static_cast<std::size_t>(us)]) {
        edges_.emplace_back(v, u);
      }
    }
  }

  const auto nnodes = nodes_.size();
  succ_off_.assign(nnodes + 1, 0);
  indegree0_.assign(nnodes, 0);
  for (const auto& [b, a] : edges_) {
    ++succ_off_[static_cast<std::size_t>(b) + 1];
    ++indegree0_[static_cast<std::size_t>(a)];
  }
  for (std::size_t i = 1; i <= nnodes; ++i) succ_off_[i] += succ_off_[i - 1];
  succ_.resize(edges_.size());
  {
    std::vector<int> cursor(succ_off_.begin(), succ_off_.end() - 1);
    for (const auto& [b, a] : edges_) {
      succ_[static_cast<std::size_t>(cursor[static_cast<std::size_t>(b)]++)] =
          a;
    }
  }

  // Acyclicity check (Kahn): every node must be reachable from the roots.
  {
    std::vector<int> indeg = indegree0_;
    std::vector<int> queue;
    queue.reserve(nnodes);
    for (std::size_t v = 0; v < nnodes; ++v) {
      if (indeg[v] == 0) queue.push_back(static_cast<int>(v));
    }
    std::size_t head = 0;
    while (head < queue.size()) {
      const int v = queue[head++];
      for (int e = succ_off_[static_cast<std::size_t>(v)];
           e < succ_off_[static_cast<std::size_t>(v) + 1]; ++e) {
        const int u = succ_[static_cast<std::size_t>(e)];
        if (--indeg[static_cast<std::size_t>(u)] == 0) queue.push_back(u);
      }
    }
    SOI_CHECK(queue.size() == nnodes,
              "Pipeline: dataflow graph has a cycle ("
                  << queue.size() << " of " << nnodes
                  << " nodes schedulable)");
  }

  finalized_ = true;
  bind_scratch(scratch_);
}

template <class Real>
void PipelineT<Real>::bind_scratch(RunScratch& s) const {
  SOI_CHECK(finalized_, "Pipeline::bind_scratch: init_trace() not called");
  bind_epoch_scratch(s, nodes_.size(), 1);
}

template <class Real>
void PipelineT<Real>::init_trace(TraceLog& trace) {
  std::vector<StageRecord> records;
  rec_offset_.clear();
  rec_offset_.reserve(stages_.size());
  for (const auto& s : stages_) {
    rec_offset_.push_back(records.size());
    s->plan_records(records);
  }
  trace.plan(std::move(records));
  finalize_graph();
}

template <class Real>
void PipelineT<Real>::run(ExecContextT<Real>& ctx) const {
  const EpochMemberT<Real> solo{this, &ctx, 0};
  run_epoch(std::span<const EpochMemberT<Real>>(&solo, 1),
            ctx.scratch != nullptr ? *ctx.scratch : scratch_);
}

template class PipelineT<double>;
template class PipelineT<float>;

void bind_epoch_scratch(RunScratch& s, std::size_t total_nodes,
                        int max_members) {
  SOI_CHECK(max_members >= 1 && max_members <= kMaxEpochMembers,
            "bind_epoch_scratch: members " << max_members << " not in [1, "
                                           << kMaxEpochMembers << "]");
  s.indegree.assign(total_nodes, 0);
  s.heap.clear();
  s.heap.reserve(total_nodes);
  s.epoch_base.assign(static_cast<std::size_t>(max_members) + 1, 0);
  s.epoch_member.assign(total_nodes, 0);
  s.capacity = total_nodes;
}

template <class Real>
void run_epoch(std::span<const EpochMemberT<Real>> members,
               RunScratch& scratch) {
  const int m = static_cast<int>(members.size());
  SOI_CHECK(m >= 1 && m <= kMaxEpochMembers,
            "run_epoch: " << m << " members not in [1, " << kMaxEpochMembers
                          << "]");
  std::size_t total = 0;
  for (int i = 0; i < m; ++i) {
    const auto& em = members[static_cast<std::size_t>(i)];
    SOI_CHECK(em.pipeline != nullptr && em.ctx != nullptr,
              "run_epoch: member " << i << " missing pipeline/context");
    const PipelineT<Real>& p = *em.pipeline;
    SOI_CHECK(p.finalized_ && p.rec_offset_.size() == p.stages_.size(),
              "run_epoch: member " << i << "'s pipeline not finalised "
                                      "(init_trace() not called)");
    SOI_CHECK(em.ctx->arena != nullptr && em.ctx->trace != nullptr,
              "run_epoch: member " << i << " context missing arena/trace");
    SOI_CHECK(em.tier >= 0 && em.tier < kMaxEpochMembers,
              "run_epoch: member " << i << " tier " << em.tier
                                   << " out of range");
    total += p.nodes_.size();
  }
  // Concurrent members sharing one communicator must keep their traffic
  // apart: distinct collective channels (the halo/staged tags derive from
  // them too), and distinct instance slots when they share one pipeline.
  for (int i = 0; i < m; ++i) {
    for (int j = i + 1; j < m; ++j) {
      const auto& a = members[static_cast<std::size_t>(i)];
      const auto& b = members[static_cast<std::size_t>(j)];
      if (a.ctx->comm != nullptr && a.ctx->comm == b.ctx->comm) {
        SOI_CHECK(a.ctx->channel != b.ctx->channel,
                  "run_epoch: members " << i << " and " << j
                                        << " share channel "
                                        << a.ctx->channel
                                        << " on one transport");
      }
      if (a.pipeline == b.pipeline) {
        SOI_CHECK(a.ctx->instance != b.ctx->instance,
                  "run_epoch: members " << i << " and " << j
                                        << " share instance "
                                        << a.ctx->instance
                                        << " of one pipeline");
      }
    }
  }
  SOI_CHECK(scratch.capacity >= total,
            "run_epoch: scratch bound for "
                << scratch.capacity << " node slots, need " << total
                << " (bind_epoch_scratch with enough nodes)");

  // Reentrancy guard: an execution owns its scratch (and the members'
  // arenas/traces) exclusively. Racing on one scratch is corruption, not
  // parallelism — concurrent executions bind their own (ExecState).
  bool expected = false;
  SOI_CHECK(scratch.running.compare_exchange_strong(expected, true),
            "run_epoch: concurrent execution on one scratch/state "
            "(share the plan, not the execution state)");
  struct Release {
    std::atomic<bool>& flag;
    ~Release() { flag.store(false); }
  } release{scratch.running};

  // Member namespaces: member i owns global ids [base[i], base[i+1]).
  auto& base = scratch.epoch_base;
  auto& owner = scratch.epoch_member;
  if (base.size() < static_cast<std::size_t>(m) + 1) {
    base.resize(static_cast<std::size_t>(m) + 1);  // setup-time growth only
  }
  if (owner.size() < total) owner.resize(total);
  base[0] = 0;
  for (int i = 0; i < m; ++i) {
    const auto nn = static_cast<int>(
        members[static_cast<std::size_t>(i)].pipeline->nodes_.size());
    base[static_cast<std::size_t>(i) + 1] =
        base[static_cast<std::size_t>(i)] + nn;
    std::fill(owner.begin() + base[static_cast<std::size_t>(i)],
              owner.begin() + base[static_cast<std::size_t>(i) + 1],
              static_cast<std::int32_t>(i));
  }

  for (int i = 0; i < m; ++i) {
    members[static_cast<std::size_t>(i)].ctx->trace->zero_seconds();
  }

  // Merged ready-queue over the composed graph, ties broken by global
  // node id. A one-member epoch (Pipeline::run) orders READY nodes by its
  // schedule key alone; the context's overlap flag picks the key set.
  // With more members the priority is (phase << 40) + within: phase-0
  // nodes (communication posts) order by (key, member) so every member's
  // traffic is on the wire before any member blocks; phase-1/2 nodes run
  // depth-first per member, members ordered by (tier, index) — an
  // interactive member's wait..demod tail preempts a background member's
  // whenever both are ready. All terms are pure functions of the member
  // table, so every rank composing the same epoch posts communication in
  // the same order.
  auto priority = [&](int gv) -> std::int64_t {
    const int mi = owner[static_cast<std::size_t>(gv)];
    const auto& em = members[static_cast<std::size_t>(mi)];
    const auto& n = em.pipeline->nodes_[static_cast<std::size_t>(
        gv - base[static_cast<std::size_t>(mi)])];
    const std::int64_t key = em.ctx->overlap ? n.ovl_key : n.seq_key;
    if (m == 1) return key;
    const std::int64_t within =
        n.many_phase == 0
            ? key * m + mi
            : (static_cast<std::int64_t>(em.tier) * kMaxEpochMembers + mi) *
                      1000000 +
                  key;
    return (static_cast<std::int64_t>(n.many_phase) << 40) + within;
  };
  auto later = [&](int a, int b) {
    const std::int64_t ra = priority(a);
    const std::int64_t rb = priority(b);
    return ra != rb ? ra > rb : a > b;
  };

  auto& indegree = scratch.indegree;
  auto& heap = scratch.heap;
  for (int i = 0; i < m; ++i) {
    const auto& p = *members[static_cast<std::size_t>(i)].pipeline;
    std::copy(p.indegree0_.begin(), p.indegree0_.end(),
              indegree.begin() + base[static_cast<std::size_t>(i)]);
  }
  heap.clear();
  for (std::size_t gv = 0; gv < total; ++gv) {
    if (indegree[gv] == 0) {
      heap.push_back(static_cast<int>(gv));
      std::push_heap(heap.begin(), heap.end(), later);
    }
  }

  std::size_t executed = 0;
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    const int gv = heap.back();
    heap.pop_back();
    const int mi = owner[static_cast<std::size_t>(gv)];
    const auto& em = members[static_cast<std::size_t>(mi)];
    const PipelineT<Real>& p = *em.pipeline;
    const int mbase = base[static_cast<std::size_t>(mi)];
    const int v = gv - mbase;
    ExecContextT<Real>& ctx = *em.ctx;
    const NodeSpec& node = p.nodes_[static_cast<std::size_t>(v)];
    StageRecord* rec =
        ctx.trace->at(p.rec_offset_[static_cast<std::size_t>(node.stage)] +
                      static_cast<std::size_t>(node.rec));
    StageT<Real>& stage = *p.stages_[static_cast<std::size_t>(node.stage)];
    if (node.is_auto) {
      stage.run(ctx, rec);
    } else {
      stage.run_node(ctx, rec, node);
    }
    ++executed;
    for (int e = p.succ_off_[static_cast<std::size_t>(v)];
         e < p.succ_off_[static_cast<std::size_t>(v) + 1]; ++e) {
      const int gu = mbase + p.succ_[static_cast<std::size_t>(e)];
      if (--indegree[static_cast<std::size_t>(gu)] == 0) {
        heap.push_back(gu);
        std::push_heap(heap.begin(), heap.end(), later);
      }
    }
  }
  SOI_CHECK(executed == total, "run_epoch: scheduled "
                                   << executed << " of " << total
                                   << " nodes");
}

template void run_epoch<double>(
    std::span<const EpochMemberT<double>> members, RunScratch& scratch);
template void run_epoch<float>(std::span<const EpochMemberT<float>> members,
                               RunScratch& scratch);

}  // namespace soi::exec
