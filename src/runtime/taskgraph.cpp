#include "runtime/taskgraph.hpp"

#include <cstddef>
#include <memory>
#include <mutex>

namespace bots::rt {

// ---------------------------------------------------------------------------
// Recording
// ---------------------------------------------------------------------------

void TaskGraph::begin_record(const void* key) {
  nodes_.clear();
  rec_edges_.clear();
  succ_storage_.clear();
  roots_.clear();
  key_ = key;
  epoch_ = 0;
  frozen_ = false;
  aborted_ = false;
}

std::uint32_t TaskGraph::record_node(std::function<void()> body, Tiedness t) {
  Node& n = nodes_.emplace_back();
  n.body = std::move(body);
  n.tied = t;
  return static_cast<std::uint32_t>(nodes_.size() - 1);
}

void TaskGraph::record_edge(std::uint32_t pred, std::uint32_t succ) {
  rec_edges_.emplace_back(pred, succ);
}

void TaskGraph::record_abort() noexcept { aborted_ = true; }

void TaskGraph::freeze(Worker& w) {
  if (aborted_) {
    // The executed structure diverged from the recorded one (a spawn
    // degraded to inline under allocation failure): the recording is void.
    // Stay un-frozen; the next invocation simply records again.
    nodes_.clear();
    rec_edges_.clear();
    return;
  }
  const std::uint32_t n = static_cast<std::uint32_t>(nodes_.size());
  // Bake the edge list into CSR successor spans + predecessor counts. The
  // edges came from the tracker's PREDECESSOR computation (structural), not
  // from which pushes raced a finishing task, so the baked graph is
  // independent of record-time scheduling.
  std::vector<std::uint32_t> offset(n + 1, 0);
  for (const auto& e : rec_edges_) ++offset[e.first + 1];
  for (std::uint32_t i = 0; i < n; ++i) offset[i + 1] += offset[i];
  succ_storage_.assign(rec_edges_.size(), 0);
  std::vector<std::uint32_t> cursor(offset.begin(), offset.end() - 1);
  for (const auto& e : rec_edges_) {
    succ_storage_[cursor[e.first]++] = e.second;
    ++nodes_[e.second].npred;
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    Node& nd = nodes_[i];
    nd.dep.task = &nd.task;
    nd.dep.graph = this;
    nd.dep.baked_succs = succ_storage_.data() + offset[i];
    nd.dep.baked_count = offset[i + 1] - offset[i];
    if (nd.npred == 0) roots_.push_back(i);
  }
  rec_edges_.clear();
  rec_edges_.shrink_to_fit();
  // Structure-relevance fold (PR 9): graph_epoch() moves only on changes
  // that invalidate a recorded shape — reconfigure() / shrink_team (team
  // size, topology, node mapping). reconfigure_live() deliberately does
  // NOT bump it: a steal-policy or tunable hot-swap changes WHERE tasks
  // run, never the recorded task set or its edges, so frozen graphs stay
  // replayable across any number of live swaps and re-record exactly when
  // structure-relevant configuration changed.
  epoch_ = w.sched->graph_epoch();
  frozen_ = true;
  ++w.stats.graphs_recorded;
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

void TaskGraph::replay(Worker& w) {
  Scheduler& s = *w.sched;
  ++w.stats.graphs_replayed;
  ++replays_;
  const std::size_t n = nodes_.size();
  if (n == 0) return;
  Task* parent = w.current;
  const std::uint32_t depth =
      (parent != nullptr ? parent->depth() + 1 : 1) + w.inline_depth;
  // One RMW charges the parent every child + reference of the whole graph —
  // the per-spawn parent-cacheline traffic a replay exists to avoid.
  parent->add_children_bulk(n);
  for (Node& nd : nodes_) {
    Task& t = nd.task;
    t.reset_for_reuse();
    t.set_links(parent, depth, nd.tied, TaskStorage::graph);
    t.set_dep(&nd.dep);
    // No concurrent access until a root is published below, so plain-speed
    // stores re-arm the counters.
    nd.dep.pending.store(nd.npred, std::memory_order_relaxed);
    t.init_env(BodyRef{&nd.body});
    w.stats.env_bytes += t.env_bytes();
  }
  // Bulk spawn-side accounting, BEFORE any root is published: the creation
  // invariant (created == deferred on this path) and the region/request
  // live counts can only ever overcount in-flight work, never open a
  // barrier early.
  w.stats.tasks_created += n;
  w.stats.tasks_deferred += n;
  // One weighted record for the whole replayed graph (payload = node count)
  // keeps the spawn counter in lockstep with the bulk deferred accounting.
  trace_record(w.ring, TraceEvent::spawn, n, 1, n);
  w.note_spawned(n);
  if (RegionCtx* c = parent->ctx()) c->note_deferred_bulk(n);
  // Workers start from the recorded root frontier; interior nodes surface
  // through the finish-path successor walk exactly as their predecessors
  // retire (execute or discard — a cancelled replay drains by discards).
  for (std::uint32_t r : roots_) s.enqueue_released(w, nodes_[r].task);
  s.taskwait_from(w);
}

void TaskGraph::release_baked(Worker& w, DepNode& n) noexcept {
  w.stats.edges_resolved += n.baked_count;
  for (std::uint32_t i = 0; i < n.baked_count; ++i) {
    Node& succ = nodes_[n.baked_succs[i]];
    if (succ.dep.pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      w.sched->enqueue_released(w, succ.task);
    }
  }
}

// ---------------------------------------------------------------------------
// Region drivers
// ---------------------------------------------------------------------------

void run_graph_region(Scheduler& s, TaskGraph& g, const void* key,
                      const std::function<void(DepScope&)>& build) {
  Worker* w = detail::tls_worker;
  if (w == nullptr || !s.config().use_taskgraph_replay) {
    DepScope sc;
    build(sc);
    sc.wait();
    return;
  }
  if (g.valid_for(s, key)) {
    g.replay(*w);
    return;
  }
  g.begin_record(key);
  {
    DepScope sc(&g);
    build(sc);
    sc.wait();
  }
  g.freeze(*w);
}

void graph_region(const char* tag, const void* key,
                  const std::function<void(DepScope&)>& build) {
  Worker* w = detail::tls_worker;
  if (w == nullptr) {
    DepScope sc;
    build(sc);
    sc.wait();
    return;
  }
  Scheduler& s = *w->sched;
  run_graph_region(s, s.find_or_create_graph(tag), key, build);
}

// ---------------------------------------------------------------------------
// Scheduler-side registry (here so scheduler.cpp stays graph-agnostic apart
// from the finish hook and epoch bumps)
// ---------------------------------------------------------------------------

TaskGraph& Scheduler::find_or_create_graph(const std::string& tag) {
  std::lock_guard<std::mutex> lock(graphs_mutex_);
  auto& slot = graphs_[tag];
  if (!slot) slot = std::make_unique<TaskGraph>();
  return *slot;
}

}  // namespace bots::rt
