// `dataflow` workload: a seeded stream of sparselu factorizations and
// strassen multiplies in their depend() versions under graph_region.
//
// Each app keeps two retained slots (buffers + graph tag). A step picks an
// app and a slot from the seed. Most steps repeat the slot's shape: the
// input is restored in place (sparselu reset_values; strassen's inputs are
// read-only) and the recorded graph is replayed. A designed share of steps
// — exactly one in every kFreshEvery steps of each app, at a seeded
// position — draws a fresh seed: new buffers (so a new graph key, while the
// old buffers are still alive, so the address cannot repeat) and, for
// sparselu, a new sparsity pattern. Those steps record. Recording therefore
// runs beside replay in one stream, so a replay gain paid for by recording
// shows up in the per-app times.
//
// Checks per step: record-vs-replay matches the plan (so the replay share
// equals the designed share), the task ledger, and the edge law
// edges_resolved == deps_edges + (replayed ? graph edges : 0). Recorded
// outputs are checked with the kernel's verify; replayed outputs must
// repeat the recorded output's digest (verify again on any mismatch).
#include <array>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "kernels/sparselu/sparselu.hpp"
#include "kernels/strassen/strassen.hpp"
#include "runtime/taskgraph.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr int kSlots = 2;
/// One step in this many of each app draws a fresh input (records).
constexpr int kFreshEvery = 8;

/// Sizes: small blocks keep task bodies in the tens of microseconds, so
/// dependence tracking and replay are a visible share of each step.
bots::sparselu::Params lu_params() {
  bots::sparselu::Params p;
  p.nb = 24;
  p.bs = 32;
  return p;
}

bots::strassen::Params mm_params() {
  bots::strassen::Params p;
  p.n = 256;
  p.base = 32;
  return p;
}

struct LuSlot {
  bots::sparselu::Params p = lu_params();
  std::unique_ptr<bots::sparselu::BlockMatrix> m;
  std::string tag;
  std::uint64_t digest = 0;

  void fresh(std::uint64_t seed) {
    p.seed = seed;
    auto next = std::make_unique<bots::sparselu::BlockMatrix>(
        bots::sparselu::make_input(p));
    m.swap(next);  // old buffers die after the new ones exist
  }
  void restore() { bots::sparselu::reset_values(p, *m); }
  void run(rt::Scheduler& s) {
    bots::sparselu::factor_dataflow(*m, s, rt::Tiedness::tied, tag.c_str());
  }
  [[nodiscard]] bool verify() const { return bots::sparselu::verify(p, *m); }
  [[nodiscard]] std::uint64_t output_digest() const { return digest_matrix(*m); }
};

struct MmSlot {
  bots::strassen::Params p = mm_params();
  std::vector<double> a, b, c;
  std::string tag;
  std::uint64_t digest = 0;

  void fresh(std::uint64_t seed) {
    p.seed = seed;
    std::vector<double> na = bots::strassen::make_matrix(p, 1);
    std::vector<double> nb = bots::strassen::make_matrix(p, 2);
    std::vector<double> nc(p.n * p.n);
    a.swap(na);
    b.swap(nb);
    c.swap(nc);
  }
  void restore() {}
  void run(rt::Scheduler& s) {
    bots::strassen::multiply_dataflow(p, a.data(), b.data(), c.data(), s,
                                      rt::Tiedness::tied, tag.c_str());
  }
  [[nodiscard]] bool verify() const { return bots::strassen::verify(p, a, b, c); }
  [[nodiscard]] std::uint64_t output_digest() const {
    return digest_bytes(c.data(), c.size() * sizeof(double));
  }
};

struct Step {
  int app = 0;  ///< 0 = sparselu, 1 = strassen
  int slot = 0;
  bool record = false;  ///< planned: fresh input or first use of the slot
};

/// The seeded plan: app and slot per step, fresh steps at one seeded
/// position in every kFreshEvery steps of each app.
class Plan {
 public:
  explicit Plan(std::uint64_t seed) : rng_(derive_seed(seed, 0xDF)) {
    for (auto& o : offset_) o = static_cast<int>(rng_.next_below(kFreshEvery));
  }
  Step next() {
    Step s;
    s.app = static_cast<int>(rng_.next_below(2));
    s.slot = static_cast<int>(rng_.next_below(kSlots));
    const int j = count_[s.app]++;
    const bool fresh = j % kFreshEvery == offset_[s.app];
    bool& seen = seen_[s.app][s.slot];
    s.record = fresh || !seen;
    seen = true;
    return s;
  }

 private:
  bots::core::Xoshiro256 rng_;
  std::array<int, 2> offset_{};
  std::array<int, 2> count_{};
  std::array<std::array<bool, kSlots>, 2> seen_{};
};

class Dataflow {
 public:
  explicit Dataflow(RunContext& ctx) : ctx_(ctx), seeds_(derive_seed(ctx.seed, 0x5EED)) {}

  void run() {
    setup();
    const Counters before = Counters::of(*sched_);
    Plan plan(ctx_.seed);
    const std::int64_t end =
        now_ns() + static_cast<std::int64_t>(ctx_.seconds * 1e9);
    std::uint64_t steps = 0, planned_replays = 0;
    std::uint64_t pass_steps = 0;
    std::int64_t pass_t0 = now_ns();
    bool traced = false;
    while (now_ns() < end || steps < 2 * kFreshEvery) {
      // Traced runs alternate 64-step blocks with and without spans.
      if (ctx_.trace && pass_steps == kTraceBlock) {
        ctx_.samples[traced ? "pass_traced_s" : "pass_s"].push_back(
            secs_between(pass_t0, now_ns()));
        traced = !traced;
        pass_steps = 0;
        pass_t0 = now_ns();
      }
      ctx_.spans.set_enabled(ctx_.trace && traced);
      const Step s = plan.next();
      if (s.app == 0) step(lu_[s.slot], "sparselu", s);
      else step(mm_[s.slot], "strassen", s);
      ++steps;
      ++pass_steps;
      planned_replays += s.record ? 0 : 1;
    }
    ctx_.spans.set_enabled(ctx_.trace);
    const Counters d = Counters::of(*sched_) - before;
    check_ledger(ctx_.checks, d, "dataflow workload");
    ctx_.checks.expect(d.graphs_recorded + d.graphs_replayed == steps,
                       "dataflow: graph runs != steps");
    ctx_.checks.expect(d.graphs_replayed == planned_replays,
                       "dataflow: replays != designed replays");
    ctx_.scalars["graph.steps"] = static_cast<double>(steps);
    ctx_.scalars["graph.replays"] = static_cast<double>(d.graphs_replayed);
    ctx_.scalars["graph.designed_replays"] = static_cast<double>(planned_replays);
    ctx_.counters["dataflow"] = d;
  }

 private:
  static constexpr std::uint64_t kTraceBlock = 64;

  void setup() {
    timed_setups(
        ctx_, [&] { sched_.reset(); },
        [&] {
          rt::SchedulerConfig cfg;
          cfg.num_threads = ctx_.threads;
          sched_ = std::make_unique<rt::Scheduler>(cfg);
          sched_->run_single([] {});
        },
        [&] {
          bots::core::Xoshiro256 rng(derive_seed(ctx_.seed, 0x1A));
          for (int i = 0; i < kSlots; ++i) {
            lu_[i].tag = "perfbench.sparselu." + std::to_string(i);
            lu_[i].fresh(rng.next());
            mm_[i].tag = "perfbench.strassen." + std::to_string(i);
            mm_[i].fresh(rng.next());
          }
        });
  }

  template <class Slot>
  void step(Slot& slot, const std::string& app, const Step& s) {
    const bool first_use = !used_[s.app][s.slot];
    used_[s.app][s.slot] = true;
    if (s.record && !first_use) slot.fresh(seeds_.next());
    else if (!s.record) slot.restore();
    rt::TaskGraph& g = sched_->find_or_create_graph(slot.tag);
    const Counters c0 = Counters::of(*sched_);
    std::int64_t t0 = 0, t1 = 0;
    {
      Span sp(ctx_.spans, s.record ? "graph.record" : "graph.replay");
      t0 = now_ns();
      slot.run(*sched_);
      t1 = now_ns();
      ctx_.spans.set_counters(sp.index(), Counters::of(*sched_) - c0);
    }
    const Counters d = Counters::of(*sched_) - c0;
    ctx_.counters[app] += d;
    ctx_.checks.attempt();
    const double secs = secs_between(t0, t1);
    ctx_.samples[app + ".time_s"].push_back(secs);
    ctx_.samples[app + (s.record ? ".record_s" : ".replay_s")].push_back(secs);
    if (!s.record) {
      ctx_.samples[app + ".replay_ns_per_task"].push_back(
          secs * 1e9 / static_cast<double>(g.node_count()));
    }
    check_ledger(ctx_.checks, d, app + " step");
    ctx_.checks.expect(d.graphs_recorded == (s.record ? 1u : 0u) &&
                           d.graphs_replayed == (s.record ? 0u : 1u),
                       app + ": record/replay differs from the plan");
    ctx_.checks.expect(
        d.edges_resolved == d.deps_edges + (s.record ? 0 : g.edge_count()),
        app + ": edges_resolved != deps_edges + replayed graph edges");
    if (s.record) {
      ctx_.samples[app + ".edges"].push_back(static_cast<double>(d.deps_edges));
      Span v(ctx_.spans, "verify");
      ctx_.checks.expect(slot.verify(), app + ": recorded step fails verify");
      slot.digest = slot.output_digest();
    } else if (slot.output_digest() != slot.digest) {
      Span v(ctx_.spans, "verify");
      ctx_.checks.expect(slot.verify(), app + ": replayed step fails verify");
    }
  }

  RunContext& ctx_;
  bots::core::Xoshiro256 seeds_;
  std::unique_ptr<rt::Scheduler> sched_;
  std::array<LuSlot, kSlots> lu_;
  std::array<MmSlot, kSlots> mm_;
  std::array<std::array<bool, kSlots>, 2> used_{};
};

}  // namespace

void run_dataflow(RunContext& ctx) { Dataflow(ctx).run(); }

}  // namespace perfbench
