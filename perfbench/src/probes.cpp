// Layer probes, run at the end of every traced run on a fresh 4-thread team.
//
// EPCC-style (after the OpenMP task micro-benchmarks): per-iteration wall
// time of a parallel fork/join, of fork/join + one task + taskwait, and of a
// 4-level nested task chain with a taskwait at every level. Plus: a
// single-generator null-task flood, a no-cut-off fib flood, Chase-Lev deque
// push/pop and steal, spawn_range per iteration, and dependence edges.
// Every probe records raw samples; stats.py reports medians (and worst
// case for the EPCC probes).
#include <atomic>
#include <vector>

#include "common.hpp"
#include "runtime/dependency.hpp"
#include "runtime/deque.hpp"
#include "runtime/worksharing.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr int kEpccIters = 1000;
constexpr int kFloodReps = 5;

template <class Body>
void epcc(RunContext& ctx, const std::string& name, Body&& body) {
  Span sp(ctx.spans, "probe." + name);
  std::vector<double>& out = ctx.samples[name];
  for (int i = 0; i < kEpccIters; ++i) {
    const std::int64_t t0 = now_ns();
    body();
    out.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
  }
}

}  // namespace

std::uint64_t spawn_fib(int n) {
  if (n < 2) return static_cast<std::uint64_t>(n);
  std::uint64_t a = 0, b = 0;
  rt::spawn(rt::Tiedness::untied, [&a, n] { a = spawn_fib(n - 1); });
  rt::spawn(rt::Tiedness::untied, [&b, n] { b = spawn_fib(n - 2); });
  rt::taskwait();
  return a + b;
}

std::uint64_t fib_ref(int n) {
  std::uint64_t a = 0, b = 1;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t t = a + b;
    a = b;
    b = t;
  }
  return a;
}

void run_probes(RunContext& ctx) {
  rt::SchedulerConfig cfg;
  cfg.num_threads = kThreads;
  rt::Scheduler s(cfg);
  s.run_single([] {});
  const Counters before = Counters::of(s);
  std::atomic<int> sink{0};

  epcc(ctx, "sched.fork_join_us", [&] {
    s.run_all([&](unsigned) { sink.fetch_add(1, std::memory_order_relaxed); });
  });
  epcc(ctx, "sched.task_wait_us", [&] {
    s.run_all([&](unsigned) {
      rt::spawn([&] { sink.fetch_add(1, std::memory_order_relaxed); });
      rt::taskwait();
    });
  });
  epcc(ctx, "sched.nested4_us", [&] {
    s.run_all([&](unsigned) {
      rt::spawn([&] {
        rt::spawn([&] {
          rt::spawn([&] {
            rt::spawn([&] { sink.fetch_add(1, std::memory_order_relaxed); });
            rt::taskwait();
          });
          rt::taskwait();
        });
        rt::taskwait();
      });
      rt::taskwait();
    });
  });

  {
    Span sp(ctx.spans, "probe.sched.null_task_ns");
    constexpr int kTasks = 200'000;
    for (int r = 0; r < kFloodReps; ++r) {
      const std::int64_t t0 = now_ns();
      s.run_single([&] {
        for (int i = 0; i < kTasks; ++i) rt::spawn([] {});
      });
      ctx.samples["sched.null_task_ns"].push_back(
          static_cast<double>(now_ns() - t0) / kTasks);
    }
  }
  {
    Span sp(ctx.spans, "probe.sched.fib_task_ns");
    for (int r = 0; r < kFloodReps; ++r) {
      const Counters c0 = Counters::of(s);
      std::uint64_t v = 0;
      const std::int64_t t0 = now_ns();
      s.run_single([&] { v = spawn_fib(25); });
      const std::int64_t dt = now_ns() - t0;
      const Counters d = Counters::of(s) - c0;
      ctx.checks.expect(v == fib_ref(25), "probe: fib(25) wrong");
      ctx.samples["sched.fib_task_ns"].push_back(static_cast<double>(dt) /
                                                 static_cast<double>(d.created));
    }
  }
  {
    // Task pointers are never dereferenced by the deque: any distinct
    // non-null values do.
    Span sp(ctx.spans, "probe.deque");
    constexpr int kOps = 1 << 16;
    std::vector<char> backing(kOps + 1);
    for (int r = 0; r < kFloodReps; ++r) {
      rt::WorkStealingDeque dq;
      std::int64_t t0 = now_ns();
      int popped = 0;
      for (int i = 0; i < kOps; ++i) {
        dq.push(reinterpret_cast<rt::Task*>(&backing[static_cast<std::size_t>(i) + 1]));
        popped += dq.pop() != nullptr;
      }
      ctx.samples["deque.push_pop_ns"].push_back(
          static_cast<double>(now_ns() - t0) / kOps);
      for (int i = 0; i < kOps; ++i) {
        dq.push(reinterpret_cast<rt::Task*>(&backing[static_cast<std::size_t>(i) + 1]));
      }
      t0 = now_ns();
      int stolen = 0;
      for (int i = 0; i < kOps; ++i) stolen += dq.steal() != nullptr;
      ctx.samples["deque.steal_ns"].push_back(static_cast<double>(now_ns() - t0) / kOps);
      ctx.checks.expect(popped == kOps && stolen == kOps, "probe: deque lost tasks");
    }
  }
  {
    Span sp(ctx.spans, "probe.ws.range_ns_per_iter");
    constexpr std::int64_t kIters = 1 << 20;
    for (int r = 0; r < kFloodReps; ++r) {
      std::atomic<std::int64_t> count{0};
      const std::int64_t t0 = now_ns();
      s.run_single([&] {
        rt::spawn_range(0, kIters, 1, [&](std::int64_t) {
          count.fetch_add(1, std::memory_order_relaxed);
        });
        rt::taskwait();
      });
      ctx.samples["ws.range_ns_per_iter"].push_back(
          static_cast<double>(now_ns() - t0) / kIters);
      ctx.checks.expect(count.load() == kIters, "probe: range lost iterations");
    }
  }
  {
    // A chain of tasks through one address: every spawn after the first
    // creates one edge, and every edge is resolved by a finishing task.
    Span sp(ctx.spans, "probe.dep.edge_ns");
    constexpr int kTasks = 20'000;
    for (int r = 0; r < kFloodReps; ++r) {
      int cell = 0;
      const Counters c0 = Counters::of(s);
      const std::int64_t t0 = now_ns();
      s.run_single([&] {
        rt::DepScope sc;
        for (int i = 0; i < kTasks; ++i) sc.spawn({rt::inout(cell)}, [&cell] { ++cell; });
        sc.wait();
      });
      const std::int64_t dt = now_ns() - t0;
      const Counters d = Counters::of(s) - c0;
      ctx.checks.expect(cell == kTasks && d.edges_resolved == d.deps_edges,
                        "probe: dependence chain broken");
      ctx.samples["dep.edge_ns"].push_back(
          static_cast<double>(dt) / static_cast<double>(d.deps_edges > 0 ? d.deps_edges : 1));
    }
  }
  const Counters d = Counters::of(s) - before;
  check_ledger(ctx.checks, d, "probes");
}

}  // namespace perfbench
