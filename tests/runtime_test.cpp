// Unit tests for the bots::rt task runtime: scheduler semantics, cut-off
// policies, tiedness/TSC behaviour, worksharing, worker-local storage.
#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/rt.hpp"

namespace rt = bots::rt;

namespace {

std::uint64_t fib_ref(int n) {
  std::uint64_t a = 0, b = 1;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t t = a + b;
    a = b;
    b = t;
  }
  return a;
}

std::uint64_t fib_task(int n, rt::Tiedness tied) {
  if (n < 2) return static_cast<std::uint64_t>(n);
  std::uint64_t a = 0, b = 0;
  rt::spawn(tied, [&a, n, tied] { a = fib_task(n - 1, tied); });
  rt::spawn(tied, [&b, n, tied] { b = fib_task(n - 2, tied); });
  rt::taskwait();
  return a + b;
}

// ---------------------------------------------------------------------------
// Scheduler correctness across thread counts (parameterized).
// ---------------------------------------------------------------------------

class SchedulerThreads : public ::testing::TestWithParam<unsigned> {};

TEST_P(SchedulerThreads, FibTiedCorrect) {
  rt::SchedulerConfig cfg;
  cfg.num_threads = GetParam();
  rt::Scheduler s(cfg);
  std::uint64_t r = 0;
  s.run_single([&] { r = fib_task(22, rt::Tiedness::tied); });
  EXPECT_EQ(r, fib_ref(22));
}

TEST_P(SchedulerThreads, FibUntiedCorrect) {
  rt::SchedulerConfig cfg;
  cfg.num_threads = GetParam();
  rt::Scheduler s(cfg);
  std::uint64_t r = 0;
  s.run_single([&] { r = fib_task(22, rt::Tiedness::untied); });
  EXPECT_EQ(r, fib_ref(22));
}

TEST_P(SchedulerThreads, DeepTiedRecursionNoCutoffTerminates) {
  // Regression test: deep tied recursion once deadlocked when TSC-refused
  // claims were parked worker-privately instead of staying globally visible.
  rt::SchedulerConfig cfg;
  cfg.num_threads = GetParam();
  cfg.cutoff = rt::CutoffPolicy::none;
  rt::Scheduler s(cfg);
  std::uint64_t r = 0;
  s.run_single([&] { r = fib_task(20, rt::Tiedness::tied); });
  EXPECT_EQ(r, fib_ref(20));
}

TEST_P(SchedulerThreads, FireAndForgetTasksCompleteAtRegionEnd) {
  rt::SchedulerConfig cfg;
  cfg.num_threads = GetParam();
  rt::Scheduler s(cfg);
  std::atomic<int> done{0};
  s.run_single([&] {
    for (int i = 0; i < 500; ++i) {
      rt::spawn([&done] { done.fetch_add(1, std::memory_order_relaxed); });
    }
    // no taskwait: the region-end barrier must join them
  });
  EXPECT_EQ(done.load(), 500);
}

TEST_P(SchedulerThreads, RunAllExecutesEveryWorkerOnce) {
  rt::SchedulerConfig cfg;
  cfg.num_threads = GetParam();
  // Exactly GetParam() workers must exist: pin a fault-free team (an
  // injected thread-spawn fault would shrink it under CI's fault legs).
  cfg.fault_plan.clear();
  rt::Scheduler s(cfg);
  std::vector<std::atomic<int>> hits(cfg.num_threads);
  s.run_all([&](unsigned id) { hits[id].fetch_add(1); });
  for (unsigned i = 0; i < cfg.num_threads; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST_P(SchedulerThreads, BarrierSeparatesPhases) {
  rt::SchedulerConfig cfg;
  cfg.num_threads = GetParam();
  rt::Scheduler s(cfg);
  std::atomic<int> phase1{0};
  std::atomic<bool> phase_violation{false};
  s.run_all([&](unsigned) {
    for (int i = 0; i < 50; ++i) {
      rt::spawn([&phase1] { phase1.fetch_add(1, std::memory_order_relaxed); });
    }
    rt::barrier();  // completes all phase-1 tasks
    if (phase1.load() != static_cast<int>(50 * rt::team_size())) {
      phase_violation.store(true);
    }
    rt::barrier();
  });
  EXPECT_FALSE(phase_violation.load());
  EXPECT_EQ(phase1.load(), static_cast<int>(50 * s.num_workers()));
}

TEST_P(SchedulerThreads, ManyRegionsReuseWorkers) {
  rt::SchedulerConfig cfg;
  cfg.num_threads = GetParam();
  rt::Scheduler s(cfg);
  std::atomic<long> total{0};
  for (int rep = 0; rep < 100; ++rep) {
    s.run_single([&] {
      for (int i = 0; i < 20; ++i) {
        rt::spawn([&total, i] { total.fetch_add(i, std::memory_order_relaxed); });
      }
      rt::taskwait();
    });
  }
  EXPECT_EQ(total.load(), 100L * (19 * 20 / 2));
}

INSTANTIATE_TEST_SUITE_P(Threads, SchedulerThreads,
                         ::testing::Values(1u, 2u, 4u, 8u),
                         [](const auto& info) {
                           return "t" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Spawn/steal fast path: per-worker task ledgers, steal-half, parking.
// ---------------------------------------------------------------------------

TEST_P(SchedulerThreads, QuiescenceWithWorkerLedgers) {
  // Children are spawned by tasks that helpers claimed after arriving at the
  // region-end barrier: the region can only end correctly if the barrier's
  // ledger scan sees every such spawn — a missed increment would let the
  // quiescence check miss live tasks, a missed decrement would hang the
  // region (caught by the timeout).
  rt::SchedulerConfig cfg;
  cfg.num_threads = GetParam();
  cfg.cutoff = rt::CutoffPolicy::none;
  rt::Scheduler s(cfg);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> done{0};
    s.run_single([&] {
      for (int i = 0; i < 300; ++i) {
        rt::spawn([&done] {
          rt::spawn([&done] { done.fetch_add(1, std::memory_order_relaxed); });
          done.fetch_add(1, std::memory_order_relaxed);
        });
      }
      // no taskwait: the region-end barrier alone joins everything
    });
    ASSERT_EQ(done.load(), 600) << "round " << round;
  }
}

TEST_P(SchedulerThreads, QuiescenceWithWorkerLedgersAcrossPhases) {
  // Mid-region barriers must also see spawns made by tasks executed inside
  // the barrier drain.
  rt::SchedulerConfig cfg;
  cfg.num_threads = GetParam();
  cfg.cutoff = rt::CutoffPolicy::none;
  rt::Scheduler s(cfg);
  std::atomic<int> phase1{0};
  std::atomic<bool> violation{false};
  s.run_all([&](unsigned) {
    for (int i = 0; i < 40; ++i) {
      rt::spawn([&phase1] {
        rt::spawn(
            [&phase1] { phase1.fetch_add(1, std::memory_order_relaxed); });
        phase1.fetch_add(1, std::memory_order_relaxed);
      });
    }
    rt::barrier();
    if (phase1.load() != static_cast<int>(80 * rt::team_size())) {
      violation.store(true);
    }
    rt::barrier();
  });
  EXPECT_FALSE(violation.load());
  EXPECT_EQ(phase1.load(), static_cast<int>(80 * s.num_workers()));
  EXPECT_EQ(s.live_tasks(), 0);
}

// A task claimed by a helper that has already arrived at the barrier spawns
// a child, another worker steals the child and finishes it first, and the
// spawning task finishes last: a barrier count that lags behind the spawn
// sees the team quiescent while the spawner still runs. The first child
// goes to the deque (the second evicts it from the LIFO slot), where
// thieves see it; the parent waits a little for a thief to finish it, then
// keeps running a while longer before it joins. Counts three per call, the
// last one after the join.
void late_spawn_finished_elsewhere(std::atomic<int>& done) {
  using clock = std::chrono::steady_clock;
  std::atomic<bool> stolen_done{false};
  rt::spawn([&done, &stolen_done] {
    done.fetch_add(1, std::memory_order_relaxed);
    stolen_done.store(true, std::memory_order_release);
  });
  rt::spawn([&done] { done.fetch_add(1, std::memory_order_relaxed); });
  const auto give_up = clock::now() + std::chrono::microseconds(200);
  while (!stolen_done.load(std::memory_order_acquire) &&
         clock::now() < give_up) {
    std::this_thread::yield();
  }
  const auto linger = clock::now() + std::chrono::microseconds(50);
  while (clock::now() < linger) std::this_thread::yield();
  rt::taskwait();
  done.fetch_add(1, std::memory_order_relaxed);
}

rt::SchedulerConfig ledger_stress_cfg(unsigned threads) {
  rt::SchedulerConfig cfg;
  cfg.num_threads = threads;
  cfg.cutoff = rt::CutoffPolicy::none;
  cfg.fault_plan.clear();  // exact counts below
  return cfg;
}

// One late-spawning task at a time: the helper that claims it was idle just
// before, so nothing else it did can mask a spawn the barrier missed.
TEST_P(SchedulerThreads, LedgerLateSpawnStressRunSingle) {
  rt::Scheduler s(ledger_stress_cfg(GetParam()));
  for (int round = 0; round < 200; ++round) {
    std::atomic<int> done{0};
    std::atomic<bool> claimed{false};
    s.run_single([&] {
      rt::spawn([&done, &claimed] {
        claimed.store(true, std::memory_order_release);
        late_spawn_finished_elsewhere(done);
      });
      // Evicts the first task from the LIFO slot onto the deque, where a
      // helper already waiting at the region-end barrier claims it while
      // the generator holds back.
      rt::spawn([&done] { done.fetch_add(1, std::memory_order_relaxed); });
      const auto give_up =
          std::chrono::steady_clock::now() + std::chrono::milliseconds(5);
      while (rt::team_size() > 1 && !claimed.load(std::memory_order_acquire) &&
             std::chrono::steady_clock::now() < give_up) {
        std::this_thread::yield();
      }
    });
    ASSERT_EQ(done.load(), 4) << "round " << round;
    ASSERT_EQ(s.live_tasks(), 0) << "round " << round;
  }
}

TEST_P(SchedulerThreads, LedgerLateSpawnStressRunAllBarriers) {
  rt::Scheduler s(ledger_stress_cfg(GetParam()));
  constexpr int kPhases = 100;
  std::atomic<int> done{0};
  std::atomic<int> violations{0};
  s.run_all([&](unsigned id) {
    for (int phase = 1; phase <= kPhases; ++phase) {
      if (id == static_cast<unsigned>(phase) % rt::team_size()) {
        rt::spawn([&done] { late_spawn_finished_elsewhere(done); });
      }
      rt::barrier();
      if (done.load() != 3 * phase) violations.fetch_add(1);
      rt::barrier();
    }
  });
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(done.load(), 3 * kPhases);
}

TEST_P(SchedulerThreads, LedgerLateSpawnStressGraphReplay) {
  // A replay charges every graph node to the replaying worker's ledger in
  // one store before publishing the roots. Each node leaves behind a task
  // that only the region-end barrier joins, spawned on whichever worker
  // claimed the node.
  rt::Scheduler s(ledger_stress_cfg(GetParam()));
  constexpr int kNodes = 4;
  std::vector<std::uint64_t> cells(kNodes, 0);
  std::atomic<int> done{0};
  rt::TaskGraph g;
  const auto build = [&cells, &done](rt::DepScope& sc) {
    for (int i = 0; i < kNodes; ++i) {
      sc.spawn({rt::out(cells[static_cast<std::size_t>(i)])}, [&done] {
        rt::spawn([&done] { late_spawn_finished_elsewhere(done); });
      });
    }
  };
  constexpr int kRuns = 50;
  for (int run = 0; run < kRuns; ++run) {
    s.run_single([&] { rt::run_graph_region(s, g, &cells, build); });
    ASSERT_EQ(done.load(), (run + 1) * 3 * kNodes) << "run " << run;
    ASSERT_EQ(s.live_tasks(), 0) << "run " << run;
  }
  EXPECT_EQ(s.stats().total.graphs_replayed,
            static_cast<std::uint64_t>(kRuns - 1));
}

TEST_P(SchedulerThreads, LedgerLateSpawnStressServerDrain) {
  // drain() sends idle server workers into the region-end barrier while
  // requests still run; the barrier must wait for every request's tasks.
  rt::Scheduler s(ledger_stress_cfg(GetParam()));
  rt::ServerConfig sc;
  sc.queue_capacity = 64;
  constexpr int kReqs = 24;
  constexpr int kTasks = 8;
  std::atomic<int> done{0};
  {
    rt::TaskServer server(s, sc);
    for (int r = 0; r < kReqs; ++r) {
      auto res = server.submit([&done] {
        for (int i = 0; i < kTasks; ++i) {
          rt::spawn([&done] { late_spawn_finished_elsewhere(done); });
        }
      });
      ASSERT_TRUE(res.admitted);
    }
    server.drain();
    const rt::ServerStats st = server.stats();
    EXPECT_EQ(st.completed, static_cast<std::uint64_t>(kReqs));
  }
  EXPECT_EQ(done.load(), kReqs * kTasks * 3);
  EXPECT_EQ(s.live_tasks(), 0);
}

TEST_P(SchedulerThreads, FibCorrectWithFastPathDisabled) {
  // The A/B baseline bench_spawn_overhead compares against: all overhaul
  // knobs off must still be a correct scheduler.
  rt::SchedulerConfig cfg;
  cfg.num_threads = GetParam();
  cfg.steal_half = false;
  cfg.victim_affinity = false;
  cfg.distributed_parking = false;
  cfg.lifo_slot = false;
  cfg.fused_finish = false;
  rt::Scheduler s(cfg);
  std::uint64_t r = 0;
  s.run_single([&] { r = fib_task(20, rt::Tiedness::tied); });
  EXPECT_EQ(r, fib_ref(20));
}

/// A tied task refused by the Task Scheduling Constraint is parked and later
/// executed by an eligible claimant. The scenario is deterministic: with
/// FIFO local order the body spawns tied A then tied X; the worker picks up
/// A (oldest first), A spawns child B and taskwaits. Waiting inside tied A,
/// the worker pulls X — the oldest pending task in its own deque — and MUST
/// refuse it (X is A's sibling, not a descendant), parking it. B unblocks
/// the taskwait, and the region-end barrier (which suspends no tied task)
/// claims X back from the parked pool and runs it. Run with both parking
/// implementations.
void exercise_parked_path(bool distributed, unsigned threads) {
  rt::SchedulerConfig cfg;
  cfg.num_threads = threads;
  cfg.cutoff = rt::CutoffPolicy::none;  // A, B and X must all be deferred
  cfg.local_order = rt::LocalOrder::fifo;
  cfg.distributed_parking = distributed;
  rt::Scheduler s(cfg);
  std::atomic<bool> x_ran{false};
  std::atomic<bool> b_ran{false};
  s.run_single([&] {
    rt::spawn(rt::Tiedness::tied, [&b_ran] {  // A
      rt::spawn(rt::Tiedness::tied,
                [&b_ran] { b_ran.store(true); });  // B
      rt::taskwait();
    });
    rt::spawn(rt::Tiedness::tied, [&x_ran] { x_ran.store(true); });  // X
    // no taskwait: the implicit task constrains nothing at the barrier
  });
  EXPECT_TRUE(x_ran.load());
  EXPECT_TRUE(b_ran.load());
  const auto t = s.stats().total;
  // Everything deferred was executed: the parked task was not lost.
  EXPECT_EQ(t.tasks_executed, t.tasks_deferred);
  if (threads == 1) {
    // Single worker: the refusal above is unavoidable, so the parked path
    // is guaranteed to have fired (with >1 worker a thief may legally run X
    // first). Each parked task is claimed back exactly once.
    EXPECT_GT(t.tsc_parked, 0u) << "TSC parking not exercised";
    EXPECT_EQ(t.parked_claimed, t.tsc_parked);
  } else {
    EXPECT_EQ(t.parked_claimed, t.tsc_parked);
  }
}

TEST(Scheduler, MultipleParkedSiblingsAllReclaimed) {
  // Regression: claim_parked once republished the survivors found after its
  // `take` without re-checking them and without re-arming the own-inbox
  // rescan — with a single worker every parked sibling beyond the first was
  // stranded and the region-end barrier hung (caught as a test timeout).
  for (bool distributed : {true, false}) {
    rt::SchedulerConfig cfg;
    cfg.num_threads = 1;
    cfg.cutoff = rt::CutoffPolicy::none;
    cfg.local_order = rt::LocalOrder::fifo;
    cfg.distributed_parking = distributed;
    rt::Scheduler s(cfg);
    std::atomic<int> ran{0};
    s.run_single([&ran] {
      rt::spawn(rt::Tiedness::tied, [&ran] {  // A: suspends over B
        rt::spawn(rt::Tiedness::tied,
                  [&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
        rt::taskwait();  // pulls the X siblings first (FIFO) and parks them
      });
      for (int i = 0; i < 3; ++i) {  // X1..X3: A's siblings, refused under A
        rt::spawn(rt::Tiedness::tied,
                  [&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
      }
    });
    EXPECT_EQ(ran.load(), 4) << "distributed=" << distributed;
    const auto t = s.stats().total;
    EXPECT_EQ(t.tasks_executed, t.tasks_deferred) << "distributed=" << distributed;
    EXPECT_GE(t.tsc_parked, 3u) << "distributed=" << distributed;
  }
}

TEST(Scheduler, ParkedTiedTaskExecutedByEligibleClaimantDistributed) {
  exercise_parked_path(/*distributed=*/true, 1);
  exercise_parked_path(/*distributed=*/true, 4);
}

TEST(Scheduler, ParkedTiedTaskExecutedByEligibleClaimantGlobalOverflow) {
  exercise_parked_path(/*distributed=*/false, 1);
  exercise_parked_path(/*distributed=*/false, 4);
}

/// Regression: tsc_allows must check EVERY suspended tied task, not only the
/// deepest one. The suspended stack is not an ancestry chain: untied tasks
/// are claimed without a TSC check, and a tied task inlined under one pushes
/// a taskwait entry that need not descend from the deeper entries. Forced
/// scenario (2 threads, FIFO): worker 0 spawns tied A and untied U; at the
/// region barrier it runs A, which spawns B and taskwaits (stack [A]); the
/// wait claims U (untied, unconstrained), which inlines tied C via
/// spawn_if(false); C spawns tied D and taskwaits (stack [A, C]). D descends
/// from C — the stack top — but NOT from A, so worker 0 must refuse it; a
/// back()-only check would run D on worker 0 while A is suspended there,
/// violating the constraint. Worker 1 spins in its implicit body until C
/// waits (so it cannot perturb the setup), then drains the parked tasks at
/// the barrier, which keeps the refusing schedule deadlock-free.
///
/// Runs with the zero-alloc inline path both on and off: with it on, C never
/// gets a descriptor — its constraint is represented by the tied-stack entry
/// the inline path pushes for its parent U (D reattaches to U as well), and
/// the refusal must still fire; with it off, C is a descriptor-carrying
/// undeferred task (the seed behaviour PR 1 fixed).
void exercise_tsc_broken_chain(bool distributed, bool inline_fast) {
  rt::SchedulerConfig cfg;
  cfg.num_threads = 2;
  cfg.cutoff = rt::CutoffPolicy::none;  // A, U, B, D must all be deferred
  cfg.local_order = rt::LocalOrder::fifo;
  cfg.distributed_parking = distributed;
  cfg.use_inline_fast_path = inline_fast;
  rt::Scheduler s(cfg);
  std::atomic<bool> violation{false};
  std::atomic<bool> c_waiting{false};
  std::atomic<bool> d_ran{false};
  std::atomic<unsigned> a_worker{~0u};
  std::atomic<bool> a_waiting{false};
  s.run_all([&](unsigned id) {
    if (id != 0) {
      while (!c_waiting.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      return;  // proceed to the barrier and drain the parked tasks
    }
    rt::spawn(rt::Tiedness::tied, [&] {  // A
      a_worker.store(rt::worker_id(), std::memory_order_relaxed);
      rt::spawn(rt::Tiedness::tied, [] {});  // B: keeps A's taskwait open
      a_waiting.store(true, std::memory_order_release);
      rt::taskwait();
      a_waiting.store(false, std::memory_order_release);
    });
    rt::spawn(rt::Tiedness::untied, [&] {  // U
      rt::spawn_if(false, rt::Tiedness::tied, [&] {  // C, inlined under U
        rt::spawn(rt::Tiedness::tied, [&] {  // D: descendant of C, not of A
          if (a_waiting.load(std::memory_order_acquire) &&
              rt::worker_id() == a_worker.load(std::memory_order_relaxed)) {
            violation.store(true);
          }
          d_ran.store(true);
        });
        c_waiting.store(true, std::memory_order_release);
        rt::taskwait();
      });
    });
  });
  EXPECT_TRUE(d_ran.load()) << "distributed=" << distributed
                            << " inline_fast=" << inline_fast;
  EXPECT_FALSE(violation.load())
      << "a tied task ran on a worker holding a suspended non-ancestor "
         "tied task (distributed="
      << distributed << " inline_fast=" << inline_fast << ")";
  const auto t = s.stats().total;
  EXPECT_EQ(t.tasks_executed, t.tasks_deferred)
      << "distributed=" << distributed << " inline_fast=" << inline_fast;
  if (inline_fast) {
    EXPECT_EQ(t.tasks_inlined_fast, 1u);  // exactly C took the zero-alloc path
  } else {
    EXPECT_EQ(t.tasks_inlined_fast, 0u);
  }
}

TEST(Scheduler, TscChecksEveryStackEntryAcrossUntiedAndInlinedTasks) {
  for (bool distributed : {true, false}) {
    exercise_tsc_broken_chain(distributed, /*inline_fast=*/false);
  }
}

TEST(Scheduler, TscEnforcedAcrossZeroAllocInlinedTiedTasks) {
  for (bool distributed : {true, false}) {
    exercise_tsc_broken_chain(distributed, /*inline_fast=*/true);
  }
}

std::uint64_t fib_if(int n, int depth_left) {
  if (n < 2) return static_cast<std::uint64_t>(n);
  std::uint64_t a = 0, b = 0;
  const bool defer = depth_left > 0;
  const int d = defer ? depth_left - 1 : 0;
  rt::spawn_if(defer, rt::Tiedness::tied, [&a, n, d] { a = fib_if(n - 1, d); });
  rt::spawn_if(defer, rt::Tiedness::tied, [&b, n, d] { b = fib_if(n - 2, d); });
  rt::taskwait();
  return a + b;
}

TEST(Scheduler, ZeroAllocInlinePathAllocatesNoDescriptors) {
  // The allocation-regression tripwire (also enforced in CI through
  // bench_spawn_overhead): with every construct inlined and the fast path
  // on, the run must report ZERO pool activity — any pool_fresh/pool_reuse
  // means a descriptor sneaked back onto the zero-alloc path.
  // This tripwire pins the EXACT alloc/inline partition — meaningless under
  // injected allocation faults (CI's RT_FAULT_PLAN legs), so pin them off.
  rt::SchedulerConfig on;
  on.num_threads = 2;
  on.fault_plan.clear();
  rt::Scheduler s(on);
  ASSERT_TRUE(s.config().use_inline_fast_path);
  std::uint64_t r = 0;
  s.run_single([&] { r = fib_if(20, 0); });  // depth 0: everything inlined
  EXPECT_EQ(r, fib_ref(20));
  const auto t = s.stats().total;
  EXPECT_EQ(t.pool_fresh + t.pool_reuse, 0u)
      << "the zero-alloc inline path allocated a descriptor";
  EXPECT_EQ(t.tasks_inlined_fast, t.tasks_created);
  EXPECT_EQ(t.tasks_deferred, 0u);

  // A/B: with the knob off, every undeferred construct still allocates.
  rt::SchedulerConfig off;
  off.num_threads = 2;
  off.use_inline_fast_path = false;
  off.fault_plan.clear();
  rt::Scheduler s2(off);
  std::uint64_t r2 = 0;
  s2.run_single([&] { r2 = fib_if(20, 0); });
  EXPECT_EQ(r2, fib_ref(20));
  const auto t2 = s2.stats().total;
  EXPECT_EQ(t2.pool_fresh + t2.pool_reuse, t2.tasks_created);
  EXPECT_EQ(t2.tasks_inlined_fast, 0u);
}

TEST(Scheduler, InlineFastPathMixedWithDeferredTasksIsCorrect) {
  // Constructs above the manual depth defer, everything below runs on the
  // zero-alloc path; children spawned inside inline bodies reattach to the
  // nearest descriptor-carrying ancestor and the taskwaits stay
  // conservative, so the result is exact on any team.
  for (unsigned threads : {1u, 4u, 8u}) {
    rt::Scheduler s(rt::SchedulerConfig{.num_threads = threads});
    std::uint64_t r = 0;
    s.run_single([&] { r = fib_if(22, 6); });
    EXPECT_EQ(r, fib_ref(22)) << "threads=" << threads;
    const auto t = s.stats().total;
    EXPECT_GT(t.tasks_inlined_fast, 0u);
    EXPECT_GT(t.tasks_deferred, 0u);
  }
}

TEST(Scheduler, ExceptionFromZeroAllocInlinedTaskPropagates) {
  rt::Scheduler s(rt::SchedulerConfig{.num_threads = 2});
  EXPECT_THROW(
      {
        s.run_single([] {
          rt::spawn_if(false, [] { throw std::runtime_error("inline boom"); });
        });
      },
      std::runtime_error);
  int ok = 0;  // the scheduler survives
  s.run_single([&ok] { ok = 1; });
  EXPECT_EQ(ok, 1);
}

TEST(Scheduler, InlineTaskExceptionPropagatesAtTheSpawnSite) {
  // OpenMP fidelity regression: an undeferred task runs synchronously on
  // the encountering thread, so its exception must be catchable AT THE
  // SPAWN CALL — not captured into the region and rethrown only after
  // run_single returns (the old behaviour, under which the try below never
  // catches and the region itself throws).
  rt::Scheduler s(rt::SchedulerConfig{.num_threads = 2});
  ASSERT_TRUE(s.config().use_inline_fast_path);
  bool caught_at_site = false;
  bool stack_intact = false;
  s.run_single([&] {
    try {
      rt::spawn_if(false, [] { throw std::runtime_error("inline boom"); });
    } catch (const std::runtime_error& e) {
      caught_at_site = std::string(e.what()) == "inline boom";
    }
    // Stack intact after the unwind: the same task context keeps spawning
    // and joining as if nothing happened.
    int x = 0;
    rt::spawn([&x] { x = 1; });
    rt::taskwait();
    stack_intact = x == 1;
  });  // must NOT throw: the exception was consumed at its site
  EXPECT_TRUE(caught_at_site);
  EXPECT_TRUE(stack_intact);
  const auto t = s.stats().total;
  // No descriptor leaked: the throwing construct ran on the zero-alloc
  // path (no descriptor at all); only the follow-up spawn allocated.
  EXPECT_EQ(t.pool_fresh + t.pool_reuse, 1u);
  EXPECT_EQ(t.tasks_inlined_fast, 1u);
}

TEST(Scheduler, InlineTaskExceptionUnwindsTiedBookkeeping) {
  // A tied inlined task throwing from inside another tied inlined task:
  // both frames must unwind their inline-depth and tied-stack entries on
  // the way out, or later tied scheduling (the TSC check) would consult a
  // stack describing frames that no longer exist.
  rt::Scheduler s(rt::SchedulerConfig{.num_threads = 4});
  std::uint64_t r = 0;
  s.run_single([&] {
    try {
      rt::spawn_if(false, rt::Tiedness::tied, [] {
        rt::spawn_if(false, rt::Tiedness::tied,
                     [] { throw std::runtime_error("deep inline boom"); });
      });
    } catch (const std::runtime_error&) {
    }
    r = fib_task(16, rt::Tiedness::tied);
  });
  EXPECT_EQ(r, fib_ref(16));
}

TEST(Scheduler, UndeferredDescriptorExceptionPropagatesAtTheSpawnSite) {
  // Same OpenMP semantics on the descriptor-carrying undeferred path
  // (inline fast path off): synchronous propagation AND the descriptor
  // retired — parent's child count dropped, storage recycled, not leaked.
  rt::SchedulerConfig cfg{.num_threads = 2};
  cfg.use_inline_fast_path = false;
  rt::Scheduler s(cfg);
  bool caught_at_site = false;
  s.run_single([&] {
    try {
      rt::spawn_if(false, [] { throw std::logic_error("undeferred boom"); });
    } catch (const std::logic_error& e) {
      caught_at_site = std::string(e.what()) == "undeferred boom";
    }
    rt::taskwait();  // the dead child must already be accounted: no hang
  });
  EXPECT_TRUE(caught_at_site);
  const auto t = s.stats().total;
  EXPECT_EQ(t.pool_fresh + t.pool_reuse, t.tasks_created);
  // The recycled descriptor is reusable: a follow-up undeferred construct
  // must be served from the pool freelist, proving the throw path released
  // it rather than leaking it.
  s.reset_stats();
  int ran = 0;
  s.run_single([&ran] { rt::spawn_if(false, [&ran] { ran = 1; }); });
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(s.stats().total.pool_reuse, 1u);
  EXPECT_EQ(s.stats().total.pool_fresh, 0u);
}

/// Regression stress for the fused finish path: fire-and-forget trees where
/// every interior task finishes (and releases its descriptor reference)
/// while its children may still be running. The dying task must announce
/// child_completed() to its parent BEFORE dropping its own reference (or
/// fuse both into one RMW, only legal when observably exclusive): releasing
/// first lets a concurrent child's release chain recycle the parent under
/// the announcement — a use-after-free that surfaced as corrupted counts or
/// hangs on recycled pooled descriptors.
TEST_P(SchedulerThreads, FireAndForgetTreesFusedFinishStress) {
  constexpr int depth = 9;                         // 2^10 - 1 nodes per tree
  constexpr long nodes = (1L << (depth + 1)) - 1;  // all levels counted
  struct Fire {
    static void tree(int d, std::atomic<long>& count) {
      count.fetch_add(1, std::memory_order_relaxed);
      if (d == 0) return;
      rt::spawn([d, &count] { tree(d - 1, count); });
      rt::spawn([d, &count] { tree(d - 1, count); });
      // no taskwait: the parent dies with its children possibly running
    }
  };
  // Heap descriptors matter here: with the pool a corrupted recycled
  // descriptor only shows up as a wrong count or a hang, while plain
  // new/delete turns the parent being released under the announcement into
  // a heap-use-after-free the sanitizers can attribute.
  for (bool pooled : {true, false}) {
    rt::SchedulerConfig cfg;
    cfg.num_threads = GetParam();
    cfg.cutoff = rt::CutoffPolicy::none;
    cfg.fused_finish = true;
    cfg.use_task_pool = pooled;
    rt::Scheduler s(cfg);
    for (int round = 0; round < 10; ++round) {
      std::atomic<long> count{0};
      s.run_single([&count] { Fire::tree(depth, count); });
      ASSERT_EQ(count.load(), nodes)
          << "round " << round << " pooled=" << pooled;
    }
  }
}

// ---------------------------------------------------------------------------
// Single-threaded semantic tests.
// ---------------------------------------------------------------------------

TEST(Scheduler, SpawnOutsideRegionExecutesInline) {
  int x = 0;
  rt::spawn([&x] { x = 42; });
  EXPECT_EQ(x, 42);
  rt::taskwait();  // must be a no-op
  EXPECT_FALSE(rt::in_region());
  EXPECT_EQ(rt::worker_id(), 0u);
  EXPECT_EQ(rt::team_size(), 1u);
}

TEST(Scheduler, SpawnIfFalseIsUndeferredAndSynchronous) {
  rt::Scheduler s(rt::SchedulerConfig{.num_threads = 2});
  int order = 0;
  int task_saw = -1;
  s.run_single([&] {
    rt::spawn_if(false, [&] { task_saw = order; });
    order = 1;  // runs after the undeferred task finished
  });
  EXPECT_EQ(task_saw, 0);
  const auto st = s.stats();
  EXPECT_EQ(st.total.tasks_if_inlined, 1u);
  EXPECT_EQ(st.total.tasks_deferred, 0u);
}

TEST(Scheduler, SpawnIfTrueDefers) {
  rt::Scheduler s(rt::SchedulerConfig{.num_threads = 2});
  int x = 0;
  s.run_single([&] {
    rt::spawn_if(true, [&x] { x = 7; });
    rt::taskwait();
  });
  EXPECT_EQ(x, 7);
  EXPECT_EQ(s.stats().total.tasks_deferred, 1u);
}

TEST(Scheduler, NestedRegionSerializesAsTeamOfOne) {
  rt::Scheduler s(rt::SchedulerConfig{.num_threads = 4});
  unsigned inner_team = 0;
  int inner_done = 0;
  s.run_single([&] {
    s.run_single([&] {
      inner_team = rt::team_size();
      rt::spawn([&inner_done] { inner_done = 1; });
      // no explicit taskwait: the nested scope must join its children
    });
    EXPECT_EQ(inner_done, 1);
  });
  // The nested region inherits the outer team's context but runs the body
  // serially on the calling worker.
  EXPECT_EQ(inner_team, 4u);
}

TEST(Scheduler, ExceptionFromTaskPropagatesToCaller) {
  rt::Scheduler s(rt::SchedulerConfig{.num_threads = 4});
  EXPECT_THROW(
      {
        s.run_single([] {
          rt::spawn([] { throw std::runtime_error("task boom"); });
          rt::taskwait();
        });
      },
      std::runtime_error);
}

TEST(Scheduler, ExceptionFromRegionBodyPropagates) {
  rt::Scheduler s(rt::SchedulerConfig{.num_threads = 2});
  EXPECT_THROW(s.run_single([] { throw std::logic_error("body boom"); }),
               std::logic_error);
}

TEST(Scheduler, RegionUsableAfterException) {
  rt::Scheduler s(rt::SchedulerConfig{.num_threads = 2});
  EXPECT_THROW(s.run_single([] { throw std::runtime_error("x"); }),
               std::runtime_error);
  int ok = 0;
  s.run_single([&ok] { ok = 1; });
  EXPECT_EQ(ok, 1);
}

TEST(Scheduler, ZeroThreadConfigClampsToOne) {
  rt::Scheduler s(rt::SchedulerConfig{.num_threads = 0});
  EXPECT_EQ(s.num_workers(), 1u);
  int x = 0;
  s.run_single([&x] { x = 1; });
  EXPECT_EQ(x, 1);
}

// ---------------------------------------------------------------------------
// Cut-off policies.
// ---------------------------------------------------------------------------

TEST(Cutoff, NoneDefersEverything) {
  rt::SchedulerConfig cfg{.num_threads = 2, .cutoff = rt::CutoffPolicy::none};
  // "Everything defers" pins the exact partition — incompatible with
  // injected allocation faults (CI's RT_FAULT_PLAN legs).
  cfg.fault_plan.clear();
  rt::Scheduler s(cfg);
  std::uint64_t r = 0;
  s.run_single([&] { r = fib_task(15, rt::Tiedness::tied); });
  EXPECT_EQ(r, fib_ref(15));
  const auto st = s.stats();
  EXPECT_EQ(st.total.tasks_cutoff_inlined, 0u);
  EXPECT_EQ(st.total.tasks_deferred, st.total.tasks_created);
  EXPECT_EQ(st.total.tasks_executed, st.total.tasks_deferred);
}

TEST(Cutoff, MaxDepthInlinesBelowDepth) {
  rt::SchedulerConfig cfg{.num_threads = 2,
                          .cutoff = rt::CutoffPolicy::max_depth,
                          .cutoff_value = 4};
  rt::Scheduler s(cfg);
  std::uint64_t r = 0;
  s.run_single([&] { r = fib_task(16, rt::Tiedness::tied); });
  EXPECT_EQ(r, fib_ref(16));
  const auto st = s.stats();
  EXPECT_GT(st.total.tasks_cutoff_inlined, 0u);
  // Depth <= 4 spawns are deferred: at most 2^5 - 2 of them... count loosely.
  EXPECT_LT(st.total.tasks_deferred, st.total.tasks_created);
}

TEST(Cutoff, MaxDepthSeesThroughZeroAllocInlineFrames) {
  // Descriptor-less inlined tasks still occupy a depth level
  // (Worker::inline_depth): the max_depth cut-off must defer exactly the
  // same spawns whether inlined tasks carry a descriptor or not. fib's task
  // tree is fixed, so the per-depth spawn counts — and with them
  // tasks_deferred under a depth bound — are schedule-independent.
  auto deferred_with = [](bool inline_fast) {
    rt::SchedulerConfig cfg{.num_threads = 2,
                            .cutoff = rt::CutoffPolicy::max_depth,
                            .cutoff_value = 5};
    cfg.use_inline_fast_path = inline_fast;
    rt::Scheduler s(cfg);
    std::uint64_t r = 0;
    s.run_single([&] { r = fib_task(17, rt::Tiedness::tied); });
    EXPECT_EQ(r, fib_ref(17));
    return s.stats().total.tasks_deferred;
  };
  EXPECT_EQ(deferred_with(true), deferred_with(false));
}

TEST(Cutoff, InlineDepthDoesNotLeakIntoClaimedTasks) {
  // Regression: a task claimed at a scheduling point INSIDE an inline body
  // is a fresh frame whose depth is fully recorded in its descriptor, so
  // the claimer's inline_depth must not inflate depths computed under it.
  // Deterministic scenario (1 worker, FIFO, max_depth bound 2): the root
  // spawns untied T0 and T1 (depth 1, deferred). The region barrier runs T0
  // first (FIFO); T0 spawns A (depth 2, deferred — keeps its taskwait open)
  // and inlines untied C via spawn_if(false) (inline_depth = 1). C's
  // taskwait claims T1 — the oldest pending task, unconstrained because
  // everything is untied — and T1's spawn of X must see depth 2 (deferred):
  // a leaked inline_depth makes it 3 and wrongly inlines it. With the
  // inline path off, C carries a descriptor and waits on no one, and X is
  // plainly deferred — both runs must defer exactly {T0, T1, A, X}.
  for (bool inline_fast : {true, false}) {
    rt::SchedulerConfig cfg;
    cfg.num_threads = 1;
    cfg.local_order = rt::LocalOrder::fifo;
    cfg.cutoff = rt::CutoffPolicy::max_depth;
    cfg.cutoff_value = 2;
    cfg.use_inline_fast_path = inline_fast;
    rt::Scheduler s(cfg);
    std::atomic<int> x_ran{0};
    s.run_single([&] {
      rt::spawn(rt::Tiedness::untied, [&] {  // T0
        rt::spawn(rt::Tiedness::untied, [] {});  // A: keeps the wait open
        rt::spawn_if(false, rt::Tiedness::untied, [&] {  // C, inlined
          rt::taskwait();  // claims T1 while inline_depth = 1
        });
      });
      rt::spawn(rt::Tiedness::untied, [&] {  // T1
        rt::spawn(rt::Tiedness::untied, [&x_ran] {  // X: depth 2, MUST defer
          x_ran.fetch_add(1);
        });
      });
    });
    EXPECT_EQ(x_ran.load(), 1) << "inline_fast=" << inline_fast;
    EXPECT_EQ(s.stats().total.tasks_deferred, 4u)
        << "inline_fast=" << inline_fast
        << " (X was wrongly inlined: inline_depth leaked into a claimed "
           "task)";
  }
}

/// Counts deferred tasks that are alive: a task's closure is moved into its
/// descriptor only when the spawn is deferred (the zero-alloc inline path
/// calls it in place), and destroyed once the body has run — so the token
/// moved along with it is alive exactly while the task is spawned and not
/// finished. Tracks the peak.
struct LiveToken {
  std::atomic<long>* live;
  std::atomic<long>* peak;
  bool armed = false;
  LiveToken(std::atomic<long>* l, std::atomic<long>* p) : live(l), peak(p) {}
  LiveToken(LiveToken&& o) noexcept : live(o.live), peak(o.peak), armed(true) {
    if (o.armed) {
      o.armed = false;  // a later move hands the count over
      return;
    }
    const long now = live->fetch_add(1) + 1;
    long seen = peak->load();
    while (now > seen && !peak->compare_exchange_weak(seen, now)) {
    }
  }
  LiveToken(const LiveToken&) = delete;
  LiveToken& operator=(const LiveToken&) = delete;
  LiveToken& operator=(LiveToken&&) = delete;
  ~LiveToken() {
    if (armed) live->fetch_sub(1);
  }
};

std::uint64_t fib_counted(int n, std::atomic<long>* live,
                          std::atomic<long>* peak) {
  if (n < 2) return static_cast<std::uint64_t>(n);
  std::uint64_t a = 0, b = 0;
  rt::spawn([&a, n, live, peak, tok = LiveToken(live, peak)] {
    a = fib_counted(n - 1, live, peak);
  });
  rt::spawn([&b, n, live, peak, tok = LiveToken(live, peak)] {
    b = fib_counted(n - 2, live, peak);
  });
  rt::taskwait();
  return a + b;
}

TEST(Cutoff, MaxTasksBoundsLiveTasks) {
  // The documented staleness (config.hpp, cutoff_value): each worker defers
  // at most cutoff_scan_period tasks on one view of the other workers.
  constexpr std::uint32_t kBound = 8;
  for (const unsigned threads : {2u, 4u}) {
    rt::SchedulerConfig cfg{.num_threads = threads,
                            .cutoff = rt::CutoffPolicy::max_tasks,
                            .cutoff_value = kBound};
    rt::Scheduler s(cfg);
    std::atomic<long> live{0};
    std::atomic<long> peak{0};
    std::uint64_t r = 0;
    s.run_single([&] { r = fib_counted(20, &live, &peak); });
    EXPECT_EQ(r, fib_ref(20));
    EXPECT_EQ(live.load(), 0);
    EXPECT_GT(s.stats().total.tasks_cutoff_inlined, 0u);
    EXPECT_GT(peak.load(), 0);
    EXPECT_LE(peak.load(),
              static_cast<long>(kBound + threads *
                                             rt::Scheduler::cutoff_scan_period))
        << threads << " threads";
  }
}

TEST(Cutoff, AdaptiveThrottlesUnderFlood) {
  rt::SchedulerConfig cfg{.num_threads = 2,
                          .cutoff = rt::CutoffPolicy::adaptive,
                          .cutoff_value = 16};
  rt::Scheduler s(cfg);
  std::atomic<int> done{0};
  s.run_single([&] {
    for (int i = 0; i < 5000; ++i) {
      rt::spawn([&done] { done.fetch_add(1, std::memory_order_relaxed); });
    }
    rt::taskwait();
  });
  EXPECT_EQ(done.load(), 5000);
  EXPECT_GT(s.stats().total.tasks_cutoff_inlined, 0u);
}

TEST(Cutoff, ResolvedBoundDefaults) {
  rt::SchedulerConfig cfg;
  cfg.num_threads = 4;
  cfg.cutoff = rt::CutoffPolicy::max_tasks;
  cfg.cutoff_value = 0;
  EXPECT_EQ(cfg.resolved_cutoff_bound(), 256u);
  cfg.cutoff = rt::CutoffPolicy::max_depth;
  EXPECT_EQ(cfg.resolved_cutoff_bound(), 16u);
  cfg.cutoff_value = 9;
  EXPECT_EQ(cfg.resolved_cutoff_bound(), 9u);
}

// ---------------------------------------------------------------------------
// Publish on demand (CutoffPolicy::demand, the default): a spawn is published
// only while the spawner's deque holds fewer than two tasks and its steal
// stash is empty; every other spawn runs now on its own descriptor.
// ---------------------------------------------------------------------------

rt::SchedulerConfig demand_cfg(unsigned threads) {
  rt::SchedulerConfig cfg;
  cfg.num_threads = threads;
  cfg.cutoff = rt::CutoffPolicy::demand;
  cfg.fault_plan.clear();  // exact counts below
  return cfg;
}

/// Spawn no-op tasks until this worker's deque holds two, so the next spawn
/// under demand runs now (the newest of the three sits in the LIFO slot).
void fill_local_queue() {
  for (int i = 0; i < 3; ++i) rt::spawn([] {});
}

TEST(Demand, IsTheDefaultAndParsesFromEnv) {
  const char* saved = std::getenv("RT_CUTOFF");
  const std::string keep = saved != nullptr ? saved : "";
  ::unsetenv("RT_CUTOFF");
  EXPECT_EQ(rt::cutoff_from_env(), rt::CutoffPolicy::demand);
  EXPECT_EQ(rt::SchedulerConfig{}.cutoff, rt::CutoffPolicy::demand);
  ::setenv("RT_CUTOFF", "demand", 1);
  EXPECT_EQ(rt::cutoff_from_env(), rt::CutoffPolicy::demand);
  ::setenv("RT_CUTOFF", "max_tasks", 1);
  EXPECT_EQ(rt::cutoff_from_env(), rt::CutoffPolicy::max_tasks);
  if (saved != nullptr) {
    ::setenv("RT_CUTOFF", keep.c_str(), 1);
  } else {
    ::unsetenv("RT_CUTOFF");
  }
  EXPECT_STREQ(rt::to_string(rt::CutoffPolicy::demand), "demand");
  rt::SchedulerConfig cfg = demand_cfg(4);
  EXPECT_EQ(cfg.resolved_cutoff_bound(), 256u);  // the max_tasks bound
}

TEST(Demand, RunNowKeepsTheTaskLedgers) {
  for (const unsigned threads : {2u, 4u}) {
    for (const rt::Tiedness tied : {rt::Tiedness::tied, rt::Tiedness::untied}) {
      rt::Scheduler s(demand_cfg(threads));
      std::uint64_t r = 0;
      s.run_single([&] { r = fib_task(22, tied); });
      EXPECT_EQ(r, fib_ref(22));
      const auto t = s.stats().total;
      EXPECT_LT(t.tasks_deferred, t.tasks_created) << threads << " threads";
      EXPECT_GT(t.tasks_cutoff_inlined, 0u);
      EXPECT_EQ(t.tasks_inlined_fast, 0u);  // run-now keeps its descriptor
      EXPECT_EQ(t.tasks_created + t.range_splits,
                t.tasks_deferred + t.tasks_if_inlined + t.tasks_cutoff_inlined);
      EXPECT_EQ(t.tasks_executed + t.tasks_discarded, t.tasks_deferred);
      EXPECT_EQ(t.pool_home_frees + t.pool_remote_frees,
                t.pool_reuse + t.pool_fresh);
      EXPECT_EQ(s.live_tasks(), 0);
    }
  }
}

/// A run-now task R publishes two children and returns without a taskwait;
/// its deferred parent P returns too, and worker 1 steals and finishes a
/// child only after both are gone. The last child to finish walks R's
/// release chain into P, which only the reference R took on P at its
/// retirement keeps alive: with heap descriptors, a missing reference is a
/// use-after-free that ASan reports.
TEST(Demand, RunNowChildrenOutliveItAndFinishElsewhere) {
  for (const bool pooled : {false, true}) {
    rt::SchedulerConfig cfg = demand_cfg(2);
    cfg.use_task_pool = pooled;
    rt::Scheduler s(cfg);
    for (int round = 0; round < 20; ++round) {
      std::atomic<bool> go{false};
      std::atomic<int> fillers_done{0};
      std::atomic<bool> p_done{false};
      std::atomic<bool> x_done{false};
      std::atomic<unsigned> x_worker{~0u};
      std::atomic<int> children{0};
      s.run_all([&](unsigned id) {
        if (id != 0) {
          // Hold worker 1 out of the scheduler until R has filled worker 0's
          // deque, then let it steal from the barrier.
          while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
          return;
        }
        rt::spawn([&] {  // P: deferred, executed by worker 0 just below
          for (int i = 0; i < 3; ++i) {  // A, B to the deque, C in the slot
            rt::spawn([&] { fillers_done.fetch_add(1); });
          }
          rt::spawn([&] {  // R: the deque holds two tasks, so it runs now
            go.store(true, std::memory_order_release);
            // Worker 1 steals A and B; the deque is dry and R publishes.
            while (fillers_done.load() < 2) std::this_thread::yield();
            rt::spawn([&] {  // X: to the deque when Y takes the slot
              while (!p_done.load(std::memory_order_acquire)) {
                std::this_thread::yield();
              }
              x_worker.store(rt::worker_id());
              children.fetch_add(1);
              x_done.store(true, std::memory_order_release);
            });
            rt::spawn([&] { children.fetch_add(1); });  // Y
          });
        });
        rt::taskwait();  // runs P; returns once P has finished
        p_done.store(true, std::memory_order_release);
        while (!x_done.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
      });
      EXPECT_EQ(children.load(), 2);
      EXPECT_EQ(fillers_done.load(), 3);
      EXPECT_EQ(x_worker.load(), 1u) << "round " << round;
    }
    const auto t = s.stats().total;
    EXPECT_EQ(t.tasks_cutoff_inlined, 20u);  // R, once per round
    EXPECT_EQ(t.tasks_deferred, 20u * 6u);   // P, A, B, C, X, Y
    EXPECT_EQ(t.tasks_executed, t.tasks_deferred);
    if (pooled) {  // heap descriptors are deleted uncounted
      EXPECT_EQ(t.pool_home_frees + t.pool_remote_frees,
                t.pool_reuse + t.pool_fresh);
    }
  }
}

TEST(Demand, RunNowExceptionPropagatesFromSpawn) {
  rt::Scheduler s(demand_cfg(1));
  bool caught_at_site = false;
  bool ran_after = false;
  std::atomic<int> range_ran{0};
  s.run_single([&] {
    fill_local_queue();
    try {
      rt::spawn([&range_ran] {
        // Ranges always publish: this child is still queued when the body
        // throws, so retirement takes the reference on the parent.
        rt::spawn_range(0, 8, 8, [&range_ran](std::int64_t) {
          range_ran.fetch_add(1);
        });
        throw std::runtime_error("run-now boom");
      });
    } catch (const std::runtime_error& e) {
      caught_at_site = std::string(e.what()) == "run-now boom";
    }
    int x = 0;
    rt::spawn([&x] { x = 1; });
    rt::taskwait();
    ran_after = x == 1;
  });  // must not throw: the exception was consumed at its site
  EXPECT_TRUE(caught_at_site);
  EXPECT_TRUE(ran_after);
  EXPECT_EQ(range_ran.load(), 8);
  const auto t = s.stats().total;
  EXPECT_GE(t.tasks_cutoff_inlined, 1u);
  EXPECT_EQ(t.tasks_executed, t.tasks_deferred);
  EXPECT_EQ(t.pool_home_frees + t.pool_remote_frees,
            t.pool_reuse + t.pool_fresh);
}

TEST(Demand, RunNowInCancelledScopeCountsAsInlineDiscard) {
  // Whole region.
  {
    rt::Scheduler s(demand_cfg(1));
    bool ran = false;
    s.run_single([&] {
      fill_local_queue();
      rt::cancel_region();
      rt::spawn([&ran] { ran = true; });
    });
    EXPECT_FALSE(ran);
    const auto t = s.stats().total;
    EXPECT_EQ(t.tasks_discarded_inline, 1u);
    EXPECT_EQ(t.tasks_cutoff_inlined, 1u);
    EXPECT_EQ(t.tasks_executed + t.tasks_discarded, t.tasks_deferred);
    EXPECT_EQ(t.pool_home_frees + t.pool_remote_frees,
              t.pool_reuse + t.pool_fresh);
  }
  // One server request.
  {
    rt::Scheduler s(demand_cfg(1));
    bool ran = false;
    {
      rt::TaskServer server(s, rt::ServerConfig{});
      auto res = server.submit([&ran] {
        fill_local_queue();
        rt::cancel_region();  // cancels this request only
        rt::spawn([&ran] { ran = true; });
      });
      ASSERT_TRUE(res.admitted);
      EXPECT_EQ(res.handle.wait(), rt::RequestStatus::cancelled);
      EXPECT_TRUE(res.handle.ledger_balanced());
    }
    EXPECT_FALSE(ran);
    const auto t = s.stats().total;
    EXPECT_EQ(t.tasks_discarded_inline, 1u);
    EXPECT_EQ(t.tasks_executed + t.tasks_discarded, t.tasks_deferred);
  }
}

/// TSC across run-now: tied P runs on worker 0 and its untied child U runs
/// now (the deque holds two tasks); U waits for a range child. The oldest
/// task in worker 0's FIFO deque is T, tied and not a descendant of P. P is
/// suspended under U, so U's wait must refuse T (it is parked, and worker 1
/// runs it) rather than run it on top of P.
TEST(Demand, UntiedRunNowChildOfTiedParentKeepsTheConstraint) {
  for (const bool distributed : {true, false}) {
    rt::SchedulerConfig cfg = demand_cfg(2);
    cfg.local_order = rt::LocalOrder::fifo;
    cfg.distributed_parking = distributed;
    rt::Scheduler s(cfg);
    std::atomic<bool> u_waiting{false};
    std::atomic<bool> p_suspended{false};
    std::atomic<bool> violation{false};
    std::atomic<bool> t_ran{false};
    std::atomic<long> range_sum{0};
    s.run_all([&](unsigned id) {
      if (id != 0) {
        while (!u_waiting.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        return;  // to the barrier, which drains the parked T
      }
      rt::spawn(rt::Tiedness::tied, [&] {  // P
        rt::spawn(rt::Tiedness::tied, [] {});  // F: with T, two in the deque
        p_suspended.store(true, std::memory_order_release);
        rt::spawn(rt::Tiedness::untied, [&] {  // U: runs now
          rt::spawn_range(rt::Tiedness::tied, 0, 64, 64, [&](std::int64_t i) {
            range_sum.fetch_add(i);
          });
          u_waiting.store(true, std::memory_order_release);
          rt::taskwait();
        });
        p_suspended.store(false, std::memory_order_release);
      });
      rt::spawn(rt::Tiedness::tied, [&] {  // T: not a descendant of P
        if (p_suspended.load(std::memory_order_acquire) &&
            rt::worker_id() == 0) {
          violation.store(true);
        }
        t_ran.store(true);
      });
    });
    EXPECT_TRUE(t_ran.load());
    EXPECT_EQ(range_sum.load(), 64 * 63 / 2);
    EXPECT_FALSE(violation.load())
        << "a tied task ran on top of a suspended tied non-ancestor "
           "(distributed="
        << distributed << ")";
    const auto t = s.stats().total;
    EXPECT_EQ(t.tasks_cutoff_inlined, 1u);  // U
    EXPECT_GE(t.tsc_parked, 1u);
    EXPECT_EQ(t.tasks_executed, t.tasks_deferred);
  }
}

/// One generator spawning a few coarse tasks: publish-on-demand keeps at
/// most two in the deque, so thieves take them one at a time instead of
/// one thief raiding half of a long deque into its private stash.
TEST(Demand, CoarseSingleGeneratorSpreadsAcrossWorkers) {
  rt::Scheduler s(demand_cfg(4));
  std::array<std::atomic<int>, 4> ran_on{};
  s.run_single([&] {
    for (int i = 0; i < 12; ++i) {
      rt::spawn([&ran_on] {
        ran_on[rt::worker_id()].fetch_add(1);
        const auto until =
            std::chrono::steady_clock::now() + std::chrono::milliseconds(2);
        while (std::chrono::steady_clock::now() < until) {
        }
      });
    }
    rt::taskwait();
  });
  int total = 0;
  int workers = 0;
  for (const auto& n : ran_on) {
    total += n.load();
    workers += n.load() > 0 ? 1 : 0;
  }
  EXPECT_EQ(total, 12);
  EXPECT_GE(workers, 3);
}

// ---------------------------------------------------------------------------
// Statistics accounting.
// ---------------------------------------------------------------------------

TEST(Stats, CreatedEqualsDeferredPlusInlined) {
  rt::SchedulerConfig cfg{.num_threads = 4,
                          .cutoff = rt::CutoffPolicy::max_tasks,
                          .cutoff_value = 16};
  rt::Scheduler s(cfg);
  s.run_single([] {
    for (int i = 0; i < 1000; ++i) {
      rt::spawn_if(i % 3 != 0, [] {});
    }
    rt::taskwait();
  });
  const auto t = s.stats().total;
  EXPECT_EQ(t.tasks_created,
            t.tasks_deferred + t.tasks_if_inlined + t.tasks_cutoff_inlined);
  EXPECT_EQ(t.tasks_executed, t.tasks_deferred);
  EXPECT_GT(t.env_bytes, 0u);
  EXPECT_EQ(t.taskwaits, 1u);
}

TEST(Stats, ResetClearsCounters) {
  rt::Scheduler s(rt::SchedulerConfig{.num_threads = 2});
  s.run_single([] {
    rt::spawn([] {});
    rt::taskwait();
  });
  EXPECT_GT(s.stats().total.tasks_created, 0u);
  s.reset_stats();
  EXPECT_EQ(s.stats().total.tasks_created, 0u);
}

TEST(Stats, PoolReuseAfterFirstWave) {
  rt::Scheduler s(rt::SchedulerConfig{.num_threads = 1});
  s.run_single([] {
    for (int wave = 0; wave < 4; ++wave) {
      for (int i = 0; i < 100; ++i) rt::spawn([] {});
      rt::taskwait();
    }
  });
  EXPECT_GT(s.stats().total.pool_reuse, 0u);
}

TEST(Stats, NoPoolModeUsesFreshAllocations) {
  rt::SchedulerConfig cfg{.num_threads = 2};
  cfg.use_task_pool = false;
  // "Every construct hits the allocator" pins the exact alloc partition —
  // incompatible with injected allocation faults (CI's RT_FAULT_PLAN legs).
  cfg.fault_plan.clear();
  rt::Scheduler s(cfg);
  s.run_single([] {
    for (int wave = 0; wave < 3; ++wave) {
      for (int i = 0; i < 50; ++i) rt::spawn([] {});
      rt::taskwait();
    }
  });
  const auto t = s.stats().total;
  EXPECT_EQ(t.pool_reuse, 0u);
  EXPECT_EQ(t.pool_fresh, t.tasks_created);
}

// ---------------------------------------------------------------------------
// Large captured environments take the heap path.
// ---------------------------------------------------------------------------

TEST(Environment, LargeCaptureIsCopiedCorrectly) {
  rt::Scheduler s(rt::SchedulerConfig{.num_threads = 4});
  struct Big {
    std::array<std::uint8_t, 4096> bytes;
  };
  Big big{};
  for (std::size_t i = 0; i < big.bytes.size(); ++i) {
    big.bytes[i] = static_cast<std::uint8_t>(i * 7);
  }
  std::atomic<int> failures{0};
  s.run_single([&] {
    for (int t = 0; t < 64; ++t) {
      rt::spawn([big, &failures] {  // 4 KB captured by value (heap env)
        for (std::size_t i = 0; i < big.bytes.size(); ++i) {
          if (big.bytes[i] != static_cast<std::uint8_t>(i * 7)) {
            failures.fetch_add(1);
            return;
          }
        }
      });
    }
    rt::taskwait();
  });
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(s.stats().total.env_bytes, 64u * sizeof(Big));
}

TEST(Environment, CaptureDestructorsRun) {
  rt::Scheduler s(rt::SchedulerConfig{.num_threads = 2});
  auto marker = std::make_shared<int>(13);
  std::weak_ptr<int> weak = marker;
  s.run_single([m = std::move(marker)] {
    rt::spawn([m] { EXPECT_EQ(*m, 13); });
    rt::taskwait();
  });
  EXPECT_TRUE(weak.expired());  // every captured copy destroyed
}

// ---------------------------------------------------------------------------
// Worksharing.
// ---------------------------------------------------------------------------

class WorksharingThreads : public ::testing::TestWithParam<unsigned> {};

TEST_P(WorksharingThreads, ForStaticCoversExactlyOnce) {
  rt::Scheduler s(rt::SchedulerConfig{.num_threads = GetParam()});
  std::vector<std::atomic<int>> hits(1000);
  s.run_all([&](unsigned) {
    rt::for_static(0, 1000, [&](std::int64_t i) { hits[i].fetch_add(1); });
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_P(WorksharingThreads, ForStaticChunkedCoversExactlyOnce) {
  rt::Scheduler s(rt::SchedulerConfig{.num_threads = GetParam()});
  std::vector<std::atomic<int>> hits(777);
  s.run_all([&](unsigned) {
    rt::for_static_chunked(0, 777, 13,
                           [&](std::int64_t i) { hits[i].fetch_add(1); });
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_P(WorksharingThreads, ForDynamicCoversExactlyOnce) {
  rt::Scheduler s(rt::SchedulerConfig{.num_threads = GetParam()});
  std::vector<std::atomic<int>> hits(997);
  rt::DynamicSchedule dyn(0);
  s.run_all([&](unsigned) {
    rt::for_dynamic(dyn, 997, 7, [&](std::int64_t i) { hits[i].fetch_add(1); });
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_P(WorksharingThreads, SingleNowaitRunsOnce) {
  rt::Scheduler s(rt::SchedulerConfig{.num_threads = GetParam()});
  rt::SingleGate gate(s.num_workers());
  std::atomic<int> runs{0};
  s.run_all([&](unsigned) {
    rt::single_nowait(gate, [&] { runs.fetch_add(1); });
    rt::barrier();
  });
  EXPECT_EQ(runs.load(), 1);
}

TEST_P(WorksharingThreads, TasksInsideForJoinAtBarrier) {
  rt::Scheduler s(rt::SchedulerConfig{.num_threads = GetParam()});
  std::atomic<long> sum{0};
  rt::DynamicSchedule dyn(0);
  s.run_all([&](unsigned) {
    rt::for_dynamic(dyn, 200, 3, [&](std::int64_t i) {
      rt::spawn([&sum, i] { sum.fetch_add(i, std::memory_order_relaxed); });
    });
  });
  EXPECT_EQ(sum.load(), 199L * 200 / 2);
}

INSTANTIATE_TEST_SUITE_P(Threads, WorksharingThreads,
                         ::testing::Values(1u, 3u, 8u),
                         [](const auto& info) {
                           return "t" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// WorkerLocal (threadprivate) storage.
// ---------------------------------------------------------------------------

TEST(WorkerLocal, AccumulatesAndReduces) {
  rt::Scheduler s(rt::SchedulerConfig{.num_threads = 4});
  rt::WorkerLocal<std::uint64_t> acc(s, 0);
  s.run_single([&] {
    for (int i = 0; i < 1000; ++i) {
      rt::spawn([&acc] { ++acc.local(); });
    }
    rt::taskwait();
  });
  EXPECT_EQ(acc.reduce(std::uint64_t{0},
                       [](std::uint64_t a, std::uint64_t b) { return a + b; }),
            1000u);
}

TEST(WorkerLocal, ResetRestoresInitial) {
  rt::Scheduler s(rt::SchedulerConfig{.num_threads = 2});
  rt::WorkerLocal<int> acc(s, 5);
  acc.local() += 10;
  acc.reset();
  EXPECT_EQ(acc.reduce(0, [](int a, int b) { return a + b; }), 10);  // 2 x 5
}

TEST(WorkerLocal, SlotsAreCacheLinePadded) {
  rt::Scheduler s(rt::SchedulerConfig{.num_threads = 2});
  rt::WorkerLocal<char> acc(s, 0);
  const auto* a = &acc.slot(0);
  const auto* b = &acc.slot(1);
  EXPECT_GE(reinterpret_cast<std::ptrdiff_t>(b) -
                reinterpret_cast<std::ptrdiff_t>(a),
            64);
}

// ---------------------------------------------------------------------------
// Scheduling policy configurations all yield correct results.
// ---------------------------------------------------------------------------

struct PolicyCase {
  rt::LocalOrder local;
  rt::VictimPolicy victim;
  rt::Tiedness tied;
};

class PolicyMatrix : public ::testing::TestWithParam<PolicyCase> {};

TEST_P(PolicyMatrix, FibCorrectUnderPolicy) {
  const PolicyCase pc = GetParam();
  rt::SchedulerConfig cfg;
  cfg.num_threads = 4;
  cfg.local_order = pc.local;
  cfg.victim = pc.victim;
  rt::Scheduler s(cfg);
  std::uint64_t r = 0;
  s.run_single([&] { r = fib_task(18, pc.tied); });
  EXPECT_EQ(r, fib_ref(18));
}

INSTANTIATE_TEST_SUITE_P(
    Policies, PolicyMatrix,
    ::testing::Values(
        PolicyCase{rt::LocalOrder::lifo, rt::VictimPolicy::random,
                   rt::Tiedness::tied},
        PolicyCase{rt::LocalOrder::lifo, rt::VictimPolicy::sequential,
                   rt::Tiedness::untied},
        PolicyCase{rt::LocalOrder::fifo, rt::VictimPolicy::random,
                   rt::Tiedness::untied},
        PolicyCase{rt::LocalOrder::fifo, rt::VictimPolicy::sequential,
                   rt::Tiedness::tied}),
    [](const auto& info) {
      return std::string(to_string(info.param.local)) + "_" +
             to_string(info.param.victim) + "_" + to_string(info.param.tied);
    });

}  // namespace
