// Section IV-D ablation: the cut-off *value* study the paper describes but
// omits for space — "Choosing a low cut-off value can restrict parallelism
// opportunities but choosing a high cut-off value can saturate the system
// with a large amount of tasks".
//
// Sweeps the manual cut-off depth of Fib, NQueens and Strassen at the
// maximum thread count and reports speed-up vs serial per depth.
#include <benchmark/benchmark.h>

#include <iostream>
#include <map>

#include "bench_common.hpp"
#include "kernels/fib/fib.hpp"
#include "kernels/nqueens/nqueens.hpp"
#include "kernels/strassen/strassen.hpp"

namespace core = bots::core;
namespace rt = bots::rt;
namespace bench = bots::bench;

namespace {

struct Key {
  std::string app;
  int depth;
  auto operator<=>(const Key&) const = default;
};

std::map<Key, double> g_best;  // seconds

void offer(const Key& k, double seconds) {
  auto it = g_best.find(k);
  if (it == g_best.end() || seconds < it->second) g_best[k] = seconds;
}

template <class Fn>
void bm_depth(benchmark::State& state, std::string app, int depth,
              unsigned threads, Fn run) {
  for (auto _ : state) {
    rt::SchedulerConfig cfg;
    cfg.num_threads = threads;
    cfg.cutoff = rt::CutoffPolicy::max_tasks;  // the paper's runtime, not demand
    rt::Scheduler sched(cfg);
    sched.run_single([] {});
    core::Timer t;
    run(sched, depth);
    const double secs = t.seconds();
    state.SetIterationTime(secs);
    offer({app, depth}, secs);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Sweep sweep = bench::sweep_from_env(core::InputClass::medium);
  const unsigned threads = sweep.threads.back();
  const std::vector<int> depths = {1, 2, 3, 4, 6, 8, 10, 12, 16, 20};

  std::cout << "== Section IV-D: manual cut-off value sweep at " << threads
            << " threads, " << to_string(sweep.input) << " inputs ==\n";

  bots::fib::Params fp = bots::fib::params_for(sweep.input);
  bots::nqueens::Params np = bots::nqueens::params_for(sweep.input);
  bots::strassen::Params sp = bots::strassen::params_for(sweep.input);
  const auto sa = bots::strassen::make_matrix(sp, 1);
  const auto sb = bots::strassen::make_matrix(sp, 2);

  // Serial baselines.
  std::map<std::string, double> serial;
  {
    core::Timer t;
    benchmark::DoNotOptimize(bots::fib::run_serial(fp));
    serial["fib"] = t.seconds();
  }
  {
    core::Timer t;
    benchmark::DoNotOptimize(bots::nqueens::run_serial(np));
    serial["nqueens"] = t.seconds();
  }
  {
    core::Timer t;
    benchmark::DoNotOptimize(bots::strassen::run_serial(sp, sa, sb));
    serial["strassen"] = t.seconds();
  }

  for (int d : depths) {
    benchmark::RegisterBenchmark(
        ("fib/depth" + std::to_string(d)).c_str(),
        [&, d](benchmark::State& st) {
          bm_depth(st, "fib", d, threads, [&](rt::Scheduler& s, int depth) {
            bots::fib::Params p = fp;
            p.cutoff_depth = depth;
            benchmark::DoNotOptimize(bots::fib::run_parallel(
                p, s, {rt::Tiedness::untied, core::AppCutoff::manual}));
          });
        })
        ->UseManualTime()
        ->Iterations(1)
        ->Repetitions(sweep.reps)
        ->Unit(benchmark::kMillisecond);
    if (d <= np.n) {
      benchmark::RegisterBenchmark(
          ("nqueens/depth" + std::to_string(d)).c_str(),
          [&, d](benchmark::State& st) {
            bm_depth(st, "nqueens", d, threads,
                     [&](rt::Scheduler& s, int depth) {
                       bots::nqueens::Params p = np;
                       p.cutoff_depth = depth;
                       benchmark::DoNotOptimize(bots::nqueens::run_parallel(
                           p, s,
                           {rt::Tiedness::untied, core::AppCutoff::manual}));
                     });
          })
          ->UseManualTime()
          ->Iterations(1)
          ->Repetitions(sweep.reps)
          ->Unit(benchmark::kMillisecond);
    }
    if (d <= 5) {  // strassen depth beyond log2(n/base) adds nothing
      benchmark::RegisterBenchmark(
          ("strassen/depth" + std::to_string(d)).c_str(),
          [&, d](benchmark::State& st) {
            bm_depth(st, "strassen", d, threads,
                     [&](rt::Scheduler& s, int depth) {
                       bots::strassen::Params p = sp;
                       p.cutoff_depth = depth;
                       benchmark::DoNotOptimize(bots::strassen::run_parallel(
                           p, sa, sb, s,
                           {rt::Tiedness::tied, core::AppCutoff::manual}));
                     });
          })
          ->UseManualTime()
          ->Iterations(1)
          ->Repetitions(sweep.reps)
          ->Unit(benchmark::kMillisecond);
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  std::cout << "\nSpeed-up vs serial per manual cut-off depth ("
            << threads << " threads):\n";
  core::TableWriter t({"depth", "fib", "nqueens", "strassen"});
  for (int d : depths) {
    auto cell = [&](const std::string& app) {
      const auto it = g_best.find({app, d});
      return it == g_best.end()
                 ? std::string("-")
                 : core::format_fixed(serial[app] / it->second, 2);
    };
    t.add_row({std::to_string(d), cell("fib"), cell("nqueens"),
               cell("strassen")});
  }
  t.render(std::cout);
  std::cout << "\nExpected shape: speed-up rises with depth until enough\n"
               "parallelism exists, then flattens (and eventually dips as\n"
               "task-creation overhead dominates — the paper's 'saturate the\n"
               "system' regime).\n";
  return 0;
}
