// Batch workloads: `fig3` (all ten apps, Figure-3 versions, medium inputs)
// and `fine-grain` (five apps in their no-cut-off versions, sized so task
// bodies cost a few microseconds and the scheduler does most of the work).
//
// Every timed span is one kernel `run_parallel` call. Input generation,
// restoring an in-place input and all checking happen outside it.
//
// Checking: the kernels' own `verify` recomputes the answer serially, so
// calling it after every solve would cost as much as the solves. The first
// solve of each kind is checked with the kernel's `verify`; every later
// solve's output digest must equal the first one's, and a solve whose
// digest differs is checked with `verify` on the spot, so a legitimately
// different (e.g. floating-point reordered) output is never miscounted and
// a wrong one is always caught. Time spent verifying extends the window, so
// the window holds --seconds of solving.
#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "kernels/alignment/alignment.hpp"
#include "kernels/fft/fft.hpp"
#include "kernels/fib/fib.hpp"
#include "kernels/floorplan/floorplan.hpp"
#include "kernels/health/health.hpp"
#include "kernels/nqueens/nqueens.hpp"
#include "kernels/sort/sort.hpp"
#include "kernels/sparselu/sparselu.hpp"
#include "kernels/strassen/strassen.hpp"
#include "kernels/uts/uts.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace core = bots::core;
using core::AppCutoff;
using core::InputClass;
using rt::Tiedness;

/// One solve kind: an app at one input and version.
class Kind {
 public:
  explicit Kind(std::string name) : name_(std::move(name)) {}
  virtual ~Kind() = default;
  Kind(const Kind&) = delete;
  Kind& operator=(const Kind&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Generates the seeded input (set-up, untimed).
  virtual void make_input(std::uint64_t seed) = 0;
  /// Restores an input the previous solve overwrote (untimed).
  virtual void prepare() {}
  /// The timed span: the kernel's run_parallel.
  virtual void solve(rt::Scheduler& s) = 0;
  /// The kernel's verify on the last solve's output (untimed).
  [[nodiscard]] virtual bool verify() = 0;
  [[nodiscard]] virtual std::uint64_t digest() const = 0;
  /// The kernel's run_serial on the same input (traced runs only).
  virtual void serial() = 0;
  /// Explored nodes of the last solve (floorplan only; 0 elsewhere).
  [[nodiscard]] virtual double nodes() const { return 0; }
  /// Computed floating-point operation count of one solve (0 = not counted).
  [[nodiscard]] virtual double flops() const { return 0; }

 private:
  std::string name_;
};

template <class T>
std::uint64_t digest_vec(const std::vector<T>& v) {
  return digest_bytes(v.data(), v.size() * sizeof(T));
}

// ---------------------------------------------------------------------------
// Kinds, one per kernel.
// ---------------------------------------------------------------------------

class Alignment final : public Kind {
 public:
  Alignment(bots::alignment::Params p, Tiedness t) : Kind("alignment"), p_(p), opts_{t} {}
  void make_input(std::uint64_t seed) override {
    p_.seed = derive_seed(seed, 1);
    seqs_ = bots::alignment::make_input(p_);
  }
  void solve(rt::Scheduler& s) override {
    scores_ = bots::alignment::run_parallel(p_, seqs_, s, opts_);
  }
  bool verify() override { return bots::alignment::verify(p_, seqs_, scores_); }
  std::uint64_t digest() const override { return digest_vec(scores_); }
  void serial() override { (void)bots::alignment::run_serial(p_, seqs_); }

 private:
  bots::alignment::Params p_;
  bots::alignment::VersionOpts opts_;
  std::vector<bots::alignment::Sequence> seqs_;
  std::vector<int> scores_;
};

class Fft final : public Kind {
 public:
  Fft(bots::fft::Params p, Tiedness t) : Kind("fft"), p_(p), opts_{t} {}
  void make_input(std::uint64_t seed) override {
    p_.seed = derive_seed(seed, 2);
    input_ = bots::fft::make_input(p_);
    data_.assign(input_.size(), {});
  }
  void prepare() override { std::copy(input_.begin(), input_.end(), data_.begin()); }
  void solve(rt::Scheduler& s) override {
    bots::fft::run_parallel(p_, data_, s, opts_);
  }
  bool verify() override { return bots::fft::verify(p_, input_, data_); }
  std::uint64_t digest() const override { return digest_vec(data_); }
  void serial() override {
    prepare();
    bots::fft::run_serial(p_, data_);
  }

 private:
  bots::fft::Params p_;
  bots::fft::VersionOpts opts_;
  std::vector<bots::fft::Complex> input_;
  std::vector<bots::fft::Complex> data_;
};

class Fib final : public Kind {
 public:
  Fib(bots::fib::Params p, Tiedness t, AppCutoff c) : Kind("fib"), p_(p), opts_{t, c} {}
  void make_input(std::uint64_t) override {}  // fib's input is n alone
  void solve(rt::Scheduler& s) override {
    result_ = bots::fib::run_parallel(p_, s, opts_);
  }
  bool verify() override { return bots::fib::verify(p_, result_); }
  std::uint64_t digest() const override { return result_; }
  void serial() override { (void)bots::fib::run_serial(p_); }

 private:
  bots::fib::Params p_;
  bots::fib::VersionOpts opts_;
  std::uint64_t result_ = 0;
};

/// Floorplan keeps the registry's input: its search size is a chaotic
/// function of the cell seed (69k to 18M nodes across 12 seeds at 12
/// cells), so a seeded input would change the problem, not sample it.
class Floorplan final : public Kind {
 public:
  Floorplan(bots::floorplan::Params p, Tiedness t, AppCutoff c)
      : Kind("floorplan"), p_(p), opts_{t, c} {}
  void make_input(std::uint64_t) override {
    cells_ = bots::floorplan::make_input(p_);
  }
  void solve(rt::Scheduler& s) override {
    result_ = bots::floorplan::run_parallel(p_, cells_, s, opts_);
  }
  bool verify() override { return bots::floorplan::verify(p_, cells_, result_); }
  // Parallel pruning changes the explored node count run to run; the
  // answer is the minimal area.
  std::uint64_t digest() const override {
    return static_cast<std::uint64_t>(result_.best_area);
  }
  void serial() override { (void)bots::floorplan::run_serial(p_, cells_); }
  double nodes() const override { return static_cast<double>(result_.nodes); }

 private:
  bots::floorplan::Params p_;
  bots::floorplan::VersionOpts opts_;
  std::vector<bots::floorplan::Cell> cells_;
  bots::floorplan::Result result_;
};

class Health final : public Kind {
 public:
  Health(bots::health::Params p, Tiedness t, AppCutoff c)
      : Kind("health"), p_(p), opts_{t, c, core::Generator::single_gen} {}
  void make_input(std::uint64_t seed) override { p_.seed = derive_seed(seed, 5); }
  void solve(rt::Scheduler& s) override {
    result_ = bots::health::run_parallel(p_, s, opts_);
  }
  bool verify() override { return bots::health::verify(p_, result_); }
  std::uint64_t digest() const override {
    const std::uint64_t f[] = {result_.population, result_.waiting,
                               result_.assess,     result_.inside,
                               result_.total_time, result_.total_hosps_visited};
    return digest_bytes(f, sizeof f);
  }
  void serial() override { (void)bots::health::run_serial(p_); }

 private:
  bots::health::Params p_;
  bots::health::VersionOpts opts_;
  bots::health::Stats result_;
};

class Nqueens final : public Kind {
 public:
  Nqueens(bots::nqueens::Params p, Tiedness t, AppCutoff c)
      : Kind("nqueens"), p_(p), opts_{t, c} {}
  void make_input(std::uint64_t) override {}  // the board size is the input
  void solve(rt::Scheduler& s) override {
    result_ = bots::nqueens::run_parallel(p_, s, opts_);
  }
  bool verify() override { return bots::nqueens::verify(p_, result_); }
  std::uint64_t digest() const override { return result_; }
  void serial() override { (void)bots::nqueens::run_serial(p_); }

 private:
  bots::nqueens::Params p_;
  bots::nqueens::VersionOpts opts_;
  std::uint64_t result_ = 0;
};

class Sort final : public Kind {
 public:
  Sort(bots::sort::Params p, Tiedness t) : Kind("sort"), p_(p), opts_{t} {}
  void make_input(std::uint64_t seed) override {
    p_.seed = derive_seed(seed, 7);
    input_ = bots::sort::make_input(p_);
    data_.assign(input_.size(), 0);
  }
  void prepare() override { std::copy(input_.begin(), input_.end(), data_.begin()); }
  void solve(rt::Scheduler& s) override {
    bots::sort::run_parallel(p_, data_, s, opts_);
  }
  bool verify() override { return bots::sort::verify(p_, data_); }
  std::uint64_t digest() const override { return digest_vec(data_); }
  void serial() override {
    prepare();
    bots::sort::run_serial(p_, data_);
  }

 private:
  bots::sort::Params p_;
  bots::sort::VersionOpts opts_;
  std::vector<bots::sort::Elm> input_;
  std::vector<bots::sort::Elm> data_;
};

/// Computed flop count of one blocked LU over the matrix's block pattern:
/// lu0 2/3 bs^3, fwd and bdiv bs^3 each, bmod 2 bs^3 (fill-in included).
double sparselu_flops(const bots::sparselu::BlockMatrix& m) {
  const std::size_t nb = m.nb();
  const double bs3 = static_cast<double>(m.bs()) * m.bs() * m.bs();
  std::vector<char> present(nb * nb);
  for (std::size_t i = 0; i < nb; ++i) {
    for (std::size_t j = 0; j < nb; ++j) present[i * nb + j] = !m.empty(i, j);
  }
  double f = 0;
  for (std::size_t k = 0; k < nb; ++k) {
    f += 2.0 / 3.0 * bs3;
    for (std::size_t j = k + 1; j < nb; ++j) f += present[k * nb + j] ? bs3 : 0;
    for (std::size_t i = k + 1; i < nb; ++i) f += present[i * nb + k] ? bs3 : 0;
    for (std::size_t i = k + 1; i < nb; ++i) {
      if (!present[i * nb + k]) continue;
      for (std::size_t j = k + 1; j < nb; ++j) {
        if (!present[k * nb + j]) continue;
        f += 2 * bs3;
        present[i * nb + j] = 1;
      }
    }
  }
  return f;
}

class SparseLu final : public Kind {
 public:
  SparseLu(bots::sparselu::Params p, bots::sparselu::VersionOpts o)
      : Kind("sparselu"), p_(p), opts_(o), m_(p.nb, p.bs) {}
  void make_input(std::uint64_t seed) override {
    p_.seed = derive_seed(seed, 8);
    m_ = bots::sparselu::make_input(p_);
    flops_ = sparselu_flops(m_);
  }
  void prepare() override { bots::sparselu::reset_values(p_, m_); }
  void solve(rt::Scheduler& s) override {
    bots::sparselu::run_parallel(p_, m_, s, opts_);
  }
  bool verify() override { return bots::sparselu::verify(p_, m_); }
  std::uint64_t digest() const override { return digest_matrix(m_); }
  void serial() override {
    prepare();
    bots::sparselu::run_serial(p_, m_);
  }
  double flops() const override { return flops_; }

 private:
  bots::sparselu::Params p_;
  bots::sparselu::VersionOpts opts_;
  bots::sparselu::BlockMatrix m_;
  double flops_ = 0;
};

/// Computed flop count of Strassen with a conventional base case.
double strassen_flops(std::size_t n, std::size_t base) {
  if (n <= base) return 2.0 * static_cast<double>(n) * n * n;
  const double h = static_cast<double>(n / 2);
  return 7 * strassen_flops(n / 2, base) + 18 * h * h;
}

class Strassen final : public Kind {
 public:
  Strassen(bots::strassen::Params p, Tiedness t, AppCutoff c)
      : Kind("strassen"), p_(p), opts_{t, c, false} {}
  void make_input(std::uint64_t seed) override {
    p_.seed = derive_seed(seed, 9);
    a_ = bots::strassen::make_matrix(p_, 1);
    b_ = bots::strassen::make_matrix(p_, 2);
  }
  void solve(rt::Scheduler& s) override {
    c_ = bots::strassen::run_parallel(p_, a_, b_, s, opts_);
  }
  bool verify() override { return bots::strassen::verify(p_, a_, b_, c_); }
  std::uint64_t digest() const override { return digest_vec(c_); }
  void serial() override { (void)bots::strassen::run_serial(p_, a_, b_); }
  double flops() const override { return strassen_flops(p_.n, p_.base); }

 private:
  bots::strassen::Params p_;
  bots::strassen::VersionOpts opts_;
  std::vector<double> a_, b_, c_;
};

/// UTS keeps the registry's tree for the same reason as floorplan: the
/// tree size moves by +-25% with the seed.
class Uts final : public Kind {
 public:
  Uts(bots::uts::Params p, Tiedness t) : Kind("uts"), p_(p), opts_{t} {}
  void make_input(std::uint64_t) override {}
  void solve(rt::Scheduler& s) override {
    count_ = bots::uts::run_parallel(p_, s, opts_);
  }
  bool verify() override { return bots::uts::verify(p_, count_); }
  std::uint64_t digest() const override { return count_; }
  void serial() override { (void)bots::uts::run_serial(p_); }

 private:
  bots::uts::Params p_;
  bots::uts::VersionOpts opts_;
  std::uint64_t count_ = 0;
};

using Kinds = std::vector<std::unique_ptr<Kind>>;

// ---------------------------------------------------------------------------
// The batch engine.
// ---------------------------------------------------------------------------

rt::SchedulerConfig team_config(unsigned threads) {
  rt::SchedulerConfig cfg;
  cfg.num_threads = threads;
  return cfg;
}

/// The first output of a kind and whether it passed the kernel's verify.
struct FirstOutput {
  bool seen = false;
  bool ok = false;
  std::uint64_t digest = 0;
};

class Batch {
 public:
  Batch(RunContext& ctx, Kinds kinds) : ctx_(ctx), kinds_(std::move(kinds)) {}

  void run() {
    setup();
    const Counters before = Counters::of(*sched_);
    measure_window();
    if (ctx_.trace) {
      serial_references();
      one_thread_solves();
    }
    const Counters d = Counters::of(*sched_) - before;
    check_ledger(ctx_.checks, d, ctx_.workload + " workload");
    ctx_.checks.expect(d.edges_resolved == d.deps_edges,
                       ctx_.workload + ": edges_resolved != deps_edges");
    for (const auto& k : kinds_) {
      if (k->flops() > 0) ctx_.scalars[k->name() + ".flops"] = k->flops();
    }
  }

 private:
  void setup() {
    timed_setups(
        ctx_, [&] { sched_.reset(); },
        [&] {
          sched_ = std::make_unique<rt::Scheduler>(team_config(ctx_.threads));
          sched_->run_single([] {});
        },
        [&] {
          for (auto& k : kinds_) k->make_input(ctx_.seed);
        });
  }

  /// Timed passes over every kind until the window is spent. A pass is not
  /// started when the previous one says it would overrun the window. Traced
  /// runs alternate untraced and traced passes; their ratio is the cost of
  /// recording spans.
  void measure_window() {
    std::int64_t end = now_ns() + static_cast<std::int64_t>(ctx_.seconds * 1e9);
    std::int64_t last_pass = 0;
    int passes = 0;
    const int min_passes = ctx_.trace ? 2 : 1;
    while (passes < min_passes || now_ns() + last_pass <= end) {
      const bool traced = ctx_.trace && passes % 2 == 1;
      ctx_.spans.set_enabled(traced);
      std::int64_t checking = 0;
      const std::int64_t t0 = now_ns();
      {
        Span pass(ctx_.spans, "pass");
        for (auto& k : kinds_) checking += solve_once(*k, *sched_, "");
      }
      last_pass = now_ns() - t0 - checking;
      end += checking;
      ctx_.samples[traced ? "pass_traced_s" : "pass_s"].push_back(
          secs_between(0, last_pass));
      ++passes;
    }
    ctx_.spans.set_enabled(ctx_.trace);
  }

  /// One timed run_parallel plus its (untimed) checks and counter delta.
  /// `suffix` tags non-window solves ("t1"). Returns the ns spent in the
  /// kernel's verify.
  std::int64_t solve_once(Kind& k, rt::Scheduler& s, const std::string& suffix) {
    const std::string key = suffix.empty() ? k.name() : k.name() + "." + suffix;
    k.prepare();
    const Counters c0 = Counters::of(s);
    std::int64_t t0 = 0, t1 = 0;
    {
      Span sp(ctx_.spans, key + ".run_parallel");
      t0 = now_ns();
      k.solve(s);
      t1 = now_ns();
      ctx_.spans.set_counters(sp.index(), Counters::of(s) - c0);
    }
    const Counters d = Counters::of(s) - c0;
    ctx_.counters[key] += d;
    ctx_.checks.attempt();
    check_ledger(ctx_.checks, d, key);
    const double secs = secs_between(t0, t1);
    ctx_.samples[key + (suffix.empty() ? ".time_s" : "_s")].push_back(secs);
    if (suffix.empty() && k.nodes() > 0) {
      ctx_.samples[k.name() + ".knodes_per_s"].push_back(k.nodes() / 1e3 / secs);
    }
    return check_output(k, key);
  }

  std::int64_t check_output(Kind& k, const std::string& key) {
    FirstOutput& first = first_[k.name()];
    const std::uint64_t dg = k.digest();
    if (first.seen && dg == first.digest) {
      ctx_.checks.expect(first.ok, key + ": repeats an output that failed verify");
      return 0;
    }
    const std::int64_t t0 = now_ns();
    bool ok = false;
    {
      Span v(ctx_.spans, "verify");
      ok = k.verify();
    }
    ctx_.checks.expect(ok, key + ": verify failed");
    if (!first.seen) first = FirstOutput{true, ok, dg};
    return now_ns() - t0;
  }

  void serial_references() {
    for (auto& k : kinds_) {
      k->prepare();
      Span sp(ctx_.spans, k->name() + ".serial");
      const std::int64_t t0 = now_ns();
      k->serial();
      ctx_.samples[k->name() + ".serial_s"].push_back(secs_between(t0, now_ns()));
    }
  }

  void one_thread_solves() {
    rt::Scheduler one(team_config(1));
    one.run_single([] {});
    for (auto& k : kinds_) solve_once(*k, one, "t1");
    const Counters d = Counters::of(one);
    check_ledger(ctx_.checks, d, "one-thread team");
  }

  RunContext& ctx_;
  Kinds kinds_;
  std::unique_ptr<rt::Scheduler> sched_;
  std::map<std::string, FirstOutput> first_;
};

}  // namespace

std::uint64_t digest_matrix(const bots::sparselu::BlockMatrix& m) {
  std::uint64_t h = bots::core::fnv_offset;
  const std::size_t bytes = m.bs() * m.bs() * sizeof(float);
  for (std::size_t i = 0; i < m.nb(); ++i) {
    for (std::size_t j = 0; j < m.nb(); ++j) {
      if (!m.empty(i, j)) h = bots::core::fnv1a(h, digest_bytes(m.block(i, j), bytes));
    }
  }
  return h;
}

void run_fig3(RunContext& ctx) {
  // Each app in the version registry marks as its Figure-3 best, at the
  // `medium` input class.
  const InputClass c = InputClass::medium;
  Kinds k;
  k.push_back(std::make_unique<Alignment>(bots::alignment::params_for(c), Tiedness::untied));
  k.push_back(std::make_unique<Fft>(bots::fft::params_for(c), Tiedness::untied));
  k.push_back(std::make_unique<Fib>(bots::fib::params_for(c), Tiedness::tied, AppCutoff::manual));
  k.push_back(std::make_unique<Floorplan>(bots::floorplan::params_for(c), Tiedness::untied, AppCutoff::manual));
  k.push_back(std::make_unique<Health>(bots::health::params_for(c), Tiedness::tied, AppCutoff::manual));
  k.push_back(std::make_unique<Nqueens>(bots::nqueens::params_for(c), Tiedness::untied, AppCutoff::manual));
  k.push_back(std::make_unique<Sort>(bots::sort::params_for(c), Tiedness::untied));
  k.push_back(std::make_unique<SparseLu>(
      bots::sparselu::params_for(c),
      bots::sparselu::VersionOpts{Tiedness::tied, core::Generator::multiple_gen, false}));
  k.push_back(std::make_unique<Strassen>(bots::strassen::params_for(c), Tiedness::tied, AppCutoff::none));
  k.push_back(std::make_unique<Uts>(bots::uts::params_for(c), Tiedness::untied));
  Batch(ctx, std::move(k)).run();
}

void run_fine_grain(RunContext& ctx) {
  // No application cut-off: every recursion level spawns, so spawn, deque,
  // steal, park and the descriptor pool dominate. Tied and untied are mixed
  // as in Figures 4 and 5. Sizes put each solve near 0.3-1 s at 4 threads.
  Kinds k;
  bots::fib::Params fib{};
  fib.n = 32;
  k.push_back(std::make_unique<Fib>(fib, Tiedness::tied, AppCutoff::none));
  bots::nqueens::Params nq{};
  nq.n = 13;
  k.push_back(std::make_unique<Nqueens>(nq, Tiedness::untied, AppCutoff::none));
  bots::health::Params health = bots::health::params_for(InputClass::medium);
  health.sim_steps = 250;
  k.push_back(std::make_unique<Health>(health, Tiedness::tied, AppCutoff::none));
  k.push_back(std::make_unique<Uts>(bots::uts::params_for(InputClass::small), Tiedness::untied));
  k.push_back(std::make_unique<Fft>(bots::fft::params_for(InputClass::medium), Tiedness::tied));
  Batch(ctx, std::move(k)).run();
}

}  // namespace perfbench
