// `serve` workload: a TaskServer with a team of 3, fed by one open-loop
// generator (the main thread) with Poisson arrivals drawn from a seeded mix
// of four request kinds:
//
//   fib      a fib spawn tree (rt::spawn + rt::taskwait)
//   sort     a spawn mergesort of a seeded array
//   score    spawn_range scoring of sequence pairs with alignment::pair_score
//   lu       a block LU submitted with submit_graph: each of kLuSlots slots
//            owns its blocks and graph tag, so a slot's second request
//            replays the first one's recording; the DAG restores its own
//            input first, so replay needs no reset outside the request
//
// The ladder of absolute arrival rates is fixed, so two commits see the
// same offered load. Every rung sends kRungRequests requests; the nominal
// rate then runs for the rest of the window. Latency is timed from each
// request's DUE time (so a stalled generator charges the wait to the
// requests it delays) and the generator's own lateness is recorded.
//
// The admission queue is sized so an overloaded rung queues instead of
// refusing: every request must complete with a correct answer, and an
// overloaded rung shows as a growing backlog (perfbench/stats.py excludes
// it from req.max_rps).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "kernels/alignment/alignment.hpp"
#include "runtime/dependency.hpp"
#include "runtime/server.hpp"
#include "runtime/taskgraph.hpp"
#include "runtime/worksharing.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr unsigned kTeam = 3;
constexpr std::size_t kRungRequests = 1000;
/// Offered load in requests per second, low to high. kNominalRps is the
/// rung req.p50_ms / req.p99_ms are read at.
constexpr double kLadder[] = {500, 1000, 2000, 4000, 6000, 8000, 10000, 12000, 16000};
constexpr double kNominalRps = 1000;
constexpr std::uint32_t kQueueCapacity = 1u << 16;

constexpr int kKinds = 4;
constexpr const char* kKindNames[kKinds] = {"fib", "sort", "score", "lu"};

/// One request's timestamps (ns, process epoch) and outcome. Written by the
/// generator (due/submit/submitted) and the request body (start/end/ok);
/// read after the request's handle is terminal.
struct Req {
  std::int64_t due = 0, submit = 0, submitted = 0, start = 0, end = 0, done = 0;
  int kind = 0;
  bool ok = false;
  bool admitted = false;
  rt::RegionHandle handle;
};

// ---------------------------------------------------------------------------
// Request kinds.
// ---------------------------------------------------------------------------

void msort(std::uint32_t* v, std::uint32_t* tmp, std::size_t n) {
  if (n <= 256) {
    std::sort(v, v + n);
    return;
  }
  const std::size_t h = n / 2;
  rt::spawn(rt::Tiedness::untied, [v, tmp, h] { msort(v, tmp, h); });
  rt::spawn(rt::Tiedness::untied,
            [v, tmp, h, n] { msort(v + h, tmp + h, n - h); });
  rt::taskwait();
  std::merge(v, v + h, v + h, v + n, tmp);
  std::copy(tmp, tmp + n, v);
}

/// Read-only inputs shared by every request, generated at set-up.
struct Inputs {
  bots::alignment::Params ap;
  std::vector<bots::alignment::Sequence> seqs;
  std::vector<int> pair_scores;  ///< reference score of every (i, j), i < j
  std::vector<float> lu_input;   ///< pristine dense LU input, block-major
  std::uint64_t lu_digest = 0;   ///< digest of its serial factorization
};

constexpr int kScoreSeqs = 12;  ///< sequences scored by one request

// Block LU on kLuNb x kLuNb dense blocks of kLuBs x kLuBs floats (the
// sparselu kernels' update formulas, written here for request-sized blocks).
constexpr std::size_t kLuNb = 4;
constexpr std::size_t kLuBs = 24;
constexpr std::size_t kLuBlock = kLuBs * kLuBs;
constexpr int kLuSlots = 16;

void lu0(float* d) {
  for (std::size_t k = 0; k < kLuBs; ++k) {
    for (std::size_t i = k + 1; i < kLuBs; ++i) {
      d[i * kLuBs + k] /= d[k * kLuBs + k];
      for (std::size_t j = k + 1; j < kLuBs; ++j) {
        d[i * kLuBs + j] -= d[i * kLuBs + k] * d[k * kLuBs + j];
      }
    }
  }
}

void fwd(const float* d, float* c) {
  for (std::size_t k = 0; k < kLuBs; ++k) {
    for (std::size_t i = k + 1; i < kLuBs; ++i) {
      for (std::size_t j = 0; j < kLuBs; ++j) {
        c[i * kLuBs + j] -= d[i * kLuBs + k] * c[k * kLuBs + j];
      }
    }
  }
}

void bdiv(const float* d, float* r) {
  for (std::size_t i = 0; i < kLuBs; ++i) {
    for (std::size_t k = 0; k < kLuBs; ++k) {
      r[i * kLuBs + k] /= d[k * kLuBs + k];
      for (std::size_t j = k + 1; j < kLuBs; ++j) {
        r[i * kLuBs + j] -= r[i * kLuBs + k] * d[k * kLuBs + j];
      }
    }
  }
}

void bmod(const float* r, const float* c, float* t) {
  for (std::size_t i = 0; i < kLuBs; ++i) {
    for (std::size_t k = 0; k < kLuBs; ++k) {
      const float a = r[i * kLuBs + k];
      for (std::size_t j = 0; j < kLuBs; ++j) t[i * kLuBs + j] -= a * c[k * kLuBs + j];
    }
  }
}

void lu_serial(float* m) {
  auto blk = [m](std::size_t i, std::size_t j) { return m + (i * kLuNb + j) * kLuBlock; };
  for (std::size_t kk = 0; kk < kLuNb; ++kk) {
    lu0(blk(kk, kk));
    for (std::size_t j = kk + 1; j < kLuNb; ++j) fwd(blk(kk, kk), blk(kk, j));
    for (std::size_t i = kk + 1; i < kLuNb; ++i) bdiv(blk(kk, kk), blk(i, kk));
    for (std::size_t i = kk + 1; i < kLuNb; ++i) {
      for (std::size_t j = kk + 1; j < kLuNb; ++j) bmod(blk(i, kk), blk(kk, j), blk(i, j));
    }
  }
}

/// One LU slot: blocks, graph tag, and the request currently using it.
/// Recorded task bodies capture only the slot, so a replay writes the
/// answer of whichever request owns the slot now.
struct LuSlot {
  std::vector<float> m = std::vector<float>(kLuNb * kLuNb * kLuBlock);
  int gate = 0;  ///< dependence key ordering "start" before the restores
  std::string tag;
  const Inputs* in = nullptr;
  Req* current = nullptr;
  std::atomic<std::uint64_t>* finished = nullptr;

  float* blk(std::size_t i, std::size_t j) { return m.data() + (i * kLuNb + j) * kLuBlock; }
};

void build_lu(rt::DepScope& sc, LuSlot* s) {
  using rt::in;
  using rt::inout;
  using rt::out;
  const rt::Tiedness t = rt::Tiedness::untied;
  sc.spawn(t, {inout(s->gate)}, [s] { s->current->start = now_ns(); });
  for (std::size_t i = 0; i < kLuNb; ++i) {
    for (std::size_t j = 0; j < kLuNb; ++j) {
      float* b = s->blk(i, j);
      const float* src = s->in->lu_input.data() + (i * kLuNb + j) * kLuBlock;
      sc.spawn(t, {in(s->gate), out(b)},
               [b, src] { std::memcpy(b, src, kLuBlock * sizeof(float)); });
    }
  }
  for (std::size_t kk = 0; kk < kLuNb; ++kk) {
    float* d = s->blk(kk, kk);
    sc.spawn(t, {inout(d)}, [d] { lu0(d); });
    for (std::size_t j = kk + 1; j < kLuNb; ++j) {
      float* c = s->blk(kk, j);
      sc.spawn(t, {in(d), inout(c)}, [d, c] { fwd(d, c); });
    }
    for (std::size_t i = kk + 1; i < kLuNb; ++i) {
      float* r = s->blk(i, kk);
      sc.spawn(t, {in(d), inout(r)}, [d, r] { bdiv(d, r); });
    }
    for (std::size_t i = kk + 1; i < kLuNb; ++i) {
      for (std::size_t j = kk + 1; j < kLuNb; ++j) {
        const float* r = s->blk(i, kk);
        const float* c = s->blk(kk, j);
        float* tg = s->blk(i, j);
        sc.spawn(t, {in(r), in(c), inout(tg)}, [r, c, tg] { bmod(r, c, tg); });
      }
    }
  }
  // Every block's last write reaches the last diagonal factorization
  // through the update chain, so this task sees the finished matrix.
  float* last = s->blk(kLuNb - 1, kLuNb - 1);
  sc.spawn(t, {in(last)}, [s] {
    Req* r = s->current;
    r->ok = digest_bytes(s->m.data(), s->m.size() * sizeof(float)) == s->in->lu_digest;
    r->end = now_ns();
    s->finished->fetch_add(1, std::memory_order_release);
  });
}

// ---------------------------------------------------------------------------
// The workload.
// ---------------------------------------------------------------------------

class Serve {
 public:
  explicit Serve(RunContext& ctx) : ctx_(ctx), rng_(derive_seed(ctx.seed, 0x5E)) {}

  void run() {
    setup();
    lu_graph_edges_ = record_lu_once();
    double ladder_s = 0;
    for (double rate : kLadder) ladder_s += static_cast<double>(kRungRequests) / rate;
    Json rungs;
    rungs.begin_array();
    for (double rate : kLadder) run_rung(rungs, rate, kRungRequests, "ladder");
    // The nominal rate fills the rest of the window (at least one rung).
    const double rest = std::max(ctx_.seconds - ladder_s,
                                 static_cast<double>(kRungRequests) / kNominalRps);
    const auto nominal_n = static_cast<std::size_t>(rest * kNominalRps);
    if (ctx_.trace) {
      // Untraced and traced halves of the nominal leg: trace.overhead_ratio.
      ctx_.spans.set_enabled(false);
      run_rung(rungs, kNominalRps, nominal_n / 2, "nominal");
      ctx_.spans.set_enabled(true);
      run_rung(rungs, kNominalRps, nominal_n - nominal_n / 2, "nominal_traced");
    } else {
      run_rung(rungs, kNominalRps, nominal_n, "nominal");
    }
    rungs.end_array();
    ctx_.sections["serve"] = rungs.str();
    teardown();
  }

 private:
  void setup() {
    timed_setups(
        ctx_,
        [&] {
          server_.reset();
          sched_.reset();
        },
        [&] {
          rt::SchedulerConfig cfg;
          cfg.num_threads = kTeam;
          sched_ = std::make_unique<rt::Scheduler>(cfg);
          rt::ServerConfig sc;
          sc.queue_capacity = kQueueCapacity;
          server_ = std::make_unique<rt::TaskServer>(*sched_, sc);
          server_->submit([] {}).handle.wait();
        },
        [&] { make_inputs(); });
    base_ = Counters::of(*sched_);
  }

  void make_inputs() {
    Inputs& in = inputs_;
    in.ap = bots::alignment::params_for(bots::core::InputClass::test);
    in.ap.nseq = 32;
    in.ap.len_min = 40;
    in.ap.len_max = 60;
    in.ap.seed = derive_seed(ctx_.seed, 0xA1);
    in.seqs = bots::alignment::make_input(in.ap);
    const int n = in.ap.nseq;
    in.pair_scores.assign(static_cast<std::size_t>(n * n), 0);
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        in.pair_scores[static_cast<std::size_t>(i * n + j)] =
            bots::alignment::pair_score(in.seqs[static_cast<std::size_t>(i)],
                                        in.seqs[static_cast<std::size_t>(j)], in.ap);
      }
    }
    in.lu_input.assign(kLuNb * kLuNb * kLuBlock, 0.0f);
    bots::core::Xoshiro256 r(derive_seed(ctx_.seed, 0x1B));
    for (std::size_t i = 0; i < kLuNb * kLuBs; ++i) {
      for (std::size_t j = 0; j < kLuNb * kLuBs; ++j) {
        float v = static_cast<float>(r.next_double() - 0.5);
        if (i == j) v += static_cast<float>(kLuNb * kLuBs);  // diagonal dominance
        const std::size_t b = (i / kLuBs) * kLuNb + j / kLuBs;
        in.lu_input[b * kLuBlock + (i % kLuBs) * kLuBs + j % kLuBs] = v;
      }
    }
    std::vector<float> ref = in.lu_input;
    lu_serial(ref.data());
    in.lu_digest = digest_bytes(ref.data(), ref.size() * sizeof(float));
    slots_.clear();
    for (int s = 0; s < kLuSlots; ++s) {
      LuSlot& slot = slots_.emplace_back();
      slot.tag = "perfbench.lu." + std::to_string(s);
      slot.in = &inputs_;
      slot.finished = &finished_;
    }
  }

  /// Records the LU DAG once on a private one-thread team (untimed) and
  /// returns the recorded graph's edge count, which every replay resolves.
  /// The recording's answer is checked against the serial reference too.
  std::uint64_t record_lu_once() {
    rt::SchedulerConfig cfg;
    cfg.num_threads = 1;
    rt::Scheduler one(cfg);
    std::atomic<std::uint64_t> finished{0};
    LuSlot slot;
    Req r;
    slot.in = &inputs_;
    slot.current = &r;
    slot.finished = &finished;
    const char* tag = "perfbench.lu.edges";
    one.run_single([&] {
      rt::graph_region(tag, &slot, [&](rt::DepScope& sc) { build_lu(sc, &slot); });
    });
    ctx_.checks.expect(r.ok, "serve: recorded LU DAG gives a wrong answer");
    return one.find_or_create_graph(tag).edge_count();
  }

  /// Submits one request of `kind` for `r` (the generator side).
  void submit(Req& r, std::uint64_t req_seed) {
    switch (r.kind) {
      case 0: {
        const int n = 13 + static_cast<int>(req_seed % 3);
        auto res = server_->submit([&r, n, this] {
          r.start = now_ns();
          r.ok = spawn_fib(n) == fib_ref(n);
          r.end = now_ns();
          finished_.fetch_add(1, std::memory_order_release);
        });
        r.handle = res.handle;
        r.admitted = res.admitted;
        break;
      }
      case 1: {
        const std::size_t n = 4096 + req_seed % 4096;
        auto res = server_->submit([&r, n, req_seed, this] {
          r.start = now_ns();
          std::vector<std::uint32_t> v(n), tmp(n);
          std::uint64_t s = req_seed, sum = 0, sum2 = 0;
          for (auto& x : v) {
            x = static_cast<std::uint32_t>(bots::core::splitmix64(s));
            sum += x;
          }
          msort(v.data(), tmp.data(), n);
          bool sorted = true;
          for (std::size_t i = 0; i < n; ++i) {
            sorted = sorted && (i == 0 || v[i - 1] <= v[i]);
            sum2 += v[i];
          }
          r.ok = sorted && sum == sum2;
          r.end = now_ns();
          finished_.fetch_add(1, std::memory_order_release);
        });
        r.handle = res.handle;
        r.admitted = res.admitted;
        break;
      }
      case 2: {
        const int first = static_cast<int>(req_seed % (inputs_.ap.nseq - kScoreSeqs + 1));
        auto res = server_->submit([&r, first, this] {
          r.start = now_ns();
          constexpr int pairs = kScoreSeqs * kScoreSeqs;
          std::vector<int> got(pairs, 0);
          const Inputs& in = inputs_;
          rt::spawn_range(rt::Tiedness::untied, 0, pairs, 4, [&](std::int64_t idx) {
            const int i = first + static_cast<int>(idx) / kScoreSeqs;
            const int j = first + static_cast<int>(idx) % kScoreSeqs;
            if (i < j) {
              got[static_cast<std::size_t>(idx)] = bots::alignment::pair_score(
                  in.seqs[static_cast<std::size_t>(i)],
                  in.seqs[static_cast<std::size_t>(j)], in.ap);
            }
          });
          rt::taskwait();
          bool ok = true;
          for (int idx = 0; idx < pairs; ++idx) {
            const int i = first + idx / kScoreSeqs;
            const int j = first + idx % kScoreSeqs;
            if (i < j) {
              ok = ok && got[static_cast<std::size_t>(idx)] ==
                             in.pair_scores[static_cast<std::size_t>(i * in.ap.nseq + j)];
            }
          }
          r.ok = ok;
          r.end = now_ns();
          finished_.fetch_add(1, std::memory_order_release);
        });
        r.handle = res.handle;
        r.admitted = res.admitted;
        break;
      }
      default: submit_lu(r); break;
    }
  }

  /// A free slot's graph replays (or records on first use). With every
  /// slot still in flight the request runs on a one-off slot under a plain
  /// dependence scope instead: same DAG, no recording.
  void submit_lu(Req& r) {
    for (int probe = 0; probe < kLuSlots; ++probe) {
      LuSlot& s = slots_[static_cast<std::size_t>(next_slot_)];
      next_slot_ = (next_slot_ + 1) % kLuSlots;
      if (s.current != nullptr && !s.current->handle.done()) continue;
      s.current = &r;
      LuSlot* sp = &s;
      auto res = server_->submit_graph(
          s.tag, [sp](rt::DepScope& sc) { build_lu(sc, sp); }, sp);
      r.handle = res.handle;
      r.admitted = res.admitted;
      return;
    }
    ++lu_oneoff_;
    auto slot = std::make_shared<LuSlot>();
    slot->in = &inputs_;
    slot->current = &r;
    slot->finished = &finished_;
    auto res = server_->submit([slot] {
      rt::DepScope sc;
      build_lu(sc, slot.get());
      sc.wait();
    });
    r.handle = res.handle;
    r.admitted = res.admitted;
  }

  void run_rung(Json& out, double rate, std::size_t n, const char* leg) {
    std::deque<Req> reqs(n);  // stable addresses for the bodies
    std::vector<std::int64_t> backlog;
    backlog.reserve(n);
    const std::uint64_t finished0 = finished_.load(std::memory_order_acquire);
    const std::int64_t t0 = now_ns() + 1'000'000;  // first arrivals 1 ms out
    double due = 0;
    for (std::size_t i = 0; i < n; ++i) {
      Req& r = reqs[i];
      due += -std::log(1.0 - rng_.next_double()) / rate * 1e9;  // Poisson
      r.due = t0 + static_cast<std::int64_t>(due);
      r.kind = static_cast<int>(rng_.next_below(kKinds));
      const std::uint64_t req_seed = rng_.next();
      // Spin, not sleep: a sleeping generator wakes up to half a millisecond
      // late on an idle host, which would be charged to every request.
      while (now_ns() < r.due) {
      }
      r.submit = now_ns();
      submit(r, req_seed);
      r.submitted = now_ns();
      backlog.push_back(static_cast<std::int64_t>(i + 1) -
                        static_cast<std::int64_t>(
                            finished_.load(std::memory_order_acquire) - finished0));
    }
    for (Req& r : reqs) {
      r.handle.wait();
      r.done = r.submit + r.handle.latency().count() * 1000;
    }
    for (LuSlot& s : slots_) s.current = nullptr;  // the rung's requests die here
    collect(out, rate, leg, reqs, backlog);
  }

  void collect(Json& out, double rate, const char* leg, std::deque<Req>& reqs,
               const std::vector<std::int64_t>& backlog) {
    out.begin_object().field("leg", leg).field("rate", rate);
    std::vector<double> latency_ms, lag_ms, submit_us, queue_ms, service_ms;
    std::vector<int> kind, ok;
    for (Req& r : reqs) {
      ctx_.checks.attempt();
      const bool completed = r.handle.status() == rt::RequestStatus::completed;
      const bool good = r.admitted && completed && r.ok && r.handle.ledger_balanced();
      ctx_.checks.expect(good, std::string("serve: ") + kKindNames[r.kind] +
                                   " request did not complete with a correct answer");
      kind.push_back(r.kind);
      ok.push_back(good ? 1 : 0);
      latency_ms.push_back(secs_between(r.due, good ? r.done : r.due) * 1e3);
      lag_ms.push_back(secs_between(r.due, r.submit) * 1e3);
      submit_us.push_back(secs_between(r.submit, r.submitted) * 1e6);
      queue_ms.push_back(good ? secs_between(r.submit, r.start) * 1e3 : 0.0);
      service_ms.push_back(good ? secs_between(r.start, r.end) * 1e3 : 0.0);
      if (ctx_.spans.enabled()) {
        const std::int64_t id = next_req_id_++;
        const std::int64_t root = ctx_.spans.add("req", r.due, r.done, -1, id);
        ctx_.spans.add("srv.submit", r.submit, r.submitted, root, id);
        ctx_.spans.add("srv.queue", r.submit, r.start, root, id);
        ctx_.spans.add("srv.service", r.start, r.end, root, id);
      }
    }
    out.array("kind", kind)
        .array("ok", ok)
        .array("latency_ms", latency_ms)
        .array("lag_ms", lag_ms)
        .array("submit_us", submit_us)
        .array("queue_ms", queue_ms)
        .array("service_ms", service_ms)
        .array("backlog", backlog)
        .end_object();
  }

  void teardown() {
    const rt::ServerStats st = server_->stats();
    server_->drain();
    const Counters d = Counters::of(*sched_) - base_;
    check_ledger(ctx_.checks, d, "serve workload");
    ctx_.checks.expect(
        st.completed + st.cancelled + st.deadline_exceeded + st.rejected == st.submitted,
        "serve: terminal states != submitted");
    // Only LU requests declare dependences. Recordings, one-off slots and
    // busy-tag fallbacks track edges dynamically (deps_edges counts the ones
    // pushed, each resolved once); each replay resolves the recorded graph's
    // lu_graph_edges_ baked edges.
    ctx_.checks.expect(
        d.edges_resolved == d.deps_edges + d.graphs_replayed * lu_graph_edges_,
        "serve: edges_resolved != deps_edges + replays x LU graph edges");
    ctx_.counters["serve"] = d;
    ctx_.scalars["srv.submitted"] = static_cast<double>(st.submitted);
    ctx_.scalars["srv.rejected"] = static_cast<double>(st.rejected);
    ctx_.scalars["srv.lu_oneoff"] = static_cast<double>(lu_oneoff_);
    ctx_.scalars["srv.graphs_replayed"] = static_cast<double>(d.graphs_replayed);
    ctx_.scalars["srv.graphs_recorded"] = static_cast<double>(d.graphs_recorded);
    server_.reset();
  }

  RunContext& ctx_;
  bots::core::Xoshiro256 rng_;
  std::unique_ptr<rt::Scheduler> sched_;
  std::unique_ptr<rt::TaskServer> server_;
  Inputs inputs_;
  std::deque<LuSlot> slots_;
  int next_slot_ = 0;
  std::uint64_t lu_oneoff_ = 0;
  std::uint64_t lu_graph_edges_ = 0;
  std::atomic<std::uint64_t> finished_{0};
  std::int64_t next_req_id_ = 0;
  Counters base_;
};

}  // namespace

void run_serve(RunContext& ctx) {
  ctx.threads = kTeam;
  Serve(ctx).run();
}

}  // namespace perfbench
