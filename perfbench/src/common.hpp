// Shared pieces of the perfbench binary: clock, raw-result JSON writer,
// span recorder, counter deltas and the failure ledger.
//
// The binary emits RAW samples only (every timed span, every request's
// timestamps, counter deltas); statistics are computed by perfbench/stats.py
// so that one tested implementation owns medians, percentiles and spreads.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "runtime/scheduler.hpp"

namespace perfbench {

namespace rt = bots::rt;

using Clock = std::chrono::steady_clock;

/// Nanoseconds since the process-wide epoch (first call).
[[nodiscard]] inline std::int64_t now_ns() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

[[nodiscard]] inline double secs_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) * 1e-9;
}

/// Deterministic per-purpose seed derived from the workload seed.
[[nodiscard]] inline std::uint64_t derive_seed(std::uint64_t seed,
                                               std::uint64_t salt) {
  std::uint64_t s = seed * 0x9E3779B97F4A7C15ULL + salt;
  return bots::core::splitmix64(s);
}

/// FNV-1a digest of a byte range: the cheap exact-equality check every
/// repeated solve is held to against the solve that passed `verify`.
[[nodiscard]] inline std::uint64_t digest_bytes(const void* data,
                                                std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = bots::core::fnv_offset;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

// ---------------------------------------------------------------------------
// Minimal JSON writer (objects, arrays, numbers, strings) into a string.
// ---------------------------------------------------------------------------

class Json {
 public:
  Json& begin_object() { sep(); out_ += '{'; first_.push_back(true); return *this; }
  Json& end_object() { out_ += '}'; first_.pop_back(); return *this; }
  Json& begin_array() { sep(); out_ += '['; first_.push_back(true); return *this; }
  Json& end_array() { out_ += ']'; first_.pop_back(); return *this; }
  Json& key(const std::string& k) {
    sep();
    str_raw(k);
    out_ += ':';
    pending_value_ = true;
    return *this;
  }
  Json& value(double v) {
    sep();
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    out_ += buf;
    return *this;
  }
  Json& value(std::int64_t v) { sep(); out_ += std::to_string(v); return *this; }
  Json& value(std::uint64_t v) { sep(); out_ += std::to_string(v); return *this; }
  Json& value(int v) { return value(static_cast<std::int64_t>(v)); }
  Json& value(unsigned v) { return value(static_cast<std::uint64_t>(v)); }
  Json& value(bool v) { sep(); out_ += v ? "true" : "false"; return *this; }
  Json& value(const std::string& s) { sep(); str_raw(s); return *this; }
  Json& value(const char* s) { return value(std::string(s)); }
  template <class T>
  Json& field(const std::string& k, const T& v) { key(k); return value(v); }
  template <class T>
  Json& array(const std::string& k, const std::vector<T>& vs) {
    key(k);
    begin_array();
    for (const T& v : vs) value(v);
    return end_array();
  }
  /// Inserts an already-serialized JSON value.
  Json& raw(const std::string& fragment) { sep(); out_ += fragment; return *this; }
  [[nodiscard]] const std::string& str() const { return out_; }

 private:
  void sep() {
    if (pending_value_) { pending_value_ = false; return; }
    if (first_.empty()) return;
    if (!first_.back()) out_ += ',';
    first_.back() = false;
  }
  void str_raw(const std::string& s) {
    out_ += '"';
    for (char c : s) {
      if (c == '"' || c == '\\') { out_ += '\\'; out_ += c; }
      else if (static_cast<unsigned char>(c) < 0x20) { out_ += ' '; }
      else out_ += c;
    }
    out_ += '"';
  }
  std::string out_;
  std::vector<bool> first_;
  bool pending_value_ = false;
};

// ---------------------------------------------------------------------------
// Counter deltas taken at layer boundaries (Scheduler::stats between regions).
// ---------------------------------------------------------------------------

struct Counters {
  std::uint64_t created = 0, deferred = 0, executed = 0, discarded = 0,
                stolen = 0, steal_attempts = 0, tsc_parked = 0,
                pool_fresh = 0, pool_reuse = 0, range_tasks = 0,
                range_splits = 0, deps_edges = 0, edges_resolved = 0,
                graphs_recorded = 0, graphs_replayed = 0;

  [[nodiscard]] static Counters of(const rt::Scheduler& s) {
    const rt::WorkerStats t = s.stats().total;
    Counters c;
    c.created = t.tasks_created;
    c.deferred = t.tasks_deferred;
    c.executed = t.tasks_executed;
    c.discarded = t.tasks_discarded;
    c.stolen = t.tasks_stolen;
    c.steal_attempts = t.steal_attempts;
    c.tsc_parked = t.tsc_parked;
    c.pool_fresh = t.pool_fresh;
    c.pool_reuse = t.pool_reuse;
    c.range_tasks = t.range_tasks;
    c.range_splits = t.range_splits;
    c.deps_edges = t.deps_edges;
    c.edges_resolved = t.edges_resolved;
    c.graphs_recorded = t.graphs_recorded;
    c.graphs_replayed = t.graphs_replayed;
    return c;
  }

  Counters operator-(const Counters& o) const {
    Counters d;
    d.created = created - o.created;
    d.deferred = deferred - o.deferred;
    d.executed = executed - o.executed;
    d.discarded = discarded - o.discarded;
    d.stolen = stolen - o.stolen;
    d.steal_attempts = steal_attempts - o.steal_attempts;
    d.tsc_parked = tsc_parked - o.tsc_parked;
    d.pool_fresh = pool_fresh - o.pool_fresh;
    d.pool_reuse = pool_reuse - o.pool_reuse;
    d.range_tasks = range_tasks - o.range_tasks;
    d.range_splits = range_splits - o.range_splits;
    d.deps_edges = deps_edges - o.deps_edges;
    d.edges_resolved = edges_resolved - o.edges_resolved;
    d.graphs_recorded = graphs_recorded - o.graphs_recorded;
    d.graphs_replayed = graphs_replayed - o.graphs_replayed;
    return d;
  }

  Counters& operator+=(const Counters& o) {
    created += o.created;
    deferred += o.deferred;
    executed += o.executed;
    discarded += o.discarded;
    stolen += o.stolen;
    steal_attempts += o.steal_attempts;
    tsc_parked += o.tsc_parked;
    pool_fresh += o.pool_fresh;
    pool_reuse += o.pool_reuse;
    range_tasks += o.range_tasks;
    range_splits += o.range_splits;
    deps_edges += o.deps_edges;
    edges_resolved += o.edges_resolved;
    graphs_recorded += o.graphs_recorded;
    graphs_replayed += o.graphs_replayed;
    return *this;
  }

  void write(Json& j) const {
    j.begin_object()
        .field("created", created)
        .field("deferred", deferred)
        .field("executed", executed)
        .field("discarded", discarded)
        .field("stolen", stolen)
        .field("steal_attempts", steal_attempts)
        .field("tsc_parked", tsc_parked)
        .field("pool_fresh", pool_fresh)
        .field("pool_reuse", pool_reuse)
        .field("range_tasks", range_tasks)
        .field("range_splits", range_splits)
        .field("deps_edges", deps_edges)
        .field("edges_resolved", edges_resolved)
        .field("graphs_recorded", graphs_recorded)
        .field("graphs_replayed", graphs_replayed)
        .end_object();
  }
};

// ---------------------------------------------------------------------------
// Span recorder: one span per call into a layer's public function, kept in
// memory and written out when the run ends. Disabled (and free apart from a
// branch) in untraced runs.
// ---------------------------------------------------------------------------

struct SpanRec {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index into the span list, -1 = root
  std::int64_t req = -1;     ///< request id shared by one request's spans
  bool has_counters = false;
  Counters counters;         ///< counter delta across the span, when taken
};

class Spans {
 public:
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  /// Traced passes switch recording on, untraced passes of the same traced
  /// run switch it off (their ratio is trace.overhead_ratio).
  void set_enabled(bool on) noexcept { enabled_ = on; }

  /// Opens a span under the innermost open span; returns its index or -1.
  std::int64_t open(const std::string& name, std::int64_t req = -1) {
    if (!enabled_) return -1;
    SpanRec s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.req = req;
    s.start_ns = now_ns();
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<std::int64_t>(spans_.size() - 1));
    return stack_.back();
  }

  void close(std::int64_t idx) {
    if (idx < 0) return;
    spans_[static_cast<std::size_t>(idx)].end_ns = now_ns();
    if (!stack_.empty() && stack_.back() == idx) stack_.pop_back();
  }

  void set_counters(std::int64_t idx, const Counters& c) {
    if (idx < 0) return;
    spans_[static_cast<std::size_t>(idx)].has_counters = true;
    spans_[static_cast<std::size_t>(idx)].counters = c;
  }

  /// Appends an already-timed span (used for request spans assembled from
  /// per-request timestamps after the request ended).
  std::int64_t add(const std::string& name, std::int64_t start,
                   std::int64_t end, std::int64_t parent, std::int64_t req) {
    if (!enabled_) return -1;
    spans_.push_back(SpanRec{name, start, end, parent, req, false, {}});
    return static_cast<std::int64_t>(spans_.size() - 1);
  }

  void write(Json& j) const {
    j.key("spans").begin_array();
    for (const SpanRec& s : spans_) {
      j.begin_object()
          .field("name", s.name)
          .field("start_ns", s.start_ns)
          .field("end_ns", s.end_ns)
          .field("parent", s.parent)
          .field("req", s.req);
      if (s.has_counters) {
        j.key("counters");
        s.counters.write(j);
      }
      j.end_object();
    }
    j.end_array();
  }

 private:
  std::vector<SpanRec> spans_;
  std::vector<std::int64_t> stack_;
  bool enabled_ = false;
};

/// RAII span guard.
class Span {
 public:
  Span(Spans& s, const std::string& name, std::int64_t req = -1)
      : spans_(s), idx_(s.open(name, req)) {}
  ~Span() { spans_.close(idx_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  [[nodiscard]] std::int64_t index() const noexcept { return idx_; }

 private:
  Spans& spans_;
  std::int64_t idx_;
};

// ---------------------------------------------------------------------------
// Failure ledger: every timed solve and every request is one attempted
// operation; any failed check counts one failure and is described.
// ---------------------------------------------------------------------------

class Checks {
 public:
  void attempt() { ++attempted_; }
  /// Records `ok`; returns it. A failed check counts `ops` failed
  /// operations; one with no operation attached (a broken counter law)
  /// still counts as one.
  bool expect(bool ok, const std::string& what, std::uint64_t ops = 1) {
    if (!ok) {
      failed_ += ops;
      if (failures_.size() < 50) failures_.push_back(what);
      std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
    }
    return ok;
  }
  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }

  void write(Json& j) const {
    j.key("checks")
        .begin_object()
        .field("attempted", attempted_)
        .field("failed", failed_)
        .array("failures", failures_)
        .end_object();
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

/// Ledger law over a counter delta taken between regions.
inline void check_ledger(Checks& checks, const Counters& d,
                         const std::string& where) {
  checks.expect(d.executed + d.discarded == d.deferred,
                where + ": executed + discarded != deferred");
}

/// Set-up is repeated at least kMinSetups times and until kSetupBudgetS
/// seconds were spent (at most kMaxSetups), so cheap set-ups still yield a
/// steady median.
inline constexpr int kMinSetups = 3;
inline constexpr int kMaxSetups = 15;
inline constexpr double kSetupBudgetS = 1.0;

struct RunContext;

/// Times repeated set-ups: `teardown` (untimed) drops the previous one,
/// `make_input` generates the workload's inputs, then `make_sched` builds
/// the team and runs its first empty region. Inputs come first so their
/// generation never shares a core with an idle-polling server team.
/// Records setup.input_s, setup.sched_s and setup_s samples; the last
/// set-up stays in place.
template <class Teardown, class MakeSched, class MakeInput>
void timed_setups(RunContext& ctx, Teardown&& teardown, MakeSched&& make_sched,
                  MakeInput&& make_input);

/// Everything one run produces, written as one JSON document.
struct RunContext {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  unsigned threads = 4;
  Checks checks;
  Spans spans;
  /// Counter deltas per solve kind (summed over its timed solves), and for
  /// the one-thread solves of traced runs under "<kind>.t1".
  std::map<std::string, Counters> counters;
  /// Named raw sample lists ("fib.time_s" -> samples, ...).
  std::map<std::string, std::vector<double>> samples;
  /// Named scalars (counts, designed shares, ...).
  std::map<std::string, double> scalars;
  /// Extra JSON fragments keyed by section name (serve ladder, probes).
  std::map<std::string, std::string> sections;
};

template <class Teardown, class MakeSched, class MakeInput>
void timed_setups(RunContext& ctx, Teardown&& teardown, MakeSched&& make_sched,
                  MakeInput&& make_input) {
  double spent = 0;
  for (int rep = 0; rep < kMaxSetups && (rep < kMinSetups || spent < kSetupBudgetS);
       ++rep) {
    teardown();
    Span whole(ctx.spans, "setup");
    const std::int64_t t0 = now_ns();
    {
      Span s(ctx.spans, "setup.input");
      make_input();
    }
    const std::int64_t t1 = now_ns();
    {
      Span s(ctx.spans, "setup.sched");
      make_sched();
    }
    const std::int64_t t2 = now_ns();
    ctx.samples["setup.input_s"].push_back(secs_between(t0, t1));
    ctx.samples["setup.sched_s"].push_back(secs_between(t1, t2));
    ctx.samples["setup_s"].push_back(secs_between(t0, t2));
    spent += secs_between(t0, t2);
  }
}

}  // namespace perfbench
