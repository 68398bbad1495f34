"""Turns one raw perfbench document into named metrics.

Two views of every run:

* ``named``: the metrics by the names README.md lists, each with unit,
  sample count, median and quartiles where it is a sample set. End-to-end
  names (``fib.time_s``, ``req.p99_ms``, ...) come from untraced runs;
  per-layer names (``fib.speedup``, ``srv.queue_ms.p99``, ...) from traced
  runs.
* ``gated``: the fixed metric set BENCHMARK.json declares, which every
  workload must produce: ``setup_s`` and ``median_ms`` (end to end), and
  the layer metrics in PER_LAYER (traced runs).
"""

import math

import stats

# Fixed p99 latency limit of req.max_rps, about 3x the closed-loop p99 of
# the serve mix on a 4-vCPU host.
LATENCY_LIMIT_MS = 5.0

# App each solve kind belongs to, in report order.
FIG3_APPS = ("alignment", "fft", "fib", "floorplan", "health", "nqueens",
             "sort", "sparselu", "strassen", "uts")

# Request kinds of the serve workload, by the index the binary records.
REQUEST_KINDS = ("fib", "sort", "score", "lu")

PER_LAYER = (
    ("setup.sched_s", "s"),
    ("setup.input_s", "s"),
    ("sched.ns_per_task", "ns"),
    ("sched.steal_hit_ratio", "ratio"),
    ("sched.tsc_parked", "count"),
    ("pool.fresh_ratio", "ratio"),
    ("ws.range_splits", "count"),
    ("dep.edges", "count"),
    ("graph.replay_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("sched.fork_join_us.p50", "us"),
    ("sched.fork_join_us.max", "us"),
    ("sched.task_wait_us.p50", "us"),
    ("sched.task_wait_us.max", "us"),
    ("sched.nested4_us.p50", "us"),
    ("sched.nested4_us.max", "us"),
    ("sched.null_task_ns", "ns"),
    ("sched.fib_task_ns", "ns"),
    ("deque.push_pop_ns", "ns"),
    ("deque.steal_ns", "ns"),
    ("ws.range_ns_per_iter", "ns"),
    ("dep.edge_ns", "ns"),
)


class Metric:
    """One named metric: a value with unit, and the samples it came from."""

    def __init__(self, name, unit, value, samples=None, note=""):
        self.name, self.unit, self.value = name, unit, value
        self.samples = samples or []
        self.note = note

    def row(self):
        n = len(self.samples)
        if n >= 2:
            q1, q3 = stats.quartiles(self.samples)
            dist = f"n={n:<5d} q1={q1:.6g} q3={q3:.6g} spread={stats.spread(self.samples):.3f}"
            p, v = stats.highest_percentile(self.samples)
            if p is not None and p > 50:
                dist += f" p{p:g}={v:.6g}"
        else:
            dist = f"n={max(n, 1):<5d}"
        note = f"  ({self.note})" if self.note else ""
        return f"{self.name:<30s} {self.value:>14.6g} {self.unit:<7s} {dist}{note}"


def _from_samples(name, unit, xs, note=""):
    return Metric(name, unit, stats.median(xs), xs, note)


def _ratio(a, b):
    return a / b if b else 0.0


def _kinds(raw):
    """Solve kinds with window samples, in report order."""
    present = [k[:-len(".time_s")] for k in raw["samples"] if k.endswith(".time_s")]
    return [k for k in FIG3_APPS if k in present]


def _op_seconds(raw, kind):
    return raw["samples"][f"{kind}.time_s"]


# ---------------------------------------------------------------------------
# Serve rungs.
# ---------------------------------------------------------------------------

def _rung_latencies(rung):
    return [lat if ok else math.inf for lat, ok in zip(rung["latency_ms"], rung["ok"])]


def _nominal(raw, traced=False):
    legs = ("nominal_traced",) if traced else ("nominal",)
    for rung in raw.get("serve", []):
        if rung["leg"] in legs:
            return rung
    return None


# ---------------------------------------------------------------------------
# End to end.
# ---------------------------------------------------------------------------

def end_to_end(raw):
    """Named end-to-end metrics of one untraced run (list of Metric)."""
    out = [_from_samples("setup_s", "s", raw["samples"]["setup_s"])]
    c = raw["checks"]
    out.append(Metric("fail_ratio", "ratio", _ratio(c["failed"], c["attempted"]),
                      note=f"{c['failed']} of {c['attempted']} operations"))
    s = raw["samples"]
    for kind in _kinds(raw):
        if kind == "floorplan":
            out.append(_from_samples("floorplan.knodes_per_s", "1000/s",
                                     s["floorplan.knodes_per_s"]))
        else:
            out.append(_from_samples(f"{kind}.time_s", "s", s[f"{kind}.time_s"]))
    if raw["workload"] == "serve":
        out.extend(_serve_end_to_end(raw))
    return out


def _serve_end_to_end(raw):
    out = []
    nominal = _nominal(raw)
    lat = _rung_latencies(nominal)
    note = f"at {nominal['rate']:g} req/s"
    out.append(Metric("req.p50_ms", "ms", stats.percentile(lat, 50.0), lat, note))
    p99 = stats.percentile(lat, 99.0)
    if p99 is None:
        out.append(Metric("req.p99_ms", "ms", math.nan, lat, "absent: under 1000 samples"))
    else:
        out.append(Metric("req.p99_ms", "ms", p99, lat, note))
    for kind, name in enumerate(REQUEST_KINDS):
        xs = [x for x, k in zip(lat, nominal["kind"]) if k == kind]
        out.append(Metric(f"req.{name}.p50_ms", "ms", stats.percentile(xs, 50.0), xs, note))
    ladder = [(r["rate"], _rung_latencies(r), r["backlog"])
              for r in raw["serve"] if r["leg"] == "ladder"]
    best = stats.max_rate(ladder, LATENCY_LIMIT_MS)
    out.append(Metric("req.max_rps", "1/s", best if best is not None else 0.0,
                      note=f"p99 <= {LATENCY_LIMIT_MS:g} ms, backlog not growing"))
    return out


def gated_end_to_end(raw):
    """The BENCHMARK.json end-to-end set: setup_s and median_ms.

    median_ms is the geometric mean over the workload's operation kinds of
    each kind's median operation time. A batch kind is one app (floorplan
    counts ms per million explored nodes, since parallel pruning moves its
    node count); a serve kind is one request kind at the nominal rate, timed
    from its due time. Tail percentiles are printed by name but not gated:
    their run-to-run spread exceeds the largest bound a gate may have.
    """
    setup = stats.median(raw["samples"]["setup_s"])
    per_kind = []
    if raw["workload"] == "serve":
        rung = _nominal(raw)
        lat = _rung_latencies(rung)
        for kind in sorted(set(rung["kind"])):
            per_kind.append([x for x, k in zip(lat, rung["kind"]) if k == kind])
    else:
        s = raw["samples"]
        for kind in _kinds(raw):
            if kind == "floorplan":
                per_kind.append([1e6 / k for k in s["floorplan.knodes_per_s"]])
            else:
                per_kind.append([t * 1e3 for t in s[f"{kind}.time_s"]])
    med = stats.geomean(stats.median(xs) for xs in per_kind)
    return {"setup_s": (setup, "s"), "median_ms": (med, "ms")}


# ---------------------------------------------------------------------------
# Per layer (traced runs).
# ---------------------------------------------------------------------------

def per_layer(raw):
    """(named per-layer metrics, absent-with-reason lines, gated dict)."""
    s, cnt, sc = raw["samples"], raw["counters"], raw["scalars"]
    wl = raw["workload"]
    named, absent = [], []
    named.append(_from_samples("setup.sched_s", "s", s["setup.sched_s"]))
    named.append(_from_samples("setup.input_s", "s", s["setup.input_s"]))

    kinds = _kinds(raw)
    threads = raw["threads"]
    for kind in kinds:
        t = stats.median(_op_seconds(raw, kind))
        serial = s.get(f"{kind}.serial_s")
        if serial:
            named.append(Metric(f"{kind}.serial_s", "s", serial[0], serial))
            named.append(Metric(f"{kind}.speedup", "x", serial[0] / t))
            t1 = s.get(f"{kind}.t1_s")
            if t1:
                named.append(Metric(f"{kind}.t1_ratio", "x", t1[0] / serial[0]))
        c = cnt[kind]
        solves = len(_op_seconds(raw, kind))
        named.append(Metric(f"{kind}.ns_per_task", "ns",
                            _ratio(threads * sum(_op_seconds(raw, kind)) * 1e9, c["deferred"])))
        named.append(Metric(f"{kind}.steal_hit_ratio", "ratio",
                            _ratio(c["stolen"], c["steal_attempts"])))
        if kind == "health":
            named.append(Metric("health.tsc_parked", "count", c["tsc_parked"] / solves,
                                note="per solve"))
        if kind in ("sparselu", "alignment") and wl == "fig3":
            named.append(Metric(f"{kind}.range_splits", "count", c["range_splits"] / solves,
                                note="per solve"))
        flops = sc.get(f"{kind}.flops")
        if flops:
            named.append(Metric(f"{kind}.gflops", "GFLOP/s", flops / t / 1e9,
                                note="computed op count"))
    if not any(k.endswith(".serial_s") for k in s):
        absent.append(("<app>.serial_s, <app>.speedup, <app>.t1_ratio",
                       "serial references are run by the fig3 and fine-grain workloads"))

    totals = {}
    for name, c in cnt.items():
        if name.endswith(".t1") or name in ("dataflow", "serve"):
            continue
        for k, v in c.items():
            totals[k] = totals.get(k, 0) + v
    if wl in ("dataflow", "serve"):
        totals = cnt[wl]
    named.append(Metric("pool.fresh_ratio", "ratio",
                        _ratio(totals["pool_fresh"], totals["pool_fresh"] + totals["pool_reuse"])))

    ops = sum(len(_op_seconds(raw, k)) for k in kinds)
    op_time = sum(sum(_op_seconds(raw, k)) for k in kinds)
    if wl == "dataflow":
        named.extend(_dataflow_layers(raw))
    else:
        absent.append(("graph.record_s, graph.replay_s, graph.replay_ns_per_task, "
                       "graph.replay_share, sparselu.edges",
                       "only the dataflow workload records and replays graphs"))
    if wl == "serve":
        serve_named, ops, op_time = _serve_layers(raw)
        named.extend(serve_named)
    else:
        absent.append(("srv.*, gen.lag_ms.p99", "only the serve workload runs a TaskServer"))

    overhead = _overhead(raw)
    named.append(Metric("trace.overhead_ratio", "ratio", overhead,
                        note="traced / untraced"))
    named.extend(_probes(raw))

    gated = {
        "setup.sched_s": stats.median(s["setup.sched_s"]),
        "setup.input_s": stats.median(s["setup.input_s"]),
        "sched.ns_per_task": _ratio(threads * op_time * 1e9, totals["deferred"]),
        "sched.steal_hit_ratio": _ratio(totals["stolen"], totals["steal_attempts"]),
        "sched.tsc_parked": _ratio(totals["tsc_parked"], ops),
        "pool.fresh_ratio": _ratio(totals["pool_fresh"],
                                   totals["pool_fresh"] + totals["pool_reuse"]),
        "ws.range_splits": _ratio(totals["range_splits"], ops),
        "dep.edges": _ratio(totals["deps_edges"], ops),
        "graph.replay_share": _ratio(totals["graphs_replayed"],
                                     totals["graphs_replayed"] + totals["graphs_recorded"]),
        "trace.overhead_ratio": overhead,
    }
    for m in named:
        if m.name in dict(PER_LAYER) and m.name not in gated:
            gated[m.name] = m.value
    return named, absent, gated


def _dataflow_layers(raw):
    s, sc = raw["samples"], raw["scalars"]
    out = []
    rec = s.get("sparselu.record_s", []) + s.get("strassen.record_s", [])
    rep = s.get("sparselu.replay_s", []) + s.get("strassen.replay_s", [])
    out.append(_from_samples("graph.record_s", "s", rec, "both apps"))
    out.append(_from_samples("graph.replay_s", "s", rep, "both apps"))
    for app in ("sparselu", "strassen"):
        out.append(_from_samples(f"{app}.record_s", "s", s[f"{app}.record_s"]))
        out.append(_from_samples(f"{app}.replay_s", "s", s[f"{app}.replay_s"]))
    out.append(_from_samples("graph.replay_ns_per_task", "ns",
                             s["sparselu.replay_ns_per_task"], "sparselu replays"))
    out.append(_from_samples("sparselu.edges", "count", s["sparselu.edges"],
                             "per recorded factorization"))
    share = sc["graph.replays"] / sc["graph.steps"]
    designed = sc["graph.designed_replays"] / sc["graph.steps"]
    out.append(Metric("graph.replay_share", "ratio", share, note=f"designed {designed:.4f}"))
    return out


def _serve_layers(raw):
    out = []
    nominal = _nominal(raw) or _nominal(raw, traced=True)
    rungs = [r for r in raw["serve"] if r["leg"].startswith("nominal")]
    good = [(r, i) for r in rungs for i, ok in enumerate(r["ok"]) if ok]
    submit = [r["submit_us"][i] for r, i in good]
    queue = [r["queue_ms"][i] for r, i in good]
    service = [r["service_ms"][i] for r, i in good]
    lag = [x for r in rungs for x in r["lag_ms"]]
    out.append(_from_samples("srv.submit_us", "us", submit))
    for name, xs in (("srv.queue_ms", queue), ("srv.service_ms", service)):
        out.append(Metric(f"{name}.p50", "ms", stats.percentile(xs, 50.0), xs))
        out.append(Metric(f"{name}.p99", "ms", stats.percentile(xs, 99.0), xs))
    sc = raw["scalars"]
    out.append(Metric("srv.reject_ratio", "ratio", _ratio(sc["srv.rejected"], sc["srv.submitted"])))
    out.append(Metric("srv.backlog_max", "count", max(max(r["backlog"]) for r in rungs),
                      note=f"at {nominal['rate']:g} req/s"))
    out.append(Metric("gen.lag_ms.p99", "ms", stats.percentile(lag, 99.0), lag))
    for rung in raw["serve"]:
        if rung["leg"] != "ladder":
            continue
        lat = _rung_latencies(rung)
        p99 = stats.percentile(lat, 99.0)
        grows = stats.backlog_grows(rung["backlog"])
        out.append(Metric(f"ladder.{int(rung['rate'])}.p99_ms", "ms", p99, lat,
                          "backlog grows" if grows else ""))
    ops = len(good)
    op_time = sum(service) * 1e-3
    return out, ops, op_time


def _overhead(raw):
    s = raw["samples"]
    if raw["workload"] == "serve":
        plain = stats.percentile(_rung_latencies(_nominal(raw)), 50.0)
        traced = stats.percentile(_rung_latencies(_nominal(raw, traced=True)), 50.0)
        return _ratio(traced, plain)
    return _ratio(stats.median(s["pass_traced_s"]), stats.median(s["pass_s"]))


def _probes(raw):
    s = raw["samples"]
    out = []
    for name in ("sched.fork_join_us", "sched.task_wait_us", "sched.nested4_us"):
        out.append(Metric(f"{name}.p50", "us", stats.median(s[name]), s[name]))
        out.append(Metric(f"{name}.max", "us", max(s[name]), note="worst case"))
    for name in ("sched.null_task_ns", "sched.fib_task_ns", "deque.push_pop_ns",
                 "deque.steal_ns", "ws.range_ns_per_iter", "dep.edge_ns"):
        out.append(_from_samples(name, "ns", s[name]))
    return out


def span_summary(raw):
    """(name, count, total_s, self_s) per span name: self time is a span's
    duration minus the part of it its child spans cover."""
    spans = raw.get("spans", [])
    children = {}
    for i, sp in enumerate(spans):
        if sp["parent"] >= 0:
            children.setdefault(sp["parent"], []).append(i)
    table = {}
    for i, sp in enumerate(spans):
        dur = sp["end_ns"] - sp["start_ns"]
        covered, last = 0, sp["start_ns"]
        for c in sorted(children.get(i, []), key=lambda j: spans[j]["start_ns"]):
            a = max(spans[c]["start_ns"], last)
            b = min(spans[c]["end_ns"], sp["end_ns"])
            if b > a:
                covered += b - a
                last = b
        row = table.setdefault(sp["name"], [0, 0, 0])
        row[0] += 1
        row[1] += dur
        row[2] += dur - covered
    return sorted(((k, v[0], v[1] * 1e-9, v[2] * 1e-9) for k, v in table.items()),
                  key=lambda r: -r[2])
