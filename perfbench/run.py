#!/usr/bin/env python3
"""perfbench: the repository benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload fig3 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20
    python3 perfbench/run.py --compare A.json B.json

The first call configures and builds perfbench/ (runtime and kernels from
src/) into .bench_build/perfbench. Each run prints a report, then one JSON
line: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the BENCHMARK.json end-to-end set, with --trace 1 its per-layer
set. Every result is also saved, with the host fingerprint, under
.bench_results/. The exit code is non-zero when any check failed.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import host
import metrics

WORKLOADS = ("fig3", "fine-grain", "dataflow", "serve")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RESULTS_DIR = ROOT / ".bench_results"
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally. Returns the binary path."""
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            raise SystemExit(f"perfbench: build failed: {' '.join(cmd)}")
    return BUILD_DIR / "perfbench"


def run_binary(binary, workload, seed, seconds, trace):
    trace = int(trace)
    raw_dir = BUILD_DIR / "raw"
    raw_dir.mkdir(parents=True, exist_ok=True)
    out = raw_dir / f"{workload}-s{seed}-t{trace}.json"
    if out.exists():
        out.unlink()
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(out)]
    try:
        r = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: {workload} did not finish in {RUN_TIMEOUT_S} s")
    if r.returncode != 0 or not out.exists():
        raise SystemExit(f"perfbench: {workload} exited with {r.returncode}")
    return json.loads(out.read_text())


def _jsonable(v):
    return None if isinstance(v, float) and (math.isnan(v) or math.isinf(v)) else v


def report(raw, trace, steal):
    """Prints the named metrics; returns the BENCHMARK.json metric dict."""
    wl = raw["workload"]
    print(f"== {wl}  seed={raw['seed']}  seconds={raw['seconds']:g}  "
          f"threads={raw['threads']}  trace={int(trace)}  host steal={steal:.3f}")
    c = raw["checks"]
    for f in c["failures"]:
        print(f"FAILED CHECK: {f}")
    if not trace:
        for m in metrics.end_to_end(raw):
            print(m.row())
        return {k: {"value": v, "unit": u} for k, (v, u) in metrics.gated_end_to_end(raw).items()}
    named, absent, gated = metrics.per_layer(raw)
    for m in named:
        print(m.row())
    for names, why in absent:
        print(f"absent: {names}: {why}")
    print("spans (benchmark-side, self time = duration minus child spans):")
    for name, count, total, self_s in metrics.span_summary(raw)[:25]:
        print(f"  {name:<28s} n={count:<6d} total={total:9.4f} s  self={self_s:9.4f} s")
    units = dict(metrics.PER_LAYER)
    return {k: {"value": gated[k], "unit": units[k]} for k, _ in metrics.PER_LAYER}


def save(result, name):
    RESULTS_DIR.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = RESULTS_DIR / f"{stamp}-{name}.json"
    path.write_text(json.dumps(result, default=_jsonable, indent=1))
    log(f"result saved to {path.relative_to(ROOT)}")


def run_one(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (raw document, JSON line, steal share)."""
    ticks = host.cpu_ticks()
    raw = run_binary(binary, workload, seed, seconds, trace)
    steal = host.steal_share(ticks, host.cpu_ticks())
    gated = report(raw, trace, steal)
    c = raw["checks"]
    return raw, {"correct": c["failed"] == 0, "attempted": c["attempted"],
                 "failed": c["failed"], "metrics": gated}, steal


def run_all(binary, seed, seconds):
    """All four workloads; the last line carries the end-to-end metrics by
    the names of README.md (fail_ratio over every operation)."""
    named, attempted, failed, setup = {}, 0, 0, 0.0
    for wl in WORKLOADS:
        raw, line, _ = run_one(binary, wl, seed, seconds, False)
        attempted += line["attempted"]
        failed += line["failed"]
        for m in metrics.end_to_end(raw):
            if m.name == "setup_s":
                setup += m.value
            elif m.name != "fail_ratio" and (wl == "fig3" or m.name not in named):
                named[m.name] = {"value": _jsonable(m.value), "unit": m.unit, "workload": wl}
    named["setup_s"] = {"value": setup, "unit": "s", "workload": "all (sum)"}
    named["fail_ratio"] = {"value": failed / attempted, "unit": "ratio", "workload": "all"}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": named}


def compare(path_a, path_b):
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    bad = host.mismatches(a["host"], b["host"])
    if bad:
        print(f"refusing to compare: host fingerprints differ in {', '.join(bad)}")
        return 2
    for name, ma in a["line"]["metrics"].items():
        mb = b["line"]["metrics"].get(name)
        if mb is None or not ma["value"]:
            continue
        print(f"{name:<30s} {ma['value']:>12.6g} -> {mb['value']:<12.6g} {ma['unit']:<6s} "
              f"({mb['value'] / ma['value'] - 1:+.1%})")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.workload is None or args.seed is None or args.seed < 0:
        ap.error("--workload and a non-negative --seed are required")
    fp = host.fingerprint(BUILD_TYPE)
    binary = build()
    steal = None
    if args.workload == "all":
        line = run_all(binary, args.seed, args.seconds)
    else:
        _, line, steal = run_one(binary, args.workload, args.seed, args.seconds,
                                 bool(args.trace))
    name = f"{args.workload}-s{args.seed}-t{args.trace}"
    save({"host": fp, "steal_share": steal, "workload": args.workload, "seed": args.seed,
          "seconds": args.seconds, "trace": args.trace, "line": line}, name)
    print(json.dumps(line, default=_jsonable))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
