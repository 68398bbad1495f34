"""Host fingerprint saved with every perfbench result.

Two results are comparable only when their fingerprints agree on every
field in COMPARED. The load average and the CPU steal share during the run
are recorded for the reader but not compared, since they differ between any
two runs.
"""

import os
from pathlib import Path

COMPARED = ("nproc", "cpu_model", "governor", "build_type", "env")


def _read(path, default="unknown"):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return default


def _cpu_model():
    for line in _read("/proc/cpuinfo", "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return "unknown"


def fingerprint(build_type):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "governor": _read("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor"),
        "loadavg": list(os.getloadavg()),
        "build_type": build_type,
        "env": {k: v for k, v in sorted(os.environ.items())
                if k.startswith(("RT_", "BOTS_"))},
    }


def cpu_ticks():
    """(steal, total) CPU ticks of the whole machine so far, from /proc/stat;
    (0, 0) where it is unavailable."""
    fields = _read("/proc/stat", "").split("\n", 1)[0].split()
    if len(fields) < 9 or fields[0] != "cpu":
        return 0, 0
    ticks = [int(x) for x in fields[1:9]]  # user .. steal
    return ticks[7], sum(ticks)


def steal_share(before, after):
    """Share of CPU time the hypervisor took from this machine between two
    cpu_ticks() readings: a host-noise indicator saved with each result."""
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0


def mismatches(a, b):
    """Fields of COMPARED on which two fingerprints differ."""
    return [k for k in COMPARED if a.get(k) != b.get(k)]
