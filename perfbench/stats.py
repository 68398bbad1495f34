"""Statistics used by every perfbench metric.

Kept free of I/O so perfbench/test_stats.py can check it in isolation:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import math
import statistics

# A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10

# Percentiles tried, highest first, when a metric asks for the highest one
# that can be reported.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def median(xs):
    return statistics.median(xs)


def quartiles(xs):
    """First and third quartile as statistics.quantiles(n=4) gives them.

    With a single sample both quartiles are that sample.
    """
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def spread(xs):
    """Inter-quartile distance as a share of the median (0 for one sample)."""
    q1, q3 = quartiles(xs)
    m = median(xs)
    return (q3 - q1) / m if m else 0.0


def percentile(xs, p):
    """Nearest-rank p-th percentile, or None when fewer than MIN_BEYOND
    samples lie above it.

    Infinite samples (failed or refused requests) sort last, so they count
    as beyond any finite percentile and can become the percentile itself.
    """
    n = len(xs)
    if n == 0:
        return None
    rank = max(1, math.ceil(p / 100.0 * n))  # 1-based nearest rank
    if n - rank < MIN_BEYOND:
        return None
    return sorted(xs)[rank - 1]


def highest_percentile(xs, candidates=TAIL_CANDIDATES):
    """(p, value) for the highest candidate percentile that can be reported;
    (None, None) when not even the median has MIN_BEYOND samples above it."""
    for p in candidates:
        v = percentile(xs, p)
        if v is not None:
            return p, v
    return None, None


def geomean(xs):
    xs = list(xs)
    if not xs or any(x <= 0 for x in xs):
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def backlog_grows(backlog, min_growth=5):
    """True when the in-flight count keeps rising across a rung.

    `backlog` is sampled at every arrival. A rung the server keeps up with
    fluctuates around a level; an overloaded one climbs. The rung is
    growing when the mean of its last quarter exceeds the mean of its first
    quarter by more than the first quarter's mean and by at least
    `min_growth` requests.
    """
    n = len(backlog)
    if n < 8:
        return False
    q = n // 4
    first = sum(backlog[:q]) / q
    last = sum(backlog[-q:]) / q
    return last - first > max(first, min_growth)


def max_rate(rungs, limit_ms):
    """Highest offered rate whose p99 latency meets `limit_ms` without a
    growing backlog, or None when no rung qualifies.

    `rungs` holds (rate, latencies_ms, backlog) per rung; failed requests
    carry an infinite latency, so they count as misses.
    """
    best = None
    for rate, lat, backlog in rungs:
        p99 = percentile(lat, 99.0)
        if p99 is None or p99 > limit_ms or backlog_grows(backlog):
            continue
        best = rate if best is None else max(best, rate)
    return best
