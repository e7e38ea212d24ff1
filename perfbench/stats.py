"""Statistics shared by run.py and its tests.

Percentiles interpolate linearly between closest ranks (the rule
hsi-loadgen and numpy's default use). A workload's tail percentile is the
highest rung of LADDER that leaves at least TAIL_BEYOND samples above it at
the workload's nominal slice size; it is fixed per workload, never
re-chosen from a run's actual count, so a faster build cannot move the
goalposts.
"""

import statistics

# Rungs in per-mille so the "samples beyond" test is exact integer math.
LADDER_PERMILLE = (500, 750, 900, 950, 980, 990, 995, 999)
TAIL_BEYOND = 10


def percentile(values, p):
    """p-th percentile (0..100) of `values`, linear between ranks."""
    if not values:
        raise ValueError("percentile of no samples")
    xs = sorted(values)
    rank = p / 100.0 * (len(xs) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def tail_percentile(n):
    """Highest ladder percentile with >= TAIL_BEYOND of n samples above it."""
    best = LADDER_PERMILLE[0]
    for pm in LADDER_PERMILLE:
        if n * (1000 - pm) >= TAIL_BEYOND * 1000:
            best = pm
    return best / 10.0


def sliced_tail(samples, slice_n):
    """Tail latency of `samples` (in send order): the tail_percentile of
    each consecutive slice of slice_n samples, median over the full slices.
    One host stall then moves one slice, not the run's figure. Fewer than
    slice_n samples form a single slice."""
    p = tail_percentile(slice_n)
    slices = [samples[i:i + slice_n]
              for i in range(0, len(samples) - slice_n + 1, slice_n)]
    if not slices:
        slices = [samples]
    return statistics.median(percentile(s, p) for s in slices), p


def overhead_ms(latency_ms, queue_ms, run_ms):
    """Client-observed time outside the serving worker: what the wire, the
    front door and (when sharded) the router hop add to one request."""
    return latency_ms - (queue_ms + run_ms)


def self_time(span, children):
    """Span duration minus the part of it its children cover (guide rule:
    overlapping children are counted once)."""
    start, end = span
    covered = 0.0
    cursor = start
    for c_start, c_end in sorted(children):
        c_start, c_end = max(c_start, cursor), min(c_end, end)
        if c_end > c_start:
            covered += c_end - c_start
            cursor = c_end
    return (end - start) - covered
