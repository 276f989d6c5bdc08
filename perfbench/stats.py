"""Statistics for perfbench: percentiles, span self times and op latency.

Kept free of I/O so perfbench/tests/test_stats.py can check each rule on
hand-made inputs.
"""

import math

# The tail percentile is the highest one with at least this many samples
# beyond it, capped at p99.
TAIL_SAMPLES_BEYOND = 10
TAIL_CAP = 0.99

KERNEL_LINE = "gpusim.kernel"
UNATTRIBUTED = "unattributed"


def percentiles(values):
    """Median and tail of `values` (failed ops enter as math.inf).

    Returns (median, tail, tail_pct, n). The tail is the sample at rank
    k = min(n - 10, ceil(0.99 n)) (1-based, ascending): the highest
    percentile with at least ten samples beyond it, capped at p99, and
    never below the median. With fewer than 11 samples no percentile has
    ten beyond it and the tail falls back to the median (tail_pct 50).
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return (math.nan, math.nan, 0.0, 0)
    median = _median(xs)
    if n <= TAIL_SAMPLES_BEYOND:
        return (median, median, 50.0, n)
    k = min(n - TAIL_SAMPLES_BEYOND, math.ceil(TAIL_CAP * n))
    k = max(k, n // 2 + 1)
    return (median, xs[k - 1], 100.0 * k / n, n)


def _median(xs):
    n = len(xs)
    mid = n // 2
    if n % 2:
        return xs[mid]
    a, b = xs[mid - 1], xs[mid]
    if math.isinf(a) or math.isinf(b):
        return max(a, b)
    return (a + b) / 2.0


def op_latency_us(op):
    """Latency of one op from its intended send time.

    An open-loop generator that runs late sends after the intended time;
    timing from the intended send charges that delay to the op instead of
    hiding it. A failed or rejected op is over any latency limit: inf.
    """
    if not op["ok"]:
        return math.inf
    return op["done"] - op["intended"]


def closed_slices(ops, per_slice):
    """A closed loop's ops in id order, cut into whole slices of
    `per_slice` ops; a short last slice is dropped unless it is the only
    one."""
    ops = sorted(ops, key=lambda o: o["id"])
    full = len(ops) // per_slice
    if full == 0:
        return [ops] if ops else []
    return [ops[k * per_slice:(k + 1) * per_slice] for k in range(full)]


def open_slices(ops, marks):
    """An open loop's jobs grouped by the schedule slice their intended
    send falls in, each with the process CPU time spent over the slice.

    `marks` are (time, cpu) pairs: one at the first arrival of each slice
    and one after the last job was done. Returns [(ops, cpu_us)].
    """
    marks = sorted(marks)
    out = []
    for k in range(len(marks) - 1):
        lo, hi = marks[k][0], marks[k + 1][0]
        last = k == len(marks) - 2
        inside = [o for o in ops if lo <= o["intended"] and (last or o["intended"] < hi)]
        out.append((inside, marks[k + 1][1] - marks[k][1]))
    return out


def median_ratio(pairs):
    """Median of a / b over the (a, b) pairs with both positive: the
    per-slice rate, robust to the few slices a noisy neighbour slowed."""
    rates = sorted(a / b for a, b in pairs if a > 0 and b > 0)
    return _median(rates) if rates else math.nan


def cover(intervals, lo, hi):
    """Length of the union of `intervals`, each clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Self time of every span: its duration minus its children's cover.

    `spans` is a list of dicts with id, parent, start, end. Overlapping
    children are counted once (their union), so a parent's self time is
    never negative.
    """
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        kids = [(c["start"], c["end"]) for c in children.get(s["id"], [])]
        out[s["id"]] = (s["end"] - s["start"]) - cover(kids, s["start"], s["end"])
    return out


def op_breakdown(spans):
    """Per-op wall split into layer lines plus an explicit unattributed line.

    `spans` are one op's spans; exactly one has parent 0 (the op itself).
    Each non-root span contributes its self time under its name; a span
    that reports `kernel_us` (the simulated kernel wall its call returned)
    has that much of its self time moved to the gpusim.kernel line. The
    root's self time is the unattributed line. Returns (lines, wall,
    residual) where residual = wall - sum(lines): zero unless sibling
    spans overlap (their shared time is then counted twice).
    """
    roots = [s for s in spans if s["parent"] == 0]
    if len(roots) != 1:
        raise ValueError("an op needs exactly one root span")
    root = roots[0]
    selfs = self_times(spans)
    lines = {}
    for s in spans:
        if s is root:
            continue
        own = selfs[s["id"]]
        kernel = min(max(s["args"].get("kernel_us", 0.0), 0.0), own)
        if kernel > 0.0:
            lines[KERNEL_LINE] = lines.get(KERNEL_LINE, 0.0) + kernel
        lines[s["name"]] = lines.get(s["name"], 0.0) + own - kernel
    lines[UNATTRIBUTED] = selfs[root["id"]]
    wall = root["end"] - root["start"]
    return lines, wall, wall - sum(lines.values())

