#!/usr/bin/env python3
"""perfbench: the repository's end-to-end benchmark.

    python3 perfbench/run.py --workload <field_bulk|tenant_mix|archive_rw>
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds the runner (perfbench/CMakeLists.txt)
into .bench_build/ on first use, runs one workload, checks every output,
prints each metric by name with its unit and sample count, and ends with
one JSON line: {"correct", "attempted", "failed", "metrics"}. --trace 0
reports the end-to-end metrics; --trace 1 the per-layer ones, from spans
the runner records around each call into a layer. Exit status is 0 only
when every output check passed. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
RUNNER = os.path.join(BUILD_DIR, "perfbench_runner")
RUN_TIMEOUT_S = 170

# Process-shared gpusim pool size per workload (CUSZP2_WORKERS). One
# worker: a single busy thread per closed loop, so an op's process CPU time
# is its own work (no worker spins on a preempted predecessor tile).
POOL_WORKERS = {"field_bulk": 1, "tenant_mix": 1, "archive_rw": 1}
# Closed loops run pinned to one CPU: one thread works at a time (the
# caller, or the pool worker while the caller waits), so the two always
# share a core's caches instead of wherever the scheduler put them.
PINNED = {"field_bulk", "archive_rw"}
# The traced field_bulk run repeats its pairs on this many workers for
# gpusim.speedup_4w and the scan lookback metrics.
SPEEDUP_POOL = 4

WRITE_KINDS = ("compress", "put")
READ_KINDS = ("decompress", "get", "get_range")

# Times in these are CPU time of the process (see README.md, "Why CPU
# time"), except the open loop's arrival window.
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "compress_gbps": "GB/s",
    "decompress_gbps": "GB/s",
    "ratio": "x",
    "cpu_gbps": "GB/s",
    "goodput_gbps": "GB/s",
    "stored_ratio": "x",
}

# Wall-clock latencies, printed on every --trace 0 run but left out of
# BENCHMARK.json: on a shared host they move with the CPU time the
# hypervisor and other processes take, by more than any bound the benchmark
# may set (see README.md, "Steadiness").
UNBOUNDED_UNITS = {
    "job_p50_ms": "ms", "job_p99_ms": "ms",
    "put_p50_ms": "ms", "put_p99_ms": "ms",
    "get_p50_ms": "ms", "get_p99_ms": "ms",
}

PER_LAYER_UNITS = {
    "core.compress.host_ms": "ms",
    "core.decompress.host_ms": "ms",
    "gpusim.compress.kernel_ms": "ms",
    "gpusim.decompress.kernel_ms": "ms",
    "gpusim.speedup_4w": "x",
    "scan.lookback_depth_avg": "tiles",
    "scan.wait_spins": "count",
    "gpusim.bytes_moved_per_byte": "B/B",
    "gpusim.modelled_gbps": "GB/s",
    "core.arena_slab_allocs": "count",
    "cluster.submit_us": "us",
    "service.wait_ms.p50": "ms",
    "service.wait_ms.p99": "ms",
    "service.run_ms.p50": "ms",
    "service.host_ms": "ms",
    "gpusim.job_kernel_ms": "ms",
    "service.batch_jobs_mean": "jobs",
    "service.busy_frac": "frac",
    "service.retries": "count",
    "service.rejected": "count",
    "cluster.failovers": "count",
    "gen.late_ms.p99": "ms",
    "core.v3.kernel_ms": "ms",
    "core.v3.host_ms": "ms",
    "cas.put_ms": "ms",
    "io.journal.records_per_put": "count",
    "cas.dedup_hit_frac": "frac",
    "cas.get_ms": "ms",
    "core.decompress_ms": "ms",
    "core.range_decode_ms": "ms",
    "cas.recover_ms": "ms",
    "trace.overhead_frac": "frac",
    "trace.unattributed_frac": "frac",
}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources next to perfbench/ (run from a full checkout)")
    cmds = [
        ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR],
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench_runner",
         "-j", str(os.cpu_count() or 4)],
    ]
    for cmd in cmds:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))


def run_runner(workload, seed, seconds, trace, pool, tag, extra=()):
    out_dir = os.path.join(BUILD_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    base = os.path.join(out_dir, "%s-%d-%s" % (workload, seed, tag))
    cmd = [RUNNER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out", base + ".json", "--work-dir", base + ".work"]
    if trace:
        cmd += ["--trace-out", base + ".trace.json"]
    cmd += list(extra)
    env = dict(os.environ, CUSZP2_WORKERS=str(pool))
    cpus = sorted(os.sched_getaffinity(0))
    pin = workload in PINNED and pool == 1 and len(cpus) > 1
    try:
        done = subprocess.run(
            cmd, env=env, timeout=RUN_TIMEOUT_S, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
            preexec_fn=(lambda: os.sched_setaffinity(0, {cpus[-1]})) if pin else None)
    except subprocess.TimeoutExpired:
        fail("%s runner timed out" % workload)
    sys.stderr.write(done.stderr)
    if not os.path.isfile(base + ".json"):
        fail("%s runner exited %d without results" % (workload, done.returncode))
    with open(base + ".json") as f:
        result = json.load(f)
    result["exit_code"] = done.returncode
    result["spans"] = []
    if trace:
        with open(base + ".trace.json") as f:
            for e in json.load(f)["traceEvents"]:
                a = e["args"]
                result["spans"].append({
                    "id": a["span"], "parent": a["parent"], "op": a["op"],
                    "name": e["name"], "start": e["ts"],
                    "end": e["ts"] + e["dur"], "args": a})
    keys = ("id", "kind", "intended", "sent", "done", "orig", "stream", "ok",
            "traced", "cpu")
    result["ops"] = [dict(zip(keys, row)) for row in result["ops"]]
    for op in result["ops"]:
        op["ok"] = bool(op["ok"])
        op["traced"] = bool(op["traced"])
    return result


# ---- end-to-end -----------------------------------------------------------

def window_gbps(result, ops):
    """Open loop: original bytes of `ops` completed inside the arrival
    window over its length, GB/s. Returns (value, note)."""
    c = result["counters"]
    lo, hi = c["window.start_us"], c["window.end_us"]
    done = sum(o["orig"] for o in ops if o["ok"] and lo <= o["done"] <= hi)
    return done / ((hi - lo) * 1e3), "window %.2f s" % ((hi - lo) / 1e6)


def slices(result, kinds=None):
    """[(original bytes, CPU us)] per slice of the window, over the ops of
    `kinds` (all ops when None). A closed loop's slices are runs of
    consecutive ops and their own CPU time; an open loop's are seconds of
    its schedule and the process CPU time over each (all kinds at once)."""
    ops = result["ops"]
    c = result["counters"]
    if "window.start_us" in c:
        assert kinds is None, "an open loop's CPU time is not split by kind"
        return [(sum(o["orig"] for o in inside), cpu)
                for inside, cpu in stats.open_slices(ops, result["cpu_marks"])]
    out = []
    for chunk in stats.closed_slices(ops, int(c["ops_per_slice"])):
        sel = [o for o in chunk if kinds is None or o["kind"] in kinds]
        out.append((sum(o["orig"] for o in sel), sum(o["cpu"] for o in sel)))
    return out


def throughput_gbps(result, ops, kinds):
    """Original bytes of the `kinds` ops per second, GB/s. A closed loop's
    seconds are the process CPU time spent inside the ops: the median over
    the window's slices of bytes / CPU time (a failed op makes the value
    0). An open loop's are the arrival window: the schedule, not the ops,
    sets it, so the bytes are those of the ops completed inside it."""
    if "window.start_us" in result["counters"]:
        return window_gbps(result, ops)[0]
    if not all(o["ok"] for o in ops):
        return 0.0
    return stats.median_ratio(slices(result, kinds)) / 1e3


def goodput_gbps(result):
    """Open loop: as window_gbps over all ops. Closed loop: the median over
    the window's slices of the original bytes of all ops over the process
    CPU time spent inside them (0 if any op failed its checks); the
    benchmark's own output checks between ops do not count."""
    ops = result["ops"]
    if "window.start_us" in result["counters"]:
        return window_gbps(result, ops)
    if not all(o["ok"] for o in ops):
        return 0.0, "an op failed"
    per = slices(result)
    return stats.median_ratio(per) / 1e3, "per CPU s, median of %d slices" % len(per)


def cpu_gbps(result):
    """Original bytes of all ops per second of process CPU time, GB/s: the
    median over the window's slices. On the open loop the CPU time is
    every layer's work for the slice's jobs, generator and collector
    wake-ups included; on a closed loop it is the ops' own."""
    per = slices(result)
    return stats.median_ratio(per) / 1e3, "n=%d, median of %d slices" % (
        len(result["ops"]), len(per))


def end_to_end(result):
    """Returns {name: (value, note)}; note carries the sample count."""
    ops = result["ops"]
    writes = [o for o in ops if o["kind"] in WRITE_KINDS]
    reads = [o for o in ops if o["kind"] in READ_KINDS]
    m = {}
    setups = result["setup_cpu_s"]
    m["setup_s"] = (statistics.median(setups), "CPU, median of %d (wall %.3f s)" % (
        len(setups), statistics.median(result["setup_s"])))
    m["peak_rss_mb"] = (result["peak_rss_mb"], "")
    m["compress_gbps"] = (throughput_gbps(result, writes, WRITE_KINDS),
                          "n=%d" % len(writes))
    m["decompress_gbps"] = (throughput_gbps(result, reads, READ_KINDS),
                            "n=%d" % len(reads))
    written = sum(o["stream"] for o in writes)
    ratio = sum(o["orig"] for o in writes) / written if written else 0.0
    m["ratio"] = (ratio, "n=%d" % len(writes))
    for prefix, group in (("job", ops), ("put", writes), ("get", reads)):
        p50, tail, pct, n = stats.percentiles(
            [stats.op_latency_us(o) for o in group])
        m[prefix + "_p50_ms"] = (p50 / 1e3, "n=%d" % n)
        m[prefix + "_p99_ms"] = (tail / 1e3, "p%.1f, n=%d" % (pct, n))
    m["goodput_gbps"] = goodput_gbps(result)
    m["cpu_gbps"] = cpu_gbps(result)
    c = result["counters"]
    if c.get("store.physical_bytes"):
        m["stored_ratio"] = (c["store.original_bytes"] / c["store.physical_bytes"],
                             "store")
    else:
        m["stored_ratio"] = (ratio, "no store: equals ratio")
    return m


# ---- per-layer ------------------------------------------------------------

def mean(xs):
    return sum(xs) / len(xs) if xs else 0.0


def per_layer(result, pool4=None):
    spans = result["spans"]
    ops = {o["id"]: o for o in result["ops"]}
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def dur_ms(name):
        return mean([(s["end"] - s["start"]) / 1e3 for s in by_name.get(name, [])])

    def host_ms(name):
        return mean([(s["end"] - s["start"] - s["args"].get("kernel_us", 0.0)) / 1e3
                     for s in by_name.get(name, [])])

    def arg(name, key):
        return [s["args"][key] for s in by_name.get(name, []) if key in s["args"]]

    kernel_spans = [s for s in spans if "kernel_us" in s["args"]]
    write_k = [s for s in kernel_spans if ops[s["op"]]["kind"] in WRITE_KINDS]
    read_k = [s for s in kernel_spans if ops[s["op"]]["kind"] in READ_KINDS]
    # Lookback needs several workers: field_bulk takes it from its
    # 4-worker pass.
    scanned = [s for s in pool4["spans"] if s["name"] == "core.compress"] \
        if pool4 else write_k
    synced = [s for s in scanned if s["args"].get("tiles", 0) > 0]
    modelled = [s for s in kernel_spans if s["args"].get("modelled_s", 0) > 0]
    c = result["counters"]
    m = {}
    m["core.compress.host_ms"] = host_ms("core.compress")
    m["core.decompress.host_ms"] = host_ms("core.decompress")
    m["gpusim.compress.kernel_ms"] = mean([s["args"]["kernel_us"] / 1e3 for s in write_k])
    m["gpusim.decompress.kernel_ms"] = mean([s["args"]["kernel_us"] / 1e3 for s in read_k])
    m["gpusim.speedup_4w"] = speedup(pool4, result) if pool4 else 0.0
    tiles = sum(s["args"]["tiles"] for s in synced)
    m["scan.lookback_depth_avg"] = (
        sum(s["args"]["lookback_steps"] for s in synced) / tiles if tiles else 0.0)
    m["scan.wait_spins"] = mean([s["args"]["wait_spins"] for s in synced])
    orig = sum(ops[s["op"]]["orig"] for s in kernel_spans)
    m["gpusim.bytes_moved_per_byte"] = (
        sum(s["args"]["mem_bytes"] for s in kernel_spans) / orig if orig else 0.0)
    seconds = sum(s["args"]["modelled_s"] for s in modelled)
    m["gpusim.modelled_gbps"] = (
        sum(ops[s["op"]]["orig"] for s in modelled) / seconds / 1e9 if seconds else 0.0)
    m["core.arena_slab_allocs"] = c.get("core.arena_slab_allocs", 0.0)
    m["cluster.submit_us"] = dur_ms("cluster.submit") * 1e3
    wait_p50, wait_tail, _, _ = stats.percentiles(arg("service.wait", "wait_us"))
    m["service.wait_ms.p50"] = _nan0(wait_p50) / 1e3
    m["service.wait_ms.p99"] = _nan0(wait_tail) / 1e3
    m["service.run_ms.p50"] = _nan0(stats.percentiles(arg("service.run", "service_us"))[0]) / 1e3
    m["service.host_ms"] = mean([(s["args"]["service_us"] - s["args"]["kernel_us"]) / 1e3
                                 for s in by_name.get("service.run", [])])
    m["gpusim.job_kernel_ms"] = mean([k / 1e3 for k in arg("service.run", "kernel_us")])
    m["service.batch_jobs_mean"] = mean(arg("service.run", "batch_jobs"))
    m["service.busy_frac"] = max(
        (v for k, v in c.items() if k.startswith("shard") and k.endswith(".busy_frac")),
        default=0.0)
    m["service.retries"] = c.get("service.retries", 0.0)
    m["service.rejected"] = c.get("service.rejected", 0.0)
    m["cluster.failovers"] = c.get("cluster.failovers", 0.0)
    late = [(s["end"] - s["start"]) / 1e3 for s in by_name.get("gen.late", [])]
    m["gen.late_ms.p99"] = _nan0(stats.percentiles(late)[1])
    m["core.v3.kernel_ms"] = mean([k / 1e3 for k in arg("core.v3.compress", "kernel_us")])
    m["core.v3.host_ms"] = host_ms("core.v3.compress")
    m["cas.put_ms"] = dur_ms("cas.put")
    puts = c.get("cas.puts", 0.0)
    m["io.journal.records_per_put"] = c.get("io.journal.records", 0.0) / puts if puts else 0.0
    looked = c.get("cas.chunk_hits", 0.0) + c.get("cas.chunk_misses", 0.0)
    m["cas.dedup_hit_frac"] = c.get("cas.chunk_hits", 0.0) / looked if looked else 0.0
    m["cas.get_ms"] = dur_ms("cas.get")
    m["core.decompress_ms"] = dur_ms("core.decompress")
    m["core.range_decode_ms"] = dur_ms("core.range_decode")
    m["cas.recover_ms"] = c.get("cas.recover_ms", 0.0)
    m["trace.overhead_frac"] = trace_overhead(result["ops"])
    breakdown = breakdowns(result)
    wall = sum(b[1] for b in breakdown.values())
    m["trace.unattributed_frac"] = (
        sum(b[0][stats.UNATTRIBUTED] for b in breakdown.values()) / wall if wall else 0.0)
    return m, breakdown


def _nan0(x):
    """0 for a statistic with no samples (a layer the workload bypasses).
    An infinite statistic (failed ops) stays infinite."""
    return 0.0 if math.isnan(x) else x


def _json_number(x):
    """A metric value for the result line: JSON has no infinity, so a
    non-finite value (failed ops in a latency statistic) becomes null,
    never a number that reads as a good result."""
    return x if math.isfinite(x) else None


def breakdowns(result):
    per_op = {}
    for s in result["spans"]:
        per_op.setdefault(s["op"], []).append(s)
    return {op: stats.op_breakdown(spans) for op, spans in per_op.items()}


CALLS = ("core.compress", "core.decompress")


def call_us_per_byte(result, names, part, field):
    """Traced call time per original byte on one field: the whole call
    ("wall"), its kernel_us ("kernel"), or the rest ("host")."""
    ops = {o["id"]: o for o in result["ops"]}
    calls = [s for s in result["spans"]
             if s["name"] in names and s["args"].get("field") == field]
    if not calls:
        return 0.0
    wall = sum(s["end"] - s["start"] for s in calls)
    kernel = sum(s["args"].get("kernel_us", 0.0) for s in calls)
    spent = {"wall": wall, "kernel": kernel, "host": wall - kernel}[part]
    return spent / sum(ops[s["op"]]["orig"] for s in calls)


def field_speedups(four, one, names=CALLS, part="wall"):
    """{field: 1-worker time per byte / 4-worker time per byte}, each field
    compared with itself: the pool = 4 pass traces every pair of its
    rounds, the pool = 1 run a seeded half of the pairs in its window."""
    fields = sorted({s["args"]["field"] for s in four["spans"] if "field" in s["args"]})
    out = {}
    for f in fields:
        t4 = call_us_per_byte(four, names, part, f)
        out[f] = call_us_per_byte(one, names, part, f) / t4 if t4 else 0.0
    return out


def speedup(four, one, names=CALLS, part="wall"):
    """Mean of the per-field speedups, so each dataset weighs the same
    whatever its per-byte cost."""
    return mean(list(field_speedups(four, one, names, part).values()))


def print_speedups(four, one):
    names = {int(v): k.split(".", 1)[1] for k, v in one["counters"].items()
             if k.startswith("dataset.")}
    print("speedup of the traced calls from a 1-worker to a 4-worker pool "
          "(call / kernel / host):")
    for name in CALLS:
        parts = [field_speedups(four, one, (name,), part)
                 for part in ("wall", "kernel", "host")]
        print("  %-16s mean %.3fx / %.3fx / %.3fx" % tuple(
            [name] + [mean(list(p.values())) for p in parts]))
        for f in sorted(parts[0]):
            print("    %-14s %.3fx / %.3fx / %.3fx" % tuple(
                [names.get(f, str(f))] + [p[f] for p in parts]))


def trace_overhead(ops):
    """Traced minus untraced mean op latency, per op kind, weighted by the
    traced ops' count, over the untraced mean. Ops are assigned to the two
    sides by a seeded coin, so both sides see the same input mix."""
    diff = base = 0.0
    for kind in {o["kind"] for o in ops}:
        t = [stats.op_latency_us(o) for o in ops if o["kind"] == kind and o["traced"] and o["ok"]]
        u = [stats.op_latency_us(o) for o in ops if o["kind"] == kind and not o["traced"] and o["ok"]]
        if t and u:
            diff += len(t) * (mean(t) - mean(u))
            base += len(t) * mean(u)
    return diff / base if base else 0.0


def print_breakdown(result, breakdown):
    kinds = {o["id"]: o["kind"] for o in result["ops"]}
    worst = max((abs(b[2]) for b in breakdown.values()), default=0.0)
    print("per-op wall split (mean ms per traced op; self times + unattributed = wall):")
    for kind in sorted({kinds[op] for op in breakdown}):
        rows = [b for op, b in breakdown.items() if kinds[op] == kind]
        lines = {}
        for b in rows:
            for k, v in b[0].items():
                lines[k] = lines.get(k, 0.0) + v
        wall = sum(b[1] for b in rows)
        parts = ", ".join("%s %.3f" % (k, v / len(rows) / 1e3)
                          for k, v in sorted(lines.items(), key=lambda kv: -kv[1]))
        print("  %-10s n=%-5d wall %.3f = %s" % (kind, len(rows), wall / len(rows) / 1e3, parts))
    print("  largest |wall - sum of lines| over all ops: %.3g us" % worst)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(POOL_WORKERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative")

    build()
    pool = POOL_WORKERS[args.workload]
    result = run_runner(args.workload, args.seed, args.seconds, args.trace, pool, "main")
    runs = [result]
    pool4 = None
    if args.trace and args.workload == "field_bulk":
        # The traced compress/decompress pairs again on a 4-worker pool:
        # gpusim.speedup_4w = 1-worker call time / 4-worker call time.
        pool4 = run_runner(args.workload, args.seed, args.seconds, True,
                           SPEEDUP_POOL, "pool4",
                           ["--pair-rounds", "2", "--setups", "1"])
        runs.append(pool4)

    attempted = len(result["ops"])
    failed = sum(1 for o in result["ops"] if not o["ok"])
    errors = sum(r["error_count"] for r in runs)
    correct = errors == 0 and failed == 0 and all(r["exit_code"] == 0 for r in runs)
    for r in runs:
        for e in r["errors"]:
            print("check failed: " + e, file=sys.stderr)

    c = result["counters"]
    print("workload %s  seed %d  window %.2f s  pool %d  nproc %d" % (
        args.workload, args.seed, result["window_s"], c.get("pool_workers", 0),
        c.get("nproc", 0)))
    print("failed_frac %.6f (%d of %d ops failed or were rejected)" % (
        failed / attempted if attempted else 1.0, failed, attempted))
    if args.trace:
        values, breakdown = per_layer(result, pool4)
        units = PER_LAYER_UNITS
        print_breakdown(result, breakdown)
        if pool4:
            print_speedups(pool4, result)
        notes = {}
    else:
        e2e = end_to_end(result)
        values = {k: v[0] for k, v in e2e.items()}
        notes = {k: v[1] for k, v in e2e.items()}
        units = END_TO_END_UNITS
    metrics = {}
    for name, unit in units.items():
        value = _nan0(values[name])
        metrics[name] = {"value": _json_number(value), "unit": unit}
        print("%-30s %14.6g %-6s %s" % (name, value, unit, notes.get(name, "")))
    if not args.trace:
        for name, unit in UNBOUNDED_UNITS.items():
            print("%-30s %14.6g %-6s %s (not bounded)" % (
                name, _nan0(values[name]), unit, notes[name]))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
