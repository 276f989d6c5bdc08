"""Tests for perfbench's statistics code.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import math
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import run  # noqa: E402
import stats  # noqa: E402


def span(id_, parent, start, end, name="s", **args):
    return {"id": id_, "parent": parent, "op": 1, "name": name,
            "start": start, "end": end, "args": args}


class PercentileTest(unittest.TestCase):
    def test_tail_has_ten_samples_beyond_it(self):
        values = list(range(1, 101))  # 1..100
        median, tail, pct, n = stats.percentiles(values)
        self.assertEqual(n, 100)
        self.assertEqual(median, 50.5)
        self.assertEqual(tail, 90)  # rank 90: ten samples (91..100) beyond
        self.assertEqual(pct, 90.0)
        self.assertEqual(sum(1 for v in values if v > tail), 10)

    def test_tail_is_capped_at_p99(self):
        values = list(range(1, 2001))
        _, tail, pct, _ = stats.percentiles(values)
        self.assertEqual(pct, 99.0)
        self.assertEqual(tail, 1980)  # 20 beyond; p99.5 would also have 10

    def test_order_of_input_does_not_matter(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0] * 5
        self.assertEqual(stats.percentiles(values),
                         stats.percentiles(sorted(values)))

    def test_too_few_samples_fall_back_to_the_median(self):
        median, tail, pct, n = stats.percentiles([3.0, 1.0, 2.0])
        self.assertEqual((median, tail, pct, n), (2.0, 2.0, 50.0, 3))

    def test_tail_never_below_median(self):
        _, tail, pct, _ = stats.percentiles(list(range(12)))
        self.assertGreaterEqual(pct, 50.0)
        self.assertGreaterEqual(tail, 5.5)

    def test_failed_ops_count_as_over_any_limit(self):
        values = [1.0] * 95 + [math.inf] * 11
        median, tail, _, _ = stats.percentiles(values)
        self.assertEqual(median, 1.0)
        self.assertTrue(math.isinf(tail))

    def test_empty(self):
        median, _, _, n = stats.percentiles([])
        self.assertTrue(math.isnan(median))
        self.assertEqual(n, 0)


class SelfTimeTest(unittest.TestCase):
    def test_disjoint_children(self):
        spans = [span(1, 0, 0, 10), span(2, 1, 1, 3), span(3, 1, 5, 9)]
        self.assertEqual(stats.self_times(spans), {1: 4, 2: 2, 3: 4})

    def test_overlapping_children_are_covered_once(self):
        spans = [span(1, 0, 0, 10), span(2, 1, 1, 5), span(3, 1, 3, 7)]
        selfs = stats.self_times(spans)
        self.assertEqual(selfs[1], 4)  # 10 - |[1, 7]|, not 10 - 8
        self.assertEqual(selfs[2], 4)
        self.assertEqual(selfs[3], 4)

    def test_child_outside_parent_is_clipped(self):
        spans = [span(1, 0, 0, 10), span(2, 1, 8, 14)]
        self.assertEqual(stats.self_times(spans)[1], 8)

    def test_nested_and_contained_children(self):
        spans = [span(1, 0, 0, 20), span(2, 1, 2, 12), span(3, 2, 4, 6),
                 span(4, 1, 5, 8)]  # 4 lies inside 2's interval
        selfs = stats.self_times(spans)
        self.assertEqual(selfs[1], 10)
        self.assertEqual(selfs[2], 8)

    def test_breakdown_sums_to_wall(self):
        spans = [span(1, 0, 0, 100, "op"),
                 span(2, 1, 5, 60, "core.compress", kernel_us=40.0),
                 span(3, 1, 60, 90, "cas.put")]
        lines, wall, residual = stats.op_breakdown(spans)
        self.assertEqual(wall, 100)
        self.assertEqual(lines[stats.KERNEL_LINE], 40.0)
        self.assertEqual(lines["core.compress"], 15.0)
        self.assertEqual(lines["cas.put"], 30.0)
        self.assertEqual(lines[stats.UNATTRIBUTED], 15.0)
        self.assertEqual(residual, 0.0)
        self.assertEqual(sum(lines.values()), wall)

    def test_breakdown_reports_overlap_as_residual(self):
        spans = [span(1, 0, 0, 10, "op"), span(2, 1, 1, 5, "a"),
                 span(3, 1, 3, 7, "b")]
        lines, wall, residual = stats.op_breakdown(spans)
        self.assertEqual(lines[stats.UNATTRIBUTED], 4)
        self.assertEqual(residual, -2)  # [3, 5] counted by both a and b

    def test_kernel_time_never_exceeds_self_time(self):
        spans = [span(1, 0, 0, 10, "op"), span(2, 1, 0, 10, "c", kernel_us=50.0)]
        lines, _, residual = stats.op_breakdown(spans)
        self.assertEqual(lines[stats.KERNEL_LINE], 10)
        self.assertEqual(lines["c"], 0)
        self.assertEqual(residual, 0)

    def test_breakdown_needs_one_root(self):
        with self.assertRaises(ValueError):
            stats.op_breakdown([span(2, 1, 0, 1)])


class OpenLoopClockTest(unittest.TestCase):
    def test_latency_runs_from_the_intended_send(self):
        op = {"intended": 100.0, "sent": 150.0, "done": 300.0, "ok": True}
        self.assertEqual(stats.op_latency_us(op), 200.0)

    def test_generator_stall_is_charged_to_every_delayed_op(self):
        # Ops due every 10 us; the generator stalls and sends ops 1..3 at
        # t=50. Each is served in 5 us once sent.
        intended = [0.0, 10.0, 20.0, 30.0]
        sent = [0.0, 50.0, 50.0, 50.0]
        ops = [{"intended": i, "sent": s, "done": s + 5.0, "ok": True}
               for i, s in zip(intended, sent)]
        lat = [stats.op_latency_us(o) for o in ops]
        self.assertEqual(lat, [5.0, 45.0, 35.0, 25.0])
        from_sent = [o["done"] - o["sent"] for o in ops]
        self.assertEqual(from_sent, [5.0] * 4)  # what a naive clock shows

    def test_failed_op_is_infinitely_late(self):
        op = {"intended": 0.0, "sent": 0.0, "done": 1.0, "ok": False}
        self.assertTrue(math.isinf(stats.op_latency_us(op)))

    def test_goodput_counts_only_ops_done_inside_the_window(self):
        ops = [{"orig": 1000, "ok": True, "sent": 0.0, "done": d}
               for d in (10.0, 20.0, 150.0)]
        result = {"ops": ops,
                  "counters": {"window.start_us": 0.0, "window.end_us": 100.0}}
        value, _ = run.goodput_gbps(result)
        self.assertAlmostEqual(value, 2000 / (100 * 1e3))


class CpuSliceTest(unittest.TestCase):
    def test_closed_slices_are_whole_runs_of_ops_in_id_order(self):
        ops = [{"id": i} for i in (5, 1, 4, 2, 3)]
        got = stats.closed_slices(ops, 2)
        self.assertEqual([[o["id"] for o in s] for s in got], [[1, 2], [3, 4]])
        # Fewer ops than a slice: the one short slice is kept.
        self.assertEqual(len(stats.closed_slices(ops, 8)), 1)
        self.assertEqual(stats.closed_slices([], 8), [])

    def test_open_slices_group_jobs_by_intended_send(self):
        # Marks at the first arrival of each slice and after the last job.
        marks = [(0.0, 100.0), (10.0, 130.0), (25.0, 190.0)]
        jobs = [{"intended": t} for t in (0.0, 9.9, 10.0, 12.0, 24.0)]
        got = stats.open_slices(jobs, marks)
        self.assertEqual([[j["intended"] for j in s] for s, _ in got],
                         [[0.0, 9.9], [10.0, 12.0, 24.0]])
        self.assertEqual([cpu for _, cpu in got], [30.0, 60.0])

    def test_last_slice_takes_jobs_sent_after_the_final_mark(self):
        # A job stamped late (its intended time after the last mark's
        # start) still belongs to the last slice.
        marks = [(0.0, 0.0), (10.0, 5.0)]
        got = stats.open_slices([{"intended": 12.0}], marks)
        self.assertEqual(len(got[0][0]), 1)

    def test_median_ratio_shrugs_off_a_slowed_slice(self):
        pairs = [(100.0, 10.0), (100.0, 11.0), (100.0, 40.0), (0.0, 5.0)]
        self.assertAlmostEqual(stats.median_ratio(pairs), 100.0 / 11.0)
        self.assertTrue(math.isnan(stats.median_ratio([(0.0, 1.0)])))

    def test_cpu_rate_is_the_median_of_the_slices_rates(self):
        ops = [{"id": i, "orig": b, "cpu": c, "ok": True, "kind": k}
               for i, (b, c, k) in enumerate([
                   (1000, 10.0, "compress"), (3000, 30.0, "decompress"),
                   (1000, 50.0, "compress"), (3000, 30.0, "decompress"),
                   (1000, 10.0, "compress"), (3000, 30.0, "decompress")], 1)]
        result = {"ops": ops, "counters": {"ops_per_slice": 2}}
        # Slices: (4000 B, 40 us), (4000 B, 80 us), (4000 B, 40 us).
        value, _ = run.cpu_gbps(result)
        self.assertAlmostEqual(value, 100.0 / 1e3)
        # Per kind: compress slices run at 100, 20 and 100 B/us.
        gbps = run.throughput_gbps(result, ops, run.WRITE_KINDS)
        self.assertAlmostEqual(gbps, 100.0 / 1e3)


class ReportTest(unittest.TestCase):
    def test_failed_latency_is_never_reported_as_a_number(self):
        ops = [{"intended": 0.0, "done": 1.0, "ok": False} for _ in range(3)]
        median = stats.percentiles([stats.op_latency_us(o) for o in ops])[0]
        self.assertTrue(math.isinf(run._nan0(median)))
        self.assertIsNone(run._json_number(run._nan0(median)))
        self.assertEqual(run._nan0(math.nan), 0.0)  # no samples: bypassed
        self.assertEqual(run._json_number(2.5), 2.5)

    def test_speedup_compares_each_field_with_itself(self):
        # Field 0 is cheap per byte, field 1 dear. The 4-worker run traced
        # mostly field 0, the 1-worker run both equally; pooling all calls
        # would mix the two costs, per-field ratios do not.
        def result(calls):
            ops, spans = [], []
            for i, (field, us) in enumerate(calls, 1):
                ops.append({"id": i, "orig": 1000})
                spans.append(span(i, 0, 0.0, us, "core.compress", field=field))
                spans[-1]["op"] = i
            return {"ops": ops, "spans": spans}
        four = result([(0, 10.0)] * 9 + [(1, 100.0)])
        one = result([(0, 20.0)] * 2 + [(1, 300.0)] * 2)
        speedups = run.field_speedups(four, one)
        self.assertEqual(sorted(speedups), [0, 1])
        self.assertAlmostEqual(speedups[0], 2.0)
        self.assertAlmostEqual(speedups[1], 3.0)
        self.assertAlmostEqual(run.speedup(four, one), 2.5)


class BenchmarkJsonTest(unittest.TestCase):
    def test_metric_names_and_units_match(self):
        path = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                            "BENCHMARK.json")
        if not os.path.isfile(path):
            self.skipTest("no BENCHMARK.json next to perfbench/")
        with open(path) as f:
            spec = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER_UNITS)
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]),
                         sorted(run.POOL_WORKERS))


if __name__ == "__main__":
    unittest.main()
