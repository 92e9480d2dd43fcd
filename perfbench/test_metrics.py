"""Tests for the benchmark's own arithmetic (perfbench/metrics.py).

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402


def span(ident, name, start, end, parent=-1, request=-1):
    return {"id": ident, "name": name, "start_ns": start, "end_ns": end,
            "parent": parent, "request": request}


class PercentileTest(unittest.TestCase):
    def test_reports_sample_count_and_samples_beyond(self):
        values = list(range(1, 1001))  # 1..1000
        p99 = metrics.percentile(values, 0.99)
        self.assertEqual(p99["value"], 990)
        self.assertEqual(p99["samples"], 1000)
        self.assertEqual(p99["beyond"], 10)

    def test_small_sample_says_how_little_lies_beyond(self):
        p99 = metrics.percentile([5.0, 1.0, 3.0], 0.99)
        self.assertEqual(p99["value"], 5.0)
        self.assertEqual(p99["samples"], 3)
        self.assertEqual(p99["beyond"], 0)

    def test_median_of_nearest_rank(self):
        p50 = metrics.percentile([4, 1, 3, 2], 0.5)
        self.assertEqual((p50["value"], p50["samples"], p50["beyond"]),
                         (2, 4, 2))

    def test_empty_sample(self):
        self.assertEqual(metrics.percentile([], 0.5),
                         {"value": 0.0, "samples": 0, "beyond": 0})


class TallyTest(unittest.TestCase):
    def test_rejected_missing_and_wrong_replies_are_failures(self):
        outcomes = {"ok": 90, "infeasible": 0, "invalid": 0, "wrong": 3,
                    "rejected": 4, "error": 0, "missing": 3, "notes": ["x"]}
        attempted, failed, share = metrics.tally(outcomes)
        self.assertEqual(attempted, 100)
        self.assertEqual(failed, 10)
        self.assertAlmostEqual(share, 0.10)

    def test_every_non_ok_bucket_counts(self):
        for bucket in metrics.OUTCOME_BUCKETS:
            if bucket == "ok":
                continue
            attempted, failed, _ = metrics.tally({"ok": 1, bucket: 1})
            self.assertEqual((attempted, failed), (2, 1), bucket)

    def test_unknown_bucket_is_not_dropped(self):
        self.assertEqual(metrics.tally({"ok": 1, "timeout": 2})[:2], (3, 2))

    def test_all_ok(self):
        self.assertEqual(metrics.tally({"ok": 7, "missing": 0}), (7, 0, 0.0))

    def test_nothing_attempted_is_a_total_failure(self):
        self.assertEqual(metrics.tally({"ok": 0})[2], 1.0)


class SelfTimeTest(unittest.TestCase):
    def test_subtracts_children(self):
        spans = [span(0, "leg", 0, 100), span(1, "solve", 10, 60, 0),
                 span(2, "check", 70, 80, 0)]
        times = metrics.self_times(spans)
        self.assertAlmostEqual(times["leg"][0], 40e-9)
        self.assertAlmostEqual(times["solve"][0], 50e-9)
        self.assertAlmostEqual(times["check"][0], 10e-9)

    def test_overlapping_children_count_once(self):
        spans = [span(0, "job", 0, 100), span(1, "a", 10, 50, 0),
                 span(2, "b", 30, 70, 0)]
        self.assertAlmostEqual(metrics.self_times(spans)["job"][0], 40e-9)

    def test_children_clipped_to_parent(self):
        spans = [span(0, "p", 100, 200), span(1, "c", 150, 260, 0)]
        self.assertAlmostEqual(metrics.self_times(spans)["p"][0], 50e-9)

    def test_grandchildren_only_reduce_their_parent(self):
        spans = [span(0, "root", 0, 100), span(1, "mid", 0, 80, 0),
                 span(2, "leaf", 0, 60, 1)]
        times = metrics.self_times(spans)
        self.assertAlmostEqual(times["root"][0], 20e-9)
        self.assertAlmostEqual(times["mid"][0], 20e-9)
        self.assertAlmostEqual(times["leaf"][0], 60e-9)

    def test_sums_and_counts_per_name(self):
        spans = [span(0, "x", 0, 10), span(1, "x", 20, 25)]
        self.assertEqual(metrics.self_times(spans)["x"][1], 2)
        self.assertAlmostEqual(metrics.self_times(spans)["x"][0], 15e-9)


class HistogramQuantileTest(unittest.TestCase):
    @staticmethod
    def hist(counts, maximum=9.0):
        bounds = [1.0, 2.0, 4.0, "+inf"]
        return {"count": counts[-1], "max": maximum,
                "buckets": [{"le": b, "count": c}
                            for b, c in zip(bounds, counts)]}

    def test_interpolates_inside_the_bucket_of_the_difference(self):
        before = self.hist([10, 10, 10, 10])
        after = self.hist([10, 20, 30, 30])  # 10 new in (1,2], 10 in (2,4]
        self.assertAlmostEqual(
            metrics.histogram_quantile(before, after, 0.5), 2.0)
        self.assertAlmostEqual(
            metrics.histogram_quantile(before, after, 0.25), 1.5)

    def test_nothing_new(self):
        same = self.hist([1, 2, 3, 3])
        self.assertEqual(metrics.histogram_quantile(same, same, 0.5), 0.0)


class EndToEndTest(unittest.TestCase):
    def test_serve_rate_is_the_median_slice(self):
        raw = {"reply_slices": [10, 30, 20, 100, 1, 2], "traced_from_slice": 3}
        self.assertEqual(metrics.serve_rates(raw), (20.0, 2.0))

    def test_tables_rate_counts_every_leg_of_a_pass(self):
        raw = {"workload": "tables", "setup_s": [1.0], "op_s": [10.0, 12.0],
               "latency_ms": [500] * 28, "wire_cost": 1, "peak_rss_kib": 1024,
               "outcomes": {"ok": 28}}
        self.assertAlmostEqual(metrics.jobs_per_s(raw), 14 / 11.0)

    def test_solver_workload(self):
        raw = {"workload": "vcycle", "setup_s": [3.0, 1.0, 2.0],
               "op_s": [4.0, 6.0, 5.0], "latency_ms": [4000, 6000, 5000],
               "wire_cost": 10, "peak_rss_kib": 2048,
               "outcomes": {"ok": 3}}
        self.assertEqual(metrics.end_to_end(raw),
                         {"setup_s": 2.0, "solve_s": 5.0, "wire_cost": 10.0,
                          "peak_rss_mb": 2.0})
        self.assertAlmostEqual(metrics.jobs_per_s(raw), 1 / 5.0)

    def test_threads_gates_the_parallel_solve_and_reports_the_speedup(self):
        raw = {"workload": "threads", "setup_s": [1.0], "op_s": [4.0, 2.0],
               "t1_s": [1.0, 1.2], "latency_ms": [4000, 2000],
               "wire_cost": 1, "peak_rss_kib": 1024, "outcomes": {"ok": 4}}
        self.assertAlmostEqual(metrics.end_to_end(raw)["solve_s"], 3.0)
        self.assertAlmostEqual(metrics.extras(raw)["parallel_speedup"],
                               1.1 / 3.0)

    def test_traced_run_reports_the_untraced_half_only(self):
        # One untraced and one traced tables pass: the traced half's legs
        # sit in traced_latency_ms and must not double the leg count.
        raw = {"workload": "tables", "setup_s": [1.0], "op_s": [10.0],
               "traced_op_s": [12.0], "latency_ms": [100.0] * 14,
               "traced_latency_ms": [900.0] * 14, "wire_cost": 1,
               "peak_rss_kib": 1024, "outcomes": {"ok": 28}}
        extra = metrics.extras(raw)
        self.assertAlmostEqual(extra["jobs_per_s"], 14 / 10.0)
        self.assertEqual(extra["p50_ms"]["samples"], 14)
        self.assertEqual(extra["p99_ms"]["value"], 100.0)
        self.assertAlmostEqual(metrics.trace_overhead(raw), 0.2)

    def test_traced_threads_speedup_pairs_walls_of_one_half(self):
        raw = {"workload": "threads", "setup_s": [1.0], "op_s": [2.0],
               "traced_op_s": [4.0], "t1_s": [1.0], "traced_t1_s": [3.0],
               "latency_ms": [2000.0], "traced_latency_ms": [4000.0],
               "wire_cost": 1, "peak_rss_kib": 1024, "outcomes": {"ok": 4}}
        self.assertAlmostEqual(metrics.extras(raw)["parallel_speedup"], 0.5)
        self.assertAlmostEqual(metrics.jobs_per_s(raw), 0.5)


class CatalogueTest(unittest.TestCase):
    def test_every_per_layer_metric_has_exactly_one_layer(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as handle:
            declared = [m["name"] for m in json.load(handle)["per_layer"]]
        with open(os.path.join(HERE, "catalogue.json")) as handle:
            layers = json.load(handle)["layers"]
        catalogued = [name for layer in layers for name in layer["metrics"]]
        self.assertEqual(sorted(declared), sorted(catalogued))


if __name__ == "__main__":
    unittest.main()
