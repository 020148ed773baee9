"""Self-tests of the benchmark's measurement code.

    python3 -m unittest discover -s perfbench/tests
"""

import os
import random
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import measure  # noqa: E402
import run  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_p95_needs_ten_samples_beyond_it(self):
        self.assertIsNone(measure.percentile(list(range(199)), 95))
        self.assertAlmostEqual(measure.percentile(list(range(200)), 95),
                               189.5, places=6)
        self.assertEqual(sum(v > 189 for v in range(200)), 10)

    def test_median_needs_ten_beyond_too(self):
        self.assertIsNone(measure.percentile(list(range(19)), 50))
        self.assertAlmostEqual(measure.percentile(list(range(20)), 50), 9.5)

    def test_empty(self):
        self.assertIsNone(measure.percentile([], 50))
        self.assertIsNone(measure.median([]))

    def test_weights_the_order_statistics_near_the_rank(self):
        # Harrell-Davis: the 95th percentile of 1..200 lies between the
        # 190th and 191st values, and values far below it carry no weight.
        values = [1.0] * 150 + [float(v) for v in range(151, 201)]
        self.assertAlmostEqual(measure.percentile(values, 95), 190.5,
                               places=1)

    def test_beta_cdf(self):
        self.assertAlmostEqual(measure._beta_cdf(0.5, 3, 3), 0.5)
        self.assertAlmostEqual(measure._beta_cdf(0.3, 2, 5), 0.579825)
        self.assertAlmostEqual(measure._beta_cdf(0.95, 190.95, 10.05),
                               0.4612246, places=6)

    def test_failures_lift_the_tail(self):
        ok = [100.0] * 190
        self.assertAlmostEqual(measure.percentile(ok + [100.0] * 10, 95),
                               100.0)
        self.assertGreater(measure.percentile(ok + [30000.0] * 10, 95),
                           1000.0)


def span(sid, parent, start, end, name="x", **attrs):
    return {"id": sid, "parent": parent, "req": "r1", "name": name,
            "start_ns": start, "end_ns": end, "attrs": attrs}


class SelfTimeTest(unittest.TestCase):
    def test_self_time_is_duration_minus_children(self):
        spans = [span(1, 0, 0, 100), span(2, 1, 10, 30), span(3, 1, 50, 90)]
        st = measure.self_times(spans)
        self.assertEqual(st[1], 100 - 20 - 40)
        self.assertEqual(st[2], 20)
        self.assertEqual(st[3], 40)

    def test_overlapping_children_count_once(self):
        spans = [span(1, 0, 0, 100), span(2, 1, 10, 60), span(3, 1, 40, 80)]
        self.assertEqual(measure.self_times(spans)[1], 100 - 70)

    def test_child_outside_parent_is_clipped(self):
        spans = [span(1, 0, 0, 100), span(2, 1, 90, 130)]
        self.assertEqual(measure.self_times(spans)[1], 90)

    def test_grandchildren_do_not_reduce_the_grandparent_twice(self):
        spans = [span(1, 0, 0, 100), span(2, 1, 0, 50), span(3, 2, 0, 50)]
        st = measure.self_times(spans)
        self.assertEqual(st[1], 50)
        self.assertEqual(st[2], 0)
        self.assertEqual(st[3], 50)


class NonZeroCounterTest(unittest.TestCase):
    def test_flags_counters_that_read_zero(self):
        metrics = {"engine.plateau.nodes_settled": 0.0,
                   "engine.penalty.nodes_settled": 12.0}
        self.assertEqual(
            measure.zero_counter_violations(
                metrics, ["engine.plateau.nodes_settled",
                          "engine.penalty.nodes_settled", "qp.snap_ms"]),
            ["engine.plateau.nodes_settled", "qp.snap_ms"])

    def test_every_expected_counter_is_declared(self):
        import json
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            declared = {m["name"] for m in json.load(f)["per_layer"]}
        for workload, names in run.EXPECT_NONZERO.items():
            self.assertLessEqual(set(names), declared, workload)

    def test_layer_metrics_read_engine_work(self):
        # One traced request: a root span, Process with the obs::Trace
        # "query" span below it, one engine run and the snap.
        spans = [
            span(1, 0, 0, 10_000_000, "request", kind="route",
                 city="melbourne"),
            span(2, 1, 0, 1_000, "NetworkManager::GetSnapshot"),
            span(3, 1, 1_000, 2_000, "QueryProcessorPool::Acquire"),
            span(4, 1, 2_000, 9_000_000, "QueryProcessor::Process",
                 render_ms=0.5),
            span(5, 4, 2_000, 9_000_000, "query"),
            span(6, 5, 2_000, 100_000, "snap"),
            span(7, 5, 100_000, 9_000_000, "generate:plateau", routes="3",
                 stats={"nodes_settled": 200, "edges_relaxed": 800,
                        "heap_pushes": 300, "paths_generated": 6}),
            span(8, 1, 9_000_000, 10_000_000, "QueryProcessor::ToJson"),
        ]
        m = measure.layer_metrics(spans, {"melbourne": 100})
        self.assertEqual(m["engine.plateau.nodes_settled"], 200)
        self.assertEqual(m["engine.plateau.yield"], 0.5)
        self.assertEqual(m["route.nodes_settled_per_n"], 2.0)
        self.assertAlmostEqual(m["qp.snap_ms"], 0.098)
        self.assertEqual(m["qp.render_ms"], 0.5)
        self.assertEqual(m["engine.commercial.nodes_settled"], 0.0)


class RateTotalsTest(unittest.TestCase):
    def test_concurrent_responses_may_share_a_total(self):
        # Two overlapping submissions both read the total after both adds.
        self.assertEqual(measure.check_rate_totals(
            [(0.0, 2.0, 6), (1.0, 3.0, 6)], base=4), [])

    def test_a_lost_submission_is_caught(self):
        self.assertTrue(measure.check_rate_totals(
            [(0.0, 1.0, 5), (2.0, 3.0, 5)], base=4))

    def test_a_double_count_is_caught(self):
        self.assertTrue(measure.check_rate_totals(
            [(0.0, 1.0, 6)], base=4))


class RouteGateTest(unittest.TestCase):
    PAIR = [7, 9, 0.0, 0.0, 0.0, 0.0, 600.0]  # optimum: 10 min

    def body(self, b_first=10, other=12, degraded=False):
        approaches = [{"label": l, "status": "ok",
                       "routes": [{"travel_time_min": other}]}
                      for l in "ACD"]
        approaches.insert(1, {"label": "B", "status": "ok",
                              "routes": [{"travel_time_min": b_first}]})
        return {"snapped_source": 7, "snapped_target": 9,
                "degraded": degraded, "approaches": approaches}

    def test_correct_body_passes(self):
        self.assertEqual(measure.check_route_body(self.body(), self.PAIR), [])

    def test_b_must_match_the_optimum(self):
        self.assertTrue(measure.check_route_body(self.body(b_first=11),
                                                 self.PAIR))

    def test_degraded_body_skips_only_the_b_check(self):
        self.assertEqual(measure.check_route_body(
            self.body(b_first=11, degraded=True), self.PAIR), [])
        self.assertTrue(measure.check_route_body(
            self.body(other=9, degraded=True), self.PAIR))

    def test_missing_status_fails(self):
        body = self.body()
        del body["approaches"][2]["status"]
        self.assertTrue(measure.check_route_body(body, self.PAIR))


class HistogramTest(unittest.TestCase):
    def test_quantile_interpolates_inside_the_bucket(self):
        def scrape(counts):
            text = "".join('h_bucket{phase="q",le="%s"} %d\n' % (le, c)
                           for le, c in counts)
            return measure.parse_prometheus(text)
        before = scrape([("0.1", 0), ("0.2", 0), ("+Inf", 0)])
        after = scrape([("0.1", 50), ("0.2", 100), ("+Inf", 100)])
        self.assertAlmostEqual(
            measure.histogram_quantile(before, after, "h", 0.75, phase="q"),
            0.15)


class ScheduleTest(unittest.TestCase):
    def test_stratified_keeps_exact_proportions(self):
        keys = run.stratified({"s": 66, "m": 109, "l": 62}, 237,
                              random.Random(1))
        self.assertEqual((keys.count("s"), keys.count("m"), keys.count("l")),
                         (66, 109, 62))

    def test_equal_count_keys_interleave(self):
        # Three cities' long trips, one each per period of three.
        keys = run.stratified({"a": 1, "b": 1, "c": 1}, 30, random.Random(4))
        for i in range(0, 30, 3):
            self.assertEqual(sorted(keys[i:i + 3]), ["a", "b", "c"])

    def test_open_loop_pairs_sit_at_stratum_midpoints(self):
        pool = [[0, 0, 0.0, 0.0, 0.0, 0.0, float(i)] for i in range(100)]
        pools = {"x": {"buckets": {b: pool for b in run.BUCKETS}}}
        cell = ("x", "small")
        source = run.PairSource(pools, [{cell: 10}], random.Random(1))
        taken = [source.take(cell)[1][6] for _ in range(10)]
        self.assertEqual(sorted(taken), [5.0 + 10 * k for k in range(10)])
        # Consecutive requests alternate across the length range.
        self.assertGreater(abs(taken[1] - taken[0]), 20)

    def test_cities_of_a_bucket_read_quantiles_a_third_apart(self):
        pool = [[0, 0, 0.0, 0.0, 0.0, 0.0, float(i)] for i in range(300)]
        pools = {c: {"buckets": {b: pool for b in run.BUCKETS}}
                 for c in ("a", "b", "c")}
        source = run.PairSource(pools, [], random.Random(2))
        for _ in range(5):
            lengths = sorted(source.take((c, "long"))[1][6]
                             for c in ("a", "b", "c"))
            self.assertAlmostEqual(lengths[1] - lengths[0], 100, delta=1)
            self.assertAlmostEqual(lengths[2] - lengths[1], 100, delta=1)


if __name__ == "__main__":
    unittest.main()
