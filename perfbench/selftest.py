#!/usr/bin/env python3
"""The benchmark's own tests: each correctness check fails on a doctored
result, and the layer timers and metrics helpers do what they claim.

    python3 perfbench/selftest.py

Needs no program source (pure functions and fakes only), and is named so
that ``python -m pytest`` does not collect it.
"""

from __future__ import annotations

import json
import sys
import types
import unittest
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402


def summary(mean: float, std: float, n: int):
    return SimpleNamespace(estimate=SimpleNamespace(summary=SimpleNamespace(mean=mean, std=std, n=n)))


class TheoryChecks(unittest.TestCase):
    def test_mean_within_tolerance_passes(self):
        # The committed seed-1234 mc-scaling mean sits 1.1 SE from theory.
        self.assertIsNone(checks.mean_matches_theory(115.82, 38.5, 2000, 116.75, "mc"))

    def test_doctored_mean_fails(self):
        error = checks.mean_matches_theory(112.0, 38.5, 2000, 116.75, "mc")
        self.assertIn("SE from theory", error)

    def test_degenerate_estimate_fails(self):
        self.assertIsNotNone(checks.mean_matches_theory(116.75, 0.0, 2000, 116.75, "mc"))
        self.assertIsNotNone(checks.mean_matches_theory(float("nan"), 1.0, 2000, 116.75, "mc"))

    def _sweep(self, lbp1_mean: float):
        points = [SimpleNamespace(name="delay-sweep/d=1", scalars={"lbp1_mean": lbp1_mean, "lbp1_theory": 110.0})]
        reports = [summary(lbp1_mean, 30.0, 300), summary(120.0, 30.0, 300)]
        return points, reports

    def test_cold_sweep_point_checked_against_its_theory(self):
        sweep = workloads.ColdSweep.__new__(workloads.ColdSweep)
        self.assertIsNone(sweep._check_sweep(*self._sweep(111.0)))
        self.assertIn("SE from theory", sweep._check_sweep(*self._sweep(125.0)))

    def test_cold_sweep_rejects_a_mislabelled_estimate(self):
        sweep = workloads.ColdSweep.__new__(workloads.ColdSweep)
        points, reports = self._sweep(111.0)
        reports[0] = summary(111.5, 30.0, 300)
        self.assertIn("not the LBP-1 estimate", sweep._check_sweep(points, reports))
        self.assertIn("engine runs", sweep._check_sweep(points, reports[:1]))


class RerunChecks(unittest.TestCase):
    def test_regroup_must_match_bit_for_bit(self):
        cold = (115.82342196969803, 38.51)
        self.assertIsNone(checks.regroup_matches(cold, cold, "K=0.35"))
        doctored = (115.82342196969804, 38.51)
        self.assertIn("!= cold", checks.regroup_matches(cold, doctored, "K=0.35"))

    def test_cache_hit_must_come_from_the_cache_with_the_same_scalars(self):
        scalars = {"headline": 1.5, "policy": "LBP-1"}
        self.assertIsNone(checks.cache_hit_matches(scalars, True, dict(scalars), "p"))
        self.assertIn("recomputed", checks.cache_hit_matches(scalars, False, scalars, "p"))
        self.assertIn("differ", checks.cache_hit_matches(scalars, True, {"headline": 1.6, "policy": "LBP-1"}, "p"))


class CliChecks(unittest.TestCase):
    body = "scenario x: LBP-1\n  mean completion time: 1.00 s"

    def output(self, header_tail=", cached) ===", body=None):
        return f"=== x (full, 0.0 s{header_tail}\n{body or self.body}\n\n"

    def test_cached_output_passes(self):
        self.assertIsNone(checks.cli_output_matches(self.output(), [("x", self.body)]))

    def test_recomputed_output_fails(self):
        error = checks.cli_output_matches(self.output(") ==="), [("x", self.body)])
        self.assertIn("not a cached run", error)

    def test_different_body_fails(self):
        error = checks.cli_output_matches(self.output(body="something else"), [("x", self.body)])
        self.assertIn("differs", error)

    def test_missing_point_fails(self):
        error = checks.cli_output_matches(self.output(), [("x", self.body), ("y", self.body)])
        self.assertIn("result blocks", error)


class FleetChecks(unittest.TestCase):
    fresh = [{"content_hash": "abc", "headline": 117.2}, {"content_hash": "def", "headline": 113.9}]

    def test_identical_resubmission_passes(self):
        self.assertIsNone(checks.resubmit_matches(self.fresh, "done", [dict(p) for p in self.fresh], "job-2"))

    def test_resubmission_not_done_fails(self):
        self.assertIn("'queued'", checks.resubmit_matches(self.fresh, "queued", self.fresh, "job-2"))

    def test_resubmission_with_other_numbers_fails(self):
        doctored = [dict(self.fresh[0]), dict(self.fresh[1], headline=114.0)]
        self.assertIn("fresh job had", checks.resubmit_matches(self.fresh, "done", doctored, "job-2"))
        swapped = [dict(self.fresh[0], content_hash="zzz"), self.fresh[1]]
        self.assertIsNotNone(checks.resubmit_matches(self.fresh, "done", swapped, "job-2"))


class LayerTimerTests(unittest.TestCase):
    def test_self_time_excludes_nested_wrapped_calls_and_originals_return(self):
        import time

        module = types.ModuleType("repro_selftest_fake")
        sys.modules[module.__name__] = module
        try:
            def inner():
                time.sleep(0.02)

            def outer():
                time.sleep(0.01)
                module.inner()
                module.inner()

            module.inner, module.outer = inner, outer
            timers = layers.LayerTimers()
            timers.wrap_function(module, "inner", "inner")
            timers.wrap_function(module, "outer", "outer")
            self.assertIsNot(module.inner, inner)
            module.outer()
            timers.uninstall()
            self.assertIs(module.inner, inner)
            self.assertIs(module.outer, outer)
        finally:
            del sys.modules[module.__name__]
        out, inn = timers.get("outer"), timers.get("inner")
        self.assertEqual((out.calls, inn.calls), (1, 2))
        self.assertGreaterEqual(inn.inclusive_s, 0.04)
        self.assertAlmostEqual(out.self_s, out.inclusive_s - inn.inclusive_s, places=6)
        self.assertLess(out.self_s, 0.02)

    def test_recursive_calls_are_counted_once(self):
        module = types.ModuleType("repro_selftest_recursive")
        sys.modules[module.__name__] = module
        try:
            def down(n):
                return 0 if n == 0 else module.down(n - 1)

            module.down = down
            timers = layers.LayerTimers()
            timers.wrap_function(module, "down", "down")
            module.down(3)
            timers.uninstall()
        finally:
            del sys.modules[module.__name__]
        totals = timers.get("down")
        self.assertEqual(totals.calls, 1)
        self.assertAlmostEqual(totals.self_s, totals.inclusive_s, places=6)


class MetricsDiffTests(unittest.TestCase):
    before = (
        "# TYPE repro_cache_requests_total counter\n"
        'repro_cache_requests_total{store="shard",outcome="hit"} 4\n'
        'repro_worker_claim_seconds_sum{worker="w1"} 0.5\n'
        'repro_worker_claim_seconds_count{worker="w1"} 10\n'
    )
    after = (
        'repro_cache_requests_total{store="shard",outcome="hit"} 10\n'
        'repro_cache_requests_total{store="shard",outcome="miss"} 2\n'
        'repro_worker_claim_seconds_sum{worker="w1"} 0.9\n'
        'repro_worker_claim_seconds_count{worker="w1"} 20\n'
    )

    def test_diff_totals_and_histogram_mean(self):
        delta = layers.diff_metrics(layers.parse_metrics(self.before), layers.parse_metrics(self.after))
        self.assertEqual(layers.total(delta, "repro_cache_requests_total", store="shard"), 8.0)
        self.assertEqual(layers.total(delta, "repro_cache_requests_total", outcome="miss"), 2.0)
        self.assertAlmostEqual(layers.histogram_mean(delta, "repro_worker_claim_seconds"), 0.04)
        self.assertEqual(layers.histogram_mean(delta, "repro_missing_seconds"), 0.0)

    def test_engine_rows_sum_runs(self):
        entry = {"merge_s": 0.1, "compute_s": 2.0, "execute_s": 1.25, "slots": 2.0, "shards": 4.0,
                 "blocks_total": 10.0, "blocks_cached": 3.0, "overhead_s": 0.05}
        rows = layers.engine_rows([entry, entry])
        self.assertEqual(rows["montecarlo.runs"], 2.0)
        self.assertEqual(rows["montecarlo.blocks_computed"], 14.0)
        self.assertAlmostEqual(rows["distributed.pool.busy_share"], 0.8)


class RecorderTests(unittest.TestCase):
    def test_an_operation_that_raises_counts_as_failed(self):
        rec = workloads.Recorder()
        self.assertIsNone(workloads.attempt(rec, "hit", "p", lambda: 1 / 0))
        self.assertEqual((rec.attempted, rec.failed), (1, 1))
        self.assertIn("ZeroDivisionError", rec.errors[0])
        self.assertEqual(workloads.attempt(rec, "hit", "p", lambda: 7)[0], 7)

    def test_latencies_scale_by_the_probes_around_and_during_each_operation(self):
        reference = workloads.PROBE_REFERENCE_MS
        # Two slow stretches of probes, and one probe that was descheduled.
        values = [1, 1, 1, 2, 2, 2, 2, 50, 2, 1, 1, 1]
        rec = workloads.Recorder(
            probe_times=[float(t) for t in range(len(values))],
            probe_values=[v * reference for v in values],
        )
        rec.samples["miss"] = [
            ([(1.5, 1.9)], 400.0),
            ([(4.5, 4.9)], 400.0),
            ([(6.5, 6.9)], 400.0),
            ([(1.5, 1.9), (4.5, 4.9)], 800.0),  # a sweep of two points
        ]
        self.assertEqual(rec.latencies("miss"), [400.0, 400.0, 400.0, 800.0])
        scaled = rec.latencies("miss", scaled=True)
        self.assertAlmostEqual(scaled[0], 400.0 / 1.0)  # probes 0-3
        self.assertAlmostEqual(scaled[1], 400.0 / 2.0)  # probes 3-6
        self.assertAlmostEqual(scaled[2], 400.0 / 2.0)  # probes 5-8, one of them 50
        self.assertAlmostEqual(scaled[3], 400.0 / 1.0 + 400.0 / 2.0)


class PacingTests(unittest.TestCase):
    """CLI re-runs are paced over the loop's gaps, all of them run, and a
    workload can ask for at most one per gap before the deadline."""

    def cli_per_gap(self, one_cli_per_gap: bool):
        import time

        import run

        class Fake:
            def __init__(self):
                self.one_cli_per_gap = one_cli_per_gap
                self.gaps = []

            def round(self, rec):
                time.sleep(0.02)
                self.gaps.append(0)

            def cli_ready(self):
                return True

            def cli_run(self, rec):
                self.gaps[-1] += 1

        fake = Fake()
        run.closed_loop(fake, workloads.Recorder(), 0.2, cli_runs=20)
        self.assertFalse(hasattr(fake, "between_ops"))
        self.assertEqual(sum(fake.gaps), 20)
        return fake.gaps

    def test_re_runs_follow_their_schedule(self):
        self.assertGreater(max(self.cli_per_gap(False)[:-1]), 1)

    def test_one_re_run_per_gap_until_the_deadline(self):
        self.assertEqual(max(self.cli_per_gap(True)[:-1]), 1)


class BenchmarkSpecTests(unittest.TestCase):
    def test_declared_per_layer_metrics_are_the_ones_reported(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        declared = [m["name"] for m in spec["per_layer"]]
        extra = ["setup.import_s", "setup.warm_s", "setup.service_ready_s", "trace.overhead_pct"]
        self.assertEqual(declared, list(layers.LAYER_METRIC_NAMES) + extra)

    def test_reasons_cover_every_workload_and_metric(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        reasons = json.loads((HERE / "reasons.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(reasons["workloads"]))
        self.assertEqual([m["name"] for m in spec["end_to_end"]], list(reasons["end_to_end"]))
        layered = [name for layer in reasons["per_layer"].values() for name in layer["metrics"]]
        self.assertEqual([m["name"] for m in spec["per_layer"]], layered)
        self.assertEqual(reasons["ledger_prior_records"], workloads.LEDGER_PRIOR_RECORDS)
        why = next(w["why"] for w in spec["workloads"] if w["name"] == "warm-rerun")
        self.assertIn(f"{workloads.LEDGER_PRIOR_RECORDS} prior records", why)


if __name__ == "__main__":
    unittest.main()
