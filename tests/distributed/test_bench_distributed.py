"""The distributed scaling benchmark and its baseline tolerance gate."""

import json
import pathlib

import pytest

from repro.backends.bench import (
    DISTRIBUTED_BENCH_SCHEMA_VERSION,
    DistributedBenchmarkReport,
    compare_distributed_reports,
    run_distributed_benchmark,
)
from repro.obs.history import ATTRIBUTION_KEYS

REPO = pathlib.Path(__file__).resolve().parents[2]


class TestRunDistributedBenchmark:
    def test_smoke_scenario_scaling_run(self, tmp_path):
        report = run_distributed_benchmark(
            scenario="smoke", worker_counts=(1, 2), shards=2
        )
        assert [t.worker_count for t in report.timings] == [1, 2]
        assert report.merge_invariant
        assert all(t.wall_seconds > 0 for t in report.timings)
        path = report.save(tmp_path / "BENCH_distributed.json")
        payload = json.loads(path.read_text())
        assert payload["schema_version"] == DISTRIBUTED_BENCH_SCHEMA_VERSION
        assert payload["summary"]["merge_invariant"] is True

    def test_timeshared_counts_are_marked_skipped(self, monkeypatch):
        # Pretend the machine exposes a single effective CPU: the 2-worker
        # measurement still runs (merge invariance needs it) but must be
        # flagged skipped and excluded from the speedup summary.
        import repro.backends.bench as bench

        monkeypatch.setattr(bench.history, "effective_cpus", lambda: 1)
        report = run_distributed_benchmark(
            scenario="smoke", worker_counts=(1, 2), shards=2
        )
        by_count = {t.worker_count: t for t in report.timings}
        assert by_count[1].skipped is False
        assert by_count[2].skipped is True
        payload = report.to_dict()
        assert payload["summary"]["skipped_counts"] == [2]
        assert "2" not in payload["summary"]["speedups"]
        assert "skipped" in report.render()

    def test_timings_carry_phase_breakdown(self):
        report = run_distributed_benchmark(
            scenario="smoke", worker_counts=(1,), shards=2
        )
        (timing,) = report.timings
        # The breakdown is the engine's overhead ledger, nothing else.
        assert tuple(timing.breakdown) == ATTRIBUTION_KEYS
        assert "dispatch overhead" not in report.render()
        payload = report.to_dict()
        assert payload["schema_version"] == 5
        assert payload["timings"][0]["breakdown"] == timing.breakdown

    def test_breakdown_carries_attribution_ledger(self):
        report = run_distributed_benchmark(
            scenario="smoke", worker_counts=(1,), shards=2
        )
        (timing,) = report.timings
        ledger = timing.breakdown
        # No tracer was passed, yet the ledger populated — the benchmark
        # creates one internally so trace propagation always runs.
        assert ledger["compute_seconds"] > 0
        # The wall-equivalent components sum to roughly the wall time.
        identity = sum(ledger[key] for key in ATTRIBUTION_KEYS)
        assert identity == pytest.approx(timing.wall_seconds, rel=0.05)
        assert "why is speedup" in report.render()

    def test_tracer_collects_per_worker_count_spans(self):
        from repro.obs.trace import Tracer

        tracer = Tracer()
        run_distributed_benchmark(
            scenario="smoke", worker_counts=(1, 2), shards=2, tracer=tracer
        )
        bench_spans = [s for s in tracer.spans if s.name == "bench.distributed"]
        assert [s.attrs["workers"] for s in bench_spans] == [1, 2]
        # Engine phases nest under the per-worker-count bench spans.
        engine_spans = [s for s in tracer.spans if s.name == "engine.execute"]
        assert engine_spans
        bench_ids = {s.span_id for s in bench_spans}
        assert all(s.parent_id in bench_ids for s in engine_spans)

    def test_rejects_non_mc_point_scenarios(self):
        with pytest.raises(ValueError, match="mc_point"):
            run_distributed_benchmark(scenario="fig1")


class TestBaselineGate:
    def _report(self, **overrides):
        base = {
            "schema_version": DISTRIBUTED_BENCH_SCHEMA_VERSION,
            "scenario": "mc-scaling",
            "backend": "reference",
            "shards": 8,
            "shard_block": 32,
            "realisations": 2000,
            "seed": 1234,
            "quick": False,
            "timings": [
                {
                    "worker_count": 1,
                    "wall_seconds": 2.0,
                    "realisations": 2000,
                    "mean_completion_time": 115.0,
                    "std_completion_time": 40.0,
                    "throughput": 1000.0,
                },
            ],
        }
        base.update(overrides)
        return base

    def test_identical_reports_pass(self):
        assert compare_distributed_reports(self._report(), self._report()) == []

    def test_configuration_drift_is_flagged(self):
        problems = compare_distributed_reports(
            self._report(realisations=400), self._report()
        )
        assert any("realisations" in p for p in problems)

    def test_statistics_drift_is_a_hard_failure(self):
        current = self._report()
        current["timings"][0] = dict(
            current["timings"][0], mean_completion_time=115.001
        )
        problems = compare_distributed_reports(current, self._report())
        assert any("correctness regression" in p for p in problems)

    def test_slow_run_within_tolerance_passes(self):
        current = self._report()
        current["timings"][0] = dict(
            current["timings"][0], throughput=250.0
        )
        assert compare_distributed_reports(
            current, self._report(), tolerance=10.0
        ) == []

    def test_throughput_collapse_fails(self):
        current = self._report()
        current["timings"][0] = dict(current["timings"][0], throughput=50.0)
        problems = compare_distributed_reports(
            current, self._report(), tolerance=10.0
        )
        assert any("regressed" in p for p in problems)

    def test_cli_gates_against_the_baseline_it_is_about_to_overwrite(
        self, tmp_path, monkeypatch, capsys
    ):
        # Without --output the fresh report lands in BENCH_distributed.json;
        # a baseline at that same path must be read before it is replaced.
        from repro.__main__ import main

        monkeypatch.chdir(tmp_path)
        report = run_distributed_benchmark(quick=True, worker_counts=(1,)).to_dict()
        report["timings"][0]["mean_completion_time"] += 1.0
        (tmp_path / "BENCH_distributed.json").write_text(json.dumps(report))
        argv = ["bench", "--distributed", "--quick", "--worker-counts", "1"]
        assert main(argv + ["--baseline", "BENCH_distributed.json"]) == 1
        assert "mean_completion_time diverged" in capsys.readouterr().err

    def test_cli_unreadable_baseline_fails_before_timing(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.__main__ import main

        monkeypatch.chdir(tmp_path)
        argv = ["bench", "--distributed", "--quick", "--worker-counts", "1"]
        assert main(argv + ["--baseline", "missing.json"]) == 2
        assert "cannot read baseline" in capsys.readouterr().err
        assert not (tmp_path / "BENCH_distributed.json").exists()

    def test_committed_baseline_is_current_schema(self):
        baseline = json.loads((REPO / "BENCH_distributed.json").read_text())
        assert baseline["schema_version"] == DISTRIBUTED_BENCH_SCHEMA_VERSION
        assert baseline["scenario"] == "mc-scaling"
        assert baseline["summary"]["merge_invariant"] is True
        # The gate compares against itself cleanly (no config drift).
        assert compare_distributed_reports(baseline, baseline) == []
        for name in ("BENCH_distributed.json", "BENCH_scaling.json"):
            committed = json.loads((REPO / name).read_text())
            for timing in committed["timings"]:
                breakdown = timing["breakdown"]  # keys sorted on disk
                assert set(breakdown) == set(ATTRIBUTION_KEYS)
                assert sum(breakdown.values()) == pytest.approx(
                    timing["wall_seconds"], rel=0.05
                )
