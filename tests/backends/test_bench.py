"""Benchmark harness: timings, parity verdicts, report schema, JSON output."""

from __future__ import annotations

import json

import pytest

from repro.backends.bench import (
    BENCH_SCHEMA_VERSION,
    BackendTiming,
    bench_scenario_names,
    benchmark_scenario,
    run_benchmark,
)
from repro.scenarios.spec import PolicySpec, ScenarioSpec, SystemSpec


@pytest.fixture
def tiny_spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="bench-tiny",
        kind="mc_point",
        system=SystemSpec.paper(),
        workload=(20, 12),
        policy=PolicySpec(kind="lbp1", gain=0.35, sender=0, receiver=1),
        mc_realisations=60,
        seed=21,
    )


class TestBenchmarkScenario:
    def test_times_both_backends_and_checks_parity(self, tiny_spec):
        result = benchmark_scenario(tiny_spec)
        assert set(result.timings) == {"reference", "vectorized"}
        for timing in result.timings.values():
            assert timing.wall_seconds > 0.0
            assert timing.realisations == 60
            assert timing.throughput > 0.0
        check = result.parity["vectorized"]
        assert 0.0 <= check.ks_statistic <= 1.0
        assert check.passed == (check.ks_pvalue > check.alpha)
        assert result.speedup("vectorized") is not None

    def test_rejects_non_mc_point_scenarios(self):
        with pytest.raises(ValueError, match="mc_point"):
            benchmark_scenario("fig4")

    def test_rejects_zero_repeats(self, tiny_spec):
        with pytest.raises(ValueError, match="repeats"):
            benchmark_scenario(tiny_spec, repeats=0)

    def test_seed_override(self, tiny_spec):
        result = benchmark_scenario(tiny_spec, seed=99)
        assert result.seed == 99


class TestReport:
    def test_report_schema_and_save(self, tiny_spec, tmp_path):
        report = run_benchmark(scenarios=[tiny_spec])
        payload = report.to_dict()
        assert payload["schema_version"] == BENCH_SCHEMA_VERSION
        assert payload["backends"] == ["reference", "vectorized"]
        assert "all_parity_passed" in payload["summary"]
        assert "min_speedup_vectorized" in payload["summary"]
        (scenario,) = payload["scenarios"]
        assert scenario["name"] == "bench-tiny"
        assert "vectorized" in scenario["speedup_vs_reference"]

        path = report.save(tmp_path / "BENCH_results.json")
        loaded = json.loads(path.read_text())
        assert loaded == json.loads(report.to_json())

    def test_render_mentions_backends_and_verdict(self, tiny_spec):
        report = run_benchmark(scenarios=[tiny_spec])
        rendered = report.render()
        assert "reference" in rendered
        assert "vectorized" in rendered
        assert "parity gate" in rendered

    def test_quick_set_resolves_in_registry(self):
        # Every scenario the harness would benchmark must resolve to an
        # mc_point spec (no stale names in QUICK_SCENARIOS or the registry).
        from repro.backends.bench import QUICK_SCENARIOS, _resolve_bench_spec

        for name in QUICK_SCENARIOS:
            assert _resolve_bench_spec(name, quick=True).kind == "mc_point"
        for name in bench_scenario_names():
            assert _resolve_bench_spec(name, quick=False).kind == "mc_point"


class TestTiming:
    def test_zero_wall_time_reports_infinite_throughput(self):
        timing = BackendTiming(
            backend="reference",
            wall_seconds=0.0,
            realisations=10,
            mean_completion_time=1.0,
            std_completion_time=0.1,
        )
        assert timing.throughput == float("inf")
