"""The regression sentinel: rolling-baseline classification of runs."""

from __future__ import annotations

import pytest

from repro.obs.history import RunLedger
from repro.obs import sentinel
from repro.obs.sentinel import (
    CheckResult,
    SentinelReport,
    check_value,
    classify,
    comparable_records,
    evaluate,
    export_verdicts,
)


@pytest.fixture
def ledger(tmp_path) -> RunLedger:
    return RunLedger(tmp_path / "history")


def _bench(ledger, throughput, **fields):
    record = {
        "kind": "bench",
        "scenario": "mc-scaling",
        "backend": "reference",
        "realisations": 2000,
        "seed": 1234,
        "shards": 8,
        "worker_count": 1,
        "wall_seconds": 2000.0 / throughput,
        "throughput": throughput,
        "skipped": False,
    }
    record.update(fields)
    return ledger.append(record)


def _engine_run(ledger, *, wall=2.0, cached=0, total=8, **fields):
    record = {
        "kind": "run",
        "scenario": "smoke",
        "spec_hash": "abc123",
        "backend": "reference",
        "executor": "InlineExecutor",
        "effective_cpus": 1,
        "realisations": 2000,
        "blocks_total": total,
        "blocks_cached": cached,
        "wall_seconds": wall,
        "attribution": {
            "wire_seconds": 0.004,
            "deserialize_seconds": 0.001,
            "dispatch_seconds": 0.002,
            "idle_seconds": 0.003,
        },
    }
    record.update(fields)
    return ledger.append(record)


class TestClassify:
    def test_value_within_baseline_is_ok(self):
        result = classify(1000.0, [990.0, 1000.0, 1010.0], higher_better=True)
        assert result.status == "ok"
        assert result.baseline_median == 1000.0

    def test_moderate_drift_warns(self):
        # MAD is 0 for an identical baseline, so the 25 % median floor
        # sets the warn band and the 50 % floor the regression band.
        result = classify(700.0, [1000.0] * 5, higher_better=True)
        assert result.status == "warn"

    def test_large_drift_regresses(self):
        result = classify(450.0, [1000.0] * 5, higher_better=True)
        assert result.status == "regressed"
        assert "drifted" in result.detail

    def test_three_x_slowdown_always_regresses(self):
        result = classify(1000.0 / 3, [1000.0] * 5, higher_better=True)
        assert result.status == "regressed"

    def test_improvement_is_never_flagged(self):
        result = classify(100000.0, [1000.0] * 5, higher_better=True)
        assert result.status == "ok"

    def test_lower_better_direction(self):
        fast = classify(0.001, [0.5] * 5, higher_better=False)
        slow = classify(5.0, [0.5] * 5, higher_better=False)
        assert fast.status == "ok"
        assert slow.status == "regressed"

    def test_abs_floor_suppresses_microsecond_jitter(self):
        # 2 ms of drift on a 1 ms dispatch overhead is a 200 % swing but
        # far below the 50 ms floor — must stay ok.
        result = classify(
            0.003, [0.001] * 5, higher_better=False, abs_floor=0.05
        )
        assert result.status == "ok"

    def test_none_value_is_skipped(self):
        result = classify(None, [1.0] * 5, higher_better=True)
        assert result.status == "skipped"
        assert "not measured" in result.detail

    def test_thin_baseline_is_skipped(self):
        result = classify(1.0, [1.0, 1.0], higher_better=True)
        assert result.status == "skipped"
        assert result.baseline_size == 2

    def test_min_records_override(self):
        result = classify(1.0, [1.0], higher_better=True, min_records=1)
        assert result.status == "ok"


class TestCheckValue:
    def test_bench_record_measures_only_throughput(self):
        record = {"kind": "bench", "throughput": 500.0}
        assert check_value(record, "throughput") == 500.0
        assert check_value(record, "dispatch_overhead") is None
        assert check_value(record, "cache_hit_ratio") is None

    def test_run_throughput_counts_computed_realisations_only(self):
        record = {
            "kind": "run",
            "realisations": 1000,
            "blocks_total": 10,
            "blocks_cached": 5,
            "wall_seconds": 2.0,
        }
        # Half the blocks came from cache: 1000 * 0.5 / 2s = 250/s.
        assert check_value(record, "throughput") == 250.0

    def test_fully_cached_run_has_no_throughput(self):
        record = {
            "kind": "run",
            "realisations": 1000,
            "blocks_total": 10,
            "blocks_cached": 10,
            "wall_seconds": 0.01,
        }
        assert check_value(record, "throughput") is None
        assert check_value(record, "dispatch_overhead") is None
        assert check_value(record, "cache_hit_ratio") == 1.0

    def test_dispatch_overhead_sums_the_ledger_overhead_components(self):
        record = {
            "kind": "run",
            "blocks_total": 4,
            "blocks_cached": 0,
            "attribution": {
                "plan_seconds": 1.0,
                "wire_seconds": 0.25,
                "deserialize_seconds": 0.125,
                "compute_seconds": 8.0,
                "dispatch_seconds": 0.5,
                "idle_seconds": 0.0625,
                "merge_seconds": 2.0,
            },
        }
        assert check_value(record, "dispatch_overhead") == 0.9375

    def test_older_records_are_judged_from_their_attribution(self):
        # Records written before the ledger became the one timing record
        # also carried a second overhead estimate in ``timings``, named
        # after the check; only the ledger counts.
        check = "dispatch_overhead"
        record = {
            "kind": "run",
            "blocks_total": 4,
            "blocks_cached": 0,
            "timings": {f"{check}_seconds": 7.0},
            "attribution": {"wire_seconds": 0.5, "idle_seconds": 0.25},
        }
        assert check_value(record, check) == 0.75
        del record["attribution"]
        assert check_value(record, check) is None

    def test_unknown_check_raises(self):
        with pytest.raises(ValueError, match="unknown sentinel check"):
            check_value({"kind": "run"}, "latency_p99")


class TestComparableRecords:
    def test_matches_on_bench_fields_and_excludes_self(self, ledger):
        for _ in range(3):
            _bench(ledger, 1000.0)
        other_backend = _bench(ledger, 1000.0, backend="vectorized")
        other_workers = _bench(ledger, 1000.0, worker_count=2)
        fresh = _bench(ledger, 900.0)
        history = comparable_records(ledger, fresh)
        ids = {r["id"] for r in history}
        assert len(history) == 3
        assert fresh["id"] not in ids
        assert other_backend["id"] not in ids
        assert other_workers["id"] not in ids

    def test_matches_run_records_on_spec_and_executor(self, ledger):
        for _ in range(2):
            _engine_run(ledger)
        other_spec = _engine_run(ledger, spec_hash="fff")
        other_exec = _engine_run(ledger, executor="ProcessExecutor")
        fresh = _engine_run(ledger)
        ids = {r["id"] for r in comparable_records(ledger, fresh)}
        assert len(ids) == 2
        assert other_spec["id"] not in ids
        assert other_exec["id"] not in ids

    def test_window_caps_history(self, ledger):
        for _ in range(10):
            _bench(ledger, 1000.0)
        fresh = _bench(ledger, 1000.0)
        assert len(comparable_records(ledger, fresh, window=4)) == 4


class TestEvaluate:
    def test_injected_three_x_slowdown_is_flagged_regressed(self, ledger):
        for _ in range(3):
            _bench(ledger, 1200.0)
        slow = _bench(ledger, 400.0)
        report = evaluate(ledger, slow, checks=("throughput",))
        assert report.status == "regressed"
        assert report.regressed is True
        (check,) = report.checks
        assert check.check == "throughput"
        assert check.baseline_median == 1200.0

    def test_steady_throughput_is_ok(self, ledger):
        for value in (1000.0, 1010.0, 990.0):
            _bench(ledger, value)
        report = evaluate(ledger, _bench(ledger, 1005.0), checks=("throughput",))
        assert report.status == "ok"
        assert not report.regressed

    def test_timeshared_bench_record_is_never_judged(self, ledger):
        for _ in range(3):
            _bench(ledger, 1000.0, worker_count=2, skipped=True)
        fresh = _bench(ledger, 10.0, worker_count=2, skipped=True)
        report = evaluate(ledger, fresh)
        assert report.status == "skipped"
        assert all("timeshared" in c.detail for c in report.checks)

    def test_run_record_judges_all_three_checks(self, ledger):
        for _ in range(3):
            _engine_run(ledger)
        report = evaluate(ledger, _engine_run(ledger))
        assert [c.check for c in report.checks] == [
            "throughput",
            "dispatch_overhead",
            "cache_hit_ratio",
        ]
        assert report.status == "ok"

    def test_overall_status_is_the_worst_check(self, ledger):
        for _ in range(3):
            _engine_run(ledger)
        # Same compute profile, 10x the wall time: throughput collapses
        # while cache ratio and dispatch overhead stay put.
        slow = _engine_run(ledger, wall=20.0)
        report = evaluate(ledger, slow)
        by_name = {c.check: c.status for c in report.checks}
        assert by_name["throughput"] == "regressed"
        assert by_name["cache_hit_ratio"] == "ok"
        assert report.status == "regressed"

    def test_empty_history_skips(self, ledger):
        report = evaluate(ledger, _bench(ledger, 1000.0), checks=("throughput",))
        assert report.status == "skipped"
        assert "0 comparable" in report.checks[0].detail

    def test_render_mentions_verdict_and_baseline(self, ledger):
        for _ in range(3):
            _bench(ledger, 1000.0)
        report = evaluate(ledger, _bench(ledger, 100.0), checks=("throughput",))
        text = report.render()
        assert "sentinel verdict: regressed" in text
        assert "baseline 1000" in text

    def test_to_dict_is_json_shaped(self, ledger):
        report = evaluate(ledger, _bench(ledger, 1000.0))
        payload = report.to_dict()
        assert payload["record_id"] == report.record_id
        assert payload["status"] == "skipped"
        assert all("check" in c and "status" in c for c in payload["checks"])


class TestExportVerdicts:
    def test_judged_checks_set_the_gauge(self):
        report = SentinelReport(
            record_id="x",
            checks=[
                CheckResult(check="throughput", status="regressed"),
                CheckResult(check="cache_hit_ratio", status="ok"),
            ],
        )
        export_verdicts(report)
        gauge = sentinel._VERDICT
        assert gauge.labels(check="throughput").get() == 2
        assert gauge.labels(check="cache_hit_ratio").get() == 0

    def test_skipped_checks_leave_the_gauge_untouched(self):
        gauge = sentinel._VERDICT
        gauge.labels(check="throughput").set(0)
        export_verdicts(
            SentinelReport(
                record_id="x",
                checks=[CheckResult(check="throughput", status="skipped")],
            )
        )
        assert gauge.labels(check="throughput").get() == 0
