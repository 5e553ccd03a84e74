"""The run-history ledger: append, query, crash/corruption tolerance."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs.history import (
    HISTORY_SCHEMA_VERSION,
    RunLedger,
    default_history_root,
    history_enabled,
    record_distributed_report,
)


@pytest.fixture
def ledger(tmp_path) -> RunLedger:
    return RunLedger(tmp_path / "history")


def _run(ledger, **fields):
    record = {
        "kind": "run",
        "scenario": "smoke",
        "backend": "reference",
        "executor": "InlineExecutor",
        "effective_cpus": 1,
        "wall_seconds": 0.5,
    }
    record.update(fields)
    return ledger.append(record)


class TestAppendAndQuery:
    def test_append_stamps_schema_id_and_timestamp(self, ledger):
        record = _run(ledger)
        assert record["v"] == HISTORY_SCHEMA_VERSION
        assert len(record["id"]) == 16
        assert record["ts"] > 0

    def test_roundtrip_preserves_fields(self, ledger):
        _run(ledger, scenario="fig3", wall_seconds=1.25)
        (record,) = ledger.query()
        assert record["scenario"] == "fig3"
        assert record["wall_seconds"] == 1.25

    def test_query_newest_first_with_limit(self, ledger):
        for i in range(5):
            _run(ledger, scenario=f"s{i}")
        newest = ledger.query(limit=2)
        assert [r["scenario"] for r in newest] == ["s4", "s3"]
        oldest = ledger.query(newest_first=False)
        assert oldest[0]["scenario"] == "s0"

    def test_query_filters_on_fields(self, ledger):
        _run(ledger, backend="reference")
        _run(ledger, backend="vectorized")
        assert len(ledger.query(backend="vectorized")) == 1
        assert ledger.query(backend="fpga") == []

    def test_query_filters_accept_query_string_values(self, ledger):
        # The service forwards query-string filters as strings; equality
        # must still match numeric record fields.
        _run(ledger, effective_cpus=4)
        assert len(ledger.query(effective_cpus="4")) == 1

    def test_time_range_filters(self, ledger):
        early = _run(ledger)
        late = _run(ledger)
        late["ts"] = early["ts"] + 100.0  # stamps are monotonic enough
        assert ledger.get(early["id"]) is not None
        assert [r["id"] for r in ledger.query(since=early["ts"])] != []

    def test_get_by_id(self, ledger):
        record = _run(ledger)
        assert ledger.get(record["id"])["id"] == record["id"]
        assert ledger.get("nope") is None

    def test_len_counts_everything(self, ledger):
        for _ in range(3):
            _run(ledger)
        assert len(ledger) == 3


class TestSegmentsAndCompaction:
    def test_appends_roll_into_sealed_segments(self, tmp_path):
        ledger = RunLedger(tmp_path / "history", max_segment_bytes=400)
        for i in range(12):
            _run(ledger, scenario=f"s{i}")
        sealed = [
            p for p in ledger.segments() if p.name.startswith("segment-")
        ]
        assert sealed, "small max_segment_bytes must seal segments"
        assert len(ledger) == 12
        assert ledger.query(limit=1)[0]["scenario"] == "s11"

    def test_prune_keep_newest(self, ledger):
        for i in range(6):
            _run(ledger, scenario=f"s{i}")
        kept, dropped = ledger.prune(keep=2)
        assert (kept, dropped) == (2, 4)
        assert [r["scenario"] for r in ledger.query()] == ["s5", "s4"]

    def test_prune_by_age(self, ledger):
        old = _run(ledger)
        cutoff = old["ts"] + 0.001
        fresh = _run(ledger)
        fresh_raw = ledger.current_path.read_text().splitlines()
        # Rewrite the newest record's ts to be clearly past the cutoff.
        doctored = json.loads(fresh_raw[-1])
        doctored["ts"] = cutoff + 100.0
        ledger.current_path.write_text(
            fresh_raw[0] + "\n" + json.dumps(doctored) + "\n"
        )
        kept, dropped = ledger.prune(older_than=cutoff)
        assert (kept, dropped) == (1, 1)
        assert ledger.query()[0]["id"] == fresh["id"]


class TestCorruptionTolerance:
    def test_truncated_trailing_line_is_skipped_not_fatal(self, ledger):
        full = _run(ledger)
        with open(ledger.current_path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "run", "scenario": "torn')  # crash mid-write
        records = ledger.query()
        assert [r["id"] for r in records] == [full["id"]]
        # And appending afterwards still works; the torn line stays dead.
        fresh = _run(ledger)
        assert {r["id"] for r in ledger.query()} == {full["id"], fresh["id"]}

    def test_binary_garbage_line_is_skipped(self, ledger):
        _run(ledger)
        with open(ledger.current_path, "ab") as handle:
            handle.write(b"\x00\xff garbage \xfe\n")
        _run(ledger)
        assert len(ledger.query()) == 2


class TestConcurrentAppends:
    def test_two_processes_lose_no_records(self, tmp_path):
        """Two writer processes interleave appends; every record survives."""
        root = tmp_path / "history"
        script = (
            "import sys\n"
            "from repro.obs.history import RunLedger\n"
            "ledger = RunLedger(sys.argv[1])\n"
            "tag = sys.argv[2]\n"
            "for i in range(50):\n"
            "    ledger.append({'kind': 'run', 'scenario': f'{tag}-{i}'})\n"
        )
        src_root = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ, PYTHONPATH=str(src_root))
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(root), tag], env=env
            )
            for tag in ("a", "b")
        ]
        for proc in procs:
            assert proc.wait(timeout=60) == 0
        ledger = RunLedger(root)
        scenarios = {r["scenario"] for r in ledger.query()}
        assert scenarios == {f"a-{i}" for i in range(50)} | {
            f"b-{i}" for i in range(50)
        }
        # Every line is valid JSON — no torn interleaved writes.
        for line in ledger.current_path.read_text().splitlines():
            json.loads(line)


class TestEnvironmentResolution:
    def test_history_dir_env_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_HISTORY_DIR", str(tmp_path / "explicit"))
        assert default_history_root() == tmp_path / "explicit"

    def test_cache_dir_fallback(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_HISTORY_DIR", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert default_history_root() == tmp_path / "cache" / "history"

    def test_disable_switch(self, monkeypatch):
        monkeypatch.setenv("REPRO_HISTORY", "0")
        assert history_enabled() is False
        monkeypatch.setenv("REPRO_HISTORY", "1")
        assert history_enabled() is True


class TestRecordBuilders:
    def test_distributed_report_records(self, ledger):
        payload = {
            "scenario": "mc-scaling",
            "backend": "reference",
            "shards": 8,
            "shard_block": 32,
            "realisations": 2000,
            "seed": 1234,
            "quick": False,
            "summary": {"effective_cpus": 1},
            "timings": [
                {
                    "worker_count": 1,
                    "wall_seconds": 2.0,
                    "throughput": 1000.0,
                    "mean_completion_time": 115.0,
                },
                {
                    "worker_count": 2,
                    "wall_seconds": 2.2,
                    "throughput": 909.0,
                    "mean_completion_time": 115.0,
                    "skipped": True,
                },
            ],
        }
        records = record_distributed_report(payload, ledger=ledger)
        assert len(records) == 2
        assert all(r["kind"] == "bench" for r in records)
        assert records[0]["worker_count"] == 1
        assert records[0]["skipped"] is False
        assert records[1]["skipped"] is True
        assert records[1]["effective_cpus"] == 1

    def test_engine_runs_record_automatically(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_HISTORY_DIR", str(tmp_path / "auto"))
        from repro.montecarlo.engine import EngineRequest, run_engine
        from repro.scenarios.registry import resolve

        run_engine(EngineRequest(spec=resolve("smoke", quick=True)))
        records = RunLedger(tmp_path / "auto").query()
        assert len(records) == 1
        record = records[0]
        assert record["kind"] == "run"
        assert record["scenario"] == "smoke"
        assert record["spec_hash"]
        assert record["attribution"]["plan_seconds"] >= 0
        assert set(record["timings"]) == {
            "execute_seconds", "block_compute_seconds", "merge_seconds",
        }
        assert record["effective_cpus"] >= 1

    def test_disabled_history_records_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_HISTORY_DIR", str(tmp_path / "off"))
        monkeypatch.setenv("REPRO_HISTORY", "0")
        from repro.montecarlo.engine import EngineRequest, run_engine
        from repro.scenarios.registry import resolve

        run_engine(EngineRequest(spec=resolve("smoke", quick=True)))
        assert not (tmp_path / "off").exists()
