"""The repository benchmark's layer hooks still fit the program.

``perfbench/layers.py`` wraps program entry points from outside -- methods
are looked up in the class's own ``__dict__`` -- and reads fixed keys off
every engine report.  A refactor that moved a wrapped method onto a base
class, or renamed a report key, would otherwise surface only as a crash
(or silent zeros) in the traced benchmark run.
"""

from __future__ import annotations

import pathlib

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def test_program_trace_hooks_fit_one_inline_engine_run(monkeypatch, fast_params):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers

    from repro.core.policies import LBP1
    from repro.montecarlo import engine

    original = engine.run_engine
    trace = layers.ProgramTrace()
    trace.install()
    try:
        report = engine.run_engine(
            engine.EngineRequest(
                spec=engine.mc_point_spec(fast_params, LBP1(0.5), (20, 5), 8, seed=3),
                executor="inline",
            )
        )
    finally:
        trace.uninstall()
    assert engine.run_engine is original

    assert {"merge_seconds", "block_compute_seconds", "execute_seconds"} <= set(
        report.timings
    )
    assert {
        "wire_seconds",
        "deserialize_seconds",
        "dispatch_seconds",
        "idle_seconds",
    } <= set(report.attribution)
    # The wrappers saw the run: one engine entry, and every realisation
    # counted at the reference kernel.
    assert len(trace.entries) == 1
    assert trace.kernel_realisations["reference"] == 8


def test_run_records_feed_the_fleet_ledger_entry(monkeypatch, fast_params):
    """The fleet workload reads its engine rows off run-history records;
    a pinned and an unpinned run's record both count as one slot."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    from repro.core.policies import LBP1
    from repro.montecarlo import engine
    from repro.obs.history import default_ledger

    for shards in (2, None):
        engine.run_engine(
            engine.EngineRequest(
                spec=engine.mc_point_spec(
                    fast_params, LBP1(0.5), (20, 5), 8, seed=3, block_size=2
                ),
                shards=shards,
            )
        )
    records = default_ledger().query(kind="run", newest_first=False)
    assert [record["shards_dispatched"] for record in records] == [2, 4]
    for record in records:
        entry = workloads._ledger_entry(record)
        timings, attribution = record["timings"], record["attribution"]
        assert entry["slots"] == 1.0
        assert entry["shards"] == record["shards_dispatched"]
        assert entry["blocks_total"] == record["blocks_total"] == 4
        assert entry["blocks_cached"] == record["blocks_cached"] == 0
        assert entry["merge_s"] == timings["merge_seconds"]
        assert entry["compute_s"] == timings["block_compute_seconds"]
        assert entry["execute_s"] == timings["execute_seconds"]
        assert entry["overhead_s"] == pytest.approx(
            sum(
                attribution[key]
                for key in (
                    "wire_seconds",
                    "deserialize_seconds",
                    "dispatch_seconds",
                    "idle_seconds",
                )
            )
        )
