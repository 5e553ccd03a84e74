"""The repository benchmark's layer hooks still fit the program.

``perfbench/layers.py`` wraps program entry points from outside -- methods
are looked up in the class's own ``__dict__`` -- and reads fixed keys off
every engine report.  A refactor that moved a wrapped method onto a base
class, or renamed a report key, would otherwise surface only as a crash
(or silent zeros) in the traced benchmark run.
"""

from __future__ import annotations

import pathlib

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
                params=fast_params,
                policy=LBP1(0.5),
                workload=(20, 5),
                num_realisations=8,
                seed=3,
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
