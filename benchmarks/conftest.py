"""Shared configuration of the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures (or an
ablation of a design choice).  The functions under test are full experiment
drivers, so each benchmark executes a single round — the interesting output
is the regenerated table/series (printed to stdout, compare against the
paper's numbers in the ``PAPER_*`` constants of ``repro.experiments.common``)
together with the wall-clock time pytest-benchmark records.

Run with::

    pytest benchmarks/ --benchmark-only -s
"""

from __future__ import annotations

import pytest


def run_once(benchmark, function, *args, **kwargs):
    """Run ``function`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)


@pytest.fixture
def bench_once():
    """Fixture exposing the single-round benchmark helper."""
    return run_once
