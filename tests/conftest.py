"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.parameters import (
    NodeParameters,
    SystemParameters,
    TransferDelayModel,
    paper_parameters,
)
from repro.sim.engine import Environment
from repro.sim.rng import RandomStreams


@pytest.fixture(autouse=True)
def isolated_history(tmp_path, monkeypatch):
    """Point the run-history ledger at a per-test directory.

    Every ``run_engine`` call appends a run record, so without this the
    suite would write into (and be influenced by) ``~/.cache/repro``.
    """
    monkeypatch.setenv("REPRO_HISTORY_DIR", str(tmp_path / "history"))


def _bit_flips(path):
    original = path.read_bytes()
    fd = os.open(path, os.O_WRONLY)
    try:
        for index, byte in enumerate(original):
            for bit in range(8):
                os.pwrite(fd, bytes([byte ^ (1 << bit)]), index)
                yield index, bit
            os.pwrite(fd, bytes([byte]), index)
    finally:
        os.close(fd)


@pytest.fixture
def bit_flips():
    """``bit_flips(path)`` flips each bit of a file in place, one at a time
    (all 8 masks of every byte), yielding ``(index, bit)`` while the
    damaged byte is on disk; a finished sweep leaves the file as it was."""
    return _bit_flips


@pytest.fixture
def env() -> Environment:
    """A fresh simulation environment."""
    return Environment()


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic NumPy generator."""
    return np.random.default_rng(12345)


@pytest.fixture
def streams() -> RandomStreams:
    """A deterministic random-stream collection."""
    return RandomStreams(12345)


@pytest.fixture
def paper_params() -> SystemParameters:
    """The paper's two-node system (with failures)."""
    return paper_parameters()


@pytest.fixture
def no_failure_params() -> SystemParameters:
    """The paper's two-node system with failures switched off."""
    return paper_parameters(with_failures=False)


@pytest.fixture
def fast_params() -> SystemParameters:
    """A small, quick-to-simulate two-node system with failures.

    Service is fast relative to the workload sizes used in tests, so
    Monte-Carlo based tests stay well under a second.
    """
    return SystemParameters(
        nodes=(
            NodeParameters(service_rate=5.0, failure_rate=0.2, recovery_rate=0.5,
                           name="fast-a"),
            NodeParameters(service_rate=8.0, failure_rate=0.2, recovery_rate=0.4,
                           name="fast-b"),
        ),
        delay=TransferDelayModel(mean_delay_per_task=0.01),
    )


@pytest.fixture
def three_node_params() -> SystemParameters:
    """A small three-node system with churn (for multi-node tests)."""
    return SystemParameters(
        nodes=(
            NodeParameters(service_rate=2.0, failure_rate=0.1, recovery_rate=0.2),
            NodeParameters(service_rate=1.0, failure_rate=0.05, recovery_rate=0.1),
            NodeParameters(service_rate=0.5, failure_rate=0.02, recovery_rate=0.1),
        ),
        delay=TransferDelayModel(mean_delay_per_task=0.02),
    )
