"""End-to-end acceptance: `repro serve` in its own process.

The flow the service exists for — submit the fig3 gain sweep, poll to
completion, fetch the result by content hash, then prove that a *fresh*
server process answers the same submission from the cache without ever
importing numpy or scipy.  Import isolation is observable because each
server is a separate interpreter whose ``/healthz`` reports loaded heavy
modules.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
import time

import pytest

from repro.service.client import ServiceClient

REPO = pathlib.Path(__file__).resolve().parents[2]


class ServeProcess:
    """`python -m repro serve --port 0` with an isolated cache dir."""

    def __init__(self, cache_dir: str) -> None:
        self.cache_dir = cache_dir
        self.proc = None
        self.url = None

    def __enter__(self) -> "ServeProcess":
        env = dict(
            os.environ,
            PYTHONPATH=str(REPO / "src"),
            REPRO_CACHE_DIR=self.cache_dir,
        )
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        line = self.proc.stdout.readline()
        assert "listening on http://" in line, f"unexpected serve output: {line!r}"
        self.url = line.rsplit(" ", 1)[-1].strip()
        return self

    def __exit__(self, *exc_info) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=10)
        self.proc.stdout.close()


@pytest.fixture
def cache_dir(tmp_path):
    return str(tmp_path / "cache")


def test_fig3_sweep_submit_poll_fetch_then_cached_without_numpy(cache_dir):
    # ---- phase 1: a fresh service computes the fig3 sweep -----------------
    with ServeProcess(cache_dir) as server:
        client = ServiceClient(server.url, timeout=60.0)

        before = client.health()
        assert before["heavy_modules"] == {"numpy": False, "scipy": False}

        job = client.submit(scenario="fig3", quick=True)
        done = client.wait(job.id, timeout=300, interval=0.5)
        assert done.state == "done"
        (point,) = done.results
        assert point["from_cache"] is False
        content_hash = point["content_hash"]

        result = client.result(content_hash)
        assert result.kind == "fig3"
        assert "gain" in result.rendered.lower()
        assert "monte_carlo" in result.arrays
        etag = result.etag

        # Executing the sweep legitimately loaded the numerical stack.
        after = client.health()
        assert after["heavy_modules"]["numpy"] is True

    # ---- phase 2: a fresh process serves the same submission from cache --
    with ServeProcess(cache_dir) as server:
        client = ServiceClient(server.url, timeout=60.0)

        resubmit = client.submit(scenario="fig3", quick=True)
        # The fully cached job is terminal at submission time.
        assert resubmit.state == "done"
        (point,) = resubmit.results
        assert point["from_cache"] is True
        assert point["content_hash"] == content_hash
        assert point["headline"] == done.results[0]["headline"]

        # Fetch by content hash: same payload, same ETag, and 304 on replay.
        replay = client.result(content_hash)
        assert replay.etag == etag
        assert replay.rendered == result.rendered
        assert replay.scalars == result.scalars
        assert client.result(content_hash, etag=etag) is None

        # The entire request path ran without the numerical stack.
        health = client.health()
        assert health["jobs"]["done"] == 1
        assert health["heavy_modules"] == {"numpy": False, "scipy": False}


def test_serve_help_does_not_require_numerical_stack(cache_dir):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    out = subprocess.run(
        [sys.executable, "-m", "repro", "serve", "--help"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert "results service" in out.stdout
