"""Distributed end-to-end acceptance: real processes, real sockets.

Boots `repro serve` plus two `repro worker` subprocesses and runs the
sharded gain-sweep (Fig. 3's Monte-Carlo curve) through the fleet — the
flow the CI ``distributed-e2e`` job executes.  Asserts that the work was
actually spread over both workers, that shard progress streamed, and that
a re-submission with a different shard count is served from the
block-level shard cache.
"""

from __future__ import annotations

import os
import pathlib
import re
import subprocess
import sys
import time

import pytest

from repro.service.client import ServiceClient

REPO = pathlib.Path(__file__).resolve().parents[2]

_SAMPLE_RE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})? (\S+)$")


def _samples(metrics_text: str):
    """Prometheus text → ``[(name, labels, value), ...]`` (comments skipped)."""
    out = []
    for line in metrics_text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        assert match is not None, f"unparseable metrics line: {line!r}"
        labels = dict(re.findall(r'([a-zA-Z_][a-zA-Z0-9_]*)="([^"]*)"',
                                 match.group(2) or ""))
        out.append((match.group(1), labels, float(match.group(3))))
    return out


def _total(samples, name: str, **labels: str) -> float:
    """Sum of every series of ``name`` whose labels include ``labels``."""
    return sum(
        value for sample_name, sample_labels, value in samples
        if sample_name == name
        and all(sample_labels.get(k) == v for k, v in labels.items())
    )


def _env(cache_dir: str) -> dict:
    return dict(
        os.environ,
        PYTHONPATH=str(REPO / "src"),
        REPRO_CACHE_DIR=cache_dir,
    )


class ServeProcess:
    """`python -m repro serve --port 0` with an isolated cache dir."""

    def __init__(self, cache_dir: str) -> None:
        self.cache_dir = cache_dir
        self.proc = None
        self.url = None

    def __enter__(self) -> "ServeProcess":
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            env=_env(self.cache_dir),
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


def _spawn_worker(url: str, cache_dir: str, name: str) -> subprocess.Popen:
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "worker",
            "--connect", url, "--name", name, "--max-idle", "120",
        ],
        env=_env(cache_dir),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


@pytest.fixture
def cache_dir(tmp_path):
    return str(tmp_path / "cache")


def test_sharded_gain_sweep_through_a_two_worker_fleet(cache_dir):
    with ServeProcess(cache_dir) as server:
        client = ServiceClient(server.url, timeout=60.0)
        workers = [
            _spawn_worker(server.url, cache_dir, name) for name in ("w-a", "w-b")
        ]
        try:
            # Wait until both workers appear on the board.
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if len(client.shard_workers()) == 2:
                    break
                time.sleep(0.2)
            assert len(client.shard_workers()) == 2

            # ---- the sharded fig3-gain sweep runs on the fleet ----------
            job = client.submit(family="gain-sweep", quick=True, executor="workers")
            done = client.wait(job.id, timeout=300, interval=0.5)
            assert done.state == "done"
            assert done.completed_points == done.total_points == 3
            assert all(point["from_cache"] is False for point in done.results)

            # Shard progress streamed over NDJSON.
            events = list(client.events(job.id))
            shard_events = [e["shard_event"] for e in events if "shard_event" in e]
            assert sum(1 for e in shard_events if e["event"] == "done") == 6

            # Both workers actually executed shards (load was balanced).
            fleet = client.shard_workers()
            per_worker = {w["name"]: w["completed_shards"] for w in fleet}
            assert all(count > 0 for count in per_worker.values()), per_worker

            # The merged means trace a sane fig3 curve (finite, positive).
            headline = {p["name"]: p["headline"] for p in done.results}
            assert all(value > 0 for value in headline.values())

            # ---- a different shard count re-uses the cached blocks ------
            resweep = client.submit(
                family="gain-sweep", quick=True, shards=3, executor="inline"
            )
            redone = client.wait(resweep.id, timeout=300, interval=0.5)
            assert redone.state == "done"
            for point in redone.results:
                # New shard count → new content hash → not a top-level cache
                # hit, but the merged mean is identical because every seed
                # block came back from the shard store.
                assert point["from_cache"] is False
                assert point["headline"] == headline[point["name"]]
            # Pure cache reads: no shard was dispatched to the fleet again.
            after = {w["name"]: w["completed_shards"] for w in client.shard_workers()}
            assert after == per_worker

            # ---- /metrics tells the same story in Prometheus text -------
            # (This is the scrape the CI distributed-e2e job performs: the
            # core series must exist and reflect the run above.)
            samples = _samples(client.metrics())
            assert _total(samples, "repro_jobs_submitted_total") == 2
            assert _total(samples, "repro_jobs_completed_total", state="done") == 2
            # Shard throughput: the fleet completed all six sweep shards.
            assert _total(samples, "repro_scheduler_shards_completed_total") >= 6
            assert _total(samples, "repro_scheduler_dispatch_total") >= 6
            # The resweep was fed entirely from the block-level shard cache.
            assert _total(samples, "repro_cache_requests_total",
                          store="shard", outcome="hit") > 0
            assert _total(samples, "repro_http_requests_total",
                          route="/v1/jobs", method="POST") == 2
            assert _total(samples, "repro_engine_phase_seconds_count",
                          phase="merge") > 0
            # Fleet telemetry piggybacked on claims/results surfaces as
            # worker-labelled series — one set per worker process.
            for name in ("w-a", "w-b"):
                assert _total(samples, "repro_worker_items_total",
                              worker=name, outcome="ok") > 0, name
                assert _total(samples, "repro_worker_blocks_total",
                              worker=name) > 0, name

            # ---- /v1/fleet aggregates the same telemetry as JSON --------
            fleet_summary = client.fleet()
            by_name = {w["name"]: w for w in fleet_summary["workers"]}
            assert set(by_name) >= {"w-a", "w-b"}
            for name in ("w-a", "w-b"):
                assert by_name[name]["items_ok"] > 0
                assert by_name[name]["busy_seconds"] > 0
            assert fleet_summary["fleet"]["size"] == 2
            assert fleet_summary["fleet"]["items_ok"] >= 6

            # ---- the job trace stitches spans from both worker processes
            spans = client.job_trace(job.id)
            worker_items = [s for s in spans if s["name"] == "worker.item"]
            remote_pids = {s["attrs"]["pid"] for s in worker_items}
            assert len(remote_pids) >= 2, (
                f"expected spans from >=2 worker processes, saw {remote_pids}"
            )
            # Every stitched span hangs off a scheduler.shard span that is
            # itself rooted in the job tree — no orphans.
            by_id = {s["span"]: s for s in spans}
            shard_ids = {
                s["span"] for s in spans if s["name"] == "scheduler.shard"
            }
            assert all(s["parent"] in shard_ids for s in worker_items)
            for item in worker_items:
                node = item
                while node["parent"] is not None:
                    node = by_id[node["parent"]]
                assert node["name"] == "job.point"
        finally:
            for worker in workers:
                worker.terminate()
            for worker in workers:
                try:
                    worker.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    worker.kill()
                    worker.wait(timeout=10)
                worker.stdout.close()


def test_worker_help_is_fast_and_stack_free(cache_dir):
    out = subprocess.run(
        [sys.executable, "-m", "repro", "worker", "--help"],
        env=_env(cache_dir),
        capture_output=True,
        text=True,
        check=True,
    )
    assert "shard" in out.stdout.lower()
