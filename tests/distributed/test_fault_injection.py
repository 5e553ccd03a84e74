"""Fault injection: crashes mid-batch, slow-worker timeouts and duplicate
posts must never lose a block, double-merge a block, or change the merged
statistics.

The scripted scenarios run in tier-1 (faults injected through a chaos
executor and board/scheduler threads, real block execution inline); the
subprocess scenario — SIGKILL against a live ``repro worker`` — carries
the ``slow`` marker and runs in the CI bench job.
"""

import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.distributed.executors import ShardExecutor, ShardOutcome
from repro.distributed.scheduler import ShardScheduler
from repro.distributed.work import execute_work_item
from repro.service.shards import BoardExecutor, ShardBoard


class ChaosExecutor(ShardExecutor):
    """Inline execution with scripted faults, keyed by shard index.

    ``crash_once`` shards fail their first attempt with an error outcome
    (a worker crash surfaced to the scheduler); ``swallow_once`` shards
    silently vanish on their first attempt (a hung worker — only the shard
    timeout recovers them); ``duplicate`` shards report their success
    outcome twice (a worker retrying a post the scheduler already took).
    """

    name = "chaos"

    def __init__(self, crash_once=(), swallow_once=(), duplicate=()):
        self.crash_once = set(crash_once)
        self.swallow_once = set(swallow_once)
        self.duplicate = set(duplicate)
        self._queue = []
        self._abandoned = set()

    def slots(self):
        return ("chaos-0", "chaos-1")

    def start(self, slot, item):
        self._queue.append((slot, item))

    def poll(self, timeout):
        outcomes = []
        while self._queue and not outcomes:
            slot, item = self._queue.pop(0)
            if item["id"] in self._abandoned:
                continue
            shard = int(item["shard"])
            if shard in self.crash_once:
                self.crash_once.discard(shard)
                outcomes.append(
                    ShardOutcome(
                        item_id=item["id"], shard=shard, slot=slot,
                        error="injected worker crash",
                    )
                )
                continue
            if shard in self.swallow_once:
                self.swallow_once.discard(shard)
                continue
            result = execute_work_item(item)
            outcomes.append(
                ShardOutcome(
                    item_id=item["id"], shard=shard, slot=slot, result=result
                )
            )
            if shard in self.duplicate:
                self.duplicate.discard(shard)
                outcomes.append(
                    ShardOutcome(
                        item_id=item["id"], shard=shard, slot=slot,
                        result=dict(result),
                    )
                )
        return outcomes

    def abandon(self, slot, item_id):
        self._abandoned.add(item_id)


class TestEngineUnderFaults:
    """run_engine through a faulty executor stays ``==`` the serial run."""

    @pytest.fixture
    def request_kwargs(self, fast_params):
        from repro.core.policies.lbp1 import LBP1

        return dict(
            params=fast_params,
            policy=LBP1(gain=0.5),
            workload=(30, 30),
            seed=9001,
            num_realisations=48,
            block_size=6,
        )

    @pytest.fixture
    def serial(self, request_kwargs):
        from repro.montecarlo.engine import EngineRequest, run_engine

        return run_engine(EngineRequest(**request_kwargs, shards=1))

    def _run_chaotic(self, request_kwargs, **chaos):
        from repro.montecarlo.engine import EngineRequest, run_engine

        return run_engine(
            EngineRequest(
                **request_kwargs,
                shards=4,
                executor=ChaosExecutor(**chaos),
                shard_timeout=0.5,
            )
        )

    def _assert_identical(self, report, serial, request_kwargs):
        assert report.stats.mean == serial.stats.mean
        assert report.stats.variance == serial.stats.variance
        assert np.array_equal(
            report.estimate.completion_times, serial.estimate.completion_times
        )
        # No block lost, none double-merged.
        assert len(report.estimate.completion_times) == (
            request_kwargs["num_realisations"]
        )

    def test_crashed_attempts_are_retried_bit_identically(
        self, request_kwargs, serial
    ):
        report = self._run_chaotic(request_kwargs, crash_once={0, 2})
        self._assert_identical(report, serial, request_kwargs)

    def test_hung_attempts_time_out_and_reassign(self, request_kwargs, serial):
        report = self._run_chaotic(request_kwargs, swallow_once={1})
        self._assert_identical(report, serial, request_kwargs)

    def test_duplicate_outcomes_merge_exactly_once(
        self, request_kwargs, serial
    ):
        report = self._run_chaotic(request_kwargs, duplicate={0, 3})
        self._assert_identical(report, serial, request_kwargs)

    def test_compound_failure_storm(self, request_kwargs, serial):
        report = self._run_chaotic(
            request_kwargs, crash_once={0}, swallow_once={2}, duplicate={1}
        )
        self._assert_identical(report, serial, request_kwargs)


class TestBoardCrashMidBatch:
    """A worker dying mid-batch loses only its *unfinished* items."""

    def test_posted_items_survive_queued_items_fail_over(self):
        board = ShardBoard(worker_timeout=0.1)
        worker_id = board.register("crasher")
        for index in range(3):
            board.assign(worker_id, {"id": f"i{index}", "shard": index})
        claimed = board.claim_batch(worker_id, batch=2, token="c1")
        assert len(claimed) == 2
        assert board.post_result(
            worker_id, "i0", result={"shard": 0, "blocks": []}
        )
        # The worker dies: i1 is claimed-but-unfinished (left to the shard
        # timeout), i2 is queued-unclaimed (fails over immediately).
        time.sleep(0.15)
        outcomes = board.collect(timeout=0.5)
        by_shard = {o.shard: o for o in outcomes}
        assert by_shard[0].ok
        assert not by_shard[2].ok and "stopped polling" in by_shard[2].error
        assert 1 not in by_shard

    def test_scheduler_reassigns_only_unfinished_batch_items(self):
        board = ShardBoard(worker_timeout=0.2)
        crasher_done = []
        rescue_done = []
        rescue_stop = threading.Event()

        def crasher():
            worker_id = board.register("crasher")
            deadline = time.monotonic() + 5
            sequence = 0
            items = []
            while time.monotonic() < deadline and not items:
                sequence += 1
                items = board.claim_batch(
                    worker_id, batch=3, token=f"c{sequence}"
                )
                time.sleep(0.01)
            if items:
                first = items[0]
                board.post_result(
                    worker_id,
                    first["id"],
                    result={"shard": first["shard"], "blocks": []},
                )
                crasher_done.append(int(first["shard"]))
            # ... and dies without posting the rest of the batch.

        def rescue():
            # Joins the fleet only after the crash, mid-job.
            time.sleep(0.6)
            worker_id = board.register("rescue")
            sequence = 0
            while not rescue_stop.is_set():
                sequence += 1
                for item in board.claim_batch(
                    worker_id, batch=3, token=f"r{sequence}"
                ):
                    rescue_done.append(int(item["shard"]))
                    board.post_result(
                        worker_id,
                        item["id"],
                        result={"shard": item["shard"], "blocks": []},
                    )
                time.sleep(0.01)

        threads = [
            threading.Thread(target=crasher, daemon=True),
            threading.Thread(target=rescue, daemon=True),
        ]
        for thread in threads:
            thread.start()
        try:
            scheduler = ShardScheduler(
                BoardExecutor(board),
                shard_timeout=0.5,
                poll_interval=0.05,
            )
            items = {
                i: {"task": "t", "shard": i, "spec": {}, "blocks": [],
                    "version": 1}
                for i in range(3)
            }
            results = scheduler.run(items)
        finally:
            rescue_stop.set()
        assert set(results) == {0, 1, 2}
        # The crasher's posted shard was never re-executed; exactly the
        # two unfinished batch items moved to the rescue worker.
        assert len(crasher_done) == 1
        assert sorted(crasher_done + rescue_done) == [0, 1, 2]


@pytest.mark.slow
class TestWorkerKillSubprocess:
    """SIGKILL against a live ``repro worker`` process mid-batch."""

    @pytest.fixture(autouse=True)
    def isolated_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))

    def _spawn_worker(self, url, name):
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        return subprocess.Popen(
            [
                sys.executable, "-m", "repro", "worker",
                "--connect", url, "--name", name, "--batch", "2",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )

    def test_killed_worker_mid_batch_is_recovered(self, background_service):
        from repro.montecarlo.engine import EngineRequest, run_engine
        from repro.scenarios import resolve
        from repro.scenarios.orchestrator import apply_overrides
        from repro.service.client import ServiceClient

        spec = apply_overrides(resolve("smoke"), shards=6)
        local = run_engine(EngineRequest(spec=spec, executor="inline"))

        procs = []
        with background_service(
            shard_options={"shard_timeout": 3.0}
        ) as service:
            client = ServiceClient(service.url, timeout=30.0)
            try:
                procs.append(self._spawn_worker(service.url, "victim"))
                job = client.submit(
                    scenario="smoke", shards=6, executor="workers"
                )
                # Kill the victim the moment it holds claimed work.
                deadline = time.monotonic() + 60
                while time.monotonic() < deadline:
                    fleet = client.shard_workers()
                    if any(w["claimed_items"] > 0 for w in fleet):
                        break
                    time.sleep(0.05)
                procs[0].kill()
                procs.append(self._spawn_worker(service.url, "rescue"))
                view = client.wait(job.id, timeout=120)
                assert view.state == "done"
                fetched = client.result(view.content_hashes[0])
            finally:
                for proc in procs:
                    proc.kill()
                for proc in procs:
                    proc.wait(timeout=10)
        # Recovery is exact, not approximate: the reassigned blocks replay
        # the same seed streams, so the merged mean is bit-identical.
        assert fetched.scalars["mean_completion_time"] == float(
            local.estimate.summary.mean
        )
