"""The worker board, the board executor and the `repro worker` loop,
driven through a live in-process results service."""

import threading
import time

import pytest

from repro.distributed.worker import run_worker
from repro.service.shards import BoardExecutor, ShardBoard


def _quiet(*args, **kwargs):
    pass


class TestShardBoard:
    def test_register_claim_post_cycle(self):
        board = ShardBoard()
        worker_id = board.register("alpha")
        assert board.claim_batch(worker_id) == []
        item = {"id": "i1", "shard": 0}
        board.assign(worker_id, item)
        assert board.claim_batch(worker_id) == [item]
        assert board.post_result(worker_id, "i1", result={"blocks": []})
        (outcome,) = board.collect(timeout=0.1)
        assert outcome.ok and outcome.slot == worker_id

    def test_unknown_worker_rejected(self):
        board = ShardBoard()
        with pytest.raises(KeyError):
            board.claim_batch("w-404")

    def test_late_result_after_abandon_is_ignored(self):
        board = ShardBoard()
        worker_id = board.register("alpha")
        board.assign(worker_id, {"id": "i1", "shard": 0})
        assert board.claim_batch(worker_id)
        board.abandon(worker_id, "i1")
        assert not board.post_result(worker_id, "i1", result={})
        assert board.collect(timeout=0.05) == []

    def test_dead_worker_unclaimed_items_fail_over(self):
        board = ShardBoard(worker_timeout=0.1)
        worker_id = board.register("ghost")
        board.assign(worker_id, {"id": "i1", "shard": 3})
        time.sleep(0.15)
        (outcome,) = board.collect(timeout=0.5)
        assert not outcome.ok and outcome.shard == 3
        assert "stopped polling" in outcome.error
        assert worker_id not in board.live_workers()

    def test_busy_worker_is_not_declared_dead(self):
        """A worker mid-shard does not poll; its claim keeps it a slot."""
        board = ShardBoard(worker_timeout=0.1)
        worker_id = board.register("busy")
        board.assign(worker_id, {"id": "i1", "shard": 0})
        assert board.claim_batch(worker_id)
        time.sleep(0.15)
        assert worker_id in board.live_workers()
        assert board.collect(timeout=0.05) == []

    def test_long_dead_workers_are_purged_from_the_board(self):
        board = ShardBoard(worker_timeout=0.01)
        board.register("corpse")
        time.sleep(0.15)  # > 10x worker_timeout
        board.collect(timeout=0.01)
        assert board.worker_views() == []
        # Re-registration (the respawn pattern) also sweeps corpses.
        board2 = ShardBoard(worker_timeout=0.01)
        board2.register("first")
        time.sleep(0.15)
        board2.register("second")
        assert [w["name"] for w in board2.worker_views()] == ["second"]

    def test_worker_with_claimed_item_survives_purge(self):
        board = ShardBoard(worker_timeout=0.01)
        worker_id = board.register("busy")
        board.assign(worker_id, {"id": "i1", "shard": 0})
        assert board.claim_batch(worker_id)
        time.sleep(0.15)
        board.collect(timeout=0.01)
        assert worker_id in board.live_workers()

    def test_board_executor_adapts_the_interface(self):
        board = ShardBoard()
        executor = BoardExecutor(board)
        worker_id = board.register("alpha")
        assert executor.slots() == (worker_id,)
        executor.start(worker_id, {"id": "i1", "shard": 0})
        assert board.claim_batch(worker_id)
        board.post_result(worker_id, "i1", error="boom")
        (outcome,) = executor.poll(0.1)
        assert outcome.error == "boom"


class TestWorkerLoopAgainstService:
    @pytest.fixture(autouse=True)
    def isolated_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))

    def _start_workers(self, url, count, max_idle=60):
        threads = [
            threading.Thread(
                target=run_worker,
                args=(url,),
                kwargs=dict(name=f"test-{i}", max_idle=max_idle, log=_quiet),
                daemon=True,
            )
            for i in range(count)
        ]
        for thread in threads:
            thread.start()
        return threads

    def test_sharded_job_runs_on_remote_workers(self, background_service):
        from repro.service.client import ServiceClient

        with background_service() as service:
            client = ServiceClient(service.url, timeout=30.0)
            self._start_workers(service.url, 2)

            job = client.submit(scenario="smoke", shards=2, executor="workers")
            view = client.wait(job.id, timeout=120)
            assert view.state == "done"
            assert view.completed_points == 1

            fleet = client.shard_workers()
            assert len(fleet) == 2
            assert sum(w["completed_shards"] for w in fleet) >= 1

            events = list(client.events(job.id))
            shard_events = [e["shard_event"] for e in events if "shard_event" in e]
            assert any(e["event"] == "dispatch" for e in shard_events)
            assert any(e["event"] == "done" for e in shard_events)
            assert all(e["point"] == "smoke" for e in shard_events)

    def test_remote_result_matches_local_sharded_run(self, background_service):
        from repro.montecarlo.engine import EngineRequest, run_engine
        from repro.scenarios import resolve
        from repro.scenarios.orchestrator import apply_overrides
        from repro.service.client import ServiceClient

        spec = apply_overrides(resolve("smoke"), shards=2)
        local = run_engine(EngineRequest(spec=spec, executor="inline"))

        with background_service() as service:
            client = ServiceClient(service.url, timeout=30.0)
            self._start_workers(service.url, 1)
            job = client.submit(scenario="smoke", shards=2, executor="workers")
            view = client.wait(job.id, timeout=120)
            fetched = client.result(view.content_hashes[0])
        assert fetched.scalars["mean_completion_time"] == pytest.approx(
            float(local.estimate.summary.mean)
        )

    def test_fresh_fleet_job_needs_no_empty_claim(self, background_service):
        # Every claim parks until its shard is queued, so a job computed
        # point by point never sees a claim come back empty.
        from repro.distributed.worker import _CLAIMS
        from repro.service.client import ServiceClient

        empty = _CLAIMS.labels(outcome="empty")
        with background_service() as service:
            client = ServiceClient(service.url, timeout=30.0)
            self._start_workers(service.url, 1, max_idle=15)
            board = service.service.board
            deadline = time.monotonic() + 10
            while not any(w["parked"] for w in board.worker_views()):
                assert time.monotonic() < deadline, "the worker never parked"
                time.sleep(0.01)
            before = empty.get()
            job = client.submit(family="gain-sweep", quick=True, executor="workers")
            view = client.wait(job.id, timeout=120)
            added = empty.get() - before
        assert view.state == "done" and view.completed_points == 3
        assert added == 0

    def test_idle_worker_exits_at_max_idle(self, background_service):
        from repro.distributed.work import warm_block_runtime

        warm_block_runtime()  # time the claim loop, not first imports
        with background_service() as service:
            started = time.monotonic()
            code = run_worker(service.url, name="idler", max_idle=1, log=_quiet)
            elapsed = time.monotonic() - started
        assert code == 0
        # The claim parks for what is left of max_idle, not its full wait.
        assert 1.0 <= elapsed < 1.5

    def test_claim_whose_reply_is_lost_is_retried_under_its_token(
        self, background_service, monkeypatch
    ):
        from repro.service.client import ServiceClient

        claim_work_batch = ServiceClient.claim_work_batch
        lost, retried = [], []

        def lossy(self, worker_id, **kwargs):
            claim = claim_work_batch(self, worker_id, **kwargs)
            if lost and kwargs["token"] == lost[0][0]:
                retried.append(claim.items)
            elif claim.items and not lost:
                # The board has moved the items to `claimed`; the reply
                # never reaches the worker.
                lost.append((kwargs["token"], claim.items))
                raise ConnectionResetError("claim reply lost")
            return claim

        monkeypatch.setattr(ServiceClient, "claim_work_batch", lossy)
        # A stranded item would sit in `claimed` until the shard timeout;
        # the job must finish long before it.
        with background_service(shard_options={"shard_timeout": 30.0}) as service:
            client = ServiceClient(service.url, timeout=30.0)
            self._start_workers(service.url, 1, max_idle=15)
            job = client.submit(scenario="smoke", shards=2, executor="workers")
            view = client.wait(job.id, timeout=20)
        assert view.state == "done"
        ((_token, items),) = lost
        assert retried == [items]

    def test_executor_workers_without_fleet_fails_cleanly(self, background_service):
        from repro.service.client import ServiceClient

        with background_service(shard_options={"slot_wait": 1.0}) as service:
            client = ServiceClient(service.url, timeout=30.0)
            job = client.submit(
                scenario="smoke", shards=2, seed=999, executor="workers"
            )
            # No worker ever registers: the scheduler gives up after its
            # slot-wait and the job fails with a clear error.
            deadline = time.monotonic() + 30
            view = client.job(job.id)
            while time.monotonic() < deadline and not view.finished:
                time.sleep(0.2)
                view = client.job(job.id)
            assert view.state == "failed"
            assert "no executor slot" in view.error
