"""End-to-end tests of sharded spec runs through the engine: the
acceptance gates.

* shard-count invariance — identical merged ``SummaryStatistics`` for
  1, 2 and 7 shards at a fixed master seed, on both backends;
* shard-level caching — a resumed run reuses completed blocks (hit
  counts asserted), and growing the ensemble computes only the delta.
"""

import contextlib
import threading
import time

import numpy as np
import pytest

from repro.distributed.executors import InlineExecutor, ProcessShardExecutor
from repro.distributed.store import ShardStore
from repro.distributed.work import execute_work_item, int_seed, policy_spec_of
from repro.montecarlo.engine import EngineRequest, run_engine
from repro.obs.history import ATTRIBUTION_KEYS
from repro.scenarios.spec import PolicySpec, ScenarioSpec, SystemSpec
from repro.service.shards import BoardExecutor, ShardBoard


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


def _spec(**overrides):
    base = ScenarioSpec(
        name="sharded-test",
        kind="mc_point",
        system=SystemSpec.paper(),
        workload=(20, 12),
        policy=PolicySpec(kind="lbp1", gain=0.35, sender=0, receiver=1),
        mc_realisations=20,
        seed=7,
        shards=1,
        shard_block=4,
    )
    return base.with_(**overrides) if overrides else base


def _run(spec, **execution):
    """One engine run of ``spec``; no ``store`` means no shard caching."""
    return run_engine(EngineRequest(spec=spec, **execution))


@contextlib.contextmanager
def _board_with_worker():
    """A worker-board executor served by one in-thread worker.

    The worker claims, executes and posts items the way ``repro worker``
    does, minus HTTP and frames.
    """
    board = ShardBoard()
    stop = threading.Event()

    def work():
        worker_id = board.register("ledger")
        while not stop.is_set():
            items = board.claim_batch(worker_id, batch=4)
            for item in items:
                board.post_result(
                    worker_id, item["id"], result=execute_work_item(item)
                )
            if not items:
                time.sleep(0.005)

    thread = threading.Thread(target=work, daemon=True)
    thread.start()
    try:
        yield BoardExecutor(board)
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


class TestShardCountInvariance:
    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_merged_summary_identical_across_1_2_7_shards(self, backend):
        """The headline guarantee, exact (``==``) on both backends."""
        store = ShardStore()
        summaries = {}
        times = {}
        for shards in (1, 2, 7):
            report = _run(
                _spec(shards=shards, backend=backend),
                executor="inline",
                store=store,
            )
            summaries[shards] = report.estimate.summary
            times[shards] = report.estimate.completion_times
        assert summaries[1] == summaries[2] == summaries[7]
        np.testing.assert_array_equal(times[1], times[2])
        np.testing.assert_array_equal(times[1], times[7])

    def test_executor_choice_does_not_change_results(self):
        inline = _run(_spec(shards=3), executor=InlineExecutor())
        with ProcessShardExecutor(2) as pool:
            pooled = _run(_spec(shards=3), executor=pool)
        assert inline.estimate.summary == pooled.estimate.summary
        np.testing.assert_array_equal(
            inline.estimate.completion_times, pooled.estimate.completion_times
        )

    def test_different_seeds_differ(self):
        a = _run(_spec(shards=2))
        b = _run(_spec(shards=2, seed=8))
        assert a.estimate.summary.mean != b.estimate.summary.mean


class TestCrossProcessTelemetry:
    """Trace propagation through a real pool; the ledger on every executor."""

    def test_pool_run_stitches_subprocess_spans(self):
        import os

        from repro.obs.trace import Tracer

        tracer = Tracer()
        with tracer.activate():
            with ProcessShardExecutor(2) as pool:
                pool.warm()
                _run(_spec(shards=4), executor=pool)

        by_name = {}
        for span in tracer.spans:
            by_name.setdefault(span.name, []).append(span)
        shard_spans = by_name.get("scheduler.shard", [])
        assert len(shard_spans) == 4
        # Worker spans executed in the pool subprocesses were shipped home
        # and grafted under their shard spans...
        shard_ids = {s.span_id for s in shard_spans}
        items = by_name.get("worker.item", [])
        assert len(items) == 4
        assert all(s.parent_id in shard_ids for s in items)
        assert by_name.get("worker.compute")
        # ...carrying foreign pids (the whole point of stitching).
        pids = {s.attrs.get("pid") for s in items}
        assert pids and os.getpid() not in pids
        # Offset normalization keeps every stitched span inside its
        # parent shard span's interval.
        shard_by_id = {s.span_id: s for s in shard_spans}
        for item in items:
            parent = shard_by_id[item.parent_id]
            assert item.start >= parent.start - 1e-9
            assert item.start + item.duration <= (
                parent.start + parent.duration + 1e-9
            )

    @pytest.mark.parametrize("executor", ["inline", "process", "board"])
    def test_attribution_components_sum_to_wall(self, executor):
        """Every executor kind yields the same report shape and identity."""
        if executor == "board":
            with _board_with_worker() as board_executor:
                report = _run(_spec(shards=4), executor=board_executor)
        else:
            report = _run(_spec(shards=4), executor=executor)
        assert report.shards_dispatched == 4
        assert tuple(report.attribution) == ATTRIBUTION_KEYS
        assert set(report.timings) == {
            "execute_seconds",
            "block_compute_seconds",
            "merge_seconds",
        }
        identity = sum(report.attribution.values())
        assert identity == pytest.approx(report.wall_seconds, rel=0.05)

    def test_phases_tile_the_wall_clock(self):
        """Plan, execute and merge are the whole run: no code between or
        around them goes untimed, so a preempted process cannot open a gap
        in the ledger's identity."""
        report = _run(_spec(shards=4), executor="inline")
        phases = (
            report.attribution["plan_seconds"]
            + report.timings["execute_seconds"]
            + report.timings["merge_seconds"]
        )
        assert phases == pytest.approx(report.wall_seconds, rel=1e-9)


class TestShardLevelCaching:
    def test_second_run_is_pure_cache_read(self):
        store = ShardStore()
        first = _run(_spec(shards=2), store=store)
        assert first.blocks_cached == 0 and first.blocks_total == 5
        assert store.hits == 0 and store.misses == 5

        resumed = _run(_spec(shards=2), store=store)
        assert resumed.blocks_cached == 5
        assert resumed.shards_dispatched == 0
        assert store.hits == 5
        assert resumed.estimate.summary == first.estimate.summary

    def test_blocks_shared_across_shard_counts(self):
        store = ShardStore()
        _run(_spec(shards=7), store=store)
        other = _run(_spec(shards=2), store=store)
        assert other.blocks_cached == other.blocks_total == 5

    def test_growing_the_ensemble_computes_only_the_delta(self):
        store = ShardStore()
        _run(_spec(shards=2, mc_realisations=20), store=store)
        grown = _run(_spec(shards=2, mc_realisations=28), store=store)
        # 20→28 at block 4: blocks 0–4 are reused, blocks 5–6 are new.
        assert grown.blocks_total == 7
        assert grown.blocks_cached == 5
        assert grown.estimate.summary.n == 28

    def test_prefix_sample_is_preserved_when_growing(self):
        store = ShardStore()
        small = _run(_spec(shards=2, mc_realisations=20), store=store)
        grown = _run(_spec(shards=2, mc_realisations=28), store=store)
        np.testing.assert_array_equal(
            grown.estimate.completion_times[:20], small.estimate.completion_times
        )

    def test_use_store_false_never_touches_disk(self, tmp_path):
        """A run given no ``store`` neither reads nor writes blocks."""
        report = _run(_spec(shards=2))
        assert report.blocks_cached == 0
        assert len(ShardStore()) == 0

    def test_refresh_recomputes_and_repairs_the_store(self):
        """``refresh`` ignores stored blocks but overwrites them — the
        repair path a ``--force`` run provides."""
        from repro.distributed.plan import block_key, plan_blocks, shard_plan_key

        store = ShardStore()
        first = _run(_spec(shards=2), store=store)

        # Poison one stored block, then refresh: the bad entry is replaced.
        plan = shard_plan_key(_spec(shards=2))
        block = plan_blocks(20, 4)[0]
        poisoned = dict(store.get(block_key(plan, block)))
        poisoned["completion_times"] = [0.0] * 4
        store.put(block_key(plan, block), poisoned)

        reads_before = store.hits + store.misses  # poison read included
        refreshed = _run(_spec(shards=2), store=store, refresh=True)
        assert refreshed.blocks_cached == 0
        assert store.hits + store.misses == reads_before  # no store reads
        assert refreshed.estimate.summary == first.estimate.summary

        # And the store now serves the repaired blocks again.
        resumed = _run(_spec(shards=2), store=store)
        assert resumed.blocks_cached == 5
        assert resumed.estimate.summary == first.estimate.summary

    def test_interrupted_run_keeps_completed_blocks(self):
        """Blocks persist shard-by-shard, so a failed run resumes."""
        from repro.distributed.executors import InlineExecutor
        from repro.distributed.scheduler import ShardExecutionError

        class ExplodeOnSecondShard(InlineExecutor):
            def __init__(self):
                super().__init__()
                self.completed = 0

            def poll(self, timeout):
                if self.completed >= 1 and self._queue:
                    self._queue.clear()
                    raise ShardExecutionError("injected crash mid-run")
                outcomes = super().poll(timeout)
                self.completed += len(outcomes)
                return outcomes

        store = ShardStore()
        with pytest.raises(ShardExecutionError):
            _run(
                _spec(shards=5), executor=ExplodeOnSecondShard(), store=store
            )
        assert len(store) == 1  # the finished shard's block survived

        resumed = _run(_spec(shards=5), store=store)
        assert resumed.blocks_cached == 1
        assert resumed.blocks_total == 5


class TestHelpers:
    def test_policy_spec_round_trip(self):
        from repro.core.policies.lbp1 import LBP1
        from repro.core.policies.lbp2 import LBP2

        spec = policy_spec_of(LBP1(0.4, sender=0, receiver=1))
        assert spec.kind == "lbp1" and spec.gain == 0.4
        spec = policy_spec_of(LBP2(1.0, compensate=False))
        assert spec.kind == "lbp2" and not spec.compensate

    def test_int_seed_is_deterministic_and_int(self):
        child = np.random.SeedSequence(7).spawn(2)[1]
        assert int_seed(child) == int_seed(np.random.SeedSequence(7).spawn(2)[1])
        assert int_seed(5) == 5
        assert int_seed(None) == 0

    def test_requires_sharded_spec(self):
        """The distributed benchmark times sharded runs only; an explicit
        zero shard count is refused before any pool starts."""
        from repro.backends.bench import run_distributed_benchmark

        with pytest.raises(ValueError, match="shards >= 1"):
            run_distributed_benchmark(_spec(), shards=0, worker_counts=(1,))
