"""Property tests for the unpinned shard count and the shard planner:
exact block coverage, size bounds and seed-stream invariance under any
shard count — plus the engine-level guarantee that a grown cached run
plans its delta in one scheduler pass and merges to the serial
statistics."""

import numpy as np
import pytest

from repro.distributed.plan import (
    SHARDS_PER_SLOT,
    block_seed,
    plan_blocks,
    plan_shards,
)


def _cases():
    rng = np.random.default_rng(20260808)
    for _ in range(200):
        num_blocks = int(rng.integers(1, 400))
        slots = int(rng.integers(1, 33))
        # A pinned count may be anything >= 1, above the block count too.
        count = int(rng.integers(1, num_blocks + 6))
        yield num_blocks, slots, count


class TestAdaptiveShardCount:
    def test_count_always_within_bounds(self):
        # The engine's unpinned rule: SHARDS_PER_SLOT shards per slot,
        # capped at the block count by plan_shards.
        for num_blocks, slots, _ in _cases():
            blocks = plan_blocks(num_blocks * 10, 10)
            count = len(plan_shards(blocks, slots * SHARDS_PER_SLOT))
            assert 1 <= count <= num_blocks
            # Never idle a slot that could hold a block.
            assert count >= min(slots, num_blocks)


class TestPlanShardsUnderSizing:
    def test_every_block_covered_exactly_once(self):
        for num_blocks, _, count in _cases():
            shards = plan_shards(plan_blocks(num_blocks * 10, 10), count)
            assert len(shards) == min(count, num_blocks)
            assert [s.index for s in shards] == list(range(len(shards)))
            covered = [b.index for shard in shards for b in shard.blocks]
            assert covered == list(range(num_blocks))

    def test_shard_sizes_differ_by_at_most_one(self):
        for num_blocks, _, count in _cases():
            shards = plan_shards(plan_blocks(num_blocks * 10, 10), count)
            sizes = [len(s.blocks) for s in shards]
            assert max(sizes) - min(sizes) <= 1

    def test_block_seed_streams_invariant_under_regrouping(self):
        # The whole bit-identity argument: a block's seed stream depends
        # on the master seed and block index alone, so any shard count
        # replays identical randomness.
        blocks = plan_blocks(80, 10)
        direct = [
            np.random.default_rng(block_seed(777, block.index)).random(4)
            for block in blocks
        ]
        for count in (1, 3, 8):
            grouped = [
                np.random.default_rng(block_seed(777, block.index)).random(4)
                for shard in plan_shards(blocks, count)
                for block in shard.blocks
            ]
            assert np.array_equal(np.stack(grouped), np.stack(direct))


class TestEngineAdaptiveEquivalence:
    @pytest.fixture
    def request_kwargs(self, fast_params):
        from repro.core.policies.lbp1 import LBP1

        return dict(
            params=fast_params,
            policy=LBP1(gain=0.5),
            workload=(30, 30),
            seed=4242,
            num_realisations=48,
            block_size=6,
        )

    def test_cached_wall_seconds_calibrate_without_a_probe(
        self, request_kwargs, tmp_path, monkeypatch
    ):
        from repro.distributed.scheduler import ShardScheduler
        from repro.distributed.store import ShardStore
        from repro.montecarlo.engine import EngineRequest, mc_point_spec, run_engine

        store = ShardStore(tmp_path / "store")
        first = run_engine(
            EngineRequest(spec=mc_point_spec(**request_kwargs), store=store)
        )
        passes = []
        original = ShardScheduler.run

        def counting_run(scheduler, items):
            passes.append(len(items))
            return original(scheduler, items)

        monkeypatch.setattr(ShardScheduler, "run", counting_run)
        grown = mc_point_spec(**dict(request_kwargs, num_realisations=96))
        second = run_engine(EngineRequest(spec=grown, store=store))
        # The grown run reads its 8 old blocks from the cache and cuts
        # the 8-block delta by the one-slot rule: no probe wave, a single
        # pass of 4 shards, whose blocks record their own compute time.
        assert second.blocks_cached == first.blocks_total == 8
        assert passes == [SHARDS_PER_SLOT]
        assert second.shards_dispatched == SHARDS_PER_SLOT
        assert second.timings["block_compute_seconds"] > 0.0
        serial = run_engine(EngineRequest(spec=grown, shards=1, refresh=True))
        assert serial.stats.mean == second.stats.mean
        assert serial.stats.variance == second.stats.variance
