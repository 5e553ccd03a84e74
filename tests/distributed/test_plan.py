"""Tests for seed-block planning and shard-cache key derivation."""

import numpy as np
import pytest

from repro.distributed.plan import (
    SeedBlock,
    block_key,
    block_seed,
    plan_blocks,
    plan_shards,
    shard_plan_key,
)
from repro.scenarios.spec import PolicySpec, ScenarioSpec, SystemSpec


def _spec(**overrides):
    base = ScenarioSpec(
        name="plan-test",
        kind="mc_point",
        system=SystemSpec.paper(),
        workload=(10, 6),
        policy=PolicySpec(kind="lbp1", gain=0.35, sender=0, receiver=1),
        mc_realisations=20,
        seed=7,
        shards=2,
        shard_block=4,
    )
    return base.with_(**overrides) if overrides else base


class TestBlockPlanning:
    def test_blocks_cover_ensemble_without_overlap(self):
        blocks = plan_blocks(21, 4)
        assert [b.to_item() for b in blocks] == [
            (0, 0, 4), (1, 4, 8), (2, 8, 12), (3, 12, 16), (4, 16, 20), (5, 20, 21),
        ]
        assert sum(b.num_realisations for b in blocks) == 21

    def test_single_block_when_block_size_exceeds_ensemble(self):
        blocks = plan_blocks(5, 32)
        assert len(blocks) == 1 and blocks[0].to_item() == (0, 0, 5)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            plan_blocks(0, 4)
        with pytest.raises(ValueError):
            plan_blocks(4, 0)

    def test_growing_the_ensemble_keeps_full_block_prefix(self):
        """The delta property: old full blocks keep index *and* range."""
        small = plan_blocks(64, 32)
        large = plan_blocks(96, 32)
        assert large[: len(small)] == small


class TestShardPartitioning:
    def test_even_contiguous_split(self):
        blocks = plan_blocks(28, 4)  # 7 blocks
        shards = plan_shards(blocks, 3)
        assert [s.block_indices for s in shards] == [(0, 1, 2), (3, 4), (5, 6)]

    def test_shard_count_capped_at_block_count(self):
        blocks = plan_blocks(8, 4)  # 2 blocks
        shards = plan_shards(blocks, 7)
        assert len(shards) == 2
        with pytest.raises(ValueError):
            plan_shards(blocks, 0)

    def test_one_shard_takes_everything(self):
        blocks = plan_blocks(20, 4)
        (shard,) = plan_shards(blocks, 1)
        assert shard.block_indices == (0, 1, 2, 3, 4)
        assert shard.num_realisations == 20


class TestBlockSeeds:
    def test_depends_only_on_master_and_index(self):
        a = block_seed(7, 3)
        b = block_seed(7, 3)
        assert a.entropy == b.entropy and a.spawn_key == b.spawn_key
        assert block_seed(7, 4).spawn_key != a.spawn_key
        assert block_seed(8, 3).entropy != a.entropy

    def test_distinct_from_realisation_spawns(self):
        """Block streams never collide with plain spawned children."""
        master = np.random.SeedSequence(7)
        children = master.spawn(10)
        block = block_seed(7, 0)
        assert all(block.spawn_key != child.spawn_key for child in children)

    def test_accepts_seed_sequence_master(self):
        child = np.random.SeedSequence(5, spawn_key=(2,))
        seed = block_seed(child, 1)
        assert seed.spawn_key[:1] == (2,)


class TestShardCacheKeys:
    def test_plan_key_ignores_shard_grouping_and_size(self):
        base = shard_plan_key(_spec())
        assert shard_plan_key(_spec(shards=7)) == base
        assert shard_plan_key(_spec(mc_realisations=40)) == base
        assert shard_plan_key(_spec(shard_block=8)) == base
        assert shard_plan_key(_spec(name="renamed")) == base

    def test_plan_key_tracks_everything_that_changes_samples(self):
        base = shard_plan_key(_spec())
        assert shard_plan_key(_spec(seed=8)) != base
        assert shard_plan_key(_spec(backend="vectorized")) != base
        assert shard_plan_key(_spec(workload=(10, 7))) != base
        assert (
            shard_plan_key(_spec(policy=PolicySpec(kind="lbp2", gain=1.0))) != base
        )

    def test_block_keys_distinguish_index_and_range(self):
        plan = shard_plan_key(_spec())
        k = block_key(plan, SeedBlock(0, 0, 4))
        assert block_key(plan, SeedBlock(1, 4, 8)) != k
        assert block_key(plan, SeedBlock(0, 0, 8)) != k
        assert block_key(plan, SeedBlock(0, 0, 4)) == k
