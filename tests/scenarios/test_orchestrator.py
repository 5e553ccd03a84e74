"""Orchestrator behaviour: caching, determinism, sweeps, shared executor."""

from __future__ import annotations

import numpy as np
import pytest

from repro.scenarios import Orchestrator, ResultCache
from repro.scenarios.registry import resolve
from repro.scenarios.spec import PolicySpec, ScenarioSpec, SystemSpec


@pytest.fixture
def orchestrator(tmp_path) -> Orchestrator:
    return Orchestrator(cache=ResultCache(tmp_path / "cache"))


def tiny_spec(**overrides) -> ScenarioSpec:
    base = dict(
        name="tiny",
        kind="mc_point",
        system=SystemSpec.paper(),
        workload=(20, 12),
        policy=PolicySpec(kind="lbp1", gain=0.35, sender=0, receiver=1),
        mc_realisations=4,
        seed=5,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestRun:
    def test_first_run_computes_second_hits_cache(self, orchestrator):
        first = orchestrator.run(tiny_spec())
        second = orchestrator.run(tiny_spec())
        assert not first.from_cache
        assert second.from_cache
        assert second.identical_to(first)

    def test_force_recomputes_to_identical_result(self, orchestrator):
        first = orchestrator.run(tiny_spec())
        forced = orchestrator.run(tiny_spec(), force=True)
        assert not forced.from_cache
        assert forced.identical_to(first)

    def test_seed_override_changes_hash_and_sample(self, orchestrator):
        base = orchestrator.run(tiny_spec())
        reseeded = orchestrator.run(tiny_spec(), seed=6)
        assert reseeded.spec_hash != base.spec_hash
        assert not np.array_equal(
            reseeded.arrays["completion_times"], base.arrays["completion_times"]
        )

    def test_run_by_registry_name(self, orchestrator):
        result = orchestrator.run("smoke")
        assert result.name == "smoke"
        assert result.scalars["num_realisations"] == 5
        assert orchestrator.run("smoke").from_cache

    def test_scalars_survive_json_round_trip_exactly(self, orchestrator):
        first = orchestrator.run(tiny_spec())
        second = orchestrator.run(tiny_spec())
        assert second.scalars["mean_completion_time"] == first.scalars[
            "mean_completion_time"
        ]
        assert isinstance(second.scalars["mean_completion_time"], float)

    def test_no_cache_mode(self, tmp_path):
        orchestrator = Orchestrator(cache=None, use_cache=False)
        assert orchestrator.cache is None
        result = orchestrator.run(tiny_spec())
        assert not result.from_cache

    def test_unknown_kind_rejected(self, orchestrator):
        with pytest.raises(ValueError, match="no runner"):
            orchestrator.run(tiny_spec(kind="fig3").with_(kind="nope"))

    def test_mc_point_matches_direct_monte_carlo(self, orchestrator):
        from repro.core.policies.lbp1 import LBP1
        from repro.montecarlo.engine import EngineRequest, mc_point_spec, run_engine

        spec = tiny_spec()
        result = orchestrator.run(spec)
        direct = run_engine(
            EngineRequest(
                spec=mc_point_spec(
                    spec.system.to_parameters(),
                    LBP1(0.35, sender=0, receiver=1),
                    spec.workload,
                    spec.mc_realisations,
                    spec.seed,
                )
            )
        ).estimate
        np.testing.assert_array_equal(
            result.arrays["completion_times"], direct.completion_times
        )


class TestSweepAndCompare:
    def test_sweep_runs_every_point_and_caches(self, orchestrator, monkeypatch):
        # Shrink the family for test speed: quick churn points at 2 realisations.
        from repro.scenarios import registry

        results = orchestrator.run_many(
            [s.with_(mc_realisations=2) for s in registry.get_family("churn").expand(True)]
        )
        assert len(results) == 3
        assert not any(r.from_cache for r in results)
        again = orchestrator.run_many(
            [s.with_(mc_realisations=2) for s in registry.get_family("churn").expand(True)]
        )
        assert all(r.from_cache for r in again)

    def test_sweep_expands_registered_family(self, orchestrator):
        from repro.scenarios import registry

        family = registry.ScenarioFamily(
            name="tmp-fam",
            description="throwaway family for this test",
            build=lambda quick: (
                tiny_spec(name="tmp-fam/a"),
                tiny_spec(name="tmp-fam/b", seed=6),
            ),
        )
        registry.register_family(family)
        try:
            points = registry.get_family("tmp-fam").expand(False)
            results = orchestrator.run_many(points)
            assert [r.name for r in results] == ["tmp-fam/a", "tmp-fam/b"]
            assert all(r.from_cache for r in orchestrator.run_many(points))
        finally:
            registry._FAMILIES.pop("tmp-fam", None)

    def test_compare_renders_headlines(self, orchestrator):
        orchestrator.run(tiny_spec())
        text = orchestrator.compare([tiny_spec(), tiny_spec(name="tiny-b")])
        assert "Scenario comparison" in text
        assert "tiny" in text
        assert "mean completion time" in text

    def test_delay_point_runner(self, orchestrator):
        spec = resolve("delay-sweep/d=0.5", quick=True).with_(mc_realisations=3)
        result = orchestrator.run(spec)
        assert result.scalars["winner"] in ("lbp1", "lbp2")
        assert result.scalars["delay_per_task"] == 0.5
        assert result.scalars["lbp1_mean"] > 0


class TestSharedExecutor:
    def test_serial_and_pooled_runs_are_bit_identical(self):
        from repro.distributed import executors

        serial = Orchestrator(cache=None, use_cache=False).run(tiny_spec())
        with Orchestrator(
            cache=None, use_cache=False, workers=2
        ) as pooled_orchestrator:
            pooled = pooled_orchestrator.run(tiny_spec())
        # The pooled point ran on the process-wide warm pool, which
        # outlives the orchestrator.
        assert executors._SHARED_POOLS[2]._pool is not None
        np.testing.assert_array_equal(
            pooled.arrays["completion_times"], serial.arrays["completion_times"]
        )

    def test_every_pooled_point_uses_the_one_warm_pool(self):
        # Unsharded points of any block count and a sharded point all land
        # on the same ``workers``-slot warm pool: no private pool, no pool
        # sized by the point's item count.
        from repro.distributed import executors

        executors.close_shared_pools()
        unsharded = [
            tiny_spec(mc_realisations=4 * blocks, shard_block=4, seed=blocks)
            for blocks in (1, 3, 8)
        ]
        sharded = tiny_spec(mc_realisations=16, shard_block=4, shards=2)
        serial = Orchestrator(cache=None, use_cache=False).run_many(
            unsharded + [sharded]
        )
        orchestrator = Orchestrator(cache=None, use_cache=False, workers=2)
        pooled = orchestrator.run_many(unsharded)
        assert set(executors._SHARED_POOLS) == {2}
        warm = executors._SHARED_POOLS[2]._pool
        assert warm is not None
        pooled.append(orchestrator.run(sharded))
        assert set(executors._SHARED_POOLS) == {2}
        assert executors._SHARED_POOLS[2]._pool is warm
        for inline, on_pool in zip(serial, pooled):
            np.testing.assert_array_equal(
                on_pool.arrays["completion_times"], inline.arrays["completion_times"]
            )
        orchestrator.close()
        assert executors._SHARED_POOLS[2]._pool is warm

    def test_sharded_runs_leave_the_shared_warm_pool_running(self):
        # A sharded run on ``process`` resolves the process-wide warm pool.
        # Neither closing the orchestrator nor switching its shard
        # executor between jobs (as the job service does) may shut it down.
        from repro.distributed import executors

        with Orchestrator(cache=None, use_cache=False, workers=2) as orchestrator:
            orchestrator.shard_executor = "process"
            orchestrator.run(tiny_spec(shards=2))
            shared = executors._SHARED_POOLS[2]
            warm = shared._pool
            assert warm is not None
            orchestrator.shard_executor = None
            orchestrator.run(tiny_spec(shards=2, seed=6))
            assert shared._pool is warm
        assert executors._SHARED_POOLS[2] is shared
        assert shared._pool is warm


class TestBackendOverride:
    def test_backend_override_caches_separately(self, orchestrator):
        spec = tiny_spec(mc_realisations=40)
        reference = orchestrator.run(spec)
        vectorized = orchestrator.run(spec, backend="vectorized")
        assert not vectorized.from_cache
        assert vectorized.scalars["backend"] == "vectorized"
        assert reference.spec_hash != vectorized.spec_hash
        # Each backend hits its own cache entry on the second run.
        assert orchestrator.run(spec).from_cache
        assert orchestrator.run(spec, backend="vectorized").from_cache

    def test_spec_level_backend_is_honoured(self, orchestrator):
        result = orchestrator.run(tiny_spec(backend="vectorized"))
        assert result.scalars["backend"] == "vectorized"

    def test_unknown_backend_fails_fast(self, orchestrator):
        with pytest.raises(ValueError, match="unknown execution backend"):
            orchestrator.run(tiny_spec(), backend="fpga")

    def test_backend_rejected_for_experiment_kinds(self, orchestrator):
        from repro.scenarios.orchestrator import BACKEND_AWARE_KINDS

        assert "mc_point" in BACKEND_AWARE_KINDS
        with pytest.raises(ValueError, match="cannot honour backend"):
            orchestrator.run("fig4", quick=True, backend="vectorized")

    def test_delay_point_honours_backend(self, orchestrator):
        spec = tiny_spec(kind="delay_point", policy=None, mc_realisations=30)
        result = orchestrator.run(spec, backend="vectorized")
        assert result.kind == "delay_point"
        assert np.isfinite(result.scalars["headline"])
