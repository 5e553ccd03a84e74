"""The unified engine: the cross-engine equivalence matrix and its contracts.

The matrix is the acceptance gate of the one-engine refactor: for each
backend, a serial (inline) run, a process-pooled run, a shared-futures run
and 1/2/7-shard spec runs of the same request must return **exact** (``==``)
merged statistics — mean, variance, confidence interval and percentiles —
and bit-identical completion-time arrays.
"""

import numpy as np
import pytest

from repro.core.policies.lbp1 import LBP1
from repro.montecarlo.engine import EngineRequest, run_engine
from repro.scenarios.spec import PolicySpec, ScenarioSpec, SystemSpec


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


def _request(fast_params, backend=None, **overrides):
    base = dict(
        params=fast_params,
        policy=LBP1(0.4, sender=0, receiver=1),
        workload=(20, 12),
        num_realisations=20,
        seed=7,
        backend=backend,
        block_size=4,
    )
    base.update(overrides)
    return EngineRequest(**base)


def _spec(backend, shards):
    return ScenarioSpec(
        name="engine-matrix",
        kind="mc_point",
        system=SystemSpec.paper(),
        workload=(20, 12),
        policy=PolicySpec(kind="lbp1", gain=0.4, sender=0, receiver=1),
        mc_realisations=20,
        seed=7,
        backend=backend,
        shards=shards,
        shard_block=4,
    )


@pytest.mark.engine_equivalence
class TestCrossEngineEquivalence:
    """serial == pooled == futures == 1/2/7-shard merged, both backends."""

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_equivalence_matrix(self, backend):
        from concurrent.futures import ThreadPoolExecutor

        paper = SystemSpec.paper().to_parameters()
        runs = {}
        runs["serial"] = run_engine(_request(paper, backend))
        runs["pooled"] = run_engine(
            _request(paper, backend, executor="process", workers=2)
        )
        with ThreadPoolExecutor(max_workers=3) as pool:
            runs["futures"] = run_engine(_request(paper, backend, executor=pool))
        for shards in (1, 2, 7):
            runs[f"shards-{shards}"] = run_engine(
                EngineRequest(spec=_spec(backend, shards), executor="inline")
            )

        baseline = runs["serial"].estimate
        for mode, report in runs.items():
            estimate = report.estimate
            # Exact (==) merged statistics from one code path.
            assert estimate.summary == baseline.summary, mode
            assert estimate.stats.mean == baseline.stats.mean, mode
            assert estimate.stats.variance == baseline.stats.variance, mode
            assert (
                estimate.summary.ci_low,
                estimate.summary.ci_high,
            ) == (baseline.summary.ci_low, baseline.summary.ci_high), mode
            for q in (0, 25, 50, 90, 100):
                assert estimate.percentile(q) == baseline.percentile(q), mode
            np.testing.assert_array_equal(
                estimate.completion_times, baseline.completion_times
            )

    def test_backends_draw_different_but_same_sized_samples(self, fast_params):
        reference = run_engine(_request(fast_params, "reference")).estimate
        vectorized = run_engine(_request(fast_params, "vectorized")).estimate
        assert reference.num_realisations == vectorized.num_realisations
        assert not np.array_equal(
            reference.completion_times, vectorized.completion_times
        )


class TestEngineBehaviour:
    def test_requires_positive_realisations(self, fast_params):
        with pytest.raises(ValueError, match="num_realisations"):
            run_engine(_request(fast_params, num_realisations=0))

    def test_unseeded_runs_draw_fresh_entropy(self, fast_params):
        """seed=None must not collapse to a fixed seed via spec synthesis."""
        first = run_engine(_request(fast_params, seed=None)).estimate
        second = run_engine(_request(fast_params, seed=None)).estimate
        assert not np.array_equal(
            first.completion_times, second.completion_times
        )

    def test_adhoc_requests_still_run_everywhere(self, fast_params):
        """A horizon-carrying request cannot be spec-described, but inline
        and pooled execution must still agree exactly."""
        serial = run_engine(_request(fast_params, horizon=1e9))
        pooled = run_engine(
            _request(fast_params, horizon=1e9, executor="process", workers=2)
        )
        np.testing.assert_array_equal(
            serial.estimate.completion_times, pooled.estimate.completion_times
        )
        assert serial.estimate.summary == pooled.estimate.summary

    def test_adhoc_and_spec_described_runs_are_bit_identical(self, fast_params):
        """int seeds and SeedSequence(seed) draw the same block streams, so
        the ad-hoc API and an equivalent spec agree exactly."""
        paper = SystemSpec.paper().to_parameters()
        adhoc = run_engine(_request(paper, "reference")).estimate
        spec_run = run_engine(
            EngineRequest(spec=_spec("reference", 1), executor="inline")
        ).estimate
        np.testing.assert_array_equal(
            adhoc.completion_times, spec_run.completion_times
        )

    def test_every_run_can_use_the_shard_store(self, fast_params):
        """Unsharded runs read/write the block cache: resume + delta growth."""
        from repro.distributed.store import ShardStore

        store = ShardStore()
        paper = SystemSpec.paper().to_parameters()
        first = run_engine(_request(paper, store=store))
        assert first.blocks_cached == 0 and first.blocks_total == 5

        resumed = run_engine(_request(paper, store=store))
        assert resumed.blocks_cached == 5
        assert resumed.shards_dispatched == 0
        assert resumed.estimate.summary == first.estimate.summary

        grown = run_engine(_request(paper, store=store, num_realisations=28))
        assert grown.blocks_total == 7 and grown.blocks_cached == 5
        np.testing.assert_array_equal(
            grown.estimate.completion_times[:20], first.estimate.completion_times
        )

    def test_unsharded_blocks_serve_sharded_runs_and_vice_versa(self, fast_params):
        """The block cache is shared across shard counts including zero."""
        from repro.distributed.store import ShardStore

        store = ShardStore()
        paper = SystemSpec.paper().to_parameters()
        run_engine(_request(paper, "reference", store=store))  # unsharded
        sharded = run_engine(
            EngineRequest(spec=_spec("reference", 7), store=store)
        )
        assert sharded.blocks_cached == sharded.blocks_total == 5

    def test_custom_policy_falls_back_to_adhoc_mode(self, fast_params):
        from repro.core.policies.base import LoadBalancingPolicy
        from repro.distributed.store import ShardStore

        class Quirky(LoadBalancingPolicy):
            name = "quirky"

            def initial_transfers(self, loads, params):
                return []

        store = ShardStore()
        report = run_engine(
            _request(fast_params, policy=Quirky(), store=store)
        )
        # No spec identity -> no block-cache entries, but the run succeeds.
        assert report.estimate.num_realisations == 20
        assert len(store) == 0

    @pytest.mark.parametrize(
        "shape",
        [
            "custom-policy",
            "horizon",
            "pairwise-delays",
            "system-kwargs",
            "spawned-seed",
            "backend-instance",
        ],
    )
    def test_json_transport_still_rejects_unregistered_policies(
        self, fast_params, shape
    ):
        """Every ad-hoc shape is refused on a JSON transport before the
        executor starts a single item — on a recording stand-in and on the
        real worker board, where a registered worker then finds nothing to
        claim.  Pickle carries these runs inline and to process pools."""
        from repro.backends.reference import ReferenceBackend
        from repro.core.parameters import TransferDelayModel
        from repro.core.policies.base import LoadBalancingPolicy
        from repro.distributed.executors import InlineExecutor
        from repro.service.shards import BoardExecutor, ShardBoard

        class Quirky(LoadBalancingPolicy):
            name = "quirky"

            def initial_transfers(self, loads, params):
                return []

        class JsonOnly(InlineExecutor):
            transport = "json"

            def __init__(self):
                super().__init__()
                self.started = []

            def start(self, slot, item):
                self.started.append(item)
                super().start(slot, item)

        overrides = {
            "custom-policy": dict(policy=Quirky()),
            "horizon": dict(horizon=1e9),
            "pairwise-delays": dict(
                params=fast_params.with_pairwise_delays(
                    [((0, 1), TransferDelayModel(mean_delay_per_task=0.5))]
                )
            ),
            "system-kwargs": dict(system_kwargs={"preemption": "restart"}),
            # A spawned seed on its own folds into a spec seed (int_seed);
            # it is an ad-hoc shape whenever the run is ad-hoc anyway.
            "spawned-seed": dict(
                horizon=1e9, seed=np.random.SeedSequence(7).spawn(2)[1]
            ),
            "backend-instance": dict(backend=ReferenceBackend()),
        }[shape]

        recording = JsonOnly()
        with pytest.raises(ValueError, match="JSON-transport"):
            run_engine(_request(fast_params, executor=recording, **overrides))
        assert recording.started == []

        board = ShardBoard()
        worker = board.register("w")
        with pytest.raises(ValueError, match="JSON-transport"):
            run_engine(
                _request(fast_params, executor=BoardExecutor(board), **overrides)
            )
        assert board.claim_batch(worker, batch=8) == []

    def test_fresh_store_instances_resume_and_grow_identically(self, fast_params):
        """Blocks written by one ShardStore instance feed resumed and grown
        runs through fresh instances with exact (``==``) merged statistics."""
        from repro.distributed.store import ShardStore

        paper = SystemSpec.paper().to_parameters()
        baseline = run_engine(_request(paper)).estimate

        first = run_engine(_request(paper, store=ShardStore()))
        assert first.estimate.summary == baseline.summary

        resumed = run_engine(_request(paper, store=ShardStore()))
        assert resumed.blocks_cached == 5
        assert resumed.estimate.summary == baseline.summary
        np.testing.assert_array_equal(
            resumed.estimate.completion_times, baseline.completion_times
        )

        grown = run_engine(
            _request(paper, store=ShardStore(), num_realisations=28)
        )
        assert grown.blocks_cached == 5 and grown.blocks_total == 7
        regrown = run_engine(
            _request(paper, store=ShardStore(), num_realisations=28)
        )
        assert regrown.blocks_cached == 7
        assert regrown.estimate.summary == grown.estimate.summary
        np.testing.assert_array_equal(
            regrown.estimate.completion_times, grown.estimate.completion_times
        )

    def test_pool_slots_capped_at_work_item_count(self, fast_params):
        """A tiny ensemble must not fork idle workers beyond its size."""
        report = run_engine(
            _request(
                fast_params,
                num_realisations=3,
                block_size=1,  # 3 blocks -> 3 work items
                executor="process",
                workers=8,
            )
        )
        # 8 workers requested, but only 3 items exist: the pool is capped.
        assert report.shards_dispatched == 3
        assert set(report.slot_completed) <= {"process-0", "process-1", "process-2"}

    def test_quantile_sketch_is_partition_invariant(self, fast_params):
        serial = run_engine(_request(fast_params)).estimate
        pooled = run_engine(
            _request(fast_params, executor="process", workers=2)
        ).estimate
        a, b = serial.quantile_sketch(), pooled.quantile_sketch()
        assert a.to_dict() == b.to_dict()
        assert a.quantile(0.5) == b.quantile(0.5)

