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
from repro.montecarlo.engine import EngineRequest, mc_point_spec, run_engine
from repro.scenarios.spec import PolicySpec, ScenarioSpec, SystemSpec


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


def _request(fast_params, backend="reference", **overrides):
    """The matrix's LBP-1 ensemble: overrides of a builder keyword change
    the sample (the spec), the rest only tune its execution."""
    sample = dict(
        policy=LBP1(0.4, sender=0, receiver=1),
        workload=(20, 12),
        num_realisations=20,
        seed=7,
        backend=backend,
        block_size=4,
    )
    for key in sample.keys() & overrides.keys():
        sample[key] = overrides.pop(key)
    return EngineRequest(spec=mc_point_spec(fast_params, **sample), **overrides)


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
    @pytest.fixture
    def scheduler_runs(self, monkeypatch):
        """The item count of every ``ShardScheduler.run`` call, in order."""
        from repro.distributed.scheduler import ShardScheduler

        calls = []
        original = ShardScheduler.run

        def counting_run(scheduler, items):
            calls.append(len(items))
            return original(scheduler, items)

        monkeypatch.setattr(ShardScheduler, "run", counting_run)
        return calls

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

    def test_built_and_hand_written_specs_are_bit_identical(self):
        """The builder's spec and an equivalent hand-written one (another
        name, a pinned shard count) draw the same sample."""
        paper = SystemSpec.paper().to_parameters()
        built = run_engine(_request(paper, "reference")).estimate
        spec_run = run_engine(
            EngineRequest(spec=_spec("reference", 1), executor="inline")
        ).estimate
        np.testing.assert_array_equal(
            built.completion_times, spec_run.completion_times
        )

    def test_builder_identity_is_pinned(self):
        """Every cached block of fig3, table2, fig5 and delay_sweep is keyed
        by the builder's spec; a drift here recomputes all of them."""
        from repro.core.parameters import paper_parameters
        from repro.distributed.plan import shard_plan_key
        from repro.sim.rng import spawn_seeds

        spec = mc_point_spec(
            paper_parameters(),
            LBP1(0.35, sender=0, receiver=1),
            (100, 60),
            96,
            spawn_seeds(1, 2)[0],
        )
        assert spec.content_hash == (
            "c78c456404be24d88de2eb25d960f9f9bafc9f39816fef7f4ed7684890bdb719"
        )
        assert shard_plan_key(spec) == (
            "209ef9fc6e1f8455e32f799381060989dcadc62637cf8ebcfdea8753b6da2606"
        )

    def test_every_run_can_use_the_shard_store(self, fast_params, scheduler_runs):
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
        # One scheduler pass per run with missing blocks; the grown run
        # cuts only its 2-block delta.
        assert scheduler_runs == [4, 2] and grown.shards_dispatched == 2

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

    def test_builder_rejects_a_custom_policy(self, fast_params):
        """A custom policy has no spec form: it runs through
        MonteCarloRunner or a backend's run_batch, never the engine."""
        from repro.core.policies.base import LoadBalancingPolicy

        class Quirky(LoadBalancingPolicy):
            name = "quirky"

            def initial_transfers(self, loads, params):
                return []

        with pytest.raises(ValueError, match="cannot serialize policy"):
            _request(fast_params, policy=Quirky())

    def test_builder_rejects_non_spec_inputs(self, fast_params):
        """Pairwise delay overrides and a backend instance have no spec
        form either."""
        from repro.backends.reference import ReferenceBackend
        from repro.core.parameters import TransferDelayModel

        pairwise = fast_params.with_pairwise_delays(
            [((0, 1), TransferDelayModel(mean_delay_per_task=0.5))]
        )
        with pytest.raises(ValueError, match="pairwise delay overrides"):
            _request(pairwise)
        with pytest.raises(
            ValueError, match="backend must be a non-empty backend name"
        ):
            _request(fast_params, backend=ReferenceBackend())

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

    @pytest.mark.parametrize(
        "overrides, shards",
        [
            (dict(num_realisations=40), 4),  # one inline slot, 10 blocks
            (dict(num_realisations=80, executor="process", workers=2), 8),
        ],
        ids=["inline-10-blocks", "pool-2-slots-20-blocks"],
    )
    def test_unpinned_runs_cut_four_shards_per_slot_in_one_pass(
        self, fast_params, scheduler_runs, overrides, shards
    ):
        report = run_engine(_request(fast_params, **overrides))
        assert scheduler_runs == [shards]
        assert report.shards_dispatched == shards

    def test_unpinned_board_run_plans_with_no_live_worker(
        self, scheduler_runs, monkeypatch
    ):
        """Workers register asynchronously, so a board can have no live
        slot when the run is planned: the count floors at one slot, and
        the scheduler waits for the worker that registers afterwards."""
        import threading
        import time

        from repro.distributed.scheduler import ShardScheduler
        from repro.distributed.work import execute_work_item
        from repro.service.shards import BoardExecutor, ShardBoard

        inline = run_engine(
            EngineRequest(spec=_spec("reference", 0), executor="inline")
        )
        scheduler_runs.clear()
        board = ShardBoard()
        stop = threading.Event()

        def work():
            worker = board.register("late")
            while not stop.is_set():
                items = board.claim_batch(worker, batch=4)
                for item in items:
                    board.post_result(
                        worker, item["id"], result=execute_work_item(item)
                    )
                if not items:
                    time.sleep(0.005)

        thread = threading.Thread(target=work, daemon=True)
        counting_run = ShardScheduler.run
        live_at_dispatch = []

        def register_after_planning(scheduler, items):
            live_at_dispatch.append(board.live_workers())
            if thread.ident is None:
                thread.start()
            return counting_run(scheduler, items)

        monkeypatch.setattr(ShardScheduler, "run", register_after_planning)
        try:
            report = run_engine(
                EngineRequest(
                    spec=_spec("reference", 0), executor=BoardExecutor(board)
                )
            )
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert live_at_dispatch == [()]
        assert scheduler_runs == [4] and report.shards_dispatched == 4
        assert np.array_equal(
            report.estimate.completion_times, inline.estimate.completion_times
        )

    def test_quantile_sketch_is_partition_invariant(self, fast_params):
        serial = run_engine(_request(fast_params)).estimate
        pooled = run_engine(
            _request(fast_params, executor="process", workers=2)
        ).estimate
        a, b = serial.quantile_sketch(), pooled.quantile_sketch()
        assert a.to_dict() == b.to_dict()
        assert a.quantile(0.5) == b.quantile(0.5)

