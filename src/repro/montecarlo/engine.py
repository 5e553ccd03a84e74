"""The one Monte-Carlo engine: plan → execute → merge, for every run.

Historically the repo grew three divergent Monte-Carlo code paths: a
serial per-realisation loop, a per-realisation process pool, and the
block-sharded distributed runner.  Only the last had exact mergeable
statistics, resumable block caching and shard progress events.  This
module makes that pipeline the *only* one:

1. **plan** — the ensemble is partitioned into fixed-size seed blocks
   (:func:`repro.distributed.plan.plan_blocks`); block ``j``'s random
   stream derives from the master seed and ``j`` alone, so the merged
   sample is invariant to how blocks are grouped or executed;
2. **execute** — blocks already in the :class:`ShardStore` are served from
   disk; the rest are grouped into shards and dispatched through a
   :class:`~repro.distributed.scheduler.ShardScheduler` over the chosen
   :class:`~repro.distributed.executors.ShardExecutor`.  A *serial* run is
   simply one inline slot; a *pooled* run is a process pool (or a wrapped
   shared :class:`concurrent.futures.Executor`); a *distributed* run is
   the service's remote worker board.  Backends execute whole blocks per
   :meth:`run_batch` call — the vectorized kernel advances a block's
   realisations in one array program instead of per-realisation dispatch;
3. **merge** — per-block :class:`~repro.montecarlo.statistics
   .RunningStatistics` states merge exactly (Shewchuk sums), completion
   times concatenate in block order, and the merged accumulator renders
   the summary.  Mean, variance, confidence interval and percentiles are
   therefore bit-identical (``==``) across serial, pooled, vectorized and
   any-shard-count execution of the same request.

Every request is a :class:`~repro.scenarios.spec.ScenarioSpec`: its
content keys the shard store, so every run, sharded or not, reads and
writes the block cache (interrupted runs resume, grown ensembles compute
only the delta), and its work items are pure JSON, so any executor runs
them, the remote worker board included.  :func:`mc_point_spec` turns live
parameters and a built-in policy into that spec.  A custom policy,
horizon, bespoke ``system_kwargs`` or pairwise delay override has no spec
form; such runs go to :class:`~repro.montecarlo.runner.MonteCarloRunner`
or ``get_backend(name).run_batch`` directly.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence

from repro.distributed.executors import ShardExecutor, resolve_executor
from repro.distributed.plan import (
    SHARDS_PER_SLOT,
    SeedBlock,
    block_key,
    plan_blocks,
    plan_shards,
    shard_plan_key,
)
from repro.distributed.scheduler import ShardScheduler
from repro.distributed.work import int_seed, make_work_item, policy_spec_of
from repro.montecarlo.runner import MonteCarloEstimate
from repro.montecarlo.statistics import RunningStatistics
from repro.obs import trace
from repro.obs.history import ATTRIBUTION_KEYS
from repro.obs.metrics import REGISTRY
from repro.scenarios.spec import DEFAULT_SHARD_BLOCK, ScenarioSpec, SystemSpec

logger = logging.getLogger(__name__)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.parameters import SystemParameters
    from repro.distributed.store import ShardStore
    from repro.sim.rng import SeedLike


_ENGINE_RUNS = REGISTRY.counter(
    "repro_engine_runs_total", "Monte-Carlo ensembles run through the engine."
)
_ENGINE_BLOCKS = REGISTRY.counter(
    "repro_engine_blocks_total",
    "Seed blocks handled by the engine, by outcome.",
    labelnames=("outcome",),
)
_ENGINE_PHASE_SECONDS = REGISTRY.histogram(
    "repro_engine_phase_seconds",
    "Wall-equivalent seconds per overhead-ledger component of each run.",
    labelnames=("phase",),
)
_BLOCK_COMPUTE_SECONDS = REGISTRY.histogram(
    "repro_engine_block_compute_seconds",
    "Backend compute seconds per freshly computed seed block.",
)


@dataclass
class EngineRequest:
    """Everything the engine needs for one Monte-Carlo ensemble.

    ``spec`` describes the sample completely (the orchestrator passes
    effective scenario specs; :func:`mc_point_spec` builds one from live
    parameters and a policy).  The remaining fields tune execution without
    changing the sample:

    executor / workers:
        Where shards run: ``None`` (inline), an executor name
        (``inline``/``process``), a live :class:`ShardExecutor`, or a
        plain :class:`concurrent.futures.Executor` to share.  Instances
        are left open; named executors are closed after the run.
    shards:
        Work items to dispatch; any int pins the count (as ``max(1, n)``).
        ``None`` defaults to the spec's shard count when one is pinned
        (``spec.shards >= 1``), and otherwise cuts the missing blocks into
        :data:`~repro.distributed.plan.SHARDS_PER_SLOT` shards per
        executor slot (at least one slot).  Either way the count is capped
        at the missing block count, and grouping only regroups blocks —
        the sample is identical for every count.
    store / refresh:
        The shard-level block cache.  ``refresh`` recomputes every block
        but still persists the results (the ``--force`` repair path).
    """

    spec: ScenarioSpec
    confidence_level: float = 0.95
    shards: Optional[int] = None
    executor: Any = None
    workers: Optional[int] = None
    store: Optional["ShardStore"] = None
    refresh: bool = False
    max_attempts: int = 3
    shard_timeout: Optional[float] = None
    slot_wait: float = 60.0
    on_event: Optional[Callable[[Dict[str, Any]], None]] = None


@dataclass
class EngineReport:
    """A merged estimate plus the execution provenance of the run."""

    estimate: MonteCarloEstimate
    stats: RunningStatistics
    blocks_total: int
    blocks_cached: int
    shards_dispatched: int
    wall_seconds: float
    slot_completed: Dict[str, int] = field(default_factory=dict)
    #: The raw measurements the ledger is derived from:
    #: ``execute_seconds`` (scheduler wall-clock), ``block_compute_seconds``
    #: (sum of per-block backend compute over freshly computed blocks,
    #: measured where each block ran, so it can exceed the wall clock on
    #: a busy pool) and ``merge_seconds``.
    timings: Dict[str, float] = field(default_factory=dict)
    #: The run's one derived timing record: wall-equivalent seconds for
    #: each of :data:`~repro.obs.history.ATTRIBUTION_KEYS`, in that order.
    #: Summed per-shard seconds are divided by the peak number of
    #: concurrently in-flight shards, so ``plan + wire + deserialize +
    #: compute + dispatch + idle + merge`` ≈ the run's wall clock.
    attribution: Dict[str, float] = field(default_factory=dict)

    @property
    def blocks_computed(self) -> int:
        return self.blocks_total - self.blocks_cached


def mc_point_spec(
    params: "SystemParameters",
    policy: Any,
    workload: Sequence[int],
    num_realisations: int,
    seed: "SeedLike" = None,
    backend: str = "reference",
    block_size: int = DEFAULT_SHARD_BLOCK,
) -> ScenarioSpec:
    """The ``mc_point`` spec of one ensemble of a built-in policy.

    ``seed`` collapses to an integer through
    :func:`~repro.distributed.work.int_seed` (a spawned ``SeedSequence``
    included); ``None`` draws fresh entropy once, so an unseeded run never
    aliases ``seed=0``.  ``block_size`` is the seed-block size, part of
    the sample's identity.

    Raises :class:`ValueError` for what the spec schema cannot carry: a
    policy outside the built-in kinds, parameters with pairwise delay
    overrides, or a backend given as anything but a name.  Run those
    through :class:`~repro.montecarlo.runner.MonteCarloRunner` or
    ``get_backend(name).run_batch``.
    """
    policy_spec = policy_spec_of(policy)
    system = SystemSpec.from_parameters(params)
    if system.to_parameters() != params:
        raise ValueError(
            "these parameters cannot be described by a SystemSpec (pairwise "
            "delay overrides); run them through MonteCarloRunner or a "
            "backend's run_batch"
        )
    if seed is None:
        import numpy as np

        seed = np.random.SeedSequence()
    return ScenarioSpec(
        name="engine",
        kind="mc_point",
        system=system,
        workload=workload,
        policy=policy_spec,
        mc_realisations=int(num_realisations),
        seed=int_seed(seed),
        backend=backend,
        shards=0,
        shard_block=block_size,
    )


def run_engine(request: EngineRequest) -> EngineReport:
    """Run one Monte-Carlo ensemble through the unified pipeline."""
    started = perf_counter()

    spec = request.spec
    num_realisations = spec.mc_realisations
    if num_realisations < 1:
        raise ValueError(
            f"num_realisations must be >= 1, got {num_realisations!r}"
        )

    import numpy as np

    _ENGINE_RUNS.inc()
    # The plan, execute and merge phases tile the wall clock: each phase
    # ends at the instant the next begins, so the ledger's identity holds
    # by construction rather than up to the untimed code between phases.
    with trace.span("engine.plan", realisations=num_realisations):
        blocks = plan_blocks(num_realisations, spec.shard_block)
        store = request.store
        plan_key = shard_plan_key(spec) if store is not None else None

        # -- plan: serve cached blocks, collect the missing ones -----------
        merged_blocks: Dict[int, Dict[str, Any]] = {}
        missing: List[SeedBlock] = []
        with trace.span("engine.cache_serve"):
            for block in blocks:
                payload = (
                    store.get(block_key(plan_key, block))
                    if store is not None and not request.refresh
                    else None
                )
                if payload is not None:
                    merged_blocks[block.index] = payload
                else:
                    missing.append(block)
        _ENGINE_BLOCKS.labels(outcome="cached").inc(len(merged_blocks))
        if merged_blocks and request.on_event is not None:
            request.on_event(
                {
                    "event": "cached",
                    "blocks_cached": len(merged_blocks),
                    "blocks_total": len(blocks),
                }
            )

    # -- execute: dispatch the missing blocks through the scheduler --------
    num_shards = request.shards
    if num_shards is None and spec.shards >= 1:
        num_shards = spec.shards
    slot_completed: Dict[str, int] = {}
    # Mutable cell: absorb_shard (a closure invoked from the scheduler
    # loop) accumulates per-block backend compute time into it.
    compute_seconds = [0.0]
    shards_dispatched = 0
    executor_label: Optional[str] = None
    execute_started = perf_counter()
    plan_seconds = execute_started - started
    if missing:

        def absorb_shard(shard_index: int, shard_result: Dict[str, Any]) -> None:
            # Merge and persist each shard the moment it completes, inside
            # the scheduler loop: an interrupted or partially-failed run
            # keeps every block that did finish — the resume guarantee.
            for block_payload in shard_result["blocks"]:
                merged_blocks[int(block_payload["index"])] = block_payload
                compute = block_payload.get("wall_seconds")
                if compute is not None:
                    compute_seconds[0] += float(compute)
                    _BLOCK_COMPUTE_SECONDS.observe(float(compute))
                _ENGINE_BLOCKS.labels(outcome="computed").inc()
                if store is not None:
                    block = SeedBlock(
                        index=int(block_payload["index"]),
                        start=int(block_payload["start"]),
                        stop=int(block_payload["stop"]),
                    )
                    store.put(block_key(plan_key, block), block_payload)

        resolved = resolve_executor(
            request.executor,
            workers=request.workers,
            num_items=(
                len(missing)
                if num_shards is None
                else min(max(1, num_shards), len(missing))
            ),
        )
        if num_shards is None:
            # Nobody pinned a count.  A worker board can have no live slot
            # yet (workers register asynchronously), hence the one-slot floor.
            num_shards = max(1, len(resolved.slots())) * SHARDS_PER_SLOT
        shards = plan_shards(missing, max(1, num_shards))
        task_id = (plan_key or shard_plan_key(spec))[:16]
        spec_dict = spec.to_dict()
        items = {
            shard.index: make_work_item(
                item_id="",  # the scheduler stamps a fresh id per attempt
                task_id=task_id,
                shard_index=shard.index,
                spec_dict=spec_dict,
                blocks=list(shard.blocks),
            )
            for shard in shards
        }
        # Close only executors the engine resolved itself — never instances
        # the caller handed in, never the persistent shared warm pools.
        owns_executor = not isinstance(
            request.executor, ShardExecutor
        ) and not getattr(resolved, "persistent", False)
        executor_label = type(resolved).__name__
        scheduler = ShardScheduler(
            resolved,
            max_attempts=request.max_attempts,
            shard_timeout=request.shard_timeout,
            slot_wait=request.slot_wait,
            on_event=request.on_event,
            on_result=absorb_shard,
        )
        try:
            with trace.span(
                "engine.execute", shards=len(shards), executor=executor_label
            ):
                scheduler.run(items)
            shards_dispatched = len(shards)
        finally:
            if owns_executor:
                resolved.close()
        slot_completed = dict(scheduler.slot_completed)
        shard_records = scheduler.shard_attribution
        peak_in_flight = scheduler.peak_in_flight
    else:
        shard_records = {}
        peak_in_flight = 0

    # -- merge: exact accumulators, block-ordered concatenation ------------
    merge_started = perf_counter()
    execute_seconds = merge_started - execute_started
    with trace.span("engine.merge", blocks=len(blocks)):
        ordered = [merged_blocks[block.index] for block in blocks]
        times = np.concatenate(
            [
                np.asarray(payload["completion_times"], dtype=float)
                for payload in ordered
            ]
        )
        stats = RunningStatistics.merged(
            RunningStatistics.from_dict(payload["stats"]) for payload in ordered
        )

    estimate = MonteCarloEstimate(
        policy_name=str(ordered[0]["policy"]),
        workload=tuple(spec.workload),
        completion_times=times,
        stats=stats,
        confidence_level=request.confidence_level,
    )
    finished = perf_counter()
    merge_seconds = finished - merge_started
    attribution = _attribution_ledger(
        plan_seconds=plan_seconds,
        execute_seconds=execute_seconds,
        merge_seconds=merge_seconds,
        compute_sum=compute_seconds[0],
        shard_records=shard_records,
        peak_in_flight=peak_in_flight,
    )
    for key, seconds in attribution.items():
        _ENGINE_PHASE_SECONDS.labels(phase=key.removesuffix("_seconds")).observe(
            seconds
        )
    report = EngineReport(
        estimate=estimate,
        stats=stats,
        blocks_total=len(blocks),
        blocks_cached=len(blocks) - len(missing),
        shards_dispatched=shards_dispatched,
        wall_seconds=finished - started,
        slot_completed=slot_completed,
        timings={
            "execute_seconds": execute_seconds,
            "block_compute_seconds": compute_seconds[0],
            "merge_seconds": merge_seconds,
        },
        attribution=attribution,
    )
    _record_run_history(
        report,
        request=request,
        executor_label=executor_label,
    )
    return report


def _record_run_history(
    report: "EngineReport",
    *,
    request: EngineRequest,
    executor_label: Optional[str],
) -> None:
    """Append this run to the run-history ledger (best-effort).

    The executor label folds into the sentinel's baseline-matching key,
    so it must be stable across runs: an explicit name wins, then the
    type of whatever actually dispatched shards, then ``"cached"`` for
    runs served entirely from the block cache (their wall time measures
    cache reads, not compute — a separate cohort by construction).
    """
    try:
        from repro.obs import history

        if isinstance(request.executor, str):
            label = request.executor
        elif executor_label is not None:
            label = executor_label
        elif isinstance(request.executor, ShardExecutor):
            label = type(request.executor).__name__
        else:
            label = "cached"
        spec = request.spec
        history.record_engine_run(
            report,
            scenario=spec.name,
            spec_hash=spec.content_hash,
            backend=spec.backend,
            executor=label,
            realisations=spec.mc_realisations,
            workers=request.workers,
        )
    except Exception:  # telemetry must never take the run down
        logger.debug("run-history recording failed", exc_info=True)


def _attribution_ledger(
    *,
    plan_seconds: float,
    execute_seconds: float,
    merge_seconds: float,
    compute_sum: float,
    shard_records: Dict[int, Dict[str, float]],
    peak_in_flight: int,
) -> Dict[str, float]:
    """Fold the scheduler's per-shard records into the overhead ledger.

    Per-shard seconds are *summed over shards* and the summed round-trip
    components are divided by the peak number of concurrently in-flight
    shards — the honest "how much wall clock did this category cost"
    conversion.  ``idle_seconds`` is whatever part of the execute phase no
    round trip covered (slots waiting on the last stragglers, scheduler
    poll latency), so the identity

        plan + wire + deserialize + compute + dispatch + idle + merge
            ≈ wall seconds

    holds by construction.  Keys follow :data:`ATTRIBUTION_KEYS` order.
    """
    slots = max(1, peak_in_flight)
    records = list(shard_records.values())
    round_trip = sum(r["round_trip_seconds"] for r in records)
    wire = sum(r["wire_seconds"] for r in records)
    deserialize = sum(r["deserialize_seconds"] for r in records)
    # Backend compute is taken from the blocks' own wall_seconds (present
    # with or without tracing); everything else a round trip spent —
    # framework code, pickling, stats reduction — lands in dispatch.
    dispatch = max(0.0, round_trip - wire - deserialize - compute_sum)
    idle = max(0.0, execute_seconds - round_trip / slots)
    return dict(
        zip(
            ATTRIBUTION_KEYS,
            (
                plan_seconds,
                wire / slots,
                deserialize / slots,
                compute_sum / slots if records else 0.0,
                dispatch / slots,
                idle if records else max(0.0, execute_seconds),
                merge_seconds,
            ),
        )
    )
