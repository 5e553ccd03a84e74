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

Requests that a :class:`~repro.scenarios.spec.ScenarioSpec` can describe
(built-in policy, no bespoke ``system_kwargs``/horizon) are normalised to
one — the *identity spec* — which keys the shard store: every such run,
sharded or not, reads and writes the block cache, so interrupted runs
resume and grown ensembles compute only the delta.  Anything else runs in
*ad-hoc* mode: same pipeline, same merge, no block cache, and work items
that carry live objects — so it runs inline or on a process pool, and a
JSON-transport executor (the remote worker board) refuses it up front.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from statistics import median
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence

from repro.distributed.executors import ShardExecutor, resolve_executor
from repro.distributed.plan import (
    DEFAULT_AMORTIZATION,
    SeedBlock,
    adaptive_shard_count,
    block_key,
    plan_blocks,
    plan_shards,
    shard_plan_key,
)
from repro.distributed.scheduler import ShardScheduler
from repro.distributed.work import (
    int_seed,
    make_adhoc_item,
    make_work_item,
    policy_spec_of,
)
from repro.montecarlo.runner import MonteCarloEstimate
from repro.montecarlo.statistics import RunningStatistics
from repro.obs import trace
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
    "Wall-clock seconds spent in each engine phase.",
    labelnames=("phase",),
)
_BLOCK_COMPUTE_SECONDS = REGISTRY.histogram(
    "repro_engine_block_compute_seconds",
    "Backend compute seconds per freshly computed seed block.",
)


@dataclass
class EngineRequest:
    """Everything the engine needs for one Monte-Carlo ensemble.

    Either ``spec`` describes the run completely (the orchestrator and the
    benchmark harness pass effective :class:`ScenarioSpec` objects), or
    the ad-hoc fields — ``params``/``policy``/``workload``/
    ``num_realisations``/``seed``/``backend`` — do.  The remaining fields
    tune execution without changing the sample:

    executor / workers:
        Where shards run: ``None`` (inline), an executor name
        (``inline``/``process``), a live :class:`ShardExecutor`, or a
        plain :class:`concurrent.futures.Executor` to share.  Instances
        are left open; named executors are closed after the run.
    shards:
        Work items to dispatch.  ``None`` defaults to the spec's shard
        count when one is pinned (``spec.shards >= 1``), and otherwise to
        *adaptive sizing*: the planner calibrates the per-block compute
        cost (from the shard store's recorded ``wall_seconds``, or by
        dispatching a small probe wave of single-block shards) and groups
        the remaining blocks so each dispatch amortizes at least
        ``amortization ×`` its measured round-trip overhead.  Sizing only
        regroups blocks — the sample is identical either way.
    amortization:
        Target compute-to-overhead ratio per dispatch for adaptive sizing
        (ignored when a shard count is pinned).
    block_size:
        Realisations per seed block (ad-hoc runs only; spec runs use
        ``spec.shard_block``).  Part of the sample's identity.
    store / refresh:
        The shard-level block cache.  ``refresh`` recomputes every block
        but still persists the results (the ``--force`` repair path).
    """

    params: Optional["SystemParameters"] = None
    policy: Any = None
    workload: Sequence[int] = ()
    num_realisations: int = 0
    seed: "SeedLike" = None
    backend: Any = None
    horizon: Optional[float] = None
    system_kwargs: Dict[str, Any] = field(default_factory=dict)
    spec: Optional[ScenarioSpec] = None
    confidence_level: float = 0.95
    block_size: Optional[int] = None
    shards: Optional[int] = None
    executor: Any = None
    workers: Optional[int] = None
    store: Optional["ShardStore"] = None
    refresh: bool = False
    assignment: str = "least-loaded"
    max_attempts: int = 3
    shard_timeout: Optional[float] = None
    slot_wait: float = 60.0
    amortization: float = DEFAULT_AMORTIZATION
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
    #: Phase timing breakdown: ``plan_seconds`` (block planning + cache
    #: serving), ``execute_seconds`` (scheduler wall-clock),
    #: ``merge_seconds``, ``block_compute_seconds`` (sum of per-block
    #: backend compute over freshly computed blocks, measured where each
    #: block ran) and ``dispatch_overhead_seconds`` — execute wall-clock
    #: minus compute divided over the slots that worked, i.e. an estimate
    #: of what scheduling/transport cost on top of the compute itself.
    #: The attribution ledger's keys (see :attr:`attribution`) are folded
    #: in too.
    timings: Dict[str, float] = field(default_factory=dict)
    #: The overhead ledger: wall-equivalent seconds per category, built
    #: from the scheduler's per-shard attribution records.  Summed
    #: per-shard seconds are divided by the peak number of concurrently
    #: in-flight shards, so ``plan + wire + deserialize + compute +
    #: dispatch + idle + merge`` ≈ the run's wall clock.
    #: ``queue_wait_seconds`` is reported for visibility but *excluded*
    #: from that identity — a queued shard waits while the slots are busy
    #: with other shards, so its wait overlaps time already attributed.
    attribution: Dict[str, float] = field(default_factory=dict)
    #: Raw per-shard attribution records (shard index → seconds by
    #: category), as filed by the scheduler.
    shard_attribution: Dict[int, Dict[str, float]] = field(default_factory=dict)
    #: Adaptive-sizing provenance (empty for pinned shard counts): the
    #: calibrated per-block compute cost and per-dispatch round-trip
    #: overhead, how many probe/main shards were dispatched and the
    #: resulting blocks-per-shard grouping.
    sizing: Dict[str, float] = field(default_factory=dict)

    @property
    def blocks_computed(self) -> int:
        return self.blocks_total - self.blocks_cached


def _synthesize_identity(
    request: EngineRequest,
    master_seed: Any,
    num_realisations: int,
    block_size: int,
) -> Optional[ScenarioSpec]:
    """The request as a :class:`ScenarioSpec`, or ``None`` if inexpressible.

    A synthesized identity makes the run spec-described: JSON work items,
    shard-store keys, and a master seed collapsed to an integer exactly as
    the orchestrator's sharded path always did.  Anything the spec schema
    cannot carry — a horizon, bespoke ``system_kwargs``, a custom policy or
    backend instance, pairwise delay overrides — falls back to ad-hoc mode.
    """
    if request.horizon is not None or request.system_kwargs:
        return None
    backend = request.backend
    if backend is None:
        backend_name = "reference"
    elif isinstance(backend, str):
        backend_name = backend
    else:
        return None  # a live backend instance has no stable name/identity
    try:
        policy = policy_spec_of(request.policy)
    except ValueError:
        return None
    system = SystemSpec.from_parameters(request.params)
    if system.to_parameters() != request.params:
        return None  # e.g. pairwise delay overrides the spec cannot express
    return ScenarioSpec(
        name="engine",
        kind="mc_point",
        system=system,
        workload=tuple(int(m) for m in request.workload),
        policy=policy,
        mc_realisations=num_realisations,
        seed=int_seed(master_seed),
        backend=backend_name,
        shards=0,
        shard_block=block_size,
    )


def run_engine(request: EngineRequest) -> EngineReport:
    """Run one Monte-Carlo ensemble through the unified pipeline."""
    started = perf_counter()

    spec = request.spec
    if spec is not None:
        num_realisations = spec.mc_realisations
        block_size = spec.shard_block
        workload = tuple(spec.workload)
        master_seed: Any = spec.seed
        identity: Optional[ScenarioSpec] = spec
    else:
        num_realisations = int(request.num_realisations)
        block_size = (
            int(request.block_size)
            if request.block_size is not None
            else DEFAULT_SHARD_BLOCK
        )
        workload = tuple(int(m) for m in request.workload)
        master_seed = request.seed
        if master_seed is None:
            # "No seed" means fresh entropy — draw it once so every block
            # (and every executor slot) shares one master, and so the
            # synthesized identity cannot alias seed=0.
            import numpy as np

            master_seed = np.random.SeedSequence()
        identity = _synthesize_identity(
            request, master_seed, num_realisations, block_size
        )

    if num_realisations < 1:
        raise ValueError(
            f"num_realisations must be >= 1, got {num_realisations!r}"
        )
    if identity is None and getattr(request.executor, "transport", "pickle") == "json":
        # Ad-hoc items carry live objects that only move by reference or
        # pickle; refuse before planning, so nothing is ever dispatched.
        raise ValueError(
            "this run cannot be described by a ScenarioSpec (a custom "
            "policy or backend instance, a horizon, system kwargs or "
            "pairwise delay overrides), so it runs inline or on a process "
            "pool only, never on JSON-transport executors such as the "
            "remote worker board"
        )

    import numpy as np

    _ENGINE_RUNS.inc()
    plan_started = perf_counter()
    with trace.span("engine.plan", realisations=num_realisations):
        blocks = plan_blocks(num_realisations, block_size)
        store = request.store if identity is not None else None
        plan_key = shard_plan_key(identity) if store is not None else None

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
    plan_seconds = perf_counter() - plan_started
    _ENGINE_PHASE_SECONDS.labels(phase="plan").observe(plan_seconds)

    # -- execute: dispatch the missing blocks through the scheduler --------
    num_shards = request.shards
    if num_shards is None and spec is not None and spec.shards >= 1:
        num_shards = spec.shards
    # Nobody pinned a shard count: let the planner size dispatches from
    # measured block/round-trip costs instead of one item per block.
    adaptive = num_shards is None
    slot_completed: Dict[str, int] = {}
    # Mutable cell: absorb_shard (a closure invoked from the scheduler
    # loop) accumulates per-block backend compute time into it.
    compute_seconds = [0.0]
    sizing: Dict[str, float] = {}
    shards_dispatched = 0
    executor_label: Optional[str] = None
    execute_started = perf_counter()
    if missing:
        fixed_shards = (
            None if adaptive else plan_shards(missing, max(1, num_shards))
        )

        if identity is not None:
            spec_dict = identity.to_dict()
            task_id = (plan_key or shard_plan_key(identity))[:16]

            def make_items(shards) -> Dict[int, Dict[str, Any]]:
                return {
                    shard.index: make_work_item(
                        item_id="",  # the scheduler stamps a fresh id per attempt
                        task_id=task_id,
                        shard_index=shard.index,
                        spec_dict=spec_dict,
                        blocks=list(shard.blocks),
                        confidence_level=request.confidence_level,
                    )
                    for shard in shards
                }
        else:
            payload = {
                "params": request.params,
                "policy": request.policy,
                "workload": workload,
                "seed": master_seed,
                "backend": request.backend,
                "horizon": request.horizon,
                "system_kwargs": dict(request.system_kwargs),
            }

            def make_items(shards) -> Dict[int, Dict[str, Any]]:
                return {
                    shard.index: make_adhoc_item(
                        item_id="",
                        task_id="adhoc",
                        shard_index=shard.index,
                        payload=payload,
                        blocks=list(shard.blocks),
                        confidence_level=request.confidence_level,
                    )
                    for shard in shards
                }

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

        # The shard store's recorded per-block compute times calibrate
        # adaptive sizing without a probe; snapshot them before dispatch
        # (absorb_shard grows merged_blocks as results arrive).
        cached_costs = [
            float(payload["wall_seconds"])
            for payload in merged_blocks.values()
            if payload.get("wall_seconds")
        ]

        resolved = resolve_executor(
            request.executor,
            workers=request.workers,
            num_items=len(missing) if adaptive else len(fixed_shards),
        )
        # Close only executors the engine resolved itself — never instances
        # the caller handed in, never the persistent shared warm pools.
        owns_executor = not isinstance(
            request.executor, ShardExecutor
        ) and not getattr(resolved, "persistent", False)
        executor_label = type(resolved).__name__
        scheduler = ShardScheduler(
            resolved,
            assignment=request.assignment,
            max_attempts=request.max_attempts,
            shard_timeout=request.shard_timeout,
            slot_wait=request.slot_wait,
            on_event=request.on_event,
            on_result=absorb_shard,
        )
        try:
            with trace.span(
                "engine.execute",
                shards=0 if adaptive else len(fixed_shards),
                adaptive=adaptive,
                executor=type(resolved).__name__,
            ):
                if fixed_shards is not None:
                    scheduler.run(make_items(fixed_shards))
                    shards_dispatched = len(fixed_shards)
                else:
                    shards_dispatched, sizing = _execute_adaptive(
                        scheduler=scheduler,
                        executor=resolved,
                        missing=missing,
                        make_items=make_items,
                        merged_blocks=merged_blocks,
                        cached_costs=cached_costs,
                        amortization=request.amortization,
                    )
        finally:
            if owns_executor:
                resolved.close()
        slot_completed = dict(scheduler.slot_completed)
        shard_attribution = dict(scheduler.shard_attribution)
        peak_in_flight = scheduler.peak_in_flight
    else:
        shard_attribution = {}
        peak_in_flight = 0
    execute_seconds = perf_counter() - execute_started
    if missing:
        _ENGINE_PHASE_SECONDS.labels(phase="execute").observe(execute_seconds)

    # -- merge: exact accumulators, block-ordered concatenation ------------
    merge_started = perf_counter()
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
    merge_seconds = perf_counter() - merge_started
    _ENGINE_PHASE_SECONDS.labels(phase="merge").observe(merge_seconds)

    estimate = MonteCarloEstimate(
        policy_name=str(ordered[0]["policy"]),
        workload=workload,
        completion_times=times,
        stats=stats,
        confidence_level=request.confidence_level,
    )
    # Dispatch overhead: what the execute phase cost beyond the compute
    # itself, assuming the compute was spread evenly over the slots that
    # completed work.  An estimate, not an accounting identity.
    active_slots = max(1, len(slot_completed))
    dispatch_overhead = max(
        0.0, execute_seconds - compute_seconds[0] / active_slots
    )
    attribution = _attribution_ledger(
        plan_seconds=plan_seconds,
        execute_seconds=execute_seconds,
        merge_seconds=merge_seconds,
        compute_sum=compute_seconds[0],
        shard_attribution=shard_attribution,
        peak_in_flight=peak_in_flight,
    )
    timings = {
        "plan_seconds": plan_seconds,
        "execute_seconds": execute_seconds,
        "merge_seconds": merge_seconds,
        "block_compute_seconds": compute_seconds[0],
        "dispatch_overhead_seconds": dispatch_overhead if missing else 0.0,
    }
    timings.update(attribution)
    report = EngineReport(
        estimate=estimate,
        stats=stats,
        blocks_total=len(blocks),
        blocks_cached=len(blocks) - len(missing),
        shards_dispatched=shards_dispatched,
        wall_seconds=perf_counter() - started,
        slot_completed=slot_completed,
        timings=timings,
        attribution=attribution,
        shard_attribution=shard_attribution,
        sizing=sizing,
    )
    _record_run_history(
        report,
        request=request,
        identity=identity,
        executor_label=executor_label,
        num_realisations=num_realisations,
    )
    return report


def _record_run_history(
    report: "EngineReport",
    *,
    request: EngineRequest,
    identity: Optional[ScenarioSpec],
    executor_label: Optional[str],
    num_realisations: int,
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
        if identity is not None:
            scenario = identity.name or "adhoc"
            spec_hash: Optional[str] = identity.content_hash
            backend = identity.backend
        else:
            scenario = "adhoc"
            spec_hash = None
            backend = str(request.backend or "reference")
        history.record_engine_run(
            report,
            scenario=scenario,
            spec_hash=spec_hash,
            backend=backend,
            executor=label,
            realisations=num_realisations,
            workers=request.workers,
        )
    except Exception:  # telemetry must never take the run down
        logger.debug("run-history recording failed", exc_info=True)


def _execute_adaptive(
    *,
    scheduler: ShardScheduler,
    executor: ShardExecutor,
    missing: Sequence[SeedBlock],
    make_items: Callable[[Sequence[Any]], Dict[int, Dict[str, Any]]],
    merged_blocks: Dict[int, Dict[str, Any]],
    cached_costs: Sequence[float],
    amortization: float,
) -> tuple:
    """Size shards from measured costs; returns ``(dispatched, sizing)``.

    Calibration sources, in order of preference:

    1. per-block ``wall_seconds`` already in the shard store (a resumed or
       grown run re-sizes its remaining blocks for free);
    2. a *probe wave* — one single-block shard per slot, dispatched through
       the same scheduler, whose results yield both the block compute cost
       and the dispatch round-trip overhead (attribution round-trip minus
       block compute);
    3. the executor's static ``round_trip_hint`` when the probe cannot
       measure overhead (e.g. all probes raced onto one slot).

    The remaining blocks are then cut into
    :func:`~repro.distributed.plan.adaptive_shard_count` shards.  Sizing
    only regroups blocks — block seed streams and merged statistics are
    untouched by construction.
    """
    depth = max(1, int(getattr(executor, "slot_depth", 1)))
    slots = max(1, len(executor.slots()) * depth)
    block_cost = median(cached_costs) if cached_costs else None
    round_trip: Optional[float] = None
    probe_shards: Sequence[Any] = ()
    rest = tuple(missing)
    if block_cost is None and len(missing) > slots:
        probe_shards = plan_shards(rest[:slots], slots)
        scheduler.run(make_items(probe_shards))
        rest = rest[len(probe_shards) :]
        probe_costs = []
        overheads = []
        for shard in probe_shards:
            compute = 0.0
            for block in shard.blocks:
                payload = merged_blocks.get(block.index)
                wall = payload.get("wall_seconds") if payload else None
                if wall:
                    probe_costs.append(float(wall))
                    compute += float(wall)
            record = scheduler.shard_attribution.get(shard.index)
            if record and record.get("round_trip_seconds") is not None:
                overheads.append(
                    max(0.0, float(record["round_trip_seconds"]) - compute)
                )
        if probe_costs:
            block_cost = median(probe_costs)
        if overheads:
            round_trip = median(overheads)
    if round_trip is None:
        hint = float(getattr(executor, "round_trip_hint", 0.0) or 0.0)
        round_trip = hint if hint > 0 else None
    main: Sequence[Any] = ()
    if rest:
        count = adaptive_shard_count(
            len(rest),
            slots,
            block_seconds=block_cost,
            round_trip_seconds=round_trip,
            amortization=amortization,
        )
        main = plan_shards(rest, count, start_index=len(probe_shards))
        scheduler.run(make_items(main))
    sizing: Dict[str, float] = {
        "slots": float(slots),
        "probe_shards": float(len(probe_shards)),
        "main_shards": float(len(main)),
    }
    if block_cost is not None:
        sizing["block_seconds"] = float(block_cost)
    if round_trip is not None:
        sizing["round_trip_seconds"] = float(round_trip)
    return len(probe_shards) + len(main), sizing


def _attribution_ledger(
    *,
    plan_seconds: float,
    execute_seconds: float,
    merge_seconds: float,
    compute_sum: float,
    shard_attribution: Dict[int, Dict[str, float]],
    peak_in_flight: int,
) -> Dict[str, float]:
    """Fold per-shard attribution records into a wall-equivalent ledger.

    Per-shard seconds are *summed over shards* and the summed round-trip
    components are divided by the peak number of concurrently in-flight
    shards — the honest "how much wall clock did this category cost"
    conversion.  ``idle_seconds`` is whatever part of the execute phase no
    round trip covered (slots waiting on the last stragglers, scheduler
    poll latency), so the identity

        plan + wire + deserialize + compute + dispatch + idle + merge
            ≈ wall seconds

    holds by construction; ``queue_wait_seconds`` overlaps slot-busy time
    and stays outside the sum (see :class:`EngineReport`).
    """
    slots = max(1, peak_in_flight)
    records = list(shard_attribution.values())
    round_trip = sum(r.get("round_trip_seconds", 0.0) for r in records)
    queue_wait = sum(r.get("queue_wait_seconds", 0.0) for r in records)
    wire = sum(r.get("wire_seconds", 0.0) for r in records)
    deserialize = sum(r.get("deserialize_seconds", 0.0) for r in records)
    # Backend compute is taken from the blocks' own wall_seconds (present
    # with or without tracing); everything else a round trip spent —
    # framework code, pickling, stats reduction — lands in dispatch.
    dispatch = max(0.0, round_trip - wire - deserialize - compute_sum)
    idle = max(0.0, execute_seconds - round_trip / slots)
    return {
        "plan_seconds": plan_seconds,
        "wire_seconds": wire / slots,
        "deserialize_seconds": deserialize / slots,
        "compute_seconds": compute_sum / slots if records else 0.0,
        "dispatch_seconds": dispatch / slots,
        "idle_seconds": idle if records else max(0.0, execute_seconds),
        "merge_seconds": merge_seconds,
        "queue_wait_seconds": queue_wait / slots,
    }
