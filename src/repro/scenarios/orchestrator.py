"""Batch execution of scenarios: dispatch, caching, the shared warm pool.

The :class:`Orchestrator` is the single entry point that turns a
:class:`~repro.scenarios.spec.ScenarioSpec` into a
:class:`~repro.scenarios.cache.ScenarioResult`:

1. look the spec's content hash up in the :class:`ResultCache` (a hit is a
   pure disk read — no simulation runs);
2. on a miss, dispatch on ``spec.kind`` to the matching runner, which calls
   the existing experiment drivers / Monte-Carlo machinery with the spec's
   parameters;
3. persist the result under the hash and return it.

Monte-Carlo-heavy kinds all run through the unified engine
(:mod:`repro.montecarlo.engine`).  Each point resolves its executor once:
sharded points use the ``shard_executor``, pooled points (``workers > 1``)
the process-wide warm pool of
:func:`~repro.distributed.executors.shared_process_executor`, and the rest
run inline.  The warm pool outlives the orchestrator, so a sweep — or a
second orchestrator in the same process — pays pool start-up once; results
are bit-identical to serial execution because the engine's seed blocks
draw their streams before distribution.
"""

from __future__ import annotations

import time
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

from repro.scenarios import registry
from repro.scenarios.cache import ResultCache, ScenarioResult
from repro.scenarios.spec import PolicySpec, ScenarioSpec

#: A runner reduces a spec to ``(scalars, arrays, rendered)``.  numpy stays
#: out of this module's import path (cache hits and job planning must not
#: load it); runners import it alongside their experiment drivers.
RunnerOutput = Tuple[Dict[str, Any], Dict[str, "np.ndarray"], str]
Runner = Callable[[ScenarioSpec, "Orchestrator"], RunnerOutput]

_RUNNERS: Dict[str, Runner] = {}

#: Scenario kinds whose Monte-Carlo estimates honour ``spec.backend``.  The
#: paper-artefact kinds drive bespoke experiment pipelines (test-bed
#: emulation, traces, calibration fits) that only the event-driven machinery
#: can execute, so a non-default backend on them is a user error, not a
#: silent no-op.
BACKEND_AWARE_KINDS = frozenset({"mc_point", "delay_point"})


def runner(kind: str) -> Callable[[Runner], Runner]:
    """Register the decorated function as the runner for ``kind``."""

    def decorate(fn: Runner) -> Runner:
        _RUNNERS[kind] = fn
        return fn

    return decorate


def runner_kinds() -> Tuple[str, ...]:
    """All scenario kinds the orchestrator can execute, sorted."""
    return tuple(sorted(_RUNNERS))


def _scalar(value: Any) -> Any:
    """Coerce numpy scalars to plain Python so scalars survive JSON."""
    item = getattr(value, "item", None)
    if item is not None and getattr(value, "shape", None) == ():
        return item()
    return value


def apply_overrides(
    spec: ScenarioSpec,
    seed: Optional[int] = None,
    backend: Optional[str] = None,
    shards: Optional[int] = None,
) -> ScenarioSpec:
    """Fold ``seed``/``backend``/``shards`` overrides into ``spec``.

    The returned spec is the *effective* one — overrides participate in the
    content hash, and therefore in the cache key.  Backend validation is by
    name only (no backend module is imported), so this is safe on the
    cache-hit / job-planning path.  Shared by :meth:`Orchestrator.run` and
    the results service's job planner.
    """
    if seed is not None:
        spec = spec.with_(seed=int(seed))
    if backend is not None:
        spec = spec.with_(backend=str(backend))
    if shards is not None:
        spec = spec.with_(shards=int(shards))
    if spec.backend != "reference":
        from repro.backends.base import backend_names

        names = backend_names()
        if spec.backend not in names:
            raise ValueError(
                f"unknown execution backend {spec.backend!r}; known "
                f"backends: {', '.join(names)}"
            )
        if spec.kind not in BACKEND_AWARE_KINDS:
            raise ValueError(
                f"scenario kind {spec.kind!r} always runs on the reference "
                f"machinery and cannot honour backend={spec.backend!r}; "
                f"backend-aware kinds: {', '.join(sorted(BACKEND_AWARE_KINDS))}"
            )
    if spec.shards > 0 and spec.kind not in BACKEND_AWARE_KINDS:
        raise ValueError(
            f"scenario kind {spec.kind!r} drives a bespoke experiment "
            f"pipeline and cannot run sharded (shards={spec.shards}); "
            f"shardable kinds: {', '.join(sorted(BACKEND_AWARE_KINDS))}"
        )
    return spec


class Orchestrator:
    """Runs scenarios through the cache and the process-wide warm pool.

    Parameters
    ----------
    cache:
        Result store; defaults to :class:`ResultCache` rooted at
        ``REPRO_CACHE_DIR`` / ``~/.cache/repro``.  ``None`` with
        ``use_cache=False`` disables caching entirely.
    workers:
        Slots of the shared warm pool
        (:func:`~repro.distributed.executors.shared_process_executor`)
        that Monte-Carlo-heavy kinds run on.  ``None`` or ``<= 1`` keeps
        everything in-process (bit-identical results either way).
    shard_executor:
        Where sharded specs (``spec.shards >= 1``) execute: an executor
        name (``inline``/``process``) or a live
        :class:`~repro.distributed.executors.ShardExecutor` instance (the
        results service passes its worker-board executor).  ``None`` picks
        ``process`` when ``workers`` is set and ``inline`` otherwise.
    shard_store:
        Shard-level block cache; defaults to a
        :class:`~repro.distributed.store.ShardStore` under the same cache
        root.  Consulted by every engine-backed Monte-Carlo run (sharded
        or not), and disabled alongside ``use_cache=False``.
    shard_progress:
        Optional callback receiving scheduler progress events of sharded
        runs (the job queue streams them to NDJSON subscribers).
    shard_options:
        Extra scheduler keywords for engine runs (``max_attempts``,
        ``shard_timeout``, ``slot_wait``), folded into every
        :class:`~repro.montecarlo.engine.EngineRequest`.
    """

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        workers: Optional[int] = None,
        use_cache: bool = True,
        shard_executor: Any = None,
        shard_store: Any = None,
        shard_progress: Optional[Callable[[Dict[str, Any]], None]] = None,
        shard_options: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.cache = cache if cache is not None else (ResultCache() if use_cache else None)
        self.workers = workers
        self.shard_executor = shard_executor
        self.shard_progress = shard_progress
        self.shard_options = dict(shard_options or {})
        self._use_shard_store = use_cache
        self._shard_store = shard_store
        #: True while a ``force=True`` run executes: sharded runners must
        #: then recompute (and re-persist) every seed block instead of
        #: serving them from the shard store.
        self._refresh_shards = False
        #: Where the engine runs of the point being executed go (see
        #: :meth:`_executor_for`); ``None`` outside :meth:`run`.
        self._point_executor: Any = None

    @property
    def shard_store(self):
        """The block cache for Monte-Carlo runs (created lazily; may be None).

        Every engine-backed run — not just explicitly sharded ones — reads
        and writes it, so interrupted runs resume and grown ensembles
        compute only the delta.  Rooted next to the result cache so the two
        are evicted together (and isolated together in tests).
        """
        if not self._use_shard_store:
            return None
        if self._shard_store is None:
            from repro.distributed.store import ShardStore

            root = self.cache.root if self.cache is not None else None
            self._shard_store = ShardStore(root)
        return self._shard_store

    # -- executors ---------------------------------------------------------

    def _executor_for(self, spec: ScenarioSpec) -> Any:
        """The executor every engine run of ``spec`` uses.

        Sharded points go to the ``shard_executor`` (names resolve to an
        inline slot or the warm pool; instances are used as-is), pooled
        points to the warm pool with ``workers`` slots, and everything else
        gets ``None`` so the engine runs it inline.  Nothing returned here
        is closed by the orchestrator or the engine.
        """
        from repro.distributed.executors import (
            resolve_executor,
            shared_process_executor,
        )

        if spec.shards > 0:
            return resolve_executor(self.shard_executor, workers=self.workers)
        if self.workers is not None and self.workers > 1:
            return shared_process_executor(self.workers)
        return None

    def close(self) -> None:
        """Nothing to release: the warm pool is process-wide (atexit-closed)."""

    def __enter__(self) -> "Orchestrator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- execution ---------------------------------------------------------

    def run(
        self,
        scenario: Union[str, ScenarioSpec],
        quick: bool = False,
        force: bool = False,
        seed: Optional[int] = None,
        backend: Optional[str] = None,
        shards: Optional[int] = None,
    ) -> ScenarioResult:
        """Run one scenario (by name or spec), serving cache hits when possible.

        ``backend`` and ``shards`` override the spec's execution backend
        and shard count (the overrides are part of the effective spec, so
        they participate in the cache key).
        """
        spec = (
            registry.resolve(scenario, quick=quick)
            if isinstance(scenario, str)
            else scenario
        )
        spec = apply_overrides(spec, seed=seed, backend=backend, shards=shards)
        if self.cache is not None and not force:
            cached = self.cache.get(spec)
            if cached is not None:
                return cached
        try:
            run_kind = _RUNNERS[spec.kind]
        except KeyError:
            raise ValueError(
                f"no runner for scenario kind {spec.kind!r}; known kinds: "
                f"{', '.join(runner_kinds())}"
            ) from None
        import numpy as np

        started = time.perf_counter()
        executor = self._executor_for(spec)
        previous = (self._refresh_shards, self._point_executor)
        self._refresh_shards, self._point_executor = force, executor
        try:
            scalars, arrays, rendered = run_kind(spec, self)
        finally:
            self._refresh_shards, self._point_executor = previous
        elapsed = time.perf_counter() - started
        result = ScenarioResult(
            name=spec.name,
            kind=spec.kind,
            spec_hash=spec.content_hash,
            scalars={k: _scalar(v) for k, v in scalars.items()},
            arrays={k: np.asarray(v) for k, v in arrays.items()},
            rendered=rendered,
            runtime_seconds=elapsed,
        )
        if self.cache is not None:
            self.cache.put(spec, result)
        return result

    def run_many(
        self,
        scenarios: Iterable[Union[str, ScenarioSpec]],
        quick: bool = False,
        force: bool = False,
        backend: Optional[str] = None,
        shards: Optional[int] = None,
    ) -> List[ScenarioResult]:
        """Run several scenarios, sharing this orchestrator's cache."""
        return [
            self.run(s, quick=quick, force=force, backend=backend, shards=shards)
            for s in scenarios
        ]

    def compare(
        self,
        scenarios: Sequence[Union[str, ScenarioSpec]],
        quick: bool = False,
        force: bool = False,
        backend: Optional[str] = None,
        shards: Optional[int] = None,
    ) -> str:
        """Run several scenarios and tabulate their headline numbers."""
        from repro.analysis.reporting import format_table
        from repro.analysis.tables import Table

        table = Table(
            ["scenario", "kind", "headline", "value", "runtime (s)", "cached"],
            title="Scenario comparison",
        )
        for result in self.run_many(
            scenarios, quick=quick, force=force, backend=backend, shards=shards
        ):
            table.add_row(
                {
                    "scenario": result.name,
                    "kind": result.kind,
                    "headline": str(result.scalars.get("headline_label", "")),
                    "value": float(result.scalars.get("headline", float("nan"))),
                    "runtime (s)": result.runtime_seconds,
                    "cached": "yes" if result.from_cache else "no",
                }
            )
        return format_table(table, float_format="{:.2f}")


# ---------------------------------------------------------------------------
# Paper-artefact runners (thin adapters over repro.experiments)
# ---------------------------------------------------------------------------


@runner("fig1")
def _run_fig1(spec: ScenarioSpec, ctx: Orchestrator) -> RunnerOutput:
    from repro.experiments.fig1_processing_pdf import run

    result = run(
        params=spec.system.to_parameters(),
        tasks_per_node=int(spec.option("tasks_per_node", 2000)),
        seed=spec.seed,
    )
    scalars: Dict[str, Any] = {
        "headline_label": "fitted rate node 1 (tasks/s)",
        "headline": result.fits[0].rate,
    }
    arrays: Dict[str, np.ndarray] = {}
    for node, fit in sorted(result.fits.items()):
        scalars[f"fitted_rate_node{node + 1}"] = fit.rate
        scalars[f"ks_pvalue_node{node + 1}"] = fit.ks_pvalue
        centers, density, fitted = result.density_series(node)
        arrays[f"node{node + 1}_bin_centers"] = centers
        arrays[f"node{node + 1}_density"] = density
        arrays[f"node{node + 1}_fitted_density"] = fitted
    return scalars, arrays, result.render()


@runner("fig2")
def _run_fig2(spec: ScenarioSpec, ctx: Orchestrator) -> RunnerOutput:
    import numpy as np

    from repro.experiments.fig2_delay_pdf import run

    result = run(
        params=spec.system.to_parameters(),
        probes_per_size=int(spec.option("probes_per_size", 30)),
        seed=spec.seed,
    )
    sizes, measured, fitted = result.mean_delay_series()
    scalars = {
        "headline_label": "regression slope (s/task)",
        "headline": result.regression.slope,
        "fitted_delay_mean": result.delay_fit.mean,
        "regression_slope": result.regression.slope,
        "regression_intercept": result.regression.intercept,
        "regression_r_squared": result.regression.r_squared,
    }
    arrays = {
        "probe_sizes": np.asarray(sizes),
        "probe_mean_delays": np.asarray(measured),
        "fitted_mean_delays": np.asarray(fitted),
    }
    return scalars, arrays, result.render()


@runner("fig3")
def _run_fig3(spec: ScenarioSpec, ctx: Orchestrator) -> RunnerOutput:
    from repro.experiments.fig3_gain_sweep import run

    result = run(
        params=spec.system.to_parameters(),
        workload=spec.workload,
        gains=spec.gains,
        mc_realisations=spec.mc_realisations,
        experiment_realisations=spec.experiment_realisations,
        seed=spec.seed,
        workers=ctx.workers,
        executor=ctx._point_executor,
        store=ctx.shard_store,
        refresh=ctx._refresh_shards,
    )
    scalars = {
        "headline_label": "minimum mean completion time (s)",
        "headline": result.minimum_mean_completion_time,
        "optimal_gain_theory": result.optimal_gain_theory,
        "optimal_gain_no_failure": result.optimal_gain_no_failure,
        "minimum_mean_completion_time": result.minimum_mean_completion_time,
    }
    arrays = {
        "gains": result.gains,
        "theory": result.theory,
        "theory_no_failure": result.theory_no_failure,
        "monte_carlo": result.monte_carlo,
        "experiment": result.experiment,
    }
    return scalars, arrays, result.render()


@runner("fig4")
def _run_fig4(spec: ScenarioSpec, ctx: Orchestrator) -> RunnerOutput:
    import numpy as np

    from repro.experiments.fig4_queue_traces import run

    result = run(
        params=spec.system.to_parameters(),
        workload=spec.workload,
        lbp1_gain=float(spec.option("lbp1_gain", 0.35)),
        lbp2_gain=float(spec.option("lbp2_gain", 1.0)),
        seed=spec.seed,
    )
    scalars = {
        "headline_label": "LBP-1 completion time (s)",
        "headline": result.lbp1_result.completion_time,
        "lbp1_completion_time": result.lbp1_result.completion_time,
        "lbp2_completion_time": result.lbp2_result.completion_time,
        "lbp2_compensation_transfers": sum(
            1
            for r in result.lbp2_result.transfer_records
            if r.reason == "failure-compensation"
        ),
    }
    arrays: Dict[str, np.ndarray] = {}
    for policy in ("lbp1", "lbp2"):
        for node in range(len(spec.workload)):
            times, values = result.queue_series(policy, node)
            arrays[f"{policy}_node{node + 1}_times"] = np.asarray(times)
            arrays[f"{policy}_node{node + 1}_queue"] = np.asarray(values)
    rendered = result.render(num_points=int(spec.option("sample_points", 30)))
    return scalars, arrays, rendered


@runner("fig5")
def _run_fig5(spec: ScenarioSpec, ctx: Orchestrator) -> RunnerOutput:
    from repro.experiments.fig5_cdf import run

    workloads = spec.option("workloads")
    result = run(
        params=spec.system.to_parameters(),
        workloads=tuple(tuple(w) for w in workloads) if workloads else None,
        with_monte_carlo=bool(spec.option("with_monte_carlo", False)),
        mc_realisations=spec.mc_realisations,
        seed=spec.seed,
    )
    scalars: Dict[str, Any] = {}
    arrays: Dict[str, np.ndarray] = {}
    for workload, panel in result.panels.items():
        key = f"w{workload[0]}_{workload[1]}"
        scalars[f"{key}_median_failure"] = panel.cdf_failure.quantile(0.5)
        scalars[f"{key}_median_no_failure"] = panel.cdf_no_failure.quantile(0.5)
        arrays[f"{key}_times"] = panel.times
        arrays[f"{key}_cdf_failure"] = panel.cdf_failure.probabilities
        arrays[f"{key}_cdf_no_failure"] = panel.cdf_no_failure.probabilities
        if panel.empirical_failure is not None:
            arrays[f"{key}_empirical_failure"] = panel.empirical_failure
    first = next(iter(result.panels.values()))
    scalars["headline_label"] = "median completion time, panel 1 (s)"
    scalars["headline"] = first.cdf_failure.quantile(0.5)
    return scalars, arrays, result.render()


@runner("table1")
def _run_table1(spec: ScenarioSpec, ctx: Orchestrator) -> RunnerOutput:
    import numpy as np

    from repro.experiments.table1_lbp1 import run

    workloads = spec.option("workloads")
    result = run(
        params=spec.system.to_parameters(),
        workloads=tuple(tuple(w) for w in workloads),
        experiment_realisations=spec.experiment_realisations,
        seed=spec.seed,
    )
    scalars: Dict[str, Any] = {
        "headline_label": "theory, first workload (s)",
        "headline": result.rows[0].theory_with_failure,
    }
    for row in result.rows:
        key = f"w{row.workload[0]}_{row.workload[1]}"
        scalars[f"{key}_optimal_gain"] = row.optimal_gain
        scalars[f"{key}_theory"] = row.theory_with_failure
        scalars[f"{key}_experiment"] = row.experiment_with_failure
    arrays = {
        "optimal_gain": np.array([r.optimal_gain for r in result.rows]),
        "theory": np.array([r.theory_with_failure for r in result.rows]),
        "experiment": np.array([r.experiment_with_failure for r in result.rows]),
        "theory_no_failure": np.array([r.theory_no_failure for r in result.rows]),
    }
    return scalars, arrays, result.render()


@runner("table2")
def _run_table2(spec: ScenarioSpec, ctx: Orchestrator) -> RunnerOutput:
    import numpy as np

    from repro.experiments.table2_lbp2 import run

    workloads = spec.option("workloads")
    result = run(
        params=spec.system.to_parameters(),
        workloads=tuple(tuple(w) for w in workloads),
        mc_realisations=spec.mc_realisations,
        experiment_realisations=spec.experiment_realisations,
        seed=spec.seed,
    )
    scalars: Dict[str, Any] = {
        "headline_label": "Monte-Carlo, first workload (s)",
        "headline": result.rows[0].monte_carlo,
    }
    for row in result.rows:
        key = f"w{row.workload[0]}_{row.workload[1]}"
        scalars[f"{key}_initial_gain"] = row.initial_gain
        scalars[f"{key}_monte_carlo"] = row.monte_carlo
        scalars[f"{key}_experiment"] = row.experiment
    arrays = {
        "initial_gain": np.array([r.initial_gain for r in result.rows]),
        "monte_carlo": np.array([r.monte_carlo for r in result.rows]),
        "experiment": np.array([r.experiment for r in result.rows]),
    }
    return scalars, arrays, result.render()


@runner("table3")
def _run_table3(spec: ScenarioSpec, ctx: Orchestrator) -> RunnerOutput:
    from repro.experiments.table3_delay_crossover import run

    result = run(
        params=spec.system.to_parameters(),
        workload=spec.workload,
        delays=spec.delays,
        mc_realisations=spec.mc_realisations,
        seed=spec.seed,
        workers=ctx.workers,
        executor=ctx._point_executor,
        store=ctx.shard_store,
        refresh=ctx._refresh_shards,
    )
    crossover = result.crossover_delay
    scalars = {
        "headline_label": "crossover delay (s/task)",
        "headline": crossover if crossover is not None else float("nan"),
        "crossover_delay": crossover,
    }
    arrays = {
        "delays": result.sweep.delays,
        "lbp1": result.sweep.lbp1_means,
        "lbp2": result.sweep.lbp2_means,
    }
    if result.sweep.lbp1_theory is not None:
        arrays["lbp1_theory"] = result.sweep.lbp1_theory
    return scalars, arrays, result.render()


# ---------------------------------------------------------------------------
# Generic runners for scenario families beyond the paper
# ---------------------------------------------------------------------------


def _estimate(spec: ScenarioSpec, ctx: Orchestrator, policy, seed):
    """One Monte-Carlo estimate through the unified engine.

    Every run — serial, pooled or sharded — is the same plan→execute→merge
    pipeline; only the executor differs, and the orchestrator resolved it
    once for the point (:meth:`Orchestrator._executor_for`): the shard
    executor (process pool / remote worker board) with the spec's shard
    count for ``spec.shards >= 1``, else the warm pool when ``workers > 1``,
    else inline.  The work
    item carries a fully-serialized mc-point spec, so runners that built
    their policy programmatically (pinned analytical gains) or were handed
    a spawned seed get both folded back into spec fields first — which is
    also what keys the shard-level block cache for *all* of these runs.  A
    policy outside the built-in kinds has no spec form and raises
    :class:`ValueError`.

    Returns ``(estimate, report)``; ``report`` is the engine's
    :class:`~repro.montecarlo.engine.EngineReport`.
    """
    from repro.distributed.work import int_seed, policy_spec_of
    from repro.montecarlo.engine import EngineRequest, run_engine

    on_event = None
    if ctx.shard_progress is not None:
        progress = ctx.shard_progress

        def on_event(event: Dict[str, Any]) -> None:
            progress({"point": spec.name, **event})

    effective = spec.with_(
        kind="mc_point",
        policy=policy_spec_of(policy),
        seed=int_seed(seed),
    )
    report = run_engine(
        EngineRequest(
            spec=effective,
            executor=ctx._point_executor,
            workers=ctx.workers,
            store=ctx.shard_store,
            refresh=ctx._refresh_shards,
            on_event=on_event,
            **ctx.shard_options,
        )
    )
    return report.estimate, report


@runner("mc_point")
def _run_mc_point(spec: ScenarioSpec, ctx: Orchestrator) -> RunnerOutput:
    """A single policy/system/workload Monte-Carlo estimate."""
    params = spec.system.to_parameters()
    policy = (spec.policy or PolicySpec()).build(params, spec.workload)
    estimate, report = _estimate(spec, ctx, policy, spec.seed)
    summary = estimate.summary
    gain = getattr(policy, "gain", None)
    scalars = {
        "headline_label": "mean completion time (s)",
        "headline": summary.mean,
        "policy": estimate.policy_name,
        "backend": spec.backend,
        "gain": gain if gain is None else float(gain),
        "mean_completion_time": summary.mean,
        "std_completion_time": summary.std,
        "ci_half_width": summary.half_width,
        "num_realisations": summary.n,
    }
    arrays = {"completion_times": estimate.completion_times}
    lines = [
        f"scenario {spec.name}: {estimate.policy_name} on workload {spec.workload}",
        f"  nodes: {spec.system.num_nodes}, realisations: {summary.n}, "
        f"backend: {spec.backend}",
        f"  mean completion time: {summary.mean:.2f} s "
        f"(95% CI ±{summary.half_width:.2f})",
        f"  min/max: {summary.minimum:.2f} / {summary.maximum:.2f} s",
    ]
    if spec.shards > 0:
        scalars["shards"] = spec.shards
        scalars["shard_block"] = spec.shard_block
        scalars["blocks_total"] = report.blocks_total
        lines.insert(
            2,
            f"  sharded: {spec.shards} shards over {report.blocks_total} "
            f"seed blocks of {spec.shard_block}",
        )
    if gain is not None:
        lines.insert(1, f"  gain: {float(gain):.2f}")
    return scalars, arrays, "\n".join(lines)


@runner("delay_point")
def _run_delay_point(spec: ScenarioSpec, ctx: Orchestrator) -> RunnerOutput:
    """One Table-3-style LBP-1 vs LBP-2 duel at the spec's transfer delay."""
    from repro.core.optimize import optimal_gain_lbp1, optimal_gain_lbp2_initial
    from repro.core.policies.lbp1 import LBP1
    from repro.core.policies.lbp2 import LBP2
    from repro.sim.rng import spawn_seeds

    params = spec.system.to_parameters()
    seeds = spawn_seeds(spec.seed, 2)

    optimum = optimal_gain_lbp1(params, spec.workload)
    lbp1 = LBP1(optimum.optimal_gain, sender=optimum.sender, receiver=optimum.receiver)
    lbp1_estimate, _ = _estimate(spec, ctx, lbp1, seeds[0])
    lbp1_mean = lbp1_estimate.mean_completion_time

    initial_gain = optimal_gain_lbp2_initial(params, spec.workload).optimal_gain
    lbp2_estimate, _ = _estimate(spec, ctx, LBP2(initial_gain), seeds[1])
    lbp2_mean = lbp2_estimate.mean_completion_time

    delay = params.delay.mean_delay_per_task
    winner = "lbp1" if lbp1_mean < lbp2_mean else "lbp2"
    scalars = {
        "headline_label": "best mean completion time (s)",
        "headline": min(lbp1_mean, lbp2_mean),
        "delay_per_task": delay,
        "lbp1_gain": optimum.optimal_gain,
        "lbp1_mean": lbp1_mean,
        "lbp1_theory": optimum.optimal_mean,
        "lbp2_initial_gain": initial_gain,
        "lbp2_mean": lbp2_mean,
        "winner": winner,
    }
    arrays: Dict[str, np.ndarray] = {}
    rendered = "\n".join(
        [
            f"scenario {spec.name}: per-task delay {delay:g} s, "
            f"workload {spec.workload}",
            f"  LBP-1 (K={optimum.optimal_gain:.2f}): {lbp1_mean:.2f} s "
            f"(theory {optimum.optimal_mean:.2f} s)",
            f"  LBP-2 (K={initial_gain:.2f}): {lbp2_mean:.2f} s",
            f"  winner: {winner.upper()}",
        ]
    )
    return scalars, arrays, rendered
