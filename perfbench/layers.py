"""Layer timers for the traced benchmark run, and a ``/metrics`` diff helper.

:class:`LayerTimers` wraps public entry points of the program from outside
(nothing under ``src/`` changes): one span per call, kept in memory.  A
span's *self time* is its duration minus the wrapped calls nested directly
inside it.  A function is patched everywhere it is looked up -- on its
defining module or class and on every loaded ``repro`` module that bound
the same object at import time (``from x import f``, as the executors do
with ``execute_work_item``) -- and :meth:`LayerTimers.uninstall` puts every
original back.

:func:`parse_metrics` / :func:`diff_metrics` read the Prometheus text
exposition that ``GET /metrics`` serves (and ``REGISTRY.render()``
produces in-process), so a layer's work can be taken as the delta of two
scrapes.
"""

from __future__ import annotations

import functools
import re
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple


@dataclass
class LayerTotals:
    """What one wrapped layer did while the timers were installed."""

    #: Calls not nested inside another call of the same layer.
    calls: int = 0
    #: Duration of those outermost calls (nested same-layer calls are not
    #: counted twice).
    inclusive_s: float = 0.0
    #: Duration minus the wrapped calls nested directly inside, summed over
    #: every call.
    self_s: float = 0.0


#: ``on_return(args, kwargs, result, elapsed_s)`` -- observes each call.
OnReturn = Callable[[tuple, dict, Any, float], None]


class LayerTimers:
    """Install wrappers around entry points; accumulate per-layer totals."""

    def __init__(self) -> None:
        self.totals: Dict[str, LayerTotals] = {}
        self._patches: List[Tuple[Any, str, Any]] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrapper(self, original: Callable, layer: str, on_return: Optional[OnReturn]):
        timers = self

        @functools.wraps(original)
        def wrapped(*args, **kwargs):
            stack = timers._stack()
            outermost = all(frame[0] != layer for frame in stack)
            frame = [layer, 0.0]  # layer, seconds of wrapped children
            stack.append(frame)
            started = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                with timers._lock:
                    totals = timers.totals.setdefault(layer, LayerTotals())
                    totals.self_s += elapsed - frame[1]
                    if outermost:
                        totals.calls += 1
                        totals.inclusive_s += elapsed
            if on_return is not None:
                on_return(args, kwargs, result, elapsed)
            return result

        return wrapped

    # -- patching ----------------------------------------------------------

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap_function(
        self, module: Any, name: str, layer: str, on_return: Optional[OnReturn] = None
    ) -> None:
        """Wrap ``module.name`` and every ``repro`` module binding of it."""
        original = getattr(module, name)
        wrapped = self._wrapper(original, layer, on_return)
        for owner, attr in _bindings(original):
            self._patch(owner, attr, wrapped)

    def wrap_method(
        self, cls: type, name: str, layer: str, on_return: Optional[OnReturn] = None
    ) -> None:
        """Wrap ``cls.name`` as defined on ``cls`` itself."""
        original = cls.__dict__[name]
        self._patch(cls, name, self._wrapper(original, layer, on_return))

    def uninstall(self) -> None:
        """Restore every patched attribute (most recent first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def get(self, layer: str) -> LayerTotals:
        return self.totals.get(layer, LayerTotals())


def _bindings(original: Any) -> Iterable[Tuple[Any, str]]:
    """``(module, attribute)`` pairs of loaded ``repro`` modules bound to
    ``original`` -- the places a call can look the function up."""
    found = []
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                found.append((module, attr))
    return found


# ---------------------------------------------------------------------------
# Prometheus text exposition: parse and diff
# ---------------------------------------------------------------------------

SeriesKey = Tuple[str, FrozenSet[Tuple[str, str]]]

_SAMPLE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})?\s+(\S+)")
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_metrics(text: str) -> Dict[SeriesKey, float]:
    """Series -> value for every sample line of a Prometheus exposition."""
    series: Dict[SeriesKey, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if match is None:
            continue
        name, labels, value = match.groups()
        pairs = frozenset(
            (key, raw.replace('\\"', '"').replace("\\\\", "\\"))
            for key, raw in _LABEL.findall(labels or "")
        )
        try:
            series[(name, pairs)] = float(value)
        except ValueError:
            continue
    return series


def diff_metrics(
    before: Dict[SeriesKey, float], after: Dict[SeriesKey, float]
) -> Dict[SeriesKey, float]:
    """``after - before`` per series (a series absent before counts as 0)."""
    return {key: value - before.get(key, 0.0) for key, value in after.items()}


def total(series: Dict[SeriesKey, float], name: str, **labels: str) -> float:
    """Sum of ``name`` over every series whose labels include ``labels``."""
    wanted = set(labels.items())
    return float(sum(
        value
        for (metric, pairs), value in series.items()
        if metric == name and wanted <= pairs
    ))


def histogram_mean(series: Dict[SeriesKey, float], name: str, **labels: str) -> float:
    """Mean observation of histogram ``name`` (0 when nothing was observed)."""
    count = total(series, f"{name}_count", **labels)
    return total(series, f"{name}_sum", **labels) / count if count else 0.0


# ---------------------------------------------------------------------------
# The program's layers
# ---------------------------------------------------------------------------

#: Per-layer metrics a traced run reports, named by module.  A layer a
#: workload does not exercise reports 0.
LAYER_METRIC_NAMES = (
    "core.optimize_s",
    "core.optimize_calls",
    "core.solver_calls",
    "backends.run_batch_s",
    "backends.realisations",
    "backends.us_per_realisation",
    "backends.reference.realisations",
    "backends.vectorized.realisations",
    "montecarlo.runs",
    "montecarlo.engine_self_s",
    "montecarlo.merge_s",
    "montecarlo.blocks_computed",
    "montecarlo.blocks_cached",
    "distributed.store.get_s",
    "distributed.store.gets",
    "distributed.store.hit_ratio",
    "distributed.store.read_bytes",
    "distributed.store.put_s",
    "distributed.store.puts",
    "distributed.store.write_bytes",
    "distributed.frames.encode_s",
    "distributed.frames.decode_s",
    "distributed.frames.bytes",
    "distributed.scheduler.self_s",
    "distributed.work.self_s",
    "distributed.pool.shards",
    "distributed.pool.compute_s",
    "distributed.pool.overhead_s",
    "distributed.pool.busy_share",
    "distributed.worker.busy_s",
    "distributed.worker.empty_claims",
    "distributed.worker.item_claims",
    "distributed.worker.claim_ms",
    "scenarios.cache.get_s",
    "scenarios.cache.gets",
    "scenarios.cache.hits",
    "scenarios.cache.put_s",
    "scenarios.cache.puts",
    "scenarios.cache.write_bytes",
    "scenarios.orchestrator.self_s",
    "obs.history.record_s",
    "obs.history.records",
    "obs.history.ledger_bytes",
    "service.http.submit_ms",
    "service.http.claim_ms",
    "service.http.results_ms",
    "service.http.requests",
    "service.jobs.queue_wait_s",
    "service.jobs.run_s",
    "service.jobs.notify_lag_s",
)


def empty_layer_metrics() -> Dict[str, float]:
    return {name: 0.0 for name in LAYER_METRIC_NAMES}


def registry_rows(delta: Dict[SeriesKey, float]) -> Dict[str, float]:
    """Count and byte rows from a delta of the program's metrics registry.

    The same series exist in-process (``REGISTRY``) and on the service's
    ``/metrics``, so every workload takes these rows the same way.
    ``scenarios.cache.gets`` includes ``ResultCache.peek`` lookups.
    """
    shard_gets = total(delta, "repro_cache_requests_total", store="shard")
    shard_hits = total(delta, "repro_cache_requests_total", store="shard", outcome="hit")
    return {
        "distributed.store.gets": shard_gets,
        "distributed.store.hit_ratio": shard_hits / shard_gets if shard_gets else 0.0,
        "distributed.store.read_bytes": total(delta, "repro_cache_read_bytes_total", store="shard"),
        "distributed.store.puts": total(delta, "repro_cache_writes_total", store="shard"),
        "distributed.store.write_bytes": total(delta, "repro_cache_write_bytes_total", store="shard"),
        "distributed.frames.bytes": total(delta, "repro_frame_bytes_total"),
        "scenarios.cache.gets": total(delta, "repro_cache_requests_total", store="result"),
        "scenarios.cache.hits": total(delta, "repro_cache_requests_total", store="result", outcome="hit"),
        "scenarios.cache.puts": total(delta, "repro_cache_writes_total", store="result"),
        "scenarios.cache.write_bytes": total(delta, "repro_cache_write_bytes_total", store="result"),
        "obs.history.records": total(delta, "repro_history_records_total", kind="run"),
    }


def engine_rows(entries: Iterable[Dict[str, float]]) -> Dict[str, float]:
    """``montecarlo`` and ``distributed.pool`` rows from per-run entries.

    Each entry describes one engine run: ``merge_s``, ``compute_s`` (sum of
    per-block ``wall_seconds`` of computed blocks, wherever they ran),
    ``execute_s``, ``slots``, ``shards``, ``blocks_total``,
    ``blocks_cached`` and ``overhead_s`` (wire + deserialize + dispatch +
    idle from the attribution ledger).
    """
    rows = {
        "montecarlo.runs": 0.0,
        "montecarlo.merge_s": 0.0,
        "montecarlo.blocks_computed": 0.0,
        "montecarlo.blocks_cached": 0.0,
        "distributed.pool.shards": 0.0,
        "distributed.pool.compute_s": 0.0,
        "distributed.pool.overhead_s": 0.0,
    }
    slot_seconds = 0.0
    for entry in entries:
        rows["montecarlo.runs"] += 1
        rows["montecarlo.merge_s"] += entry["merge_s"]
        rows["montecarlo.blocks_computed"] += entry["blocks_total"] - entry["blocks_cached"]
        rows["montecarlo.blocks_cached"] += entry["blocks_cached"]
        rows["distributed.pool.shards"] += entry["shards"]
        rows["distributed.pool.compute_s"] += entry["compute_s"]
        rows["distributed.pool.overhead_s"] += entry["overhead_s"]
        slot_seconds += entry["execute_s"] * max(1.0, entry["slots"])
    rows["distributed.pool.busy_share"] = (
        rows["distributed.pool.compute_s"] / slot_seconds if slot_seconds else 0.0
    )
    return rows


def _num_realisations(args: tuple, kwargs: dict) -> int:
    """``num_realisations`` of an ``ExecutionBackend.run_batch`` call."""
    if "num_realisations" in kwargs:
        return int(kwargs["num_realisations"])
    return int(args[4]) if len(args) > 4 else 0


class ProgramTrace:
    """The traced run's wrappers around the program's layer entry points.

    Everything is read in this process: timings from the wrappers, counts
    and bytes from deltas of the in-process metrics registry
    (:func:`registry_rows`), and the ``EngineReport`` each engine run
    returns.  Blocks that ran in pool slots are counted from the reports'
    per-block ``wall_seconds`` totals.
    """

    def __init__(self) -> None:
        self.timers = LayerTimers()
        self.solves = 0
        self.kernel_realisations = {"reference": 0.0, "vectorized": 0.0}
        self.remote_compute_s = 0.0
        self.entries: List[Dict[str, float]] = []
        self._local_seen = 0.0
        self._registry_before: Dict[SeriesKey, float] = {}
        self._registry_delta: Dict[SeriesKey, float] = {}

    # -- call observers ----------------------------------------------------

    def _count_solve(self, args, kwargs, result, elapsed) -> None:
        self.solves += 1

    def _kernel(self, name: str) -> OnReturn:
        def observe(args, kwargs, result, elapsed) -> None:
            self.kernel_realisations[name] += _num_realisations(args, kwargs)

        return observe

    def _engine_run(self, args, kwargs, report, elapsed) -> None:
        request = args[0] if args else kwargs["request"]
        local = sum(self.kernel_realisations.values())
        if local == self._local_seen and report.blocks_computed:
            # No kernel call in this process: the blocks ran in pool slots
            # and only their per-block wall_seconds came back.
            realisations = report.estimate.summary.n * (
                report.blocks_computed / report.blocks_total
            )
            self.remote_compute_s += report.timings.get("block_compute_seconds", 0.0)
            kernel = _kernel_name(request)
            self.kernel_realisations[kernel] = (
                self.kernel_realisations.get(kernel, 0.0) + realisations
            )
        self._local_seen = sum(self.kernel_realisations.values())
        attribution = report.attribution
        self.entries.append({
            "merge_s": report.timings.get("merge_seconds", 0.0),
            "compute_s": report.timings.get("block_compute_seconds", 0.0),
            "execute_s": report.timings.get("execute_seconds", 0.0),
            "slots": float(len(report.slot_completed)),
            "shards": float(report.shards_dispatched),
            "blocks_total": float(report.blocks_total),
            "blocks_cached": float(report.blocks_cached),
            "overhead_s": sum(
                attribution.get(k, 0.0)
                for k in ("wire_seconds", "deserialize_seconds", "dispatch_seconds", "idle_seconds")
            ),
        })

    # -- lifecycle ---------------------------------------------------------

    def install(self) -> None:
        from repro.backends.reference import ReferenceBackend
        from repro.backends.vectorized import VectorizedBackend
        from repro.core import optimize
        from repro.core.completion_time import CompletionTimeSolver
        from repro.distributed import frames, work
        from repro.distributed.executors import FuturesShardExecutor, ProcessShardExecutor
        from repro.distributed.scheduler import ShardScheduler
        from repro.distributed.store import ShardStore
        from repro.montecarlo import engine
        from repro.obs import history
        from repro.obs.metrics import REGISTRY
        from repro.scenarios.cache import ResultCache
        from repro.scenarios.orchestrator import Orchestrator

        wrap_f, wrap_m = self.timers.wrap_function, self.timers.wrap_method
        wrap_f(optimize, "optimal_gain_lbp1", "core.optimize")
        wrap_f(optimize, "optimal_gain_lbp2_initial", "core.optimize")
        wrap_m(CompletionTimeSolver, "mean_completion_time", "core.solver", self._count_solve)
        wrap_m(CompletionTimeSolver, "lbp1", "core.solver")
        wrap_m(CompletionTimeSolver, "gain_sweep", "core.solver")
        wrap_m(ReferenceBackend, "run_batch", "backends", self._kernel("reference"))
        wrap_m(VectorizedBackend, "run_batch", "backends", self._kernel("vectorized"))
        wrap_f(engine, "run_engine", "montecarlo.engine", self._engine_run)
        wrap_m(ShardScheduler, "run", "distributed.scheduler")
        # Inline block execution, and the scheduler blocked on pool slots:
        # both nest inside the scheduler and are not its own work.
        wrap_f(work, "execute_work_item", "distributed.work")
        wrap_m(FuturesShardExecutor, "poll", "distributed.pool.wait")
        wrap_m(ProcessShardExecutor, "poll", "distributed.pool.wait")
        wrap_m(ShardStore, "get", "distributed.store.get")
        wrap_m(ShardStore, "put", "distributed.store.put")
        wrap_f(frames, "encode_frame", "distributed.frames.encode")
        wrap_f(frames, "decode_frame", "distributed.frames.decode")
        wrap_m(ResultCache, "get", "scenarios.cache.get")
        wrap_m(ResultCache, "put", "scenarios.cache.put")
        wrap_m(Orchestrator, "run", "scenarios.orchestrator")
        wrap_f(history, "record_engine_run", "obs.history")
        self._registry = REGISTRY
        self._registry_before = parse_metrics(REGISTRY.render())

    def uninstall(self) -> None:
        """Restore the originals; totals keep accumulating across installs."""
        self.timers.uninstall()
        delta = diff_metrics(self._registry_before, parse_metrics(self._registry.render()))
        for key, value in delta.items():
            self._registry_delta[key] = self._registry_delta.get(key, 0.0) + value

    def metrics(self, ledger_bytes: float) -> Dict[str, float]:
        get = self.timers.get
        backend_s = get("backends").inclusive_s + self.remote_compute_s
        realisations = sum(self.kernel_realisations.values())
        metrics = empty_layer_metrics()
        metrics.update(engine_rows(self.entries))
        metrics.update(registry_rows(self._registry_delta))
        metrics.update({
            "core.optimize_s": get("core.optimize").inclusive_s,
            "core.optimize_calls": float(get("core.optimize").calls),
            "core.solver_calls": float(self.solves),
            "backends.run_batch_s": backend_s,
            "backends.realisations": realisations,
            "backends.us_per_realisation": 1e6 * backend_s / realisations if realisations else 0.0,
            "backends.reference.realisations": self.kernel_realisations["reference"],
            "backends.vectorized.realisations": self.kernel_realisations["vectorized"],
            "montecarlo.engine_self_s": get("montecarlo.engine").self_s,
            "distributed.store.get_s": get("distributed.store.get").inclusive_s,
            "distributed.store.put_s": get("distributed.store.put").inclusive_s,
            "distributed.frames.encode_s": get("distributed.frames.encode").inclusive_s,
            "distributed.frames.decode_s": get("distributed.frames.decode").inclusive_s,
            "distributed.scheduler.self_s": get("distributed.scheduler").self_s,
            "distributed.work.self_s": get("distributed.work").self_s,
            "scenarios.cache.get_s": get("scenarios.cache.get").inclusive_s,
            "scenarios.cache.put_s": get("scenarios.cache.put").inclusive_s,
            "scenarios.orchestrator.self_s": get("scenarios.orchestrator").self_s,
            "obs.history.record_s": get("obs.history").inclusive_s,
            "obs.history.ledger_bytes": ledger_bytes,
        })
        return metrics


def _kernel_name(request: Any) -> str:
    """The backend an engine request names (every workload runs the spec
    default, ``reference``)."""
    spec = getattr(request, "spec", None)
    name = spec.backend if spec is not None else request.backend
    return str(getattr(name, "name", name or "reference"))
