"""Background job queue layered over the orchestrator and result cache.

A *job* is one submission — a named scenario, an inline spec, a list of
names, or a whole scenario family — planned into content-addressed
:class:`~repro.scenarios.spec.ScenarioSpec` points.  The queue serves two
very different cost classes through one interface:

* **cache hits** complete at submit time: every planned point is looked up
  with :meth:`ResultCache.peek` (a metadata-only disk read), so a fully
  cached job never enqueues, never spawns the worker and never imports
  numpy/scipy;
* **misses** run on a single background worker coroutine that executes the
  job's points in a thread through one shared
  :class:`~repro.scenarios.orchestrator.Orchestrator` (one cache for the
  whole service; pooled points run on the process-wide warm pool),
  publishing per-point progress events as it goes.

Progress is observable two ways: polling :meth:`Job.to_dict` or streaming
:meth:`JobQueue.events`, which yields each state change exactly once per
subscriber (every subscriber replays the full event history from seq 0).
"""

from __future__ import annotations

import asyncio
import itertools
import time
from dataclasses import dataclass, field
from typing import Any, AsyncIterator, Dict, List, Optional, Tuple

from repro.obs.metrics import REGISTRY
from repro.obs.trace import Tracer
from repro.scenarios.cache import ResultCache, ScenarioResult
from repro.scenarios.orchestrator import apply_overrides
from repro.scenarios.spec import ScenarioSpec

#: Job lifecycle states.
QUEUED, RUNNING, DONE, FAILED = "queued", "running", "done", "failed"
JOB_STATES = (QUEUED, RUNNING, DONE, FAILED)

_JOBS_SUBMITTED = REGISTRY.counter(
    "repro_jobs_submitted_total", "Jobs accepted by the queue."
)
_JOBS_COMPLETED = REGISTRY.counter(
    "repro_jobs_completed_total",
    "Jobs that reached a terminal state, by state.",
    labelnames=("state",),
)
_QUEUE_DEPTH = REGISTRY.gauge(
    "repro_job_queue_depth", "Jobs waiting in the queue (excludes running)."
)

#: Fields a submission payload may carry.
_SUBMIT_KEYS = frozenset(
    {
        "scenario",
        "scenarios",
        "family",
        "spec",
        "quick",
        "seed",
        "backend",
        "force",
        "shards",
        "executor",
    }
)


def plan_submission(payload: Any) -> Tuple[Tuple[ScenarioSpec, ...], Dict[str, Any]]:
    """Validate a submit payload and expand it into effective specs.

    Exactly one of ``scenario`` (name), ``scenarios`` (list of names),
    ``family`` (family name) or ``spec`` (inline spec dict) selects the
    work; ``quick``/``seed``/``backend``/``shards``/``force`` tune it
    (the first three fold into the effective specs and hence the cache
    keys), while ``executor`` picks *where* sharded points run
    (``inline``/``process``/``workers``) without affecting results —
    every Monte-Carlo point goes through the unified engine, so the
    merged numbers are identical whichever executor computes them.
    Returns the planned specs plus a normalised echo of the request for
    the job record.  Raises ``ValueError`` with a user-facing message on
    any invalid input — validation never imports the numerical stack.
    """
    if not isinstance(payload, dict):
        raise ValueError("submission must be a JSON object")
    unknown = set(payload) - _SUBMIT_KEYS
    if unknown:
        raise ValueError(
            f"unknown submission fields: {', '.join(sorted(unknown))}; "
            f"allowed: {', '.join(sorted(_SUBMIT_KEYS))}"
        )

    selectors = [k for k in ("scenario", "scenarios", "family", "spec") if k in payload]
    if len(selectors) != 1:
        raise ValueError(
            "exactly one of 'scenario', 'scenarios', 'family' or 'spec' "
            "must be given"
        )

    quick = bool(payload.get("quick", False))
    force = bool(payload.get("force", False))
    seed = payload.get("seed")
    if seed is not None and not isinstance(seed, int):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    backend = payload.get("backend")
    if backend is not None and not isinstance(backend, str):
        raise ValueError(f"backend must be a string, got {backend!r}")
    shards = payload.get("shards")
    if shards is not None and (isinstance(shards, bool) or not isinstance(shards, int)):
        raise ValueError(f"shards must be an integer, got {shards!r}")
    executor = payload.get("executor")
    if executor is not None:
        from repro.distributed.executors import EXECUTOR_NAMES

        if executor not in EXECUTOR_NAMES:
            raise ValueError(
                f"unknown shard executor {executor!r}; known executors: "
                f"{', '.join(EXECUTOR_NAMES)}"
            )

    from repro.scenarios import registry

    selector = selectors[0]
    try:
        if selector == "scenario":
            specs = [registry.resolve(str(payload["scenario"]), quick=quick)]
        elif selector == "scenarios":
            names = payload["scenarios"]
            if not isinstance(names, list) or not names:
                raise ValueError("'scenarios' must be a non-empty list of names")
            specs = [registry.resolve(str(name), quick=quick) for name in names]
        elif selector == "family":
            family = registry.get_family(str(payload["family"]))
            specs = list(family.expand(quick=quick))
        else:  # inline spec
            if not isinstance(payload["spec"], dict):
                raise ValueError("'spec' must be a scenario-spec object")
            try:
                specs = [ScenarioSpec.from_dict(payload["spec"])]
            except (KeyError, TypeError) as error:
                raise ValueError(f"invalid inline spec: {error}") from None
    except KeyError as error:
        # Registry lookups raise KeyError with a complete message.
        raise ValueError(str(error.args[0])) from None

    effective = tuple(
        apply_overrides(spec, seed=seed, backend=backend, shards=shards)
        for spec in specs
    )
    request = {
        selector: payload[selector],
        "quick": quick,
        "force": force,
        "seed": seed,
        "backend": backend,
        "shards": shards,
        "executor": executor,
    }
    return effective, request


def _point_payload(spec: ScenarioSpec, result: ScenarioResult, key: str) -> Dict[str, Any]:
    """The per-point result summary stored on the job (JSON-safe, no arrays)."""
    return {
        "name": spec.name,
        "kind": spec.kind,
        "backend": spec.backend,
        "content_hash": spec.content_hash,
        "cache_key": key,
        "from_cache": result.from_cache,
        "runtime_seconds": result.runtime_seconds,
        "headline_label": result.scalars.get("headline_label"),
        "headline": result.scalars.get("headline"),
    }


@dataclass
class Job:
    """One submission moving through the queue."""

    id: str
    request: Dict[str, Any]
    specs: Tuple[ScenarioSpec, ...]
    state: str = QUEUED
    error: Optional[str] = None
    created_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    results: List[Dict[str, Any]] = field(default_factory=list)
    events: List[Dict[str, Any]] = field(default_factory=list)
    #: Span log of the job's execution (None until it runs; cached jobs
    #: never run, so theirs stays empty).
    trace: Optional[Tracer] = field(default=None, repr=False)
    _updated: asyncio.Event = field(default_factory=asyncio.Event, repr=False)
    #: Monotonic birth stamp; event `t` fields are relative to this.
    _monotonic0: float = field(default_factory=time.monotonic, repr=False)

    @property
    def total_points(self) -> int:
        return len(self.specs)

    @property
    def completed_points(self) -> int:
        return len(self.results)

    @property
    def finished(self) -> bool:
        return self.state in (DONE, FAILED)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "state": self.state,
            "request": self.request,
            "points": [spec.name for spec in self.specs],
            "total_points": self.total_points,
            "completed_points": self.completed_points,
            "results": list(self.results),
            "error": self.error,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }

    # -- progress publication (event-loop thread only) ---------------------

    def _publish(self, **extra: Any) -> None:
        event = {
            "seq": len(self.events),
            # Seconds since the job was created (monotonic clock) — lets
            # clients correlate the progress stream with the span trace.
            "t": round(time.monotonic() - self._monotonic0, 6),
            "job": self.id,
            "state": self.state,
            "completed_points": self.completed_points,
            "total_points": self.total_points,
            **extra,
        }
        self.events.append(event)
        self._updated.set()
        self._updated = asyncio.Event()

    async def _wait_update(self) -> None:
        await self._updated.wait()


class JobQueue:
    """Plans, schedules and tracks jobs for the results service.

    Must be constructed (and used) inside a running event loop.  One
    orchestrator is created lazily on the first cache miss and reused for
    every subsequent job; its pooled points share the process-wide warm
    pool, which lives until interpreter exit.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        max_finished_jobs: int = 256,
        shard_board=None,
        shard_options: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.workers = workers
        self.cache = cache if cache is not None else ResultCache()
        self.max_finished_jobs = max_finished_jobs
        self.shard_board = shard_board
        self.shard_options = dict(shard_options or {})
        self.jobs: Dict[str, Job] = {}
        self._ids = itertools.count(1)
        self._queue: "asyncio.Queue[Job]" = asyncio.Queue()
        self._worker: Optional[asyncio.Task] = None
        self._orchestrator = None
        self._loop = asyncio.get_running_loop()

    # -- lifecycle ---------------------------------------------------------

    async def close(self) -> None:
        """Cancel the worker and drop the orchestrator."""
        if self._worker is not None:
            self._worker.cancel()
            try:
                await self._worker
            except asyncio.CancelledError:
                pass
            self._worker = None
        self._orchestrator = None

    # -- submission --------------------------------------------------------

    def submit(self, payload: Any) -> Job:
        """Plan ``payload`` into a job; fully cached jobs complete here.

        The fast path — every planned point already in the cache and no
        ``force`` — is a pure metadata read: the job is born ``done``
        without ever touching the queue, the worker thread or numpy.
        """
        specs, request = plan_submission(payload)
        job = Job(id=f"job-{next(self._ids)}", request=request, specs=specs)
        self.jobs[job.id] = job
        self._prune()
        _JOBS_SUBMITTED.inc()

        if not request["force"]:
            cached = self._serve_from_cache(specs)
            if cached is not None:
                job.results.extend(cached)
                job.state = DONE
                job.started_at = job.finished_at = time.time()
                _JOBS_COMPLETED.labels(state=DONE).inc()
                job._publish()
                self._prune()
                return job

        job._publish()
        self._queue.put_nowait(job)
        _QUEUE_DEPTH.set(self._queue.qsize())
        if self._worker is None or self._worker.done():
            self._worker = self._loop.create_task(self._drain())
        return job

    def _serve_from_cache(
        self, specs: Tuple[ScenarioSpec, ...]
    ) -> Optional[List[Dict[str, Any]]]:
        """Per-point payloads if *every* point is cached, else ``None``."""
        points = []
        for spec in specs:
            result = self.cache.peek(spec)
            if result is None:
                return None
            points.append(_point_payload(spec, result, self.cache.key_for(spec)))
        return points

    # -- execution ---------------------------------------------------------

    async def _drain(self) -> None:
        while True:
            job = await self._queue.get()
            _QUEUE_DEPTH.set(self._queue.qsize())
            job.state = RUNNING
            job.started_at = time.time()
            job._publish()
            try:
                await asyncio.to_thread(self._execute, job)
            except Exception as error:  # noqa: BLE001 - job boundary
                job.state = FAILED
                job.error = f"{type(error).__name__}: {error}"
            else:
                job.state = DONE
            job.finished_at = time.time()
            _JOBS_COMPLETED.labels(state=job.state).inc()
            job._publish()
            self._prune()

    def _execute(self, job: Job) -> None:
        """Run a job's points (worker thread; the only numpy-aware path)."""
        from repro.scenarios.orchestrator import Orchestrator

        if self._orchestrator is None:
            self._orchestrator = Orchestrator(
                cache=self.cache,
                workers=self.workers,
                shard_options=self.shard_options,
            )
        orchestrator = self._orchestrator
        orchestrator.shard_executor = self._shard_executor_for(job)
        orchestrator.shard_progress = lambda event: self._loop.call_soon_threadsafe(
            self._record_shard_event, job, event
        )
        force = job.request["force"]
        # Each job records its own span log, served by GET /v1/jobs/{id}/trace.
        tracer = Tracer()
        job.trace = tracer
        try:
            with tracer.activate():
                for spec in job.specs:
                    with tracer.span("job.point", name=spec.name):
                        result = orchestrator.run(spec, force=force)
                    point = _point_payload(spec, result, self.cache.key_for(spec))
                    self._loop.call_soon_threadsafe(self._record_point, job, point)
        finally:
            orchestrator.shard_executor = None
            orchestrator.shard_progress = None

    def _shard_executor_for(self, job: Job):
        """The shard executor a job asked for (board-backed for 'workers')."""
        executor = job.request.get("executor")
        if executor == "workers":
            if self.shard_board is None:
                raise RuntimeError(
                    "this service has no worker board; submit with "
                    "executor='inline' or 'process' instead"
                )
            from repro.service.shards import BoardExecutor

            return BoardExecutor(self.shard_board)
        return executor

    def _record_point(self, job: Job, point: Dict[str, Any]) -> None:
        job.results.append(point)
        job._publish(point=point["name"])

    def _record_shard_event(self, job: Job, event: Dict[str, Any]) -> None:
        """Publish an engine progress event into the job's NDJSON stream.

        Every Monte-Carlo point runs through the unified engine, so
        unsharded jobs stream ``cached``/``dispatch``/``done`` events too,
        not just explicitly sharded ones.
        """
        job._publish(shard_event=event)

    def _prune(self) -> None:
        """Evict the oldest *finished* jobs beyond ``max_finished_jobs``.

        A long-lived service accumulates one job record (specs, results,
        event history) per submission; bounding the terminal ones keeps
        memory flat while never dropping a job a client could still be
        following.  Results themselves live on in the cache — a pruned
        job's output is still fetchable by content hash.
        """
        finished = [job for job in self.jobs.values() if job.finished]
        for job in finished[: max(0, len(finished) - self.max_finished_jobs)]:
            del self.jobs[job.id]

    # -- observation -------------------------------------------------------

    def get(self, job_id: str) -> Job:
        try:
            return self.jobs[job_id]
        except KeyError:
            raise KeyError(
                f"unknown job {job_id!r}; known jobs: "
                f"{', '.join(self.jobs) or '(none)'}"
            ) from None

    def counts(self) -> Dict[str, int]:
        tally = {state: 0 for state in JOB_STATES}
        for job in self.jobs.values():
            tally[job.state] += 1
        tally["total"] = len(self.jobs)
        return tally

    async def events(self, job: Job) -> AsyncIterator[Dict[str, Any]]:
        """Replay and then follow a job's progress events until terminal."""
        seq = 0
        while True:
            while seq < len(job.events):
                event = job.events[seq]
                seq += 1
                yield event
            if job.finished and seq >= len(job.events):
                return
            await job._wait_update()

    async def wait(self, job: Job, timeout: float = 60.0) -> Job:
        """Block until ``job`` reaches a terminal state (test convenience)."""
        deadline = self._loop.time() + timeout
        while not job.finished:
            remaining = deadline - self._loop.time()
            if remaining <= 0:
                raise TimeoutError(f"job {job.id} still {job.state} after {timeout}s")
            try:
                await asyncio.wait_for(job._wait_update(), timeout=remaining)
            except asyncio.TimeoutError:
                continue
        return job
