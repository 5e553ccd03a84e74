"""The scenario results service: HTTP endpoints over the job queue.

Endpoint map (all JSON unless noted; ``{h}`` is a full spec content hash)::

    GET  /                     service descriptor (endpoints, version)
    GET  /healthz              liveness + job counts + heavy-module audit
    GET  /metrics              Prometheus text exposition of the registry
    GET  /v1/scenarios         machine-readable catalog (scenarios+families)
    GET  /v1/scenarios/{name}  one scenario (or family/point) in full detail
    POST /v1/jobs              submit a run/sweep; 202 with the job record
    GET  /v1/jobs              all jobs, newest first
    GET  /v1/jobs/{id}         poll one job (progress, per-point results)
    GET  /v1/jobs/{id}/events  NDJSON stream of progress events until done
    GET  /v1/jobs/{id}/trace   NDJSON span log of the job's execution
    GET  /v1/results/{h}       fetch a cached result by content hash
    GET  /v1/runs              run-history ledger, newest first (paginated)
    GET  /v1/runs/{id}         one run record plus its sentinel verdict
    GET  /v1/workers           registered shard workers (fleet view)
    POST /v1/workers           register a `repro worker` (returns worker id)
    POST /v1/workers/{id}/claim    claim a batch of shard work items (frame)
    POST /v1/workers/{id}/results  post a batch of shard outcomes (frame)

The two worker endpoints speak binary frames
(``application/x-repro-frame``, :mod:`repro.distributed.frames`) both
ways; any other body, or a frame that fails its CRC-32, is a 400, and
error replies stay JSON.  A claim is a long poll: with ``wait`` > 0 an
empty claim parks until work is queued for the worker or the wait
(capped at half the worker timeout) runs out, and the reply's
``parked`` says for how many seconds.

``/v1/results/{h}`` speaks conditional HTTP: the response carries an
``ETag`` (the version-salted cache key of :func:`repro.scenarios.cache
.cache_key`), and a request presenting it via ``If-None-Match`` gets
``304 Not Modified`` with no body.  Arrays are advertised by name; pass
``?arrays=1`` to inline their values (the only read path here that loads
numpy).

The whole request path — catalog, submission planning, cache-hit serving —
imports neither numpy nor scipy; ``/healthz`` reports whether they are
loaded (``heavy_modules``) precisely so tests and operators can audit that
promise from outside.
"""

from __future__ import annotations

import asyncio
import json
import sys
from typing import Any, AsyncIterator, Dict, Optional

from repro._version import __version__
from repro.distributed.frames import FRAME_CONTENT_TYPE
from repro.obs.fleet import FleetAggregator
from repro.obs.metrics import REGISTRY, render_many
from repro.scenarios.cache import ResultCache
from repro.scenarios.catalog import (
    catalog_payload,
    family_payload,
    scenario_payload,
    supported_backends,
)
from repro.service.http import (
    HTTPError,
    HTTPServer,
    Request,
    Response,
    Router,
    StreamingResponse,
)
from repro.service.jobs import JobQueue

#: Modules whose absence from the request path the service guarantees.
HEAVY_MODULES = ("numpy", "scipy")

_ENDPOINTS = {
    "GET /": "this descriptor",
    "GET /healthz": "liveness, job counts, heavy-module audit",
    "GET /metrics": "Prometheus text exposition of the metrics registry",
    "GET /v1/scenarios": "scenario catalog (registry + families)",
    "GET /v1/scenarios/{name}": "one scenario, family or family/point in detail",
    "POST /v1/jobs": "submit a run or sweep (202 + job record)",
    "GET /v1/jobs": "list jobs",
    "GET /v1/jobs/{id}": "poll one job",
    "GET /v1/jobs/{id}/events": "NDJSON progress stream",
    "GET /v1/jobs/{id}/trace": "NDJSON span log of the job's execution",
    "GET /v1/results/{content_hash}": "fetch a cached result (ETag-aware)",
    "GET /v1/runs": "run-history ledger, newest first (paginated, filterable)",
    "GET /v1/runs/{run_id}": "one run-history record with its sentinel verdict",
    "GET /v1/fleet": "aggregated worker telemetry (items/s, busy, claims)",
    "GET /v1/workers": "registered shard workers (fleet view)",
    "POST /v1/workers": "register a shard worker (202 + worker id)",
    "POST /v1/workers/{id}/claim": "claim a batch of shard work items (frame, long poll)",
    "POST /v1/workers/{id}/results": "post a batch of shard outcomes (frame)",
}


class ResultsService:
    """Owns the router, the job queue and the HTTP server lifecycle."""

    def __init__(
        self,
        workers: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        worker_timeout: Optional[float] = None,
        shard_options: Optional[Dict[str, Any]] = None,
    ) -> None:
        from repro.service.shards import (
            DEFAULT_SHARD_TIMEOUT,
            DEFAULT_WORKER_TIMEOUT,
            ShardBoard,
        )

        self.cache = cache if cache is not None else ResultCache()
        self.workers = workers
        self.shard_options = dict(shard_options or {})
        # Without a shard timeout a worker that dies mid-shard would hang
        # its job forever (claimed items have no other reassignment path).
        self.shard_options.setdefault("shard_timeout", DEFAULT_SHARD_TIMEOUT)
        self.board = ShardBoard(
            worker_timeout=(
                DEFAULT_WORKER_TIMEOUT if worker_timeout is None else worker_timeout
            )
        )
        self.queue: Optional[JobQueue] = None
        #: Worker metrics snapshots, piggybacked on claim/result posts and
        #: merged into /metrics (worker-labelled) and GET /v1/fleet.
        self.fleet = FleetAggregator()
        self.router = Router()
        self._server = HTTPServer(self.router)
        self._register_routes()

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple:
        """Create the queue (needs a running loop) and bind the server."""
        self.queue = JobQueue(
            workers=self.workers,
            cache=self.cache,
            shard_board=self.board,
            shard_options=self.shard_options,
        )
        return await self._server.start(host, port)

    async def stop(self) -> None:
        # Parked claims answer now instead of holding their connections
        # (and the server's shutdown) open until their waits run out.
        self.board.close()
        await self._server.stop()
        if self.queue is not None:
            await self.queue.close()
            self.queue = None

    # -- handlers ----------------------------------------------------------

    def _register_routes(self) -> None:
        route = self.router.route

        @route("GET", "/")
        async def index(request: Request) -> Response:
            return Response.json(
                {
                    "service": "repro scenario results service",
                    "version": __version__,
                    "endpoints": _ENDPOINTS,
                }
            )

        @route("GET", "/healthz")
        async def healthz(request: Request) -> Response:
            return Response.json(
                {
                    "status": "ok",
                    "version": __version__,
                    "jobs": self.queue.counts(),
                    "heavy_modules": {
                        name: name in sys.modules for name in HEAVY_MODULES
                    },
                }
            )

        @route("GET", "/metrics")
        async def metrics(request: Request) -> Response:
            # The queue-depth gauge is refreshed at scrape time: it is a
            # statement of *current* state, and scrapes may be long apart.
            from repro.service.jobs import _QUEUE_DEPTH

            if self.queue is not None:
                _QUEUE_DEPTH.set(self.queue.counts()["queued"])
            # One exposition, two sources: the service's own registry plus
            # every worker's last snapshot relabelled with worker="name".
            body = render_many(REGISTRY, self.fleet.registry())
            return Response(
                body=body.encode("utf-8"),
                content_type="text/plain; version=0.0.4; charset=utf-8",
            )

        @route("GET", "/v1/scenarios")
        async def scenarios(request: Request) -> Response:
            return Response.json(catalog_payload())

        @route("GET", "/v1/scenarios/{name:path}")
        async def describe(request: Request, name: str) -> Response:
            return Response.json(self._describe(name))

        @route("POST", "/v1/jobs")
        async def submit(request: Request) -> Response:
            try:
                job = self.queue.submit(request.json())
            except ValueError as error:
                raise HTTPError(400, str(error))
            return Response.json(job.to_dict(), status=202)

        @route("GET", "/v1/jobs")
        async def jobs(request: Request) -> Response:
            records = [job.to_dict() for job in self.queue.jobs.values()]
            return Response.json({"jobs": records[::-1]})

        @route("GET", "/v1/jobs/{job_id}")
        async def job(request: Request, job_id: str) -> Response:
            return Response.json(self._job(job_id).to_dict())

        @route("GET", "/v1/jobs/{job_id}/events")
        async def events(request: Request, job_id: str) -> StreamingResponse:
            return StreamingResponse(self._event_lines(self._job(job_id)))

        @route("GET", "/v1/jobs/{job_id}/trace")
        async def job_trace(request: Request, job_id: str) -> Response:
            job = self._job(job_id)
            if job.trace is not None:
                body = job.trace.to_ndjson()
            elif job.state == "done":
                # Cache-served jobs never execute, so nothing was traced —
                # answer with a synthetic `cache.hit` span per point
                # instead of an empty (and easily misread) body.
                body = self._cache_hit_trace(job)
            else:
                body = ""  # queued/not-yet-started: genuinely nothing yet
            return Response(
                body=body.encode("utf-8"),
                content_type="application/x-ndjson",
            )

        @route("GET", "/v1/results/{content_hash}")
        async def result(request: Request, content_hash: str) -> Response:
            return await self._result(request, content_hash)

        @route("GET", "/v1/runs")
        async def runs(request: Request) -> Response:
            return Response.json(self._runs(request))

        @route("GET", "/v1/runs/{run_id}")
        async def run_record(request: Request, run_id: str) -> Response:
            return Response.json(self._run_record(run_id))

        @route("GET", "/v1/fleet")
        async def fleet(request: Request) -> Response:
            summary = self.fleet.summary()
            summary["board"] = self.board.worker_views()
            return Response.json(summary)

        @route("GET", "/v1/workers")
        async def workers(request: Request) -> Response:
            return Response.json({"workers": self.board.worker_views()})

        @route("POST", "/v1/workers")
        async def register_worker(request: Request) -> Response:
            payload = request.json()
            if not isinstance(payload, dict):
                raise HTTPError(400, "registration must be a JSON object")
            name = str(payload.get("name") or "worker")
            worker_id = self.board.register(name)
            return Response.json({"worker_id": worker_id, "name": name}, status=202)

        @route("POST", "/v1/workers/{worker_id}/claim")
        async def claim_work(request: Request, worker_id: str) -> Response:
            payload = _frame_payload(request)
            batch = payload.get("batch")
            if isinstance(batch, bool) or not isinstance(batch, int) or batch < 1:
                raise HTTPError(
                    400,
                    f"a claim's {FRAME_CONTENT_TYPE} body needs an integer "
                    "'batch' >= 1",
                )
            wait = payload.get("wait", 0)
            if (
                isinstance(wait, bool)
                or not isinstance(wait, (int, float))
                or not wait >= 0  # also false for NaN
            ):
                raise HTTPError(
                    400,
                    f"a claim's {FRAME_CONTENT_TYPE} body needs a number "
                    "'wait' >= 0 (seconds to park an empty claim)",
                )
            token = payload.get("token")
            self._ingest_telemetry(worker_id, payload.get("telemetry"))
            try:
                items, parked = await self.board.claim(
                    worker_id,
                    batch=batch,
                    token=None if token is None else str(token),
                    wait=float(wait),
                    connected=request.connected,
                )
            except KeyError as error:
                raise HTTPError(404, str(error.args[0]))
            return _frame_response({"items": items, "parked": parked})

        @route("POST", "/v1/workers/{worker_id}/results")
        async def post_work_results(request: Request, worker_id: str) -> Response:
            payload = _frame_payload(request)
            outcomes = payload.get("results")
            if not isinstance(outcomes, list):
                raise HTTPError(
                    400,
                    f"a results {FRAME_CONTENT_TYPE} body needs a 'results' "
                    "list of outcomes",
                )
            for outcome in outcomes:
                if (
                    not isinstance(outcome, dict)
                    or "id" not in outcome
                    or (
                        outcome.get("result") is None
                        and outcome.get("error") is None
                    )
                ):
                    raise HTTPError(
                        400,
                        f"each outcome in a results {FRAME_CONTENT_TYPE} body "
                        "needs an item 'id' plus 'result' or 'error'",
                    )
            self._ingest_telemetry(worker_id, payload.get("telemetry"))
            try:
                accepted = self.board.post_results(worker_id, outcomes)
            except KeyError as error:
                raise HTTPError(404, str(error.args[0]))
            return _frame_response({"accepted": accepted})

    def _ingest_telemetry(self, worker_id: str, telemetry: Any) -> None:
        """Absorb a piggybacked worker metrics snapshot (best-effort)."""
        if not isinstance(telemetry, dict):
            return
        metrics = telemetry.get("metrics")
        if not isinstance(metrics, dict):
            return
        seq = telemetry.get("seq")
        self.fleet.ingest(
            worker_id,
            metrics,
            seq=int(seq) if isinstance(seq, (int, float)) else None,
            name=telemetry.get("name"),
        )

    def _cache_hit_trace(self, job) -> str:
        """A synthetic NDJSON trace for a job served entirely from cache."""
        from repro.obs.trace import Tracer

        tracer = Tracer()
        for point in job.results:
            tracer.record(
                "cache.hit",
                0.0,
                start=0.0,
                name=point.get("name"),
                content_hash=point.get("content_hash"),
                from_cache=True,
            )
        return tracer.to_ndjson()

    def _job(self, job_id: str):
        try:
            return self.queue.get(job_id)
        except KeyError as error:
            raise HTTPError(404, str(error))

    #: Query-string keys forwarded verbatim as record-field filters.
    _RUN_FILTERS = ("kind", "scenario", "backend", "executor", "spec_hash")

    def _runs(self, request: Request) -> Dict[str, Any]:
        """``GET /v1/runs``: the run-history ledger, newest first.

        The ledger is NDJSON on disk and the records are plain JSON, so
        this read path stays numpy-free like the rest of the service.
        The ledger is opened per request: it resolves its root from the
        environment, and other processes (CLI runs, workers) may have
        appended since the last call.
        """
        from repro.obs.history import RunLedger

        ledger = RunLedger()
        try:
            limit = int(request.query.get("limit", 50))
            offset = int(request.query.get("offset", 0))
        except ValueError:
            raise HTTPError(400, "limit and offset must be integers")
        limit = max(1, min(limit, 500))
        offset = max(0, offset)
        filters = {
            key: request.query[key]
            for key in self._RUN_FILTERS
            if key in request.query
        }
        since = until = None
        try:
            if "since" in request.query:
                since = float(request.query["since"])
            if "until" in request.query:
                until = float(request.query["until"])
        except ValueError:
            raise HTTPError(400, "since and until must be unix timestamps")
        matches = ledger.query(since=since, until=until, **filters)
        return {
            "runs": matches[offset:offset + limit],
            "total": len(matches),
            "limit": limit,
            "offset": offset,
        }

    def _run_record(self, run_id: str) -> Dict[str, Any]:
        """``GET /v1/runs/{id}``: one record plus its sentinel verdict."""
        from repro.obs import sentinel
        from repro.obs.history import RunLedger

        ledger = RunLedger()
        record = ledger.get(run_id)
        if record is None:
            raise HTTPError(404, f"no run-history record with id {run_id!r}")
        return {
            "run": record,
            "sentinel": sentinel.evaluate(ledger, record).to_dict(),
        }

    async def _event_lines(self, job) -> AsyncIterator[str]:
        async for event in self.queue.events(job):
            yield json.dumps(event, sort_keys=True) + "\n"

    def _describe(self, name: str) -> Dict[str, Any]:
        """Full detail for a scenario, family point or family name.

        Scenario and point payloads carry ``spec``/``quick_spec`` and cache
        state; a bare family name returns the family payload (description
        plus its content-addressed points).
        """
        from repro.scenarios import registry

        if name in registry.family_names():
            return family_payload(name, registry.get_family(name))
        try:
            if name in registry.scenario_names():
                entry = registry.get_entry(name)
                payload = scenario_payload(name, entry)
                spec, quick = entry.spec, entry.quick
            else:
                spec = registry.resolve(name)
                quick = registry.resolve(name, quick=True)
                payload = {
                    "name": spec.name,
                    "kind": spec.kind,
                    "description": f"point of family {name.split('/', 1)[0]!r}",
                    "backends": list(supported_backends(spec.kind)),
                    "content_hash": spec.content_hash,
                    "quick_content_hash": quick.content_hash,
                }
        except KeyError as error:
            raise HTTPError(404, str(error.args[0]))
        payload["spec"] = spec.to_dict()
        payload["quick_spec"] = quick.to_dict()
        payload["cached"] = self.cache.contains(spec)
        payload["quick_cached"] = self.cache.contains(quick)
        return payload

    async def _result(self, request: Request, content_hash: str) -> Response:
        key = self.cache.find_hash(content_hash)
        if key is None:
            raise HTTPError(404, f"no cached result for content hash {content_hash}")
        etag = f'"{key}"'
        if request.header("if-none-match") == etag:
            return Response.empty(304, headers={"ETag": etag})
        meta = self.cache.load_meta(key)
        if meta is None:
            raise HTTPError(404, f"no cached result for content hash {content_hash}")
        payload = {
            "name": meta["name"],
            "kind": meta["kind"],
            "spec": meta["spec"],
            "spec_hash": meta["spec_hash"],
            "cache_key": key,
            "backend": meta.get("backend", "reference"),
            "repro_version": meta.get("repro_version"),
            "scalars": meta["scalars"],
            "rendered": meta["rendered"],
            "runtime_seconds": meta["runtime_seconds"],
            "arrays": list(self.cache.array_names(key)),
        }
        if request.query.get("arrays", "").lower() in ("1", "true", "yes"):
            # Loading + listifying arrays (and serializing the resulting
            # payload) can be megabytes of work; keep it off the event loop
            # so health probes and job polls stay responsive.
            values = await asyncio.to_thread(self._array_values, key)
            if values is None:
                raise HTTPError(404, f"no cached result for content hash {content_hash}")
            payload["array_values"] = values
            return await asyncio.to_thread(
                Response.json, payload, 200, {"ETag": etag}
            )
        return Response.json(payload, headers={"ETag": etag})

    def _array_values(self, key: str) -> Optional[Dict[str, Any]]:
        """Inline array contents (the one numpy-aware read, opt-in only);
        ``None`` when the entry's ``arrays.npz`` is torn or corrupt."""
        arrays = self.cache.load_arrays(key)
        if arrays is None:
            return None
        return {name: arrays[name].tolist() for name in arrays}


def _frame_payload(request: Request) -> Dict[str, Any]:
    """A worker request's frame-decoded body; anything else is a 400."""
    from repro.distributed.frames import FrameError, decode_frame

    content_type = (request.header("content-type") or "").partition(";")[0]
    if content_type.strip() != FRAME_CONTENT_TYPE:
        raise HTTPError(400, f"worker requests must send an {FRAME_CONTENT_TYPE} body")
    try:
        payload = decode_frame(request.body)
    except FrameError as error:
        raise HTTPError(400, f"request body is not a valid {FRAME_CONTENT_TYPE}: {error}")
    if not isinstance(payload, dict):
        raise HTTPError(400, f"a worker's {FRAME_CONTENT_TYPE} body must be an object")
    return payload


def _frame_response(payload: Dict[str, Any]) -> Response:
    from repro.distributed.frames import encode_frame

    return Response(body=encode_frame(payload), content_type=FRAME_CONTENT_TYPE)


def serve(
    host: str = "127.0.0.1",
    port: int = 8077,
    workers: Optional[int] = None,
    cache: Optional[ResultCache] = None,
) -> int:
    """Run the results service until interrupted (the CLI entry point).

    Prints a single ``listening on http://host:port`` line once bound (with
    the real port when ``port=0``), which is what scripts and the e2e tests
    key on.
    """

    async def main() -> None:
        service = ResultsService(workers=workers, cache=cache)
        bound_host, bound_port = await service.start(host, port)
        print(
            f"repro results service listening on http://{bound_host}:{bound_port}",
            flush=True,
        )
        try:
            await asyncio.Event().wait()
        finally:
            await service.stop()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
    return 0
