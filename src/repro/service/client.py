"""A small typed client for the results service (stdlib ``http.client``).

Synchronous on purpose: its consumers are tests, scripts and notebooks that
want a blocking ``submit → wait → result`` flow, and keeping it off asyncio
means it can drive a service running in another process, another thread or
another machine identically.  One connection per request mirrors the
server's single-request connections.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Tuple
from urllib.parse import quote, urlsplit

import http.client


class ClaimReply(NamedTuple):
    """A work claim's answer: the items, and the seconds the service kept
    the claim parked waiting for them (0 when it answered at once)."""

    items: List[Dict[str, Any]]
    parked: float


class ServiceError(Exception):
    """A non-2xx response from the service, carrying the HTTP status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


@dataclass
class JobView:
    """Typed snapshot of a job record."""

    id: str
    state: str
    total_points: int
    completed_points: int
    results: List[Dict[str, Any]]
    error: Optional[str]
    request: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "JobView":
        return cls(
            id=payload["id"],
            state=payload["state"],
            total_points=payload["total_points"],
            completed_points=payload["completed_points"],
            results=payload["results"],
            error=payload["error"],
            request=payload.get("request", {}),
        )

    @property
    def finished(self) -> bool:
        return self.state in ("done", "failed")

    @property
    def content_hashes(self) -> Tuple[str, ...]:
        return tuple(point["content_hash"] for point in self.results)


@dataclass
class ResultView:
    """Typed snapshot of a cached result fetched by content hash."""

    name: str
    kind: str
    spec_hash: str
    cache_key: str
    backend: str
    scalars: Dict[str, Any]
    rendered: str
    arrays: Tuple[str, ...]
    etag: str
    array_values: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_payload(cls, payload: Dict[str, Any], etag: str) -> "ResultView":
        return cls(
            name=payload["name"],
            kind=payload["kind"],
            spec_hash=payload["spec_hash"],
            cache_key=payload["cache_key"],
            backend=payload["backend"],
            scalars=payload["scalars"],
            rendered=payload["rendered"],
            arrays=tuple(payload["arrays"]),
            etag=etag,
            array_values=payload.get("array_values", {}),
        )


class ServiceClient:
    """Talk to a running results service at ``base_url``.

    Everything is JSON except the two worker endpoints (claim, results),
    whose request and success bodies are binary frames
    (:mod:`repro.distributed.frames`).
    """

    def __init__(self, base_url: str, timeout: float = 60.0) -> None:
        split = urlsplit(base_url if "//" in base_url else f"http://{base_url}")
        if split.hostname is None:
            raise ValueError(f"cannot parse service URL {base_url!r}")
        self.host = split.hostname
        self.port = split.port or 80
        self.timeout = timeout

    # -- plumbing ----------------------------------------------------------

    def _exchange(
        self,
        method: str,
        path: str,
        body: Any = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, Dict[str, str], bytes]:
        """One raw request/response round-trip (body bytes untouched)."""
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            connection.request(method, path, body=body, headers=dict(headers or {}))
            response = connection.getresponse()
            raw = response.read()
            response_headers = {k.lower(): v for k, v in response.getheaders()}
            return response.status, response_headers, raw
        finally:
            connection.close()

    def _request(
        self,
        method: str,
        path: str,
        payload: Any = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, Dict[str, str], Any]:
        body = None if payload is None else json.dumps(payload)
        status, response_headers, raw = self._exchange(
            method, path, body, headers
        )
        parsed = json.loads(raw) if raw else None
        return status, response_headers, parsed

    def _json(self, method: str, path: str, payload: Any = None) -> Any:
        status, _headers, parsed = self._request(method, path, payload)
        if status >= 400:
            message = (parsed or {}).get("error", "") if isinstance(parsed, dict) else ""
            raise ServiceError(status, message)
        return parsed

    def _frame(self, path: str, payload: Dict[str, Any]) -> Dict[str, Any]:
        """POST a frame-encoded body to a worker endpoint; decode the frame
        reply (error replies are JSON and raise :class:`ServiceError`)."""
        from repro.distributed.frames import (
            FRAME_CONTENT_TYPE,
            FrameError,
            decode_frame,
            encode_frame,
        )

        status, _headers, raw = self._exchange(
            "POST", path, encode_frame(payload), {"Content-Type": FRAME_CONTENT_TYPE}
        )
        if status >= 400:
            try:
                message = json.loads(raw).get("error", "")
            except (ValueError, AttributeError):
                message = ""
            raise ServiceError(status, message)
        try:
            return decode_frame(raw)
        except FrameError as error:
            raise ServiceError(status, f"bad frame reply: {error}")

    def _text(self, method: str, path: str) -> str:
        """A non-JSON body (Prometheus text, NDJSON traces)."""
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            connection.request(method, path)
            response = connection.getresponse()
            raw = response.read()
            if response.status >= 400:
                message = ""
                try:
                    message = json.loads(raw).get("error", "")
                except ValueError:
                    pass
                raise ServiceError(response.status, message)
            return raw.decode("utf-8")
        finally:
            connection.close()

    # -- endpoints ---------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        return self._json("GET", "/healthz")

    def metrics(self) -> str:
        """The service's /metrics endpoint, raw Prometheus text."""
        return self._text("GET", "/metrics")

    def job_trace(self, job_id: str) -> List[Dict[str, Any]]:
        """The job's span log as a list of span dicts (may be empty)."""
        text = self._text("GET", f"/v1/jobs/{job_id}/trace")
        return [json.loads(line) for line in text.splitlines() if line.strip()]

    def catalog(self) -> Dict[str, Any]:
        return self._json("GET", "/v1/scenarios")

    def scenario(self, name: str) -> Dict[str, Any]:
        return self._json("GET", f"/v1/scenarios/{quote(name, safe='')}")

    def submit(
        self,
        scenario: Optional[str] = None,
        scenarios: Optional[List[str]] = None,
        family: Optional[str] = None,
        spec: Optional[Dict[str, Any]] = None,
        quick: bool = False,
        seed: Optional[int] = None,
        backend: Optional[str] = None,
        force: bool = False,
        shards: Optional[int] = None,
        executor: Optional[str] = None,
    ) -> JobView:
        payload: Dict[str, Any] = {"quick": quick, "force": force}
        if seed is not None:
            payload["seed"] = seed
        if backend is not None:
            payload["backend"] = backend
        if shards is not None:
            payload["shards"] = shards
        if executor is not None:
            payload["executor"] = executor
        for key, value in (
            ("scenario", scenario),
            ("scenarios", scenarios),
            ("family", family),
            ("spec", spec),
        ):
            if value is not None:
                payload[key] = value
        return JobView.from_payload(self._json("POST", "/v1/jobs", payload))

    def jobs(self) -> List[JobView]:
        payload = self._json("GET", "/v1/jobs")
        return [JobView.from_payload(job) for job in payload["jobs"]]

    def job(self, job_id: str) -> JobView:
        return JobView.from_payload(self._json("GET", f"/v1/jobs/{job_id}"))

    def wait(self, job_id: str, timeout: float = 120.0, interval: float = 0.2) -> JobView:
        """Poll until the job finishes; raises on timeout or failure."""
        deadline = time.monotonic() + timeout
        while True:
            view = self.job(job_id)
            if view.finished:
                if view.state == "failed":
                    raise ServiceError(500, f"job {job_id} failed: {view.error}")
                return view
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"job {job_id} still {view.state} after {timeout}s "
                    f"({view.completed_points}/{view.total_points} points)"
                )
            time.sleep(interval)

    def events(self, job_id: str) -> Iterator[Dict[str, Any]]:
        """Stream a job's NDJSON progress events until it finishes."""
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            connection.request("GET", f"/v1/jobs/{job_id}/events")
            response = connection.getresponse()
            if response.status >= 400:
                raw = response.read()
                message = ""
                if raw:
                    try:
                        message = json.loads(raw).get("error", "")
                    except ValueError:
                        pass
                raise ServiceError(response.status, message)
            for line in response:
                line = line.strip()
                if line:
                    yield json.loads(line)
        finally:
            connection.close()

    # -- shard-worker API (used by `repro worker`) -------------------------

    def register_worker(self, name: str) -> str:
        """Register as a shard worker; returns the assigned worker id."""
        payload = self._json("POST", "/v1/workers", {"name": name})
        return payload["worker_id"]

    def claim_work_batch(
        self,
        worker_id: str,
        batch: int = 1,
        token: Optional[str] = None,
        telemetry: Optional[Dict[str, Any]] = None,
        wait: float = 0.0,
    ) -> ClaimReply:
        """Claim up to ``batch`` work items in one round-trip.

        With ``wait`` > 0 the claim is a long poll: when nothing is queued
        the service parks it until an item is, or for at most ``wait``
        seconds (it caps the wait at half its worker timeout); keep
        ``wait`` under this client's ``timeout``.  ``token`` makes the
        claim idempotent: retrying the same token after a lost response
        re-delivers the same items instead of claiming fresh ones.
        ``telemetry`` (``{"metrics": snapshot, "seq": n, "name": ...}``)
        piggybacks the worker's cumulative metrics snapshot on the claim —
        no extra round trip for fleet aggregation.
        """
        body: Dict[str, Any] = {"batch": int(batch), "wait": float(wait)}
        if token is not None:
            body["token"] = token
        if telemetry:
            body["telemetry"] = telemetry
        reply = self._frame(f"/v1/workers/{worker_id}/claim", body)
        return ClaimReply(list(reply["items"]), float(reply["parked"]))

    def post_work_results(
        self,
        worker_id: str,
        outcomes: List[Dict[str, Any]],
        telemetry: Optional[Dict[str, Any]] = None,
    ) -> List[bool]:
        """Post a batch of shard outcomes in one round-trip.

        Each outcome is ``{"id": item_id, "result": ...}`` or
        ``{"id": item_id, "error": ...}``.  Returns per-outcome acceptance
        flags in order; ``False`` means that item was reassigned.
        """
        payload: Dict[str, Any] = {"results": list(outcomes)}
        if telemetry is not None:
            payload["telemetry"] = telemetry
        response = self._frame(f"/v1/workers/{worker_id}/results", payload)
        return [bool(flag) for flag in response["accepted"]]

    def shard_workers(self) -> List[Dict[str, Any]]:
        """The service's registered shard workers (fleet view)."""
        return self._json("GET", "/v1/workers")["workers"]

    def fleet(self) -> Dict[str, Any]:
        """The aggregated fleet telemetry summary (``GET /v1/fleet``)."""
        return self._json("GET", "/v1/fleet")

    def runs(
        self, limit: int = 50, offset: int = 0, **filters: Any
    ) -> Dict[str, Any]:
        """A page of the run-history ledger (``GET /v1/runs``).

        ``filters`` forwards as query parameters: ``kind``, ``scenario``,
        ``backend``, ``executor``, ``spec_hash``, ``since``, ``until``.
        """
        params = {"limit": limit, "offset": offset, **filters}
        query = "&".join(
            f"{quote(str(k), safe='')}={quote(str(v), safe='')}"
            for k, v in params.items()
            if v is not None
        )
        return self._json("GET", f"/v1/runs?{query}")

    def run_record(self, run_id: str) -> Dict[str, Any]:
        """One run-history record plus its sentinel verdict."""
        return self._json("GET", f"/v1/runs/{quote(run_id, safe='')}")

    def result(
        self,
        content_hash: str,
        etag: Optional[str] = None,
        include_arrays: bool = False,
    ) -> Optional[ResultView]:
        """Fetch a cached result by content hash.

        With ``etag`` set, a matching ``304 Not Modified`` returns ``None``
        — the caller's copy is current.  Unknown hashes raise
        :class:`ServiceError` (404).
        """
        path = f"/v1/results/{content_hash}"
        if include_arrays:
            path += "?arrays=1"
        headers = {"If-None-Match": etag} if etag else None
        status, response_headers, parsed = self._request("GET", path, headers=headers)
        if status == 304:
            return None
        if status >= 400:
            message = (parsed or {}).get("error", "") if isinstance(parsed, dict) else ""
            raise ServiceError(status, message)
        return ResultView.from_payload(parsed, etag=response_headers.get("etag", ""))
