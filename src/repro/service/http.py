"""A deliberately small asyncio HTTP/1.1 server (stdlib only).

The results service needs five things from HTTP — request parsing, path
routing with ``{param}`` captures, JSON responses, a streamed NDJSON
response for job-progress events, and clean error mapping — and nothing
else.  The container ships no aiohttp/uvicorn, and pulling a framework in
for this would also drag its import cost onto the numpy-free request path
the service is built to protect, so the ~200 lines live here instead.

Connections are single-request (``Connection: close``): the service's
clients are polling tools and tests, not high-fan-in browsers, and closing
per response keeps the state machine trivial.  Bodies are capped at 1 MiB —
every legitimate request body is a small JSON document or binary frame.
"""

from __future__ import annotations

import asyncio
import json
import re
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    AsyncIterator,
    Awaitable,
    Callable,
    Dict,
    List,
    Optional,
    Tuple,
)
from urllib.parse import parse_qsl, unquote, urlsplit

from repro.obs.metrics import REGISTRY

#: Upper bound on request-body size (bytes); JSON submissions are tiny.
MAX_BODY_BYTES = 1 << 20

# Per-route request metrics.  The label is the route *pattern*
# (``/v1/jobs/{id}``), not the raw path — cardinality stays bounded by
# the route table; anything that matched no route shares "(unmatched)".
_HTTP_REQUESTS = REGISTRY.counter(
    "repro_http_requests_total",
    "HTTP requests served, by route pattern, method and status.",
    labelnames=("route", "method", "status"),
)
_HTTP_SECONDS = REGISTRY.histogram(
    "repro_http_request_seconds",
    "Time from request parse to response head, by route pattern.",
    labelnames=("route",),
)

#: Seconds a connection may take to deliver a complete request before it
#: is dropped — otherwise an idle peer pins its handler task and fd
#: forever on a long-running serve process.
REQUEST_READ_TIMEOUT = 30.0

#: Reason phrases for the status codes the service actually emits.
_REASONS = {
    200: "OK",
    202: "Accepted",
    304: "Not Modified",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
}


class HTTPError(Exception):
    """An error with a well-defined HTTP status, rendered as a JSON body."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: Dict[str, str]
    headers: Dict[str, str]
    body: bytes = b""
    #: Whether the client is still on the line; a handler that parks
    #: (the long-poll work claim) asks before it acts on a wake-up.
    connected: Callable[[], bool] = field(default=lambda: True, repr=False)

    def json(self) -> Any:
        """The request body parsed as JSON (``{}`` for an empty body)."""
        if not self.body:
            return {}
        try:
            return json.loads(self.body)
        except ValueError as error:
            raise HTTPError(400, f"request body is not valid JSON: {error}")

    def header(self, name: str, default: Optional[str] = None) -> Optional[str]:
        return self.headers.get(name.lower(), default)


@dataclass
class Response:
    """A complete (non-streaming) HTTP response."""

    status: int = 200
    body: bytes = b""
    content_type: str = "application/json"
    headers: Dict[str, str] = field(default_factory=dict)

    @classmethod
    def json(
        cls,
        payload: Any,
        status: int = 200,
        headers: Optional[Dict[str, str]] = None,
    ) -> "Response":
        body = (json.dumps(payload, sort_keys=True, indent=1) + "\n").encode()
        return cls(status=status, body=body, headers=dict(headers or {}))

    @classmethod
    def empty(cls, status: int, headers: Optional[Dict[str, str]] = None) -> "Response":
        return cls(status=status, body=b"", headers=dict(headers or {}))


@dataclass
class StreamingResponse:
    """A response whose body is produced incrementally (NDJSON events).

    ``chunks`` yields text lines; each is flushed as soon as it is
    available and the connection closes when the iterator ends, so plain
    ``Connection: close`` framing is enough — no chunked encoding needed.
    """

    chunks: AsyncIterator[str]
    status: int = 200
    content_type: str = "application/x-ndjson"


#: A handler consumes the request plus captured path params.
Handler = Callable[..., Awaitable[Any]]

_PARAM_RE = re.compile(r"\{([a-zA-Z_][a-zA-Z0-9_]*)(:path)?\}")


class Router:
    """Maps ``(method, /path/{param}/...)`` patterns to async handlers.

    ``{param}`` captures one path segment; ``{param:path}`` captures
    greedily across slashes (scenario names like ``churn/fast`` are
    themselves slashed).
    """

    def __init__(self) -> None:
        self._routes: List[Tuple[str, str, re.Pattern, Handler]] = []

    def route(self, method: str, pattern: str) -> Callable[[Handler], Handler]:
        def capture(match: re.Match) -> str:
            name, greedy = match.group(1), match.group(2)
            return f"(?P<{name}>.+)" if greedy else f"(?P<{name}>[^/]+)"

        regex = re.compile("^" + _PARAM_RE.sub(capture, pattern) + "$")

        def decorate(handler: Handler) -> Handler:
            self._routes.append((method.upper(), pattern, regex, handler))
            return handler

        return decorate

    def dispatch(
        self, request: Request
    ) -> Tuple[Handler, Dict[str, str], str]:
        """The handler, path params and route pattern for ``request``.

        The pattern comes back so the server can label request metrics by
        route instead of raw path.  Unknown paths/methods raise 404/405.
        """
        path_matched = False
        for method, pattern, regex, handler in self._routes:
            match = regex.match(request.path)
            if match is None:
                continue
            path_matched = True
            if method == request.method:
                params = {k: unquote(v) for k, v in match.groupdict().items()}
                return handler, params, pattern
        if path_matched:
            raise HTTPError(405, f"method {request.method} not allowed here")
        raise HTTPError(404, f"no such endpoint: {request.path}")


async def _read_request(reader: asyncio.StreamReader) -> Optional[Request]:
    """Parse one request off the wire; ``None`` on a cleanly closed socket."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise HTTPError(400, "truncated request head")
    except asyncio.LimitOverrunError:
        raise HTTPError(400, "request head too large")

    request_line, *header_lines = head.decode("latin-1").split("\r\n")
    parts = request_line.split(" ")
    if len(parts) != 3:
        raise HTTPError(400, f"malformed request line: {request_line!r}")
    method, target, _version = parts

    headers: Dict[str, str] = {}
    for line in header_lines:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()

    split = urlsplit(target)
    query = dict(parse_qsl(split.query))

    body = b""
    length = headers.get("content-length")
    if length is not None:
        try:
            num_bytes = int(length)
        except ValueError:
            raise HTTPError(400, f"bad Content-Length: {length!r}")
        if num_bytes > MAX_BODY_BYTES:
            raise HTTPError(400, "request body too large")
        body = await reader.readexactly(num_bytes)

    return Request(
        method=method.upper(),
        path=split.path or "/",
        query=query,
        headers=headers,
        body=body,
    )


def _head(status: int, content_type: str, extra: Dict[str, str], length: Optional[int]) -> bytes:
    reason = _REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}", "Connection: close"]
    if length is not None:
        lines.append(f"Content-Length: {length}")
    if length != 0:
        lines.append(f"Content-Type: {content_type}")
    lines.extend(f"{name}: {value}" for name, value in sorted(extra.items()))
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


class HTTPServer:
    """Serves a :class:`Router` over asyncio streams."""

    def __init__(self, router: Router) -> None:
        self.router = router
        self._server: Optional[asyncio.base_events.Server] = None

    async def start(self, host: str, port: int) -> Tuple[str, int]:
        """Bind and start serving; returns the actual ``(host, port)``."""
        self._server = await asyncio.start_server(self._handle, host, port)
        bound = self._server.sockets[0].getsockname()
        return bound[0], bound[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        route_label = "(unmatched)"
        request = None
        started = time.monotonic()
        try:
            try:
                try:
                    request = await asyncio.wait_for(
                        _read_request(reader), timeout=REQUEST_READ_TIMEOUT
                    )
                except asyncio.TimeoutError:
                    return
                if request is None:
                    return
                # A peer that closed (EOF) or reset (closing transport)
                # its end has gone away.
                request.connected = lambda: not (
                    reader.at_eof() or writer.is_closing()
                )
                handler, params, route_label = self.router.dispatch(request)
                result = await handler(request, **params)
            except HTTPError as error:
                result = Response.json(
                    {"error": error.message}, status=error.status
                )
            except Exception as error:  # noqa: BLE001 - boundary of the server
                result = Response.json(
                    {"error": f"{type(error).__name__}: {error}"}, status=500
                )

            if not isinstance(result, (Response, StreamingResponse)):
                result = Response.json(result)
            _HTTP_REQUESTS.labels(
                route=route_label,
                # request stays None when the head itself was malformed.
                method=request.method if request is not None else "(invalid)",
                status=str(result.status),
            ).inc()
            _HTTP_SECONDS.labels(route=route_label).observe(
                time.monotonic() - started
            )

            if isinstance(result, StreamingResponse):
                writer.write(_head(result.status, result.content_type, {}, None))
                await writer.drain()
                async for chunk in result.chunks:
                    writer.write(chunk.encode())
                    await writer.drain()
            else:
                response = result
                writer.write(
                    _head(
                        response.status,
                        response.content_type,
                        response.headers,
                        len(response.body),
                    )
                )
                writer.write(response.body)
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange; nothing to clean up
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass
