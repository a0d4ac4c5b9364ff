"""HTTP front-end for the query service (stdlib ``asyncio`` streams only).

Endpoints
---------
``POST /v1/query``
    Body: one JSON request (see :mod:`repro.serve.protocol`).  Replies
    200 with the response payload; 400 for malformed requests or model
    parameters the solver rejects; 429/503 with a ``Retry-After`` header
    when the service sheds or drains; 504 when the per-request timeout
    expires.
``GET /healthz``
    Liveness: ``{"status": "ok" | "draining", ...}`` (503 when draining,
    so load balancers stop routing during shutdown).
``GET /stats``
    Full service statistics: queue depth, singleflight/LRU counters,
    engine cache/telemetry summary, batch sizes, per-stage latency
    percentiles.  Computed on the service's auxiliary executor, not on
    the loop (its first look at the disk cache reads the cache file);
    503 once shutdown has released that executor.

The server is a non-blocking :func:`asyncio.start_server` listener
riding the :class:`~repro.serve.service.QueryService` reactor loop —
replacing the ``ThreadingHTTPServer`` thread-per-connection model.  One
coroutine per connection parses HTTP/1.1 with keep-alive, then *awaits*
the async core directly: a memory-LRU hit or a singleflight join costs
no thread handoff at all, and thousands of connections can park on
shared futures while the engine executor works.  :class:`ServeServer` is
the thin thread-safe facade (``make_server``/``start_background``/
``serve_forever``/``close``) the CLI, benchmarks and tests drive from
sync code; :meth:`ServeServer.close` performs the graceful-drain
sequence (finish in-flight work, retire connections, release the engine,
stop the reactor).
"""

from __future__ import annotations

import asyncio
import json
import threading

from repro.serve.protocol import ProtocolError, parse_request
from repro.serve.service import QueryService, ServiceRejection

__all__ = ["ServeServer", "make_server"]

_MAX_BODY_BYTES = 1 << 20  # 1 MiB is orders of magnitude beyond any valid query
_MAX_HEADER_BYTES = 32 << 10
_IDLE_TIMEOUT_S = 30.0  # keep-alive connections are reaped after this silence

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class _BadRequest(Exception):
    """Malformed HTTP framing; reply 400 and close the connection."""


async def _read_head(reader: asyncio.StreamReader) -> tuple[str, str, str, dict] | None:
    """Read one request line + headers; ``None`` on clean EOF / idle timeout."""
    try:
        request_line = await asyncio.wait_for(reader.readline(), _IDLE_TIMEOUT_S)
    except asyncio.TimeoutError:
        return None
    if not request_line:
        return None
    parts = request_line.decode("latin-1").strip().split()
    if len(parts) != 3:
        raise _BadRequest("malformed request line")
    method, path, version = parts
    headers: dict[str, str] = {}
    total = 0
    while True:
        line = await asyncio.wait_for(reader.readline(), _IDLE_TIMEOUT_S)
        if line in (b"\r\n", b"\n", b""):
            break
        total += len(line)
        if total > _MAX_HEADER_BYTES:
            raise _BadRequest("oversized request headers")
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise _BadRequest("malformed header line")
        headers[name.strip().lower()] = value.strip()
    return method, path, version, headers


async def _route(
    service: QueryService,
    method: str,
    path: str,
    headers: dict,
    reader: asyncio.StreamReader,
) -> tuple[int, dict, dict]:
    """Dispatch one parsed request; returns ``(status, payload, extra_headers)``."""
    if method == "GET":
        if path == "/healthz":
            health = service.health()
            return (200 if health["status"] == "ok" else 503), health, {}
        if path == "/stats":
            # Off the loop: the first look at the engine's disk cache reads
            # the whole cache file.
            try:
                return 200, await service.core.offload(service.stats), {}
            except ServiceRejection as error:
                return error.status, {"ok": False, "error": str(error)}, {}
        return 404, {"ok": False, "error": f"unknown path {path}"}, {}
    if method != "POST" or path != "/v1/query":
        return 404, {"ok": False, "error": f"unknown path {method} {path}"}, {}

    try:
        length = int(headers.get("content-length", 0))
    except ValueError:
        raise _BadRequest("bad Content-Length") from None
    if length <= 0 or length > _MAX_BODY_BYTES:
        raise _BadRequest("missing or oversized request body")
    body = await reader.readexactly(length)
    try:
        request = parse_request(json.loads(body))
    except json.JSONDecodeError as error:
        return 400, {"ok": False, "error": f"invalid JSON: {error}"}, {}
    except ProtocolError as error:
        return 400, {"ok": False, "error": str(error)}, {}
    try:
        return 200, await service.core.handle(request), {}
    except ServiceRejection as error:
        extra = {}
        if error.retry_after_s is not None:
            extra["Retry-After"] = str(max(1, round(error.retry_after_s)))
        return error.status, {"ok": False, "error": str(error)}, extra
    except ValueError as error:
        # Structurally valid JSON whose parameters the model rejects.
        return 400, {"ok": False, "error": str(error)}, {}
    except Exception as error:  # pragma: no cover - defensive
        return 500, {"ok": False, "error": f"internal error: {error}"}, {}


def _render(status: int, payload: dict, extra: dict, *, close: bool) -> bytes:
    body = json.dumps(payload).encode("utf-8")
    head = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        "Server: repro-serve/2.0",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        f"Connection: {'close' if close else 'keep-alive'}",
    ]
    head.extend(f"{name}: {value}" for name, value in extra.items())
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body


async def _serve_connection(
    service: QueryService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    """One keep-alive HTTP/1.1 connection, parsed and answered on the loop."""
    try:
        while True:
            try:
                head = await _read_head(reader)
                if head is None:
                    return
                method, path, version, headers = head
                status, payload, extra = await _route(
                    service, method, path, headers, reader
                )
            except _BadRequest as error:
                # Framing is unreliable after a malformed request: answer
                # and drop the connection.
                writer.write(_render(
                    400, {"ok": False, "error": str(error)}, {}, close=True
                ))
                await writer.drain()
                return
            close = (
                headers.get("connection", "").lower() == "close"
                or version == "HTTP/1.0"
            )
            writer.write(_render(status, payload, extra, close=close))
            await writer.drain()
            if close:
                return
    except (ConnectionError, asyncio.IncompleteReadError, asyncio.TimeoutError):
        pass  # client went away mid-request
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class ServeServer:
    """Asyncio HTTP listener bound to one :class:`QueryService`.

    The listener and every connection coroutine run on the service's
    reactor loop; this facade is the sync handle the CLI, benchmarks and
    tests hold.  Binding happens at construction (``port=0`` picks a free
    port, readable via :attr:`port` immediately); serving starts with
    :meth:`start_background` or :meth:`serve_forever`.
    """

    def __init__(self, address: tuple[str, int], service: QueryService) -> None:
        host, port = address
        self.service = service
        self.verbose = False
        self._connections: set[asyncio.Task] = set()
        self._closed = threading.Event()
        self._lifecycle = threading.Lock()
        self._closing = False
        self._started = False
        service._attach_server()
        self._listener: asyncio.Server = asyncio.run_coroutine_threadsafe(
            asyncio.start_server(
                self._on_connection, host, port, start_serving=False
            ),
            service.loop,
        ).result(10.0)

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            await _serve_connection(self.service, reader, writer)
        finally:
            self._connections.discard(task)

    @property
    def port(self) -> int:
        """The bound port (useful with the ``port=0`` pick-a-free-port idiom)."""
        return self._listener.sockets[0].getsockname()[1]

    # -------------------------------------------------------------- #
    # serving
    # -------------------------------------------------------------- #

    def _ensure_serving(self) -> None:
        with self._lifecycle:
            if self._started or self._closing:
                return
            self._started = True
        asyncio.run_coroutine_threadsafe(
            self._listener.start_serving(), self.service.loop
        ).result(10.0)

    def start_background(self) -> "ServeServer":
        """Start accepting connections (they are served on the reactor loop)."""
        self._ensure_serving()
        return self

    def serve_forever(self) -> None:
        """Accept connections and block the calling thread until :meth:`close`."""
        self._ensure_serving()
        self._closed.wait()

    # -------------------------------------------------------------- #
    # shutdown
    # -------------------------------------------------------------- #

    async def _retire_connections(self, grace_s: float = 5.0) -> None:
        """Stop the listener, let in-flight responses flush, then cut stragglers."""
        self._listener.close()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + grace_s
        while self._connections and loop.time() < deadline:
            await asyncio.sleep(0.02)
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*list(self._connections), return_exceptions=True)

    def close(self, drain: bool = True) -> None:
        """Graceful shutdown: drain the service, retire connections, stop the loop."""
        with self._lifecycle:
            already = self._closing
            self._closing = True
        if not already:
            # Order matters: the service drains first (in-flight queries
            # finish and their responses are written by still-live
            # connection coroutines), then the listener and lingering
            # keep-alive connections are retired, and finally detaching
            # releases the reactor loop.
            self.service.close(drain=drain)
            try:
                asyncio.run_coroutine_threadsafe(
                    self._retire_connections(), self.service.loop
                ).result(30.0)
            except RuntimeError:  # pragma: no cover - reactor already stopped
                pass
            self.service._detach_server()
        self._closed.set()

    def __enter__(self) -> "ServeServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def make_server(host: str, port: int, service: QueryService) -> ServeServer:
    """Bind a :class:`ServeServer`; ``port=0`` picks a free port."""
    return ServeServer((host, port), service)
