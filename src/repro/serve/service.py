"""The query service: accept → memory LRU → singleflight → batch → engine.

The service is an asyncio application.  :class:`AsyncQueryService` is the
event-loop-confined core — every admission decision, cache probe and
singleflight window lives on one loop, so the hot path takes no locks —
and :class:`QueryService` is a thread-safe facade that boots a dedicated
reactor thread, runs the core on it, and exposes the same blocking
``query()``/``close()``/``stats()`` surface the HTTP front-end, the CLI
and the tests always used.  One request flows through five stations:

1. **Admission.**  A draining service rejects immediately
   (:class:`ServiceDrainingError` → 503); otherwise the request is
   counted in flight.
2. **Memory tier.**  The request's fingerprint probes the in-memory
   :class:`~repro.serve.lru.MemoryLRU`; a hit answers on the event loop
   without touching the executor, the disk cache or the solver.
3. **Singleflight.**  A miss joins the in-flight table
   (:class:`~repro.serve.singleflight.Singleflight`).  Followers skip
   straight to awaiting the leader's future — N identical concurrent
   requests cost exactly one solve.
4. **Batching** (``loss`` only).  The leader enqueues a work item into
   the bounded :class:`~repro.serve.batcher.MicroBatcher`; a full queue
   sheds the request (:class:`ServiceOverloadedError` → 429 with
   Retry-After) *before* it ever reaches the backend.  Each
   size-or-deadline window is offloaded whole to the warm
   :class:`~repro.exec.engine.SweepEngine` on a single-threaded executor
   (``run_in_executor``), whose batch planner resolves disk-cache hits
   and stacks the misses into batched spectral kernel calls.  Completed
   results populate the memory LRU on the way out.
5. **Reply.**  Every waiter observes the shared result (or the shared
   error), bounded by its per-request timeout
   (:class:`QueryTimeoutError` → 504).  A batch that meets a dead pool
   worker fails its waiters with :class:`WorkerLostError` (503 with
   Retry-After); the backend starts a fresh pool for the next batch.

``horizon`` requests are closed-form and answered inline on the loop;
``dimension`` requests (a bisection of solves) run on a small auxiliary
executor, still deduplicated by the singleflight table and cached in the
LRU.  :meth:`QueryService.close` drains: new work is rejected, in-flight
work completes, then the batcher, the engine and (when no HTTP server
still shares it) the reactor loop shut down.

The event-loop/executor boundary is strict: blocking work — engine
batches, dimension bisections, engine teardown — runs on executor
threads; everything the loop touches (fingerprints, LRU, singleflight,
admission counters) is non-blocking.  The ``ASY001`` lint rule enforces
the boundary statically.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections.abc import Callable
from concurrent.futures import BrokenExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import TypeVar

from repro.core.horizon import correlation_horizon, norros_horizon
from repro.core.results import LossRateResult
from repro.exec.engine import SweepEngine
from repro.exec.task import SolveTask
from repro.serve.batcher import BatcherClosedError, MicroBatcher, QueueFullError
from repro.serve.lru import DEFAULT_LRU_ENTRIES, MemoryLRU
from repro.serve.protocol import QueryRequest, result_payload
from repro.serve.singleflight import Singleflight
from repro.serve.stats import LatencyTracker

__all__ = [
    "AsyncQueryService",
    "QueryService",
    "QueryTimeoutError",
    "ServiceDrainingError",
    "ServiceOverloadedError",
    "ServiceRejection",
    "WorkerLostError",
]

_T = TypeVar("_T")


class ServiceRejection(RuntimeError):
    """Base of the service's load-control refusals.

    Class attributes carry what the HTTP layer needs: ``status`` is the
    response code, ``retry_after_s`` (when not None) becomes a
    ``Retry-After`` header.
    """

    status = 503
    retry_after_s: float | None = None


class ServiceOverloadedError(ServiceRejection):
    """The bounded queue shed this request (HTTP 429)."""

    status = 429
    retry_after_s = 1.0


class ServiceDrainingError(ServiceRejection):
    """The service is draining/closed and accepts no new work (HTTP 503)."""

    status = 503
    retry_after_s = 5.0


class QueryTimeoutError(ServiceRejection):
    """The per-request timeout expired while waiting for the result (HTTP 504)."""

    status = 504
    retry_after_s = None


class WorkerLostError(ServiceRejection):
    """A solver worker died under this request's batch (HTTP 503).

    The pool backend drops a broken pool and starts a fresh one on the
    next batch, so a retry is solved.
    """

    status = 503
    retry_after_s = 1.0


@dataclass
class _Pending:
    """One queued ``loss`` computation (the leader's work item)."""

    key: str
    task: SolveTask
    enqueued_at: float


class AsyncQueryService:
    """Event-loop core: memory LRU, singleflight, micro-batching, executors.

    Construct it off-loop, then ``await start()`` on the serving loop
    before the first :meth:`handle`.  All coroutine methods are
    loop-confined; the plain counters are written only from the loop and
    may be read (racily but atomically) from any thread for ``/stats``.
    """

    def __init__(
        self,
        engine: SweepEngine,
        *,
        batch_size: int = 16,
        batch_delay_s: float = 0.02,
        max_queue: int = 256,
        default_timeout_s: float = 30.0,
        lru_entries: int = DEFAULT_LRU_ENTRIES,
        lru_bytes: int | None = None,
    ) -> None:
        if default_timeout_s <= 0:
            raise ValueError(f"default_timeout_s must be > 0, got {default_timeout_s}")
        self.engine = engine
        self.default_timeout_s = default_timeout_s
        self.lru = MemoryLRU(max_entries=lru_entries, max_bytes=lru_bytes)
        self.singleflight = Singleflight()
        self.batcher = MicroBatcher(
            self._dispatch,
            batch_size=batch_size,
            batch_delay_s=batch_delay_s,
            max_queue=max_queue,
        )
        self.queue_latency = LatencyTracker()
        self.solve_latency = LatencyTracker()
        self.total_latency = LatencyTracker()

        # Blocking work never runs on the loop: engine batches go to a
        # single-threaded executor (preserving the engine's single-caller
        # discipline), dimension bisections to a small auxiliary pool.
        self._engine_executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-engine"
        )
        self._aux_executor = ThreadPoolExecutor(
            max_workers=2, thread_name_prefix="repro-serve-aux"
        )

        self._inflight = 0
        self._draining = False
        self._idle = asyncio.Event()
        self.started_at = time.monotonic()
        self.accepted = 0
        self.completed = 0
        self.timeouts = 0
        self.worker_losses = 0
        self.errors = 0

    async def start(self) -> None:
        """Bind to the running loop and spawn the batcher's collector task."""
        await self.batcher.start()

    # ------------------------------------------------------------------ #
    # request path (loop-confined)
    # ------------------------------------------------------------------ #

    async def handle(self, request: QueryRequest) -> dict:
        """Answer one request; returns the JSON-able response payload.

        Raises a :class:`ServiceRejection` subclass for load-control
        refusals and :class:`ValueError` for requests whose parameters
        the model itself rejects.
        """
        if self._draining:
            raise ServiceDrainingError("service is draining")
        start = time.perf_counter()
        self._inflight += 1
        self.accepted += 1
        try:
            if request.kind == "horizon":
                payload = {"result": self._horizon(request), "coalesced": False}
            else:
                payload = await self._tiered(request)
            elapsed = time.perf_counter() - start
            self.total_latency.record(elapsed)
            self.completed += 1
            return {
                "ok": True,
                "kind": request.kind,
                "elapsed_s": elapsed,
                **payload,
            }
        except WorkerLostError:
            self.worker_losses += 1
            raise
        except ServiceRejection:
            raise
        except Exception:
            self.errors += 1
            raise
        finally:
            self._inflight -= 1
            if self._inflight == 0:
                self._idle.set()

    async def _tiered(self, request: QueryRequest) -> dict:
        """``loss``/``dimension`` path: memory LRU → singleflight → batcher."""
        key = request.key()
        hit = self.lru.get(key)
        if hit is not None:
            return {
                "result": self._payload(hit),
                "coalesced": False,
                "tier": "memory",
                "key": key[:16],
            }
        future, leader = self.singleflight.admit(key)
        if leader:
            if request.kind == "loss":
                item = _Pending(key, request.task(), time.perf_counter())
                try:
                    self.batcher.submit(item)
                except QueueFullError as error:
                    self.singleflight.abandon(key)
                    raise ServiceOverloadedError(str(error)) from None
                except BatcherClosedError:
                    self.singleflight.abandon(key)
                    raise ServiceDrainingError("service is draining") from None
            else:  # dimension: a bisection of solves, on the auxiliary executor
                try:
                    value = await self.offload(self._dimension, request)
                except Exception as error:  # waiters share the failure too
                    self.singleflight.fail(key, error)
                else:
                    self.lru.put(key, value)
                    self.singleflight.resolve(key, value)

        timeout = request.timeout_s if request.timeout_s is not None else self.default_timeout_s
        try:
            value = await asyncio.wait_for(asyncio.shield(future), timeout)
        except asyncio.TimeoutError:
            self.timeouts += 1
            raise QueryTimeoutError(
                f"result not ready within {timeout:g}s (computation continues; retry)"
            ) from None
        except asyncio.CancelledError:
            if future.cancelled():
                # Raced a leader whose enqueue was shed before this
                # follower attached.
                raise ServiceOverloadedError("request was shed while queueing") from None
            raise
        return {
            "result": self._payload(value),
            "coalesced": not leader,
            "tier": "engine" if leader else "flight",
            "key": key[:16],
        }

    async def offload(self, fn: Callable[..., _T], *args: object) -> _T:
        """Run blocking ``fn(*args)`` on the auxiliary executor, off the loop.

        Raises :class:`ServiceDrainingError` once shutdown has released
        the executors.
        """
        loop = asyncio.get_running_loop()
        try:
            future = loop.run_in_executor(self._aux_executor, fn, *args)
        except RuntimeError:  # executor shut down
            raise ServiceDrainingError("service is draining") from None
        return await future

    @staticmethod
    def _payload(value: object) -> object:
        return result_payload(value) if isinstance(value, LossRateResult) else value

    # ------------------------------------------------------------------ #
    # computations
    # ------------------------------------------------------------------ #

    async def _dispatch(self, batch: list[_Pending]) -> None:
        """Collector-task entry: one micro-batch window → engine executor.

        The window goes to the engine whole — no flattening into
        independent solves.  The engine resolves disk-cache hits first,
        then partitions the misses into kernel-stackable batches, so the
        stacked spectral kernel sees the whole window at once.  Fresh
        results populate the memory LRU before waiters wake.
        """
        started = time.perf_counter()
        for item in batch:
            self.queue_latency.record(started - item.enqueued_at)
        loop = asyncio.get_running_loop()
        tasks = [item.task for item in batch]
        try:
            results = await loop.run_in_executor(
                self._engine_executor, self.engine.run_tasks, tasks
            )
        except Exception as error:
            if isinstance(error, BrokenExecutor):
                error = WorkerLostError(f"a solver worker died: {error}")
            for item in batch:
                self.singleflight.fail(item.key, error)
            return
        seconds = time.perf_counter() - started
        for item, result in zip(batch, results):
            self.solve_latency.record(seconds)
            self.lru.put(item.key, result)
            self.singleflight.resolve(item.key, result)

    def _horizon(self, request: QueryRequest) -> dict:
        source = request.source()
        service_rate = source.mean_rate / request.utilization
        buffer_size = request.buffer * service_rate
        return {
            "eq26_horizon_s": correlation_horizon(
                source, buffer_size,
                no_reset_probability=request.no_reset_probability,
            ),
            "norros_horizon_s": norros_horizon(source, service_rate, buffer_size),
        }

    def _dimension(self, request: QueryRequest) -> dict:
        from repro.queueing.dimensioning import required_service_rate

        source = request.source()
        bandwidth = required_service_rate(
            source, request.buffer, request.target_loss, config=request.config()
        )
        return {
            "mean_rate": source.mean_rate,
            "peak_rate": source.marginal.peak,
            "effective_bandwidth": bandwidth,
            "achievable_utilization": source.mean_rate / bandwidth,
        }

    # ------------------------------------------------------------------ #
    # lifecycle (loop-confined)
    # ------------------------------------------------------------------ #

    @property
    def inflight_count(self) -> int:
        return self._inflight

    @property
    def draining(self) -> bool:
        return self._draining

    async def shutdown(self, drain: bool = True, timeout_s: float = 30.0) -> None:
        """Stop accepting requests and shut down (idempotent).

        With ``drain=True`` (default) every in-flight request is allowed
        to finish — waiting up to ``timeout_s`` — before the batcher, the
        executors and the engine are released; ``drain=False`` discards
        queued work and fails its waiters.
        """
        first = not self._draining
        self._draining = True
        if drain and first:
            loop = asyncio.get_running_loop()
            deadline = loop.time() + timeout_s
            while self._inflight > 0:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    break
                self._idle.clear()
                try:
                    await asyncio.wait_for(self._idle.wait(), remaining)
                except asyncio.TimeoutError:
                    break
        await self.batcher.close(drain=drain)
        if not drain:
            self.singleflight.fail_all(ServiceDrainingError("service is draining"))
        if first:
            # Engine teardown joins worker processes — executor work, not
            # loop work.
            await self.offload(self.engine.close)
            self._engine_executor.shutdown(wait=False)
            self._aux_executor.shutdown(wait=False)


class QueryService:
    """Thread-safe facade over :class:`AsyncQueryService` on a reactor loop.

    Construction boots a dedicated daemon thread running an asyncio event
    loop (the *reactor*), starts the async core on it, and exposes the
    blocking surface the HTTP front-end, the CLI, the benchmarks and the
    tests use: :meth:`query` submits one request to the loop and blocks
    for its answer; :meth:`stats`/:meth:`health` snapshot counters from
    any thread; :meth:`close` drains and — once no HTTP server still
    shares the loop — stops the reactor.

    Parameters
    ----------
    engine:
        The :class:`~repro.exec.engine.SweepEngine` every batch runs
        through.  Only the core's single-threaded engine executor touches
        it, so any backend (serial or warm process pool) works unmodified.
    batch_size, batch_delay_s, max_queue:
        Micro-batcher knobs (see :class:`~repro.serve.batcher.MicroBatcher`).
    default_timeout_s:
        Wait bound applied when a request carries no ``timeout_s``.
    lru_entries, lru_bytes:
        Memory-tier bounds (see :class:`~repro.serve.lru.MemoryLRU`).

    :meth:`close` also closes the engine.  A shed request's 429 carries
    ``Retry-After: 1``.
    """

    def __init__(
        self,
        engine: SweepEngine | None = None,
        *,
        batch_size: int = 16,
        batch_delay_s: float = 0.02,
        max_queue: int = 256,
        default_timeout_s: float = 30.0,
        lru_entries: int = DEFAULT_LRU_ENTRIES,
        lru_bytes: int | None = None,
    ) -> None:
        engine = engine if engine is not None else SweepEngine()
        self._core = AsyncQueryService(
            engine,
            batch_size=batch_size,
            batch_delay_s=batch_delay_s,
            max_queue=max_queue,
            default_timeout_s=default_timeout_s,
            lru_entries=lru_entries,
            lru_bytes=lru_bytes,
        )
        warm = getattr(getattr(engine, "backend", None), "warm", None)
        if callable(warm):
            # Spawn pool workers *before* any listener exists: workers
            # forked later would inherit accepted sockets and hold them
            # open past the parent's close (clients never see EOF).
            warm()
        self._lifecycle = threading.Lock()
        self._servers = 0
        self._loop_stopped = False
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-serve-loop", daemon=True
        )
        self._thread.start()
        asyncio.run_coroutine_threadsafe(self._core.start(), self._loop).result(10.0)

    def _run_loop(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_forever()
        finally:
            self._loop.close()

    # ------------------------------------------------------------------ #
    # request path
    # ------------------------------------------------------------------ #

    def query(self, request: QueryRequest) -> dict:
        """Answer one request from any thread; blocks for the shared result.

        Raises a :class:`ServiceRejection` subclass for load-control
        refusals and :class:`ValueError` for requests whose parameters
        the model itself rejects.
        """
        coroutine = self._core.handle(request)
        try:
            future = asyncio.run_coroutine_threadsafe(coroutine, self._loop)
        except RuntimeError:  # reactor already stopped
            coroutine.close()
            raise ServiceDrainingError("service is draining") from None
        return future.result()

    # ------------------------------------------------------------------ #
    # shared-core access
    # ------------------------------------------------------------------ #

    @property
    def core(self) -> AsyncQueryService:
        """The event-loop core (the HTTP front-end awaits it directly)."""
        return self._core

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        """The reactor loop (the HTTP front-end binds its listener here)."""
        return self._loop

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def close(self, drain: bool = True, timeout_s: float = 30.0) -> None:
        """Stop accepting requests and shut down (idempotent).

        With ``drain=True`` (default) every in-flight request is allowed
        to finish — waiting up to ``timeout_s`` — before the batcher and
        the engine are released; ``drain=False`` cancels queued work.
        The reactor loop is stopped once no HTTP server still shares it.
        """
        coroutine = self._core.shutdown(drain=drain, timeout_s=timeout_s)
        try:
            future = asyncio.run_coroutine_threadsafe(coroutine, self._loop)
        except RuntimeError:
            coroutine.close()  # reactor already stopped; core already shut down
        else:
            future.result(timeout_s + 60.0)
        with self._lifecycle:
            stop = self._servers == 0
        if stop:
            self._stop_loop()

    def _attach_server(self) -> None:
        """An HTTP server now shares the reactor (keeps it alive past close)."""
        with self._lifecycle:
            self._servers += 1

    def _detach_server(self) -> None:
        """The HTTP server released the reactor; stop it if the core drained."""
        with self._lifecycle:
            self._servers -= 1
            stop = self._servers == 0 and self._core.draining
        if stop:
            self._stop_loop()

    def _stop_loop(self) -> None:
        with self._lifecycle:
            if self._loop_stopped:
                return
            self._loop_stopped = True
        self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not threading.current_thread():
            self._thread.join(timeout=10.0)

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    def health(self) -> dict:
        """Liveness payload for ``/healthz``."""
        core = self._core
        return {
            "status": "draining" if core.draining else "ok",
            "inflight": core.inflight_count,
            "queue_depth": core.batcher.depth,
            "uptime_s": time.monotonic() - core.started_at,
        }

    def stats(self) -> dict:
        """Full ``/stats`` snapshot (counters, tiers, queue, engine, latency)."""
        core = self._core
        cache = core.engine.cache
        telemetry = core.engine.telemetry
        return {
            "accepted": core.accepted,
            "completed": core.completed,
            "inflight": core.inflight_count,
            "timeouts": core.timeouts,
            "worker_losses": core.worker_losses,
            "errors": core.errors,
            "draining": core.draining,
            "uptime_s": time.monotonic() - core.started_at,
            "queue": core.batcher.snapshot(),
            "singleflight": core.singleflight.snapshot(),
            "memory_lru": core.lru.snapshot(),
            "engine": telemetry.summary(),
            "batches": {
                "batched_tasks": telemetry.batched_tasks,
                "fallback_solo": telemetry.fallback_solo,
                "shapes": {
                    str(width): count
                    for width, count in telemetry.batch_shapes().items()
                },
            },
            "cache": None if cache is None else {
                "entries": len(cache),
                "hits": cache.hits,
                "misses": cache.misses,
            },
            "latency_s": {
                "queue": core.queue_latency.snapshot(),
                "solve": core.solve_latency.snapshot(),
                "total": core.total_latency.snapshot(),
            },
        }
