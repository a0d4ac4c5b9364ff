"""Serving layer: a long-lived loss-rate query service over the engine.

The batch path (CLI, sweeps, benchmarks) answers "run this grid once";
this package answers *interactive* what-if exploration — many clients
concurrently asking for loss rates, correlation horizons and
dimensioning answers over a shared warm engine.  The stack is an asyncio
event loop (one reactor thread) with blocking work pushed to executors:

* :mod:`~repro.serve.protocol` — strict JSON request/response schema
  whose identity is the ``repro.core.fingerprint`` task key;
* :mod:`~repro.serve.lru` — in-memory LRU result tier above the
  persistent :class:`~repro.exec.cache.SolveCache`;
* :mod:`~repro.serve.singleflight` — identical concurrent requests share
  one in-flight computation (one fingerprint in flight at most once);
* :mod:`~repro.serve.batcher` — size-or-deadline micro-batching with a
  bounded admission queue, run by an event-loop collector task;
* :mod:`~repro.serve.service` — the loop-confined async core
  (singleflight → LRU → batcher → :class:`~repro.exec.engine.SweepEngine`
  via ``run_in_executor``) plus the thread-safe ``QueryService`` facade,
  with per-request timeouts, 429/503 shedding and graceful drain;
* :mod:`~repro.serve.httpd` — non-blocking asyncio-streams HTTP
  front-end (``POST /v1/query``, ``GET /healthz``, ``GET /stats``);
* :mod:`~repro.serve.client` — stdlib client with typed errors;
* :mod:`~repro.serve.stats` — bounded-window latency percentiles.
"""

from repro.serve.batcher import BatcherClosedError, MicroBatcher, QueueFullError
from repro.serve.client import ServeClient, ServeError
from repro.serve.httpd import ServeServer, make_server
from repro.serve.lru import DEFAULT_LRU_ENTRIES, MemoryLRU
from repro.serve.protocol import (
    KINDS,
    ProtocolError,
    QueryRequest,
    parse_request,
    result_payload,
)
from repro.serve.service import (
    AsyncQueryService,
    QueryService,
    QueryTimeoutError,
    ServiceDrainingError,
    ServiceOverloadedError,
    ServiceRejection,
    WorkerLostError,
)
from repro.serve.singleflight import Singleflight
from repro.serve.stats import LatencyTracker

__all__ = [
    "KINDS",
    "ProtocolError",
    "QueryRequest",
    "parse_request",
    "result_payload",
    "MemoryLRU",
    "DEFAULT_LRU_ENTRIES",
    "Singleflight",
    "MicroBatcher",
    "QueueFullError",
    "BatcherClosedError",
    "AsyncQueryService",
    "QueryService",
    "ServiceRejection",
    "ServiceOverloadedError",
    "ServiceDrainingError",
    "QueryTimeoutError",
    "WorkerLostError",
    "ServeServer",
    "make_server",
    "ServeClient",
    "ServeError",
    "LatencyTracker",
]
