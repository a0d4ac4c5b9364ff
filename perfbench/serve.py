"""Workload ``serve``: the defaults of ``repro serve``, driven open loop over HTTP.

``QueryService`` over the serial engine (batch 16, window 20 ms, queue
256) behind the asyncio HTTP server, in process.  One client thread
sends a seeded Poisson schedule at 60 requests/s over 8 keep-alive
connections: 70 % hits on a 64-query hot set that set-up warms, 15 %
small solves never seen before (a third of them sent twice at the same
instant, so singleflight answers both with one solve) and 15 % horizon
queries.  Admission, the memory LRU, singleflight, the batch window and
HTTP do most of the work; the solver does little.  Latency is timed
from each request's due time, so a stall also counts against the
requests queued behind it.  Timings are wall clock, not probe-normalized:
the latency is a wall-clock batch window plus queueing, and on the
reference host normalizing it (by probe slices taken in idle gaps) made
the run-to-run spread no better.  The run is pinned to one vCPU like the
others, which did steady it.
"""

from __future__ import annotations

import asyncio
import json
import math
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from perfbench.common import Outcome, Run, median, percentile, timed_setups
from perfbench.goldens import load_goldens

RATE = 60.0
CONNECTIONS = 8
HOT_SHARE, FRESH_SHARE = 0.70, 0.15
BLOCK = 20
SMALL_SOLVE = {"initial_bins": 64, "max_bins": 128, "relative_gap": 0.3}
TRACE_WINDOW_S = 2.0
HOT_SET = tuple(
    {"kind": "loss", "hurst": hurst, "utilization": utilization, "buffer": buffer,
     **SMALL_SOLVE}
    for hurst in (0.6, 0.7, 0.8, 0.9)
    for utilization in (0.5, 0.8)
    for buffer in (0.05, 0.07, 0.09, 0.12, 0.15, 0.2, 0.25, 0.3)
)
_SLACK = 1e-9


@dataclass
class Request:
    """One scheduled request and what happened to it."""

    ident: int
    kind: str  # "hot" | "fresh" | "horizon"
    body: dict
    offset: float
    twin: int = -1
    hot_index: int = -1
    due: float = 0.0
    enqueued: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    reply: dict = field(default_factory=dict)

    def wire(self) -> bytes:
        payload = json.dumps(self.body).encode()
        head = (
            "POST /v1/query HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(payload)}\r\n\r\n"
        )
        return head.encode("latin-1") + payload


def _events(stream: int, seconds: float, start: float) -> list[tuple[str, float, dict, bool]]:
    """``(kind, offset, body, doubled)`` events of one seeded stream:
    the exact mix, at Poisson arrival times in ``[start, start + seconds)``."""
    rng = np.random.default_rng([stream, 15])
    events = max(1, round(RATE * seconds))
    # The mix holds exactly in every block of BLOCK consecutive events,
    # shuffled within the block: how solves cluster (and so the tail)
    # varies less from stream to stream than under one global shuffle.
    # The first fresh solve of each block is the one sent twice.
    block = ["hot"] * round(HOT_SHARE * BLOCK) + ["fresh"] * round(FRESH_SHARE * BLOCK)
    block += ["horizon"] * (BLOCK - len(block))
    kinds, doubled = [], set()
    while len(kinds) < events:
        shuffled = [block[i] for i in rng.permutation(BLOCK)]
        doubled.add(len(kinds) + shuffled.index("fresh"))
        kinds += shuffled
    kinds = kinds[:events]
    # Given their count, Poisson arrivals are i.i.d. uniform over the span.
    offsets = np.sort(rng.uniform(start, start + seconds, events))
    out = []
    for index, (kind, offset) in enumerate(zip(kinds, offsets.tolist())):
        if kind == "hot":
            body = {"hot_index": int(rng.integers(len(HOT_SET)))}
        else:
            # Buffers up to 0.3 s keep the small solves at 1-2 ms; at
            # 1-10 s they run to the iteration cap (up to ~130 ms).
            body = {
                "kind": "loss" if kind == "fresh" else "horizon",
                "hurst": float(rng.uniform(0.55, 0.95)),
                "utilization": float(rng.uniform(0.3, 0.9)),
                "buffer": float(10.0 ** rng.uniform(-1.3, -0.5)),
            }
            if kind == "fresh":
                body.update(SMALL_SOLVE)
        out.append((kind, offset, body, index in doubled))
    return out


def schedule(seed: int, seconds: float) -> list[Request]:
    """The open-loop schedule of a run.

    The first half replays one fixed reference stream and the second
    half is the seed's own stream: the tail latency depends on how the
    slow requests of a stream happen to cluster, and sharing half of the
    schedule across seeds halves that part of the run-to-run spread.
    """
    half = seconds / 2.0
    events = _events(0, half, 0.0) + _events(seed + 1, seconds - half, half)
    requests: list[Request] = []
    for kind, offset, body, doubled in events:
        request = Request(ident=len(requests), kind=kind, body=body, offset=offset)
        if kind == "hot":
            request.hot_index = body["hot_index"]
            request.body = dict(HOT_SET[request.hot_index])
        requests.append(request)
        if doubled:
            twin = Request(ident=len(requests), kind=kind, body=body, offset=offset,
                           twin=request.ident)
            request.twin = twin.ident
            requests.append(twin)
    return requests


# ---------------------------------------------------------------------- #
# the client: one thread, an asyncio loop, CONNECTIONS keep-alive streams
# ---------------------------------------------------------------------- #


async def _read_response(reader: asyncio.StreamReader) -> tuple[int, dict]:
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("server closed the connection")
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    body = await reader.readexactly(length)
    return status, json.loads(body)


async def _drive(port: int, requests: list[Request], start: float, on_window) -> None:
    streams = [await asyncio.open_connection("127.0.0.1", port) for _ in range(CONNECTIONS)]
    queue: asyncio.Queue = asyncio.Queue()

    async def connection(reader, writer) -> None:
        while True:
            request = await queue.get()
            if request is None:
                return
            request.sent = time.perf_counter()
            writer.write(request.wire())
            await writer.drain()
            request.status, request.reply = await _read_response(reader)
            request.done = time.perf_counter()

    workers = [asyncio.create_task(connection(r, w)) for r, w in streams]
    window = -1
    for request in requests:
        request.due = start + request.offset
        delay = request.due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        if on_window is not None and int(request.offset // TRACE_WINDOW_S) != window:
            window = int(request.offset // TRACE_WINDOW_S)
            on_window(window)
        request.enqueued = time.perf_counter()
        queue.put_nowait(request)
    for _ in workers:
        queue.put_nowait(None)
    try:
        await asyncio.gather(*workers)
    finally:
        for _, writer in streams:
            writer.close()
        await asyncio.gather(*(writer.wait_closed() for _, writer in streams),
                             return_exceptions=True)


def drive(port: int, requests: list[Request], on_window=None) -> None:
    """Send ``requests`` on their schedule from a client thread; wait for all."""
    errors: list[BaseException] = []

    def client() -> None:
        try:
            asyncio.run(_drive(port, requests, time.perf_counter() + 0.05, on_window))
        except BaseException as error:  # reported on the calling thread
            errors.append(error)

    thread = threading.Thread(target=client, name="perfbench-client")
    thread.start()
    span = max((r.offset for r in requests), default=0.0)
    thread.join(timeout=span + 120.0)
    if thread.is_alive():
        raise RuntimeError("serve client did not finish within its timeout")
    if errors:
        raise errors[0]


# ---------------------------------------------------------------------- #
# set-up and checks
# ---------------------------------------------------------------------- #


class _Serve:
    def __init__(self, run: Run) -> None:
        self.run = run

    def setup(self, repeat: int):
        from repro.exec import SerialBackend, SolveCache, SweepEngine
        from repro.serve import QueryService, make_server
        from repro.serve.protocol import parse_request

        engine = SweepEngine(backend=SerialBackend(),
                             cache=SolveCache(self.run.scratch(f"serve-cache{repeat}")))
        service = QueryService(engine, batch_size=16, batch_delay_s=0.02,
                               max_queue=256, default_timeout_s=30.0)
        server = make_server("127.0.0.1", 0, service)
        server.start_background()
        pending = [
            asyncio.run_coroutine_threadsafe(service.core.handle(parse_request(body)),
                                             service.loop)
            for body in HOT_SET
        ]
        for future in pending:
            future.result(timeout=120.0)
        warmup = [
            Request(0, "hot", dict(HOT_SET[0]), 0.0),
            Request(1, "fresh", {"kind": "loss", "hurst": 0.66, "utilization": 0.66,
                                 "buffer": 0.66, **SMALL_SOLVE}, 0.0),
            Request(2, "horizon", {"kind": "horizon", "hurst": 0.66}, 0.0),
        ]
        drive(server.port, warmup)
        for request in warmup:
            if request.status != 200:
                raise RuntimeError(f"warm-up request failed: {request.status} {request.reply}")
        return server

    def check(self, requests: list[Request]) -> list[str]:
        """One message per failed request (empty when every answer is right)."""
        failures: dict[int, str] = {}
        for request in requests:
            reply = request.reply
            if request.status != 200 or not reply.get("ok"):
                failures[request.ident] = f"status {request.status}: {reply.get('error')}"
                continue
            result = reply["result"]
            if request.kind == "horizon":
                if not all(math.isfinite(v) and v > 0 for v in result.values()):
                    failures[request.ident] = "horizon estimates not finite and positive"
                continue
            if not result["lower"] <= result["estimate"] <= result["upper"]:
                failures[request.ident] = "estimate outside [lower, upper]"
            if request.kind == "hot":
                g_lower, g_upper = load_goldens()["serve_hot"][request.hot_index]
                if (result["lower"] > g_upper * (1 + _SLACK)
                        or result["upper"] < g_lower * (1 - _SLACK)):
                    failures[request.ident] = "hot-set bracket misses its golden bracket"
            if request.twin >= 0 and requests[request.twin].reply.get("result") != result:
                failures[request.ident] = "duplicate requests got different answers"
        return list(failures.values())


def _delta(after: dict, before: dict, *path: str) -> float:
    for key in path:
        after, before = after[key], before[key]
    return float(after) - float(before)


def run_workload(run: Run) -> Outcome:
    from repro.serve.client import ServeClient
    from repro.serve.stats import LatencyTracker

    serve = _Serve(run)
    server, _, setup_raw = timed_setups(run, serve.setup, lambda s: s.close(drain=True),
                                        interval=0.0)
    try:
        service = server.service
        core = service.core
        # Fresh trackers, so /stats percentiles cover the measured phase only.
        core.queue_latency, core.solve_latency, core.total_latency = (
            LatencyTracker(), LatencyTracker(), LatencyTracker()
        )
        before = service.stats()
        requests = schedule(run.seed, run.seconds)
        clock = run.clock(interval=0.0)  # the work runs on other threads
        clock.start()
        on_window = None
        if run.spans is not None:
            recorder = run.spans

            def on_window(window: int) -> None:
                recorder.ambient = window + 1
                recorder.enabled = window % 2 == 1

        drive(server.port, requests, on_window)
        if run.spans is not None:
            run.spans.enabled = False
        clock.finish()
        after = ServeClient(f"http://127.0.0.1:{server.port}").stats()
    finally:
        server.close(drain=True)

    failures = serve.check(requests)
    latencies = [r.done - r.due for r in requests]
    completed = sum(1 for r in requests if r.status == 200)
    metrics = {
        "throughput": completed / (max(r.done for r in requests) - min(r.due for r in requests)),
        "p50_ms": median(latencies) * 1e3,
        "p99_ms": percentile(latencies, 99) * 1e3,
        "warm_ms": median([r.done - r.due for r in requests if r.kind == "hot"]) * 1e3,
        "setup_s": setup_raw,
    }
    outcome = Outcome(ops=[], metrics=metrics, raw=dict(metrics),
                      attempted=len(requests), failed=len(failures), notes=failures)
    if run.spans is not None:
        outcome.per_layer = _traced_metrics(run, requests, before, after)
    return outcome


def _traced_metrics(run: Run, requests, before: dict, after: dict) -> dict[str, float]:
    from perfbench.spans import layer_metrics

    out = layer_metrics(run.spans)
    elapsed = [r.reply.get("elapsed_s", 0.0) for r in requests]
    tiers = [r.reply.get("tier", "inline") for r in requests]
    out.update({
        "serve.server_p50_ms": percentile(elapsed, 50) * 1e3,
        "serve.server_p99_ms": percentile(elapsed, 99) * 1e3,
        "serve.http_p50_ms": percentile(
            [r.done - r.sent - r.reply.get("elapsed_s", 0.0) for r in requests], 50) * 1e3,
        "serve.client_wait_p99_ms": percentile([r.sent - r.enqueued for r in requests], 99) * 1e3,
        "serve.generator_late_p99_ms": percentile([r.enqueued - r.due for r in requests], 99) * 1e3,
        "serve.batch_wait_p99_ms": after["latency_s"]["queue"]["p99_s"] * 1e3,
        "serve.solve_p99_ms": after["latency_s"]["solve"]["p99_s"] * 1e3,
        "serve.tier_memory": tiers.count("memory"),
        "serve.tier_flight": tiers.count("flight"),
        "serve.tier_engine": tiers.count("engine"),
        "serve.tier_inline": tiers.count("inline"),
        "serve.shed": _delta(after, before, "queue", "shed"),
        "serve.timeouts": _delta(after, before, "timeouts"),
        "serve.errors": _delta(after, before, "errors"),
    })
    batches = _delta(after, before, "queue", "batches")
    items = _delta(after, before, "queue", "items_dispatched")
    out["serve.mean_batch"] = items / batches if batches else 0.0
    lru_hits = _delta(after, before, "memory_lru", "hits")
    lru_lookups = lru_hits + _delta(after, before, "memory_lru", "misses")
    out["serve.lru_hit_ratio"] = lru_hits / lru_lookups if lru_lookups else 0.0

    def mean_hit(traced: bool) -> float:
        values = [r.reply.get("elapsed_s", 0.0) for r in requests
                  if r.reply.get("tier") == "memory"
                  and (int(r.offset // TRACE_WINDOW_S) % 2 == 1) == traced]
        return sum(values) / len(values) if values else 0.0

    plain = mean_hit(False)
    out["trace.overhead"] = mean_hit(True) / plain - 1.0 if plain else 0.0
    return out
