"""Tests for the query service core: singleflight, shedding, drain, timeouts.

These tests drive the thread-safe :class:`QueryService` facade directly
(no HTTP) against a stub engine whose dispatch can be blocked on an
event, which makes the contention windows deterministic: requests can be
piled up *while* a solve is provably in flight on the executor.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.results import LossRateResult
from repro.exec import SerialBackend, SolveCache, SweepEngine
from repro.exec.telemetry import SweepTelemetry
from repro.serve.protocol import parse_request
from repro.serve.service import (
    QueryService,
    QueryTimeoutError,
    ServiceDrainingError,
    ServiceOverloadedError,
)

RESULT = LossRateResult(
    lower=0.01, upper=0.02, iterations=10, bins=64, converged=True, negligible=False,
)


class GateEngine:
    """Engine stand-in: returns canned results, optionally gated, call-counted."""

    def __init__(self, gate: threading.Event | None = None, delay_s: float = 0.0):
        self.gate = gate
        self.delay_s = delay_s
        self.calls: list[int] = []
        self.keys_seen: list[str] = []
        self.telemetry = SweepTelemetry()
        self.cache = None
        self.close_calls = 0
        self._lock = threading.Lock()

    def run_tasks(self, tasks):
        if self.gate is not None:
            assert self.gate.wait(timeout=10), "test gate never opened"
        if self.delay_s:
            time.sleep(self.delay_s)
        with self._lock:
            self.calls.append(len(tasks))
            self.keys_seen.extend(task.cache_key() for task in tasks)
        return [RESULT for _ in tasks]

    @property
    def total_tasks(self) -> int:
        with self._lock:
            return sum(self.calls)

    def close(self):
        self.close_calls += 1


def _loss(buffer: float = 0.3, **extra) -> dict:
    return parse_request({"kind": "loss", "hurst": 0.7, "cutoff": 2.0,
                          "buffer": buffer, **extra})


def _poll(predicate, timeout: float = 5.0, message: str = "condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError(f"timed out waiting for {message}")
        time.sleep(0.002)


class TestCoalescingUnderContention:
    def test_n_identical_concurrent_requests_one_solve(self):
        gate = threading.Event()
        engine = GateEngine(gate)
        service = QueryService(engine, batch_size=4, batch_delay_s=0.005)
        request = _loss()
        responses: list[dict] = []
        lock = threading.Lock()

        def ask() -> None:
            response = service.query(request)
            with lock:
                responses.append(response)

        threads = [threading.Thread(target=ask) for _ in range(8)]
        try:
            for thread in threads:
                thread.start()
            # All eight are attached before the solve is allowed to finish.
            _poll(lambda: service.core.singleflight.hits == 7, message="7 singleflight hits")
            gate.set()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            gate.set()
            service.close()

        assert len(responses) == 8
        assert engine.total_tasks == 1  # exactly one backend solve
        assert sum(1 for r in responses if r["coalesced"]) == 7
        assert all(r["result"]["lower"] == RESULT.lower for r in responses)
        stats = service.stats()
        assert stats["singleflight"]["hits"] == 7
        assert stats["singleflight"]["leaders"] == 1

    def test_distinct_requests_are_not_coalesced(self):
        engine = GateEngine()
        service = QueryService(engine, batch_size=4, batch_delay_s=0.005)
        try:
            for i in range(3):
                service.query(_loss(buffer=0.3 + 0.1 * i))
        finally:
            service.close()
        assert engine.total_tasks == 3
        assert service.core.singleflight.hits == 0


class TestAdmissionControl:
    def test_shed_requests_get_429_and_never_reach_the_backend(self):
        gate = threading.Event()
        engine = GateEngine(gate)
        service = QueryService(
            engine, batch_size=1, batch_delay_s=0.0, max_queue=1
        )
        first = _loss(buffer=0.30)
        second = _loss(buffer=0.31)
        shed = _loss(buffer=0.32)
        threads = []
        try:
            threads.append(threading.Thread(target=service.query, args=(first,)))
            threads[-1].start()
            # Dispatcher takes the first item (blocks on the gate), queue empties.
            _poll(lambda: service.core.batcher.depth == 0 and service.core.batcher.batches >= 0
                  and service.core.accepted == 1, message="first request picked up")
            _poll(lambda: service.core.batcher.depth == 0, message="queue drained to dispatcher")
            threads.append(threading.Thread(target=service.query, args=(second,)))
            threads[-1].start()
            _poll(lambda: service.core.batcher.depth == 1, message="second request queued")

            with pytest.raises(ServiceOverloadedError) as excinfo:
                service.query(shed)
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after_s is not None
        finally:
            gate.set()
            for thread in threads:
                thread.join(timeout=10)
            service.close()

        assert shed.key() not in engine.keys_seen  # never reached the backend
        assert engine.total_tasks == 2
        assert service.stats()["queue"]["shed"] == 1

    def test_per_request_timeout_expires_while_computation_continues(self):
        gate = threading.Event()
        engine = GateEngine(gate)
        service = QueryService(engine, batch_size=1, batch_delay_s=0.0)
        try:
            with pytest.raises(QueryTimeoutError) as excinfo:
                service.query(_loss(timeout_s=0.05))
            assert excinfo.value.status == 504
            assert service.core.timeouts == 1
        finally:
            gate.set()
            service.close()
        # The solve itself still completed during drain.
        assert engine.total_tasks == 1


class TestDrain:
    def test_drain_completes_in_flight_work(self):
        engine = GateEngine(delay_s=0.05)
        service = QueryService(engine, batch_size=2, batch_delay_s=0.01)
        responses: list[dict] = []
        lock = threading.Lock()

        def ask(i: int) -> None:
            response = service.query(_loss(buffer=0.3 + 0.05 * i))
            with lock:
                responses.append(response)

        threads = [threading.Thread(target=ask, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        _poll(lambda: service.core.accepted == 6, message="all requests accepted")
        service.close(drain=True)
        for thread in threads:
            thread.join(timeout=10)

        assert len(responses) == 6  # every in-flight request completed
        assert all(r["ok"] for r in responses)
        assert engine.total_tasks == 6
        assert engine.close_calls == 1

    def test_draining_service_rejects_new_requests_with_503(self):
        service = QueryService(GateEngine())
        service.close()
        with pytest.raises(ServiceDrainingError) as excinfo:
            service.query(_loss())
        assert excinfo.value.status == 503

    def test_close_is_idempotent(self):
        engine = GateEngine()
        service = QueryService(engine)
        service.close()
        service.close()
        assert engine.close_calls == 1

    def test_context_manager_closes(self):
        engine = GateEngine()
        with QueryService(engine) as service:
            service.query(_loss())
        assert engine.close_calls == 1


class TestInlineKinds:
    def test_horizon_answers_without_touching_the_backend(self):
        engine = GateEngine(threading.Event())  # would hang if dispatched
        service = QueryService(engine)
        try:
            response = service.query(parse_request(
                {"kind": "horizon", "hurst": 0.75, "buffer": 0.5}
            ))
        finally:
            engine.gate.set()
            service.close()
        assert response["ok"] is True
        assert response["result"]["eq26_horizon_s"] > 0
        assert response["result"]["norros_horizon_s"] > 0
        assert engine.total_tasks == 0

    def test_dimension_runs_on_the_aux_executor_and_caches(self):
        engine = GateEngine(threading.Event())
        service = QueryService(engine)
        request = parse_request(
            {"kind": "dimension", "hurst": 0.7, "cutoff": 2.0, "buffer": 0.3,
             "target_loss": 1e-2, "relative_gap": 0.5,
             "initial_bins": 32, "max_bins": 64}
        )
        try:
            first = service.query(request)
            second = service.query(request)
        finally:
            engine.gate.set()
            service.close()
        assert engine.total_tasks == 0  # the bisection bypasses the batcher
        bandwidth = first["result"]["effective_bandwidth"]
        assert 1.0 < bandwidth <= 2.0
        assert second["result"]["effective_bandwidth"] == bandwidth
        assert second["tier"] == "memory"  # replayed from the LRU, not re-bisected


class TestStats:
    def test_stats_shape_and_counts(self):
        engine = GateEngine()
        service = QueryService(engine, batch_size=2, batch_delay_s=0.005)
        try:
            service.query(_loss())
            service.query(_loss())  # second replays from the memory LRU
            stats = service.stats()
        finally:
            service.close()
        assert stats["accepted"] == 2
        assert stats["completed"] == 2
        assert stats["inflight"] == 0
        assert stats["cache"] is None
        assert stats["queue"]["items_dispatched"] == 1  # one solve, one LRU hit
        assert stats["memory_lru"]["hits"] == 1
        assert stats["memory_lru"]["misses"] == 1
        assert stats["memory_lru"]["entries"] == 1
        assert stats["memory_lru"]["evictions"] == 0
        assert stats["singleflight"] == {"inflight": 0, "leaders": 1, "hits": 0}
        assert stats["latency_s"]["total"]["count"] == 2
        assert stats["latency_s"]["queue"]["count"] == 1
        assert stats["latency_s"]["solve"]["p99_s"] >= 0.0
        assert stats["engine"]["cells"] == 0.0  # stub telemetry records nothing
        assert stats["batches"] == {
            "batched_tasks": 0,
            "fallback_solo": 0,
            "shapes": {},
        }

    def test_stats_surface_batch_counters_from_engine_telemetry(self):
        from repro.exec.telemetry import CellTelemetry

        engine = GateEngine()

        def cell(index: int, width: int, cached: bool = False) -> CellTelemetry:
            return CellTelemetry(
                index=index, key=f"k{index}", seconds=0.0, iterations=1,
                bins=64, converged=True, negligible=False, cached=cached,
                batch_width=width,
            )

        # Three cells stacked four wide, one solo, one cache hit: the hit
        # must not count toward either batching bucket.
        engine.telemetry.record(cell(0, width=4))
        engine.telemetry.record(cell(1, width=4))
        engine.telemetry.record(cell(2, width=4))
        engine.telemetry.record(cell(3, width=1))
        engine.telemetry.record(cell(4, width=8, cached=True))
        service = QueryService(engine)
        try:
            stats = service.stats()
        finally:
            service.close()
        assert stats["batches"]["batched_tasks"] == 3
        assert stats["batches"]["fallback_solo"] == 1
        assert stats["batches"]["shapes"] == {"4": 3}
        assert stats["engine"]["batched_tasks"] == 3.0
        assert stats["engine"]["fallback_solo"] == 1.0


class TestUnconvergedReplies:
    """A solve that runs out of bins stays flagged, with its bracket, in every tier."""

    # relative_gap 1e-9 cannot be met within 128 bins: the solver stops
    # unconverged after a few hundred iterations (~20 ms).
    REQUEST = {"kind": "loss", "hurst": 0.8, "buffer": 0.3, "relative_gap": 1e-9,
               "initial_bins": 64, "max_bins": 128}

    @staticmethod
    def _service(cache_dir) -> QueryService:
        engine = SweepEngine(backend=SerialBackend(), cache=SolveCache(cache_dir))
        return QueryService(engine, batch_size=2, batch_delay_s=0.005)

    def test_unconverged_flag_survives_memory_and_disk_tiers(self, tmp_path):
        request = parse_request(self.REQUEST)
        service = self._service(tmp_path)
        try:
            solved = service.query(request)
            replayed = service.query(request)
        finally:
            service.close()
        assert solved["tier"] == "engine" and replayed["tier"] == "memory"
        result = solved["result"]
        assert result["converged"] is False and result["negligible"] is False
        assert 0.0 < result["lower"] < result["upper"]
        assert replayed["result"] == result

        fresh = self._service(tmp_path)  # new memory tier, same disk cache
        try:
            from_disk = fresh.query(request)
            telemetry = fresh.core.engine.telemetry
        finally:
            fresh.close()
        assert from_disk["tier"] == "engine"
        assert telemetry.cache_hits == 1 and telemetry.cache_misses == 0
        assert from_disk["result"] == result
