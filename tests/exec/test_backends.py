"""Tests for the serial and process-pool execution backends.

Both speak one contract, :meth:`run_batches`: each batch of
``(index, task)`` pairs comes back as one ``[(index, result, seconds)]``
list.  The fixture's batches of one keep the pool fanning out.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core.solver import SolverConfig
from repro.exec.backends import ProcessPoolBackend, SerialBackend, resolve_backend
from repro.exec.task import SolveTask

FAST = SolverConfig(initial_bins=32, max_bins=128, relative_gap=0.5, max_iterations=2_000)


@pytest.fixture
def indexed_tasks(small_source):
    buffers = (0.1, 0.3, 0.6)
    return [
        (i, SolveTask(small_source, 0.85, b, FAST)) for i, b in enumerate(buffers)
    ]


def _triples(backend, indexed_tasks):
    """Flatten ``run_batches`` over one-task batches into result triples."""
    batches = [[pair] for pair in indexed_tasks]
    return [triple for batch in backend.run_batches(batches) for triple in batch]


class TestSerialBackend:
    def test_runs_in_task_order(self, indexed_tasks):
        triples = _triples(SerialBackend(), indexed_tasks)
        assert [index for index, _, _ in triples] == [0, 1, 2]
        assert all(seconds >= 0.0 for _, _, seconds in triples)

    def test_matches_direct_solves(self, indexed_tasks):
        triples = _triples(SerialBackend(), indexed_tasks)
        for (index, result, _), (_, task) in zip(triples, indexed_tasks):
            direct = task.run()
            assert result.lower == direct.lower
            assert result.upper == direct.upper


class TestProcessPoolBackend:
    def test_single_job_falls_back_to_serial(self, indexed_tasks):
        triples = _triples(ProcessPoolBackend(jobs=1), indexed_tasks)
        assert [index for index, _, _ in triples] == [0, 1, 2]

    def test_pool_results_match_serial_bitwise(self, indexed_tasks):
        serial = {i: r for i, r, _ in _triples(SerialBackend(), indexed_tasks)}
        with ProcessPoolBackend(jobs=2) as backend:
            pooled = {i: r for i, r, _ in _triples(backend, indexed_tasks)}
        assert set(pooled) == set(serial)
        for index, result in pooled.items():
            assert result.lower == serial[index].lower
            assert result.upper == serial[index].upper
            assert result.iterations == serial[index].iterations

    def test_empty_task_list(self):
        assert list(ProcessPoolBackend(jobs=2).run_batches([])) == []

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="jobs"):
            ProcessPoolBackend(jobs=-2)


class TestWarmPool:
    """The executor is created once and survives across run_batches() calls."""

    def test_pool_persists_across_runs(self, indexed_tasks):
        with ProcessPoolBackend(jobs=2) as backend:
            assert backend._pool is None  # lazy: nothing until first run
            _triples(backend, indexed_tasks)
            pool = backend._pool
            assert pool is not None
            _triples(backend, indexed_tasks)
            assert backend._pool is pool  # same warm executor, no restart
        assert backend._pool is None  # context exit shuts it down

    def test_close_is_idempotent(self):
        backend = ProcessPoolBackend(jobs=2)
        backend.close()  # never warmed — still fine
        backend._executor()
        backend.close()
        backend.close()
        assert backend._pool is None

    def test_run_after_close_recreates_the_pool(self, indexed_tasks):
        backend = ProcessPoolBackend(jobs=2)
        first = {i: r.lower for i, r, _ in _triples(backend, indexed_tasks)}
        backend.close()
        second = {i: r.lower for i, r, _ in _triples(backend, indexed_tasks)}
        backend.close()
        assert first == second

    def test_serial_fallback_does_not_warm_the_pool(self, indexed_tasks):
        backend = ProcessPoolBackend(jobs=1)
        _triples(backend, indexed_tasks)
        assert backend._pool is None

    def test_prefers_fork_where_available(self):
        backend = ProcessPoolBackend(jobs=2)
        if "fork" in multiprocessing.get_all_start_methods():
            assert backend.start_method == "fork"
        else:  # pragma: no cover - non-fork platforms
            assert backend.start_method is None

    def test_explicit_start_method_wins(self):
        assert ProcessPoolBackend(jobs=2, start_method="spawn").start_method == "spawn"


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs POSIX signals")
class TestBrokenPool:
    """A dead worker costs one round; the next round runs on a fresh pool."""

    def test_round_after_a_killed_worker_fails_once(self, indexed_tasks):
        serial = {i: r for i, r, _ in _triples(SerialBackend(), indexed_tasks)}
        with ProcessPoolBackend(jobs=2) as backend:
            _triples(backend, indexed_tasks)
            broken = backend._pool
            os.kill(broken.submit(os.getpid).result(), signal.SIGKILL)
            # Let the pool see the death, so the next round meets a pool
            # already marked broken rather than racing the detection.
            deadline = time.monotonic() + 30.0
            while not broken._broken:
                assert time.monotonic() < deadline, "pool never saw the dead worker"
                time.sleep(0.01)
            with pytest.raises(BrokenProcessPool):
                _triples(backend, indexed_tasks)
            assert backend._pool is None
            pooled = {i: r for i, r, _ in _triples(backend, indexed_tasks)}
            assert backend._pool is not None and backend._pool is not broken
        assert set(pooled) == set(serial)
        for index, result in pooled.items():
            assert result.lower == serial[index].lower
            assert result.upper == serial[index].upper
            assert result.iterations == serial[index].iterations


class TestResolveBackend:
    def test_serial_for_none_and_one(self):
        assert isinstance(resolve_backend(None), SerialBackend)
        assert isinstance(resolve_backend(0), SerialBackend)
        assert isinstance(resolve_backend(1), SerialBackend)

    def test_pool_for_many(self):
        backend = resolve_backend(3)
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.jobs == 3
