"""The sweep execution engine: cache, backend and telemetry in one place.

The engine is the single chokepoint through which every solver-driven
grid in the repository runs — the plans the five ``plan_*`` builders
make, run by :func:`~repro.experiments.sweeps.run_plan`, the figure
registry, the CLI and the benchmarks.  Responsibilities:

1. consult the persistent :class:`~repro.exec.cache.SolveCache` (when
   configured) in one bulk ``get_many`` scan and only dispatch misses;
2. partition the misses into kernel-stackable batches
   (:func:`~repro.exec.planner.plan_batches` — cache hits never enter a
   batch, and every task keeps its own fingerprint and cache entry);
3. hand the batches to the configured backend (serial or process pool),
   whole batches per worker;
4. record per-cell :class:`~repro.exec.telemetry.CellTelemetry` and drive
   the optional progress callback;
5. write each completed batch back to the cache in one bulk ``put_many``
   append.

A default-constructed engine (serial backend, no cache) reproduces the
hand-rolled sweep loops bit for bit: every solve runs through the
solver's one block loop, whose results do not depend on batch width or
order, so batching a grid cannot change a cell.
"""

from __future__ import annotations

import numpy as np

from repro.core.results import LossRateResult
from repro.exec.backends import ProcessPoolBackend, SerialBackend
from repro.exec.cache import SolveCache
from repro.exec.planner import DEFAULT_MAX_BATCH, plan_batches
from repro.exec.task import SolveTask, SweepPlan
from repro.exec.telemetry import CellTelemetry, ProgressCallback, SweepTelemetry

__all__ = ["SweepEngine"]


class SweepEngine:
    """Executes :class:`~repro.exec.task.SweepPlan` grids and single tasks.

    Parameters
    ----------
    backend:
        A :class:`~repro.exec.backends.SerialBackend` (default) or
        :class:`~repro.exec.backends.ProcessPoolBackend`; the engine
        uses only their ``run_batches``, ``jobs`` and ``close``.
    cache:
        Optional :class:`~repro.exec.cache.SolveCache`; ``None`` disables
        persistent caching (library default — the CLI enables it).
    progress:
        Optional ``progress(done, total, cell)`` callback invoked after
        every completed cell.
    max_batch:
        Widest batch handed to the backend.  ``None`` (default) sizes
        adaptively: the planner ceiling
        (:data:`~repro.exec.planner.DEFAULT_MAX_BATCH`) for serial
        backends, shrunk to ``ceil(pending / jobs)`` for pools so every
        worker gets at least one whole batch.

    The engine's :attr:`telemetry` accumulates across runs, so a frontend
    can execute several plans and report one aggregate summary.  For the
    same reason the engine keeps its backend alive between runs — a
    process-pool backend stays warm across sweeps — and releases it in
    :meth:`close` (or on ``with engine:`` exit).
    """

    def __init__(
        self,
        backend: SerialBackend | ProcessPoolBackend | None = None,
        cache: SolveCache | None = None,
        progress: ProgressCallback | None = None,
        max_batch: int | None = None,
    ) -> None:
        self.backend = backend if backend is not None else SerialBackend()
        self.cache = cache
        self.progress = progress
        if max_batch is not None and max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.max_batch = max_batch
        self.telemetry = SweepTelemetry()
        self._closed = False

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #

    def run_tasks(self, tasks: list[SolveTask] | tuple[SolveTask, ...]) -> list[LossRateResult]:
        """Execute tasks (cache first, then backend), preserving task order.

        Raises :class:`RuntimeError` once the engine has been closed —
        the backend's pool is gone, so silently recreating it would hide
        a lifecycle bug in the caller.
        """
        if self._closed:
            raise RuntimeError(
                "SweepEngine is closed; create a new engine to run more tasks"
            )
        total = len(tasks)
        results: list[LossRateResult | None] = [None] * total
        done = 0

        pending: list[tuple[int, SolveTask]] = []
        keys: list[str] = [""] * total
        if self.cache is not None:
            keys = [task.cache_key() for task in tasks]
            hits = self.cache.get_many(keys)
        else:
            hits = [None] * total
        for index, task in enumerate(tasks):
            hit = hits[index]
            if hit is not None:
                results[index] = hit
                done += 1
                self._record(
                    CellTelemetry.from_result(index, keys[index], 0.0, hit, cached=True),
                    done,
                    total,
                )
            else:
                pending.append((index, task))

        batches = plan_batches(pending, max_batch=self._plan_width(len(pending)))
        for batch_result in self.backend.run_batches(batches):
            if self.cache is not None:
                self.cache.put_many(
                    (keys[index], result) for index, result, _ in batch_result
                )
            for index, result, seconds in batch_result:
                results[index] = result
                done += 1
                self._record(
                    CellTelemetry.from_result(
                        index, keys[index], seconds, result, cached=False
                    ),
                    done,
                    total,
                )

        return [r for r in results if r is not None]

    def _plan_width(self, pending_count: int) -> int:
        """Batch ceiling for this run: explicit, or adaptive to the pool."""
        if self.max_batch is not None:
            return self.max_batch
        jobs = int(getattr(self.backend, "jobs", 1) or 1)
        if jobs > 1 and pending_count:
            # Shrink batches until every worker can hold a whole one.
            return max(1, min(DEFAULT_MAX_BATCH, -(-pending_count // jobs)))
        return DEFAULT_MAX_BATCH

    def solve(self, task: SolveTask) -> LossRateResult:
        """Run one task through the cache/backend/telemetry path."""
        return self.run_tasks([task])[0]

    def run_grid(self, plan: SweepPlan) -> np.ndarray:
        """Execute a plan and return the loss estimates as a (rows, cols) grid."""
        results = self.run_tasks(plan.tasks)
        return plan.reshape([r.estimate for r in results])

    # ------------------------------------------------------------------ #
    # bookkeeping
    # ------------------------------------------------------------------ #

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run; a closed engine rejects new work."""
        return self._closed

    def close(self) -> None:
        """Release backend resources (shuts a warm process pool down).

        Idempotent: calling it again is a no-op.  After closing, the
        engine permanently rejects :meth:`run_tasks`/:meth:`solve`/
        :meth:`run_grid`.
        """
        if self._closed:
            return
        self._closed = True
        close = getattr(self.backend, "close", None)
        if callable(close):
            close()

    def __enter__(self) -> "SweepEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _record(self, cell: CellTelemetry, done: int, total: int) -> None:
        self.telemetry.record(cell)
        if self.progress is not None:
            self.progress(done, total, cell)
