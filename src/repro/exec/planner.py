"""Partition pending solve tasks into kernel-stackable batches.

The batched spectral kernel (``SOLVER_VERSION = 3``) advances tasks in
lockstep only when they share a solve schedule — same starting bin count,
same FFT policy, same convergence knobs — i.e. when their
:meth:`~repro.exec.task.SolveTask.group_key` hashes agree.  The planner
buckets the cache-miss cells of a plan by that hash, preserving first-seen
bucket order and task order within a bucket, and splits oversized buckets
at ``max_batch`` so one straggler batch cannot monopolize a worker.

Tasks that end up alone in their bucket are still emitted, as batches of
one; the backend solves those through the same stacked driver at width
one (the ``fallback_solo`` telemetry counter counts cells that never
shared a kernel stack).  Cache hits never reach the planner: the engine
resolves them before planning, so each task keeps its own fingerprint
and cache entry regardless of how it was batched.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.exec.task import SolveTask

__all__ = ["DEFAULT_MAX_BATCH", "plan_batches"]

DEFAULT_MAX_BATCH = 64
"""Widest batch the planner emits.

Bounds the stacked state to a few hundred MB at the deepest refinement
level and keeps per-batch latency in check; the kernel further
sub-chunks each FFT call to its own cache-friendly width
(``repro.core.solver.FFT_STACK_BUDGET_BINS``), so planner width is about
scheduling, not FFT efficiency.
"""


def plan_batches(
    pending: Sequence[tuple[int, SolveTask]],
    max_batch: int = DEFAULT_MAX_BATCH,
) -> list[list[tuple[int, SolveTask]]]:
    """Group ``(index, task)`` cells into group-compatible batches.

    Returns batches in first-seen group order, each at most ``max_batch``
    cells, preserving the input order of cells within a group.  Flattening
    the result yields a permutation of ``pending``, so the engine can
    always reassemble plan order from the carried indexes.
    """
    if max_batch < 1:
        raise ValueError(f"max_batch must be >= 1, got {max_batch}")
    buckets: dict[str, list[tuple[int, SolveTask]]] = {}
    for index, task in pending:
        buckets.setdefault(task.batch_key(), []).append((index, task))
    batches: list[list[tuple[int, SolveTask]]] = []
    for bucket in buckets.values():
        for start in range(0, len(bucket), max_batch):
            batches.append(bucket[start : start + max_batch])
    return batches
