"""Size-or-deadline micro-batching of queued work items, on the event loop.

A single collector task sleeps until work arrives, then forms a batch: it
dispatches as soon as ``batch_size`` items are queued, or when
``batch_delay_s`` has elapsed since the *first* item of the forming batch
arrived — whichever comes first.  The collected window is handed to the
async dispatch callback *as one unit*: the serving layer offloads it to
the engine's batch planner on an executor thread, so shape-compatible
queries advance through one stacked spectral kernel call instead of N
independent solves, and a warm process pool receives whole batches.  The
deadline bounds how long a lone request can be held back (one
``batch_delay_s``, a few tens of milliseconds).

Admission control lives at the mouth of the queue: :meth:`submit` raises
:class:`QueueFullError` when ``max_queue`` items are already waiting —
the caller sheds the request (HTTP 429) without it ever touching the
backend — and :class:`BatcherClosedError` once the batcher is closing.
:meth:`close` with ``drain=True`` (the default) lets the collector finish
every queued item before its task exits, which is the graceful-shutdown
path.

Unlike the thread-based predecessor there is no lock: ``submit`` and the
collector both run on the serving event loop, so the deque and the
counters are mutated from one thread only.  The dispatch callback is
awaited between windows — at most one batch is in the engine at a time,
preserving the engine's single-caller discipline.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from collections.abc import Awaitable, Callable, Sequence

__all__ = ["BatcherClosedError", "MicroBatcher", "QueueFullError"]


class QueueFullError(RuntimeError):
    """The bounded request queue is full; the request was shed."""


class BatcherClosedError(RuntimeError):
    """The batcher is closed (or draining) and accepts no new work."""


class MicroBatcher:
    """Bounded queue drained in batches by an event-loop collector task.

    Parameters
    ----------
    dispatch:
        ``await dispatch(batch)`` called with 1..``batch_size`` items in
        arrival order.  It runs on the collector task and should not
        raise — the service wraps its dispatch in error handling that
        fails the affected futures; as a last resort an escaped exception
        is recorded in :attr:`dispatch_errors` and the loop continues.
    batch_size:
        Maximum items per dispatched batch (the size trigger).
    batch_delay_s:
        Maximum seconds a forming batch waits for company after its first
        item arrives (the deadline trigger).
    max_queue:
        Bound on *waiting* items; ``submit`` beyond it sheds.

    :meth:`start` must be awaited on the serving loop before the first
    :meth:`submit`; :class:`~repro.serve.service.QueryService` does this
    when it boots its reactor.
    """

    def __init__(
        self,
        dispatch: Callable[[Sequence[object]], Awaitable[None]],
        batch_size: int = 16,
        batch_delay_s: float = 0.02,
        max_queue: int = 256,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if batch_delay_s < 0:
            raise ValueError(f"batch_delay_s must be >= 0, got {batch_delay_s}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self._dispatch = dispatch
        self.batch_size = batch_size
        self.batch_delay_s = batch_delay_s
        self.max_queue = max_queue

        self._items: deque[tuple[float, object]] = deque()  # (arrival, item)
        self._wakeup = asyncio.Event()
        self._closed = False
        self._task: asyncio.Task | None = None
        self.shed = 0
        self.batches = 0
        self.items_dispatched = 0
        self.max_batch = 0
        self.dispatch_errors = 0

    async def start(self) -> None:
        """Spawn the collector task on the running loop (idempotent)."""
        if self._task is None and not self._closed:
            self._task = asyncio.get_running_loop().create_task(
                self._run(), name="repro-serve-batcher"
            )

    # ------------------------------------------------------------------ #
    # producer side (loop-confined)
    # ------------------------------------------------------------------ #

    def submit(self, item: object) -> None:
        """Enqueue one item, or shed it when the queue is at capacity."""
        if self._closed:
            raise BatcherClosedError("batcher is closed")
        if len(self._items) >= self.max_queue:
            self.shed += 1
            raise QueueFullError(f"queue is full ({self.max_queue} waiting items)")
        self._items.append((time.monotonic(), item))
        self._wakeup.set()

    @property
    def depth(self) -> int:
        """Items currently waiting (excludes the batch being dispatched)."""
        return len(self._items)

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------ #
    # collector side
    # ------------------------------------------------------------------ #

    async def _collect(self) -> list[object] | None:
        """Wait until a batch is ready; ``None`` means closed and drained."""
        while not self._items:
            if self._closed:
                return None
            self._wakeup.clear()
            await self._wakeup.wait()
        # Hold the batch open until it fills or its oldest item has waited
        # batch_delay_s — counted from that item's arrival, so items that
        # queued during the previous dispatch are not held a second window.
        # Closing sets the wakeup event, cutting the wait short so drain
        # finishes promptly.
        while len(self._items) < self.batch_size and not self._closed:
            remaining = self._items[0][0] + self.batch_delay_s - time.monotonic()
            if remaining <= 0:
                break
            self._wakeup.clear()
            try:
                await asyncio.wait_for(self._wakeup.wait(), remaining)
            except asyncio.TimeoutError:
                break
        if not self._items:  # closed without drain while the window was open
            return None
        take = min(self.batch_size, len(self._items))
        return [self._items.popleft()[1] for _ in range(take)]

    async def _run(self) -> None:
        while True:
            batch = await self._collect()
            if batch is None:
                return
            self.batches += 1
            self.items_dispatched += len(batch)
            self.max_batch = max(self.max_batch, len(batch))
            try:
                await self._dispatch(batch)
            except Exception:
                self.dispatch_errors += 1

    # ------------------------------------------------------------------ #
    # shutdown
    # ------------------------------------------------------------------ #

    async def close(self, drain: bool = True) -> None:
        """Stop accepting work and retire the collector task (idempotent).

        With ``drain=True`` every already-queued item is still dispatched
        before the task exits; with ``drain=False`` waiting items are
        discarded (the service fails their futures first).
        """
        if not self._closed:
            self._closed = True
            if not drain:
                self._items.clear()
        self._wakeup.set()
        if self._task is not None:
            await self._task
            self._task = None

    def snapshot(self) -> dict:
        """JSON-able counters for ``/stats``."""
        return {
            "depth": len(self._items),
            "max_queue": self.max_queue,
            "shed": self.shed,
            "batches": self.batches,
            "items_dispatched": self.items_dispatched,
            "mean_batch": (self.items_dispatched / self.batches) if self.batches else 0.0,
            "max_batch": self.max_batch,
            "dispatch_errors": self.dispatch_errors,
            "batch_size": self.batch_size,
            "batch_delay_s": self.batch_delay_s,
        }
