"""The event layer: a binary-heap loop with deterministic tie-breaking.

Every state change in the simulator is an event popped off an
:class:`EventLoop`.  An event is a plain tuple ``(time, kind, seq,
fields)``, and its first three entries are the heap key:

* ``time`` — simulation seconds;
* ``kind`` — the event kind's rank (:data:`RATE_CHANGE` before
  :data:`BOUNDARY` before :data:`CONTROL`), so that simultaneous events
  are applied in a fixed, meaningful order — a source changing its rate
  at the exact instant a buffer fills is applied first, and the boundary
  event (now possibly stale) is re-derived from the new drift;
* ``seq`` — a monotonically increasing schedule counter, which makes the
  order *total*.  Two runs that schedule the same events in the same
  order pop them in the same order, bit for bit; nothing about the heap
  order depends on object identity, hash randomization or dict layout.
  Because ``seq`` is unique, the heap never compares ``fields``.

``fields`` is the tuple of extra arguments given to
:meth:`EventLoop.schedule`; the loop never looks inside it.  The
simulator schedules, per kind:

* :data:`RATE_CHANGE` — ``(flow, rate)``;
* :data:`BOUNDARY` — ``(node, subqueue, epoch, target, tag)``;
* :data:`CONTROL` — ``(tag,)``.

Boundary events cannot be deleted from a binary heap cheaply, so they
are invalidated by *epoch*: each buffer stamps the events it schedules
with its current epoch counter and bumps the counter whenever its drift
changes; a popped event whose stamp is stale is counted and dropped.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

__all__ = [
    "BOUNDARY",
    "CONTROL",
    "EventLoop",
    "RATE_CHANGE",
]

RATE_CHANGE = 0
"""A flow's source switches to a new piecewise-constant rate."""

BOUNDARY = 1
"""A fluid buffer's occupancy reaches empty (0) or full (B)."""

CONTROL = 2
"""Harness events: the warmup stats reset and the end of the horizon."""


@dataclass
class EventLoop:
    """Deterministic future-event list (binary heap of plain tuples).

    The loop never inspects event fields: it orders, counts and hands
    them back.  ``processed`` counts popped events the simulator acted
    on; ``stale`` counts popped boundary events whose epoch had lapsed.
    """

    _heap: list[tuple[float, int, int, tuple]] = field(default_factory=list)
    _seq: int = 0
    processed: int = 0
    stale: int = 0

    def schedule(self, time: float, kind: int, *fields: object) -> None:
        """Add an event; ties broken by kind priority, then schedule order."""
        heapq.heappush(self._heap, (time, kind, self._seq, fields))
        self._seq += 1

    def pop(self) -> tuple[float, int, int, tuple]:
        """Remove and return the next ``(time, kind, seq, fields)``."""
        return heapq.heappop(self._heap)

    def peek_time(self) -> float:
        """Time of the next event (heap must be non-empty)."""
        return self._heap[0][0]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
