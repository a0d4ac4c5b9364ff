"""In-memory LRU result tier above the on-disk :class:`~repro.exec.cache.SolveCache`.

The serving layer answers three classes of repeat traffic, fastest first:

1. **memory** — this LRU: completed results held in process memory,
   returned without touching the executor, the disk cache or the solver.
2. **disk** — the persistent :class:`~repro.exec.cache.SolveCache`
   consulted by the engine; replays any previously solved fingerprint
   across process restarts at the cost of one executor round-trip.
3. **solve** — the batched spectral kernel.

The LRU is bounded two ways: ``max_entries`` caps the entry count and
``max_bytes`` (optional) caps the approximate payload footprint; the
least-recently-*used* entry is evicted first.

The store is event-loop-confined: every mutation happens on the serving
loop, so no lock is taken.  ``snapshot()`` only reads counters and the
entry count, which is safe from the sync ``/stats`` path on any thread.
"""

from __future__ import annotations

import json
from collections import OrderedDict

from repro.core.results import LossRateResult

__all__ = ["MemoryLRU", "DEFAULT_LRU_ENTRIES"]

DEFAULT_LRU_ENTRIES = 4096
"""Entry bound of the memory tier unless the service is given another."""

_FALLBACK_ENTRY_BYTES = 256
"""Approximate footprint charged to values that resist JSON sizing."""


def _approx_bytes(key: str, value: object) -> int:
    """Rough per-entry footprint: key plus the JSON-able payload size."""
    if isinstance(value, LossRateResult):
        body = 8 * 6 + len(str(value.iterations)) + len(str(value.bins))
    else:
        try:
            body = len(json.dumps(value))
        except (TypeError, ValueError):
            body = _FALLBACK_ENTRY_BYTES
    return len(key) + body


class MemoryLRU:
    """Bounded least-recently-used map from fingerprint keys to results.

    Parameters
    ----------
    max_entries:
        Hard cap on stored entries (>= 1).
    max_bytes:
        Optional cap on the summed approximate entry footprint; ``None``
        disables byte-based eviction.
    """

    def __init__(self, max_entries: int = DEFAULT_LRU_ENTRIES,
                 max_bytes: int | None = None) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1 or None, got {max_bytes}")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._entries: OrderedDict[str, tuple[object, int]] = OrderedDict()
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str) -> object | None:
        """Look up a result, refreshing its recency and counting hit/miss."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry[0]

    def put(self, key: str, value: object) -> None:
        """Insert (or refresh) an entry, evicting LRU entries past the bounds."""
        size = _approx_bytes(key, value)
        old = self._entries.pop(key, None)
        if old is not None:
            self._bytes -= old[1]
        self._entries[key] = (value, size)
        self._bytes += size
        while len(self._entries) > self.max_entries or (
            self.max_bytes is not None
            and self._bytes > self.max_bytes
            and len(self._entries) > 1
        ):
            _, (_, evicted_size) = self._entries.popitem(last=False)
            self._bytes -= evicted_size
            self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        self._entries.clear()
        self._bytes = 0

    def snapshot(self) -> dict:
        """JSON-able counters for ``/stats``."""
        return {
            "entries": len(self._entries),
            "bytes": self._bytes,
            "max_entries": self.max_entries,
            "max_bytes": self.max_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }
