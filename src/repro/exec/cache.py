"""Persistent on-disk cache of solver results.

Solve results are immutable functions of their task parameters, so the
cache is content-addressed: the key is the SHA-256 fingerprint of the
task payload (see :mod:`repro.core.fingerprint`), and the value is the
full :class:`~repro.core.results.LossRateResult`.  Storage is a JSON-lines
file (one record per line, append-only) under a configurable directory —
human-inspectable, concatenation-safe, and trivially merged across
machines.

Opening is an index, not a parse: the first access reads the file once
and maps each key to the line holding its last record, reading only the
key at the head of the line.  A record is decoded and validated when a
lookup first hits its key, then memoised, so a warm rerun of one figure
decodes that figure's cells and nothing else, however many entries the
file holds.  Lookups decode from the lines read at open, never from the
path again, so a file swapped underneath (another process's
:meth:`SolveCache.compact`) cannot hand a reader the wrong record.

Invalidation is by key construction, not by mutation: any change to a
task parameter or to the payload encoding (``PAYLOAD_VERSION``) yields a
different key, so stale entries are never *read* — they just age in the
file.  :meth:`SolveCache.compact` rewrites the file keeping the last
valid record per key when that aging matters.  Deleting the cache
directory is always safe.

Concurrency: multiple processes (server workers, parallel CLI runs) may
share one cache file.  Appends are serialized through an advisory
``fcntl`` lock on a sidecar ``.lock`` file (a no-op on platforms without
``fcntl``), each batch of records is written in a single ``write`` call
terminated by a newline, and reading tolerates truncated, corrupt and
blank lines — a reader racing a writer sees at worst one unparseable
record, which is skipped, never an exception.  Within a process, one
lock serializes the threads sharing an instance, including the one-time
open.
"""

from __future__ import annotations

import json
import os
import threading
from collections.abc import Iterable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

try:  # POSIX advisory locking; gracefully absent elsewhere
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from repro.core.results import LossRateResult

__all__ = ["SolveCache", "default_cache_dir"]

_CACHE_FILENAME = "solve_cache.jsonl"
_LOCK_FILENAME = "solve_cache.lock"
_KEY_PREFIX = b'{"key": "'
"""How every line :meth:`SolveCache.put_many` writes begins (``json.dumps``)."""


def default_cache_dir() -> str:
    """The cache location used when none is given.

    ``REPRO_LRD_CACHE_DIR`` overrides; otherwise
    ``$XDG_CACHE_HOME/repro-lrd`` (defaulting to ``~/.cache/repro-lrd``).
    """
    override = os.environ.get("REPRO_LRD_CACHE_DIR")
    if override:
        return override
    xdg = os.environ.get("XDG_CACHE_HOME") or os.path.join("~", ".cache")
    return os.path.join(os.path.expanduser(xdg), "repro-lrd")


@dataclass
class _FileIndex:
    """What one read of the JSONL file found, plus this instance's appends.

    ``entries`` maps each key to the number of the line in ``lines``
    holding its last record (not yet decoded) or to its decoded result.
    """

    lines: list[bytes] = field(default_factory=list)
    entries: dict[str, int | LossRateResult] = field(default_factory=dict)
    line_count: int = 0  # non-blank lines
    corrupt: int = 0  # non-blank lines holding no valid record
    size: int = 0  # bytes


class SolveCache:
    """JSON-lines store mapping task fingerprints to solver results.

    The first access reads the file once and indexes each key's last
    record by its key alone; a record is decoded only when a lookup first
    hits it, then kept in memory.  Writes append both in memory and on
    disk.  So a warm rerun of any sweep costs one file read plus the
    decoding of its own cells, not of every entry the file holds.  The
    store is unbounded and append-only; :meth:`compact` reclaims stale
    lines.

    An instance may be shared between threads: every method runs under
    one lock, so the file is read at most once per instance.
    """

    def __init__(self, directory: str | os.PathLike[str] | None = None) -> None:
        self.directory = Path(directory) if directory is not None else Path(default_cache_dir())
        if self.directory.exists() and not self.directory.is_dir():
            raise ValueError(f"cache directory {self.directory} is not a directory")
        self.path = self.directory / _CACHE_FILENAME
        self.hits = 0
        self.misses = 0
        self._lock = threading.RLock()
        self._index: _FileIndex | None = None

    # ------------------------------------------------------------------ #
    # storage
    # ------------------------------------------------------------------ #

    @contextmanager
    def _file_lock(self) -> Iterator[None]:
        """Advisory cross-process lock serializing writers (no-op sans fcntl)."""
        self.directory.mkdir(parents=True, exist_ok=True)
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            yield
            return
        with (self.directory / _LOCK_FILENAME).open("a") as lock_handle:
            fcntl.flock(lock_handle.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(lock_handle.fileno(), fcntl.LOCK_UN)

    def _read_bytes(self) -> bytes:
        try:
            with self.path.open("rb") as handle:
                return handle.read()
        except FileNotFoundError:
            return b""

    def _read_records(self) -> _FileIndex:
        """Read the file once and index each key's last record.

        A line in the layout :meth:`put_many` writes is indexed from the
        key at its head without being parsed.  Any other non-blank line
        (a truncated or garbage line, or a record written another way) is
        parsed here in full and counted as corrupt when it holds no valid
        record.
        """
        data = self._read_bytes()
        lines = data.split(b"\n")
        # JSON escapes and non-ASCII bytes can only come from a key, which
        # then needs the full parse; a file holding neither needs no
        # per-line check.
        plain = data.isascii() and b"\\" not in data
        entries: dict[str, int | LossRateResult] = {}
        blank = corrupt = 0
        start = len(_KEY_PREFIX)
        for number, line in enumerate(lines):
            if line.startswith(_KEY_PREFIX) and line.endswith(b"}"):
                end = line.find(b'", "', start)
                if end > 0 and (plain or (line.isascii() and b"\\" not in line)):
                    entries[line[start:end].decode()] = number
                    continue
            if not line.strip():
                blank += 1
                continue
            decoded = _decode_line(line)
            if decoded is None:
                corrupt += 1
            else:
                entries[decoded[0]] = decoded[1]
        return _FileIndex(
            lines=lines,
            entries=entries,
            line_count=len(lines) - blank,
            corrupt=corrupt,
            size=len(data),
        )

    def _load(self) -> _FileIndex:
        with self._lock:
            if self._index is None:
                self._index = self._read_records()
            return self._index

    def _resolve(self, key: str) -> LossRateResult | None:
        """The last valid result stored under ``key``, decoded on first use."""
        with self._lock:
            index = self._load()
            entry = index.entries.get(key)
            if not isinstance(entry, int):
                return entry
            decoded = _decode_line(index.lines[entry])
            if decoded is not None and decoded[0] == key:
                index.entries[key] = decoded[1]
                return decoded[1]
            # The line looked like a record but is not one: fall back to
            # parsing every line read at open, as the index cannot say
            # which earlier line holds this key's last valid record.
            records, index.corrupt = _parse_lines(index.lines)
            for stale in [k for k, v in index.entries.items() if isinstance(v, int)]:
                del index.entries[stale]
            for record_key, result in records.items():
                index.entries.setdefault(record_key, result)
            return records.get(key)

    def __len__(self) -> int:
        with self._lock:
            return len(self._load().entries)

    def __contains__(self, key: str) -> bool:
        return self._resolve(key) is not None

    def get(self, key: str) -> LossRateResult | None:
        """Look up a result, counting the hit or miss."""
        return self.get_many([key])[0]

    def get_many(self, keys: Sequence[str]) -> list[LossRateResult | None]:
        """Bulk :meth:`get`: one result-or-None per key, in key order.

        One lock round trip with the same hit/miss accounting as per-key
        lookups; the batched engine uses this so a plan's cache scan is
        one call instead of one per cell.
        """
        with self._lock:
            results = [self._resolve(key) for key in keys]
            found = sum(1 for result in results if result is not None)
            self.hits += found
            self.misses += len(results) - found
        return results

    def put(self, key: str, result: LossRateResult) -> None:
        """Store a result in memory and append it to the JSONL file.

        The append runs under the advisory file lock so concurrent
        writers (server workers sharing one cache directory) interleave
        whole records, never bytes.  If the file's last byte is not a
        newline — a writer died mid-record — a newline is inserted first
        so the earlier damage stays confined to its own line.
        """
        self.put_many([(key, result)])

    def put_many(self, items: Iterable[tuple[str, LossRateResult]]) -> int:
        """Bulk :meth:`put`: one lock acquisition and one append per batch.

        Already-present keys are skipped (first write wins, as for
        :meth:`put`); the fresh records are serialized into a single
        ``write`` call under one advisory-lock round trip, so a batch of
        N results costs one file append instead of N lock/open/fsync
        cycles.  Memory is updated once the append succeeds.  Returns the
        number of records actually written.
        """
        with self._lock:
            fresh: dict[str, LossRateResult] = {}
            for key, result in items:
                if key not in fresh and self._resolve(key) is None:
                    fresh[key] = result
            if not fresh:
                return 0
            written = self._append(_serialize(fresh))
            index = self._load()
            index.entries.update(fresh)
            index.line_count += len(fresh)
            index.size += written
            return len(fresh)

    def _append(self, payload: bytes) -> int:
        """Append ``payload`` on a fresh line in one write; returns bytes written."""
        with self._file_lock():
            handle = os.open(self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
            try:
                if os.fstat(handle).st_size > 0:
                    os.lseek(handle, -1, os.SEEK_END)
                    if os.read(handle, 1) != b"\n":
                        payload = b"\n" + payload
                view = memoryview(payload)
                while view:
                    view = view[os.write(handle, view):]
            finally:
                os.close(handle)
        return len(payload)

    def clear(self) -> None:
        """Drop every entry (memory and disk)."""
        with self._lock, self._file_lock():
            self._index = _FileIndex()
            self.path.unlink(missing_ok=True)

    # ------------------------------------------------------------------ #
    # maintenance
    # ------------------------------------------------------------------ #

    def compact(self) -> tuple[int, int]:
        """Rewrite the JSONL keeping the last valid record per key.

        Returns ``(lines_before, lines_after)`` counting non-blank lines.
        The rewrite happens under the file lock via an atomic rename, so
        concurrent readers see either the old file or the new one, never
        a partial file; the in-memory store is refreshed from the
        compacted contents.
        """
        with self._lock, self._file_lock():
            lines = self._read_bytes().split(b"\n")
            lines_before = sum(1 for line in lines if line.strip())
            records, _ = _parse_lines(lines)
            if not records:
                self._index = _FileIndex()
                self.path.unlink(missing_ok=True)
                return lines_before, 0
            payload = _serialize(records)
            tmp_path = self.path.with_suffix(".jsonl.tmp")
            tmp_path.write_bytes(payload)
            os.replace(tmp_path, self.path)
            self._index = _FileIndex(
                entries=dict(records), line_count=len(records), size=len(payload)
            )
        return lines_before, len(records)

    def file_stats(self) -> dict:
        """Snapshot for ``repro-lrd cache --stats`` and the serve layer.

        Counts describe the file as this instance read it at open plus
        its own appends.  ``stale_lines`` are older records of a key that
        a later line supersedes and ``corrupt_lines`` lines that hold no
        valid record; :meth:`compact` drops both.
        """
        with self._lock:
            index = self._load()
            entries = len(index.entries)
            return {
                "path": str(self.path),
                "entries": entries,
                "file_lines": index.line_count,
                "file_bytes": index.size,
                "stale_lines": max(0, index.line_count - index.corrupt - entries),
                "corrupt_lines": index.corrupt,
            }


def _decode_line(line: bytes) -> tuple[str, LossRateResult] | None:
    """Key and result of one JSONL line; ``None`` when it holds no valid record."""
    try:
        record = json.loads(line)
        return record["key"], _result_from_record(record)
    except (KeyError, TypeError, ValueError):  # JSON and UTF-8 errors are ValueErrors
        return None


def _parse_lines(lines: Iterable[bytes]) -> tuple[dict[str, LossRateResult], int]:
    """Every line decoded: last valid record per key, and the corrupt-line count."""
    records: dict[str, LossRateResult] = {}
    corrupt = 0
    for line in lines:
        if not line.strip():
            continue
        decoded = _decode_line(line)
        if decoded is None:
            corrupt += 1
        else:
            records[decoded[0]] = decoded[1]
    return records, corrupt


def _serialize(records: dict[str, LossRateResult]) -> bytes:
    """JSON lines in the layout :meth:`SolveCache._read_records` indexes."""
    return "".join(
        json.dumps(_record_from_result(key, result)) + "\n"
        for key, result in records.items()
    ).encode("utf-8")


def _record_from_result(key: str, result: LossRateResult) -> dict:
    return {
        "key": key,
        "lower": result.lower,
        "upper": result.upper,
        "iterations": result.iterations,
        "bins": result.bins,
        "converged": result.converged,
        "negligible": result.negligible,
    }


def _result_from_record(record: dict) -> LossRateResult:
    return LossRateResult(
        lower=float(record["lower"]),
        upper=float(record["upper"]),
        iterations=int(record["iterations"]),
        bins=int(record["bins"]),
        converged=bool(record["converged"]),
        negligible=bool(record["negligible"]),
    )
