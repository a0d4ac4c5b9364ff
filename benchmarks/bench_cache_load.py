"""Performance — opening the solve cache: key index vs full parse.

A warm figure rerun opens the solve cache and looks up its own cells.
``SolveCache`` indexes the file by key on open and decodes a record only
when a lookup hits it; the reference below is the full parse it
replaced, which decodes and validates every line before the first
lookup.  Each row times one open plus ``LOOKUPS`` hits at a cache size:
5k entries, 20k (the background cache of the repository benchmark's
``sweep`` workload) and 43k (what a 5000-case fuzz leaves behind).  Both
sides are timed alternately and the median of ``REPEATS`` runs is
reported, so host-speed drift hits both alike.

``test_perf_cache_load_smoke`` is the CI gate: at 20k entries the index
must be at least ``CACHE_SMOKE_MIN_SPEEDUP`` times faster than the
reference.  The ratio does not depend on runner speed (measured 5-8x on
a 2-vCPU x86-64 host).
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
import time
from pathlib import Path

import numpy as np

from _common import persist, run_once
from repro.core.results import LossRateResult
from repro.exec import SolveCache
from repro.experiments.reporting import format_series

SIZES = (5_000, 20_000, 43_000)
SMOKE_SIZE = 20_000
LOOKUPS = 100
REPEATS = 5
# CI gate on the index's speedup over the reference full parse at 20k
# entries (measured 5-8x; 3x leaves room for noisy runners).
CACHE_SMOKE_MIN_SPEEDUP = 3.0


def _reference_load(path: Path) -> dict[str, LossRateResult]:
    """The full parse: every line decoded and validated, last record per key wins."""
    store: dict[str, LossRateResult] = {}
    if not path.exists():
        return store
    with path.open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                store[record["key"]] = LossRateResult(
                    lower=float(record["lower"]),
                    upper=float(record["upper"]),
                    iterations=int(record["iterations"]),
                    bins=int(record["bins"]),
                    converged=bool(record["converged"]),
                    negligible=bool(record["negligible"]),
                )
            except (KeyError, TypeError, ValueError):
                continue
    return store


def _populate(directory: Path, entries: int) -> list[str]:
    """Write ``entries`` records with solver-like floats; returns the lookup keys."""
    rng = random.Random(entries)
    results = []
    for _ in range(256):
        lower = 10.0 ** rng.uniform(-9.0, -1.0)
        results.append(LossRateResult(
            lower=lower, upper=lower * (1.0 + rng.uniform(0.0, 0.25)),
            iterations=rng.randint(32, 20_000), bins=rng.choice((128, 256, 512, 2048)),
            converged=rng.random() < 0.7, negligible=False,
        ))
    keys = [hashlib.sha256(f"entry-{i}".encode()).hexdigest() for i in range(entries)]
    SolveCache(directory).put_many(
        (key, results[i % len(results)]) for i, key in enumerate(keys)
    )
    return keys[:: max(1, entries // LOOKUPS)][:LOOKUPS]


def _index_run(directory: Path, keys: list[str]) -> tuple[float, list]:
    start = time.perf_counter()
    found = SolveCache(directory).get_many(keys)
    return time.perf_counter() - start, found


def _reference_run(directory: Path, keys: list[str]) -> tuple[float, list]:
    start = time.perf_counter()
    store = _reference_load(directory / "solve_cache.jsonl")
    found = [store.get(key) for key in keys]
    return time.perf_counter() - start, found


def _measure(directory: Path, entries: int) -> tuple[float, float]:
    """Median (index, reference) seconds for one open plus ``LOOKUPS`` hits."""
    keys = _populate(directory, entries)
    index_s, reference_s = [], []
    for _ in range(REPEATS):
        seconds, indexed = _index_run(directory, keys)
        index_s.append(seconds)
        seconds, parsed = _reference_run(directory, keys)
        reference_s.append(seconds)
        assert indexed == parsed and None not in indexed
        assert [r.lower for r in indexed] == [r.lower for r in parsed]  # bit-exact
    return statistics.median(index_s), statistics.median(reference_s)


def test_perf_cache_load(benchmark, tmp_path):
    def run():
        return np.array([_measure(tmp_path / f"cache{n}", n) for n in SIZES])

    timings = run_once(benchmark, run)
    text = format_series(
        "entries",
        np.array(SIZES, dtype=float),
        {
            "index_ms": timings[:, 0] * 1e3,
            "full_parse_ms": timings[:, 1] * 1e3,
            "speedup": timings[:, 1] / timings[:, 0],
        },
        f"Performance — solve-cache open + {LOOKUPS} lookups, "
        f"key index vs full parse (median of {REPEATS})",
    )
    persist("perf_cache_load", text)
    smoke = SIZES.index(SMOKE_SIZE)
    assert timings[smoke, 1] / timings[smoke, 0] >= CACHE_SMOKE_MIN_SPEEDUP, timings


def test_perf_cache_load_smoke(tmp_path):
    """CI gate: the key index beats the full parse by 3x at 20k entries."""
    index_s, reference_s = _measure(tmp_path, SMOKE_SIZE)
    speedup = reference_s / index_s
    assert speedup >= CACHE_SMOKE_MIN_SPEEDUP, (
        f"solve-cache open regressed: {speedup:.2f}x over the full parse at "
        f"{SMOKE_SIZE} entries ({index_s * 1e3:.1f} ms vs {reference_s * 1e3:.1f} ms), "
        f"required {CACHE_SMOKE_MIN_SPEEDUP:.1f}x"
    )
