"""Shared helpers for the figure benchmarks.

Each benchmark regenerates one paper figure's data, prints it as the rows
the paper plots, and persists the table under ``benchmarks/results/`` so
EXPERIMENTS.md can reference stable artifacts.
"""

from __future__ import annotations

import os

from repro.experiments.paperconfig import DEFAULT_TRACE_BINS as TRACE_BINS

__all__ = ["RESULTS_DIR", "TRACE_BINS", "best_of_alternating", "persist", "run_once"]

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def persist(name: str, text: str) -> None:
    """Print a report and store it as ``benchmarks/results/<name>.txt``."""
    print()
    print(text)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text if text.endswith("\n") else text + "\n")


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


def best_of_alternating(best_of: int, *sides):
    """Fastest of ``best_of`` runs of each side, the sides taking turns.

    A side returns its seconds, or a tuple that starts with them.  Taking
    turns lets every side sample the same host-speed swings; timing all
    runs of one side first would hand a slow spell to one side only.
    """
    runs = [[] for _ in sides]
    for _ in range(best_of):
        for side, timed in zip(sides, runs):
            timed.append(side())
    return [
        min(timed, key=lambda run: run[0] if isinstance(run, tuple) else run)
        for timed in runs
    ]
