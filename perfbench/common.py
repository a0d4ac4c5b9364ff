"""Helpers shared by the workloads: statistics, run state, provenance."""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import betainc

from perfbench.probe import P_REF_MS, PROBE_INTERVAL_S, HostProbe, Op, ProbedClock

ROOT = Path(__file__).resolve().parent.parent
STATE_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 3
"""Set-ups per run; ``setup_s`` is their median."""


def percentile(values: Sequence[float], level: float) -> float:
    """Harrell-Davis estimate of the ``level`` percentile (0-100).

    A Beta-weighted mean of all order statistics: at the tail it averages
    the few slowest operations instead of interpolating between two of
    them, so one noisy operation moves it less.
    """
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    if ordered.size == 0:
        raise ValueError("percentile of an empty sample")
    q = level / 100.0
    n = ordered.size
    edges = betainc((n + 1) * q, (n + 1) * (1.0 - q), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), ordered))


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process, MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_sha() -> str | None:
    """The checkout's commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def provenance(import_s: float, cpu: int) -> dict:
    import numpy
    import scipy

    from repro.core.solver import SOLVER_VERSION

    return {
        "cpu_count": os.cpu_count(),
        "pinned_cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "solver_version": SOLVER_VERSION,
        "p_ref_ms": P_REF_MS,
        "import_s": import_s,
    }


def pin_to_current_cpu() -> int:
    """Keep this process (and so the probe) on the vCPU it runs on now."""
    with open("/proc/self/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    cpu = int(fields[36])  # field 39 of proc(5), counted after the ")"
    os.sched_setaffinity(0, {cpu})
    return cpu


@dataclass
class Run:
    """Per-run state every workload receives."""

    seed: int
    seconds: float
    work_dir: Path
    probe: HostProbe = field(default_factory=HostProbe)
    spans: object | None = None  # perfbench.spans.SpanRecorder in traced runs
    clocks: list[ProbedClock] = field(default_factory=list)

    def clock(self, interval: float = PROBE_INTERVAL_S) -> ProbedClock:
        clock = ProbedClock(self.probe, interval)
        self.clocks.append(clock)
        return clock

    def scratch(self, name: str) -> Path:
        """A fresh, empty directory under the run's private work dir."""
        path = self.work_dir / name
        if path.exists():
            shutil.rmtree(path)
        path.mkdir(parents=True)
        return path

    def deadline(self) -> float:
        return time.perf_counter() + self.seconds


@dataclass
class Outcome:
    """What a workload hands back to the runner.

    ``attempted``/``failed`` count measured operations; they default to
    the timed ops (workloads without timed ops set them).
    """

    ops: list[Op]
    metrics: dict[str, float]
    raw: dict[str, float]
    per_layer: dict[str, float] = field(default_factory=dict)
    info: dict = field(default_factory=dict)
    attempted: int = -1
    failed: int = -1
    notes: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.attempted < 0:
            self.attempted = len(self.ops)
        if self.failed < 0:
            self.failed = sum(1 for op in self.ops if op.failed)
        self.notes += [f"{op.name}: {op.note}" for op in self.ops if op.failed]


def probe_stats(clocks: Sequence[ProbedClock]) -> tuple[float, float]:
    """Median probe slice (ms) and the slices' coefficient of variation."""
    values = [ms for clock in clocks for ms, _ in clock.slices]
    if len(values) < 2:
        return (values[0] if values else 0.0), 0.0
    return statistics.median(values), statistics.stdev(values) / statistics.fmean(values)


def timed_setups(run: Run, setup: Callable[[int], object],
                 teardown: Callable[[object], None] | None = None,
                 interval: float = PROBE_INTERVAL_S) -> tuple[object, float, float]:
    """Run ``setup`` :data:`SETUP_REPEATS` times, each probe-bracketed.

    Returns the state of the last set-up and the median normalized and
    raw seconds; earlier states are torn down.  ``setup`` receives the
    repeat index and ends with its warm-up operation.
    """
    norms, raws = [], []
    state = None
    for repeat in range(SETUP_REPEATS):
        if state is not None and teardown is not None:
            teardown(state)
        clock = run.clock(interval)
        clock.start()
        with clock.op(f"setup{repeat}", "setup") as op:
            state = setup(repeat)
        clock.finish()
        norms.append(op.norm_s)
        raws.append(op.wall_s)
    return state, median(norms), median(raws)


def write_json(path: Path, payload: object) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
