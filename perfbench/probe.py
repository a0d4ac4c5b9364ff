"""Host-speed probe and the probe-normalized clock.

On the shared 2-vCPU reference host the speed a thread sees switches
between regimes about 1.6x apart every few hundred milliseconds, and
the mix of regimes drifts over seconds, so raw run-to-run spreads are
10-20 %.  Speed measured on the same thread and vCPU close in time
tracks it, so every CPU-bound operation is timed in segments between
probe slices, and a segment's normalized time is

    wall time x P_REF_MS / mean(slice before, slice after)

i.e. the time it would have taken at the reference speed.

A slice is a fixed, allocation-free mix of pure-Python integer
arithmetic and NumPy FFTs (~6 ms on the reference host), run on the
workload's own thread with the garbage collector paused, at the start
and end of a phase and five times a second in between.  Short frequent
slices tracked the host better than 40-ms slices once a second
(block-to-block CV of normalized throughput 1.6-3 % against 4-6 %).
"""

from __future__ import annotations

import gc
import signal
import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

P_REF_MS = 6.0
"""Reference probe slice, ms: a typical slice on the 2-vCPU host the
benchmark was calibrated on.  Committed with the benchmark; changing it
rescales every normalized metric."""

PROBE_INTERVAL_S = 0.1
"""Wall-clock period of the probe timer while a phase is measured."""

_INT_STEPS = 25_000
_FFT_REPS = 100
_FFT_SIZE = 4096
_FOREIGN_CPU_S = 0.001
"""CPU another thread may use during a slice before the slice is void."""


class HostProbe:
    """One fixed slice of CPU work, timed on the calling thread."""

    def __init__(self) -> None:
        self._signal = np.random.default_rng(0).standard_normal(_FFT_SIZE)
        self._spectrum = np.empty(_FFT_SIZE // 2 + 1, dtype=np.complex128)

    def _work(self) -> None:
        x = 1
        for _ in range(_INT_STEPS):
            x = (x * 48271) % 2147483647
        for _ in range(_FFT_REPS):
            np.fft.rfft(self._signal, out=self._spectrum)

    def slice(self) -> tuple[float, bool]:
        """Run one slice; returns ``(milliseconds, clean)``.

        A slice is not clean when the process used more CPU during it
        than this thread did: some other thread was busy and competed
        with the probe, so the slice does not measure the host.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            cpu0, own0 = time.process_time(), time.thread_time()
            start = time.perf_counter()
            self._work()
            wall = time.perf_counter() - start
            foreign = (time.process_time() - cpu0) - (time.thread_time() - own0)
        finally:
            if enabled:
                gc.enable()
        return wall * 1e3, foreign <= _FOREIGN_CPU_S

    def measure(self) -> tuple[float, bool]:
        """A slice, retried once if another thread disturbed it."""
        ms, clean = self.slice()
        if not clean:
            ms, clean = self.slice()
        return ms, clean


@dataclass
class Op:
    """One timed operation: its wall time split into probe-bracketed segments."""

    name: str
    kind: str
    segments: list[tuple[float, int]] = field(default_factory=list)
    failed: bool = False
    note: str = ""
    info: dict = field(default_factory=dict)
    norm_s: float = 0.0

    @property
    def wall_s(self) -> float:
        return sum(wall for wall, _ in self.segments)

    def fail(self, note: str) -> None:
        self.failed = True
        self.note = self.note or note


class ProbedClock:
    """Times operations between host-speed probe slices.

    :meth:`start` opens a measured phase with a slice and arms a timer
    that runs a slice every :data:`PROBE_INTERVAL_S` on this (the main)
    thread, splitting whatever operation is running into segments;
    :meth:`finish` closes the phase with a slice and normalizes each
    segment by the slices on either side of it.  Workloads whose other
    threads do the work (``interval=0``) are probed only at the phase
    boundaries.
    """

    def __init__(self, probe: HostProbe | None = None, interval: float = PROBE_INTERVAL_S) -> None:
        self._probe = probe if probe is not None else HostProbe()
        self.interval = interval
        self.slices: list[tuple[float, bool]] = []
        self.ops: list[Op] = []
        self._current: Op | None = None
        self._seg_start = 0.0
        self._previous_handler = None

    @contextmanager
    def _quiet(self) -> Iterator[None]:
        """Hold the probe timer's signal while bookkeeping is updated."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            yield
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def _slice(self) -> None:
        with self._quiet():
            if self._current is not None:
                self._current.segments.append(
                    (time.perf_counter() - self._seg_start, len(self.slices) - 1)
                )
            self.slices.append(self._probe.measure())
            self._seg_start = time.perf_counter()

    def start(self) -> None:
        """Open the phase: a first slice, then the periodic timer."""
        self._slice()
        if self.interval > 0:
            self._previous_handler = signal.signal(signal.SIGALRM, lambda *_: self._slice())
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    @contextmanager
    def op(self, name: str, kind: str) -> Iterator[Op]:
        """Time one operation (the block's body) in probe-bracketed segments."""
        if not self.slices:
            raise RuntimeError("start() must open the phase before the first op")
        op = Op(name=name, kind=kind)
        with self._quiet():
            self._seg_start = time.perf_counter()
            self._current = op
        try:
            yield op
        finally:
            with self._quiet():
                op.segments.append((time.perf_counter() - self._seg_start, len(self.slices) - 1))
                self._current = None
                self.ops.append(op)

    def finish(self) -> list[Op]:
        """Close the phase with a slice and normalize every op timed in it."""
        if self.interval > 0:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous_handler)
        self._slice()
        for op in self.ops:
            norm = 0.0
            for wall, before in op.segments:
                (ms_a, ok_a), (ms_b, ok_b) = self.slices[before], self.slices[before + 1]
                if not (ok_a and ok_b):
                    op.fail("a program thread was busy during a probe slice")
                norm += wall * P_REF_MS / ((ms_a + ms_b) / 2.0)
            op.norm_s = norm
        return self.ops
