"""Performance — solver step cost scales like O(M log M), not O(M^2).

The paper: FFT "reduces the computational complexity from O(M^2) to
O(M log M)".  This benchmark times a fixed number of convolution steps at
geometrically growing bin counts for both engines and fits the empirical
scaling exponents: the spectral engine should grow roughly linearly in M
(the log factor is invisible over this range), the direct engine roughly
quadratically.

The spectral kernel is also raced against the *legacy* v1 stepping kernel
(per-chain ``scipy.signal.fftconvolve``, which re-planned and
re-transformed the static increment vector every step) — the committed
baseline this PR's caching/batching work is measured against.  A quick
smoke variant of that race runs in CI and fails on a >2x per-step
regression at 2048 bins.

A third benchmark times a Fig. 4-style sweep grid through the execution
engine, serial vs `ProcessPoolBackend` at every sensible worker count —
grid cells are embarrassingly parallel, and the persistent pool keeps
workers warm across sweeps, so repeat sweeps skip start-up cost entirely.
The same report times a 64-task shape-homogeneous sweep through the
batch planner: one stacked kernel call per level instead of 64 solo
solves, which is the single-process speedup the serving layer banks on.
Two CI smokes race batched against per-task solves: one on the spectral
path (refining to 2048 bins), one pinned to the direct path at 128 bins,
where a stack shares one boundary fold per step.
"""

from __future__ import annotations

import os
import time

import numpy as np
from scipy.signal import fftconvolve

from _common import persist, run_once
from repro.core.marginal import DiscreteMarginal
from repro.core.solver import SolverConfig, _BoundedChains
from repro.core.source import CutoffFluidSource
from repro.core.truncated_pareto import TruncatedPareto
from repro.core.workload import WorkloadLaw
from repro.exec import ProcessPoolBackend, SolveTask, SweepEngine
from repro.experiments import paperconfig
from repro.experiments.reporting import format_mapping, format_series
from repro.experiments.sweeps import sweep_buffer_cutoff

BINS = np.array([256, 512, 1024, 2048, 4096])
STEPS = 12
SMOKE_BINS = 2048
# CI gate: the spectral kernel must stay at least this much faster per
# step than the legacy fftconvolve baseline (measured >2.5x on the
# reference host; 2.0 leaves headroom for noisy runners).
SMOKE_MIN_SPEEDUP = 2.0


def _chains(bins: int, use_fft: bool) -> _BoundedChains:
    source = CutoffFluidSource(
        marginal=DiscreteMarginal(rates=[0.0, 2.0], probs=[0.5, 0.5]),
        interarrival=TruncatedPareto(theta=0.1, alpha=1.4, cutoff=5.0),
    )
    return _BoundedChains(
        workload=WorkloadLaw(source=source, service_rate=1.25),
        buffer_size=1.0,
        bins=bins,
        use_fft=use_fft,
        fft_threshold_bins=0,  # force the chosen kernel at every size
    )


def _legacy_advance(pmf: np.ndarray, increments: np.ndarray, m: int) -> np.ndarray:
    """One step of the v1 kernel: fresh fftconvolve per chain per step."""
    u = fftconvolve(pmf, increments)
    new = np.empty(m + 1)
    new[0] = u[: m + 1].sum()
    new[1:m] = u[m + 1 : 2 * m]
    new[m] = u[2 * m :].sum()
    np.clip(new, 0.0, None, out=new)
    return new / new.sum()


def _timed_steps(bins: int, kernel: str, steps: int = STEPS) -> float:
    """Seconds per step for one kernel: 'spectral', 'direct' or 'legacy'."""
    chains = _chains(bins, use_fft=kernel == "spectral")
    if kernel in ("spectral", "direct"):
        chains.iterate(2)  # warm plans and scratch buffers
        start = time.perf_counter()
        chains.iterate(steps)
        return (time.perf_counter() - start) / steps
    lower, upper = chains.lower_pmf.copy(), chains.upper_pmf.copy()
    w_lower, w_upper = chains.w_lower, chains.w_upper
    m = chains.bins
    for _ in range(2):  # same warm-up as above
        lower = _legacy_advance(lower, w_lower, m)
        upper = _legacy_advance(upper, w_upper, m)
    start = time.perf_counter()
    for _ in range(steps):
        lower = _legacy_advance(lower, w_lower, m)
        upper = _legacy_advance(upper, w_upper, m)
    return (time.perf_counter() - start) / steps


def test_perf_solver_scaling(benchmark):
    def run():
        spectral = np.array([_timed_steps(int(m), "spectral") for m in BINS])
        direct = np.array([_timed_steps(int(m), "direct") for m in BINS])
        legacy = np.array([_timed_steps(int(m), "legacy") for m in BINS])
        return spectral, direct, legacy

    spectral_times, direct_times, legacy_times = run_once(benchmark, run)

    def scaling_exponent(times: np.ndarray) -> float:
        return float(np.polyfit(np.log(BINS.astype(float)), np.log(times), 1)[0])

    fft_exponent = scaling_exponent(spectral_times)
    direct_exponent = scaling_exponent(direct_times)
    speedups = legacy_times / spectral_times
    text = format_series(
        "bins",
        BINS.astype(float),
        {
            "fft_s_per_step": spectral_times,
            "direct_s_per_step": direct_times,
            "legacy_s_per_step": legacy_times,
            "speedup_vs_legacy": speedups,
        },
        "Performance — per-step cost vs bin count",
    )
    text += (
        f"\n\nempirical scaling exponents: FFT {fft_exponent:.2f} "
        f"(theory ~1 + log factor), direct {direct_exponent:.2f} (theory ~2)"
        "\nlegacy = v1 per-chain fftconvolve stepping (re-transforms the "
        "increment vector every step); speedup = legacy / spectral"
    )
    persist("perf_solver_scaling", text)
    assert direct_exponent > fft_exponent + 0.4
    assert fft_exponent < 1.6
    assert direct_exponent > 1.5
    # The cached-plan batched kernel must beat the committed v1 baseline
    # at production bin counts.
    large = BINS >= 2048
    assert np.all(speedups[large] >= SMOKE_MIN_SPEEDUP), speedups


# --------------------------------------------------------------------- #
# quick-mode perf smoke (wired into CI)
# --------------------------------------------------------------------- #


def test_perf_step_smoke():
    """CI gate: per-step spectral cost at 2048 bins vs the v1 baseline.

    Runs in a few hundred milliseconds.  Persists the per-step timings so
    regressions leave an artifact trail, and fails when the spectral
    kernel loses more than half its measured advantage over the committed
    legacy baseline (>2x per-step regression).
    """
    best_of = 3
    spectral = min(_timed_steps(SMOKE_BINS, "spectral", steps=8) for _ in range(best_of))
    legacy = min(_timed_steps(SMOKE_BINS, "legacy", steps=8) for _ in range(best_of))
    speedup = legacy / spectral
    persist(
        "perf_step_smoke",
        format_mapping(
            {
                "bins": float(SMOKE_BINS),
                "spectral_s_per_step": spectral,
                "legacy_s_per_step": legacy,
                "speedup": speedup,
                "required_speedup": SMOKE_MIN_SPEEDUP,
            },
            "Perf smoke — per-step spectral vs legacy kernel at 2048 bins",
        ),
    )
    assert speedup >= SMOKE_MIN_SPEEDUP, (
        f"spectral kernel regressed: {speedup:.2f}x vs required "
        f"{SMOKE_MIN_SPEEDUP:.1f}x over the legacy baseline at {SMOKE_BINS} bins"
    )


# --------------------------------------------------------------------- #
# serial vs process-pool sweep execution (Fig. 4 grid shape)
# --------------------------------------------------------------------- #

_SWEEP_CONFIG = SolverConfig(relative_gap=0.3, max_iterations=20_000)


def _sweep_source() -> CutoffFluidSource:
    return CutoffFluidSource(
        marginal=DiscreteMarginal(rates=[0.0, 2.0], probs=[0.5, 0.5]),
        interarrival=TruncatedPareto(theta=0.1, alpha=1.4, cutoff=100.0),
    )


# The batched sweep shape: 64 tasks sharing one solver configuration
# (one batch-planner group), refining from 64 to 2048 bins.  Most of the
# work happens at stacking-friendly small levels, which is where the
# (tasks, 2, L) kernel amortizes per-call FFT overhead.
BATCH_TASKS = 64
BATCH_CONFIG = SolverConfig(
    initial_bins=64, max_bins=2048, relative_gap=0.2, max_iterations=20_000,
    use_fft=True, fft_threshold_bins=0,
)
BATCH_BUFFERS = (0.05, 2.0)
# Reference-host measurement: 4.5x at 64 tasks; 3.0 leaves noise headroom.
BATCH_MIN_SPEEDUP = 3.0
# CI gate floor on the 16-task smoke grid (measured >3x; 1.5 tolerates
# heavily shared runners).
BATCH_SMOKE_MIN_SPEEDUP = 1.5
# The direct-path smoke: 16 tasks pinned to 128 bins, below the default
# FFT threshold, each running exactly max_iterations steps: the gap and
# negligible-loss exits cannot fire, max_bins forbids refinement, and on
# buffers of 1.5 s and up no bound stops moving (a stall) within 512
# steps.  Every stacked step is then 16 members wide.
DIRECT_BATCH_CONFIG = SolverConfig(
    initial_bins=128, max_bins=128, relative_gap=1e-12, negligible_loss=0.0,
    stall_relative_change=1e-300, max_iterations=512,
)
DIRECT_BATCH_BUFFERS = (1.5, 4.0)
# Measured 1.28-1.64x over eleven interleaved runs on a 2-vCPU host, where
# the kernel that stepped direct members one at a time read 0.98-1.02x.
DIRECT_BATCH_SMOKE_MIN_SPEEDUP = 1.15


def _batch_tasks(
    count: int,
    config: SolverConfig = BATCH_CONFIG,
    buffers: tuple[float, float] = BATCH_BUFFERS,
) -> list[SolveTask]:
    source = _sweep_source()
    return [
        SolveTask(
            source=source,
            utilization=paperconfig.MTV_UTILIZATION,
            normalized_buffer=float(buffer),
            config=config,
        )
        for buffer in np.linspace(*buffers, count)
    ]


def _timed_batch_sweep(
    count: int,
    max_batch: int | None,
    config: SolverConfig = BATCH_CONFIG,
    buffers: tuple[float, float] = BATCH_BUFFERS,
) -> tuple[float, list]:
    """Seconds + results for ``count`` homogeneous tasks at one plan width.

    ``max_batch=1`` forces every task through the solo per-task path;
    ``None`` lets the planner stack the whole group.
    """
    tasks = _batch_tasks(count, config, buffers)
    engine = SweepEngine(max_batch=max_batch)
    start = time.perf_counter()
    results = engine.run_tasks(tasks)
    return time.perf_counter() - start, results


def test_perf_engine_parallel(benchmark):
    source = _sweep_source()
    buffers = paperconfig.buffer_grid(4)
    cutoffs = paperconfig.cutoff_grid(4)
    cpus = os.cpu_count() or 1
    # Per-worker scaling rows: 1, 2, 4, ... up to the machine, so the
    # report never claims parallelism the host cannot deliver.
    worker_counts = sorted({count for count in (1, 2, 4, cpus) if count <= cpus})

    def timed_sweep(engine: SweepEngine) -> tuple[np.ndarray, float]:
        start = time.perf_counter()
        surface = sweep_buffer_cutoff(
            source, paperconfig.MTV_UTILIZATION, buffers, cutoffs,
            config=_SWEEP_CONFIG, engine=engine,
        )
        return surface.losses, time.perf_counter() - start

    def run():
        serial_losses, serial_seconds = timed_sweep(SweepEngine())
        rows = []
        for workers in worker_counts:
            backend = ProcessPoolBackend(jobs=workers)
            # One engine, one warm pool: the first sweep pays worker
            # start-up, the second reuses the live workers.
            with SweepEngine(backend=backend) as pool_engine:
                losses, cold_seconds = timed_sweep(pool_engine)
                _, warm_seconds = timed_sweep(pool_engine)
            rows.append((workers, backend.jobs, cold_seconds, warm_seconds, losses))
        solo_seconds, solo_results = _timed_batch_sweep(BATCH_TASKS, max_batch=1)
        batch_seconds, batch_results = _timed_batch_sweep(BATCH_TASKS, max_batch=None)
        return (
            serial_losses, serial_seconds, rows,
            solo_seconds, solo_results, batch_seconds, batch_results,
        )

    (
        serial_losses, serial_seconds, rows,
        solo_seconds, solo_results, batch_seconds, batch_results,
    ) = run_once(benchmark, run)

    requested = np.array([row[0] for row in rows], dtype=float)
    pool_sizes = np.array([row[1] for row in rows], dtype=float)
    cold = np.array([row[2] for row in rows])
    warm = np.array([row[3] for row in rows])
    text = format_mapping(
        {
            "grid_cells": float(buffers.size * cutoffs.size),
            "cpu_count": float(cpus),
            "serial_s": serial_seconds,
        },
        "Performance — serial vs warm ProcessPoolBackend on a Fig. 4 grid",
    )
    text += "\n\n" + format_series(
        "workers_requested",
        requested,
        {
            "pool_size": pool_sizes,
            "parallel_cold_s": cold,
            "parallel_warm_s": warm,
            "speedup_cold": serial_seconds / np.maximum(cold, 1e-9),
            "speedup_warm": serial_seconds / np.maximum(warm, 1e-9),
        },
        "Per-worker scaling (pool stays warm between the two timed sweeps)",
    )
    text += "\n\n" + format_mapping(
        {
            "batch_tasks": float(BATCH_TASKS),
            "per_task_s": solo_seconds,
            "batched_s": batch_seconds,
            "batched_speedup": solo_seconds / max(batch_seconds, 1e-9),
            "required_speedup": BATCH_MIN_SPEEDUP,
        },
        "Batched solve pipeline — 64 homogeneous tasks, single process",
    )
    text += (
        "\n\n(parallel losses match the serial losses bit for bit at every "
        "worker count, and the batched results equal the per-task results "
        "exactly; workers are capped at cpu_count, so a single-CPU host "
        "reports pool overhead, not speedup)"
    )
    persist("perf_engine_parallel", text)
    # The backends must agree exactly — parallelism may not change numbers.
    for _, _, _, _, losses in rows:
        np.testing.assert_array_equal(losses, serial_losses)
    assert batch_results == solo_results
    assert solo_seconds / max(batch_seconds, 1e-9) >= BATCH_MIN_SPEEDUP
    # Speedup is only observable with real cores; single-CPU runners just
    # record the overhead.
    if cpus >= 4:
        assert warm[-1] < serial_seconds


def test_perf_batch_smoke():
    """CI gate: the batch planner must beat per-task solves single-process.

    A 16-task slice of the homogeneous grid (refining to 2048 bins) runs
    once per plan width, best of three; the stacked kernel has to deliver
    at least ``BATCH_SMOKE_MIN_SPEEDUP`` or the batching machinery has
    regressed into overhead.
    """
    best_of = 3
    smoke_tasks = 16
    solo_seconds, solo_results = min(
        (_timed_batch_sweep(smoke_tasks, max_batch=1) for _ in range(best_of)),
        key=lambda timed: timed[0],
    )
    batch_seconds, batch_results = min(
        (_timed_batch_sweep(smoke_tasks, max_batch=None) for _ in range(best_of)),
        key=lambda timed: timed[0],
    )
    speedup = solo_seconds / max(batch_seconds, 1e-9)
    persist(
        "perf_batch_smoke",
        format_mapping(
            {
                "batch_tasks": float(smoke_tasks),
                "per_task_s": solo_seconds,
                "batched_s": batch_seconds,
                "speedup": speedup,
                "required_speedup": BATCH_SMOKE_MIN_SPEEDUP,
            },
            "Perf smoke — batched vs per-task solves on the 2048-bin grid",
        ),
    )
    assert batch_results == solo_results
    assert speedup >= BATCH_SMOKE_MIN_SPEEDUP, (
        f"batched pipeline regressed: {speedup:.2f}x vs required "
        f"{BATCH_SMOKE_MIN_SPEEDUP:.1f}x over per-task solves"
    )


def test_perf_direct_batch_smoke():
    """CI gate: stacked direct-path solves must beat per-task solves.

    Sixteen tasks stay at 128 bins on the direct path and run 512 steps
    each, once per plan width, best of five.  Each stacked step still
    runs one ``np.convolve`` per chain but folds the boundaries of the
    whole stack at once; below ``DIRECT_BATCH_SMOKE_MIN_SPEEDUP`` that
    shared fold has regressed into overhead.
    """
    best_of = 5
    smoke_tasks = 16
    runs: dict[int | None, list[tuple[float, list]]] = {1: [], None: []}
    # Alternate the two widths so both sample the same host-speed swings.
    for _ in range(best_of):
        for max_batch in runs:
            runs[max_batch].append(
                _timed_batch_sweep(
                    smoke_tasks, max_batch, DIRECT_BATCH_CONFIG, DIRECT_BATCH_BUFFERS
                )
            )
    solo_seconds, solo_results = min(runs[1], key=lambda timed: timed[0])
    batch_seconds, batch_results = min(runs[None], key=lambda timed: timed[0])
    speedup = solo_seconds / max(batch_seconds, 1e-9)
    persist(
        "perf_direct_batch_smoke",
        format_mapping(
            {
                "batch_tasks": float(smoke_tasks),
                "bins": float(DIRECT_BATCH_CONFIG.max_bins),
                "steps_per_task": float(DIRECT_BATCH_CONFIG.max_iterations),
                "per_task_s": solo_seconds,
                "batched_s": batch_seconds,
                "speedup": speedup,
                "required_speedup": DIRECT_BATCH_SMOKE_MIN_SPEEDUP,
            },
            "Perf smoke — batched vs per-task solves on the 128-bin direct path",
        ),
    )
    assert batch_results == solo_results
    steps = DIRECT_BATCH_CONFIG.max_iterations
    assert all(result.iterations == steps for result in solo_results)
    assert speedup >= DIRECT_BATCH_SMOKE_MIN_SPEEDUP, (
        f"direct-path batching regressed: {speedup:.2f}x vs required "
        f"{DIRECT_BATCH_SMOKE_MIN_SPEEDUP:.2f}x over per-task solves"
    )
