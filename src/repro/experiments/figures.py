"""Per-figure data regeneration (paper Figs. 2-14).

One function per figure in the paper's evaluation.  Each returns plain
data (arrays / :class:`~repro.experiments.sweeps.LossSurface` objects /
dicts) that the corresponding benchmark renders as the rows the paper
plots.  Grid resolutions are parameters so tests can run tiny instances
of the same code paths the benchmarks exercise at full size.

The two reference traces are synthetic substitutes (see DESIGN.md):
:func:`mtv_source` and :func:`bellcore_source` cache one calibrated
source per (length, cutoff-independent) configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.analysis.acf import autocorrelation
from repro.analysis.histogram import marginal_summary
from repro.core.horizon import correlation_horizon, empirical_horizon, norros_horizon
from repro.core.marginal import DiscreteMarginal
from repro.core.results import OccupancyBounds
from repro.core.solver import FluidQueue, SolverConfig
from repro.core.source import CutoffFluidSource
from repro.core.truncated_pareto import TruncatedPareto
from repro.exec.engine import SweepEngine
from repro.experiments import paperconfig
from repro.experiments.sweeps import (
    LossSurface,
    plan_buffer_cutoff,
    plan_buffer_scaling,
    plan_cutoff,
    plan_hurst_scaling,
    plan_hurst_superposition,
    run_plan,
)
from repro.queueing.fluid_sim import simulate_trace_queue_multi
from repro.traffic.ethernet import BELLCORE_HURST, synthesize_bellcore_trace
from repro.traffic.shuffle import shuffle_trace
from repro.traffic.trace import Trace
from repro.traffic.video import MTV_HURST, synthesize_mtv_trace

__all__ = [
    "mtv_trace",
    "bellcore_trace",
    "mtv_source",
    "bellcore_source",
    "fig02_bounds_convergence",
    "fig03_marginals",
    "fig04_loss_surface_mtv",
    "fig05_loss_surface_bellcore",
    "fig06_shuffle_decorrelation",
    "fig07_shuffle_surface_mtv",
    "fig08_shuffle_surface_bellcore",
    "fig09_marginal_comparison",
    "fig10_hurst_vs_scaling",
    "fig11_hurst_vs_superposition",
    "fig12_buffer_vs_scaling_mtv",
    "fig13_buffer_vs_scaling_bellcore",
    "fig14_horizon_scaling",
]


@lru_cache(maxsize=8)
def mtv_trace(n_frames: int = paperconfig.DEFAULT_TRACE_BINS) -> Trace:
    """The synthetic MTV trace used across benchmarks (cached)."""
    return synthesize_mtv_trace(n_frames=n_frames)


@lru_cache(maxsize=8)
def bellcore_trace(n_bins: int = paperconfig.DEFAULT_TRACE_BINS) -> Trace:
    """The synthetic Bellcore trace used across benchmarks (cached)."""
    return synthesize_bellcore_trace(n_bins=n_bins)


@lru_cache(maxsize=8)
def mtv_source(n_frames: int = paperconfig.DEFAULT_TRACE_BINS) -> CutoffFluidSource:
    """MTV trace calibrated into a cutoff fluid source (H = 0.83)."""
    return mtv_trace(n_frames).to_source(hurst=MTV_HURST, bins=paperconfig.HISTOGRAM_BINS)


@lru_cache(maxsize=8)
def bellcore_source(n_bins: int = paperconfig.DEFAULT_TRACE_BINS) -> CutoffFluidSource:
    """Bellcore trace calibrated into a cutoff fluid source (H = 0.9)."""
    return bellcore_trace(n_bins).to_source(
        hurst=BELLCORE_HURST, bins=paperconfig.HISTOGRAM_BINS
    )


# --------------------------------------------------------------------- #
# Fig. 2 — convergence of the occupancy bounds
# --------------------------------------------------------------------- #


def fig02_bounds_convergence(
    checkpoints: tuple[int, ...] = (5, 10, 30),
    bins: int = 100,
    n_frames: int = paperconfig.DEFAULT_TRACE_BINS,
) -> list[OccupancyBounds]:
    """Bound distributions after n = 5/10/30 iterations at M = 100 (Fig. 2)."""
    source = mtv_source(n_frames).with_cutoff(10.0)
    queue = FluidQueue.from_normalized(
        source=source, utilization=paperconfig.MTV_UTILIZATION, normalized_buffer=1.0
    )
    return queue.occupancy_bounds(checkpoints, bins=bins)


# --------------------------------------------------------------------- #
# Fig. 3 — trace marginals
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class MarginalFigure:
    """Histogram data of the two reference marginals."""

    mtv: DiscreteMarginal
    bellcore: DiscreteMarginal
    mtv_summary: dict[str, float]
    bellcore_summary: dict[str, float]


def fig03_marginals(n_bins: int = paperconfig.DEFAULT_TRACE_BINS) -> MarginalFigure:
    """50-bin marginals of both traces plus their summary rows (Fig. 3)."""
    mtv = mtv_trace(n_bins).marginal(paperconfig.HISTOGRAM_BINS)
    bellcore = bellcore_trace(n_bins).marginal(paperconfig.HISTOGRAM_BINS)
    return MarginalFigure(
        mtv=mtv,
        bellcore=bellcore,
        mtv_summary=marginal_summary(mtv),
        bellcore_summary=marginal_summary(bellcore),
    )


# --------------------------------------------------------------------- #
# Figs. 4 / 5 — model loss over (buffer, cutoff)
# --------------------------------------------------------------------- #


def fig04_loss_surface_mtv(
    buffer_points: int = 6,
    cutoff_points: int = 6,
    n_frames: int = paperconfig.DEFAULT_TRACE_BINS,
    config: SolverConfig | None = None,
    engine: SweepEngine | None = None,
) -> LossSurface:
    """Model loss over (normalized buffer, cutoff), MTV at util 0.8 (Fig. 4)."""
    plan = plan_buffer_cutoff(
        source=mtv_source(n_frames),
        utilization=paperconfig.MTV_UTILIZATION,
        buffers=paperconfig.buffer_grid(buffer_points),
        cutoffs=paperconfig.cutoff_grid(cutoff_points),
        config=config,
    )
    return run_plan(plan, engine)


def fig05_loss_surface_bellcore(
    buffer_points: int = 6,
    cutoff_points: int = 6,
    n_bins: int = paperconfig.DEFAULT_TRACE_BINS,
    config: SolverConfig | None = None,
    engine: SweepEngine | None = None,
) -> LossSurface:
    """Model loss over (normalized buffer, cutoff), Bellcore at util 0.4 (Fig. 5)."""
    plan = plan_buffer_cutoff(
        source=bellcore_source(n_bins),
        utilization=paperconfig.BELLCORE_UTILIZATION,
        buffers=paperconfig.buffer_grid(buffer_points),
        cutoffs=paperconfig.cutoff_grid(cutoff_points),
        config=config,
    )
    return run_plan(plan, engine)


# --------------------------------------------------------------------- #
# Fig. 6 — shuffling kills correlation beyond the block length
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class ShuffleDecorrelation:
    """ACF of a trace before and after external shuffling."""

    lags_seconds: np.ndarray
    original_acf: np.ndarray
    shuffled_acf: np.ndarray
    block_seconds: float


def fig06_shuffle_decorrelation(
    block_seconds: float = 1.0,
    max_lag_seconds: float = 8.0,
    n_frames: int = paperconfig.DEFAULT_TRACE_BINS,
    seed: int = 6,
) -> ShuffleDecorrelation:
    """External shuffling preserves intra-block and kills long-lag ACF (Fig. 6)."""
    trace = mtv_trace(n_frames)
    rng = np.random.default_rng(seed)
    shuffled = shuffle_trace(trace, cutoff_lag=block_seconds, rng=rng)
    max_lag = int(max_lag_seconds / trace.bin_width)
    original = autocorrelation(trace.rates, max_lag)
    mixed = autocorrelation(shuffled.rates, max_lag)
    lags = np.arange(max_lag + 1) * trace.bin_width
    return ShuffleDecorrelation(
        lags_seconds=lags,
        original_acf=original,
        shuffled_acf=mixed,
        block_seconds=block_seconds,
    )


# --------------------------------------------------------------------- #
# Figs. 7 / 8 — shuffled-trace simulation surfaces
# --------------------------------------------------------------------- #


def _shuffle_surface(
    trace: Trace,
    utilization: float,
    buffers: np.ndarray,
    cutoffs: np.ndarray,
    seed: int,
) -> LossSurface:
    service_rate = trace.mean_rate / utilization
    buffer_sizes = np.asarray(buffers) * service_rate
    losses = np.empty((buffer_sizes.size, np.asarray(cutoffs).size))
    rng = np.random.default_rng(seed)
    for j, cutoff in enumerate(np.asarray(cutoffs, dtype=np.float64)):
        shuffled = shuffle_trace(trace, cutoff_lag=float(cutoff), rng=rng)
        losses[:, j] = simulate_trace_queue_multi(
            shuffled.rates, trace.bin_width, service_rate, buffer_sizes
        )
    return LossSurface(
        row_label="buffer_s",
        col_label="cutoff_s",
        rows=np.asarray(buffers, dtype=np.float64),
        cols=np.asarray(cutoffs, dtype=np.float64),
        losses=losses,
        meta={"utilization": utilization, "trace": trace.name},
    )


def fig07_shuffle_surface_mtv(
    buffer_points: int = 6,
    cutoff_points: int = 6,
    n_frames: int = paperconfig.DEFAULT_TRACE_BINS,
    seed: int = 7,
) -> LossSurface:
    """Shuffle-simulation loss over (buffer, cutoff), MTV at util 0.8 (Fig. 7)."""
    return _shuffle_surface(
        trace=mtv_trace(n_frames),
        utilization=paperconfig.MTV_UTILIZATION,
        buffers=paperconfig.buffer_grid(buffer_points),
        cutoffs=paperconfig.cutoff_grid(cutoff_points, low=0.1, high=100.0),
        seed=seed,
    )


def fig08_shuffle_surface_bellcore(
    buffer_points: int = 6,
    cutoff_points: int = 6,
    n_bins: int = paperconfig.DEFAULT_TRACE_BINS,
    seed: int = 8,
) -> LossSurface:
    """Shuffle-simulation loss over (buffer, cutoff), Bellcore at util 0.4 (Fig. 8)."""
    return _shuffle_surface(
        trace=bellcore_trace(n_bins),
        utilization=paperconfig.BELLCORE_UTILIZATION,
        buffers=paperconfig.buffer_grid(buffer_points),
        cutoffs=paperconfig.cutoff_grid(cutoff_points, low=0.1, high=100.0),
        seed=seed,
    )


# --------------------------------------------------------------------- #
# Fig. 9 — the marginal dominates, all else equal
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class MarginalComparison:
    """Loss vs cutoff for the two marginals with identical dynamics."""

    cutoffs: np.ndarray
    mtv_losses: np.ndarray
    bellcore_losses: np.ndarray


def fig09_marginal_comparison(
    cutoff_points: int = 7,
    n_bins: int = paperconfig.DEFAULT_TRACE_BINS,
    config: SolverConfig | None = None,
    engine: SweepEngine | None = None,
) -> MarginalComparison:
    """Loss vs T_c for MTV vs Bellcore marginals, all else equal (Fig. 9).

    Both sources share buffer = 1 s, utilization = 2/3, theta = 20 ms and
    H = 0.9; only the marginal differs.  The paper reports orders of
    magnitude between the curves.
    """
    cutoffs = paperconfig.cutoff_grid(cutoff_points, low=0.1, high=100.0)
    law = TruncatedPareto(
        theta=paperconfig.FIG9_THETA, alpha=3.0 - 2.0 * paperconfig.FIG9_HURST
    )
    results = {}
    for name, marginal in (
        ("mtv", mtv_trace(n_bins).marginal(paperconfig.HISTOGRAM_BINS)),
        ("bellcore", bellcore_trace(n_bins).marginal(paperconfig.HISTOGRAM_BINS)),
    ):
        source = CutoffFluidSource(marginal=marginal, interarrival=law)
        plan = plan_cutoff(
            source,
            paperconfig.FIG9_UTILIZATION,
            paperconfig.FIG9_NORMALIZED_BUFFER,
            cutoffs,
            config=config,
        )
        surface = run_plan(plan, engine)
        _, results[name] = surface.row_series(0)
    return MarginalComparison(
        cutoffs=cutoffs, mtv_losses=results["mtv"], bellcore_losses=results["bellcore"]
    )


# --------------------------------------------------------------------- #
# Figs. 10 / 11 — Hurst vs marginal transforms
# --------------------------------------------------------------------- #


def fig10_hurst_vs_scaling(
    hurst_points: int = 5,
    scaling_points: int = 5,
    cutoff: float = 100.0,
    n_frames: int = paperconfig.DEFAULT_TRACE_BINS,
    config: SolverConfig | None = None,
    engine: SweepEngine | None = None,
) -> LossSurface:
    """Loss over (H, marginal scaling), MTV at util 0.8 (Fig. 10).

    The paper sets ``T_c = inf``; the default here caps it at 100 s (far
    beyond every horizon in the sweep) to bound solver time — pass
    ``cutoff=math.inf`` for the verbatim setting.
    """
    trace = mtv_trace(n_frames)
    plan = plan_hurst_scaling(
        marginal=trace.marginal(paperconfig.HISTOGRAM_BINS),
        mean_interval=trace.mean_epoch_duration(paperconfig.HISTOGRAM_BINS),
        utilization=paperconfig.MTV_UTILIZATION,
        normalized_buffer=1.0,
        hursts=paperconfig.hurst_grid(hurst_points),
        scalings=paperconfig.scaling_grid(scaling_points),
        cutoff=cutoff,
        nominal_hurst=MTV_HURST,
        config=config,
    )
    return run_plan(plan, engine)


def fig11_hurst_vs_superposition(
    hurst_points: int = 5,
    max_streams: int = 10,
    stream_points: int = 5,
    cutoff: float = 100.0,
    n_frames: int = paperconfig.DEFAULT_TRACE_BINS,
    config: SolverConfig | None = None,
    engine: SweepEngine | None = None,
) -> LossSurface:
    """Loss over (H, superposed streams), MTV at util 0.8 (Fig. 11)."""
    trace = mtv_trace(n_frames)
    plan = plan_hurst_superposition(
        marginal=trace.marginal(paperconfig.HISTOGRAM_BINS),
        mean_interval=trace.mean_epoch_duration(paperconfig.HISTOGRAM_BINS),
        utilization=paperconfig.MTV_UTILIZATION,
        normalized_buffer=1.0,
        hursts=paperconfig.hurst_grid(hurst_points),
        streams=paperconfig.stream_grid(max_streams, stream_points),
        cutoff=cutoff,
        config=config,
    )
    return run_plan(plan, engine)


# --------------------------------------------------------------------- #
# Figs. 12 / 13 — buffer vs marginal scaling
# --------------------------------------------------------------------- #


def fig12_buffer_vs_scaling_mtv(
    buffer_points: int = 6,
    scaling_points: int = 5,
    cutoff: float = 100.0,
    n_frames: int = paperconfig.DEFAULT_TRACE_BINS,
    config: SolverConfig | None = None,
    engine: SweepEngine | None = None,
) -> LossSurface:
    """Loss over (buffer, scaling), MTV at util 0.8 (Fig. 12)."""
    plan = plan_buffer_scaling(
        source=mtv_source(n_frames).with_cutoff(cutoff),
        utilization=paperconfig.MTV_UTILIZATION,
        buffers=paperconfig.buffer_grid(buffer_points),
        scalings=paperconfig.scaling_grid(scaling_points),
        config=config,
    )
    return run_plan(plan, engine)


def fig13_buffer_vs_scaling_bellcore(
    buffer_points: int = 6,
    scaling_points: int = 5,
    cutoff: float = 100.0,
    n_bins: int = paperconfig.DEFAULT_TRACE_BINS,
    config: SolverConfig | None = None,
    engine: SweepEngine | None = None,
) -> LossSurface:
    """Loss over (buffer, scaling), Bellcore at util 0.4 (Fig. 13)."""
    plan = plan_buffer_scaling(
        source=bellcore_source(n_bins).with_cutoff(cutoff),
        utilization=paperconfig.BELLCORE_UTILIZATION,
        buffers=paperconfig.buffer_grid(buffer_points),
        scalings=paperconfig.scaling_grid(scaling_points),
        config=config,
    )
    return run_plan(plan, engine)


# --------------------------------------------------------------------- #
# Fig. 14 — the correlation horizon scales linearly with the buffer
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class HorizonScaling:
    """Empirical horizons per buffer plus the log-log scaling fit.

    Attributes
    ----------
    surface:
        The underlying shuffled-trace loss surface on log-log grids.
    buffers:
        Normalized buffer sizes (seconds).
    empirical:
        Empirical correlation horizon per buffer (seconds); NaN where the
        simulation shows no measurable loss at any cutoff (the horizon is
        unobservable there).
    scaling_exponent:
        Slope of log CH on log B over the observable buffers — the paper's
        claim is ~1 (linear).
    analytic:
        Eq. 26 horizon per buffer (``p`` = 0.05 default).
    norros:
        Norros fBm horizon per buffer.
    """

    surface: LossSurface
    buffers: np.ndarray
    empirical: np.ndarray
    scaling_exponent: float
    analytic: np.ndarray
    norros: np.ndarray


def fig14_horizon_scaling(
    buffer_points: int = 5,
    cutoff_points: int = 8,
    n_frames: int = paperconfig.DEFAULT_TRACE_BINS,
    relative_band: float = 0.25,
    seed: int = 14,
) -> HorizonScaling:
    """CH vs B from shuffled-trace simulation, Eq. 26 and Norros (Fig. 14)."""
    trace = mtv_trace(n_frames)
    buffers = paperconfig.buffer_grid(buffer_points, low=0.01, high=1.0)
    cutoffs = paperconfig.cutoff_grid(cutoff_points, low=0.05, high=100.0)
    surface = _shuffle_surface(
        trace=trace,
        utilization=paperconfig.MTV_UTILIZATION,
        buffers=buffers,
        cutoffs=cutoffs,
        seed=seed,
    )
    horizons = np.full(buffers.size, np.nan)
    for i in range(buffers.size):
        if surface.losses[i, -1] > 0.0:  # horizon observable only with loss
            horizons[i] = empirical_horizon(
                surface.cols, surface.losses[i], relative_band=relative_band
            )
    valid = np.isfinite(horizons) & (horizons > 0.0)
    slope = float(
        np.polyfit(np.log(buffers[valid]), np.log(horizons[valid]), 1)[0]
    ) if valid.sum() >= 2 else float("nan")

    source = mtv_source(n_frames)
    service_rate = source.mean_rate / paperconfig.MTV_UTILIZATION
    analytic = np.array(
        [
            correlation_horizon(source, buffer_size=b * service_rate)
            for b in buffers
        ]
    )
    norros = np.array(
        [
            norros_horizon(source, service_rate=service_rate, buffer_size=b * service_rate)
            for b in buffers
        ]
    )
    return HorizonScaling(
        surface=surface,
        buffers=buffers,
        empirical=horizons,
        scaling_exponent=slope,
        analytic=analytic,
        norros=norros,
    )
