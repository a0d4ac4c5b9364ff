"""Integration: the full trace -> calibration -> solver -> horizon pipeline.

Exercises the complete workflow a user of the library follows, end to end,
on short synthetic traces — including the paper's three headline findings
at miniature scale.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.whittle import whittle_hurst
from repro.core.horizon import correlation_horizon, empirical_horizon
from repro.core.solver import SolverConfig, solve_loss_rate
from repro.experiments.sweeps import plan_cutoff, run_plan
from repro.queueing.fluid_sim import simulate_trace_queue_multi
from repro.traffic.shuffle import shuffle_trace

pytestmark = pytest.mark.slow

FAST = SolverConfig(relative_gap=0.2, max_iterations=30_000)


def test_full_pipeline_mtv(mtv_trace_small):
    # 1. Estimate H from the trace.
    estimate = whittle_hurst(mtv_trace_small.rates)
    assert 0.6 < estimate.hurst < 1.0
    # 2. Calibrate the model.
    source = mtv_trace_small.to_source(hurst=estimate.hurst)
    assert source.mean_rate == pytest.approx(mtv_trace_small.mean_rate, rel=0.02)
    # 3. Solve for loss across cutoffs at fixed buffer.
    cutoffs = np.array([0.2, 1.0, 5.0, 25.0])
    _, losses = run_plan(plan_cutoff(source, utilization=0.85, normalized_buffer=0.3,
                                     cutoffs=cutoffs, config=FAST)).row_series(0)
    assert np.all(np.diff(losses) >= -1e-12)  # more correlation, more loss
    # 4. The analytic horizon lands within the swept range's magnitude.
    service_rate = source.mean_rate / 0.85
    horizon = correlation_horizon(source, buffer_size=0.3 * service_rate)
    assert 1e-3 < horizon < 1e3


def test_correlation_horizon_observable_in_model(small_source):
    """Headline 1: loss stops growing once the cutoff exceeds the horizon."""
    cutoffs = np.array([0.05, 0.2, 1.0, 4.0, 16.0, 64.0])
    _, losses = run_plan(
        plan_cutoff(small_source, utilization=0.9, normalized_buffer=0.05, cutoffs=cutoffs,
                    config=FAST)
    ).row_series(0)
    horizon = empirical_horizon(cutoffs, losses, relative_band=0.25)
    # Small buffer -> short horizon: the plateau must start well before the
    # largest cutoff swept.
    assert horizon < cutoffs[-1]


def test_marginal_dominates_hurst_in_model(three_level_marginal):
    """Headline 2: scaling the marginal moves loss more than changing H."""
    from repro.core.source import CutoffFluidSource

    def loss(hurst, scale):
        source = CutoffFluidSource.from_hurst(
            marginal=three_level_marginal.scaled(scale),
            hurst=hurst,
            mean_interval=0.05,
            cutoff=20.0,
        )
        return solve_loss_rate(source, 0.8, 0.5, config=FAST).estimate

    hurst_effect = abs(np.log10(max(loss(0.9, 1.0), 1e-12) / max(loss(0.6, 1.0), 1e-12)))
    scale_effect = abs(np.log10(max(loss(0.75, 1.4), 1e-12) / max(loss(0.75, 0.6), 1e-12)))
    assert scale_effect > hurst_effect


def test_buffer_ineffectiveness_for_long_correlation(small_source):
    """Headline 3: with long correlation, buffers stop paying off."""
    short = small_source.with_cutoff(0.2)
    long = small_source.with_cutoff(20.0)
    buffers = (0.1, 2.0)

    def decades_gained(source):
        a = solve_loss_rate(source, 0.85, buffers[0], config=FAST).estimate
        b = solve_loss_rate(source, 0.85, buffers[1], config=FAST).estimate
        return np.log10(max(a, 1e-14)) - np.log10(max(b, 1e-14))

    assert decades_gained(short) > decades_gained(long)


def test_shuffle_simulation_agrees_with_model(mtv_trace_small):
    """Figs. 4 vs 7: the model tracks the shuffled-trace simulation."""
    utilization = 0.8
    service_rate = mtv_trace_small.mean_rate / utilization
    buffers_seconds = np.array([0.05, 0.5])
    cutoff = 0.5
    rng = np.random.default_rng(99)
    shuffled = shuffle_trace(mtv_trace_small, cutoff_lag=cutoff, rng=rng)
    simulated = simulate_trace_queue_multi(
        shuffled.rates, mtv_trace_small.bin_width, service_rate,
        buffers_seconds * service_rate,
    )
    source = mtv_trace_small.to_source(hurst=0.83, cutoff=cutoff)
    for buffer_seconds, sim_loss in zip(buffers_seconds, simulated):
        model_loss = solve_loss_rate(source, utilization, float(buffer_seconds), config=FAST)
        if sim_loss > 1e-6 and model_loss.estimate > 1e-6:
            # Same order of magnitude is the paper's own agreement level.
            assert abs(np.log10(model_loss.estimate / sim_loss)) < 1.5
