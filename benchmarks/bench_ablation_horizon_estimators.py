"""Horizon-estimator ablation — Eq. 26 vs its CLT variant vs Norros vs CTS.

DESIGN.md flags a derivation subtlety in the paper's Eq. 26: a strict CLT
treatment of the n-interval excess-work variance yields a horizon
quadratic in B, while the printed formula is linear — and the paper's own
trace experiments (Fig. 14) support the *linear* scaling.  This ablation
pits four analytic horizon estimates against the empirical horizon
extracted from solver loss curves, across buffer sizes.
"""

from __future__ import annotations

import numpy as np

from _common import persist, run_once
from repro.core.horizon import (
    correlation_horizon,
    correlation_horizon_clt,
    empirical_horizon,
    norros_horizon,
)
from repro.core.marginal import DiscreteMarginal
from repro.core.source import CutoffFluidSource
from repro.experiments.reporting import format_series
from repro.experiments.sweeps import plan_cutoff, run_plan
from repro.queueing.cts import dominant_time_scale

UTILIZATION = 0.85
BUFFERS = np.array([0.05, 0.15, 0.45, 1.35])
CUTOFFS = np.logspace(-1.3, 1.8, 9)


def test_ablation_horizon_estimators(benchmark):
    marginal = DiscreteMarginal.two_state(low=0.0, high=2.0, prob_high=0.5)
    source = CutoffFluidSource.from_hurst(
        marginal=marginal, hurst=0.8, mean_interval=0.05, cutoff=float(CUTOFFS[-1])
    )
    service_rate = source.mean_rate / UTILIZATION

    def run():
        empirical, eq26, clt, norros, cts = [], [], [], [], []
        for buffer_seconds in BUFFERS:
            _, losses = run_plan(
                plan_cutoff(source, UTILIZATION, float(buffer_seconds), CUTOFFS)
            ).row_series(0)
            empirical.append(empirical_horizon(CUTOFFS, losses, relative_band=0.25))
            buffer_size = buffer_seconds * service_rate
            eq26.append(correlation_horizon(source, buffer_size))
            clt.append(correlation_horizon_clt(source, buffer_size))
            norros.append(norros_horizon(source, service_rate, buffer_size))
            cts.append(dominant_time_scale(source, service_rate, buffer_size).time_scale)
        return map(np.asarray, (empirical, eq26, clt, norros, cts))

    empirical, eq26, clt, norros, cts = run_once(benchmark, run)
    text = format_series(
        "buffer_s",
        BUFFERS,
        {
            "empirical": empirical,
            "eq26": eq26,
            "eq26_clt": clt,
            "norros": norros,
            "cts_ld": cts,
        },
        "Ablation — correlation-horizon estimators vs the empirical horizon",
    )

    def slope(values: np.ndarray) -> float:
        return float(np.polyfit(np.log(BUFFERS), np.log(values), 1)[0])

    text += (
        f"\n\nlog-log slopes vs B: empirical {slope(empirical):.2f}, "
        f"eq26 {slope(eq26):.2f}, clt {slope(clt):.2f}, "
        f"norros {slope(norros):.2f}, cts {slope(cts):.2f}\n"
        "(the empirical horizon scales near-linearly, matching Eq. 26 / Norros "
        "and contradicting the quadratic CLT variant — as the paper's Fig. 14 "
        "trace experiments found)"
    )
    persist("ablation_horizon_estimators", text)
    empirical_slope = slope(empirical)
    assert abs(empirical_slope - 1.0) < abs(empirical_slope - 2.0)  # linear beats quadratic
    assert np.all(np.diff(empirical) >= -1e-9)
