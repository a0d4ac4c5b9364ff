"""Metamorphic relations derived from the paper's claims.

A metamorphic relation transforms a scenario into a follow-up scenario
with a *known* relation between the two answers, sidestepping the need
for an exact oracle:

* :class:`BufferMonotonicityRelation` / :class:`ServiceMonotonicityRelation`
  — loss is nonincreasing in buffer size and in service rate (more
  resources can only help; compared through the rigorous bound brackets);
* :class:`RateRelabelInvarianceRelation` — relabeling the rate units
  ``lambda -> k lambda`` (with service and buffer co-scaled, i.e. the
  same utilization/normalized-buffer coordinates) cannot change the
  dimensionless loss ratio;
* :class:`ShuffleInvarianceRelation` — Eq. 26 / Fig. 14: externally
  shuffling a trace with blocks no shorter than the correlation cutoff
  leaves the simulated loss unchanged (correlation beyond the horizon is
  irrelevant);
* :class:`HurstRecoveryRelation` — the marginal/Hurst/cutoff coupling
  ``H = (3 - alpha) / 2``: traces generated at ``T_c = inf`` must hand
  the :mod:`repro.analysis` estimators back the Hurst parameter the
  scenario's generating family was built to carry.  The relation is
  family-aware: it samples through ``ctx.family_trace`` and consults
  :data:`~repro.verify.matched.FAMILY_TRAITS` for the alpha band where
  each family's traces support the estimators — families whose traits
  declare no band (MMPP) are excluded *by declaration*, not by a
  hardcoded name list.
"""

from __future__ import annotations

import math
from dataclasses import replace

from repro.verify.checks import CheckContext, CheckOutcome
from repro.verify.matched import FAMILY_TRAITS
from repro.verify.scenario import Scenario

__all__ = [
    "BufferMonotonicityRelation",
    "HurstRecoveryRelation",
    "RateRelabelInvarianceRelation",
    "ServiceMonotonicityRelation",
    "ShuffleInvarianceRelation",
]


class BufferMonotonicityRelation:
    """Doubling the buffer cannot increase the loss rate.

    Compared through the brackets: the lower bound at the doubled buffer
    must not exceed the upper bound at the original buffer (both bounds
    are rigorous at any iteration count, so no convergence caveat).
    """

    name = "buffer_monotone"
    kind = "metamorphic"
    expensive = False
    factor = 2.0
    tolerance = 1e-9

    def applies(self, scenario: Scenario) -> bool:
        return scenario.normalized_buffer > 0.0

    def run(self, scenario: Scenario, ctx: CheckContext) -> CheckOutcome:
        small = ctx.solve_scenario(scenario)
        big = ctx.solve_scenario(
            scenario, normalized_buffer=scenario.normalized_buffer * self.factor
        )
        slack = self.tolerance + 1e-7 * max(small.upper, self.tolerance)
        if big.lower > small.upper + slack:
            return CheckOutcome.fail(
                self.name,
                "larger buffer produced a strictly larger loss rate",
                small_upper=small.upper,
                big_lower=big.lower,
                factor=self.factor,
            )
        return CheckOutcome.ok(
            self.name, small_upper=small.upper, big_lower=big.lower
        )


class ServiceMonotonicityRelation:
    """A faster server (lower utilization) cannot increase the loss rate."""

    name = "service_monotone"
    kind = "metamorphic"
    expensive = False
    factor = 0.8
    tolerance = 1e-9

    def applies(self, scenario: Scenario) -> bool:
        return True

    def run(self, scenario: Scenario, ctx: CheckContext) -> CheckOutcome:
        slow = ctx.solve_scenario(scenario)
        fast = ctx.solve_scenario(
            scenario, utilization=scenario.utilization * self.factor
        )
        slack = self.tolerance + 1e-7 * max(slow.upper, self.tolerance)
        if fast.lower > slow.upper + slack:
            return CheckOutcome.fail(
                self.name,
                "faster service produced a strictly larger loss rate",
                slow_upper=slow.upper,
                fast_lower=fast.lower,
                factor=self.factor,
            )
        return CheckOutcome.ok(self.name, slow_upper=slow.upper, fast_lower=fast.lower)


class RateRelabelInvarianceRelation:
    """Rescaling every rate level (with c and B co-scaled) changes nothing.

    The loss *rate* is a dimensionless ratio of work volumes; expressing
    the rates in different units — ``lambda_i -> k lambda_i`` while
    holding utilization and normalized buffer fixed, so the service rate
    and buffer relabel along — must reproduce the same bounds up to float
    round-off.  ``k`` (``scale``) is a power of two so even the round-off
    mostly cancels.
    """

    name = "relabel_invariance"
    kind = "metamorphic"
    expensive = False
    scale = 2.0
    rel_tol = 1e-6
    abs_tol = 1e-10

    def applies(self, scenario: Scenario) -> bool:
        return True

    def run(self, scenario: Scenario, ctx: CheckContext) -> CheckOutcome:
        from repro.core.marginal import DiscreteMarginal

        base = ctx.solve_scenario(scenario)
        marginal = scenario.source.marginal
        relabeled = scenario.source.with_marginal(
            DiscreteMarginal(rates=marginal.rates * self.scale, probs=marginal.probs)
        )
        scaled = ctx.solve_scenario(scenario, source=relabeled)
        scale = max(abs(base.upper), self.abs_tol)
        worst = max(abs(base.lower - scaled.lower), abs(base.upper - scaled.upper))
        if worst > self.abs_tol + self.rel_tol * scale:
            return CheckOutcome.fail(
                self.name,
                "loss rate changed under a pure rate-unit relabeling",
                base_lower=base.lower,
                base_upper=base.upper,
                scaled_lower=scaled.lower,
                scaled_upper=scaled.upper,
                divergence=worst,
            )
        return CheckOutcome.ok(self.name, divergence=worst)


class ShuffleInvarianceRelation:
    """Shuffling beyond the correlation cutoff leaves the loss unchanged.

    Samples one trace from the scenario's source, simulates it through
    the trace queue, then externally shuffles it with blocks longer than
    ``T_c`` (destroying only correlation the model says is irrelevant —
    Eq. 26, Fig. 14) and requires the loss to agree within a band that
    covers the shuffle's boundary noise.
    """

    name = "shuffle_beyond_horizon"
    kind = "metamorphic"
    expensive = True
    block_factor = 1.5
    trace_bins = 6000
    min_blocks = 20
    min_loss = 1e-3
    rel_tol = 0.35
    abs_tol = 2e-3

    def applies(self, scenario: Scenario) -> bool:
        source = scenario.source
        if source.cutoff == math.inf or source.rate_variance == 0.0:
            return False
        bin_width = max(source.mean_interval / 2.0, source.cutoff / 64.0)
        block_bins = max(1, int(round(self.block_factor * source.cutoff / bin_width)))
        # The trace must hold enough independent blocks for the shuffle to
        # be a real permutation, not a no-op.
        return self.trace_bins >= self.min_blocks * block_bins

    def run(self, scenario: Scenario, ctx: CheckContext) -> CheckOutcome:
        from repro.queueing.fluid_sim import simulate_trace_queue
        from repro.traffic.shuffle import external_shuffle

        source = scenario.source
        bin_width = max(source.mean_interval / 2.0, source.cutoff / 64.0)
        duration = self.trace_bins * bin_width
        trace = ctx.rate_trace(source, duration, bin_width, ctx.rng(scenario, salt=2))
        service_rate = source.mean_rate / scenario.utilization
        buffer_size = scenario.normalized_buffer * service_rate
        base = simulate_trace_queue(trace, bin_width, service_rate, buffer_size)
        if base.loss_rate < self.min_loss:
            return CheckOutcome.skip(
                self.name, f"simulated loss too small to compare ({base.loss_rate:.2e})"
            )
        block_bins = max(1, int(round(self.block_factor * source.cutoff / bin_width)))
        shuffled_rates = external_shuffle(trace, block_bins, ctx.rng(scenario, salt=3))
        shuffled = simulate_trace_queue(
            shuffled_rates, bin_width, service_rate, buffer_size
        )
        divergence = abs(shuffled.loss_rate - base.loss_rate)
        if divergence > self.abs_tol + self.rel_tol * base.loss_rate:
            return CheckOutcome.fail(
                self.name,
                "loss changed under a beyond-the-horizon shuffle",
                base_loss=base.loss_rate,
                shuffled_loss=shuffled.loss_rate,
                block_bins=float(block_bins),
            )
        return CheckOutcome.ok(
            self.name,
            base_loss=base.loss_rate,
            shuffled_loss=shuffled.loss_rate,
        )


class HurstRecoveryRelation:
    """Family traces at ``T_c = inf`` must estimate back ``H = (3 - alpha)/2``.

    Averages the variance-time and R/S estimators; both are biased on
    finite traces, so the band is generous — but still narrow enough to
    catch a broken sampler or a broken estimator (white noise reads
    ``H ~ 0.5``, far outside the band for small alpha).

    Which (family, alpha) pairs the relation claims is declared in
    :data:`~repro.verify.matched.FAMILY_TRAITS`, not hardcoded here: the
    estimator bias explodes at the alpha edges (near ``alpha = 2`` the
    target H approaches 0.5 and both estimators read high), and a family
    with ``hurst_alpha_band=None`` — MMPP, whose correlation is honestly
    exponential beyond the phase ladder — is out of the relation's
    domain entirely.
    """

    name = "hurst_recovery"
    kind = "metamorphic"
    expensive = True
    trace_bins = 8192
    tolerance = 0.2

    def applies(self, scenario: Scenario) -> bool:
        band = FAMILY_TRAITS[scenario.family].hurst_alpha_band
        if band is None:
            return False
        law = scenario.source.interarrival
        return band[0] <= law.alpha <= band[1] and scenario.source.rate_variance > 0.0

    def run(self, scenario: Scenario, ctx: CheckContext) -> CheckOutcome:
        from repro.analysis import rs_hurst, variance_time_hurst

        law = scenario.source.interarrival
        untruncated = replace(
            scenario, source=scenario.source.with_cutoff(math.inf)
        )
        bin_width = untruncated.source.mean_interval
        duration = self.trace_bins * bin_width
        trace = ctx.family_trace(
            untruncated, duration, bin_width, ctx.rng(scenario, salt=4)
        )
        target = (3.0 - law.alpha) / 2.0
        vt = variance_time_hurst(trace).hurst
        rs = rs_hurst(trace).hurst
        estimate = 0.5 * (vt + rs)
        if abs(estimate - target) > self.tolerance:
            return CheckOutcome.fail(
                self.name,
                "estimated Hurst parameter misses H = (3 - alpha)/2",
                target=target,
                estimate=estimate,
                variance_time=vt,
                rescaled_range=rs,
            )
        return CheckOutcome.ok(
            self.name, target=target, estimate=estimate
        )
