"""Differential oracles: independent computations that must agree.

Each oracle reruns (part of) a scenario through a second, independent
numerical path and compares:

* :class:`SpectralDirectOracle` — the batched FFT stepping kernel against
  direct ``np.convolve`` stepping (identical mathematics, disjoint code
  paths; Eq. 19-20);
* :class:`BoundOrderingOracle` — Proposition II.1: ``lower <= upper`` and
  doubling the bin count at a matched iteration budget tightens (never
  widens) both bounds;
* :class:`MonteCarloOracle` — the solver's rigorous bracket against a
  batch-mean confidence band from the event-driven Monte Carlo simulator
  of Eq. 9 (:func:`~repro.queueing.fluid_sim.simulate_source_queue`);
* :class:`MarkovEquivalenceOracle` — Section IV's claim that a Markov
  (hyperexponential) model matching the correlation structure predicts
  the same loss, computed with the spectral MMFQ solver;
* :class:`BatchedSoloOracle` — a batch solved in reversed order against
  the same tasks solved one at a time: both legs run the solver's one
  block loop, so this checks that results depend on neither stack width
  nor order — exact equality, not a tolerance;
* :class:`NetSimSolverOracle` — the *network* simulator
  (:mod:`repro.netsim`) on the scenario's one-queue topology against the
  Eq. 9 recursion of :func:`~repro.queueing.fluid_sim.simulate_source_queue`,
  exactly, on one shared sampled path.

:class:`MonteCarloOracle` is the one statistical Monte Carlo oracle: the
netsim check ties the network simulator to the same recursion exactly,
so the solver needs judging against simulation only once.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from repro.exec.task import SolveTask
from repro.verify.checks import CheckContext, CheckOutcome
from repro.verify.scenario import Scenario, netsim_single_queue

__all__ = [
    "BatchedSoloOracle",
    "BoundOrderingOracle",
    "MarkovEquivalenceOracle",
    "MonteCarloOracle",
    "NetSimSolverOracle",
    "SpectralDirectOracle",
]


def _has_loss_path(scenario: Scenario) -> bool:
    """True when the queue can actually lose work (peak above service)."""
    service_rate = scenario.source.mean_rate / scenario.utilization
    return scenario.source.marginal.peak > service_rate


class SpectralDirectOracle:
    """FFT stepping and direct-convolution stepping must agree.

    Both kernels are run with refinement disabled and a fixed iteration
    budget so they execute exactly the same number of Eq. 19-20 steps;
    the only difference left is float round-off, bounded far below the
    comparison tolerance.
    """

    name = "spectral_vs_direct"
    kind = "oracle"
    expensive = False
    iterations = 256
    rel_tol = 1e-5
    abs_tol = 1e-9

    def applies(self, scenario: Scenario) -> bool:
        return _has_loss_path(scenario)

    def run(self, scenario: Scenario, ctx: CheckContext) -> CheckOutcome:
        base = scenario.config
        fixed = replace(
            base,
            max_bins=base.initial_bins,  # no refinement: matched step counts
            relative_gap=1e-12,  # never converge early on the gap
            negligible_loss=0.0,  # never exit on the negligible path
            max_iterations=self.iterations,
            block_iterations=self.iterations,
        )
        spectral = ctx.solve_scenario(
            scenario, config=replace(fixed, use_fft=True, fft_threshold_bins=0)
        )
        direct = ctx.solve_scenario(scenario, config=replace(fixed, use_fft=False))
        scale = max(abs(spectral.lower), abs(spectral.upper), self.abs_tol)
        gap_lower = abs(spectral.lower - direct.lower)
        gap_upper = abs(spectral.upper - direct.upper)
        worst = max(gap_lower, gap_upper)
        if worst > self.abs_tol + self.rel_tol * scale:
            return CheckOutcome.fail(
                self.name,
                "spectral and direct kernels disagree beyond round-off",
                spectral_lower=spectral.lower,
                spectral_upper=spectral.upper,
                direct_lower=direct.lower,
                direct_upper=direct.upper,
                divergence=worst,
            )
        return CheckOutcome.ok(self.name, divergence=worst)


class BatchedSoloOracle:
    """A batch must reproduce one-at-a-time solves *bit for bit*.

    Builds a small shape-homogeneous batch — the scenario's task plus
    buffer-scaled siblings sharing its solver configuration — solves it
    in reversed order through the batched hook, solves every member alone
    through the (cached) solve hook, and requires exact equality of every
    result field.  Both legs run the solver's one block loop, at stack
    width K and at width 1, so the check proves that a result depends on
    neither the width of its stack nor its position in it (stacked real
    FFTs transform rows independently): any nonzero difference is a bug,
    not round-off.  The FFT threshold is forced to zero so the stacked
    spectral path genuinely engages at fuzz-sized grids.
    """

    name = "batched_vs_solo"
    kind = "oracle"
    expensive = False
    iterations = 192
    buffer_factors = (1.0, 1.25, 1.5)

    def applies(self, scenario: Scenario) -> bool:
        return _has_loss_path(scenario) and scenario.normalized_buffer > 0.0

    def run(self, scenario: Scenario, ctx: CheckContext) -> CheckOutcome:
        base = scenario.config
        fixed = replace(
            base,
            max_bins=base.initial_bins,  # matched budgets, as the kernel pair oracle
            relative_gap=1e-12,
            negligible_loss=0.0,
            max_iterations=self.iterations,
            block_iterations=self.iterations,
            use_fft=True,
            fft_threshold_bins=0,  # engage the stacked spectral path
        )
        buffers = [
            scenario.normalized_buffer * factor for factor in self.buffer_factors
        ]
        tasks = [
            SolveTask(
                source=scenario.source,
                utilization=scenario.utilization,
                normalized_buffer=buffer,
                config=fixed,
            )
            for buffer in buffers
        ]
        batched = ctx.solve_batch(tasks[::-1])[::-1]
        if len(batched) != len(tasks):
            return CheckOutcome.fail(
                self.name,
                f"batched solve returned {len(batched)} results for {len(tasks)} tasks",
            )
        solo = [ctx.solve(task) for task in tasks]
        for position, (from_batch, from_solo) in enumerate(zip(batched, solo)):
            exact = (
                from_batch.lower == from_solo.lower
                and from_batch.upper == from_solo.upper
                and from_batch.iterations == from_solo.iterations
                and from_batch.bins == from_solo.bins
                and from_batch.converged == from_solo.converged
                and from_batch.negligible == from_solo.negligible
            )
            if not exact:
                return CheckOutcome.fail(
                    self.name,
                    "batched and solo solves differ (results must not depend "
                    "on stack width or order)",
                    member=float(position),
                    normalized_buffer=buffers[position],
                    batched_lower=from_batch.lower,
                    batched_upper=from_batch.upper,
                    solo_lower=from_solo.lower,
                    solo_upper=from_solo.upper,
                )
        return CheckOutcome.ok(
            self.name,
            members=float(len(tasks)),
            lower=solo[0].lower,
            upper=solo[0].upper,
        )


class BoundOrderingOracle:
    """``lower <= upper`` always; refining the grid tightens both bounds.

    Proposition II.1 makes the floor/ceil chains monotone in the bin
    count at any matched iteration count: ``lower`` may only rise and
    ``upper`` may only fall when M doubles.  Violations mean the
    discretization or the boundary folding is biased.
    """

    name = "bound_ordering"
    kind = "oracle"
    expensive = False
    iterations = 192
    tolerance = 1e-9

    def applies(self, scenario: Scenario) -> bool:
        return _has_loss_path(scenario)

    def run(self, scenario: Scenario, ctx: CheckContext) -> CheckOutcome:
        base = scenario.config
        free = ctx.solve_scenario(scenario)
        if free.lower > free.upper + self.tolerance:
            return CheckOutcome.fail(
                self.name,
                "lower bound exceeds upper bound",
                lower=free.lower,
                upper=free.upper,
            )
        fixed = replace(
            base,
            max_bins=base.initial_bins,
            relative_gap=1e-12,
            negligible_loss=0.0,
            max_iterations=self.iterations,
            block_iterations=self.iterations,
        )
        coarse = ctx.solve_scenario(scenario, config=fixed)
        fine = ctx.solve_scenario(
            scenario,
            config=replace(
                fixed,
                initial_bins=2 * base.initial_bins,
                max_bins=2 * base.initial_bins,
            ),
        )
        scale = max(coarse.upper, self.tolerance)
        slack = self.tolerance + 1e-7 * scale
        if fine.lower < coarse.lower - slack or fine.upper > coarse.upper + slack:
            return CheckOutcome.fail(
                self.name,
                "grid refinement widened a bound (Prop. II.1 monotonicity)",
                coarse_lower=coarse.lower,
                coarse_upper=coarse.upper,
                fine_lower=fine.lower,
                fine_upper=fine.upper,
            )
        return CheckOutcome.ok(
            self.name,
            coarse_gap=coarse.upper - coarse.lower,
            fine_gap=fine.upper - fine.lower,
        )


class MonteCarloOracle:
    """The solver bracket must intersect a Monte Carlo confidence band.

    Runs ``batches`` independent replications of the Eq. 9 recursion
    (each with its own warmup), forms the batch-mean 99 % band, and
    requires ``[lower - slack, upper + slack]`` to overlap it.  Cases
    whose loss is too small to resolve by simulation are skipped.
    """

    name = "solver_vs_monte_carlo"
    kind = "oracle"
    expensive = True
    batches = 6
    intervals = 4000
    warmup = 800
    z_score = 2.58
    min_loss = 1e-4
    slack = 0.25

    def applies(self, scenario: Scenario) -> bool:
        return _has_loss_path(scenario)

    def run(self, scenario: Scenario, ctx: CheckContext) -> CheckOutcome:
        from repro.queueing.fluid_sim import simulate_source_queue

        result = ctx.solve_scenario(scenario)
        if result.upper < self.min_loss:
            return CheckOutcome.skip(
                self.name, f"loss below Monte Carlo resolution ({result.upper:.2e})"
            )
        service_rate = scenario.source.mean_rate / scenario.utilization
        buffer_size = scenario.normalized_buffer * service_rate
        rng = ctx.rng(scenario, salt=1)
        losses = np.array([
            simulate_source_queue(
                scenario.source,
                service_rate,
                buffer_size,
                intervals=self.intervals,
                rng=rng,
                warmup_intervals=self.warmup,
            ).loss_rate
            for _ in range(self.batches)
        ])
        mean = float(losses.mean())
        half_width = float(
            self.z_score * losses.std(ddof=1) / math.sqrt(self.batches)
        )
        band_low = mean - half_width
        band_high = mean + half_width
        lo = result.lower * (1.0 - self.slack) - self.min_loss
        hi = result.upper * (1.0 + self.slack) + self.min_loss
        if band_high < lo or band_low > hi:
            return CheckOutcome.fail(
                self.name,
                "Monte Carlo confidence band misses the solver bracket",
                mc_mean=mean,
                mc_half_width=half_width,
                solver_lower=result.lower,
                solver_upper=result.upper,
            )
        return CheckOutcome.ok(
            self.name,
            mc_mean=mean,
            solver_lower=result.lower,
            solver_upper=result.upper,
        )


class NetSimSolverOracle:
    """The network simulator must replay the Eq. 9 recursion exactly.

    Samples one path of ``intervals`` ``(T_n, lambda_n)`` pairs from the
    scenario's source, feeds it as a
    :class:`~repro.netsim.sources.SegmentSource` to the scenario's
    one-node topology (:func:`~repro.verify.scenario.netsim_single_queue`)
    through the ``simulate_network`` hook, and runs
    :func:`~repro.queueing.fluid_sim.simulate_source_queue` with an rng
    built from the same seed, which draws the same path.  Within one
    interval the drift sign is constant, so clipping continuously in time
    (netsim) loses exactly what clipping once per interval (Eq. 9) loses:
    ``loss_rate`` and ``arrived_work`` must agree to ``rel_tol``, with an
    absolute floor on ``loss_rate`` for paths that lose nothing.

    The check makes no solve and has no confidence band: the recursion
    the solver brackets is judged against the solver by
    :class:`MonteCarloOracle`, the one statistical Monte Carlo oracle.
    """

    name = "netsim_vs_solver"
    kind = "oracle"
    expensive = True
    intervals = 3000
    rel_tol = 1e-9
    loss_floor = 1e-12

    def applies(self, scenario: Scenario) -> bool:
        return _has_loss_path(scenario)

    def run(self, scenario: Scenario, ctx: CheckContext) -> CheckOutcome:
        from repro.netsim import SegmentSource
        from repro.queueing.fluid_sim import simulate_source_queue

        seed = int(ctx.rng(scenario, salt=3).integers(0, 1 << 62))
        path = scenario.source.sample_path(self.intervals, np.random.default_rng(seed))
        segments = SegmentSource(
            tuple(path.durations.tolist()), tuple(path.rates.tolist())
        )
        simulated = ctx.simulate_network(
            netsim_single_queue(scenario, segments),
            duration=segments.total_time,
            warmup=0.0,
            seed=seed,
        ).node_stats["queue"]
        service_rate = scenario.source.mean_rate / scenario.utilization
        reference = simulate_source_queue(
            scenario.source,
            service_rate,
            scenario.normalized_buffer * service_rate,
            intervals=self.intervals,
            rng=np.random.default_rng(seed),
        )
        loss_gap = abs(simulated.loss_rate - reference.loss_rate)
        work_gap = abs(simulated.arrived_work - reference.arrived_work)
        if loss_gap > max(
            self.rel_tol * abs(reference.loss_rate), self.loss_floor
        ) or work_gap > self.rel_tol * abs(reference.arrived_work):
            return CheckOutcome.fail(
                self.name,
                "network simulator departs from the Eq. 9 recursion on a shared path",
                netsim_loss=simulated.loss_rate,
                recursion_loss=reference.loss_rate,
                netsim_work=simulated.arrived_work,
                recursion_work=reference.arrived_work,
            )
        return CheckOutcome.ok(
            self.name,
            loss_rate=reference.loss_rate,
            loss_gap=loss_gap,
            work_gap=work_gap,
        )


class MarkovEquivalenceOracle:
    """A correlation-matched Markov model predicts the same loss (Section IV).

    Builds the source's Markov-modulated twin (its marginal coarsened to
    ``max_levels`` rates, its interval law fitted by a ``phases``-phase
    hyperexponential) and solves that CTMC's queue with the independent
    Anick-Mitra-Sondhi spectral method.  The interval law is approximate,
    so agreement is judged on the order of magnitude: the two predictions
    must stay within ``max_log10_ratio`` decades.
    """

    name = "solver_vs_markov"
    kind = "oracle"
    expensive = True
    phases = 10
    max_levels = 6
    min_loss = 1e-5
    max_log10_ratio = 1.0

    def applies(self, scenario: Scenario) -> bool:
        law = scenario.source.interarrival
        # The NNLS ccdf fit needs a few decades of usable tail and a
        # finite span; extreme-alpha and atom-dominated cases are out of
        # the comparator's faithful range, not model bugs.
        return (
            _has_loss_path(scenario)
            and law.cutoff != math.inf
            and law.cutoff >= 4.0 * law.theta
            and 1.15 <= law.alpha <= 1.9
            and scenario.utilization <= 0.95
        )

    def run(self, scenario: Scenario, ctx: CheckContext) -> CheckOutcome:
        from repro.queueing.mmfq import mmfq_loss_rate
        from repro.traffic import MarkovModulatedSource

        result = ctx.solve_scenario(scenario)
        if not result.converged or result.estimate < self.min_loss:
            return CheckOutcome.skip(
                self.name, "reference loss unconverged or below comparison floor"
            )
        source = scenario.source
        coarse = source.with_marginal(source.marginal.rebinned(self.max_levels))
        model = MarkovModulatedSource.from_source(coarse, phases=self.phases).fluid_model()
        service_rate = source.mean_rate / scenario.utilization
        buffer_size = scenario.normalized_buffer * service_rate
        markov_loss = mmfq_loss_rate(model, service_rate, buffer_size)
        ratio = math.log10(max(markov_loss, 1e-300) / result.estimate)
        if abs(ratio) > self.max_log10_ratio:
            return CheckOutcome.fail(
                self.name,
                "Markov comparator disagrees beyond "
                f"{self.max_log10_ratio:g} decades",
                markov_loss=markov_loss,
                solver_estimate=result.estimate,
                log10_ratio=ratio,
            )
        return CheckOutcome.ok(
            self.name,
            markov_loss=markov_loss,
            solver_estimate=result.estimate,
            log10_ratio=ratio,
        )
