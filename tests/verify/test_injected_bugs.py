"""Prove every oracle and metamorphic relation actually fires.

The first full fuzz sweep surfaced no discrepancy, which is only good
news if the checks are capable of failing.  Each test here injects a
deliberate violation through the :class:`~repro.verify.CheckContext`
fault hooks — a lying ``solve`` keyed on task properties, or a broken
``rate_trace`` sampler — and asserts the corresponding check reports a
failure (and, for contrast, passes on the honest implementation).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

import numpy as np

from repro.core.marginal import DiscreteMarginal
from repro.core.results import LossRateResult
from repro.core.source import CutoffFluidSource
from repro.core.truncated_pareto import TruncatedPareto
from repro.exec.task import SolveTask, solve_task_batch
from repro.verify import (
    BatchedSoloOracle,
    BoundOrderingOracle,
    BufferMonotonicityRelation,
    CheckContext,
    HurstRecoveryRelation,
    MarkovEquivalenceOracle,
    MatchedModelsOracle,
    MonteCarloOracle,
    NetSimSolverOracle,
    RateRelabelInvarianceRelation,
    Scenario,
    ServiceMonotonicityRelation,
    ShuffleInvarianceRelation,
    SpectralDirectOracle,
    sample_family_trace,
)


def lying_solve(
    predicate: Callable[[SolveTask], bool],
    transform: Callable[[LossRateResult], LossRateResult],
) -> Callable[[SolveTask], LossRateResult]:
    """An honest solve, except where ``predicate`` matches — the injected bug."""

    def solve(task: SolveTask) -> LossRateResult:
        result = task.run()
        return transform(result) if predicate(task) else result

    return solve


def scaled(factor: float) -> Callable[[LossRateResult], LossRateResult]:
    return lambda result: replace(
        result, lower=result.lower * factor, upper=result.upper * factor
    )


def assert_fires(check, scenario: Scenario, ctx: CheckContext) -> None:
    assert check.applies(scenario), "fixture scenario must be in the check's domain"
    outcome = check.run(scenario, ctx)
    assert not outcome.skipped, f"{check.name} skipped instead of judging"
    assert not outcome.passed, f"{check.name} did not fire on the injected bug"
    assert outcome.message


def assert_honest_pass(check, scenario: Scenario) -> None:
    outcome = check.run(scenario, CheckContext())
    assert not outcome.skipped and outcome.passed, (
        f"{check.name} must pass the honest implementation: {outcome.message}"
    )


# --------------------------------------------------------------------- #
# oracles
# --------------------------------------------------------------------- #


def test_spectral_direct_oracle_fires_on_kernel_divergence(lossy_scenario):
    check = SpectralDirectOracle()
    assert_honest_pass(check, lossy_scenario)
    ctx = CheckContext(
        solve=lying_solve(lambda task: not task.config.use_fft, scaled(1.01))
    )
    assert_fires(check, lossy_scenario, ctx)


def test_bound_ordering_oracle_fires_on_inverted_bounds(lossy_scenario):
    # LossRateResult itself refuses lower > upper, so the injection has
    # to smuggle the inversion past the constructor validation.
    def invert(result: LossRateResult) -> LossRateResult:
        bad = replace(result)
        object.__setattr__(bad, "lower", result.upper + 1.0)
        return bad

    check = BoundOrderingOracle()
    assert_honest_pass(check, lossy_scenario)
    ctx = CheckContext(solve=lying_solve(lambda task: True, invert))
    assert_fires(check, lossy_scenario, ctx)


def test_bound_ordering_oracle_fires_on_widening_refinement(lossy_scenario):
    # A refinement step that *loosens* the upper bound violates the
    # Prop. II.1 monotonicity in the bin count.
    base_bins = lossy_scenario.config.initial_bins
    check = BoundOrderingOracle()
    ctx = CheckContext(
        solve=lying_solve(
            lambda task: task.config.initial_bins == 2 * base_bins,
            lambda result: replace(result, upper=result.upper * 1.5 + 0.1),
        )
    )
    assert_fires(check, lossy_scenario, ctx)


def test_monte_carlo_oracle_fires_on_biased_solver(lossy_scenario):
    check = MonteCarloOracle()
    assert_honest_pass(check, lossy_scenario)
    ctx = CheckContext(solve=lying_solve(lambda task: True, scaled(50.0)))
    assert_fires(check, lossy_scenario, ctx)


def test_batched_solo_oracle_fires_on_lying_batch_path(lossy_scenario):
    # The stacked kernel promises bit-identity, so even a one-ulp-scale
    # perturbation of a single batch member must trip the oracle.
    def skewed_batch(tasks):
        results = [task.run() for task in tasks]
        results[-1] = replace(
            results[-1],
            lower=results[-1].lower * (1.0 + 1e-9),
            upper=results[-1].upper * (1.0 + 1e-9),
        )
        return results

    check = BatchedSoloOracle()
    assert_honest_pass(check, lossy_scenario)
    assert_fires(check, lossy_scenario, CheckContext(solve_batch=skewed_batch))


def test_batched_solo_oracle_fires_on_short_batch(lossy_scenario):
    check = BatchedSoloOracle()
    ctx = CheckContext(solve_batch=lambda tasks: [tasks[0].run()])
    assert_fires(check, lossy_scenario, ctx)


def test_batched_solo_oracle_fires_on_order_dependent_batch(lossy_scenario):
    # A batch path that stacks members by buffer size and forgets to
    # restore input order: honest numbers, assigned to the wrong tasks.
    # Only a batch handed over out of buffer order can expose it.
    def sorted_batch(tasks):
        return solve_task_batch(sorted(tasks, key=lambda task: task.normalized_buffer))

    check = BatchedSoloOracle()
    assert_fires(check, lossy_scenario, CheckContext(solve_batch=sorted_batch))


def _lying_queue_stats(**fields: Callable[[float], float]):
    """A network simulator that misreports the given queue-stat fields."""
    from repro.netsim import simulate

    def lying_sim(topology, duration, warmup, seed):
        result = simulate(topology, duration=duration, warmup=warmup, seed=seed)
        queue = result.node_stats["queue"]
        bad = replace(
            queue, **{name: lie(getattr(queue, name)) for name, lie in fields.items()}
        )
        return replace(result, node_stats={**result.node_stats, "queue": bad})

    return lying_sim


def test_netsim_oracle_fires_on_lying_simulator(lossy_scenario):
    # A network simulator that over-reports loss 100x.
    check = NetSimSolverOracle()
    assert_honest_pass(check, lossy_scenario)
    ctx = CheckContext(
        simulate_network=_lying_queue_stats(loss_rate=lambda loss: loss * 100.0 + 1.0)
    )
    assert_fires(check, lossy_scenario, ctx)


def test_netsim_oracle_fires_on_misreported_arrivals(lossy_scenario):
    # The check is exact, so a simulator that loses track of one part in
    # a million of the arriving work must trip it, loss rate untouched.
    check = NetSimSolverOracle()
    ctx = CheckContext(
        simulate_network=_lying_queue_stats(arrived_work=lambda work: work * (1.0 + 1e-6))
    )
    assert_fires(check, lossy_scenario, ctx)


def test_markov_oracle_fires_on_decade_scale_bias(lossy_scenario):
    check = MarkovEquivalenceOracle()
    assert_honest_pass(check, lossy_scenario)
    ctx = CheckContext(solve=lying_solve(lambda task: True, scaled(1000.0)))
    assert_fires(check, lossy_scenario, ctx)


def test_matched_models_fires_on_wrong_marginal_mmpp(lossy_scenario):
    # A lying MMPP generator whose rates run 30 % hot: the marginal no
    # longer matches the scenario's, the offered load inflates, and the
    # exact-marginal confidence-band criterion must catch it.
    scenario = replace(lossy_scenario, family="mmpp", normalized_buffer=1.0)
    check = MatchedModelsOracle()
    assert_honest_pass(check, scenario)

    def hot_marginal(scen, duration, bin_width, rng):
        return sample_family_trace(scen, duration, bin_width, rng) * 1.3

    assert_fires(check, scenario, CheckContext(family_trace=hot_marginal))


def test_matched_models_fires_on_wrong_hurst_ladder(lossy_scenario):
    # A lying MMPP whose sojourn ladder runs 50x slow: it still reports
    # the target Hurst parameter, but its generated correlation extends
    # 50x beyond the declared horizon, so bursts persist across the
    # buffer's time scale and the loss inflates past the bracket.
    from repro.traffic import MarkovModulatedSource, mmpp_rates

    scenario = replace(lossy_scenario, family="mmpp", normalized_buffer=1.0)
    check = MatchedModelsOracle()
    assert_honest_pass(check, scenario)

    def slow_ladder(scen, duration, bin_width, rng):
        honest = MarkovModulatedSource.from_source(scen.source)
        lying = MarkovModulatedSource(
            marginal=honest.marginal,
            phase_weights=honest.phase_weights,
            phase_rates=honest.phase_rates / 50.0,
            target_hurst=honest.target_hurst,
            horizon=honest.horizon,
        )
        return mmpp_rates(lying, duration, bin_width, rng)

    assert_fires(check, scenario, CheckContext(family_trace=slow_ladder))


def test_matched_models_fires_on_family_swap(lossy_scenario):
    # A dispatch bug that hands back the on/off surrogate when asked for
    # MMPP.  On a marginal with a nonzero floor the two-moment on/off
    # peak sits below the service rate, so the swapped trace loses
    # nothing where the real family loses ~10^-1.
    source = CutoffFluidSource(
        marginal=DiscreteMarginal(rates=[2.0, 6.0], probs=[0.9, 0.1]),
        interarrival=TruncatedPareto(theta=0.05, alpha=1.4, cutoff=2.0),
    )
    scenario = replace(
        lossy_scenario, source=source, utilization=0.8, family="mmpp"
    )
    check = MatchedModelsOracle()
    assert_honest_pass(check, scenario)

    def swapped(scen, duration, bin_width, rng):
        return sample_family_trace(replace(scen, family="onoff"), duration, bin_width, rng)

    assert_fires(check, scenario, CheckContext(family_trace=swapped))


def test_matched_models_tolerates_a_pure_hurst_swap(lossy_scenario):
    # The control experiment — and the paper's own claim: replacing H
    # alone, at a matched marginal and mean sojourn, moves the loss so
    # little inside the horizon that the oracle keeps passing.  Only the
    # time-scale distortions above are detectable.
    from repro.traffic import MarkovModulatedSource, mmpp_rates

    scenario = replace(lossy_scenario, family="mmpp", normalized_buffer=1.0)

    def swapped_hurst(scen, duration, bin_width, rng):
        model = MarkovModulatedSource.from_hurst(
            scen.source.marginal,
            hurst=0.52,
            mean_interval=scen.source.mean_interval,
            horizon=scen.source.cutoff,
        )
        return mmpp_rates(model, duration, bin_width, rng)

    outcome = MatchedModelsOracle().run(
        scenario, CheckContext(family_trace=swapped_hurst)
    )
    assert not outcome.skipped and outcome.passed


# --------------------------------------------------------------------- #
# metamorphic relations
# --------------------------------------------------------------------- #


def test_buffer_monotonicity_fires_on_nonmonotone_solver(lossy_scenario):
    check = BufferMonotonicityRelation()
    assert_honest_pass(check, lossy_scenario)
    threshold = lossy_scenario.normalized_buffer * 1.5
    ctx = CheckContext(
        solve=lying_solve(
            lambda task: task.normalized_buffer > threshold,
            lambda result: replace(result, lower=10.0, upper=20.0),
        )
    )
    assert_fires(check, lossy_scenario, ctx)


def test_service_monotonicity_fires_on_nonmonotone_solver(lossy_scenario):
    check = ServiceMonotonicityRelation()
    assert_honest_pass(check, lossy_scenario)
    threshold = lossy_scenario.utilization * 0.9
    ctx = CheckContext(
        solve=lying_solve(
            lambda task: task.utilization < threshold,
            lambda result: replace(result, lower=10.0, upper=20.0),
        )
    )
    assert_fires(check, lossy_scenario, ctx)


def test_relabel_invariance_fires_on_unit_dependence(lossy_scenario):
    check = RateRelabelInvarianceRelation()
    assert_honest_pass(check, lossy_scenario)
    peak_threshold = lossy_scenario.source.marginal.peak * 1.5
    ctx = CheckContext(
        solve=lying_solve(
            lambda task: task.source.marginal.peak > peak_threshold, scaled(1.01)
        )
    )
    assert_fires(check, lossy_scenario, ctx)


def test_shuffle_invariance_fires_on_long_range_sampler(lossy_scenario):
    # Injected bug: a sampler whose output is sorted has correlation far
    # beyond the claimed horizon T_c; the beyond-horizon shuffle then
    # changes the loss, which is exactly what the relation must detect.
    # The buffer is sized near the horizon so the loss is sensitive to
    # multi-block rate runs (a tiny buffer only sees the marginal law).
    def sorted_trace(
        source: CutoffFluidSource,
        duration: float,
        bin_width: float,
        rng: np.random.Generator,
    ) -> np.ndarray:
        return np.sort(source.rate_trace(duration, bin_width, rng))

    scenario = replace(lossy_scenario, normalized_buffer=3.0)
    check = ShuffleInvarianceRelation()
    assert_honest_pass(check, scenario)
    assert_fires(check, scenario, CheckContext(rate_trace=sorted_trace))


def test_hurst_recovery_fires_on_white_noise_sampler(lossy_scenario):
    # White noise reads H ~ 0.5; the fixture's alpha = 1.4 demands 0.8.
    def white_noise(
        source: CutoffFluidSource,
        duration: float,
        bin_width: float,
        rng: np.random.Generator,
    ) -> np.ndarray:
        bins = max(1, int(round(duration / bin_width)))
        marginal = source.marginal
        return rng.choice(np.asarray(marginal.rates), size=bins, p=marginal.probs)

    check = HurstRecoveryRelation()
    assert_honest_pass(check, lossy_scenario)
    assert_fires(check, lossy_scenario, CheckContext(rate_trace=white_noise))


def test_every_default_check_is_covered():
    """Guard: a check added to the battery needs an injected-bug test here."""
    from repro.verify import default_checks

    covered = {
        "spectral_vs_direct",
        "batched_vs_solo",
        "bound_ordering",
        "solver_vs_monte_carlo",
        "solver_vs_markov",
        "netsim_vs_solver",
        "buffer_monotone",
        "service_monotone",
        "relabel_invariance",
        "shuffle_beyond_horizon",
        "hurst_recovery",
        "matched_models",
    }
    assert {check.name for check in default_checks()} == covered
