"""The matched-moment model comparison: traits, oracle domain, acceptance grid.

``matched_models`` is the check that carries the paper's actual thesis:
competing traffic models realized at matched marginal moments and Hurst
parameter must see the same loss wherever the correlation horizon covers
the buffer's time scale.  These tests pin the declaration table other
checks consult (``FAMILY_TRAITS``), the oracle's domain boundaries, the
comparison report plumbing, and — slow-marked — the seeded acceptance
grid that runs the real five-family comparison in-suite.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.core.marginal import DiscreteMarginal
from repro.core.results import LossRateResult
from repro.core.source import CutoffFluidSource
from repro.core.truncated_pareto import TruncatedPareto
from repro.verify import (
    FAMILIES,
    FAMILY_TRAITS,
    FUZZ_SOLVER_CONFIG,
    MATCHED_FAMILIES,
    CheckContext,
    ComparisonReport,
    ComparisonRow,
    HurstRecoveryRelation,
    MatchedModelsOracle,
    Scenario,
    ScenarioGenerator,
    netsim_single_queue,
    run_model_comparison,
    sample_family_trace,
)


# --------------------------------------------------------------------- #
# the traits declaration table
# --------------------------------------------------------------------- #


def test_every_family_declares_traits():
    assert set(FAMILY_TRAITS) == set(FAMILIES)
    for traits in FAMILY_TRAITS.values():
        assert traits.label
        if traits.hurst_alpha_band is not None:
            lo, hi = traits.hurst_alpha_band
            assert 1.0 < lo < hi < 2.0


def test_exact_marginal_families_are_the_resampling_ones():
    # Renewal and MMPP redraw rates i.i.d. from the marginal; the other
    # four only share two moments with it.
    exact = {name for name, t in FAMILY_TRAITS.items() if t.exact_marginal}
    assert exact == {"renewal", "mmpp"}


def test_hurst_recovery_consults_the_traits_not_a_hardcoded_list(lossy_scenario):
    # Regression: the relation's domain must follow the declaration table.
    # MMPP is excluded *by its declared band being None* — honestly
    # short-range dependent beyond the phase ladder — not by name.
    check = HurstRecoveryRelation()
    assert FAMILY_TRAITS["mmpp"].hurst_alpha_band is None
    assert check.applies(replace(lossy_scenario, family="renewal"))
    assert not check.applies(replace(lossy_scenario, family="mmpp"))


def test_hurst_recovery_respects_the_declared_alpha_band(lossy_scenario):
    # The fixture's alpha = 1.4 sits inside every declared band; pushing
    # alpha outside the family's band must push the case out of domain.
    lo, hi = FAMILY_TRAITS["mginf"].hurst_alpha_band
    edge = CutoffFluidSource(
        marginal=lossy_scenario.source.marginal,
        interarrival=TruncatedPareto(theta=0.05, alpha=(1.0 + lo) / 2.0, cutoff=2.0),
    )
    scenario = replace(lossy_scenario, source=edge, family="mginf")
    assert not HurstRecoveryRelation().applies(scenario)
    assert HurstRecoveryRelation().applies(replace(lossy_scenario, family="mginf"))


# --------------------------------------------------------------------- #
# family trace generation
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("family", MATCHED_FAMILIES)
def test_family_traces_land_near_the_matched_moments(lossy_scenario, family):
    scenario = replace(lossy_scenario, family=family)
    rng = np.random.default_rng(20260808)
    trace = sample_family_trace(scenario, 200.0, 0.05, rng)
    marginal = scenario.source.marginal
    assert np.all(trace >= 0.0)
    assert float(trace.mean()) == pytest.approx(marginal.mean, rel=0.15)
    assert float(trace.std()) == pytest.approx(marginal.std, rel=0.35)


def test_unknown_family_is_an_error(lossy_scenario):
    scenario = replace(lossy_scenario, family="renewal")
    with pytest.raises(ValueError, match="unknown model family"):
        sample_family_trace(replace(scenario, family="poisson"), 1.0, 0.1, np.random.default_rng(0))


# --------------------------------------------------------------------- #
# the oracle's domain and report plumbing
# --------------------------------------------------------------------- #


def test_matched_queue_is_the_model_queue(lossy_scenario):
    from repro.netsim import QueueNode, SegmentSource, SinkNode

    source = SegmentSource.from_array(np.array([1.0, 2.0]), bin_width=0.5)
    topo = netsim_single_queue(lossy_scenario, source)
    queue, sink = topo.nodes
    assert isinstance(queue, QueueNode) and isinstance(sink, SinkNode)
    service = lossy_scenario.source.mean_rate / lossy_scenario.utilization
    assert queue.service_rate == pytest.approx(service)
    assert queue.buffer == pytest.approx(lossy_scenario.normalized_buffer * service)
    (flow,) = topo.flows
    assert flow.source is source
    assert flow.route == ("queue", "sink")


def test_oracle_domain_excludes_renewal_and_lossless(lossy_scenario):
    oracle = MatchedModelsOracle()
    assert oracle.applies(replace(lossy_scenario, family="mmpp"))
    # Renewal *is* the solver's model — nothing to compare against.
    assert not oracle.applies(replace(lossy_scenario, family="renewal"))
    # Peak below service: no loss path, nothing to adjudicate.
    assert not oracle.applies(
        replace(lossy_scenario, family="mmpp", utilization=0.4)
    )


def test_oracle_skips_onoff_without_a_surrogate_loss_path():
    # A marginal whose loss lives in a tail above mu/p_on: the two-moment
    # on/off surrogate peaks below the service rate, so the comparison is
    # outside the family's expressive range by declaration, not a bug.
    source = CutoffFluidSource(
        marginal=DiscreteMarginal(rates=[2.0, 6.0], probs=[0.9, 0.1]),
        interarrival=TruncatedPareto(theta=0.05, alpha=1.4, cutoff=2.0),
    )
    scenario = Scenario(
        source=source,
        utilization=0.7,
        normalized_buffer=0.1,
        config=FUZZ_SOLVER_CONFIG,
        seed=1,
        regime="alpha_mid",
        family="onoff",
    )
    mean, std = source.marginal.mean, source.marginal.std
    surrogate_peak = mean / (mean**2 / (mean**2 + std**2))
    assert surrogate_peak <= source.mean_rate / scenario.utilization
    assert not MatchedModelsOracle().applies(scenario)
    # The same coordinates with an exact-marginal family stay in domain.
    assert MatchedModelsOracle().applies(replace(scenario, family="mmpp"))


def test_oracle_skips_below_resolution(lossy_scenario):
    def tiny_solve(task):
        return replace(task.run(), lower=1e-12, upper=1e-9)

    outcome = MatchedModelsOracle().run(
        replace(lossy_scenario, family="mmpp"), CheckContext(solve=tiny_solve)
    )
    assert outcome.skipped


def test_comparison_report_table_and_ok(lossy_scenario):
    def tiny_solve(task):
        return LossRateResult(
            lower=1e-12, upper=1e-9, iterations=1, bins=task.config.initial_bins,
            converged=True, negligible=False,
        )

    # Inside the horizon the oracle declines (loss below its resolution):
    # "skip".  A buffer beyond the 2 s cutoff is outside its domain: "n/a".
    grid = run_model_comparison(
        lossy_scenario.source,
        utilization=0.9,
        buffers=[0.1, 5.0],
        families=("fgn", "mmpp"),
        config=FUZZ_SOLVER_CONFIG,
        ctx=CheckContext(solve=tiny_solve),
    )
    assert [row.verdict for row in grid.rows] == ["skip", "skip", "n/a", "n/a"]
    assert grid.rows[2].message == "not applicable"
    assert grid.ok
    table = grid.format_table()
    assert "4 cells, 0 judged, 0 diverged" in table
    for line, row in zip(table.splitlines()[3:], grid.rows):
        assert line.endswith(f"-  {row.verdict}")

    report = ComparisonReport(
        rows=[
            ComparisonRow(
                family="mmpp", utilization=0.9, normalized_buffer=0.1,
                solver_lower=0.1, solver_upper=0.12, sim_loss=0.11,
                sim_half_width=0.01, log10_ratio=0.0, verdict="agree",
            ),
            *grid.rows,
        ],
        meta={"utilization": 0.9, "seed": 0},
    )
    assert report.ok
    table = report.format_table()
    assert "solver bracket" in table and "verdict" in table
    assert "5 cells, 1 judged, 0 diverged" in table
    report.rows.append(replace(report.rows[0], family="onoff", verdict="DIVERGE"))
    assert not report.ok
    assert "6 cells, 2 judged, 1 diverged" in report.format_table()


# --------------------------------------------------------------------- #
# the in-suite acceptance grid
# --------------------------------------------------------------------- #


@pytest.mark.slow
def test_matched_models_pass_on_seeded_grid(ctx):
    """The acceptance grid: a fixed scenario stream, zero tolerance for misses."""
    generator = ScenarioGenerator(seed=20260808)
    oracle = MatchedModelsOracle()
    judged = 0
    families_judged = set()
    for index in range(10):
        scenario = generator.generate(index)
        if not oracle.applies(scenario):
            continue
        outcome = oracle.run(scenario, ctx)
        assert outcome.passed, (
            f"case {index} ({scenario.describe()}): {outcome.message} "
            f"{outcome.details}"
        )
        if not outcome.skipped:
            judged += 1
            families_judged.add(scenario.family)
    assert judged >= 4, "the seeded grid must actually exercise the comparison"
    assert len(families_judged) >= 3, "the grid must span several families"


@pytest.mark.slow
def test_run_model_comparison_five_family_cell(lossy_scenario):
    report = run_model_comparison(
        lossy_scenario.source,
        utilization=0.9,
        buffers=[0.1],
        config=FUZZ_SOLVER_CONFIG,
        seed=3,
        oracle=MatchedModelsOracle(batches=2),
    )
    assert [row.family for row in report.rows] == list(MATCHED_FAMILIES)
    assert report.ok, report.format_table()
    judged = [row for row in report.rows if row.verdict in ("agree", "DIVERGE")]
    assert judged, "at least one family must be judged at this cell"
    for row in judged:
        assert math.isfinite(row.log10_ratio)
        assert row.solver_lower <= row.solver_upper
    assert report.meta["hurst"] == pytest.approx(lossy_scenario.source.hurst)
