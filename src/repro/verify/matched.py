"""Matched-moment model comparison: the paper's real question, as a check.

The paper's central claim — loss in a finite buffer is governed by the
marginal distribution and the correlation structure *inside a short
horizon*, not by asymptotic long-range dependence — is only meaningful
against competing traffic models.  This module realizes the five
competitor families at matched first/second moments and matched Hurst
parameter and compares their simulated loss against the solver's bracket:

* ``fgn`` / ``farima`` — Gaussian processes with exactly the target
  autocorrelation exponent (clipped at zero, renormalized to the mean);
* ``onoff`` — a single asymmetric heavy-tailed on/off source whose
  two-point marginal matches mean and variance exactly;
* ``mginf`` — an M/G/∞ session process (Poisson marginal) shifted and
  scaled to the target moments, with the scenario's own interval law as
  the session-duration tail;
* ``mmpp`` — Clegg's Markov-modulated construction
  (:class:`~repro.traffic.mmpp.MarkovModulatedSource`): *exact* marginal
  match and a pseudo power-law correlation inside the horizon.

:class:`MatchedModelsOracle` is the fuzz-battery check (it judges the
scenario's own ``family``; stratification covers all five across a
sweep); :func:`run_model_comparison` is the ``repro compare`` entry point
that runs the full family grid and renders the ascii report.

:data:`FAMILY_TRAITS` is the per-family declaration table other checks
consult instead of hardcoding family lists — e.g. ``hurst_recovery``
excludes MMPP because its traits declare no estimator band (the
hyperexponential ladder is honestly short-range dependent, so
variance-time and R/S estimates drift down at long lags by design).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.verify.checks import CheckContext, CheckOutcome, judge
from repro.verify.scenario import (
    FUZZ_SOLVER_CONFIG,
    MATCHED_FAMILIES,
    Scenario,
    netsim_single_queue,
)

__all__ = [
    "FAMILY_TRAITS",
    "ComparisonReport",
    "ComparisonRow",
    "FamilyTraits",
    "MatchedModelsOracle",
    "run_model_comparison",
    "sample_family_trace",
]


@dataclass(frozen=True)
class FamilyTraits:
    """Declarative properties of one generating family.

    Attributes
    ----------
    label:
        Human-readable name for report tables.
    exact_marginal:
        True when the family reproduces the scenario's full marginal law
        (not just two moments); the matched-models oracle then holds it
        to the tight confidence-band criterion instead of the
        order-of-magnitude one.
    hurst_alpha_band:
        ``(alpha_min, alpha_max)`` domain where the variance-time / R-S
        estimators recover ``H = (3 - alpha)/2`` from this family's
        traces, or ``None`` when the family is excluded from Hurst
        recovery by declaration (MMPP: correlation is exponential beyond
        the phase ladder, so the estimators are biased low *by design*).
    """

    label: str
    exact_marginal: bool
    hurst_alpha_band: tuple[float, float] | None


FAMILY_TRAITS: dict[str, FamilyTraits] = {
    "renewal": FamilyTraits(
        label="renewal (paper)", exact_marginal=True, hurst_alpha_band=(1.25, 1.75)
    ),
    "fgn": FamilyTraits(
        label="fractional Gaussian noise", exact_marginal=False,
        hurst_alpha_band=(1.2, 1.75),
    ),
    "farima": FamilyTraits(
        label="FARIMA(0, d, 0)", exact_marginal=False, hurst_alpha_band=(1.2, 1.75)
    ),
    "onoff": FamilyTraits(
        # Near alpha -> 2 the duty-cycle asymmetry inflates the R/S read;
        # claim a band clear of the upper edge.
        label="heavy-tailed on/off", exact_marginal=False,
        hurst_alpha_band=(1.2, 1.7),
    ),
    "mginf": FamilyTraits(
        # Poisson session counts quantize coarsely at the alpha -> 1 edge
        # (nu is capped), biasing the estimators low; claim a narrower band.
        label="M/G/inf sessions", exact_marginal=False, hurst_alpha_band=(1.3, 1.75)
    ),
    "mmpp": FamilyTraits(
        label="Markov-modulated", exact_marginal=True, hurst_alpha_band=None
    ),
}
"""Traits per generating family (every :data:`~repro.verify.scenario.FAMILIES` member)."""


def _matched_moments(scenario: Scenario) -> tuple[float, float]:
    """Target (mean, std) every family is calibrated to."""
    marginal = scenario.source.marginal
    return marginal.mean, marginal.std


def _family_rates(
    scenario: Scenario,
    family: str,
    duration: float,
    bin_width: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Binned rate trace of ``family`` at the scenario's matched moments.

    Gaussian families are clipped at zero and renormalized back to the
    target mean so the offered load — the first-order driver of loss —
    matches across families even when clipping removes mass.
    """
    source = scenario.source
    mean, std = _matched_moments(scenario)
    length = max(2, int(math.ceil(duration / bin_width)))
    if family == "renewal":
        return source.rate_trace(duration, bin_width, rng)
    if family == "fgn":
        from repro.traffic import generate_fgn

        trace = generate_fgn(length, source.hurst, rng, mean=mean, std=std)
        return _clip_to_mean(trace, mean)
    if family == "farima":
        from repro.traffic import d_from_hurst, generate_farima

        trace = generate_farima(
            length, d_from_hurst(source.hurst), rng, mean=mean, std=std
        )
        return _clip_to_mean(trace, mean)
    if family == "onoff":
        return _onoff_rates(scenario, duration, bin_width, rng)
    if family == "mginf":
        return _mginf_matched_rates(scenario, duration, bin_width, rng)
    if family == "mmpp":
        from repro.traffic import MarkovModulatedSource, mmpp_rates

        model = MarkovModulatedSource.from_source(source)
        return mmpp_rates(model, duration, bin_width, rng)
    raise ValueError(f"unknown model family: {family!r}")


def _clip_to_mean(trace: np.ndarray, mean: float) -> np.ndarray:
    clipped = np.clip(trace, 0.0, None)
    observed = float(clipped.mean())
    if observed > 0.0 and mean > 0.0:
        clipped = clipped * (mean / observed)
    return clipped


def _onoff_rates(
    scenario: Scenario, duration: float, bin_width: float, rng: np.random.Generator
) -> np.ndarray:
    """Single asymmetric on/off source with an exact two-moment match.

    ``p_on = mu^2 / (mu^2 + sigma^2)`` and ``peak = mu / p_on`` reproduce
    mean and variance exactly for the stationary two-point marginal; both
    period laws carry the scenario's tail exponent and cutoff so the
    Hurst parameter matches too, and the mean cycle equals two renewal
    epochs (each period is one epoch-scale interval).
    """
    from repro.core.truncated_pareto import TruncatedPareto
    from repro.traffic import OnOffSource
    from repro.traffic._intervals import binned_busy_time

    mean, std = _matched_moments(scenario)
    law = scenario.source.interarrival
    p_on = mean**2 / (mean**2 + std**2)
    peak = mean / p_on
    # Cycle calibrated to the *truncated* mean epoch: at small alpha the
    # infinity-calibrated mean dwarfs the simulation horizon and the trace
    # would never leave its first period.
    epoch = law.mean
    on_law = TruncatedPareto.from_mean_interval(
        mean_interval=2.0 * epoch * p_on, alpha=law.alpha, cutoff=law.cutoff
    )
    off_law = TruncatedPareto.from_mean_interval(
        mean_interval=2.0 * epoch * (1.0 - p_on), alpha=law.alpha, cutoff=law.cutoff
    )
    onoff = OnOffSource(on_law=on_law, off_law=off_law, peak_rate=peak)
    n_bins = max(1, int(math.floor(duration / bin_width)))
    edges = np.arange(n_bins + 1, dtype=np.float64) * bin_width
    starts, ends = onoff.on_intervals(n_bins * bin_width, rng)
    busy = binned_busy_time(starts, ends, edges)
    return peak * busy / bin_width


def _mginf_matched_rates(
    scenario: Scenario, duration: float, bin_width: float, rng: np.random.Generator
) -> np.ndarray:
    """M/G/∞ session counts shifted/scaled to the target moments.

    The active-session count is Poisson(``nu``); with
    ``rate = base + r * count`` the moments match when ``r = sigma /
    sqrt(nu)`` and ``base = mu - sigma sqrt(nu)``.  ``nu`` is capped so
    the base rate stays non-negative and the arrival intensity sane; the
    session-duration law is the scenario's own interval law, which makes
    the count autocorrelation its residual-life ccdf — the same H.
    """
    from repro.traffic import mginf_rates

    mean, std = _matched_moments(scenario)
    nu = min(64.0, mean**2 / std**2)
    per_session = std / math.sqrt(nu)
    base = max(0.0, mean - std * math.sqrt(nu))
    law = scenario.source.interarrival
    arrival_rate = nu / law.mean
    counts = mginf_rates(arrival_rate, law, duration, bin_width, rng)
    return base + per_session * counts


def sample_family_trace(
    scenario: Scenario,
    duration: float,
    bin_width: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Trace of the scenario's *own* family (the ``family_trace`` hook default)."""
    return _family_rates(scenario, scenario.family, duration, bin_width, rng)


class MatchedModelsOracle:
    """The paper's prediction: matched models lose the same traffic.

    Realizes the scenario's generating family at matched marginal
    moments and Hurst parameter through the ``family_trace`` hook, pushes
    ``batches`` independently seeded traces through the scenario's
    one-node queue, and compares the simulated loss with the solver's
    Prop. II.1 bracket:

    * exact-marginal families (``mmpp``) must overlap the slack-widened
      bracket with their 99 % batch-mean confidence band, as in the Monte
      Carlo oracle;
    * two-moment families (``fgn``, ``farima``, ``onoff``, ``mginf``)
      share only the first two moments with the scenario's marginal, so
      they are held to an order-of-magnitude criterion
      (``max_log10_ratio`` decades against the solver estimate).

    ``applies`` encodes the horizon condition: the comparison is only
    claimed where the correlation horizon covers the buffer's time scale
    (``cutoff >= horizon_cover * normalized_buffer`` or an infinite
    cutoff); beyond it the paper itself predicts divergence, so those
    cases are out of the oracle's domain rather than failures.

    ``batches`` is the one setting (``repro compare --batches``); every
    tolerance is a fixed class attribute.
    """

    name = "matched_models"
    kind = "oracle"
    expensive = True
    horizon_epochs = 2000
    warmup_epochs = 400
    z_score = 2.58
    min_loss = 3e-3
    slack = 0.5
    max_log10_ratio = 2.5
    horizon_cover = 1.0

    def __init__(self, batches: int = 4) -> None:
        self.batches = batches

    def applies(self, scenario: Scenario) -> bool:
        if scenario.family not in MATCHED_FAMILIES:
            return False
        source = scenario.source
        if source.rate_variance <= 0.0:
            return False
        service_rate = source.mean_rate / scenario.utilization
        if source.marginal.peak <= service_rate:
            return False
        if scenario.family == "onoff":
            # The two-moment on/off surrogate peaks at mu / p_on; when the
            # scenario's loss lives in a marginal tail above that, the
            # surrogate has no loss path at all and the comparison is out
            # of the two-moment family's expressive range, not a bug.
            mean, std = _matched_moments(scenario)
            p_on = mean**2 / (mean**2 + std**2)
            if mean / p_on <= service_rate:
                return False
        law = source.interarrival
        horizon_ok = (
            law.cutoff == math.inf
            or law.cutoff >= self.horizon_cover * scenario.normalized_buffer
        )
        return horizon_ok

    def run(self, scenario: Scenario, ctx: CheckContext) -> CheckOutcome:
        result = ctx.solve_scenario(scenario)
        if result.upper < self.min_loss:
            return CheckOutcome.skip(
                self.name, f"loss below comparison resolution ({result.upper:.2e})"
            )
        mean, half_width = self._simulate_family(scenario, ctx)
        traits = FAMILY_TRAITS[scenario.family]
        estimate = max(result.estimate, 1e-300)
        ratio = math.log10(max(mean, 1e-300) / estimate)
        details = dict(
            sim_mean=mean,
            sim_half_width=half_width,
            solver_lower=result.lower,
            solver_upper=result.upper,
            log10_ratio=ratio,
        )
        if traits.exact_marginal:
            lo = result.lower * (1.0 - self.slack) - self.min_loss
            hi = result.upper * (1.0 + self.slack) + self.min_loss
            if mean + half_width < lo or mean - half_width > hi:
                return CheckOutcome.fail(
                    self.name,
                    f"{scenario.family} confidence band misses the solver bracket",
                    **details,
                )
        elif abs(ratio) > self.max_log10_ratio:
            return CheckOutcome.fail(
                self.name,
                f"{scenario.family} loss diverges beyond "
                f"{self.max_log10_ratio:g} decades at matched moments",
                **details,
            )
        return CheckOutcome.ok(self.name, **details)

    def _simulate_family(self, scenario: Scenario, ctx: CheckContext) -> tuple[float, float]:
        """Batch-mean loss and 99 % half-width of the scenario family's queue."""
        from repro.netsim import TraceSource

        mean_epoch = scenario.source.mean_interval
        duration = self.horizon_epochs * mean_epoch
        warmup = self.warmup_epochs * mean_epoch
        bin_width = mean_epoch / 2.0
        seeds = ctx.rng(scenario, salt=5).integers(0, 1 << 62, size=self.batches)
        losses = []
        for seed in seeds:
            rates = ctx.family_trace(
                scenario, duration, bin_width, np.random.default_rng(int(seed))
            )
            topology = netsim_single_queue(
                scenario, TraceSource.from_array(rates, bin_width)
            )
            sim = ctx.simulate_network(
                topology, duration=duration, warmup=warmup, seed=int(seed)
            )
            losses.append(sim.node_stats["queue"].loss_rate)
        sample = np.asarray(losses, dtype=np.float64)
        half_width = float(
            self.z_score * sample.std(ddof=1) / math.sqrt(sample.size)
        )
        return float(sample.mean()), half_width


_UNJUDGED = ("skip", "n/a")  # the oracle declined, or the cell is outside its domain


@dataclass(frozen=True)
class ComparisonRow:
    """One (family, buffer) cell of the comparison grid."""

    family: str
    utilization: float
    normalized_buffer: float
    solver_lower: float
    solver_upper: float
    sim_loss: float
    sim_half_width: float
    log10_ratio: float
    verdict: str  # "agree" | "DIVERGE" | "skip" | "n/a"
    message: str = ""


@dataclass
class ComparisonReport:
    """Result of a :func:`run_model_comparison` grid."""

    rows: list[ComparisonRow] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when no judged cell diverged."""
        return all(row.verdict != "DIVERGE" for row in self.rows)

    def format_table(self) -> str:
        """Ascii report: one line per (buffer, family) cell."""
        header = (
            f"{'buffer_s':>10}  {'family':<8} "
            f"{'solver bracket':<24} {'simulated':<20} {'dec':>6}  verdict"
        )
        lines = [
            "matched-model comparison: util={:.3f}, seed={}".format(
                float(self.meta.get("utilization", float("nan"))),
                self.meta.get("seed", "?"),
            ),
            header,
            "-" * len(header),
        ]
        for row in self.rows:
            bracket = f"[{row.solver_lower:.3e}, {row.solver_upper:.3e}]"
            if row.verdict in _UNJUDGED:
                simulated = "-"
                decades = "-"
            else:
                simulated = f"{row.sim_loss:.3e} ±{row.sim_half_width:.1e}"
                decades = f"{row.log10_ratio:+.2f}"
            lines.append(
                f"{row.normalized_buffer:>10.4g}  {row.family:<8} "
                f"{bracket:<24} {simulated:<20} {decades:>6}  {row.verdict}"
            )
        judged = sum(1 for row in self.rows if row.verdict not in _UNJUDGED)
        diverged = sum(1 for row in self.rows if row.verdict == "DIVERGE")
        lines.append(
            f"{len(self.rows)} cells, {judged} judged, {diverged} diverged"
        )
        return "\n".join(lines)


def run_model_comparison(
    source,
    utilization: float,
    buffers,
    families: tuple[str, ...] = MATCHED_FAMILIES,
    config=None,
    ctx: CheckContext | None = None,
    seed: int = 0,
    oracle: MatchedModelsOracle | None = None,
) -> ComparisonReport:
    """Run the five-family matched-moment grid and collect the verdicts.

    Every (buffer, family) cell builds the corresponding
    :class:`~repro.verify.scenario.Scenario` (deterministically seeded
    off ``seed``), runs it through :class:`MatchedModelsOracle`, and
    records the solver bracket, the family's simulated loss band and the
    verdict: ``agree``/``DIVERGE`` for a judged cell, ``skip`` when the
    oracle declined (loss below its resolution) and ``n/a`` when the cell
    lies outside its domain.  Pass a ``ctx`` whose ``solve`` routes through
    a cached engine so the per-buffer solver bracket is computed once,
    not once per family.
    """
    ctx = ctx if ctx is not None else CheckContext()
    oracle = oracle if oracle is not None else MatchedModelsOracle()
    config = config if config is not None else FUZZ_SOLVER_CONFIG
    report = ComparisonReport(
        meta={
            "utilization": float(utilization),
            "seed": int(seed),
            "hurst": source.hurst,
            "families": list(families),
        }
    )
    for b_index, normalized_buffer in enumerate(buffers):
        for f_index, family in enumerate(families):
            child = np.random.SeedSequence(
                entropy=int(seed), spawn_key=(b_index, f_index)
            )
            case_seed = int(child.generate_state(1, dtype=np.uint64)[0] % (1 << 62))
            scenario = Scenario(
                source=source,
                utilization=float(utilization),
                normalized_buffer=float(normalized_buffer),
                config=config,
                seed=case_seed,
                regime="compare",
                family=family,
            )
            outcome = judge(oracle, scenario, ctx)
            details = outcome.details
            if not outcome.applicable or outcome.skipped:
                solved = ctx.solve_scenario(scenario)
                report.rows.append(
                    ComparisonRow(
                        family=family,
                        utilization=float(utilization),
                        normalized_buffer=float(normalized_buffer),
                        solver_lower=solved.lower,
                        solver_upper=solved.upper,
                        sim_loss=float("nan"),
                        sim_half_width=float("nan"),
                        log10_ratio=float("nan"),
                        verdict="skip" if outcome.applicable else "n/a",
                        message=outcome.message,
                    )
                )
                continue
            report.rows.append(
                ComparisonRow(
                    family=family,
                    utilization=float(utilization),
                    normalized_buffer=float(normalized_buffer),
                    solver_lower=float(details["solver_lower"]),
                    solver_upper=float(details["solver_upper"]),
                    sim_loss=float(details["sim_mean"]),
                    sim_half_width=float(details["sim_half_width"]),
                    log10_ratio=float(details["log10_ratio"]),
                    verdict="DIVERGE" if outcome.failed else "agree",
                    message=outcome.message,
                )
            )
    return report
