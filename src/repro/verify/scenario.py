"""Seeded scenario generation for the verification harness.

A :class:`Scenario` freezes one randomly generated model instance — a
:class:`~repro.core.source.CutoffFluidSource`, the queue coordinates and a
(cheap) :class:`~repro.core.solver.SolverConfig` — together with the seed
that reproduces it, so every oracle and metamorphic relation runs against
the same deterministic case and every failure can be replayed from JSON.

Generation is *stratified*: the paper's claims are most fragile near the
edges of their parameter ranges, so instead of sampling uniformly the
generator cycles through named regimes — ``alpha`` pressed against both
ends of its ``(1, 2)`` interval, cutoffs from "barely longer than theta"
to "effectively infinite", and marginals from the degenerate two-point
on/off law to heavy many-level histograms.  Utilization and buffer are
drawn so a healthy fraction of cases has measurable loss (the regime
where the bounds, the simulators and the Markov comparators can actually
disagree) while still exercising the negligible-loss and peak-below-
service trivial paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from repro.core.fingerprint import payload_of, restore, stable_hash
from repro.core.marginal import DiscreteMarginal
from repro.core.solver import SolverConfig
from repro.core.source import CutoffFluidSource
from repro.core.truncated_pareto import TruncatedPareto

__all__ = [
    "FAMILIES",
    "FUZZ_SOLVER_CONFIG",
    "MATCHED_FAMILIES",
    "REGIMES",
    "Scenario",
    "ScenarioGenerator",
    "netsim_single_queue",
]

FUZZ_SOLVER_CONFIG = SolverConfig(
    initial_bins=32,
    max_bins=1024,
    max_iterations=4096,
    block_iterations=32,
)
"""Deliberately small solver configuration used for generated cases.

Fuzzing wants throughput, not tight gaps: the bounds stay rigorous at any
resolution (Proposition II.1), so the oracles compare *bounds*, not point
estimates, and a coarse grid is enough to catch an inconsistency.
"""

REGIMES = (
    "alpha_low",
    "alpha_high",
    "alpha_mid",
    "tiny_cutoff",
    "huge_cutoff",
    "two_point",
    "many_level",
)
"""Stratification cells the generator cycles through (round-robin)."""

MATCHED_FAMILIES = ("fgn", "farima", "onoff", "mginf", "mmpp")
"""The five competing model families of the matched-moment comparison."""

FAMILIES = ("renewal",) + MATCHED_FAMILIES
"""Generating families the fuzz corpus stratifies over.

``renewal`` is the paper's own cutoff fluid model (the solver's
model-of-record); the other five are the competitors the model-comparison
suite realizes at matched marginal + H.  The family tag never changes the
solver-side coordinates of a scenario — it selects which generator the
family-aware checks (``hurst_recovery``, ``matched_models``) sample traces
from."""


@dataclass(frozen=True)
class Scenario:
    """One generated verification case.

    Attributes
    ----------
    source:
        The cutoff fluid source under test.
    utilization:
        Offered load ``mean_rate / c``.
    normalized_buffer:
        Buffer size in seconds of service (``B / c``).
    config:
        Solver configuration every check of this case solves with.
    seed:
        Per-case seed; derived randomness (Monte Carlo runs, shuffles,
        trace sampling) must come from streams spawned off this value.
    regime:
        Name of the stratification cell that produced the case.
    family:
        Generating family of the case (one of :data:`FAMILIES`).  The
        solver always works on ``source``; family-aware checks sample
        traces/arrivals from this family's generator at matched moments.
    """

    source: CutoffFluidSource
    utilization: float
    normalized_buffer: float
    config: SolverConfig
    seed: int
    regime: str
    family: str = "renewal"

    def payload(self) -> dict:
        """Canonical JSON-able description (corpus persistence material)."""
        return {
            "kind": "verify_scenario",
            "source": payload_of(self.source),
            "utilization": float(self.utilization),
            "normalized_buffer": float(self.normalized_buffer),
            "config": payload_of(self.config),
            "seed": int(self.seed),
            "regime": self.regime,
            "family": self.family,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "Scenario":
        """Rebuild a scenario from :meth:`payload` output (corpus replay)."""
        if payload.get("kind") != "verify_scenario":
            raise ValueError(f"not a scenario payload: kind={payload.get('kind')!r}")
        return cls(
            source=restore(payload["source"]),
            utilization=float(payload["utilization"]),
            normalized_buffer=float(payload["normalized_buffer"]),
            config=restore(payload["config"]),
            seed=int(payload["seed"]),
            regime=str(payload["regime"]),
            family=str(payload.get("family", "renewal")),
        )

    def case_id(self) -> str:
        """Short stable identifier (content hash prefix) for reports/filenames."""
        return stable_hash(self.payload())[:12]

    def describe(self) -> str:
        """One-line human summary for fuzz reports."""
        law = self.source.interarrival
        cutoff = "inf" if law.cutoff == math.inf else f"{law.cutoff:g}"
        return (
            f"[{self.regime}/{self.family}] alpha={law.alpha:.3f} theta={law.theta:g} "
            f"T_c={cutoff} levels={self.source.marginal.size} "
            f"util={self.utilization:.3f} buffer={self.normalized_buffer:g}s "
            f"seed={self.seed}"
        )


def netsim_single_queue(scenario: Scenario, rate_source):
    """The scenario's queue as a one-node ``repro.netsim`` topology.

    One :class:`~repro.netsim.nodes.QueueNode` at the scenario's service
    rate and buffer, fed by ``rate_source`` and drained into a sink.  Fed
    a :class:`~repro.netsim.sources.SegmentSource` over a sampled path of
    the scenario's source, it is *exactly* the model queue of Eq. 9
    (continuous clipping equals once-per-interval clipping when the drift
    sign is constant within an interval) — the identity
    :class:`~repro.verify.oracles.NetSimSolverOracle` checks.  The
    matched-model comparison pushes every other family through it too.
    """
    from repro.netsim import Flow, QueueNode, SinkNode, Topology

    service_rate = scenario.source.mean_rate / scenario.utilization
    return Topology(
        nodes=(
            QueueNode(
                "queue",
                service_rate=service_rate,
                buffer=scenario.normalized_buffer * service_rate,
            ),
            SinkNode("sink"),
        ),
        links=(("queue", "sink"),),
        flows=(Flow("flow", rate_source, route=("queue", "sink")),),
    )


class ScenarioGenerator:
    """Deterministic stratified scenario stream.

    ``ScenarioGenerator(seed).take(n)`` always yields the same ``n``
    scenarios: case ``i`` draws from an `independent` child stream of the
    master :class:`numpy.random.SeedSequence`, so inserting or skipping
    cases never perturbs the others (the property minimization and corpus
    replay rely on).

    Stratification is two-dimensional: case ``i`` lands in regime
    ``i mod len(regimes)`` and family ``i mod len(families)``.  With the
    default 7 regimes and 6 families (coprime) every regime x family
    combination recurs every 42 cases.  The family assignment consumes no
    random draws, so narrowing ``families`` never perturbs the sampled
    coordinates of the cases that remain.
    """

    def __init__(
        self,
        seed: int = 0,
        regimes: tuple[str, ...] = REGIMES,
        families: tuple[str, ...] = FAMILIES,
    ) -> None:
        if not regimes:
            raise ValueError("regimes must not be empty")
        unknown = set(regimes) - set(REGIMES)
        if unknown:
            raise ValueError(f"unknown regimes: {sorted(unknown)}")
        if not families:
            raise ValueError("families must not be empty")
        unknown_families = set(families) - set(FAMILIES)
        if unknown_families:
            raise ValueError(f"unknown families: {sorted(unknown_families)}")
        self.seed = int(seed)
        self.regimes = tuple(regimes)
        self.families = tuple(families)

    def generate(self, index: int) -> Scenario:
        """Build scenario ``index`` of this stream."""
        if index < 0:
            raise ValueError(f"index must be >= 0, got {index}")
        child = np.random.SeedSequence(entropy=self.seed, spawn_key=(index,))
        rng = np.random.default_rng(child)
        case_seed = int(child.generate_state(1, dtype=np.uint64)[0] % (1 << 62))
        regime = self.regimes[index % len(self.regimes)]
        family = self.families[index % len(self.families)]
        law = self._interarrival(regime, rng)
        marginal = self._marginal(regime, rng)
        source = CutoffFluidSource(marginal=marginal, interarrival=law)
        # Log-uniform buffer around the mean epoch keeps a spread of loss
        # magnitudes; high utilization keeps losses measurable.
        utilization = float(rng.uniform(0.55, 0.97))
        buffer_scale = float(np.exp(rng.uniform(np.log(0.1), np.log(4.0))))
        normalized_buffer = buffer_scale * source.mean_interval
        config = FUZZ_SOLVER_CONFIG
        if rng.random() < 0.25:
            # Force the spectral kernel at every size on a quarter of the
            # cases so small-bin levels exercise the FFT path too.
            config = replace(config, fft_threshold_bins=0)
        return Scenario(
            source=source,
            utilization=utilization,
            normalized_buffer=normalized_buffer,
            config=config,
            seed=case_seed,
            regime=regime,
            family=family,
        )

    def take(self, count: int, start: int = 0) -> Iterator[Scenario]:
        """Yield scenarios ``start .. start + count - 1``."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        for index in range(start, start + count):
            yield self.generate(index)

    # ------------------------------------------------------------------ #
    # stratified component draws
    # ------------------------------------------------------------------ #

    def _interarrival(self, regime: str, rng: np.random.Generator) -> TruncatedPareto:
        theta = float(np.exp(rng.uniform(np.log(0.01), np.log(0.2))))
        if regime == "alpha_low":
            alpha = float(rng.uniform(1.02, 1.15))
        elif regime == "alpha_high":
            alpha = float(rng.uniform(1.85, 1.98))
        else:
            alpha = float(rng.uniform(1.2, 1.8))
        if regime == "tiny_cutoff":
            # T_c barely above theta: the atom carries most of the mass.
            cutoff = theta * float(rng.uniform(1.0, 4.0))
        elif regime == "huge_cutoff":
            # Effectively untruncated; also hit math.inf itself.
            cutoff = math.inf if rng.random() < 0.5 else theta * 10 ** float(
                rng.uniform(4.0, 6.0)
            )
        else:
            cutoff = theta * 10 ** float(rng.uniform(0.5, 3.0))
        return TruncatedPareto(theta=theta, alpha=alpha, cutoff=cutoff)

    def _marginal(self, regime: str, rng: np.random.Generator) -> DiscreteMarginal:
        peak = float(np.exp(rng.uniform(np.log(0.5), np.log(8.0))))
        if regime == "two_point":
            # Degenerate on/off, including severely imbalanced probabilities.
            prob_high = float(rng.choice([0.02, 0.1, 0.3, 0.5, 0.9]))
            return DiscreteMarginal.two_state(low=0.0, high=peak, prob_high=prob_high)
        if regime == "many_level":
            levels = int(rng.integers(16, 48))
            samples = rng.lognormal(mean=0.0, sigma=1.0, size=4096) * peak / 3.0
            return DiscreteMarginal.from_samples(samples, bins=levels)
        levels = int(rng.integers(2, 6))
        rates = np.sort(rng.uniform(0.0, peak, size=levels))
        rates[0] = 0.0 if rng.random() < 0.5 else rates[0]
        rates = np.unique(rates)
        if rates.size == 1:
            return DiscreteMarginal(rates=[float(rates[0])], probs=[1.0])
        probs = rng.dirichlet(np.ones(rates.size))
        # Dirichlet components can underflow to ~0; keep them proper.
        probs = np.maximum(probs, 1e-6)
        return DiscreteMarginal(rates=rates, probs=probs / probs.sum())
