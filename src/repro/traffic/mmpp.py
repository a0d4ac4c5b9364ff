"""Markov-modulated on/off source family (Clegg's construction).

Clegg (arXiv:cs/0610135) builds *pseudo-LRD* traffic from a small Markov
chain: an N-state sojourn chain whose holding-time mixture tracks a
heavy-tailed law over a finite range of time scales, so the autocorrelation
follows the target power law ``r(t) ~ t^{2H-2}`` between the shortest and
longest phase time constants and decays exponentially beyond.  This is the
canonical *short-range-dependent competitor* for the paper's claim: inside
the correlation horizon it is indistinguishable from genuine LRD traffic,
outside it is honestly Markov.

:class:`MarkovModulatedSource` is the paper's renewal source with a
:class:`~repro.queueing.markov.HyperexponentialFit` in place of the
truncated Pareto: phase ``m`` holds for ``Exp(nu_m)`` time, and at each
phase exit a fresh ``(rate, phase)`` pair is drawn i.i.d. from
``(marginal, weights)``.  The mixture is fitted to the repo's
truncated-Pareto interval law, so the rate autocorrelation — the
mixture's residual-life ccdf — is a sum of exponentials approximating
``((t + theta)/theta)^{1-alpha}`` with ``alpha = 3 - 2H``, while the rate
marginal is matched *exactly*.

Every statistic and sampler comes from
:class:`~repro.core.source.RenewalFluidSource`, shared with the paper's
source: :func:`mmpp_rates` (the same seeded generator protocol as
``fgn``/``onoff``/``mginf``: explicit ``numpy.random.Generator`` in,
binned trace out) is its ``rate_trace``, and :mod:`repro.netsim` streams
it lazily as ``RenewalSource(model)``.  The source's own members are
views of its ``(rate level, phase)`` CTMC: ``stationary_probs()`` and
``fluid_model()``, the generator the Section IV comparator solves with
the MMFQ spectral method.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.marginal import DiscreteMarginal
from repro.core.source import CutoffFluidSource, RenewalFluidSource
from repro.queueing.markov import HyperexponentialFit, fit_hyperexponential
from repro.queueing.mmfq import MarkovFluidModel

__all__ = ["MarkovModulatedSource", "mmpp_rates"]


@dataclass(frozen=True)
class MarkovModulatedSource(RenewalFluidSource):
    """Renewal fluid source with hyperexponential intervals (an N-phase MMPP).

    Attributes
    ----------
    marginal:
        The discrete rate law; matched exactly (rates are drawn i.i.d.
        from it at every phase exit), so ``mean_rate``/``rate_variance``
        equal the requested moments by construction.
    interarrival:
        The sojourn law: phase ``m`` is picked with probability
        ``weights[m]`` and holds for ``Exp(exit_rates[m])`` time.
    """

    marginal: DiscreteMarginal
    interarrival: HyperexponentialFit

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_hurst(
        cls,
        marginal: DiscreteMarginal,
        hurst: float,
        mean_interval: float,
        horizon: float,
        phases: int = 8,
    ) -> "MarkovModulatedSource":
        """Tune the sojourn ladder to a target ``H`` over ``[theta, horizon]``.

        Fits the mixture to the truncated-Pareto law the paper would use
        for the same coordinates (``alpha = 3 - 2H``, theta from
        ``mean_interval`` via Eq. 25, cutoff at ``horizon``).
        """
        paper_source = CutoffFluidSource.from_hurst(
            marginal, hurst=hurst, mean_interval=mean_interval, cutoff=horizon
        )
        return cls.from_source(paper_source, phases)

    @classmethod
    def from_source(
        cls, source: CutoffFluidSource, phases: int = 8
    ) -> "MarkovModulatedSource":
        """The Markov-modulated twin of a paper source (matched marginal + H).

        The sojourn mixture is fitted to the source's own interarrival
        ccdf, so the two processes share the marginal exactly and the
        correlation structure up to the source's cutoff.
        """
        return cls(
            marginal=source.marginal,
            interarrival=fit_hyperexponential(source.interarrival, phases=phases),
        )

    # ------------------------------------------------------------------ #
    # the (rate level, phase) CTMC
    # ------------------------------------------------------------------ #

    @property
    def phases(self) -> int:
        """Number of sojourn phases ``N``."""
        return self.interarrival.phases

    @property
    def states(self) -> int:
        """Size of the underlying CTMC: ``levels x phases``."""
        return self.marginal.size * self.phases

    def stationary_probs(self) -> np.ndarray:
        """Time-stationary occupation of the ``(level, phase)`` CTMC states.

        Row ``i``, column ``m`` is the long-run fraction of time spent at
        rate level ``i`` in phase ``m``: ``pi_i * (w_m / nu_m) / E[S]``.
        Marginalizing over phases (``.sum(axis=1)``) returns the rate
        marginal's probabilities — the round-trip the property tests pin.
        """
        return np.outer(np.asarray(self.marginal.probs), self.interarrival.phase_occupancy)

    def fluid_model(self) -> MarkovFluidModel:
        """The source as a CTMC-modulated fluid model on ``(level, phase)`` states.

        State ``(i, m)`` (index ``i * phases + m``) emits ``lambda_i`` and
        leaves at rate ``nu_m``, jumping to ``(j, m')`` with probability
        ``pi_j w_m'``.  Its rate autocovariance is
        ``sigma^2 * residual_sf(t)`` — the Markov approximation of the
        paper's Eq. 8 — and :func:`~repro.queueing.mmfq.mmfq_loss_rate`
        solves its queue.
        """
        fit = self.interarrival
        size = self.states
        arrival_prob = np.outer(self.marginal.probs, fit.weights).ravel()
        exit_rates = np.tile(fit.exit_rates, self.marginal.size)
        generator = np.outer(exit_rates, arrival_prob)
        generator[np.arange(size), np.arange(size)] -= exit_rates
        rates = np.repeat(self.marginal.rates, fit.phases)
        return MarkovFluidModel(generator=generator, rates=rates)


def mmpp_rates(
    model: MarkovModulatedSource,
    duration: float,
    bin_width: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Binned rate trace of a Markov-modulated source (generator protocol).

    The module-level twin of ``generate_fgn``/``aggregate_onoff_rates``/
    ``mginf_rates``: explicit generator in, rate array out.
    """
    return model.rate_trace(duration, bin_width, rng)
