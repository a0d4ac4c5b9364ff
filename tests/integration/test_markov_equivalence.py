"""Integration: the paper's Section IV claim about Markov models.

"For this type of performance problem, we may choose any model among all
the available models as long as it captures the correlation structure up
to CH."  We verify it end to end: a hyperexponential (Markov) expansion of
the cutoff fluid source, solved with the independent MMFQ spectral method,
must predict a loss rate close to the bounded convolution solver's.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.solver import FluidQueue, SolverConfig
from repro.core.source import CutoffFluidSource
from repro.core.truncated_pareto import TruncatedPareto
from repro.queueing.markov import HyperexponentialFit, fit_hyperexponential
from repro.queueing.mmfq import mmfq_loss_rate
from repro.traffic import MarkovModulatedSource

pytestmark = pytest.mark.slow


@pytest.mark.parametrize("cutoff", [1.0, 5.0])
def test_markov_model_matches_cutoff_model(onoff_marginal, cutoff):
    law = TruncatedPareto(theta=0.1, alpha=1.4, cutoff=cutoff)
    source = CutoffFluidSource(marginal=onoff_marginal, interarrival=law)
    service_rate, buffer_size = 1.25, 0.5

    queue = FluidQueue(source=source, service_rate=service_rate, buffer_size=buffer_size)
    reference = queue.loss_rate(SolverConfig(relative_gap=0.05))

    model = MarkovModulatedSource.from_source(source, phases=12).fluid_model()
    markov_loss = mmfq_loss_rate(model, service_rate, buffer_size)

    # Two entirely different numerical methods and an approximate interval
    # law: agreement within ~25 % relative is the paper's "same loss".
    assert markov_loss == pytest.approx(reference.estimate, rel=0.3)


def test_markov_equivalence_breaks_without_enough_phases(onoff_marginal):
    # A one-phase (exponential) fit cannot capture the heavy-tailed
    # correlation: its loss prediction must be clearly worse than the
    # many-phase fit's.
    law = TruncatedPareto(theta=0.1, alpha=1.3, cutoff=10.0)
    source = CutoffFluidSource(marginal=onoff_marginal, interarrival=law)
    service_rate, buffer_size = 1.25, 1.0
    queue = FluidQueue(source=source, service_rate=service_rate, buffer_size=buffer_size)
    reference = queue.loss_rate(SolverConfig(relative_gap=0.05)).estimate

    def markov_loss(fit: HyperexponentialFit) -> float:
        model = MarkovModulatedSource(marginal=onoff_marginal, interarrival=fit).fluid_model()
        return mmfq_loss_rate(model, service_rate, buffer_size)

    rich = markov_loss(fit_hyperexponential(law, phases=12))
    poor = markov_loss(
        HyperexponentialFit(weights=np.array([1.0]), exit_rates=np.array([1.0 / law.mean]))
    )

    assert abs(np.log10(max(rich, 1e-15) / max(reference, 1e-15))) < abs(
        np.log10(max(poor, 1e-15) / max(reference, 1e-15))
    )


def test_footnote2_overflow_bounds_loss(onoff_marginal):
    """Footnote 2: the infinite-buffer overflow probability at level B
    upper-bounds the loss rate of the B-buffer queue — checked across the
    model boundary (cutoff solver vs MMFQ infinite-buffer solution of the
    fitted Markov source)."""
    from repro.queueing.mmfq import mmfq_overflow_probability

    law = TruncatedPareto(theta=0.1, alpha=1.4, cutoff=5.0)
    source = CutoffFluidSource(marginal=onoff_marginal, interarrival=law)
    service_rate = 1.4  # utilization ~0.71: stable for the infinite queue
    model = MarkovModulatedSource.from_source(source, phases=12).fluid_model()
    for buffer_size in (0.3, 1.0, 3.0):
        queue = FluidQueue(
            source=source, service_rate=service_rate, buffer_size=buffer_size
        )
        loss = queue.loss_rate(SolverConfig(relative_gap=0.1)).estimate
        overflow = float(
            mmfq_overflow_probability(model, service_rate, np.array([buffer_size]))[0]
        )
        assert overflow >= loss * 0.9, (buffer_size, overflow, loss)


def test_markov_covariance_matches_up_to_cutoff(onoff_marginal):
    law = TruncatedPareto(theta=0.05, alpha=1.3, cutoff=20.0)
    source = CutoffFluidSource(marginal=onoff_marginal, interarrival=law)
    model = MarkovModulatedSource.from_source(source, phases=12).fluid_model()
    lags = np.logspace(-2, np.log10(law.cutoff * 0.5), 12)
    exact = np.asarray(source.autocovariance(lags))
    markov = model.rate_autocovariance(lags)
    np.testing.assert_allclose(markov, exact, atol=0.08 * source.rate_variance)
