"""Section IV ablation — a Markov model capturing correlation up to CH
predicts the same loss as the cutoff fluid model.

The paper's resolution of the LRD-relevance debate: *any* model — Markovian
included — works for finite-buffer loss prediction as long as it matches
the correlation structure up to the correlation horizon.  We fit a
Feldmann-Whitt hyperexponential to the truncated-Pareto interval law,
take the renewal source with those intervals as a CTMC fluid source
(``MarkovModulatedSource.fluid_model``), solve that queue with the
independent MMFQ spectral method, and compare against the bounded convolution solver
across buffer sizes.  A deliberately impoverished one-phase (exponential)
fit shows how the equivalence fails when correlation is not captured.
"""

from __future__ import annotations

import numpy as np

from _common import persist, run_once
from repro.core.marginal import DiscreteMarginal
from repro.core.solver import FluidQueue, SolverConfig
from repro.core.source import CutoffFluidSource
from repro.core.truncated_pareto import TruncatedPareto
from repro.experiments.reporting import format_series
from repro.queueing.markov import (
    HyperexponentialFit,
    fit_hyperexponential,
    fit_multiscale_source,
)
from repro.queueing.mmfq import mmfq_loss_rate
from repro.traffic import MarkovModulatedSource


def test_ablation_markov_equivalence(benchmark):
    marginal = DiscreteMarginal(rates=[0.0, 2.0], probs=[0.5, 0.5])
    law = TruncatedPareto(theta=0.1, alpha=1.4, cutoff=5.0)
    source = CutoffFluidSource(marginal=marginal, interarrival=law)
    service_rate = 1.25
    buffers = np.array([0.1, 0.3, 1.0, 3.0])

    def run():
        rich_model = MarkovModulatedSource(
            marginal=marginal, interarrival=fit_hyperexponential(law, phases=12)
        ).fluid_model()
        poor_fit = HyperexponentialFit(
            weights=np.array([1.0]), exit_rates=np.array([1.0 / law.mean])
        )
        poor_model = MarkovModulatedSource(
            marginal=marginal, interarrival=poor_fit
        ).fluid_model()
        multiscale_model = fit_multiscale_source(source)
        reference, markov, exponential, multiscale = [], [], [], []
        for buffer_size in buffers:
            queue = FluidQueue(
                source=source, service_rate=service_rate, buffer_size=float(buffer_size)
            )
            reference.append(queue.loss_rate(SolverConfig(relative_gap=0.05)).estimate)
            markov.append(mmfq_loss_rate(rich_model, service_rate, float(buffer_size)))
            exponential.append(mmfq_loss_rate(poor_model, service_rate, float(buffer_size)))
            multiscale.append(
                mmfq_loss_rate(multiscale_model, service_rate, float(buffer_size))
            )
        return (
            np.array(reference),
            np.array(markov),
            np.array(exponential),
            np.array(multiscale),
        )

    reference, markov, exponential, multiscale = run_once(benchmark, run)
    text = format_series(
        "buffer",
        buffers,
        {
            "cutoff_solver": reference,
            "markov_12ph": markov,
            "markov_1ph": exponential,
            "multiscale_6": multiscale,
        },
        "Ablation — Markov comparators vs the cutoff solver",
    )
    rich_err = np.max(np.abs(np.log10(markov / reference)))
    poor_err = np.max(np.abs(np.log10(np.maximum(exponential, 1e-15) / reference)))
    multi_err = np.max(np.abs(np.log10(np.maximum(multiscale, 1e-15) / reference)))
    text += (
        f"\n\nmax |log10 error|: 12-phase renewal fit {rich_err:.2f} decades, "
        f"6-scale on/off fit {multi_err:.2f} decades, 1-phase fit {poor_err:.2f} decades\n"
        "(paper Section IV: a Markov model matching correlation up to CH "
        "predicts the same loss — the renewal fit also matches the marginal "
        "and is most accurate; the multiscale fit matches correlation only; "
        "the memoryless fit matches neither and fails)"
    )
    persist("ablation_markov_equivalence", text)
    assert rich_err < 0.3  # within a factor ~2 everywhere
    assert multi_err < 0.7  # correlation-only match: same order of magnitude
    assert poor_err > rich_err  # the memoryless fit is clearly worse
