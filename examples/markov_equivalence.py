"""Markov models are fine below the correlation horizon (Section IV).

Run:  python examples/markov_equivalence.py

The paper's resolution of the "does LRD matter" debate: for finite-buffer
loss prediction, any model that captures the correlation structure up to
the correlation horizon works — including multi-state Markov models.  This
example builds that Markov comparator end to end:

1. fit a Feldmann-Whitt hyperexponential to the truncated-Pareto interval
   law (a sum of exponentials tracking the power-law ccdf);
2. take the renewal fluid source with those intervals — the Markov-
   modulated source — as a CTMC on (rate level, phase);
3. solve the resulting Markov-modulated fluid queue with the independent
   Anick-Mitra-Sondhi spectral method;
4. compare against the paper's bounded convolution solver — and against a
   deliberately memoryless 1-phase fit that ignores the correlation.
"""

from __future__ import annotations

import numpy as np

from repro.core.marginal import DiscreteMarginal
from repro.core.solver import FluidQueue, SolverConfig
from repro.core.source import CutoffFluidSource
from repro.core.truncated_pareto import TruncatedPareto
from repro.experiments.reporting import format_series
from repro.queueing.markov import HyperexponentialFit, fit_hyperexponential
from repro.queueing.mmfq import mmfq_loss_rate
from repro.traffic import MarkovModulatedSource


def main() -> None:
    marginal = DiscreteMarginal.two_state(low=0.0, high=2.0, prob_high=0.5)
    law = TruncatedPareto(theta=0.1, alpha=1.4, cutoff=5.0)
    source = CutoffFluidSource(marginal=marginal, interarrival=law)
    service_rate = 1.25

    fit = fit_hyperexponential(law, phases=12)
    print(f"Feldmann-Whitt fit: {fit.phases} phases, "
          f"mean {fit.mean * 1e3:.1f} ms (target {law.mean * 1e3:.1f} ms)")
    ts = np.logspace(-2, 0.6, 5)
    print(format_series(
        "t_s", ts,
        {"pareto_ccdf": np.asarray(law.sf(ts)), "hyperexp_ccdf": np.asarray(fit.sf(ts))},
        "\nInterval ccdf: power law vs fitted sum of exponentials",
    ))

    rich_model = MarkovModulatedSource(marginal=marginal, interarrival=fit).fluid_model()
    poor_model = MarkovModulatedSource(
        marginal=marginal,
        interarrival=HyperexponentialFit(
            weights=np.array([1.0]), exit_rates=np.array([1.0 / law.mean])
        ),
    ).fluid_model()
    print(f"\nCTMC comparators: {rich_model.size} states (12-phase), "
          f"{poor_model.size} states (memoryless)")

    buffers = np.array([0.1, 0.3, 1.0, 3.0])
    reference, markov, memoryless = [], [], []
    for buffer_size in buffers:
        queue = FluidQueue(source=source, service_rate=service_rate,
                           buffer_size=float(buffer_size))
        reference.append(queue.loss_rate(SolverConfig(relative_gap=0.05)).estimate)
        markov.append(mmfq_loss_rate(rich_model, service_rate, float(buffer_size)))
        memoryless.append(mmfq_loss_rate(poor_model, service_rate, float(buffer_size)))

    print()
    print(format_series(
        "buffer",
        buffers,
        {
            "cutoff_solver": np.array(reference),
            "markov_12ph": np.array(markov),
            "markov_memless": np.array(memoryless),
        },
        "Loss rate: paper's solver vs Markov comparators",
    ))
    print("\nThe 12-phase Markov model tracks the cutoff model closely; the")
    print("memoryless fit collapses at large buffers because it carries no")
    print("correlation — exactly the paper's point about the correlation horizon.")


if __name__ == "__main__":
    main()
