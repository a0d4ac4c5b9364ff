"""In-suite enforcement: netsim replays the Eq. 9 recursion on a seeded grid.

This is the cross-validation the netsim subsystem ships with: on every
applicable scenario of a fixed seeded stream, the one-node network
simulator and :func:`~repro.queueing.fluid_sim.simulate_source_queue`
must agree exactly on one shared sampled path, judged by the same
:class:`NetSimSolverOracle` the fuzz battery rotates through.  A
regression in either code path fails the suite, not just the nightly
fuzz job.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.netsim import QueueNode, SegmentSource, SinkNode
from repro.verify import NetSimSolverOracle, ScenarioGenerator, netsim_single_queue


def test_single_queue_topology_is_the_model_queue(lossy_scenario):
    path = lossy_scenario.source.sample_path(50, np.random.default_rng(7))
    segments = SegmentSource(
        tuple(path.durations.tolist()), tuple(path.rates.tolist())
    )
    topo = netsim_single_queue(lossy_scenario, segments)
    queue, sink = topo.nodes
    assert isinstance(queue, QueueNode) and isinstance(sink, SinkNode)
    service = lossy_scenario.source.mean_rate / lossy_scenario.utilization
    assert queue.service_rate == pytest.approx(service)
    assert queue.buffer == pytest.approx(
        lossy_scenario.normalized_buffer * service
    )
    (flow,) = topo.flows
    assert flow.source is segments
    assert flow.route == ("queue", "sink")


@pytest.mark.slow
def test_netsim_matches_solver_on_seeded_grid(ctx):
    """The acceptance grid: a fixed scenario stream, zero tolerance for misses."""
    generator = ScenarioGenerator(seed=20260808)
    oracle = NetSimSolverOracle()
    judged = 0
    for index in range(10):
        scenario = generator.generate(index)
        if not oracle.applies(scenario):
            continue
        outcome = oracle.run(scenario, ctx)
        assert outcome.passed and not outcome.skipped, (
            f"case {index} ({scenario.describe()}): {outcome.message} "
            f"{outcome.details}"
        )
        judged += 1
    assert judged >= 4, "the seeded grid must actually exercise the comparison"
