"""Workload ``netsim``: seeded network simulations and single-queue pairs.

One round is the 16-source multiplexer and the 4-hop tandem at
utilization {0.7, 0.9} x buffer {0.1, 0.5} s (``repro netsim mux
--sources 16`` / ``repro netsim tandem --hops 4`` cells at a quarter of the
CLI's duration, so a round is a few seconds),
plus single-queue pairs: one shared sample path pushed through a
one-node netsim topology and through
``queueing.fluid_sim.simulate_source_queue``.  The per-event Python cost
of netsim does all the work; the solver does none.  The pairs time the
two Monte Carlo simulators on identical input.  The workload seed is the
simulations' master seed.
"""

from __future__ import annotations

import math
import time

import numpy as np

from perfbench.common import Outcome, Run, median, percentile, timed_setups
from perfbench.goldens import load_goldens

GRID = ((0.7, 0.1), (0.7, 0.5), (0.9, 0.1), (0.9, 0.5))
DURATION = 50.0
WARMUP = 10.0
PAIR_INTERVALS = 5000
_REL = 1e-9


def _pair_source():
    from repro.core.marginal import DiscreteMarginal
    from repro.core.source import CutoffFluidSource

    return CutoffFluidSource.from_hurst(
        marginal=DiscreteMarginal.two_state(low=0.0, high=2.0, prob_high=0.5),
        hurst=0.8, mean_interval=0.05, cutoff=2.0,
    )


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=_REL, abs_tol=1e-300)


class _NetSim:
    def __init__(self, run: Run) -> None:
        import repro.netsim as netsim
        from repro.queueing import fluid_sim

        self.run = run
        self.netsim = netsim
        self.fluid_sim = fluid_sim
        self.source = _pair_source()
        self.paths: dict[int, object] = {}

    def cells(self):
        """``(op name, topology function, args, kwargs, cell seed)`` for one round."""
        out = []
        for name, build in (("mux16", self.netsim.multiplexer_topology),
                            ("tandem4", self.netsim.tandem_topology)):
            kwargs = {"sources": 16} if name == "mux16" else {"hops": 4}
            for index, (utilization, buffer) in enumerate(GRID):
                out.append((f"{name}-{index}", build, (utilization, buffer), kwargs,
                            self.run.seed + index))
        return out

    def simulate_cell(self, build, args, kwargs, seed):
        return self.netsim.simulate(build(*args, **kwargs), duration=DURATION,
                                    warmup=WARMUP, seed=seed)

    def check_cell(self, op, result) -> None:
        if self.run.seed != 0:
            return
        for node, (loss_rate, arrived) in load_goldens()["netsim"][op.name].items():
            stats = result.node_stats[node]
            if not (_close(stats.loss_rate, loss_rate) and _close(stats.arrived_work, arrived)):
                op.fail(f"{op.name}: node {node} differs from the golden run")

    def pair_input(self, index: int):
        """The shared sample path of pair ``index`` (sampled outside timing)."""
        if index not in self.paths:
            utilization, buffer = GRID[index]
            service = self.source.mean_rate / utilization
            path = self.source.sample_path(PAIR_INTERVALS, self._rng(index))
            self.paths[index] = (path, service, buffer * service)
        return self.paths[index]

    def _rng(self, index: int):
        return np.random.default_rng([self.run.seed, index])

    def pair_netsim(self, index: int):
        netsim = self.netsim
        path, service, buffer_size = self.pair_input(index)
        segment = netsim.SegmentSource(tuple(path.durations.tolist()), tuple(path.rates.tolist()))
        topology = netsim.Topology(
            nodes=(netsim.QueueNode("q", service_rate=service, buffer=buffer_size),
                   netsim.SinkNode("sink")),
            links=(("q", "sink"),),
            flows=(netsim.Flow("flow", segment, route=("q", "sink")),),
        )
        return netsim.simulate(topology, duration=float(sum(segment.durations))).node_stats["q"]

    def pair_mc(self, index: int):
        _, service, buffer_size = self.pair_input(index)
        return self.fluid_sim.simulate_source_queue(
            self.source, service, buffer_size, PAIR_INTERVALS, self._rng(index)
        )

    def round(self, clock, tag: str, trace_base: int) -> list:
        spans = self.run.spans
        ops = []
        for position, (name, build, args, kwargs, seed) in enumerate(self.cells()):
            if spans is not None:
                spans.begin(trace_base + position)
            with clock.op(name, "cell" + tag) as op:
                result = self.simulate_cell(build, args, kwargs, seed)
            op.info["events"] = result.events_processed
            self.check_cell(op, result)
            ops.append(op)
        for index in range(len(GRID)):
            self.pair_input(index)
            if spans is not None:
                spans.begin(trace_base + 100 + index)
            with clock.op(f"pair{index}-netsim", "pair_netsim" + tag) as sim_op:
                sim = self.pair_netsim(index)
            with clock.op(f"pair{index}-mc", "pair_mc" + tag) as mc_op:
                ref = self.pair_mc(index)
            if not (_close(sim.loss_rate, ref.loss_rate)
                    and _close(sim.arrived_work, ref.arrived_work)):
                sim_op.fail(f"pair {index}: netsim and simulate_source_queue disagree")
            golden = load_goldens()["netsim"][f"pair{index}"]
            if self.run.seed == 0 and not _close(sim.loss_rate, golden):
                sim_op.fail(f"pair {index}: loss differs from the golden run")
            ops += [sim_op, mc_op]
        return ops

    def setup(self, repeat: int) -> None:
        self.paths.clear()
        name, build, args, kwargs, seed = self.cells()[0]
        self.simulate_cell(build, args, kwargs, seed)
        self.pair_input(0)
        self.pair_netsim(0)
        self.pair_mc(0)


def run_workload(run: Run) -> Outcome:
    sim = _NetSim(run)
    _, setup_norm, setup_raw = timed_setups(run, sim.setup)
    clock = run.clock()
    clock.start()
    deadline = run.deadline()
    ops = []
    rounds = 0
    while True:
        if run.spans is None:
            ops += sim.round(clock, "", 0)
        else:
            for traced in (False, True):
                run.spans.enabled = traced
                ops += sim.round(clock, "+traced" if traced else "", 1000 * (rounds + 1))
            run.spans.enabled = False
        rounds += 1
        if run.spans is not None or time.perf_counter() >= deadline:
            break
    clock.finish()

    plain = [op for op in ops if "+" not in op.kind]
    names = sorted({op.name for op in plain})
    metrics, raw = {}, {}
    for target, attr in ((metrics, "norm_s"), (raw, "wall_s")):
        per_op = {
            name: median([getattr(op, attr) for op in plain if op.name == name])
            for name in names
        }
        target["throughput"] = len(per_op) / sum(per_op.values())
        target["p50_ms"] = median(list(per_op.values())) * 1e3
        target["p99_ms"] = percentile(list(per_op.values()), 99) * 1e3
        target["warm_ms"] = median(
            [value for name, value in per_op.items() if name.endswith("-netsim")]
        ) * 1e3
    metrics["setup_s"], raw["setup_s"] = setup_norm, setup_raw
    outcome = Outcome(ops=ops, metrics=metrics, raw=raw, info={"rounds": rounds})
    if run.spans is not None:
        outcome.per_layer = _traced_metrics(run, ops)
    return outcome


def _traced_metrics(run: Run, ops) -> dict[str, float]:
    from perfbench.spans import layer_metrics, trace_overhead

    out = layer_metrics(run.spans)
    traced = [op for op in ops if op.kind.endswith("+traced")]
    for family in ("mux16", "tandem4"):
        out[f"netsim.events_{family}"] = sum(
            op.info["events"] for op in traced if op.name.startswith(family)
        )
    pair_ids = {tid for tid, *_ in run.spans.spans if tid > 0 and tid % 1000 >= 100}
    pair_spans = [(name, dt) for tid, _, _, name, _, dt in run.spans.spans if tid in pair_ids]
    for layer, span in (("netsim", "netsim.simulate"),
                        ("queueing", "queueing.simulate_source_queue")):
        times = [dt for name, dt in pair_spans if name == span]
        out[f"{layer}.pair_ms"] = sum(times) * 1e3 / len(times) if times else 0.0
    out["trace.overhead"] = trace_overhead(ops)
    return out
