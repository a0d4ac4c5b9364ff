"""Reference topologies: the tandem chain and the N-source multiplexer.

Both presets sweep a small (buffer × utilization) grid around the
paper's operating points and run one seeded simulation per cell; each
cell's :class:`~repro.netsim.simulate.NetSimResult` carries its own
cost (``events_processed``, ``wall_seconds``).  Buffers follow the
repo-wide convention: a *normalized* buffer of ``b`` seconds means an
absolute capacity of ``b * service_rate`` fluid units.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.marginal import DiscreteMarginal
from repro.core.source import CutoffFluidSource
from repro.experiments import reporting
from repro.netsim.nodes import MuxNode, QueueNode, SinkNode
from repro.netsim.simulate import NetSimResult, simulate
from repro.netsim.sources import RenewalSource
from repro.netsim.topology import Flow, Topology

__all__ = [
    "PresetCell",
    "PresetReport",
    "multiplexer_preset",
    "multiplexer_topology",
    "tandem_preset",
    "tandem_topology",
]


def _onoff_renewal(hurst: float) -> RenewalSource:
    """The paper's two-state on/off cutoff fluid source as a flow driver:
    peak rate 2, on half the time, mean interval 0.05 s, cutoff 2 s."""
    marginal = DiscreteMarginal.two_state(low=0.0, high=2.0, prob_high=0.5)
    return RenewalSource(
        CutoffFluidSource.from_hurst(
            marginal=marginal,
            hurst=hurst,
            mean_interval=0.05,
            cutoff=2.0,
        )
    )


def tandem_topology(
    utilization: float,
    normalized_buffer: float,
    hops: int = 2,
    hurst: float = 0.8,
) -> Topology:
    """A chain of ``hops`` identical queues fed by one on/off renewal flow.

    Every hop runs at the same nominal utilization; downstream hops see
    the upstream output, which is smoother than the raw source — the
    classic shaping effect tandem experiments measure.
    """
    if hops < 1:
        raise ValueError(f"hops must be >= 1, got {hops}")
    source = _onoff_renewal(hurst)
    service_rate = source.mean_rate / utilization
    buffer_size = normalized_buffer * service_rate
    names = [f"hop{i}" for i in range(1, hops + 1)]
    nodes = tuple(
        QueueNode(name, service_rate=service_rate, buffer=buffer_size)
        for name in names
    ) + (SinkNode("sink"),)
    route = tuple(names) + ("sink",)
    links = tuple(zip(route[:-1], route[1:]))
    return Topology(
        nodes=nodes,
        links=links,
        flows=(Flow("flow", source, route=route),),
    )


def multiplexer_topology(
    utilization: float,
    normalized_buffer: float,
    sources: int = 8,
    hurst: float = 0.8,
) -> Topology:
    """``sources`` independent on/off flows fanned into one shared queue.

    The shared service rate is dimensioned for the aggregate
    (``sources * mean_rate / utilization``); each flow draws from its own
    seeded stream, so this is the paper's N-source multiplexer.
    """
    if sources < 1:
        raise ValueError(f"sources must be >= 1, got {sources}")
    source = _onoff_renewal(hurst)
    service_rate = sources * source.mean_rate / utilization
    buffer_size = normalized_buffer * service_rate
    nodes = (
        MuxNode("mux"),
        QueueNode("queue", service_rate=service_rate, buffer=buffer_size),
        SinkNode("sink"),
    )
    links = (("mux", "queue"), ("queue", "sink"))
    flows = tuple(
        Flow(f"src{i}", source, route=("mux", "queue", "sink"))
        for i in range(1, sources + 1)
    )
    return Topology(nodes=nodes, links=links, flows=flows)


@dataclass(frozen=True)
class PresetCell:
    """One grid cell of a preset sweep."""

    index: int
    utilization: float
    normalized_buffer: float
    result: NetSimResult


@dataclass(frozen=True)
class PresetReport:
    """All cells of one preset sweep plus a rendered summary table."""

    name: str
    cells: tuple[PresetCell, ...]

    def bottleneck(self, cell: PresetCell) -> str:
        """Name of the node with the highest loss rate (ties: first)."""
        best_name = ""
        best_loss = -math.inf
        for name, stats in cell.result.node_stats.items():
            if stats.kind in ("queue", "priority") and stats.loss_rate > best_loss:
                best_name = name
                best_loss = stats.loss_rate
        return best_name

    def format_table(self) -> str:
        """Aligned text table, one row per grid cell."""
        index = np.arange(len(self.cells), dtype=np.float64)
        columns = {
            "utilization": [cell.utilization for cell in self.cells],
            "buffer_s": [cell.normalized_buffer for cell in self.cells],
            "loss_rate": [
                cell.result.node_stats[self.bottleneck(cell)].loss_rate
                for cell in self.cells
            ],
            "delay_s": [
                cell.result.node_stats[self.bottleneck(cell)].mean_delay
                for cell in self.cells
            ],
            "events": [float(cell.result.events_processed) for cell in self.cells],
        }
        return reporting.format_series("cell", index, columns, title=self.name)


def _run_grid(
    name: str,
    build: Callable[[float, float], Topology],
    utilizations: Sequence[float],
    buffers: Sequence[float],
    duration: float,
    warmup: float,
    seed: int,
) -> PresetReport:
    """Simulate every (utilization, buffer) cell.

    Every cell's topology is built before the first simulation starts,
    so a bad argument fails before any work is done.
    """
    grid = [
        (float(utilization), float(normalized_buffer), build(utilization, normalized_buffer))
        for utilization in utilizations
        for normalized_buffer in buffers
    ]
    return PresetReport(name=name, cells=tuple(
        PresetCell(
            index=index,
            utilization=utilization,
            normalized_buffer=normalized_buffer,
            result=simulate(topology, duration=duration, warmup=warmup, seed=seed + index),
        )
        for index, (utilization, normalized_buffer, topology) in enumerate(grid)
    ))


def tandem_preset(
    utilizations: Sequence[float] = (0.7, 0.9),
    buffers: Sequence[float] = (0.1, 0.5),
    hops: int = 2,
    duration: float = 200.0,
    warmup: float = 20.0,
    seed: int = 0,
    hurst: float = 0.8,
) -> PresetReport:
    """Sweep the two-hop tandem over a (utilization × buffer) grid."""
    return _run_grid(
        name=f"Tandem preset ({hops} hops, H={hurst:g})",
        build=lambda u, b: tandem_topology(u, b, hops=hops, hurst=hurst),
        utilizations=utilizations,
        buffers=buffers,
        duration=duration,
        warmup=warmup,
        seed=seed,
    )


def multiplexer_preset(
    utilizations: Sequence[float] = (0.7, 0.9),
    buffers: Sequence[float] = (0.1, 0.5),
    sources: int = 8,
    duration: float = 200.0,
    warmup: float = 20.0,
    seed: int = 0,
    hurst: float = 0.8,
) -> PresetReport:
    """Sweep the N-source multiplexer over a (utilization × buffer) grid."""
    return _run_grid(
        name=f"Multiplexer preset ({sources} sources, H={hurst:g})",
        build=lambda u, b: multiplexer_topology(u, b, sources=sources, hurst=hurst),
        utilizations=utilizations,
        buffers=buffers,
        duration=duration,
        warmup=warmup,
        seed=seed,
    )
