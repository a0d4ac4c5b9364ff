"""Seeded discrete-event simulation of networks of fluid queues.

The subsystem splits cleanly into entities, events and state:

* **entities** — frozen descriptions: :mod:`~repro.netsim.nodes` (queue,
  priority, mux, sink), :mod:`~repro.netsim.sources` (adapters turning
  every ``repro.traffic`` generator into piecewise-constant rates) and
  :mod:`~repro.netsim.topology` (nodes + links + routed flows, validated
  and topologically ordered at construction);
* **events** — :mod:`~repro.netsim.events`, a binary-heap loop of plain
  ``(time, kind, seq, fields)`` tuples with the deterministic
  ``(time, kind, seq)`` tie-break and epoch-invalidated boundary events;
* **state** — :mod:`~repro.netsim.simulate`, which compiles a topology
  into mutable fluid-buffer runtimes and integrates them linearly
  between events.

A one-node topology fed by a :class:`~repro.netsim.sources.RenewalSource`
is exactly the paper's model queue, which lets the spectral solver act
as the simulator's oracle (wired up in :mod:`repro.verify`).  The
:mod:`~repro.netsim.presets` module ships the tandem and N-source
multiplexer reference experiments behind ``repro-lrd netsim``.
"""

from repro.netsim.events import BOUNDARY, CONTROL, RATE_CHANGE, EventLoop
from repro.netsim.nodes import MuxNode, Node, PriorityNode, QueueNode, SinkNode
from repro.netsim.presets import (
    PresetCell,
    PresetReport,
    multiplexer_preset,
    multiplexer_topology,
    tandem_preset,
    tandem_topology,
)
from repro.netsim.simulate import FlowStats, NetSimResult, NodeStats, simulate
from repro.netsim.sources import RateSource, RenewalSource, SegmentSource, TraceSource
from repro.netsim.topology import Flow, Topology

__all__ = [
    "BOUNDARY",
    "CONTROL",
    "RATE_CHANGE",
    "EventLoop",
    "Flow",
    "FlowStats",
    "MuxNode",
    "NetSimResult",
    "Node",
    "NodeStats",
    "PresetCell",
    "PresetReport",
    "PriorityNode",
    "QueueNode",
    "RateSource",
    "RenewalSource",
    "SegmentSource",
    "SinkNode",
    "TraceSource",
    "Topology",
    "multiplexer_preset",
    "multiplexer_topology",
    "simulate",
    "tandem_preset",
    "tandem_topology",
]
