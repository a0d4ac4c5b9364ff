"""The simulation engine: compiled state + the event-processing loop.

This is the *state* layer of the entities/events/state split.  A
:class:`~repro.netsim.topology.Topology` of frozen entities is compiled
into mutable runtimes; the engine then processes events off a
:class:`~repro.netsim.events.EventLoop` and, between events, every
quantity evolves linearly — fluid rates are piecewise constant, so the
only instants anything changes are source rate switches and buffer
boundary hits, which is exactly the event set.

Only stateful nodes (queue and priority) are on the event path.  A
flow's rate change goes straight to its first stateful hop, and a
changed output straight to the flow's next one.  A mux or sink is
lossless and bufferless, so its stats are derived after the run from
its neighbours' per-flow integrals.  A rate change entering through a
mux reaches the queue behind it only when the flow's rate actually
changes, exactly as if the mux had been walked.

Semantics
---------
Aggregate dynamics per buffer are exact: with input rate ``R``, service
``c`` and buffer ``B``, occupancy follows ``dQ/dt = R - c`` clipped at
``0`` and ``B``, and overflow fluid is lost at rate ``R - c`` while
full.  For a single queue fed by one renewal flow this reproduces the
paper's Eq. 9 recursion *exactly* (each interval's drift has constant
sign, so clipping once per interval equals clipping continuously) —
the cross-validation tests and the :mod:`repro.verify` oracle rely on
this identity.

Per-flow accounting within a shared buffer uses a proportional split:
losses divide in proportion to instantaneous input rates, service in
proportion to per-flow backlog (falling back to input shares when the
buffer is empty), with shares frozen between events.  Aggregate
behavior — and any topology where co-resident flows share a next hop,
as in the tandem and multiplexer presets — is unaffected by this
approximation.

Determinism
-----------
``simulate(topology, ..., seed=s)`` is a pure function of its
arguments: per-flow randomness comes from ``SeedSequence(entropy=s,
spawn_key=(flow_index,))`` streams, every collection is iterated in
declaration order, and event ties are broken by the deterministic
``(time, kind, seq)`` heap key.  Two runs with the same seed produce
bit-identical event traces and statistics (a tested invariant).
"""

from __future__ import annotations

import math
import time
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from repro.core.validation import check_nonnegative, check_positive
from repro.netsim.events import BOUNDARY, CONTROL, RATE_CHANGE, EventLoop
from repro.netsim.nodes import MuxNode, PriorityNode, QueueNode, SinkNode
from repro.netsim.topology import Topology

__all__ = ["FlowStats", "NetSimResult", "NodeStats", "simulate"]


# --------------------------------------------------------------------- #
# results
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class NodeStats:
    """Measured-window statistics of one node.

    ``loss_rate`` is lost work over arrived work; ``mean_delay`` is the
    Little's-law delay ``E[Q] / throughput`` in seconds; ``full_fraction``
    and ``empty_fraction`` are the time fractions spent pinned at the
    buffer boundaries (averaged over classes for priority nodes).
    """

    name: str
    kind: str
    arrived_work: float
    served_work: float
    lost_work: float
    loss_rate: float
    mean_occupancy: float
    mean_delay: float
    full_fraction: float
    empty_fraction: float


@dataclass(frozen=True)
class FlowStats:
    """Measured-window statistics of one flow (end to end).

    ``mean_delay`` sums the flow's Little's-law delays over every hop:
    total backlog-integral along the route divided by delivered work.
    """

    name: str
    offered_work: float
    delivered_work: float
    lost_work: float
    loss_rate: float
    mean_delay: float


@dataclass(frozen=True)
class NetSimResult:
    """Everything one simulation run produced."""

    duration: float
    warmup: float
    node_stats: dict[str, NodeStats]
    flow_stats: dict[str, FlowStats]
    events_processed: int
    events_stale: int
    wall_seconds: float
    event_trace: tuple[tuple[float, str, str, float], ...] | None = None

    @property
    def events_per_second(self) -> float:
        """Processed events per wall-clock second."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.events_processed / self.wall_seconds

    def summary(self) -> dict[str, float]:
        """Flat mapping for ``reporting.format_mapping``."""
        values: dict[str, float] = {
            "events_processed": float(self.events_processed),
            "events_stale": float(self.events_stale),
            "events_per_second": self.events_per_second,
            "wall_seconds": self.wall_seconds,
        }
        for name, stats in self.node_stats.items():
            values[f"{name}.loss_rate"] = stats.loss_rate
            values[f"{name}.mean_occupancy"] = stats.mean_occupancy
            values[f"{name}.mean_delay_s"] = stats.mean_delay
        return values


# --------------------------------------------------------------------- #
# runtime state
# --------------------------------------------------------------------- #


class _FluidBuffer:
    """One finite fluid buffer with piecewise-constant input and service.

    Per-flow state lives in lists indexed by slot, in the order the
    flows were given; ``slot`` maps a flow id to its index.  ``handoff``
    holds the ``(slot, flow)`` pairs whose output feeds a next stateful
    hop: :meth:`recompute` reports output changes for those flows only.
    """

    __slots__ = (
        "capacity", "service", "occupancy", "last_time", "epoch",
        "in_total", "out_total", "loss_total", "drift", "at_full", "at_empty",
        "arrived_total", "served_total", "lost_total", "occupancy_integral",
        "full_time", "empty_time", "slot", "handoff",
        "in_rate", "out_rate", "loss_rate", "backlog",
        "arrived", "served", "lost", "backlog_integral",
    )

    def __init__(self, capacity: float, flow_ids: list[int]) -> None:
        self.capacity = capacity
        self.service = 0.0
        self.occupancy = 0.0
        self.last_time = 0.0
        self.epoch = 0
        self.in_total = 0.0
        self.out_total = 0.0
        self.loss_total = 0.0
        self.drift = 0.0
        self.at_full = False
        self.at_empty = True
        self.arrived_total = 0.0
        self.served_total = 0.0
        self.lost_total = 0.0
        self.occupancy_integral = 0.0
        self.full_time = 0.0
        self.empty_time = 0.0
        self.slot = {fid: index for index, fid in enumerate(flow_ids)}
        self.handoff: list[tuple[int, int]] = []
        zeros = [0.0] * len(flow_ids)
        self.in_rate = list(zeros)
        self.out_rate = list(zeros)
        self.loss_rate = list(zeros)
        self.backlog = list(zeros)
        self.arrived = list(zeros)
        self.served = list(zeros)
        self.lost = list(zeros)
        self.backlog_integral = list(zeros)

    def advance(self, t: float) -> None:
        """Integrate the current linear regime up to time ``t``.

        One pass integrates every flow and clamps its backlog at zero,
        summing the clamped backlogs; :meth:`_rescale` then makes them
        add up to the new occupancy.
        """
        dt = t - self.last_time
        if dt <= 0.0:
            return
        self.arrived_total += self.in_total * dt
        self.served_total += self.out_total * dt
        self.lost_total += self.loss_total * dt
        self.occupancy_integral += (self.occupancy + 0.5 * self.drift * dt) * dt
        arrived, served, lost = self.arrived, self.served, self.lost
        backlog, backlog_integral = self.backlog, self.backlog_integral
        total = 0.0
        for i, rate, out, loss, held in zip(
            range(len(backlog)), self.in_rate, self.out_rate, self.loss_rate, backlog
        ):
            arrived[i] += rate * dt
            lost[i] += loss * dt
            served[i] += out * dt
            net = rate - out - loss
            backlog_integral[i] += (held + 0.5 * net * dt) * dt
            held += net * dt
            if held < 0.0:
                held = 0.0
            backlog[i] = held
            total += held
        if self.at_full:
            self.full_time += dt
        elif self.at_empty:
            self.empty_time += dt
        self.occupancy = min(
            self.capacity, max(0.0, self.occupancy + self.drift * dt)
        )
        self._rescale(total)
        self.last_time = t

    def _rescale(self, total: float) -> None:
        """Rescale the per-flow backlogs, which sum to ``total``, to the aggregate."""
        if total > 0.0:
            scale = self.occupancy / total
            self.backlog = [held * scale for held in self.backlog]
        elif self.occupancy > 0.0 and self.in_total > 0.0:
            occupancy, in_total = self.occupancy, self.in_total
            self.backlog = [occupancy * rate / in_total for rate in self.in_rate]

    def snap(self, target: float) -> None:
        """Land exactly on a boundary (cancels accumulated float drift).

        Backlogs are never negative between events, so a snap only
        rescales them.
        """
        self.occupancy = min(self.capacity, max(0.0, target))
        total = 0.0
        for held in self.backlog:
            total += held
        self._rescale(total)

    def recompute(self) -> Sequence[tuple[int, float]]:
        """Re-derive the linear regime.

        Returns the changed ``(flow, out_rate)`` pairs of the flows in
        ``handoff``; a buffer with no handoff builds no change list.
        """
        self.epoch += 1
        in_rate = self.in_rate
        total_in = 0.0
        for rate in in_rate:
            total_in += rate
        self.in_total = total_in
        capacity = self.capacity
        service = self.service
        occupancy = self.occupancy
        if occupancy >= capacity and total_in >= service:
            self.occupancy = capacity
            out_total = service
            loss_total = total_in - service
            self.drift = 0.0
            self.at_full = True
            self.at_empty = False
        elif occupancy <= 0.0 and total_in <= service:
            self.occupancy = 0.0
            out_total = total_in
            loss_total = 0.0
            self.drift = 0.0
            self.at_full = False
            self.at_empty = True
        else:
            out_total = service
            loss_total = 0.0
            self.drift = total_in - service
            self.at_full = False
            self.at_empty = False
        self.loss_total = loss_total
        self.out_total = out_total
        # Output split: backlog shares while fluid is queued, input shares
        # on pass-through; loss splits by input shares (frozen per regime).
        backlog = self.backlog
        backlog_total = 0.0
        if self.occupancy > 0.0:
            for held in backlog:
                backlog_total += held
        if out_total <= 0.0:
            out_rate = [0.0] * len(in_rate)
        elif backlog_total > 0.0:
            out_rate = [out_total * held / backlog_total for held in backlog]
        elif total_in > 0.0:
            out_rate = [out_total * rate / total_in for rate in in_rate]
        else:
            out_rate = [0.0] * len(in_rate)
        if total_in > 0.0:
            self.loss_rate = [loss_total * rate / total_in for rate in in_rate]
        else:
            self.loss_rate = [0.0] * len(in_rate)
        previous, self.out_rate = self.out_rate, out_rate
        if not self.handoff:
            return ()
        return [
            (fid, out_rate[slot])
            for slot, fid in self.handoff
            if out_rate[slot] != previous[slot]
        ]

    def boundary(self) -> tuple[float, float, str] | None:
        """``(time_delta, target, tag)`` of the next boundary hit, if any."""
        if self.drift > 0.0 and self.capacity != math.inf:
            return (self.capacity - self.occupancy) / self.drift, self.capacity, "full"
        if self.drift < 0.0:
            return self.occupancy / (-self.drift), 0.0, "empty"
        return None

    def reset_stats(self) -> None:
        self.arrived_total = 0.0
        self.served_total = 0.0
        self.lost_total = 0.0
        self.occupancy_integral = 0.0
        self.full_time = 0.0
        self.empty_time = 0.0
        zeros = [0.0] * len(self.arrived)
        self.arrived = list(zeros)
        self.served = list(zeros)
        self.lost = list(zeros)
        self.backlog_integral = list(zeros)


_Scheduler = Callable[[int, int, int, float, float, str], None]
"""``schedule(node, subqueue, epoch, at, target, tag)`` boundary-event hook."""


class _NodeRuntime:
    """Compiled state of a stateful node: the only runtimes events touch.

    ``downstream`` maps each flow through the node to the flow's next
    stateful hop, past any mux; ``dirty`` marks a runtime advanced to the
    current event's time and waiting for its recompute.
    """

    __slots__ = ("name", "kind", "index", "dirty", "downstream")

    def __init__(self, name: str, kind: str, index: int) -> None:
        self.name = name
        self.kind = kind
        self.index = index
        self.dirty = False
        self.downstream: dict[int, _NodeRuntime] = {}

    def advance(self, t: float) -> None:
        raise NotImplementedError

    def set_in(self, fid: int, rate: float) -> None:
        buf, slot = self.slot_of(fid)
        buf.in_rate[slot] = rate

    def recompute(self, t: float, schedule: _Scheduler) -> Sequence[tuple[int, float]]:
        """Re-derive regimes at ``t``; returns the changed ``(flow, out_rate)``
        pairs of the flows that have a next stateful hop."""
        raise NotImplementedError

    def buffer_epoch(self, subqueue: int) -> int:
        raise NotImplementedError

    def snap(self, subqueue: int, target: float) -> None:
        raise NotImplementedError

    def reset_stats(self) -> None:
        raise NotImplementedError

    def slot_of(self, fid: int) -> tuple[_FluidBuffer, int]:
        """The buffer carrying flow ``fid`` and the flow's slot in it."""
        raise NotImplementedError

    def node_stats(self, measured: float) -> NodeStats:
        raise NotImplementedError


class _QueueRuntime(_NodeRuntime):
    """A plain FIFO queue: one fluid buffer at constant service."""

    __slots__ = ("buffer",)

    def __init__(self, node: QueueNode, index: int, flow_ids: list[int]) -> None:
        super().__init__(node.name, node.kind, index)
        self.buffer = _FluidBuffer(node.buffer, flow_ids)
        self.buffer.service = node.service_rate

    def advance(self, t: float) -> None:
        self.buffer.advance(t)

    def recompute(self, t: float, schedule: _Scheduler) -> Sequence[tuple[int, float]]:
        buf = self.buffer
        changed = buf.recompute()
        hit = buf.boundary()
        if hit is not None:
            delta, target, tag = hit
            schedule(self.index, 0, buf.epoch, t + delta, target, tag)
        return changed

    def buffer_epoch(self, subqueue: int) -> int:
        return self.buffer.epoch

    def snap(self, subqueue: int, target: float) -> None:
        self.buffer.snap(target)

    def reset_stats(self) -> None:
        self.buffer.reset_stats()

    def slot_of(self, fid: int) -> tuple[_FluidBuffer, int]:
        return self.buffer, self.buffer.slot[fid]

    def node_stats(self, measured: float) -> NodeStats:
        buf = self.buffer
        arrived = buf.arrived_total
        served = buf.served_total
        mean_occupancy = buf.occupancy_integral / measured if measured > 0.0 else 0.0
        return NodeStats(
            name=self.name,
            kind=self.kind,
            arrived_work=arrived,
            served_work=served,
            lost_work=buf.lost_total,
            loss_rate=buf.lost_total / arrived if arrived > 0.0 else 0.0,
            mean_occupancy=mean_occupancy,
            mean_delay=buf.occupancy_integral / served if served > 0.0 else 0.0,
            full_fraction=buf.full_time / measured if measured > 0.0 else 0.0,
            empty_fraction=buf.empty_time / measured if measured > 0.0 else 0.0,
        )


class _PriorityRuntime(_NodeRuntime):
    """Static-priority classes, each a fluid buffer on leftover service."""

    __slots__ = ("service_rate", "classes", "class_of")

    def __init__(
        self, node: PriorityNode, index: int, class_flows: dict[int, list[int]]
    ) -> None:
        super().__init__(node.name, node.kind, index)
        self.service_rate = node.service_rate
        # Classes sorted strictest (lowest number) first.
        self.classes = [
            _FluidBuffer(node.buffer, class_flows[priority])
            for priority in sorted(class_flows)
        ]
        self.class_of = {
            fid: position
            for position, priority in enumerate(sorted(class_flows))
            for fid in class_flows[priority]
        }

    def advance(self, t: float) -> None:
        for buf in self.classes:
            buf.advance(t)

    def recompute(self, t: float, schedule: _Scheduler) -> Sequence[tuple[int, float]]:
        changed: list[tuple[int, float]] = []
        available = self.service_rate
        for position, buf in enumerate(self.classes):
            buf.service = available
            changed += buf.recompute()
            hit = buf.boundary()
            if hit is not None:
                delta, target, tag = hit
                schedule(self.index, position, buf.epoch, t + delta, target, tag)
            available = max(0.0, available - buf.out_total)
        return changed

    def buffer_epoch(self, subqueue: int) -> int:
        return self.classes[subqueue].epoch

    def snap(self, subqueue: int, target: float) -> None:
        self.classes[subqueue].snap(target)

    def reset_stats(self) -> None:
        for buf in self.classes:
            buf.reset_stats()

    def slot_of(self, fid: int) -> tuple[_FluidBuffer, int]:
        buf = self.classes[self.class_of[fid]]
        return buf, buf.slot[fid]

    def node_stats(self, measured: float) -> NodeStats:
        arrived = sum(buf.arrived_total for buf in self.classes)
        served = sum(buf.served_total for buf in self.classes)
        lost = sum(buf.lost_total for buf in self.classes)
        occupancy_integral = sum(buf.occupancy_integral for buf in self.classes)
        n = len(self.classes)
        full = sum(buf.full_time for buf in self.classes) / n if n else 0.0
        empty = sum(buf.empty_time for buf in self.classes) / n if n else 0.0
        return NodeStats(
            name=self.name,
            kind=self.kind,
            arrived_work=arrived,
            served_work=served,
            lost_work=lost,
            loss_rate=lost / arrived if arrived > 0.0 else 0.0,
            mean_occupancy=occupancy_integral / measured if measured > 0.0 else 0.0,
            mean_delay=occupancy_integral / served if served > 0.0 else 0.0,
            full_fraction=full / measured if measured > 0.0 else 0.0,
            empty_fraction=empty / measured if measured > 0.0 else 0.0,
        )


class _StatelessRuntime:
    """A mux or sink: no runtime on the event path, lossless and bufferless.

    Its per-flow work is filled in after the run from its neighbours'
    integrals: the served work of the flow's previous stateful hop, or
    the flow's offered work when no stateful hop comes before it.
    """

    __slots__ = ("name", "kind", "arrived")

    def __init__(self, node: MuxNode | SinkNode, flow_ids: list[int]) -> None:
        self.name = node.name
        self.kind = node.kind
        self.arrived = {fid: 0.0 for fid in flow_ids}

    def node_stats(self, measured: float) -> NodeStats:
        arrived = sum(self.arrived.values())
        return NodeStats(
            name=self.name,
            kind=self.kind,
            arrived_work=arrived,
            served_work=arrived,
            lost_work=0.0,
            loss_rate=0.0,
            mean_occupancy=0.0,
            mean_delay=0.0,
            full_fraction=0.0,
            empty_fraction=0.0,
        )


_Runtime = Union[_NodeRuntime, _StatelessRuntime]


# --------------------------------------------------------------------- #
# compilation + the engine
# --------------------------------------------------------------------- #


def _compile(
    topology: Topology,
) -> tuple[list[_Runtime], list[_NodeRuntime], list[list[_NodeRuntime]]]:
    """Runtimes in declaration order, the stateful ones in topological
    order, and each flow's stateful hops (``downstream`` wired along them)."""
    visiting: dict[str, list[int]] = {node.name: [] for node in topology.nodes}
    priorities: dict[str, dict[int, list[int]]] = {
        node.name: {} for node in topology.nodes
    }
    for fid, flow in enumerate(topology.flows):
        for hop in flow.route:
            visiting[hop].append(fid)
            priorities[hop].setdefault(flow.priority, []).append(fid)
    runtimes: list[_Runtime] = []
    for index, node in enumerate(topology.nodes):
        fids = visiting[node.name]
        if isinstance(node, QueueNode):
            runtimes.append(_QueueRuntime(node, index, fids))
        elif isinstance(node, PriorityNode):
            classes = priorities[node.name] or {0: []}
            runtimes.append(_PriorityRuntime(node, index, classes))
        else:
            runtimes.append(_StatelessRuntime(node, fids))
    by_name = {runtime.name: runtime for runtime in runtimes}

    def stateful(names: tuple[str, ...]) -> list[_NodeRuntime]:
        return [rt for name in names if isinstance(rt := by_name[name], _NodeRuntime)]

    routes = [stateful(flow.route) for flow in topology.flows]
    for fid, hops in enumerate(routes):
        for here, after in zip(hops, hops[1:]):
            here.downstream[fid] = after
            buf, slot = here.slot_of(fid)
            buf.handoff.append((slot, fid))
    return runtimes, stateful(topology.order), routes


def simulate(
    topology: Topology,
    duration: float,
    warmup: float = 0.0,
    seed: int = 0,
    record_trace: bool = False,
) -> NetSimResult:
    """Run one seeded simulation of ``topology``.

    Parameters
    ----------
    topology:
        The validated network description.
    duration:
        Measured horizon, simulation seconds.
    warmup:
        Seconds simulated before statistics start accumulating (reduces
        the empty-start bias, exactly like the Monte Carlo simulator's
        warmup intervals).
    seed:
        Master seed; flow ``i`` draws from the child stream
        ``SeedSequence(entropy=seed, spawn_key=(i,))``.
    record_trace:
        Keep the full processed-event trace ``(time, tag, target,
        value)`` on the result (the determinism tests compare these bit
        for bit; large runs should leave it off).
    """
    duration = check_positive("duration", duration)
    warmup = check_nonnegative("warmup", warmup)
    runtimes, order, routes = _compile(topology)
    by_name = {runtime.name: runtime for runtime in runtimes}
    by_index = {runtime.index: runtime for runtime in order}
    flows = topology.flows
    first_hop = [hops[0] if hops else None for hops in routes]
    # A mux forwards a rate only when it changes, so a flow entering
    # through one reaches its first stateful hop on a change only; one
    # entering a queue directly marks it on every rate event.
    gated = [not isinstance(by_name[flow.route[0]], _NodeRuntime) for flow in flows]
    entry_rate = [0.0] * len(flows)
    # Flows with no stateful hop keep their offered work here, settled
    # lazily at their own rate changes and at control events.
    unbuffered = [fid for fid, hop in enumerate(first_hop) if hop is None]
    source_work = [0.0] * len(flows)
    source_since = [0.0] * len(flows)
    flow_names = [flow.name for flow in flows]

    loop = EventLoop()
    end_time = warmup + duration
    trace: list[tuple[float, str, str, float]] = []

    def schedule_boundary(
        node: int, subqueue: int, epoch: int, at: float, target: float, tag: str
    ) -> None:
        if at <= end_time:
            loop.schedule(at, BOUNDARY, node, subqueue, epoch, target, tag)

    def settle(fid: int, t: float) -> None:
        source_work[fid] += entry_rate[fid] * (t - source_since[fid])
        source_since[fid] = t

    # Per-flow segment iterators; one outstanding rate event per flow.
    iterators = []
    pending_duration = [0.0] * len(flows)
    for fid, flow in enumerate(flows):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(fid,))
        )
        iterator = iter(flow.source.segments(rng))
        iterators.append(iterator)
        first = next(iterator, None)
        if first is not None:
            seg_duration, seg_rate = first
            pending_duration[fid] = float(seg_duration)
            loop.schedule(0.0, RATE_CHANGE, fid, float(seg_rate))
    if warmup > 0.0:
        loop.schedule(warmup, CONTROL, "reset")
    loop.schedule(end_time, CONTROL, "end")

    measure_start = 0.0
    started = time.perf_counter()

    while loop:
        t, kind, _seq, fields = loop.pop()
        if kind == BOUNDARY:
            node, subqueue, epoch, value, tag = fields
            runtime = by_index[node]
            if runtime.buffer_epoch(subqueue) != epoch:
                loop.stale += 1
                continue
        loop.processed += 1
        if record_trace:
            if kind == RATE_CHANGE:
                trace.append((t, "rate", flow_names[fields[0]], fields[1]))
            elif kind == BOUNDARY:
                trace.append((t, tag, f"{runtime.name}[{subqueue}]", value))
            else:
                trace.append((t, fields[0], "", 0.0))

        if kind == RATE_CHANGE:
            fid, rate = fields
            hop = first_hop[fid]
            if hop is None:
                settle(fid, t)
                entry_rate[fid] = rate
            elif not gated[fid] or rate != entry_rate[fid]:
                entry_rate[fid] = rate
                hop.advance(t)
                hop.set_in(fid, rate)
                hop.dirty = True
            nxt = next(iterators[fid], None)
            change_at = t + pending_duration[fid]
            if nxt is not None and change_at < end_time:
                seg_duration, seg_rate = nxt
                pending_duration[fid] = float(seg_duration)
                loop.schedule(change_at, RATE_CHANGE, fid, float(seg_rate))
        elif kind == BOUNDARY:
            runtime.advance(t)
            runtime.snap(subqueue, value)
            runtime.dirty = True
        else:  # CONTROL
            for runtime in order:
                runtime.advance(t)
            for fid in unbuffered:
                settle(fid, t)
            if fields[0] == "reset":
                for runtime in order:
                    runtime.reset_stats()
                for fid in unbuffered:
                    source_work[fid] = 0.0
                measure_start = t
                continue
            break  # "end"

        # Propagate downstream in topological order: additions made while
        # scanning are always at later positions, so one pass suffices.  A
        # dirty runtime is already advanced to ``t``.
        for runtime in order:
            if not runtime.dirty:
                continue
            runtime.dirty = False
            downstream = runtime.downstream
            for fid, rate in runtime.recompute(t, schedule_boundary):
                successor = downstream[fid]
                if not successor.dirty:
                    successor.advance(t)
                    successor.dirty = True
                successor.set_in(fid, rate)

    wall = time.perf_counter() - started
    measured = end_time - measure_start

    flow_stats: dict[str, FlowStats] = {}
    for fid, flow in enumerate(flows):
        slots = [hop.slot_of(fid) for hop in routes[fid]]
        if slots:
            buf, slot = slots[0]
            offered = buf.arrived[slot]
        else:
            offered = source_work[fid]
        # Walk the route: a stateless hop carries what its upstream served.
        carried = offered
        for name in flow.route:
            node = by_name[name]
            if isinstance(node, _NodeRuntime):
                buf, slot = node.slot_of(fid)
                carried = buf.served[slot]
            else:
                node.arrived[fid] = carried
        lost = sum(buf.lost[slot] for buf, slot in slots)
        backlog_integral = sum(buf.backlog_integral[slot] for buf, slot in slots)
        flow_stats[flow.name] = FlowStats(
            name=flow.name,
            offered_work=offered,
            delivered_work=carried,
            lost_work=lost,
            loss_rate=lost / offered if offered > 0.0 else 0.0,
            mean_delay=backlog_integral / carried if carried > 0.0 else 0.0,
        )
    node_stats = {
        runtime.name: runtime.node_stats(measured) for runtime in runtimes
    }

    return NetSimResult(
        duration=duration,
        warmup=warmup,
        node_stats=node_stats,
        flow_stats=flow_stats,
        events_processed=loop.processed,
        events_stale=loop.stale,
        wall_seconds=wall,
        event_trace=tuple(trace) if record_trace else None,
    )
