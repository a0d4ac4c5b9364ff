"""Pins for the compiled event path: mux and sink nodes stay off it.

Only queue and priority nodes are recomputed on events; mux and sink
stats are derived after the run from their neighbours' per-flow
integrals.  Per-flow shares are frozen between recomputes, so the
compiled path must recompute exactly when a walk through every node
would: a rate change entering through a mux that does not change the
flow's rate marks nothing, while one entering a queue directly always
marks it.  These pins hold each topology shape that path handles,
including the 16-source multiplexer and the 4-hop tandem of the
presets, to the compiled path's own values: the event-trace digest and
event counts exactly, and every ``NodeStats``/``FlowStats`` float
exactly save those a builtin ``sum()`` adds over several terms.  Mux,
sink and priority stats and a multi-hop flow's loss and delay stay at
rel 1e-12, because Python 3.12 compensates ``sum()`` and 3.11 does not.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.marginal import DiscreteMarginal
from repro.core.source import CutoffFluidSource
from repro.core.truncated_pareto import TruncatedPareto
from repro.netsim import (
    Flow,
    MuxNode,
    PriorityNode,
    QueueNode,
    RenewalSource,
    SegmentSource,
    SinkNode,
    Topology,
    multiplexer_topology,
    simulate,
    tandem_topology,
)

_REL = 1e-12


def _renewal(theta: float = 0.1) -> RenewalSource:
    return RenewalSource(CutoffFluidSource(
        marginal=DiscreteMarginal(rates=[0.0, 2.0], probs=[0.5, 0.5]),
        interarrival=TruncatedPareto(theta=theta, alpha=1.4, cutoff=5.0),
    ))


def mid_route_mux() -> Topology:
    """``q1 -> mux -> q2 -> sink``, with a second flow joining at the mux."""
    return Topology(
        nodes=(
            QueueNode("q1", service_rate=1.2, buffer=0.1),
            MuxNode("mux"),
            QueueNode("q2", service_rate=1.8, buffer=0.15),
            SinkNode("sink"),
        ),
        links=(("q1", "mux"), ("mux", "q2"), ("q2", "sink")),
        flows=(
            Flow("through", _renewal(), route=("q1", "mux", "q2", "sink")),
            Flow("joiner", _renewal(0.05), route=("mux", "q2", "sink")),
        ),
    )


def stateless_routes() -> Topology:
    """Routes with no stateful hop beside one that has a queue."""
    return Topology(
        nodes=(
            MuxNode("mux"),
            QueueNode("q", service_rate=1.1, buffer=0.1),
            SinkNode("sink"),
        ),
        links=(("mux", "sink"), ("mux", "q"), ("q", "sink")),
        flows=(
            Flow("direct", _renewal(), route=("sink",)),
            Flow("muxed", _renewal(), route=("mux", "sink")),
            Flow("queued", _renewal(), route=("mux", "q", "sink")),
        ),
    )


def priority_behind_mux() -> Topology:
    """A two-class priority node fed through a mux."""
    return Topology(
        nodes=(
            MuxNode("mux"),
            PriorityNode("p", service_rate=2.2, buffer=0.1),
            SinkNode("sink"),
        ),
        links=(("mux", "p"), ("p", "sink")),
        flows=(
            Flow("gold", _renewal(), route=("mux", "p", "sink"), priority=0),
            Flow("silver", _renewal(0.05), route=("mux", "p", "sink"), priority=0),
            Flow("bronze", _renewal(), route=("mux", "p", "sink"), priority=1),
        ),
    )


def repeated_rates() -> Topology:
    """Equal consecutive rates, entering through a mux and directly at the queue.

    The repeats fall while the queue fills or drains and at instants the
    other flow leaves alone, so one recompute more or less shows.
    """
    return Topology(
        nodes=(
            MuxNode("mux"),
            QueueNode("q", service_rate=1.6, buffer=0.5),
            SinkNode("sink"),
        ),
        links=(("mux", "q"), ("q", "sink")),
        flows=(
            Flow("via_mux", SegmentSource(
                (0.3, 0.2, 0.4, 0.1, 0.5, 0.25, 0.15, 0.35, 0.2, 0.3),
                (2.0, 2.0, 0.0, 0.0, 1.5, 1.5, 1.5, 0.0, 2.0, 2.0),
            ), route=("mux", "q", "sink")),
            Flow("at_queue", SegmentSource(
                (0.45, 0.3, 0.2, 0.35, 0.25, 0.4, 0.35, 0.25),
                (1.0, 1.0, 0.5, 0.5, 1.2, 0.0, 0.0, 1.0),
            ), route=("q", "sink")),
        ),
    )


CASES = {
    "mid_route_mux": (mid_route_mux, dict(duration=40.0, warmup=4.0, seed=5)),
    "stateless_routes": (stateless_routes, dict(duration=40.0, warmup=4.0, seed=6)),
    "priority_behind_mux": (priority_behind_mux, dict(duration=40.0, warmup=4.0, seed=7)),
    "repeated_rates": (repeated_rates, dict(duration=2.5, warmup=0.2, seed=0)),
    "mux16": (
        lambda: multiplexer_topology(0.9, 0.1, sources=16),
        dict(duration=10.0, warmup=1.0, seed=0),
    ),
    "tandem4": (
        lambda: tandem_topology(0.9, 0.1, hops=4),
        dict(duration=10.0, warmup=1.0, seed=0),
    ),
}


def trace_digest(trace) -> str:
    """SHA-256 of the event trace, floats written exactly (``float.hex``)."""
    text = "\n".join(
        f"{t.hex()} {tag} {target} {value.hex()}" for t, tag, target, value in trace
    )
    return hashlib.sha256(text.encode()).hexdigest()


NODE_FIELDS = ("arrived_work", "served_work", "lost_work", "loss_rate",
               "mean_occupancy", "mean_delay", "full_fraction", "empty_fraction")
FLOW_FIELDS = ("offered_work", "delivered_work", "lost_work", "loss_rate", "mean_delay")


# Flow fields a multi-hop flow sums over its hops with builtin ``sum()``.
SUMMED_FLOW_FIELDS = frozenset({"lost_work", "loss_rate", "mean_delay"})


def observed(name: str) -> dict:
    """Everything a pin holds for case ``name``."""
    build, kwargs = CASES[name]
    result = simulate(build(), record_trace=True, **kwargs)
    return {
        "digest": trace_digest(result.event_trace),
        "events": (result.events_processed, result.events_stale),
        "nodes": {
            node: tuple(getattr(stats, field) for field in NODE_FIELDS)
            for node, stats in result.node_stats.items()
        },
        "flows": {
            flow: tuple(getattr(stats, field) for field in FLOW_FIELDS)
            for flow, stats in result.flow_stats.items()
        },
    }


PINS: dict = {
    "mid_route_mux": {
        "digest": "a7066c9ebf43c20e02c3d0846fc42339c39be1b1e60b34f2a52198f1e1852194",
        "events": (859, 267),
        "nodes": {
            "q1": (41.26649114811023, 29.024121372952916, 12.342369775157302, 0.29908939267114093,
                0.04938525142036718, 0.06806097698638823, 0.38569905547366573,
                0.39533080473014726),
            "mux": (56.849905716972046, 56.849905716972046, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
            "q2": (56.84990571697207, 47.45341487392669, 9.396490843045358, 0.16528595297634968,
                0.051241992004081624, 0.043193512745264256, 0.18371224059230945,
                0.5014993915921091),
            "sink": (47.453414873926704, 47.453414873926704, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
        },
        "flows": {
            "through": (41.26649114811023, 23.077446683777318, 15.810341676916563,
                0.3831278414288099, 0.1407092041485546),
            "joiner": (27.82578434401913, 24.37596819014939, 5.928518941286097,
                0.21305846649244126, 0.03191178189333605),
        },
    },
    "priority_behind_mux": {
        "digest": "4229f02e4deb7241beb65368f30fda0528433937752a04e8008fcfe123c51c5b",
        "events": (1128, 248),
        "nodes": {
            "mux": (124.71669492415145, 124.71669492415145, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
            "p": (124.71669492415144, 79.04757280473875, 45.554305324101804, 0.36526228787418097,
                0.10955563746910817, 0.055437824885391306, 0.3870936143142793,
                0.36155795780165656),
            "sink": (79.04757280473873, 79.04757280473873, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
        },
        "flows": {
            "gold": (42.71883545521657, 33.61402363995965, 7.1670675970155076, 0.16777300974248135,
                0.028586244603904954),
            "silver": (36.483026102671914, 31.153702723897787, 7.1670675970155076,
                0.19644937283562153, 0.016718844498301872),
            "bronze": (45.51483336626296, 14.279846440881297, 31.22017013007079,
                0.6859339652820122, 0.20311653192433216),
        },
    },
    "repeated_rates": {
        "digest": "3e6dbb0660b4bdb42657cffb5ce75df90e3b619e769815ccebe8366f213ed8f4",
        "events": (23, 7),
        "nodes": {
            "mux": (2.8500000000000005, 2.8500000000000005, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
            "q": (4.375000000000002, 3.875, 0.2800000000000003, 0.06400000000000004,
                0.3005745535714285, 0.19391906682027646, 0.0800000000000001, 0.03125),
            "sink": (3.875, 3.875, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
        },
        "flows": {
            "via_mux": (2.8500000000000005, 2.3600607791398063, 0.18666666666666687,
                0.06549707602339187, 0.20059440449832627),
            "at_queue": (1.5250000000000004, 1.514939220860194, 0.09333333333333343,
                0.06120218579234978, 0.18351983599665697),
        },
    },
    "stateless_routes": {
        "digest": "5ad06075a8382669eee43667df46988162f0783e074c681a1935b4cae313940c",
        "events": (725, 43),
        "nodes": {
            "mux": (79.95589244206766, 79.95589244206766, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
            "q": (46.7322641646726, 29.61142714338365, 17.144496780124317, 0.3668663842118044,
                0.05757154215682515, 0.07776935826571788, 0.47623602167012, 0.32701301946855377),
            "sink": (111.59422906665492, 111.59422906665492, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
        },
        "flows": {
            "direct": (48.7591736458762, 48.7591736458762, 0, 0.0, 0.0),
            "muxed": (33.22362827739507, 33.22362827739507, 0, 0.0, 0.0),
            "queued": (46.7322641646726, 29.61142714338365, 17.144496780124317, 0.3668663842118044,
                0.07776935826571788),
        },
    },
    "mux16": {
        "digest": "e9ffee4dd7fc1e2dc91edecdc5c28f156b2de66d55c2932dd78ac9184d765027",
        "events": (4454, 1137),
        "nodes": {
            "mux": (159.5064891860052, 159.5064891860052, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
            "queue": (159.5064891860052, 159.5036065102132, 0.8321872208753573,
                0.005217262477045177, 0.4433924219231732, 0.027798269369839125,
                0.023841346954519293, 0.3680893241435633),
            "sink": (159.5036065102132, 159.5036065102132, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
        },
        "flows": {
            "src1": (6.760705776745807, 6.571800551948417, 0.0341784097940505,
                0.0050554499667195855, 0.030053487715008674),
            "src2": (6.682702792559468, 6.579331694450827, 0.00910633361970931,
                0.001362672245404706, 0.027942346988975863),
            "src3": (15.485023202439958, 15.19769509776515, 0.04587102212857832,
                0.0029622830737089548, 0.02751455867131912),
            "src4": (10.76789857867448, 10.850599575251708, 0.06728666189264593,
                0.006248820176102445, 0.027278000425845068),
            "src5": (9.810606711948747, 9.722279121960936, 0.06794231052910729,
                0.0069253933547613845, 0.030516534026249268),
            "src6": (4.975482490699465, 5.15849190752287, 0.05805446342231881, 0.011668107270166955,
                0.024381739071389488),
            "src7": (7.790259142117852, 7.860002453753532, 0.03943252835422437, 0.0050617736374177,
                0.020980338666673468),
            "src8": (9.544465922041843, 9.614909112586448, 0.0669316410225437, 0.007012612499141812,
                0.032968318108954564),
            "src9": (9.265549270139662, 9.22331405274536, 0.07183203603961284, 0.00775259339142558,
                0.03363251697876777),
            "src10": (11.316503010126558, 11.542305784747544, 0.07036224503242582,
                0.00621766679772561, 0.025663881942240077),
            "src11": (14.133332800851298, 14.167944225668052, 0.04735646149477946,
                0.0033506931565304276, 0.02431049679248793),
            "src12": (7.877886608299908, 7.945669362002392, 0.02360104373212054,
                0.002995859791540434, 0.028133416005080604),
            "src13": (13.595397033405543, 13.423606002808702, 0.055235830746423145,
                0.004062833222943176, 0.024764725009839107),
            "src14": (9.884765966415767, 9.791594979317697, 0.061522970675508395,
                0.006224018948403766, 0.03015029970715485),
            "src15": (11.408975064399378, 11.548078182076749, 0.05434713792398584,
                0.004763542528335513, 0.02906874354146047),
            "src16": (10.206934815139505, 10.305984405606798, 0.05912612446732323,
                0.005792740478720802, 0.028754967569960044),
        },
    },
    "tandem4": {
        "digest": "4b452422f9fdb5edee7f4898c931201e5c66d643ae4f39fe9d3ee05543c2168a",
        "events": (333, 172),
        "nodes": {
            "hop1": (6.760705776745807, 5.893439062432475, 0.7697484140117633, 0.11385622144057768,
                0.03153507280101787, 0.05350877894375307, 0.08659669657632336, 0.4695904843810775),
            "hop2": (5.893439062432472, 5.893439062432472, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0),
            "hop3": (5.893439062432472, 5.893439062432472, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0),
            "hop4": (5.893439062432472, 5.893439062432472, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0),
            "sink": (5.893439062432472, 5.893439062432472, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
        },
        "flows": {
            "flow": (6.760705776745807, 5.893439062432472, 0.7697484140117633, 0.11385622144057768,
                0.0535087789437531),
        },
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_event_schedule_is_pinned(name):
    got, pin = observed(name), PINS[name]
    assert got["digest"] == pin["digest"]
    assert got["events"] == pin["events"]


def tolerance(topology: Topology, table: str, key: str, field: str) -> float:
    """Relative tolerance of one pinned float: 0.0 where it is held exactly."""
    kinds = {node.name: node.kind for node in topology.nodes}
    if table == "nodes":
        return 0.0 if kinds[key] == "queue" else _REL
    route = next(flow.route for flow in topology.flows if flow.name == key)
    hops = sum(kinds[hop] in ("queue", "priority") for hop in route)
    return _REL if hops > 1 and field in SUMMED_FLOW_FIELDS else 0.0


@pytest.mark.parametrize("name", sorted(CASES))
def test_stats_are_pinned(name):
    got, pin = observed(name), PINS[name]
    topology = CASES[name][0]()
    for table, fields in (("nodes", NODE_FIELDS), ("flows", FLOW_FIELDS)):
        assert list(got[table]) == list(pin[table])
        for key, values in pin[table].items():
            for field, value, seen in zip(fields, values, got[table][key]):
                rel = tolerance(topology, table, key, field)
                assert seen == pytest.approx(value, rel=rel, abs=0.0), (key, field)
