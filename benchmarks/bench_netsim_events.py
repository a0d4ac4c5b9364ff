"""Performance — netsim event-loop throughput vs topology size.

Measures processed events per wall-clock second for the two preset
shapes: (a) tandem chains of growing hop count and (b) multiplexers of
growing source fan-in.  Only queue and priority nodes are on the event
path; mux and sink stats are derived after the run.  Throughput falls
with hop count, because a rate change walks every queue of the chain,
and it falls with fan-in too: each extra source adds events *and*
per-event work, since the shared queue advances and re-splits its
output over every flow it carries, O(flows) per event.  On the
reference host events/s falls by about 2.4x from 2 to 16 sources.
Each cell is timed ``BEST_OF`` times, the cells taking turns, and the
table keeps each cell's fastest run, so a slow spell of the host does
not land on one cell alone.

``test_perf_netsim_smoke`` is the CI gate: one small multiplexer run
must clear an events/sec floor set far below the reference-host
measurement (~165k events/s) so only an order-of-magnitude regression —
an accidentally quadratic propagation pass, unbounded stale-event
accumulation — trips it, not runner noise.
"""

from __future__ import annotations

import numpy as np

from _common import best_of_alternating, persist, run_once
from repro.experiments.reporting import format_mapping, format_series
from repro.netsim import multiplexer_topology, simulate, tandem_topology

HOPS = (1, 2, 4, 8)
SOURCES = (2, 4, 8, 16)
DURATION = 120.0
WARMUP = 10.0
SEED = 20260808
BEST_OF = 5

# CI gate: measured ~165k events/s on the reference host; the floor
# leaves ~10x headroom for slow shared runners.
SMOKE_MIN_EVENTS_PER_S = 15_000.0


def _cell(topology):
    """One timed simulation: ``() -> (wall seconds, events processed)``."""

    def side() -> tuple[float, float]:
        result = simulate(topology, duration=DURATION, warmup=WARMUP, seed=SEED)
        return result.wall_seconds, float(result.events_processed)

    return side


def _rows(best: list[tuple[float, float]]) -> np.ndarray:
    """``(events/s, events, wall seconds)`` rows from best-of runs."""
    return np.array([(events / wall, events, wall) for wall, events in best])


def test_perf_netsim_events(benchmark):
    def run():
        cells = [
            _cell(tandem_topology(utilization=0.9, normalized_buffer=0.1, hops=h))
            for h in HOPS
        ] + [
            _cell(multiplexer_topology(utilization=0.9, normalized_buffer=0.1, sources=s))
            for s in SOURCES
        ]
        best = best_of_alternating(BEST_OF, *cells)
        return _rows(best[: len(HOPS)]), _rows(best[len(HOPS):])

    tandem, mux = run_once(benchmark, run)
    text = format_series(
        "hops",
        np.array(HOPS, dtype=float),
        {
            "events_per_s": tandem[:, 0],
            "events": tandem[:, 1],
            "wall_s": tandem[:, 2],
        },
        "Performance — netsim events/sec vs tandem hop count",
    )
    text += "\n\n" + format_series(
        "sources",
        np.array(SOURCES, dtype=float),
        {
            "events_per_s": mux[:, 0],
            "events": mux[:, 1],
            "wall_s": mux[:, 2],
        },
        "Performance — netsim events/sec vs multiplexer fan-in",
    )
    persist("perf_netsim", text)
    rates = np.concatenate([tandem[:, 0], mux[:, 0]])
    assert float(rates.min()) >= SMOKE_MIN_EVENTS_PER_S, rates
    # More sources mean more events, so the throughput win of scale must
    # not collapse: the largest fan-in stays within 4x of the smallest.
    assert mux[-1, 0] >= mux[0, 0] / 4.0, mux[:, 0]


def test_perf_netsim_smoke():
    """CI gate: events/sec floor on a small multiplexer (sub-second)."""
    topology = multiplexer_topology(utilization=0.9, normalized_buffer=0.1, sources=4)
    best = max(
        simulate(topology, duration=30.0, warmup=3.0, seed=SEED).events_per_second
        for _ in range(3)
    )
    persist(
        "perf_netsim_smoke",
        format_mapping(
            {
                "sources": 4.0,
                "duration_s": 30.0,
                "events_per_s": best,
                "required_events_per_s": SMOKE_MIN_EVENTS_PER_S,
            },
            "Perf smoke — netsim event throughput, 4-source multiplexer",
        ),
    )
    assert best >= SMOKE_MIN_EVENTS_PER_S, (
        f"netsim event loop regressed: {best:,.0f} events/s vs required "
        f"{SMOKE_MIN_EVENTS_PER_S:,.0f}"
    )
