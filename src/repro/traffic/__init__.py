"""Traffic-generation substrate: LRD generators, synthetic traces, shuffling."""

from repro.traffic.ethernet import (
    BELLCORE_BIN_WIDTH,
    BELLCORE_HURST,
    BELLCORE_LINK_RATE,
    BELLCORE_MEAN_RATE,
    synthesize_bellcore_trace,
)
from repro.traffic.farima import (
    d_from_hurst,
    farima_autocovariance,
    generate_farima,
)
from repro.traffic.fgn import (
    fgn_autocovariance,
    generate_fgn,
    sample_stationary_gaussian,
)
from repro.traffic.mginf import mginf_rates
from repro.traffic.mmpp import MarkovModulatedSource, mmpp_rates
from repro.traffic.onoff import OnOffSource, aggregate_onoff_rates
from repro.traffic.shuffle import external_shuffle, shuffle_trace
from repro.traffic.spurious import (
    ar1_process,
    dirac_pulse_process,
    hyperbolic_trend_process,
    level_shift_process,
)
from repro.traffic.trace import Trace
from repro.traffic.video import (
    MTV_FRAME_INTERVAL,
    MTV_HURST,
    MTV_MEAN_RATE,
    synthesize_mtv_trace,
)

__all__ = [
    "Trace",
    "generate_fgn",
    "fgn_autocovariance",
    "sample_stationary_gaussian",
    "generate_farima",
    "farima_autocovariance",
    "d_from_hurst",
    "OnOffSource",
    "aggregate_onoff_rates",
    "mginf_rates",
    "MarkovModulatedSource",
    "mmpp_rates",
    "external_shuffle",
    "shuffle_trace",
    "ar1_process",
    "level_shift_process",
    "hyperbolic_trend_process",
    "dirac_pulse_process",
    "synthesize_mtv_trace",
    "MTV_MEAN_RATE",
    "MTV_FRAME_INTERVAL",
    "MTV_HURST",
    "synthesize_bellcore_trace",
    "BELLCORE_MEAN_RATE",
    "BELLCORE_BIN_WIDTH",
    "BELLCORE_HURST",
    "BELLCORE_LINK_RATE",
]
