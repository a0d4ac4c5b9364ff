"""Properties of the Markov-modulated source family (Clegg's construction).

The construction promises three things the rest of the harness leans on:
the rate marginal is matched *exactly* (rates are i.i.d. draws at phase
exits), the ``(level, phase)`` CTMC's stationary law marginalizes back to
the rate law, and sampling follows the seeded-generator protocol shared
with ``fgn``/``onoff``/``mginf`` — bit-reproducible per seed, independent
across ``SeedSequence`` spawn keys, and untouched by hash randomization.
Hypothesis drives the first two across the whole ``(H, phases)`` design
space instead of a handful of fixtures.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.marginal import DiscreteMarginal
from repro.core.source import CutoffFluidSource, SourcePath
from repro.core.truncated_pareto import TruncatedPareto
from repro.queueing.markov import HyperexponentialFit
from repro.traffic import MarkovModulatedSource, mmpp_rates

hursts = st.floats(min_value=0.55, max_value=0.95)
phase_counts = st.integers(min_value=2, max_value=12)


@st.composite
def marginals(draw) -> DiscreteMarginal:
    levels = draw(st.integers(min_value=2, max_value=4))
    rates = sorted(
        draw(
            st.lists(
                st.floats(min_value=0.0, max_value=8.0),
                min_size=levels,
                max_size=levels,
                unique=True,
            )
        )
    )
    weights = draw(
        st.lists(
            st.floats(min_value=0.05, max_value=1.0),
            min_size=levels,
            max_size=levels,
        )
    )
    total = sum(weights)
    return DiscreteMarginal(rates=rates, probs=[w / total for w in weights])


def model_from(marginal: DiscreteMarginal, hurst: float, phases: int):
    return MarkovModulatedSource.from_hurst(
        marginal, hurst=hurst, mean_interval=0.05, horizon=10.0, phases=phases
    )


# --------------------------------------------------------------------- #
# exact moment / stationary-law properties
# --------------------------------------------------------------------- #


@given(marginal=marginals(), hurst=hursts, phases=phase_counts)
@settings(max_examples=60, deadline=None)
def test_moments_match_marginal_exactly(marginal, hurst, phases):
    model = model_from(marginal, hurst, phases)
    assert model.mean_rate == marginal.mean
    assert model.rate_variance == marginal.variance
    # The hyperexponential fit may prune degenerate phases, never add any.
    assert 1 <= model.phases <= phases
    assert model.states == marginal.size * model.phases


@given(marginal=marginals(), hurst=hursts, phases=phase_counts)
@settings(max_examples=60, deadline=None)
def test_stationary_distribution_round_trips(marginal, hurst, phases):
    # Marginalizing the (level, phase) occupation over phases must return
    # the rate law; over levels, the time-stationary phase weights.
    model = model_from(marginal, hurst, phases)
    occupation = model.stationary_probs()
    assert occupation.shape == (marginal.size, model.phases)
    assert occupation.sum() == pytest.approx(1.0)
    np.testing.assert_allclose(
        occupation.sum(axis=1), np.asarray(marginal.probs), rtol=1e-12
    )


@given(marginal=marginals(), hurst=hursts, phases=phase_counts)
@settings(max_examples=60, deadline=None)
def test_stationary_probs_are_the_fluid_models_stationary_law(marginal, hurst, phases):
    # The closed-form occupation and the CTMC's numerically solved
    # stationary vector are two views of one model.  The least-squares
    # solve loses digits as the exit rates spread: at H = 0.95 with three
    # phases (a spread of ~3e4) it is off by up to 1.9e-12.
    model = model_from(marginal, hurst, phases)
    solved = model.fluid_model().stationary().reshape(marginal.size, model.phases)
    np.testing.assert_allclose(model.stationary_probs(), solved, rtol=0.0, atol=1e-11)


@given(marginal=marginals(), hurst=hursts, phases=phase_counts)
@settings(max_examples=40, deadline=None)
def test_autocorrelation_is_a_decreasing_correlation(marginal, hurst, phases):
    model = model_from(marginal, hurst, phases)
    lags = np.linspace(0.0, 5.0, 32)
    acf = np.asarray(model.autocorrelation(lags))
    assert acf[0] == pytest.approx(1.0)
    assert np.all(np.diff(acf) <= 1e-12)
    assert np.all(acf > 0.0)
    np.testing.assert_allclose(
        np.asarray(model.autocovariance(lags)), model.rate_variance * acf
    )


def test_from_source_matches_interval_ccdf(small_source):
    # The sojourn mixture is a hyperexponential fit of the source's own
    # interarrival ccdf over [theta, cutoff].
    model = MarkovModulatedSource.from_source(small_source, phases=8)
    law = small_source.interarrival
    lags = np.geomspace(law.theta, law.cutoff, 16)
    fitted = np.asarray(model.interarrival.sf(lags))
    target = np.asarray([law.sf(t) for t in lags])
    assert np.max(np.abs(fitted - target)) < 0.05


def test_infinite_cutoff_gets_a_finite_horizon():
    marginal = DiscreteMarginal(rates=[0.0, 2.0], probs=[0.5, 0.5])
    source = CutoffFluidSource(
        marginal=marginal,
        interarrival=TruncatedPareto(theta=0.05, alpha=1.4, cutoff=math.inf),
    )
    model = MarkovModulatedSource.from_source(source)
    slowest = 1.0 / float(model.interarrival.exit_rates.min())
    assert math.isfinite(slowest) and slowest > source.interarrival.theta


def test_constructor_validation():
    # The interval law checks itself; the source adds no checks of its own.
    with pytest.raises(ValueError, match="sum to one"):
        HyperexponentialFit(weights=np.array([0.5, 0.6]), exit_rates=np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="positive"):
        HyperexponentialFit(weights=np.array([1.0]), exit_rates=np.array([-1.0]))


# --------------------------------------------------------------------- #
# seeded-generator protocol
# --------------------------------------------------------------------- #


def test_sample_path_is_deterministic(small_source):
    model = MarkovModulatedSource.from_source(small_source)
    a = model.sample_path(200, np.random.default_rng(7))
    b = model.sample_path(200, np.random.default_rng(7))
    assert isinstance(a, SourcePath)
    np.testing.assert_array_equal(a.durations, b.durations)
    np.testing.assert_array_equal(a.rates, b.rates)


def test_sample_path_draws_durations_then_rates(small_source):
    model = MarkovModulatedSource.from_source(small_source)
    path = model.sample_path(300, np.random.default_rng(8))
    replay = np.random.default_rng(8)
    np.testing.assert_array_equal(path.durations, model.interarrival.sample(300, replay))
    np.testing.assert_array_equal(path.rates, model.marginal.sample(300, replay))


def test_rates_deterministic_under_spawn_keys(small_source):
    # The harness hands out per-purpose generators via SeedSequence spawn
    # keys: equal keys must replay bit-identically, sibling keys must
    # give genuinely different streams.
    model = MarkovModulatedSource.from_source(small_source)

    def rates(spawn_key):
        seq = np.random.SeedSequence(entropy=20260808, spawn_key=spawn_key)
        return mmpp_rates(model, 20.0, 0.05, np.random.default_rng(seq))

    np.testing.assert_array_equal(rates((0,)), rates((0,)))
    assert not np.array_equal(rates((0,)), rates((1,)))


def test_segments_follow_sample_path(small_source):
    # netsim's renewal stream draws 1024-interval batches; its prefix must
    # match an explicit sample_path of the same batch size and seed.
    from repro.netsim import RenewalSource

    model = MarkovModulatedSource.from_source(small_source)
    stream = RenewalSource(model).segments(np.random.default_rng(3))
    pairs = [next(stream) for _ in range(64)]
    path = model.sample_path(1024, np.random.default_rng(3))
    np.testing.assert_allclose([d for d, _ in pairs], path.durations[:64])
    np.testing.assert_allclose([r for _, r in pairs], path.rates[:64])


_SUBPROCESS_SCRIPT = """
import json, sys
import numpy as np
from repro.core.marginal import DiscreteMarginal
from repro.traffic import MarkovModulatedSource, mmpp_rates

marginal = DiscreteMarginal(rates=[0.0, 1.0, 4.0], probs=[0.3, 0.5, 0.2])
model = MarkovModulatedSource.from_hurst(
    marginal, hurst=0.8, mean_interval=0.05, horizon=5.0, phases=6
)
rates = mmpp_rates(model, 30.0, 0.05, np.random.default_rng(20260808))
json.dump({"n": rates.size, "rates": [float(v).hex() for v in rates]}, sys.stdout)
"""


@pytest.mark.slow
def test_rates_independent_of_hash_randomization():
    """PYTHONHASHSEED must not leak into the sampled path."""
    src = str(Path(__file__).resolve().parents[2] / "src")
    outputs = []
    for hashseed in ("0", "1", "31337"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", _SUBPROCESS_SCRIPT],
            capture_output=True, text=True, env=env, check=True,
        )
        outputs.append(json.loads(proc.stdout))
    assert outputs[0] == outputs[1] == outputs[2]
    assert outputs[0]["n"] > 0
