"""Determinism: every stochastic function reproduces exactly from its seed."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.marginal import DiscreteMarginal
from repro.core.source import CutoffFluidSource
from repro.core.truncated_pareto import TruncatedPareto
from repro.traffic.farima import generate_farima
from repro.traffic.fgn import generate_fgn
from repro.traffic.mginf import mginf_rates
from repro.traffic.onoff import aggregate_onoff_rates
from repro.traffic.shuffle import external_shuffle
from repro.traffic.spurious import (
    ar1_process,
    dirac_pulse_process,
    hyperbolic_trend_process,
    level_shift_process,
)


def _twice(factory):
    a = factory(np.random.default_rng(123))
    b = factory(np.random.default_rng(123))
    return a, b


GENERATORS = {
    "fgn": lambda rng: generate_fgn(512, 0.8, rng),
    "farima": lambda rng: generate_farima(512, 0.3, rng),
    "ar1": lambda rng: ar1_process(512, 0.4, rng),
    "level_shift": lambda rng: level_shift_process(512, rng, mean_run=64),
    "hyperbolic": lambda rng: hyperbolic_trend_process(512, rng),
    "pulses": lambda rng: dirac_pulse_process(512, rng, pulse_probability=0.01),
    "onoff": lambda rng: aggregate_onoff_rates(
        sources=3, duration=10.0, bin_width=0.1, rng=rng, mean_period=0.5
    ),
    "mginf": lambda rng: mginf_rates(
        arrival_rate=5.0,
        duration_law=TruncatedPareto.from_mean_interval(0.3, 1.5, cutoff=5.0),
        duration=10.0,
        bin_width=0.1,
        rng=rng,
    ),
    "external_shuffle": lambda rng: external_shuffle(np.arange(100.0), 7, rng),
}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_generator_is_deterministic(name):
    a, b = _twice(GENERATORS[name])
    np.testing.assert_array_equal(a, b)


def test_source_sampling_deterministic():
    source = CutoffFluidSource(
        marginal=DiscreteMarginal(rates=[0.0, 2.0], probs=[0.5, 0.5]),
        interarrival=TruncatedPareto(theta=0.1, alpha=1.4, cutoff=5.0),
    )
    path_a = source.sample_path(100, np.random.default_rng(9))
    path_b = source.sample_path(100, np.random.default_rng(9))
    np.testing.assert_array_equal(path_a.durations, path_b.durations)
    np.testing.assert_array_equal(path_a.rates, path_b.rates)


def test_different_seeds_differ():
    a = generate_fgn(512, 0.8, np.random.default_rng(1))
    b = generate_fgn(512, 0.8, np.random.default_rng(2))
    assert not np.array_equal(a, b)


def test_solver_is_fully_deterministic(small_source):
    from repro.core.solver import FluidQueue

    results = [
        FluidQueue(source=small_source, service_rate=1.25, buffer_size=0.7).loss_rate()
        for _ in range(2)
    ]
    assert results[0].lower == results[1].lower
    assert results[0].upper == results[1].upper
    assert results[0].iterations == results[1].iterations
