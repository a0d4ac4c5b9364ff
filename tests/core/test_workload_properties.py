"""Property-based tests for the workload law over random model instances."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.marginal import DiscreteMarginal
from repro.core.source import CutoffFluidSource
from repro.core.truncated_pareto import TruncatedPareto
from repro.core.workload import DiscretizedWorkload, WorkloadLaw


@st.composite
def workload_laws(draw) -> WorkloadLaw:
    n_levels = draw(st.integers(min_value=1, max_value=6))
    increments = [draw(st.floats(min_value=0.1, max_value=3.0)) for _ in range(n_levels)]
    rates = np.concatenate([[0.0], np.cumsum(increments)])[:n_levels]
    weights = np.array(
        [draw(st.floats(min_value=0.05, max_value=1.0)) for _ in range(n_levels)]
    )
    marginal = DiscreteMarginal(rates=rates, probs=weights / weights.sum())
    law = TruncatedPareto(
        theta=draw(st.floats(min_value=0.01, max_value=1.0)),
        alpha=draw(st.floats(min_value=1.05, max_value=1.95)),
        cutoff=draw(
            st.one_of(st.floats(min_value=0.2, max_value=50.0), st.just(math.inf))
        ),
    )
    service_rate = draw(st.floats(min_value=0.1, max_value=5.0))
    return WorkloadLaw(
        source=CutoffFluidSource(marginal=marginal, interarrival=law),
        service_rate=service_rate,
    )


class TestWorkloadCdfProperties:
    @given(workload_laws(), st.floats(min_value=-20.0, max_value=20.0))
    @settings(max_examples=80, deadline=None)
    def test_cdf_bounds_and_ordering(self, law, w):
        left = float(law.cdf_left(w))
        right = float(law.cdf(w))
        assert 0.0 <= left <= right <= 1.0 + 1e-12

    @given(workload_laws())
    @settings(max_examples=40, deadline=None)
    def test_cdf_monotone(self, law):
        w = np.linspace(-15.0, 15.0, 101)
        cdf = np.asarray(law.cdf(w))
        assert np.all(np.diff(cdf) >= -1e-12)

    @given(workload_laws())
    @settings(max_examples=40, deadline=None)
    def test_support_endpoints(self, law):
        # The law has atoms exactly at the support endpoints (the cutoff
        # atom scaled by each drift), so evaluate strictly outside; a
        # relative nudge dodges the float round-trip through w/drift.
        low, high = law.support
        if low != -math.inf:
            outside = low - max(1e-9, 1e-9 * abs(low))
            assert float(law.cdf_left(outside)) == pytest.approx(0.0, abs=1e-12)
        if high != math.inf:
            outside = high + max(1e-9, 1e-9 * abs(high))
            assert float(law.cdf(outside)) == pytest.approx(1.0, abs=1e-12)

    @given(workload_laws())
    @settings(max_examples=30, deadline=None)
    def test_discretized_masses_sum_to_one(self, law):
        discretized = DiscretizedWorkload.build(law, step=0.13, bins=24)
        assert discretized.w_lower.sum() == pytest.approx(1.0, abs=1e-9)
        assert discretized.w_upper.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(discretized.w_lower >= 0.0)
        assert np.all(discretized.w_upper >= 0.0)

    @given(workload_laws())
    @settings(max_examples=30, deadline=None)
    def test_upper_stochastically_dominates_lower(self, law):
        discretized = DiscretizedWorkload.build(law, step=0.21, bins=16)
        tail_lower = np.cumsum(discretized.w_lower[::-1])[::-1]
        tail_upper = np.cumsum(discretized.w_upper[::-1])[::-1]
        assert np.all(tail_upper >= tail_lower - 1e-9)

    @given(workload_laws())
    @settings(max_examples=25, deadline=None)
    def test_mean_sign_matches_utilization(self, law):
        mean = law.mean
        offered = law.source.mean_rate
        if offered < law.service_rate:
            assert mean <= 1e-12
        elif offered > law.service_rate:
            assert mean >= -1e-12
