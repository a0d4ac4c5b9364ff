"""Tests for the shared validators."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.validation import (
    as_float_array,
    check_cutoff,
    check_in_open_interval,
    check_nonnegative,
    check_positive,
    check_probability_vector,
)


class TestScalars:
    def test_check_positive(self):
        assert check_positive("x", 1.5) == 1.5
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="x"):
                check_positive("x", bad)

    def test_check_nonnegative(self):
        assert check_nonnegative("x", 0.0) == 0.0
        with pytest.raises(ValueError, match="x"):
            check_nonnegative("x", -1e-9)

    def test_check_in_open_interval(self):
        assert check_in_open_interval("x", 0.5, 0.0, 1.0) == 0.5
        for bad in (0.0, 1.0, -1.0, 2.0):
            with pytest.raises(ValueError, match="x"):
                check_in_open_interval("x", bad, 0.0, 1.0)

    def test_check_cutoff_accepts_infinity(self):
        assert check_cutoff("c", math.inf) == math.inf
        assert check_cutoff("c", 2.0) == 2.0
        with pytest.raises(ValueError, match="c"):
            check_cutoff("c", 0.0)
        with pytest.raises(ValueError, match="c"):
            check_cutoff("c", math.nan)


class TestArrays:
    def test_as_float_array(self):
        out = as_float_array("v", [1, 2, 3])
        assert out.dtype == np.float64
        with pytest.raises(ValueError, match="one-dimensional"):
            as_float_array("v", [[1.0]])
        with pytest.raises(ValueError, match="empty"):
            as_float_array("v", [])
        with pytest.raises(ValueError, match="finite"):
            as_float_array("v", [1.0, math.nan])

    def test_check_probability_vector(self):
        out = check_probability_vector("p", [0.25, 0.75])
        assert out.sum() == pytest.approx(1.0)
        with pytest.raises(ValueError, match="non-negative"):
            check_probability_vector("p", [-0.1, 1.1])
        with pytest.raises(ValueError, match="sum to 1"):
            check_probability_vector("p", [0.3, 0.3])

