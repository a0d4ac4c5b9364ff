"""Shared argument-validation helpers for the core model classes.

All validators raise :class:`ValueError` (or :class:`TypeError` for wrong
types) with messages that name the offending argument, so callers can pass
user input straight through and get actionable errors back.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

__all__ = [
    "check_positive",
    "check_nonnegative",
    "check_in_open_interval",
    "check_probability_vector",
    "check_cutoff",
    "as_float_array",
]


def check_positive(name: str, value: float) -> float:
    """Return ``value`` as a float, requiring it to be finite and > 0."""
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be a finite positive number, got {value!r}")
    return value


def check_nonnegative(name: str, value: float) -> float:
    """Return ``value`` as a float, requiring it to be finite and >= 0."""
    value = float(value)
    if not math.isfinite(value) or value < 0.0:
        raise ValueError(f"{name} must be a finite non-negative number, got {value!r}")
    return value


def check_in_open_interval(name: str, value: float, low: float, high: float) -> float:
    """Return ``value`` as a float, requiring ``low < value < high``."""
    value = float(value)
    if not (low < value < high):
        raise ValueError(f"{name} must lie in the open interval ({low}, {high}), got {value!r}")
    return value


def check_cutoff(name: str, value: float) -> float:
    """Return a cutoff lag: either a finite positive float or ``math.inf``."""
    value = float(value)
    if value == math.inf:
        return value
    if not math.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be positive (possibly math.inf), got {value!r}")
    return value


def as_float_array(name: str, values: Sequence[float] | np.ndarray) -> np.ndarray:
    """Convert ``values`` to a 1-D float64 array, rejecting NaN/inf entries."""
    array = np.asarray(values, dtype=np.float64)
    if array.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {array.shape}")
    if array.size == 0:
        raise ValueError(f"{name} must not be empty")
    if not np.all(np.isfinite(array)):
        raise ValueError(f"{name} must contain only finite values")
    return array


def check_probability_vector(name: str, values: Sequence[float] | np.ndarray) -> np.ndarray:
    """Validate and renormalize a probability vector.

    Entries must be non-negative and sum to something strictly positive; the
    returned copy is normalized to sum exactly to one (tiny float drift from
    callers is forgiven, but a sum off by more than 1e-6 is an error).
    """
    array = as_float_array(name, values)
    if np.any(array < 0.0):
        raise ValueError(f"{name} must contain only non-negative entries")
    total = float(array.sum())
    if total <= 0.0:
        raise ValueError(f"{name} must have a positive sum, got {total!r}")
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"{name} must sum to 1 (within 1e-6), got sum {total!r}")
    return array / total

