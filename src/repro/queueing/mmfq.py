"""Markov-modulated fluid queue (MMFQ) spectral solver.

The "Markov model" comparator of the paper's Section IV: a continuous-time
Markov chain modulates the fluid rate; the stationary joint law
``F_j(x) = Pr{state = j, Q <= x}`` of a constant-rate finite-buffer queue
satisfies the Anick-Mitra-Sondhi ODE system

.. math::  \\frac{d}{dx} F(x) \\, D = F(x) \\, G,
           \\qquad D = \\mathrm{diag}(r_j - c),

whose solutions are combinations of ``exp(z_k x) phi_k`` with
``phi_k (G - z_k D) = 0`` — a generalized eigenproblem solved with
``scipy.linalg.eig``.  The finite-buffer boundary conditions are
``F_j(0) = 0`` for up-states (``r_j > c``) and ``F_j(B) = pi_j`` for
down-states; loss comes from the probability mass pinned at the full
buffer: ``loss = sum_up (r_j - c) (pi_j - F_j(B)) / mean rate``.

Positive-drift modes are expressed as ``exp(z (x - B))`` so no exponential
ever overflows, which keeps the solve stable for large ``z B``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eig

from repro.core.validation import check_nonnegative, check_positive

__all__ = [
    "MarkovFluidModel",
    "mmfq_loss_rate",
    "mmfq_overflow_probability",
]

_RATE_TIE_NUDGE = 1e-9


@dataclass(frozen=True)
class MarkovFluidModel:
    """A CTMC-modulated fluid source.

    Parameters
    ----------
    generator:
        CTMC generator matrix G (rows sum to zero, non-negative
        off-diagonal entries).
    rates:
        Fluid emission rate per state.
    """

    generator: np.ndarray
    rates: np.ndarray

    def __post_init__(self) -> None:
        generator = np.asarray(self.generator, dtype=np.float64)
        rates = np.asarray(self.rates, dtype=np.float64)
        if generator.ndim != 2 or generator.shape[0] != generator.shape[1]:
            raise ValueError("generator must be a square matrix")
        n = generator.shape[0]
        if rates.shape != (n,):
            raise ValueError("rates must be a vector matching the generator size")
        off_diagonal = generator - np.diag(np.diag(generator))
        if np.any(off_diagonal < -1e-12):
            raise ValueError("generator off-diagonal entries must be non-negative")
        row_sums = generator.sum(axis=1)
        if np.any(np.abs(row_sums) > 1e-8 * max(1.0, float(np.abs(generator).max()))):
            raise ValueError("generator rows must sum to zero")
        if np.any(rates < 0.0):
            raise ValueError("rates must be non-negative")
        generator.flags.writeable = False
        rates.flags.writeable = False
        object.__setattr__(self, "generator", generator)
        object.__setattr__(self, "rates", rates)

    @property
    def size(self) -> int:
        """Number of modulating states."""
        return int(self.rates.size)

    def stationary(self) -> np.ndarray:
        """Stationary distribution pi solving ``pi G = 0``, ``sum pi = 1``."""
        n = self.size
        system = np.vstack([self.generator.T, np.ones((1, n))])
        target = np.zeros(n + 1)
        target[-1] = 1.0
        solution, *_ = np.linalg.lstsq(system, target, rcond=None)
        solution = np.maximum(solution, 0.0)
        return solution / solution.sum()

    @property
    def mean_rate(self) -> float:
        """Stationary mean fluid rate."""
        return float(self.stationary() @ self.rates)

    def rate_autocovariance(self, lags: np.ndarray) -> np.ndarray:
        """Autocovariance of the modulated rate at the given lags.

        ``phi(t) = pi R e^{Gt} r - (pi r)^2`` evaluated via the eigendecomposition
        of the generator.
        """
        lags = np.asarray(lags, dtype=np.float64)
        if np.any(lags < 0.0):
            raise ValueError("lags must be non-negative")
        pi = self.stationary()
        eigenvalues, right = np.linalg.eig(self.generator.T)
        # columns of `right` are left eigenvectors of G (transposed system)
        coefficients = np.linalg.solve(right, pi * self.rates)
        projections = right.T @ self.rates
        modes = coefficients * projections  # contribution of each eigenmode
        decay = np.exp(np.outer(lags, eigenvalues))
        values = (decay @ modes).real
        return values - self.mean_rate**2

    def simulate_rates(
        self, duration: float, bin_width: float, rng: np.random.Generator
    ) -> np.ndarray:
        """Sample a binned rate trace of the modulated process."""
        duration = check_positive("duration", duration)
        bin_width = check_positive("bin_width", bin_width)
        pi = self.stationary()
        exit_rates = -np.diag(self.generator)
        jump = self.generator / np.where(exit_rates > 0.0, exit_rates, 1.0)[:, None]
        np.fill_diagonal(jump, 0.0)
        state = int(rng.choice(self.size, p=pi))
        times: list[float] = []
        states: list[int] = []
        clock = 0.0
        while clock < duration:
            rate_out = exit_rates[state]
            hold = rng.exponential(1.0 / rate_out) if rate_out > 0.0 else duration - clock
            times.append(min(hold, duration - clock))
            states.append(state)
            clock += hold
            if rate_out > 0.0:
                row = jump[state]
                total = row.sum()
                if total <= 0.0:
                    break
                state = int(rng.choice(self.size, p=row / total))
        durations = np.asarray(times)
        path_rates = self.rates[np.asarray(states, dtype=np.int64)]
        edges = np.arange(int(duration / bin_width) + 1) * bin_width
        cumulative_work = np.concatenate([[0.0], np.cumsum(durations * path_rates)])
        epochs = np.concatenate([[0.0], np.cumsum(durations)])
        work_at_edges = np.interp(edges, epochs, cumulative_work)
        return np.diff(work_at_edges) / bin_width


def _nudged_rates(rates: np.ndarray, service_rate: float) -> np.ndarray:
    """Push rates exactly equal to c off the singularity by a tiny amount."""
    ties = np.isclose(rates, service_rate, rtol=0.0, atol=_RATE_TIE_NUDGE * service_rate)
    if not np.any(ties):
        return rates
    nudged = rates.copy()
    nudged[ties] = service_rate * (1.0 + _RATE_TIE_NUDGE)
    return nudged


def mmfq_loss_rate(
    model: MarkovFluidModel, service_rate: float, buffer_size: float
) -> float:
    """Stationary loss rate of the finite-buffer MMFQ."""
    mass_at_full, pi, rates = _solve_boundary(model, service_rate, buffer_size)
    up = rates > service_rate
    lost = float(((rates[up] - service_rate) * mass_at_full[up]).sum())
    mean_rate = float(pi @ rates)
    if mean_rate <= 0.0:
        raise ValueError("model mean rate must be positive")
    return max(0.0, lost / mean_rate)


def mmfq_overflow_probability(
    model: MarkovFluidModel,
    service_rate: float,
    levels: np.ndarray,
) -> np.ndarray:
    """``Pr{Q > x}`` for the *infinite-buffer* MMFQ (classical AMS solution).

    Only the stable spectral modes (negative real part) survive as the
    buffer grows; the boundary conditions reduce to ``F_j(0) = 0`` for
    up-states.  Requires a stable queue (``mean rate < service_rate``).

    Implements the paper's footnote 2 comparator: the infinite-buffer
    overflow probability at level B upper-bounds the loss rate of the
    B-buffer queue (up to the peak/mean rate factor).
    """
    service_rate = check_positive("service_rate", service_rate)
    levels = np.asarray(levels, dtype=np.float64)
    if np.any(levels < 0.0):
        raise ValueError("levels must be non-negative")
    rates = _nudged_rates(model.rates, service_rate)
    pi = model.stationary()
    if float(pi @ rates) >= service_rate:
        raise ValueError("infinite-buffer overflow needs utilization < 1")
    drift = rates - service_rate
    eigenvalues, vectors = eig(model.generator.T, np.diag(drift))
    stable = np.isfinite(eigenvalues) & (eigenvalues.real < -1e-12)
    z = eigenvalues[stable]
    phi = vectors[:, stable]
    up = np.nonzero(drift > 0.0)[0]
    if up.size == 0:
        return np.zeros(levels.shape)
    # F(x) = pi + sum_k a_k e^{z_k x} phi_k ; F_j(0) = 0 on up-states.
    system = phi[up, :]
    target = -pi[up].astype(np.complex128)
    coefficients, *_ = np.linalg.lstsq(system, target, rcond=None)
    overflow = np.empty(levels.size)
    for index, x in enumerate(levels.ravel()):
        f = pi + (phi @ (coefficients * np.exp(z * x))).real
        overflow[index] = 1.0 - float(np.clip(f, 0.0, 1.0).sum())
    return np.clip(overflow.reshape(levels.shape), 0.0, 1.0)


def _spectral_solution(
    model: MarkovFluidModel, service_rate: float, buffer_size: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Solve the boundary-value problem; returns (a, z, phi, pi, rates)."""
    service_rate = check_positive("service_rate", service_rate)
    buffer_size = check_positive("buffer_size", buffer_size)
    rates = _nudged_rates(model.rates, service_rate)
    pi = model.stationary()
    drift = rates - service_rate
    # Generalized left eigenproblem  phi (G - z D) = 0  <=>  G^T v = z D^T v.
    eigenvalues, vectors = eig(model.generator.T, np.diag(drift))
    finite = np.isfinite(eigenvalues)
    eigenvalues = eigenvalues[finite]
    vectors = vectors[:, finite]

    up = drift > 0.0
    down = ~up
    n_modes = eigenvalues.size
    system = np.zeros((model.size, n_modes), dtype=np.complex128)
    target = np.zeros(model.size, dtype=np.complex128)
    row = 0
    for j in np.nonzero(up)[0]:
        system[row] = vectors[j, :] * _mode_scale(eigenvalues, 0.0, buffer_size)
        target[row] = 0.0
        row += 1
    for j in np.nonzero(down)[0]:
        system[row] = vectors[j, :] * _mode_scale(eigenvalues, buffer_size, buffer_size)
        target[row] = pi[j]
        row += 1
    coefficients, *_ = np.linalg.lstsq(system, target, rcond=None)
    return coefficients, eigenvalues, vectors, pi, rates


def _mode_scale(eigenvalues: np.ndarray, x: float, buffer_size: float) -> np.ndarray:
    """Overflow-safe basis ``exp(z x)`` (stable modes) / ``exp(z (x - B))`` (unstable)."""
    stable = eigenvalues.real <= 0.0
    shifted = np.where(stable, eigenvalues * x, eigenvalues * (x - buffer_size))
    return np.exp(shifted)


def _evaluate(
    coefficients: np.ndarray,
    eigenvalues: np.ndarray,
    vectors: np.ndarray,
    x: float,
    buffer_size: float,
) -> np.ndarray:
    """State-wise ``F_j(x)`` from the spectral representation (real part)."""
    weights = coefficients * _mode_scale(eigenvalues, x, buffer_size)
    return np.clip((vectors @ weights).real, 0.0, 1.0)


def _solve_boundary(
    model: MarkovFluidModel, service_rate: float, buffer_size: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Probability mass pinned at the full buffer, per state."""
    buffer_size = check_nonnegative("buffer_size", buffer_size)
    rates = _nudged_rates(model.rates, service_rate)
    pi = model.stationary()
    if buffer_size == 0.0:
        # Bufferless: all mass "at B"; loss is the stationary excess rate.
        return pi.copy(), pi, rates
    coefficients, eigenvalues, vectors, pi, rates = _spectral_solution(
        model, service_rate, buffer_size
    )
    f_at_buffer = _evaluate(coefficients, eigenvalues, vectors, buffer_size, buffer_size)
    mass = np.clip(pi - f_at_buffer, 0.0, 1.0)
    # Down-states carry no atom at B (their trajectories leave B immediately).
    mass[rates < service_rate] = 0.0
    return mass, pi, rates
