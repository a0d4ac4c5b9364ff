"""Exact fractional Gaussian noise via Davies-Harte circulant embedding.

Fractional Gaussian noise (fGn) — the increment process of fractional
Brownian motion — is the canonical exactly self-similar Gaussian process;
the paper's reference traces (Bellcore Ethernet, VBR video) are well
described by fGn passed through a marginal transform, which is precisely
how the synthetic substitutes in :mod:`repro.traffic.video` and
:mod:`repro.traffic.ethernet` are built.

The Davies-Harte method embeds the target autocovariance in a circulant
matrix whose eigenvalues come from one FFT; when they are all non-negative
(always true for the fGn autocovariance) the synthesis is *exact*.  The
sampler is exposed generically as :func:`sample_stationary_gaussian` so the
FARIMA generator can reuse it with its own autocovariance.
"""

from __future__ import annotations

import numpy as np

from repro.core.validation import check_in_open_interval, check_positive

__all__ = [
    "fgn_autocovariance",
    "sample_stationary_gaussian",
    "generate_fgn",
]


def fgn_autocovariance(hurst: float, lags: int) -> np.ndarray:
    """Autocovariance of unit-variance fGn at lags ``0..lags-1``.

    ``gamma(k) = (|k+1|^{2H} - 2|k|^{2H} + |k-1|^{2H}) / 2``.
    """
    hurst = check_in_open_interval("hurst", hurst, 0.0, 1.0)
    if lags < 1:
        raise ValueError(f"lags must be >= 1, got {lags}")
    k = np.arange(lags, dtype=np.float64)
    two_h = 2.0 * hurst
    return 0.5 * (np.abs(k + 1) ** two_h - 2.0 * np.abs(k) ** two_h + np.abs(k - 1) ** two_h)


def sample_stationary_gaussian(
    autocovariance: np.ndarray,
    rng: np.random.Generator,
    eigenvalue_tolerance: float = 1e-8,
) -> np.ndarray:
    """Draw one path of a zero-mean stationary Gaussian process.

    Parameters
    ----------
    autocovariance:
        ``gamma(0..n-1)``; the returned path has length ``n``.
    rng:
        Source of randomness.
    eigenvalue_tolerance:
        Circulant eigenvalues more negative than ``-tol * max_eigenvalue``
        raise; tiny negatives (float noise) are clipped to zero.

    Notes
    -----
    Circulant embedding (Davies & Harte 1987): the first row of the
    embedding is ``[gamma_0 .. gamma_{n-1}, gamma_{n-2} .. gamma_1]`` whose
    FFT gives eigenvalues ``lam_k``; independent complex normals scaled by
    ``sqrt(lam_k / (2m))`` and Hermitian-symmetrized FFT back to an exact
    sample.  For fGn the eigenvalues are provably non-negative.
    """
    gamma = np.asarray(autocovariance, dtype=np.float64)
    if gamma.ndim != 1 or gamma.size < 2:
        raise ValueError("autocovariance must be a 1-D array of length >= 2")
    n = gamma.size
    row = np.concatenate([gamma, gamma[-2:0:-1]])
    eigenvalues = np.fft.fft(row).real
    floor = -eigenvalue_tolerance * float(np.max(np.abs(eigenvalues)))
    if np.any(eigenvalues < floor):
        raise ValueError(
            "circulant embedding is not non-negative definite for this "
            "autocovariance; increase the sample length or check the model"
        )
    eigenvalues = np.maximum(eigenvalues, 0.0)

    m = row.size  # 2n - 2
    scale = np.sqrt(eigenvalues / m)
    # Hermitian-symmetric complex Gaussian spectrum: real at DC and Nyquist.
    spectrum = np.empty(m, dtype=np.complex128)
    spectrum[0] = scale[0] * rng.standard_normal() * np.sqrt(2.0)
    half = m // 2
    spectrum[half] = scale[half] * rng.standard_normal() * np.sqrt(2.0)
    z = rng.standard_normal(half - 1) + 1j * rng.standard_normal(half - 1)
    spectrum[1:half] = scale[1:half] * z
    spectrum[half + 1 :] = np.conj(spectrum[1:half][::-1])
    path = np.fft.fft(spectrum) / np.sqrt(2.0)
    return path.real[:n]


def generate_fgn(
    length: int,
    hurst: float,
    rng: np.random.Generator,
    mean: float = 0.0,
    std: float = 1.0,
) -> np.ndarray:
    """Exact fractional Gaussian noise of the given length, mean and std."""
    if length < 2:
        raise ValueError(f"length must be >= 2, got {length}")
    check_positive("std", std)
    gamma = fgn_autocovariance(hurst, length)
    return mean + std * sample_stationary_gaussian(gamma, rng)

