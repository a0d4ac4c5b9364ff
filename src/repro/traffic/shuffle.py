"""External block shuffling of traces (paper Fig. 6, Section III).

*External* shuffling divides a series into blocks of equal length and
permutes the blocks uniformly at random while leaving the content of each
block untouched.  Correlation at lags shorter than a block survives;
correlation beyond the block length is destroyed — exactly the effect of
the model's cutoff lag ``T_c``, which is why the paper validates the model
against shuffled-trace simulations (Figs. 7, 8, 14).
"""

from __future__ import annotations

import numpy as np

from repro.traffic.trace import Trace

__all__ = ["external_shuffle", "shuffle_trace"]


def external_shuffle(
    values: np.ndarray, block_length: int, rng: np.random.Generator
) -> np.ndarray:
    """Permute blocks of ``block_length`` samples, preserving intra-block order.

    The trailing partial block (if any) stays at the end, unshuffled, so
    the output is a permutation of the input multiset.
    """
    values = np.asarray(values)
    if block_length < 1:
        raise ValueError(f"block_length must be >= 1, got {block_length}")
    if block_length >= values.size:
        return values.copy()
    n_full = values.size // block_length
    split = n_full * block_length
    full = values[:split].reshape(n_full, block_length)
    order = rng.permutation(n_full)
    return np.concatenate([full[order].ravel(), values[split:]])


def shuffle_trace(trace: Trace, cutoff_lag: float, rng: np.random.Generator) -> Trace:
    """Externally shuffle a trace with blocks of ``cutoff_lag`` seconds.

    The block length in samples is ``round(cutoff_lag / bin_width)``
    (at least one sample); this is the procedure behind the paper's
    "loss rate obtained with shuffling" surfaces.
    """
    if cutoff_lag <= 0.0:
        raise ValueError(f"cutoff_lag must be positive, got {cutoff_lag}")
    block_length = max(1, int(round(cutoff_lag / trace.bin_width)))
    shuffled = external_shuffle(trace.rates, block_length, rng)
    name = f"{trace.name}[shuffled @ {cutoff_lag:g}s]" if trace.name else ""
    return Trace(rates=shuffled, bin_width=trace.bin_width, name=name)
