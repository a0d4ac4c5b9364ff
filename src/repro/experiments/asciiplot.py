"""Dependency-free ASCII visualization of loss surfaces.

The paper's results are 3-D loss surfaces; without a plotting stack
:func:`heatmap` makes their shape visible straight in a terminal: a
character-ramp rendering of a :class:`~repro.experiments.sweeps.LossSurface`,
one cell per grid point, on a log10 color scale (loss rates span many
decades).  It is a pure function returning a string, so it composes with
:func:`repro.experiments.reporting.write_report`.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.sweeps import LossSurface

__all__ = ["heatmap"]

_RAMP = " .:-=+*#%@"


def _log_scale(values: np.ndarray, floor: float) -> np.ndarray:
    """Map positive values to [0, 1] on a log scale; zeros to 0."""
    out = np.zeros_like(values, dtype=np.float64)
    positive = values > floor
    if not np.any(positive):
        return out
    logs = np.log10(values[positive])
    low, high = float(logs.min()), float(logs.max())
    span = max(high - low, 1e-12)
    out[positive] = 0.1 + 0.9 * (logs - low) / span
    return out


def heatmap(
    surface: LossSurface,
    title: str = "",
    floor: float = 1e-12,
) -> str:
    """Render a loss surface as a character-ramp heatmap.

    Rows appear top-to-bottom in *descending* row-parameter order (so
    "up" means larger buffers, as in the paper's 3-D plots); darker ramp
    characters mean more loss, blank means zero/below ``floor``.
    """
    scaled = _log_scale(surface.losses, floor)
    lines: list[str] = []
    if title:
        lines.append(title)
    lines.append(
        f"rows: {surface.row_label} (descending) / cols: {surface.col_label} "
        f"(ascending); ramp '{_RAMP.strip()}' spans the observed decades"
    )
    width = max(len(f"{v:g}") for v in surface.rows)
    for index in range(surface.rows.size - 1, -1, -1):
        cells = "".join(
            _RAMP[min(int(value * (len(_RAMP) - 1) + 0.5), len(_RAMP) - 1)] * 2
            for value in scaled[index]
        )
        lines.append(f"{surface.rows[index]:>{width}g} |{cells}|")
    footer = " " * (width + 2) + "".join(
        f"{v:^2.0g}"[:2] for v in surface.cols
    )
    lines.append(footer)
    lines.append(
        f"{' ' * (width + 2)}{surface.col_label}: "
        f"{surface.cols[0]:g} .. {surface.cols[-1]:g}"
    )
    return "\n".join(lines)

