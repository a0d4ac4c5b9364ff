"""ASCII-table reporting for experiment results.

The benchmark for each figure prints the same rows/series the paper plots;
these helpers render :class:`~repro.experiments.sweeps.LossSurface` grids
and simple series as aligned text tables and persist them under
``benchmarks/results/``.
"""

from __future__ import annotations

import os
from collections.abc import Mapping, Sequence

import numpy as np

from repro.experiments.sweeps import LossSurface

__all__ = [
    "format_surface",
    "format_series",
    "format_mapping",
    "write_report",
]


def _fmt(value: float) -> str:
    """Loss-rate formatting: fixed-width scientific, literal zero for zero."""
    if value == 0.0:
        return "        0"
    return f"{value:9.2e}"


def _fmt_axis(value: float) -> str:
    if value == float("inf"):
        return "inf"
    if value >= 100.0 or (0 < value < 0.01):
        return f"{value:.3g}"
    return f"{value:g}"


def format_surface(surface: LossSurface, title: str = "") -> str:
    """Render a loss surface as an aligned table (rows x columns)."""
    lines: list[str] = []
    if title:
        lines.append(title)
    if surface.meta:
        fixed = ", ".join(f"{k}={_fmt_axis(v) if isinstance(v, float) else v}"
                          for k, v in surface.meta.items())
        lines.append(f"fixed: {fixed}")
    header = [f"{surface.row_label:>12} \\ {surface.col_label}"]
    header += [f"{_fmt_axis(c):>9}" for c in surface.cols]
    lines.append(" | ".join(header))
    lines.append("-" * len(lines[-1]))
    for row_value, row in zip(surface.rows, surface.losses):
        cells = [f"{_fmt_axis(row_value):>12}  "] + [_fmt(v) for v in row]
        lines.append(" | ".join(cells))
    return "\n".join(lines)


def format_series(
    x_label: str,
    x_values: Sequence[float] | np.ndarray,
    columns: Mapping[str, Sequence[float] | np.ndarray],
    title: str = "",
) -> str:
    """Render one or more y-series against a shared x-axis."""
    x_values = np.asarray(x_values, dtype=np.float64)
    series = {name: np.asarray(vals, dtype=np.float64) for name, vals in columns.items()}
    for name, vals in series.items():
        if vals.shape != x_values.shape:
            raise ValueError(f"series {name!r} length does not match x-axis")
    lines: list[str] = []
    if title:
        lines.append(title)
    header = [f"{x_label:>12}"] + [f"{name:>12}" for name in series]
    lines.append(" | ".join(header))
    lines.append("-" * len(lines[-1]))
    for i, x in enumerate(x_values):
        cells = [f"{_fmt_axis(float(x)):>12}"]
        cells += [f"{_fmt(float(vals[i])):>12}" for vals in series.values()]
        lines.append(" | ".join(cells))
    return "\n".join(lines)


def format_mapping(values: Mapping[str, float], title: str = "") -> str:
    """Render a flat name -> number mapping."""
    lines: list[str] = []
    if title:
        lines.append(title)
    width = max(len(k) for k in values) if values else 0
    for key, value in values.items():
        rendered = f"{value:.6g}" if isinstance(value, (int, float)) else str(value)
        lines.append(f"  {key:<{width}} = {rendered}")
    return "\n".join(lines)


def write_report(path: str, text: str) -> None:
    """Persist a report, creating parent directories as needed."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text if text.endswith("\n") else text + "\n")
