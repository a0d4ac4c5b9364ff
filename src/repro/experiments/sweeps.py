"""Parameter sweeps producing the paper's loss surfaces.

Each sweep varies two of the four knobs the paper studies — normalized
buffer size B, cutoff lag T_c, Hurst parameter H, and the marginal
distribution (scaling factor a or number of superposed streams n) — and
records the solver's loss estimate per grid cell in a
:class:`LossSurface`.

Since every cell is an independent ``solve_loss_rate`` call, a sweep is
built one way and run one way.  A ``plan_*`` builder maps a grid to a
:class:`~repro.exec.task.SweepPlan` without solving anything, and
:func:`run_plan` executes it through a
:class:`~repro.exec.engine.SweepEngine`::

    surface = run_plan(plan_buffer_cutoff(source, 0.8, buffers, cutoffs), engine)

Pass an engine to run cells on a process pool, memoize them in the
persistent solve cache, or observe per-cell telemetry.  The default
engine (serial, no cache) reproduces the hand-rolled loops bit for bit.
:func:`plan_fingerprint` hashes what a plan computes, so a committed
golden file can pin the builders' output.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.fingerprint import stable_hash
from repro.core.marginal import DiscreteMarginal
from repro.core.solver import SolverConfig
from repro.core.source import CutoffFluidSource
from repro.exec.engine import SweepEngine
from repro.exec.task import SolveTask, SweepPlan

__all__ = [
    "LossSurface",
    "plan_buffer_cutoff",
    "plan_buffer_scaling",
    "plan_cutoff",
    "plan_fingerprint",
    "plan_hurst_scaling",
    "plan_hurst_superposition",
    "run_plan",
]


@dataclass(frozen=True)
class LossSurface:
    """A 2-D grid of loss rates with labeled axes.

    Attributes
    ----------
    row_label, col_label:
        Names of the row/column parameters.
    rows, cols:
        Parameter values along each axis.
    losses:
        Loss estimates, shape ``(len(rows), len(cols))``.
    meta:
        Free-form description of the fixed parameters.
    """

    row_label: str
    col_label: str
    rows: np.ndarray
    cols: np.ndarray
    losses: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.losses.shape != (self.rows.size, self.cols.size):
            raise ValueError(
                f"losses shape {self.losses.shape} does not match axes "
                f"({self.rows.size}, {self.cols.size})"
            )

    def row_series(self, row_index: int) -> tuple[np.ndarray, np.ndarray]:
        """(cols, losses) along one row."""
        return self.cols, self.losses[row_index]

    def col_series(self, col_index: int) -> tuple[np.ndarray, np.ndarray]:
        """(rows, losses) along one column."""
        return self.rows, self.losses[:, col_index]

    def save(self, path: str) -> None:
        """Persist the surface (grids, losses, meta) as a ``.npz`` archive."""
        np.savez_compressed(
            path,
            row_label=self.row_label,
            col_label=self.col_label,
            rows=self.rows,
            cols=self.cols,
            losses=self.losses,
            meta_json=json.dumps(self.meta, default=float),
        )

    @classmethod
    def load(cls, path: str) -> "LossSurface":
        """Load a surface previously stored with :meth:`save`."""
        with np.load(path, allow_pickle=False) as archive:
            return cls(
                row_label=str(archive["row_label"]),
                col_label=str(archive["col_label"]),
                rows=archive["rows"],
                cols=archive["cols"],
                losses=archive["losses"],
                meta=json.loads(str(archive["meta_json"])),
            )


def run_plan(plan: SweepPlan, engine: SweepEngine | None = None) -> LossSurface:
    """Run a plan on the given (or a default serial) engine.

    Returns the plan's losses as a :class:`LossSurface` carrying the
    plan's axes and ``meta``.
    """
    engine = engine if engine is not None else SweepEngine()
    losses = engine.run_grid(plan)
    return LossSurface(
        row_label=plan.row_label,
        col_label=plan.col_label,
        rows=plan.rows,
        cols=plan.cols,
        losses=losses,
        meta=dict(plan.meta),
    )


def plan_buffer_cutoff(
    source: CutoffFluidSource,
    utilization: float,
    buffers: np.ndarray,
    cutoffs: np.ndarray,
    config: SolverConfig | None = None,
) -> SweepPlan:
    """Plan for the (normalized buffer, cutoff lag) grid — Figs. 4 and 5."""
    buffers = np.asarray(buffers, dtype=np.float64)
    cutoffs = np.asarray(cutoffs, dtype=np.float64)
    truncated = [source.with_cutoff(float(cutoff)) for cutoff in cutoffs]
    tasks = tuple(
        SolveTask(truncated[j], utilization, float(buffer_seconds), config)
        for buffer_seconds in buffers
        for j in range(cutoffs.size)
    )
    return SweepPlan(
        row_label="buffer_s",
        col_label="cutoff_s",
        rows=buffers,
        cols=cutoffs,
        tasks=tasks,
        meta={"utilization": utilization, "hurst": source.hurst},
    )


def plan_cutoff(
    source: CutoffFluidSource,
    utilization: float,
    normalized_buffer: float,
    cutoffs: np.ndarray,
    config: SolverConfig | None = None,
) -> SweepPlan:
    """Plan for a cutoff sweep at fixed buffer — Fig. 9 and CH extraction.

    The plan is a one-row grid (row = the fixed normalized buffer), so
    cutoff sweeps run and save like their 2-D siblings; unpack the run
    with ``cutoffs, losses = surface.row_series(0)``.
    """
    cutoffs = np.asarray(cutoffs, dtype=np.float64)
    tasks = tuple(
        SolveTask(source.with_cutoff(float(cutoff)), utilization, normalized_buffer, config)
        for cutoff in cutoffs
    )
    return SweepPlan(
        row_label="buffer_s",
        col_label="cutoff_s",
        rows=np.array([float(normalized_buffer)]),
        cols=cutoffs,
        tasks=tasks,
        meta={
            "utilization": utilization,
            "buffer_s": float(normalized_buffer),
            "hurst": source.hurst,
        },
    )


def plan_hurst_scaling(
    marginal: DiscreteMarginal,
    mean_interval: float,
    utilization: float,
    normalized_buffer: float,
    hursts: np.ndarray,
    scalings: np.ndarray,
    cutoff: float = math.inf,
    nominal_hurst: float | None = None,
    config: SolverConfig | None = None,
) -> SweepPlan:
    """Plan for the (Hurst, marginal scaling) grid — Fig. 10.

    Per the paper, theta is calibrated once at the *nominal* Hurst
    parameter and held fixed while H varies, so the Hurst axis changes
    only the tail exponent and not the short-range structure.
    """
    hursts = np.asarray(hursts, dtype=np.float64)
    scalings = np.asarray(scalings, dtype=np.float64)
    if nominal_hurst is None:
        nominal_hurst = float(hursts[len(hursts) // 2])
    theta = mean_interval * (3.0 - 2.0 * nominal_hurst - 1.0)  # mean * (alpha - 1)
    scaled_marginals = [marginal.scaled(float(scaling)) for scaling in scalings]
    tasks: list[SolveTask] = []
    for hurst in hursts:
        base = CutoffFluidSource.from_hurst(
            marginal=marginal, hurst=float(hurst), mean_interval=mean_interval, cutoff=cutoff
        )
        # Overwrite theta with the nominal-H calibration (paper's protocol).
        law = base.interarrival
        fixed = CutoffFluidSource(
            marginal=marginal,
            interarrival=type(law)(theta=theta, alpha=law.alpha, cutoff=law.cutoff),
        )
        for scaled in scaled_marginals:
            tasks.append(
                SolveTask(fixed.with_marginal(scaled), utilization, normalized_buffer, config)
            )
    return SweepPlan(
        row_label="hurst",
        col_label="scaling",
        rows=hursts,
        cols=scalings,
        tasks=tuple(tasks),
        meta={
            "utilization": utilization,
            "buffer_s": normalized_buffer,
            "cutoff_s": cutoff,
            "theta": theta,
        },
    )


def plan_hurst_superposition(
    marginal: DiscreteMarginal,
    mean_interval: float,
    utilization: float,
    normalized_buffer: float,
    hursts: np.ndarray,
    streams: np.ndarray,
    cutoff: float = math.inf,
    config: SolverConfig | None = None,
) -> SweepPlan:
    """Plan for the (Hurst, superposed streams) grid — Fig. 11."""
    hursts = np.asarray(hursts, dtype=np.float64)
    streams = np.asarray(streams, dtype=np.int64)
    superposed = {int(n): marginal.superposed(int(n)) for n in streams}
    tasks = tuple(
        SolveTask(
            CutoffFluidSource.from_hurst(
                marginal=superposed[int(n)],
                hurst=float(hurst),
                mean_interval=mean_interval,
                cutoff=cutoff,
            ),
            utilization,
            normalized_buffer,
            config,
        )
        for hurst in hursts
        for n in streams
    )
    return SweepPlan(
        row_label="hurst",
        col_label="streams",
        rows=hursts,
        cols=streams.astype(np.float64),
        tasks=tasks,
        meta={"utilization": utilization, "buffer_s": normalized_buffer, "cutoff_s": cutoff},
    )


def plan_buffer_scaling(
    source: CutoffFluidSource,
    utilization: float,
    buffers: np.ndarray,
    scalings: np.ndarray,
    config: SolverConfig | None = None,
) -> SweepPlan:
    """Plan for the (normalized buffer, marginal scaling) grid — Figs. 12 and 13."""
    buffers = np.asarray(buffers, dtype=np.float64)
    scalings = np.asarray(scalings, dtype=np.float64)
    scaled_sources = [
        source.with_marginal(source.marginal.scaled(float(scaling))) for scaling in scalings
    ]
    tasks = tuple(
        SolveTask(scaled_sources[j], utilization, float(buffer_seconds), config)
        for buffer_seconds in buffers
        for j in range(scalings.size)
    )
    return SweepPlan(
        row_label="buffer_s",
        col_label="scaling",
        rows=buffers,
        cols=scalings,
        tasks=tasks,
        meta={"utilization": utilization, "hurst": source.hurst, "cutoff_s": source.cutoff},
    )


def plan_fingerprint(plan: SweepPlan) -> str:
    """Content hash of a plan: axes plus every task's solve cache key.

    ``meta`` is deliberately excluded — it is descriptive, can contain
    non-finite floats, and has no effect on what the engine computes.
    """
    payload = {
        "kind": "sweep_plan",
        "row_label": plan.row_label,
        "col_label": plan.col_label,
        "rows": [float(v).hex() for v in plan.rows],
        "cols": [float(v).hex() for v in plan.cols],
        "tasks": [task.cache_key() for task in plan.tasks],
    }
    return stable_hash(payload)
