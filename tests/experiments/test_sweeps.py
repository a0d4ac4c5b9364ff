"""Tests for the parameter-sweep harness (tiny grids, real code paths)."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.marginal import DiscreteMarginal
from repro.core.solver import SolverConfig
from repro.core.source import CutoffFluidSource
from repro.core.truncated_pareto import TruncatedPareto
from repro.experiments.sweeps import (
    LossSurface,
    plan_buffer_cutoff,
    plan_buffer_scaling,
    plan_cutoff,
    plan_fingerprint,
    plan_hurst_scaling,
    plan_hurst_superposition,
    run_plan,
)

FAST = SolverConfig(initial_bins=64, max_bins=512, relative_gap=0.5, max_iterations=5_000)

GOLDEN = Path(__file__).parent / "golden" / "plan_fingerprints.json"


def golden_plans(surface_buffers=(0.05, 0.2)) -> dict:
    """The committed plans: three grids over one fixed source.

    ``families`` is the solver side of ``repro compare`` (one cell per
    buffer at the source's own cutoff).
    """
    source = CutoffFluidSource(
        marginal=DiscreteMarginal(rates=[0.0, 2.0], probs=[0.5, 0.5]),
        interarrival=TruncatedPareto(theta=0.05, alpha=1.4, cutoff=2.0),
    )
    return {
        "surface": plan_buffer_cutoff(source, 0.9, surface_buffers, [0.5, 2.0], FAST),
        "horizon": plan_cutoff(source, 0.9, 0.1, [0.25, 1.0, 4.0], FAST),
        "families": plan_buffer_cutoff(source, 0.9, [0.1, 0.5], [source.cutoff], FAST),
    }


class TestPlanFingerprint:
    def test_fingerprints_match_golden_file(self):
        """The builders make byte-stable plans.

        If this fails because of an *intentional* change to a plan
        builder, regenerate with::

            PYTHONPATH=src python -c "
            from tests.experiments.test_sweeps import write_golden; write_golden()"
        """
        expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
        fingerprints = {name: plan_fingerprint(plan) for name, plan in golden_plans().items()}
        assert fingerprints == expected

    def test_fingerprint_is_sensitive_to_the_grid(self):
        base = golden_plans()
        changed = golden_plans(surface_buffers=(0.05, 0.25))  # one knot moved
        assert plan_fingerprint(changed["surface"]) != plan_fingerprint(base["surface"])
        assert plan_fingerprint(changed["horizon"]) == plan_fingerprint(base["horizon"])

    def test_fingerprint_is_insensitive_to_meta(self):
        plan = golden_plans()["surface"]
        relabeled = plan.__class__(
            tasks=plan.tasks,
            rows=plan.rows,
            cols=plan.cols,
            row_label=plan.row_label,
            col_label=plan.col_label,
            meta={**plan.meta, "note": "descriptive only"},
        )
        assert plan_fingerprint(relabeled) == plan_fingerprint(plan)


def write_golden() -> None:  # pragma: no cover - regeneration helper
    fingerprints = {name: plan_fingerprint(plan) for name, plan in golden_plans().items()}
    GOLDEN.write_text(json.dumps(fingerprints, indent=2, sort_keys=True) + "\n", encoding="utf-8")


class TestLossSurface:
    def test_shape_validation(self):
        with pytest.raises(ValueError, match="shape"):
            LossSurface(
                row_label="a",
                col_label="b",
                rows=np.array([1.0, 2.0]),
                cols=np.array([1.0]),
                losses=np.zeros((1, 1)),
            )

    def test_save_load_round_trip(self, tmp_path):
        surface = LossSurface(
            row_label="buffer_s",
            col_label="cutoff_s",
            rows=np.array([0.1, 1.0]),
            cols=np.array([1.0, 10.0, 100.0]),
            losses=np.arange(6.0).reshape(2, 3) * 1e-3,
            meta={"utilization": 0.8, "trace": "demo"},
        )
        path = str(tmp_path / "surface.npz")
        surface.save(path)
        loaded = LossSurface.load(path)
        assert loaded.row_label == surface.row_label
        np.testing.assert_array_equal(loaded.losses, surface.losses)
        assert loaded.meta["utilization"] == 0.8
        assert loaded.meta["trace"] == "demo"

    def test_save_load_coerces_numpy_meta_scalars(self, tmp_path):
        # Sweeps routinely stash np.float64 values in meta; save() must
        # coerce them so the archive stays loadable without pickle.
        surface = LossSurface(
            row_label="buffer_s",
            col_label="cutoff_s",
            rows=np.array([0.1]),
            cols=np.array([1.0, 10.0]),
            losses=np.array([[1e-3, 2e-3]]),
            meta={"utilization": np.float64(0.8), "hurst": np.float64(0.83)},
        )
        path = str(tmp_path / "surface.npz")
        surface.save(path)
        loaded = LossSurface.load(path)
        assert isinstance(loaded.meta["utilization"], float)
        assert loaded.meta["utilization"] == 0.8
        assert loaded.meta["hurst"] == 0.83

    def test_series_accessors(self):
        surface = LossSurface(
            row_label="a",
            col_label="b",
            rows=np.array([1.0, 2.0]),
            cols=np.array([10.0, 20.0, 30.0]),
            losses=np.arange(6.0).reshape(2, 3),
        )
        cols, row = surface.row_series(1)
        np.testing.assert_allclose(row, [3.0, 4.0, 5.0])
        rows, col = surface.col_series(0)
        np.testing.assert_allclose(col, [0.0, 3.0])


class TestBufferCutoffSweep:
    def test_monotone_structure(self, small_source):
        surface = run_plan(
            plan_buffer_cutoff(
                source=small_source,
                utilization=0.8,
                buffers=np.array([0.05, 0.5]),
                cutoffs=np.array([0.2, 5.0]),
                config=FAST,
            )
        )
        assert surface.losses.shape == (2, 2)
        # Loss decreases with buffer (columns) and increases with cutoff (rows).
        assert np.all(surface.losses[0] >= surface.losses[1] - 1e-12)
        assert np.all(surface.losses[:, 0] <= surface.losses[:, 1] + 1e-12)

    def test_meta_recorded(self, small_source):
        surface = run_plan(
            plan_buffer_cutoff(
                source=small_source,
                utilization=0.8,
                buffers=np.array([0.1]),
                cutoffs=np.array([1.0]),
                config=FAST,
            )
        )
        assert surface.meta["utilization"] == 0.8
        assert surface.meta["hurst"] == pytest.approx(small_source.hurst)


class TestCutoffSweep:
    def test_monotone_in_cutoff(self, small_source):
        surface = run_plan(plan_cutoff(small_source, 0.8, 0.3, np.array([0.2, 1.0, 4.0]), FAST))
        assert isinstance(surface, LossSurface)
        assert surface.losses.shape == (1, 3)
        cutoffs, losses = surface.row_series(0)
        np.testing.assert_allclose(cutoffs, [0.2, 1.0, 4.0])
        assert losses.shape == (3,)
        assert losses[0] <= losses[1] + 1e-12 <= losses[2] + 2e-12

    def test_structured_result_metadata(self, small_source):
        surface = run_plan(plan_cutoff(small_source, 0.8, 0.3, np.array([0.5, 2.0]), FAST))
        assert surface.row_label == "buffer_s"
        assert surface.col_label == "cutoff_s"
        np.testing.assert_allclose(surface.rows, [0.3])
        assert surface.meta["utilization"] == 0.8
        assert surface.meta["buffer_s"] == 0.3
        assert surface.meta["hurst"] == pytest.approx(small_source.hurst)


class TestMarginalSweeps:
    def test_hurst_scaling_grid(self, three_level_marginal):
        plan = plan_hurst_scaling(
            marginal=three_level_marginal,
            mean_interval=0.05,
            utilization=0.8,
            normalized_buffer=0.2,
            hursts=np.array([0.6, 0.9]),
            scalings=np.array([0.5, 1.0]),
            cutoff=5.0,
            config=FAST,
        )
        surface = run_plan(plan)
        assert surface.losses.shape == (2, 2)
        # Narrower marginal -> lower loss, at both Hurst values.
        assert np.all(surface.losses[:, 0] <= surface.losses[:, 1] + 1e-12)
        # Theta is fixed at the nominal-H calibration; only alpha follows H.
        assert surface.meta["theta"] > 0.0
        for index, task in enumerate(plan.tasks):
            assert task.source.interarrival.theta == surface.meta["theta"]
            assert task.source.hurst == pytest.approx(plan.rows[index // 2])

    def test_hurst_superposition_grid(self, three_level_marginal):
        surface = run_plan(
            plan_hurst_superposition(
                marginal=three_level_marginal,
                mean_interval=0.05,
                utilization=0.8,
                normalized_buffer=0.2,
                hursts=np.array([0.7]),
                streams=np.array([1, 4]),
                cutoff=5.0,
                config=FAST,
            )
        )
        assert surface.losses.shape == (1, 2)
        # Multiplexing reduces loss.
        assert surface.losses[0, 1] <= surface.losses[0, 0] + 1e-12

    def test_buffer_scaling_grid(self, multi_source):
        surface = run_plan(
            plan_buffer_scaling(
                source=multi_source,
                utilization=0.8,
                buffers=np.array([0.05, 0.5]),
                scalings=np.array([0.5, 1.5]),
                config=FAST,
            )
        )
        assert surface.losses.shape == (2, 2)
        assert np.all(surface.losses[1] <= surface.losses[0] + 1e-12)
