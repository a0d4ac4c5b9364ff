"""Tests for SolveTask fingerprints and SweepPlan grids."""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest

from repro.core.fingerprint import restore
from repro.core.solver import SolverConfig
from repro.exec.task import SolveTask, SweepPlan

FAST = SolverConfig(initial_bins=32, max_bins=128, relative_gap=0.5, max_iterations=2_000)


class TestCacheKey:
    def test_equal_tasks_share_a_key(self, small_source):
        a = SolveTask(small_source, 0.8, 0.3, FAST)
        b = SolveTask(small_source, 0.8, 0.3, FAST)
        assert a.cache_key() == b.cache_key()

    def test_key_is_stable_across_calls(self, small_source):
        task = SolveTask(small_source, 0.8, 0.3, FAST)
        assert task.cache_key() == task.cache_key()

    def test_none_config_hashes_like_the_default(self, small_source):
        explicit = SolveTask(small_source, 0.8, 0.3, SolverConfig())
        implicit = SolveTask(small_source, 0.8, 0.3, None)
        assert explicit.cache_key() == implicit.cache_key()

    def test_every_parameter_perturbs_the_key(self, small_source):
        base = SolveTask(small_source, 0.8, 0.3, FAST)
        variants = [
            SolveTask(small_source, 0.81, 0.3, FAST),
            SolveTask(small_source, 0.8, 0.31, FAST),
            SolveTask(small_source, 0.8, 0.3, SolverConfig()),
            SolveTask(small_source.with_cutoff(2.0), 0.8, 0.3, FAST),
        ]
        keys = {t.cache_key() for t in [base, *variants]}
        assert len(keys) == len(variants) + 1

    def test_payload_is_json_serializable_and_restorable(self, small_source):
        task = SolveTask(small_source, 0.8, 0.3, FAST)
        payload = task.payload()
        round_tripped = json.loads(json.dumps(payload))
        source = restore(round_tripped["source"])
        assert source.mean_rate == pytest.approx(small_source.mean_rate)
        assert source.cutoff == small_source.cutoff
        config = restore(round_tripped["config"])
        assert config == FAST


class TestPickling:
    def test_task_round_trips_bit_exactly(self, small_source):
        task = SolveTask(small_source, 0.8, 0.3, FAST)
        clone = pickle.loads(pickle.dumps(task))
        np.testing.assert_array_equal(clone.source.marginal.probs, small_source.marginal.probs)
        np.testing.assert_array_equal(clone.source.marginal.rates, small_source.marginal.rates)
        assert clone.cache_key() == task.cache_key()

    def test_pickled_task_solves_identically(self, small_source):
        task = SolveTask(small_source, 0.8, 0.3, FAST)
        clone = pickle.loads(pickle.dumps(task))
        original = task.run()
        replayed = clone.run()
        assert replayed.lower == original.lower
        assert replayed.upper == original.upper
        assert replayed.iterations == original.iterations


class TestSweepPlan:
    def test_shape_mismatch_rejected(self, small_source):
        task = SolveTask(small_source, 0.8, 0.3, FAST)
        with pytest.raises(ValueError, match="tasks"):
            SweepPlan(
                row_label="a",
                col_label="b",
                rows=np.array([1.0, 2.0]),
                cols=np.array([1.0]),
                tasks=(task,),
            )

    def test_reshape_restores_the_grid(self, small_source):
        task = SolveTask(small_source, 0.8, 0.3, FAST)
        plan = SweepPlan(
            row_label="a",
            col_label="b",
            rows=np.array([1.0, 2.0]),
            cols=np.array([1.0, 2.0]),
            tasks=(task,) * 4,
        )
        grid = plan.reshape([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(grid, [[1.0, 2.0], [3.0, 4.0]])
