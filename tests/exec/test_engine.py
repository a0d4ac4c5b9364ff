"""Tests for the sweep engine: bit-identity, caching and telemetry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.fingerprint import stable_hash
from repro.core.results import LossRateResult
from repro.core.solver import SolverConfig, solve_loss_rate
from repro.exec.backends import SerialBackend
from repro.exec.cache import SolveCache
from repro.exec.engine import SweepEngine
from repro.exec.task import SolveTask, SweepPlan
from repro.experiments.sweeps import plan_buffer_cutoff, run_plan

FAST = SolverConfig(initial_bins=32, max_bins=128, relative_gap=0.5, max_iterations=2_000)

BUFFERS = np.array([0.1, 0.4])
CUTOFFS = np.array([0.5, 2.0])


def _plan(source) -> SweepPlan:
    return plan_buffer_cutoff(source, 0.85, BUFFERS, CUTOFFS, FAST)


class TestBitIdentity:
    def test_default_engine_matches_direct_loops(self, small_source):
        grid = SweepEngine().run_grid(_plan(small_source))
        expected = np.array(
            [
                [
                    solve_loss_rate(
                        small_source.with_cutoff(float(c)), 0.85, float(b), config=FAST
                    ).estimate
                    for c in CUTOFFS
                ]
                for b in BUFFERS
            ]
        )
        np.testing.assert_array_equal(grid, expected)  # bit-identical, not approx

    def test_sweep_builder_matches_direct_loops(self, small_source):
        surface = run_plan(_plan(small_source))
        expected = np.array(
            [
                [
                    solve_loss_rate(
                        small_source.with_cutoff(float(c)), 0.85, float(b), config=FAST
                    ).estimate
                    for c in CUTOFFS
                ]
                for b in BUFFERS
            ]
        )
        np.testing.assert_array_equal(surface.losses, expected)


class TestCaching:
    def test_warm_rerun_costs_zero_solver_iterations(self, small_source, tmp_path):
        cold = SweepEngine(cache=SolveCache(tmp_path))
        cold_grid = cold.run_grid(_plan(small_source))
        assert cold.telemetry.cache_hits == 0
        assert cold.telemetry.solver_iterations > 0

        warm = SweepEngine(cache=SolveCache(tmp_path))
        warm_grid = warm.run_grid(_plan(small_source))
        assert warm.telemetry.cache_hits == warm.telemetry.total_cells
        assert warm.telemetry.cache_misses == 0
        assert warm.telemetry.solver_iterations == 0
        np.testing.assert_array_equal(warm_grid, cold_grid)

    def test_partial_warmth_solves_only_the_new_cells(self, small_source, tmp_path):
        engine = SweepEngine(cache=SolveCache(tmp_path))
        engine.solve(SolveTask(small_source.with_cutoff(float(CUTOFFS[0])), 0.85,
                               float(BUFFERS[0]), FAST))

        sweep_engine = SweepEngine(cache=SolveCache(tmp_path))
        sweep_engine.run_grid(_plan(small_source))
        assert sweep_engine.telemetry.cache_hits == 1
        assert sweep_engine.telemetry.cache_misses == BUFFERS.size * CUTOFFS.size - 1

    def test_uncached_engine_reports_no_hits(self, small_source):
        engine = SweepEngine()
        engine.run_grid(_plan(small_source))
        assert engine.telemetry.cache_hits == 0
        assert engine.telemetry.cache_misses == engine.telemetry.total_cells


class TestCacheInvalidation:
    def test_pre_spectral_entries_are_missed_not_aliased(self, small_source, tmp_path):
        """Acceptance: a kernel version bump must orphan old cache entries.

        Simulates a cache populated by the pre-spectral (v1) kernel, whose
        config payloads carried neither ``solver_version`` nor
        ``fft_threshold_bins``.  The engine must miss that entry and solve
        fresh rather than serve the stale result.
        """
        task = SolveTask(small_source, 0.85, 0.1, FAST)
        payload = task.payload()
        v1_config = {
            key: value
            for key, value in payload["config"].items()
            if key not in ("solver_version", "fft_threshold_bins")
        }
        stale_key = stable_hash(dict(payload, config=v1_config))
        assert stale_key != task.cache_key()

        poison = LossRateResult(
            lower=0.123, upper=0.456, iterations=1, bins=8,
            converged=True, negligible=False,
        )
        SolveCache(tmp_path).put(stale_key, poison)

        engine = SweepEngine(cache=SolveCache(tmp_path))
        result = engine.solve(task)
        assert engine.telemetry.cache_hits == 0
        assert engine.telemetry.cache_misses == 1
        direct = task.run()
        assert result.lower == direct.lower
        assert result.upper == direct.upper
        # Both the orphaned and the fresh entry coexist under distinct keys.
        reopened = SolveCache(tmp_path)
        assert reopened.get(stale_key) == poison
        assert reopened.get(task.cache_key()) is not None


class TestEngineLifecycle:
    def test_context_manager_closes_the_backend(self, small_source):
        class RecordingBackend(SerialBackend):
            closed = False

            def close(self):
                self.closed = True

        backend = RecordingBackend()
        with SweepEngine(backend=backend) as engine:
            engine.solve(SolveTask(small_source, 0.85, 0.1, FAST))
            assert not backend.closed
        assert backend.closed

    def test_close_tolerates_backends_without_close(self, small_source):
        engine = SweepEngine()  # SerialBackend has no close()
        engine.solve(SolveTask(small_source, 0.85, 0.1, FAST))
        engine.close()

    def test_double_close_is_a_noop(self):
        class CountingBackend(SerialBackend):
            close_calls = 0

            def close(self):
                self.close_calls += 1

        backend = CountingBackend()
        engine = SweepEngine(backend=backend)
        assert not engine.closed
        engine.close()
        engine.close()
        assert engine.closed
        assert backend.close_calls == 1

    def test_run_after_close_raises_a_clear_error(self, small_source):
        engine = SweepEngine()
        engine.close()
        task = SolveTask(small_source, 0.85, 0.1, FAST)
        with pytest.raises(RuntimeError, match="closed"):
            engine.run_tasks([task])
        with pytest.raises(RuntimeError, match="closed"):
            engine.solve(task)
        with pytest.raises(RuntimeError, match="closed"):
            engine.run_grid(_plan(small_source))

    def test_context_manager_exit_then_run_raises(self, small_source):
        with SweepEngine() as engine:
            engine.solve(SolveTask(small_source, 0.85, 0.1, FAST))
        with pytest.raises(RuntimeError, match="closed"):
            engine.solve(SolveTask(small_source, 0.85, 0.1, FAST))


class TestTelemetryAndProgress:
    def test_progress_callback_sees_every_cell(self, small_source):
        calls = []
        engine = SweepEngine(progress=lambda done, total, cell: calls.append((done, total, cell)))
        engine.run_grid(_plan(small_source))
        total = BUFFERS.size * CUTOFFS.size
        assert len(calls) == total
        assert [done for done, _, _ in calls] == list(range(1, total + 1))
        assert all(t == total for _, t, _ in calls)
        assert sorted(cell.index for _, _, cell in calls) == list(range(total))

    def test_telemetry_accumulates_across_runs(self, small_source):
        engine = SweepEngine()
        engine.solve(SolveTask(small_source, 0.85, 0.1, FAST))
        engine.solve(SolveTask(small_source, 0.85, 0.4, FAST))
        assert engine.telemetry.total_cells == 2
        summary = engine.telemetry.summary()
        assert summary["cells"] == 2.0
        assert summary["solver_iterations"] > 0
        assert summary["solve_seconds"] >= 0.0

    def test_summary_reports_kernel_counters(self, small_source, tmp_path):
        engine = SweepEngine(cache=SolveCache(tmp_path))
        engine.solve(SolveTask(small_source, 0.85, 0.1, FAST))
        summary = engine.telemetry.summary()
        assert summary["fft_seconds"] >= 0.0
        assert summary["boundary_seconds"] >= 0.0
        assert summary["fft_transforms"] >= 0.0
        solved_transforms = engine.telemetry.fft_transforms
        # A cache hit replays the result without kernel work: the solved
        # counters must not move.
        warm = SweepEngine(cache=SolveCache(tmp_path))
        warm.solve(SolveTask(small_source, 0.85, 0.1, FAST))
        assert warm.telemetry.cache_hits == 1
        assert warm.telemetry.fft_transforms == 0
        assert warm.telemetry.fft_seconds == 0.0
        assert solved_transforms == engine.telemetry.fft_transforms

    def test_solve_returns_the_plain_result(self, small_source):
        engine = SweepEngine()
        task = SolveTask(small_source, 0.85, 0.1, FAST)
        result = engine.solve(task)
        direct = task.run()
        assert result.lower == direct.lower
        assert result.upper == direct.upper
        assert result.estimate == pytest.approx(direct.estimate)
