"""Batched multi-task kernel (SOLVER_VERSION = 3): bit-identity and stats.

``batch_loss_rates`` advances same-shape solves through one stacked
``(tasks, 2, L)`` rfft/irfft pair per step, and a solo
:meth:`FluidQueue.loss_rate` is the same driver at width one.  The
batch-versus-solo tests therefore compare stack width K against width 1:
results must not depend on what shares a stack, across every exit path —
gap convergence, negligible-loss exit, stall plus refinement at
divergent levels, and iteration-budget exhaustion.  The independent
reference is the per-chain kernel (:meth:`_BoundedChains.iterate` with
its own :class:`_SpectralPlan`): the stacked group must reproduce its
states bit for bit.  ``stationary_occupancy`` output is pinned by digests
taken before the solo loops were folded into the driver.

Every level steps through a stacked group, so both convolution paths
are covered: the spectral plan (``SPECTRAL``, threshold 0) and the
direct plan (``DIRECT``, ``use_fft=False``), plus batches whose members
cross from one path to the other under the default threshold.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.marginal import DiscreteMarginal
from repro.core.solver import (
    FluidQueue,
    SolverConfig,
    _BatchMember,
    _fft_stack_width,
    _StackedGroup,
    batch_loss_rates,
)
from repro.core.source import CutoffFluidSource
from repro.core.truncated_pareto import TruncatedPareto

SPECTRAL = SolverConfig(
    initial_bins=64, max_bins=512, relative_gap=0.1, max_iterations=20_000,
    use_fft=True, fft_threshold_bins=0,
)
DIRECT = SolverConfig(
    initial_bins=32, max_bins=128, relative_gap=0.5, max_iterations=2_000,
    use_fft=False,
)
# Tighter direct-path config: members exit by gap convergence, by giving
# up at max_bins, and at different iterations and levels.
DIRECT_DIVERGENT = SolverConfig(
    initial_bins=32, max_bins=128, relative_gap=0.1, max_iterations=2_000,
    use_fft=False,
)


def _source(cutoff: float = 5.0) -> CutoffFluidSource:
    return CutoffFluidSource(
        marginal=DiscreteMarginal(rates=[0.0, 2.0], probs=[0.5, 0.5]),
        interarrival=TruncatedPareto(theta=0.1, alpha=1.4, cutoff=cutoff),
    )


def _queues(buffers, utilization: float = 0.85) -> list[FluidQueue]:
    source = _source()
    return [
        FluidQueue.from_normalized(
            source=source, utilization=utilization, normalized_buffer=buffer
        )
        for buffer in buffers
    ]


def _assert_identical(batched, solo) -> None:
    assert len(batched) == len(solo)
    for from_batch, from_solo in zip(batched, solo):
        assert from_batch.lower == from_solo.lower  # bit-exact, not approx
        assert from_batch.upper == from_solo.upper
        assert from_batch.iterations == from_solo.iterations
        assert from_batch.bins == from_solo.bins
        assert from_batch.converged == from_solo.converged
        assert from_batch.negligible == from_solo.negligible


class TestBitIdentity:
    def test_homogeneous_spectral_batch_matches_solo(self):
        queues = _queues([0.1, 0.2, 0.4, 0.8, 1.2, 1.6])
        batched = batch_loss_rates(queues, config=SPECTRAL)
        solo = [queue.loss_rate(SPECTRAL) for queue in queues]
        _assert_identical(batched, solo)

    def test_divergent_exit_paths_stay_identical(self):
        # Wildly different buffers force different convergence iterations,
        # stalls and refinement levels across the batch; each member must
        # still retire exactly as it would alone.
        queues = _queues([0.02, 0.1, 0.5, 2.0, 5.0], utilization=0.95)
        config = SolverConfig(
            initial_bins=64, max_bins=1024, relative_gap=0.05,
            max_iterations=20_000, use_fft=True, fft_threshold_bins=0,
        )
        batched = batch_loss_rates(queues, config=config)
        solo = [queue.loss_rate(config) for queue in queues]
        _assert_identical(batched, solo)
        # The point of the fixture: members genuinely diverge.
        assert len({result.iterations for result in solo}) > 1

    def test_batch_with_trivial_member_matches_solo(self):
        source = _source()
        queues = _queues([0.1, 0.4])
        # Utilization <= peak-free regime: closed-form zero-loss result.
        queues.append(
            FluidQueue(source=source, service_rate=2.5, buffer_size=1.0)
        )
        batched = batch_loss_rates(queues, config=SPECTRAL)
        solo = [queue.loss_rate(SPECTRAL) for queue in queues]
        _assert_identical(batched, solo)
        assert batched[-1].stats is None  # trivial members skip the kernel

    def test_direct_path_batch_matches_solo(self):
        queues = _queues([0.1, 0.3, 0.6])
        batched = batch_loss_rates(queues, config=DIRECT)
        solo = [queue.loss_rate(DIRECT) for queue in queues]
        _assert_identical(batched, solo)

    def test_iteration_exhaustion_matches_solo(self):
        starved = SolverConfig(
            initial_bins=64, max_bins=128, relative_gap=1e-12,
            negligible_loss=0.0, max_iterations=48, block_iterations=16,
            use_fft=True, fft_threshold_bins=0,
        )
        queues = _queues([0.1, 0.2, 0.4])
        batched = batch_loss_rates(queues, config=starved)
        solo = [queue.loss_rate(starved) for queue in queues]
        _assert_identical(batched, solo)
        assert not any(result.converged for result in batched)

    @pytest.mark.parametrize("width", [1, 2, 8, 64])
    def test_direct_stacks_match_solo(self, width):
        queues = _queues(np.geomspace(3.0, 0.02, width), utilization=0.95)
        batched = batch_loss_rates(queues, config=DIRECT_DIVERGENT)
        solo = [queue.loss_rate(DIRECT_DIVERGENT) for queue in queues]
        _assert_identical(batched, solo)
        for from_batch, from_solo in zip(batched, solo):
            assert from_batch.stats.transforms == from_solo.stats.transforms == 0
            assert (
                from_batch.stats.steps_per_level == from_solo.stats.steps_per_level
            )

    def test_direct_divergent_exit_paths_stay_identical(self):
        queues = _queues([0.02, 0.1, 0.5, 2.0, 5.0], utilization=0.95)
        batched = batch_loss_rates(queues, config=DIRECT_DIVERGENT)
        solo = [queue.loss_rate(DIRECT_DIVERGENT) for queue in queues]
        _assert_identical(batched, solo)
        assert len({result.iterations for result in solo}) > 1
        assert len({result.bins for result in solo}) > 1
        assert {result.converged for result in solo} == {True, False}

    def test_direct_iteration_exhaustion_matches_solo(self):
        starved = SolverConfig(
            initial_bins=32, max_bins=64, relative_gap=1e-12,
            negligible_loss=0.0, max_iterations=48, block_iterations=16,
            use_fft=False,
        )
        queues = _queues([0.1, 0.2, 0.4])
        batched = batch_loss_rates(queues, config=starved)
        solo = [queue.loss_rate(starved) for queue in queues]
        _assert_identical(batched, solo)
        assert not any(result.converged for result in batched)
        assert all(result.iterations == 48 for result in batched)

    def test_mixed_direct_and_spectral_levels_match_solo(self):
        # Under the default threshold members start at 128 bins (direct)
        # and refine to 256+ (spectral) at different blocks, so one round
        # steps a direct group and a spectral group side by side.
        config = SolverConfig(relative_gap=0.05, max_bins=1024, max_iterations=20_000)
        queues = _queues([0.05, 0.3, 1.0, 2.0], utilization=0.9)
        batched = batch_loss_rates(queues, config=config)
        solo = [queue.loss_rate(config) for queue in queues]
        _assert_identical(batched, solo)
        steps_at_128 = [dict(result.stats.steps_per_level)[128] for result in solo]
        left_128 = [
            steps for steps, result in zip(steps_at_128, solo) if result.bins > 128
        ]
        # Some member left 128 bins while another was still stepping there.
        assert left_128 and min(left_128) < max(steps_at_128)


class TestBatchSemantics:
    def test_empty_batch(self):
        assert batch_loss_rates([], config=SPECTRAL) == []

    def test_batch_of_one_matches_solo_and_runs_solo_width(self):
        (queue,) = _queues([0.3])
        (batched,) = batch_loss_rates([queue], config=SPECTRAL)
        solo = queue.loss_rate(SPECTRAL)
        assert batched == solo
        assert batched.stats is not None

    def test_stacked_members_record_their_batch_width(self):
        queues = _queues([0.1, 0.2, 0.4, 0.8])
        for config in (SPECTRAL, DIRECT):
            batched = batch_loss_rates(queues, config=config)
            for result in batched:
                assert result.stats is not None
                assert result.stats.batch_width > 1
            solo = queues[0].loss_rate(config)
            assert solo.stats is not None
            assert solo.stats.batch_width == 1

    def test_counters_match_the_solo_equivalents(self):
        # The batched path reports solo-equivalent work per member: the
        # same transform count a lone solve of that member performs.
        queues = _queues([0.1, 0.2, 0.4])
        batched = batch_loss_rates(queues, config=SPECTRAL)
        solo = [queue.loss_rate(SPECTRAL) for queue in queues]
        for from_batch, from_solo in zip(batched, solo):
            assert from_batch.stats.transforms == from_solo.stats.transforms
            assert from_batch.stats.total_steps == from_solo.stats.total_steps
            assert (
                from_batch.stats.steps_per_level == from_solo.stats.steps_per_level
            )


class TestStackedKernelReference:
    """The stacked group against the per-chain kernel, state for state."""

    @pytest.mark.parametrize(
        "path,bins,width",
        [
            ("spectral", bins, width)
            for bins in (64, 256)
            for width in ("one", "three", "past_sub_chunk")
        ]
        + [
            ("direct", bins, width)
            for bins in (32, 128)
            for width in ("one", "three", "sixteen")
        ],
    )
    def test_stacked_group_matches_per_chain_kernel(self, path, bins, width):
        count = {
            "one": 1, "three": 3, "sixteen": 16,
            "past_sub_chunk": _fft_stack_width(bins) + 2,
        }[width]
        spectral = path == "spectral"
        queues = _queues(np.linspace(0.1, 2.0, count))
        stacked = [queue._chains(bins, spectral, 0) for queue in queues]
        reference = [queue._chains(bins, spectral, 0) for queue in queues]
        group = _StackedGroup(
            [_BatchMember(index, chains) for index, chains in enumerate(stacked)]
        )
        for steps in (16, 16, 7):
            group.iterate(steps)
            for chains in reference:
                # The per-chain kernel: its own _SpectralPlan, or np.vstack
                # of two np.convolve calls on the direct path.
                chains.iterate(steps)
        for ours, theirs in zip(stacked, reference):
            assert np.array_equal(ours.lower_pmf, theirs.lower_pmf)
            assert np.array_equal(ours.upper_pmf, theirs.upper_pmf)
            assert ours.counters.transforms == theirs.counters.transforms
            if not spectral:
                assert ours.counters.transforms == 0


class TestNormalizationGuard:
    """A stack whose pmf mass leaves (0.5, 2) raises instead of renormalizing.

    One member's increments are corrupted before its group is built.  The
    NaN goes into the upper chain only, so the NaN total is never first
    in the stack's totals: a guard using Python ``min``/``max`` would let
    it through.
    """

    @pytest.mark.parametrize("spectral,bins", [(True, 64), (False, 32)])
    @pytest.mark.parametrize("width", [1, 3])
    @pytest.mark.parametrize("corruption", ["scaled_up", "scaled_down", "nan"])
    def test_corrupted_increments_raise(self, spectral, bins, width, corruption):
        queues = _queues(np.linspace(0.1, 2.0, width))
        chains = [queue._chains(bins, spectral, 0) for queue in queues]
        victim = chains[width // 2]
        if corruption == "nan":
            victim.w_upper = victim.w_upper.copy()
            victim.w_upper[bins] = np.nan
        else:
            # Totals near 3 or near 0.2 after one step.
            factor = {"scaled_up": 3.0, "scaled_down": 0.2}[corruption]
            victim.w_lower = victim.w_lower * factor
            victim.w_upper = victim.w_upper * factor
        group = _StackedGroup(
            [_BatchMember(index, pair) for index, pair in enumerate(chains)]
        )
        with pytest.raises(ArithmeticError, match="lost normalization"):
            group.iterate(1)


def _occupancy_digest(bounds) -> str:
    digest = hashlib.sha256()
    for array in (bounds.grid, bounds.lower_pmf, bounds.upper_pmf):
        digest.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    digest.update(str(bounds.iterations).encode())
    return digest.hexdigest()[:16]


class TestStationaryOccupancyPin:
    """Bit patterns of the total-variation rule, from the pre-driver loop."""

    @pytest.mark.parametrize(
        "initial_bins,relative_gap,tolerance,utilization,buffer,bins,expected",
        [
            # initial_bins=512 as in examples/delay_percentiles.py.
            (512, 0.05, 0.05, 0.8, 2.0, 512, "11bd98e6ecc72424"),
            # Starts on the direct path and refines past 256 bins.
            (32, 0.2, 0.01, 0.85, 0.5, 512, "3a1db5d5230246d3"),
        ],
    )
    def test_digest_is_unchanged(
        self, initial_bins, relative_gap, tolerance, utilization, buffer, bins, expected
    ):
        queue = FluidQueue.from_normalized(
            source=_source(), utilization=utilization, normalized_buffer=buffer
        )
        config = SolverConfig(initial_bins=initial_bins, relative_gap=relative_gap)
        bounds = queue.stationary_occupancy(config, distribution_tolerance=tolerance)
        assert bounds.grid.size - 1 == bins
        assert _occupancy_digest(bounds) == expected


class TestStackWidthPolicy:
    def test_width_shrinks_as_bins_grow(self):
        assert _fft_stack_width(64) >= _fft_stack_width(256)
        assert _fft_stack_width(256) >= _fft_stack_width(1024)

    def test_width_never_drops_below_minimum(self):
        assert _fft_stack_width(1 << 20) == 4

    @pytest.mark.parametrize("bins", [64, 256, 1024])
    def test_width_is_positive(self, bins):
        assert _fft_stack_width(bins) >= 1
