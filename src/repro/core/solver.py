"""Bounded convolution solver for the finite-buffer fluid queue (Section II).

The queue occupancy at arrival epochs obeys the clipped random walk
``Q(n+1) = max(0, min(B, Q(n) + W(n)))`` (Eq. 9) with i.i.d. workload
increments ``W``.  The paper evolves two *discretized* occupancy
distributions:

* ``Q_L``: increments quantized **down** (floor), chain started **empty** —
  a stochastic lower bound, increasing in both the iteration count n and
  the bin count M;
* ``Q_H``: increments quantized **up** (ceil), chain started **full** — a
  stochastic upper bound, decreasing in n and M (Proposition II.1).

Each step is a discrete convolution (Eq. 19) followed by reflection of the
sub-zero mass into bin 0 and absorption of the above-B mass into bin M
(Eq. 20); FFT acceleration brings the per-step cost to O(M log M).  When
the resulting loss-rate bounds (Eqs. 23-24) stop tightening before the 20 %
relative-gap criterion is met, the number of bins is doubled and — per the
paper's footnote 3 — the current distributions are carried over to the
finer grid (old grid points are exactly representable, so bound semantics
survive refinement).

Stopping rules follow Section III verbatim: report the average of the
bounds; stop when the gap is below 20 % of the average, or report zero
loss when the upper bound falls below 1e-10.

Every solve runs through one block loop (:func:`_drive`): a solo
:meth:`FluidQueue.loss_rate` is a batch of one of
:func:`batch_loss_rates`, and :meth:`FluidQueue.stationary_occupancy` is
the same loop under a total-variation stopping rule.  The loop advances
its members in lockstep blocks; after each block a per-member rule
decides whether the member retires, keeps stepping, or refines its grid.

The stepping kernel is *spectral*: per refinement level the static
increment vectors are transformed once, and each step advances every
chain pair at that level with one stacked ``(K, 2, L)`` rfft/irfft pair
(:class:`_StackedSpectralPlan`).  Boundary reflection/absorption stays in
the spatial domain each step, so Eq. 20 semantics — and with them the
Proposition II.1 bound ordering — are untouched; only float round-off
differs from the direct path (see ``SOLVER_VERSION``).  The per-chain
kernel (:meth:`_BoundedChains.iterate` with :class:`_SpectralPlan`)
remains for the Fig. 2 snapshots and as the reference the stacked
kernel is tested against.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from typing import Any, TypeVar

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft

from repro.core.loss import expected_overflow, zero_buffer_loss_rate
from repro.core.results import LossRateResult, OccupancyBounds, SolverStats
from repro.core.source import CutoffFluidSource
from repro.core.validation import check_nonnegative, check_positive
from repro.core.workload import DiscretizedWorkload, WorkloadLaw

__all__ = [
    "SOLVER_VERSION",
    "DEFAULT_FFT_THRESHOLD_BINS",
    "SolverConfig",
    "FluidQueue",
    "solve_loss_rate",
    "batch_loss_rates",
]

SOLVER_VERSION = 3
"""Revision of the numeric stepping kernel.

Participates in every solve-cache fingerprint (see
:mod:`repro.core.fingerprint`), so persisted results from an older kernel
self-invalidate instead of aliasing.  Bump whenever a kernel change can
alter the float bit patterns of solver output.  History: 1 = per-chain
``scipy.signal.fftconvolve`` stepping; 2 = batched spectral kernel with
cached increment transforms; 3 = multi-task stacked spectral kernel
(:func:`batch_loss_rates`) — same-shape solves advance through one
``(tasks, 2, L)`` rfft/irfft pair per step.  The stacked kernel is
regression-tested bit-identical to the per-chain kernel, but the stepping
implementation changed, so the version bump lets persisted entries
re-prove themselves instead of being trusted across the refactor.
"""

DEFAULT_FFT_THRESHOLD_BINS = 256
"""Measured crossover below which direct ``np.convolve`` beats the
spectral kernel (see ``benchmarks/results/ablation_fft_threshold.txt``).
The old per-call ``fftconvolve`` path paid plan/setup cost every step and
would have needed ~512 bins to win; caching the increment spectrum moves
the break-even down to ~256."""

FFT_STACK_BUDGET_BINS = 4096
"""Working-set budget for the stacked multi-task FFT (v3 kernel).

The stacked kernel advances up to ``FFT_STACK_BUDGET_BINS // bins`` tasks
(floor 4) in one rfft/irfft pair.  Measured on this class of sizes the
per-task win peaks near width 16 at 256 bins and shrinks as bins grow
(wide stacks at 2048+ bins overflow cache and lose to bandwidth), so the
cap scales inversely with the transform length.  The cap is a pure
performance knob: sub-chunking a stack cannot change any row's bits
(see ``tests/core/test_batched_kernel.py``)."""


def _fft_stack_width(bins: int) -> int:
    """Largest stack advanced through one FFT call at this bin count."""
    return max(4, FFT_STACK_BUDGET_BINS // max(1, bins))


@dataclass(frozen=True)
class SolverConfig:
    """Tunable knobs of the bounded solver.

    Attributes
    ----------
    initial_bins:
        Starting quantization level M (grid step ``d = B / M``).
    max_bins:
        Refinement ceiling; the solver gives up (``converged=False``) when
        the gap criterion is unmet at this resolution.
    relative_gap:
        Stop when ``upper - lower <= relative_gap * (upper + lower)/2``;
        the paper uses 0.2.
    negligible_loss:
        Report zero loss when the upper bound falls below this; the paper
        uses 1e-10.
    block_iterations:
        Number of convolution steps between convergence checks.
    max_iterations:
        Hard safety cap on total steps across all refinement levels.
    stall_relative_change:
        Both bounds moving by less than this relative amount over a block
        (while the gap criterion is unmet) triggers bin doubling.
    use_fft:
        Use FFT convolution (True, paper's recommendation) or direct
        convolution (False; exposed for the solver ablation benchmark).
    fft_threshold_bins:
        Bin count below which the solver uses direct convolution even
        when ``use_fft`` is True (FFT overhead loses at small sizes).
        Defaults to the measured crossover
        (:data:`DEFAULT_FFT_THRESHOLD_BINS`); 0 forces the spectral
        kernel at every size.
    """

    initial_bins: int = 128
    max_bins: int = 1 << 15
    relative_gap: float = 0.2
    negligible_loss: float = 1e-10
    block_iterations: int = 32
    max_iterations: int = 200_000
    stall_relative_change: float = 1e-4
    use_fft: bool = True
    fft_threshold_bins: int = DEFAULT_FFT_THRESHOLD_BINS

    def __post_init__(self) -> None:
        if self.initial_bins < 2:
            raise ValueError("initial_bins must be >= 2")
        if self.max_bins < self.initial_bins:
            raise ValueError("max_bins must be >= initial_bins")
        check_positive("relative_gap", self.relative_gap)
        check_nonnegative("negligible_loss", self.negligible_loss)
        if self.block_iterations < 1:
            raise ValueError("block_iterations must be >= 1")
        if self.max_iterations < self.block_iterations:
            raise ValueError("max_iterations must be >= block_iterations")
        check_positive("stall_relative_change", self.stall_relative_change)
        if self.fft_threshold_bins < 0:
            raise ValueError(
                f"fft_threshold_bins must be >= 0, got {self.fft_threshold_bins}"
            )


class _KernelCounters:
    """Mutable per-solve accumulators, shared across refinement levels."""

    __slots__ = ("transforms", "fft_seconds", "boundary_seconds", "levels", "batch_width")

    def __init__(self) -> None:
        self.transforms = 0
        self.fft_seconds = 0.0
        self.boundary_seconds = 0.0
        self.levels: list[list[int]] = []  # [bins, steps] in level visit order
        self.batch_width = 1  # widest stack this solve ever stepped in

    def count_steps(self, bins: int, steps: int) -> None:
        if not self.levels or self.levels[-1][0] != bins:
            self.levels.append([bins, 0])
        self.levels[-1][1] += steps

    def stats(self) -> SolverStats:
        return SolverStats(
            transforms=self.transforms,
            fft_seconds=self.fft_seconds,
            boundary_seconds=self.boundary_seconds,
            steps_per_level=tuple((bins, steps) for bins, steps in self.levels),
            batch_width=self.batch_width,
        )


class _SpectralPlan:
    """Cached spectral geometry for one refinement level.

    Pads the full linear-convolution length ``3M + 1`` to the next fast
    real-FFT size once, transforms the two static increment vectors once,
    and keeps the zero-padded input buffer alive across steps — so each
    step costs exactly one batched forward and one batched inverse real
    transform, for both chains together.
    """

    def __init__(self, increments: np.ndarray, bins: int) -> None:
        # increments is the (2, 2*bins+1) stack [w_lower, w_upper].
        self.conv_length = 3 * bins + 1
        self.length = int(next_fast_len(self.conv_length, real=True))
        self.kernel_spectrum = rfft(increments, n=self.length, axis=1)
        self.transforms = 2  # the kernel transforms above
        self._width = bins + 1
        # Columns beyond _width stay zero forever: only the pmf region is
        # rewritten each step, so no per-step re-zeroing is needed.
        self._padded = np.zeros((2, self.length))

    def convolve(self, state: np.ndarray) -> np.ndarray:
        """Linear convolution of both chains in one rfft/irfft pair."""
        self._padded[:, : self._width] = state
        spectrum = rfft(self._padded, axis=1)
        spectrum *= self.kernel_spectrum
        self.transforms += 2
        return irfft(spectrum, n=self.length, axis=1)


class _BoundedChains:
    """The pair of discretized occupancy chains at one quantization level.

    Both chains live as the rows of one ``(2, M+1)`` state array (row 0 =
    lower chain, row 1 = upper chain), so a step is a single batched
    spectral convolution followed by vectorized boundary folding.
    """

    def __init__(
        self,
        workload: WorkloadLaw,
        buffer_size: float,
        bins: int,
        use_fft: bool,
        fft_threshold_bins: int = DEFAULT_FFT_THRESHOLD_BINS,
        lower_pmf: np.ndarray | None = None,
        upper_pmf: np.ndarray | None = None,
        discretized: DiscretizedWorkload | None = None,
        counters: _KernelCounters | None = None,
    ) -> None:
        self.workload = workload
        self.buffer_size = buffer_size
        self.bins = bins
        self.use_fft = use_fft
        self.fft_threshold_bins = fft_threshold_bins
        self.step = buffer_size / bins
        self.grid = np.arange(bins + 1, dtype=np.float64) * self.step
        if discretized is None:
            discretized = DiscretizedWorkload.build(workload, self.step, bins)
        elif discretized.bins != bins:
            raise ValueError(
                f"discretized workload has {discretized.bins} bins, chains need {bins}"
            )
        self.discretized = discretized
        self.w_lower = discretized.w_lower
        self.w_upper = discretized.w_upper
        source = workload.source
        self.overflow = np.asarray(
            expected_overflow(source, workload.service_rate, buffer_size, self.grid)
        )
        self.work_per_interval = source.mean_rate * source.mean_interval
        self._state = np.zeros((2, bins + 1))
        if lower_pmf is None:
            self._state[0, 0] = 1.0  # start empty (Eq. 17)
        else:
            self._state[0] = lower_pmf
        if upper_pmf is None:
            self._state[1, -1] = 1.0  # start full (Eq. 17)
        else:
            self._state[1] = upper_pmf
        self._scratch = np.empty_like(self._state)
        self._plan: _SpectralPlan | None = None  # built on first spectral step
        self.counters = counters if counters is not None else _KernelCounters()

    @property
    def lower_pmf(self) -> np.ndarray:
        return self._state[0]

    @property
    def upper_pmf(self) -> np.ndarray:
        return self._state[1]

    @property
    def spectral(self) -> bool:
        """True when this level steps through the FFT kernel."""
        return self.use_fft and self.bins >= self.fft_threshold_bins

    def iterate(self, steps: int) -> None:
        """Advance both chains ``steps`` iterations of Eqs. 19-20."""
        if steps <= 0:
            return
        m = self.bins
        n = 3 * m + 1
        counters = self.counters
        spectral = self.spectral
        if spectral and self._plan is None:
            before = time.perf_counter()
            self._plan = _SpectralPlan(np.vstack([self.w_lower, self.w_upper]), m)
            counters.fft_seconds += time.perf_counter() - before
            counters.transforms += self._plan.transforms
        for _ in range(steps):
            start = time.perf_counter()
            if spectral:
                u = self._plan.convolve(self._state)
                counters.transforms += 2
            else:
                u = np.vstack(
                    [
                        np.convolve(self._state[0], self.w_lower),
                        np.convolve(self._state[1], self.w_upper),
                    ]
                )
            mid = time.perf_counter()
            # Index k of u carries the occupancy value (k - m) * step;
            # columns beyond n hold only spectral round-off and are dropped.
            new = self._scratch
            new[:, 0] = u[:, : m + 1].sum(axis=1)  # reflect sub-zero mass
            new[:, 1:m] = u[:, m + 1 : 2 * m]
            new[:, m] = u[:, 2 * m : n].sum(axis=1)  # absorb above-B mass
            # FFT round-off can leave tiny negatives; clip and renormalize.
            np.clip(new, 0.0, None, out=new)
            totals = new.sum(axis=1)
            if not ((0.5 < totals) & (totals < 2.0)).all():  # pragma: no cover
                raise ArithmeticError(
                    "occupancy pmf lost normalization; increments invalid?"
                )
            new /= totals[:, np.newaxis]
            self._state, self._scratch = new, self._state
            end = time.perf_counter()
            counters.fft_seconds += mid - start
            counters.boundary_seconds += end - mid
        counters.count_steps(m, steps)

    def loss_bounds(self) -> tuple[float, float]:
        """Current loss-rate bounds (Eqs. 23-24)."""
        values = self._state @ self.overflow
        lower = float(values[0]) / self.work_per_interval
        upper = float(values[1]) / self.work_per_interval
        return lower, upper

    def refined(self) -> "_BoundedChains":
        """Double the bin count, carrying the current pmfs over (footnote 3).

        Old grid point ``j * d`` equals new grid point ``2j * d/2``, so the
        carried-over chains remain valid bounds on the finer grid.  The
        workload discretization is refined in place of being recomputed:
        only the new grid midpoints cost cdf evaluations.
        """
        lower = np.zeros(2 * self.bins + 1)
        upper = np.zeros(2 * self.bins + 1)
        lower[::2] = self._state[0]
        upper[::2] = self._state[1]
        return _BoundedChains(
            workload=self.workload,
            buffer_size=self.buffer_size,
            bins=2 * self.bins,
            use_fft=self.use_fft,
            fft_threshold_bins=self.fft_threshold_bins,
            lower_pmf=lower,
            upper_pmf=upper,
            discretized=self.discretized.refined(),
            counters=self.counters,
        )

    def snapshot(self, iterations: int) -> OccupancyBounds:
        """Freeze the current bound distributions (Fig. 2 data)."""
        return OccupancyBounds(
            grid=self.grid.copy(),
            lower_pmf=self._state[0].copy(),
            upper_pmf=self._state[1].copy(),
            iterations=iterations,
        )


@dataclass(frozen=True)
class FluidQueue:
    """Finite-buffer constant-rate fluid queue fed by a cutoff fluid source.

    Parameters
    ----------
    source:
        The modulated fluid input.
    service_rate:
        Constant service rate ``c`` (must differ from being dominated:
        loss is exactly zero when the peak rate does not exceed ``c``).
    buffer_size:
        Buffer capacity ``B`` in work units; ``B = 0`` selects the exact
        bufferless formula.

    Examples
    --------
    >>> import math
    >>> from repro.core.marginal import DiscreteMarginal
    >>> from repro.core.truncated_pareto import TruncatedPareto
    >>> from repro.core.source import CutoffFluidSource
    >>> source = CutoffFluidSource(
    ...     marginal=DiscreteMarginal(rates=[0.0, 2.0], probs=[0.5, 0.5]),
    ...     interarrival=TruncatedPareto(theta=0.1, alpha=1.4, cutoff=5.0),
    ... )
    >>> queue = FluidQueue(source=source, service_rate=1.25, buffer_size=1.0)
    >>> result = queue.loss_rate()
    >>> result.lower <= result.upper
    True
    """

    source: CutoffFluidSource
    service_rate: float
    buffer_size: float

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "service_rate", check_positive("service_rate", self.service_rate)
        )
        object.__setattr__(
            self, "buffer_size", check_nonnegative("buffer_size", self.buffer_size)
        )

    @property
    def utilization(self) -> float:
        """Offered load ``mean_rate / c``."""
        return self.source.mean_rate / self.service_rate

    @property
    def normalized_buffer(self) -> float:
        """Buffer size expressed in seconds of service (``B / c``)."""
        return self.buffer_size / self.service_rate

    @classmethod
    def from_normalized(
        cls, source: CutoffFluidSource, utilization: float, normalized_buffer: float
    ) -> "FluidQueue":
        """Build a queue from the paper's sweep coordinates.

        ``utilization`` fixes the service rate as ``mean_rate/utilization``;
        ``normalized_buffer`` (seconds) fixes ``B = normalized_buffer * c``.
        """
        utilization = check_positive("utilization", utilization)
        normalized_buffer = check_nonnegative("normalized_buffer", normalized_buffer)
        service_rate = source.mean_rate / utilization
        return cls(
            source=source,
            service_rate=service_rate,
            buffer_size=normalized_buffer * service_rate,
        )

    # ------------------------------------------------------------------ #
    # the solver proper
    # ------------------------------------------------------------------ #

    def loss_rate(self, config: SolverConfig | None = None) -> LossRateResult:
        """Compute bounded loss-rate estimates per Section II/III.

        A solo solve is a batch of one of :func:`batch_loss_rates`.
        Returns a :class:`~repro.core.results.LossRateResult`; consult
        ``result.converged`` before trusting ``result.estimate`` to meet the
        gap criterion.
        """
        return batch_loss_rates([self], config)[0]

    def _chains(self, bins: int, use_fft: bool, fft_threshold_bins: int) -> _BoundedChains:
        """Fresh bound chains for this queue (lower empty, upper full)."""
        return _BoundedChains(
            workload=WorkloadLaw(source=self.source, service_rate=self.service_rate),
            buffer_size=self.buffer_size,
            bins=bins,
            use_fft=use_fft,
            fft_threshold_bins=fft_threshold_bins,
        )

    def occupancy_bounds(
        self,
        checkpoints: Iterable[int],
        bins: int = 100,
        use_fft: bool = True,
        fft_threshold_bins: int = DEFAULT_FFT_THRESHOLD_BINS,
    ) -> list[OccupancyBounds]:
        """Bound distributions after given iteration counts (Fig. 2).

        ``checkpoints`` is an increasing sequence of iteration counts, e.g.
        ``(5, 10, 30)`` as in the paper; the bin count defaults to the
        paper's M = 100.
        """
        checkpoints = sorted(set(int(n) for n in checkpoints))
        if not checkpoints or checkpoints[0] < 0:
            raise ValueError("checkpoints must be non-negative iteration counts")
        if self.buffer_size <= 0.0:
            raise ValueError("occupancy bounds need a positive buffer")
        chains = self._chains(bins, use_fft, fft_threshold_bins)
        snapshots: list[OccupancyBounds] = []
        done = 0
        for target in checkpoints:
            chains.iterate(target - done)
            done = target
            snapshots.append(chains.snapshot(done))
        return snapshots

    def stationary_occupancy(
        self,
        config: SolverConfig | None = None,
        distribution_tolerance: float = 0.05,
    ) -> OccupancyBounds:
        """Stationary occupancy-bound distributions at arrival epochs.

        Runs the bounded recursion until the two chains agree in total
        variation within ``distribution_tolerance`` (refining the grid when
        progress stalls), then returns the pair of occupancy pmfs.  Useful
        for occupancy/delay percentiles and the full/empty (reset)
        probabilities behind the correlation-horizon argument.

        Note the criterion differs from :meth:`loss_rate`: loss bounds can
        agree (e.g. both negligible) long before the distributions
        themselves have converged, so this method tracks the distributions
        directly.  It runs the same block loop as :meth:`loss_rate`, under
        the total-variation rule instead of the loss-gap rule.
        """
        config = config or SolverConfig()
        check_positive("distribution_tolerance", distribution_tolerance)
        if self.buffer_size <= 0.0 or self.source.marginal.peak <= self.service_rate:
            raise ValueError(
                "stationary occupancy needs a positive buffer and a source "
                "that can exceed the service rate"
            )

        def finish(member: _BatchMember, iterations: int) -> OccupancyBounds | None:
            chains = member.chains
            distance = 0.5 * float(np.abs(chains.lower_pmf - chains.upper_pmf).sum())
            if distance <= distribution_tolerance:
                return chains.snapshot(iterations)
            previous = member.previous
            stalled = previous is not None and previous - distance < (
                config.stall_relative_change * max(previous, 1e-12)
            )
            if _refine_or_give_up(member, stalled, distance, config):
                return chains.snapshot(iterations)
            return None

        (bounds,) = _drive(
            [self._chains(config.initial_bins, config.use_fft, config.fft_threshold_bins)],
            config,
            finish,
            lambda member, iterations: member.chains.snapshot(iterations),
        )
        return bounds

    def _trivial_result(self, config: SolverConfig) -> LossRateResult | None:
        """Handle the analytically exact corner cases."""
        if self.source.marginal.peak <= self.service_rate:
            # The queue can never overflow (it never even fills).
            return LossRateResult(
                lower=0.0, upper=0.0, iterations=0, bins=0, converged=True, negligible=True
            )
        if self.buffer_size == 0.0:
            loss = zero_buffer_loss_rate(self.source, self.service_rate)
            return LossRateResult(
                lower=loss, upper=loss, iterations=0, bins=0,
                converged=True, negligible=loss <= config.negligible_loss,
            )
        return None


def solve_loss_rate(
    source: CutoffFluidSource,
    utilization: float,
    normalized_buffer: float,
    config: SolverConfig | None = None,
) -> LossRateResult:
    """One-call convenience wrapper used by the experiment sweeps.

    Builds the queue from the paper's sweep coordinates (utilization and
    normalized buffer in seconds) and runs the bounded solver.
    """
    queue = FluidQueue.from_normalized(
        source=source, utilization=utilization, normalized_buffer=normalized_buffer
    )
    return queue.loss_rate(config=config)




# ---------------------------------------------------------------------- #
# the block loop and its stacked kernel (SOLVER_VERSION = 3)
# ---------------------------------------------------------------------- #


class _StackedSpectralPlan:
    """Spectral geometry shared by a stack of same-bin-count chains.

    The per-chain :class:`_SpectralPlan` transforms one ``(2, L)`` state
    per step; this plan stacks K chains into ``(K, 2, L)`` and advances
    them all with one forward/inverse pair per sub-chunk.  Real-FFT rows
    transform independently, so every row of the stacked result is
    bit-identical to the corresponding solo transform — stacking (and the
    :func:`_fft_stack_width` sub-chunking) is purely a throughput lever.
    """

    def __init__(self, chains: Sequence["_BoundedChains"], bins: int) -> None:
        self.bins = bins
        self.conv_length = 3 * bins + 1
        self.length = int(next_fast_len(self.conv_length, real=True))
        increments = np.stack(
            [np.vstack([chain.w_lower, chain.w_upper]) for chain in chains]
        )
        self.kernel_spectrum = rfft(increments, n=self.length, axis=-1)
        self.transforms = 2  # per chain: its two kernel transforms above
        self._width = bins + 1
        self._padded = np.zeros((len(chains), 2, self.length))
        self._stack_width = _fft_stack_width(bins)

    def convolve(self, states: np.ndarray) -> np.ndarray:
        """Linear convolution of every chain in the stack, sub-chunked."""
        self._padded[..., : self._width] = states
        if len(self._padded) <= self._stack_width:
            # One sub-chunk (always so for a solo solve): no output copy.
            spectrum = rfft(self._padded, axis=-1)
            spectrum *= self.kernel_spectrum
            return irfft(spectrum, n=self.length, axis=-1)
        out = np.empty_like(self._padded)
        for start in range(0, self._padded.shape[0], self._stack_width):
            block = slice(start, start + self._stack_width)
            spectrum = rfft(self._padded[block], axis=-1)
            spectrum *= self.kernel_spectrum[block]
            out[block] = irfft(spectrum, n=self.length, axis=-1)
        return out


class _BatchMember:
    """One solve's mutable state inside :func:`_drive`."""

    __slots__ = ("index", "chains", "previous", "counted_levels")

    def __init__(self, index: int, chains: "_BoundedChains") -> None:
        self.index = index
        self.chains = chains
        # The stopping rule's progress reading after the previous block
        # (loss bounds or a distance); None after a start or a refinement.
        self.previous: Any = None
        # Bin counts whose stacked kernel transforms were already charged
        # to this member (the per-chain kernel charges them once per level).
        self.counted_levels: set[int] = set()


class _StackedGroup:
    """Members currently sharing one stacked spectral plan.

    Built per refinement level; rebuilt whenever membership at that level
    changes (a member retired, stalled out, or refined into the level).
    States are copied out to each member's chains after every block, so
    the stopping rule and refinement read each member's own chains.
    """

    def __init__(self, members: Sequence[_BatchMember]) -> None:
        self.members = list(members)
        self.bins = members[0].chains.bins
        before = time.perf_counter()
        self.plan = _StackedSpectralPlan([m.chains for m in members], self.bins)
        build_share = (time.perf_counter() - before) / len(self.members)
        self.states = np.stack([m.chains._state for m in members])
        self._scratch = np.empty_like(self.states)
        for member in members:
            counters = member.chains.counters
            counters.fft_seconds += build_share
            if self.bins not in member.counted_levels:
                member.counted_levels.add(self.bins)
                counters.transforms += self.plan.transforms

    def holds(self, members: Sequence[_BatchMember]) -> bool:
        """True when this group still steps exactly these members' chains."""
        return len(members) == len(self.members) and all(
            ours is theirs and ours.chains.bins == self.bins
            for ours, theirs in zip(self.members, members)
        )

    def iterate(self, steps: int) -> None:
        """Advance every member ``steps`` iterations of Eqs. 19-20."""
        if steps <= 0:
            return
        m = self.bins
        n = 3 * m + 1
        width = len(self.members)
        states, scratch = self.states, self._scratch
        fft_seconds = 0.0
        boundary_seconds = 0.0
        for _ in range(steps):
            start = time.perf_counter()
            u = self.plan.convolve(states)
            mid = time.perf_counter()
            new = scratch
            new[..., 0] = u[..., : m + 1].sum(axis=-1)  # reflect sub-zero mass
            new[..., 1:m] = u[..., m + 1 : 2 * m]
            new[..., m] = u[..., 2 * m : n].sum(axis=-1)  # absorb above-B mass
            np.clip(new, 0.0, None, out=new)
            totals = new.sum(axis=-1)
            if not ((0.5 < totals) & (totals < 2.0)).all():  # pragma: no cover
                raise ArithmeticError(
                    "occupancy pmf lost normalization; increments invalid?"
                )
            new /= totals[..., np.newaxis]
            states, scratch = new, states
            end = time.perf_counter()
            fft_seconds += mid - start
            boundary_seconds += end - mid
        self.states, self._scratch = states, scratch
        fft_share = fft_seconds / width
        boundary_share = boundary_seconds / width
        for position, member in enumerate(self.members):
            counters = member.chains.counters
            counters.transforms += 2 * steps
            counters.fft_seconds += fft_share
            counters.boundary_seconds += boundary_share
            counters.count_steps(m, steps)
            counters.batch_width = max(counters.batch_width, width)
            member.chains._state[...] = states[position]


_Result = TypeVar("_Result")


def _drive(
    chains: Sequence[_BoundedChains],
    config: SolverConfig,
    finish: Callable[[_BatchMember, int], _Result | None],
    exhausted: Callable[[_BatchMember, int], _Result],
) -> list[_Result]:
    """The one block loop behind every bounded solve; results in input order.

    Each round every active member advances the same number of steps:
    members at one spectral refinement level through one stacked
    ``(K, 2, L)`` rfft/irfft pair (:class:`_StackedGroup`), members on
    the direct-convolution path through their own chains.  After the
    block, ``finish(member, iterations)`` applies the stopping rule to
    each member: a value retires the member with that result, None keeps
    it stepping (perhaps on a grid the rule refined).  Members still
    active when ``config.max_iterations`` runs out retire with
    ``exhausted(member, iterations)``.  Stopping and refinement are
    strictly per member, so no result depends on what shares its stack.
    """
    members = [_BatchMember(index, pair) for index, pair in enumerate(chains)]
    results: list[Any] = [None] * len(members)
    iterations = 0
    groups: dict[int, _StackedGroup] = {}
    while members and iterations < config.max_iterations:
        steps = min(config.block_iterations, config.max_iterations - iterations)
        by_level: dict[int, list[_BatchMember]] = {}
        for member in members:
            if member.chains.spectral:
                by_level.setdefault(member.chains.bins, []).append(member)
            else:
                member.chains.iterate(steps)
        for bins, level_members in by_level.items():
            group = groups.get(bins)
            if group is None or not group.holds(level_members):
                group = _StackedGroup(level_members)
                groups[bins] = group
            group.iterate(steps)
        groups = {bins: group for bins, group in groups.items() if bins in by_level}
        iterations += steps
        survivors: list[_BatchMember] = []
        for member in members:
            finished = finish(member, iterations)
            if finished is None:
                survivors.append(member)
            else:
                results[member.index] = finished
        members = survivors
    for member in members:
        results[member.index] = exhausted(member, iterations)
    return results


def _refine_or_give_up(
    member: _BatchMember, stalled: bool, progress: Any, config: SolverConfig
) -> bool:
    """Stall handling shared by both stopping rules.

    A member still moving records ``progress`` for the next block's stall
    test.  A stalled member doubles its bin count (footnote 3) and forgets
    its progress reading — or, when doubling would pass
    ``config.max_bins``, gives up: the only case that returns True.
    """
    if not stalled:
        member.previous = progress
        return False
    if member.chains.bins * 2 > config.max_bins:
        return True
    member.chains = member.chains.refined()
    member.previous = None
    return False


def batch_loss_rates(
    queues: Sequence[FluidQueue], config: SolverConfig | None = None
) -> list[LossRateResult]:
    """Solve many queues at once through the stacked spectral kernel.

    Every loss-rate solve runs here; :meth:`FluidQueue.loss_rate` is a
    batch of one.  All queues share one ``config``, so their block
    schedules run in lockstep through :func:`_drive` under Section III's
    loss-gap rule: negligible-loss exit, relative-gap exit, stall-
    triggered refinement, or give-up at ``max_bins``.  Stacked real FFTs
    transform rows independently, so a queue's
    :class:`~repro.core.results.LossRateResult` is bit-identical whatever
    else shares its batch, and in whatever order — batching changes
    throughput, never output.

    Results are returned in input order.
    """
    config = config or SolverConfig()
    queue_list = list(queues)
    results = [queue._trivial_result(config) for queue in queue_list]
    pending = [index for index, result in enumerate(results) if result is None]

    def retire(
        member: _BatchMember, iterations: int, bounds: tuple[float, float], converged: bool
    ) -> LossRateResult:
        lower, upper = bounds
        return LossRateResult(
            lower=lower, upper=upper, iterations=iterations,
            bins=member.chains.bins, converged=converged,
            negligible=upper <= config.negligible_loss,
            stats=member.chains.counters.stats(),
        )

    def finish(member: _BatchMember, iterations: int) -> LossRateResult | None:
        lower, upper = bounds = member.chains.loss_bounds()
        if upper <= config.negligible_loss or (
            upper - lower <= config.relative_gap * (0.5 * (lower + upper))
        ):
            return retire(member, iterations, bounds, converged=True)
        previous = member.previous
        stalled = previous is not None and (
            max(abs(lower - previous[0]), abs(upper - previous[1]))
            / max(upper, config.negligible_loss)
            < config.stall_relative_change
        )
        if _refine_or_give_up(member, stalled, bounds, config):
            return retire(member, iterations, bounds, converged=False)
        return None

    def exhausted(member: _BatchMember, iterations: int) -> LossRateResult:
        return retire(member, iterations, member.chains.loss_bounds(), converged=False)

    solved = _drive(
        [
            queue_list[index]._chains(
                config.initial_bins, config.use_fft, config.fft_threshold_bins
            )
            for index in pending
        ],
        config,
        finish,
        exhausted,
    )
    for index, result in zip(pending, solved):
        results[index] = result
    return [result for result in results if result is not None]
