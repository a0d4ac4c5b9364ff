"""Check plumbing shared by the oracles and the metamorphic relations.

Every verification property is a :class:`VerifyCheck`: it declares a
``name``/``kind`` and its tolerances as fixed class attributes, decides
whether it :meth:`~VerifyCheck.applies` to a scenario, and returns a
:class:`CheckOutcome`; :func:`judge` is the one path from a check and a
scenario to that outcome.  Checks never call the solver or the
simulators directly — they go through the :class:`CheckContext` hooks,
which buys two things at once:

* **cached solve reuse** — the runner routes ``ctx.solve`` through a
  :class:`~repro.exec.engine.SweepEngine`, so the base solve a scenario
  needs is computed once even though four different checks ask for it,
  and a re-run of the same seed replays entirely from the persistent
  solve cache;
* **fault injection** — the unit tests replace a hook with a lying
  implementation to prove each check actually fires on a violation
  (no always-green oracles).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Callable, Protocol

import numpy as np

from repro.core.results import LossRateResult
from repro.core.source import CutoffFluidSource
from repro.exec.task import SolveTask, solve_task_batch
from repro.verify.scenario import Scenario

__all__ = [
    "CheckContext",
    "CheckOutcome",
    "VerifyCheck",
    "judge",
]


@dataclass(frozen=True)
class CheckOutcome:
    """Result of running one check against one scenario.

    ``skipped`` means the check ran and declined to judge (say, a loss
    too small to resolve); ``applicable`` is False when the check does
    not apply to the scenario and never ran.  ``passed`` is meaningful
    only for an applicable outcome that was not skipped; ``details``
    carries the numeric evidence (bounds, estimates, tolerances) that a
    failure report persists alongside the scenario.
    """

    check: str
    passed: bool
    skipped: bool = False
    message: str = ""
    details: dict = field(default_factory=dict)
    applicable: bool = True

    @classmethod
    def ok(cls, check: str, **details: float) -> "CheckOutcome":
        return cls(check=check, passed=True, details=dict(details))

    @classmethod
    def fail(cls, check: str, message: str, **details: float) -> "CheckOutcome":
        return cls(check=check, passed=False, message=message, details=dict(details))

    @classmethod
    def skip(cls, check: str, message: str = "") -> "CheckOutcome":
        return cls(check=check, passed=True, skipped=True, message=message)

    @classmethod
    def not_applicable(cls, check: str) -> "CheckOutcome":
        return cls(check=check, passed=True, message="not applicable", applicable=False)

    @property
    def failed(self) -> bool:
        """True when the check ran, judged, and found a violation."""
        return not self.skipped and not self.passed


class CheckContext:
    """Execution hooks a check runs against.

    Parameters
    ----------
    solve:
        ``SolveTask -> LossRateResult``; the runner passes the sweep
        engine's cached solve, the default runs the task inline.
    rate_trace:
        ``(source, duration, bin_width, rng) -> np.ndarray``; sampling
        hook for the trace-driven relations.
    solve_batch:
        ``Sequence[SolveTask] -> list[LossRateResult]``; the stacked
        multi-task kernel path.  The default runs
        :func:`~repro.exec.task.solve_task_batch` inline; the batched-
        vs-solo oracle's injected-bug tests replace it with a lying
        implementation.
    simulate_network:
        ``(topology, duration, warmup, seed) -> NetSimResult``; the
        network-simulator hook the netsim check runs its shared path
        through.  The default runs :func:`repro.netsim.simulate` inline.
    family_trace:
        ``(scenario, duration, bin_width, rng) -> np.ndarray``; samples a
        binned rate trace from the scenario's *generating family* at
        matched moments, for the Hurst-recovery relation and the
        matched-models oracle.  The default dispatches
        ``family == "renewal"`` through the ``rate_trace`` hook (so
        renewal-family injections keep working) and every other family
        through :func:`~repro.verify.matched.sample_family_trace`; the
        matched-models injected-bug tests replace it with lying samplers
        (wrong H, wrong marginal, swapped family).
    """

    def __init__(
        self,
        solve: Callable[[SolveTask], LossRateResult] | None = None,
        rate_trace: Callable[..., np.ndarray] | None = None,
        solve_batch: Callable[[Sequence[SolveTask]], list[LossRateResult]] | None = None,
        simulate_network: Callable[..., object] | None = None,
        family_trace: Callable[..., np.ndarray] | None = None,
    ) -> None:
        self.solve = solve if solve is not None else _inline_solve
        self.rate_trace = rate_trace if rate_trace is not None else _sample_rate_trace
        self.solve_batch = solve_batch if solve_batch is not None else _inline_solve_batch
        self.simulate_network = (
            simulate_network if simulate_network is not None else _inline_simulate
        )
        self.family_trace = (
            family_trace if family_trace is not None else self._dispatch_family_trace
        )

    def solve_scenario(self, scenario: Scenario, **overrides: object) -> LossRateResult:
        """Solve a scenario (or a variant of it) through the solve hook.

        ``overrides`` replace scenario fields (``source``, ``utilization``,
        ``normalized_buffer``, ``config``) before building the task, which
        is how metamorphic relations derive their follow-up inputs.
        """
        task = SolveTask(
            source=overrides.get("source", scenario.source),  # type: ignore[arg-type]
            utilization=float(overrides.get("utilization", scenario.utilization)),  # type: ignore[arg-type]
            normalized_buffer=float(
                overrides.get("normalized_buffer", scenario.normalized_buffer)  # type: ignore[arg-type]
            ),
            config=overrides.get("config", scenario.config),  # type: ignore[arg-type]
        )
        return self.solve(task)

    def _dispatch_family_trace(
        self,
        scenario: Scenario,
        duration: float,
        bin_width: float,
        rng: np.random.Generator,
    ) -> np.ndarray:
        if scenario.family == "renewal":
            return self.rate_trace(scenario.source, duration, bin_width, rng)
        from repro.verify.matched import sample_family_trace

        return sample_family_trace(scenario, duration, bin_width, rng)

    def rng(self, scenario: Scenario, salt: int) -> np.random.Generator:
        """Deterministic per-(scenario, purpose) random stream.

        Distinct ``salt`` values give independent streams, so e.g. the
        Monte Carlo oracle and the shuffle relation never share draws.
        """
        return np.random.default_rng(
            np.random.SeedSequence(entropy=scenario.seed, spawn_key=(int(salt),))
        )


def _inline_solve(task: SolveTask) -> LossRateResult:
    return task.run()


def _inline_solve_batch(tasks: Sequence[SolveTask]) -> list[LossRateResult]:
    return solve_task_batch(list(tasks))


def _inline_simulate(topology, duration: float, warmup: float, seed: int):
    from repro.netsim import simulate

    return simulate(topology, duration=duration, warmup=warmup, seed=seed)


def _sample_rate_trace(
    source: CutoffFluidSource,
    duration: float,
    bin_width: float,
    rng: np.random.Generator,
) -> np.ndarray:
    return source.rate_trace(duration, bin_width, rng)


class VerifyCheck(Protocol):
    """The interface every oracle/metamorphic relation implements."""

    name: str
    kind: str  # "oracle" | "metamorphic"
    expensive: bool

    def applies(self, scenario: Scenario) -> bool:
        """True when the property is meaningful for this scenario."""
        ...

    def run(self, scenario: Scenario, ctx: CheckContext) -> CheckOutcome:
        """Evaluate the property; must be deterministic given (scenario, ctx)."""
        ...


def judge(check: VerifyCheck, scenario: Scenario, ctx: CheckContext) -> CheckOutcome:
    """The check's verdict on one scenario: run it, or mark it not applicable.

    Every caller that turns a (check, scenario) pair into an outcome (the
    fuzz runner, the corpus replay, the minimizer and the comparison
    grid) goes through here.
    """
    if not check.applies(scenario):
        return CheckOutcome.not_applicable(check.name)
    return check.run(scenario, ctx)
