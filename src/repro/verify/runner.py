"""The seeded fuzz runner: scenarios x checks -> report + corpus.

The runner wires the pieces together:

1. a :class:`~repro.verify.scenario.ScenarioGenerator` yields the
   deterministic case stream;
2. every case runs the *cheap* checks, plus one *expensive* check in
   round-robin rotation (Monte Carlo, Markov, shuffle and Hurst checks
   cost 10-100x a cached solve, so rotating keeps a 200-case sweep
   inside a test suite's budget while a 5000-case nightly still covers
   every expensive check hundreds of times);
3. solves go through a :class:`~repro.exec.engine.SweepEngine`, so the
   base solve shared by several checks is computed once and a re-run
   with the same seed replays from the persistent cache;
4. failures are minimized and persisted to the JSON corpus.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.verify.checks import CheckContext, CheckOutcome, VerifyCheck, judge
from repro.verify.corpus import FailureCorpus, FailureRecord, minimize_scenario
from repro.verify.matched import MatchedModelsOracle
from repro.verify.metamorphic import (
    BufferMonotonicityRelation,
    HurstRecoveryRelation,
    RateRelabelInvarianceRelation,
    ServiceMonotonicityRelation,
    ShuffleInvarianceRelation,
)
from repro.verify.oracles import (
    BatchedSoloOracle,
    BoundOrderingOracle,
    MarkovEquivalenceOracle,
    MonteCarloOracle,
    NetSimSolverOracle,
    SpectralDirectOracle,
)
from repro.verify.scenario import Scenario, ScenarioGenerator

__all__ = [
    "CaseResult",
    "FuzzReport",
    "default_checks",
    "run_corpus",
    "run_fuzz",
]


def default_checks() -> list[VerifyCheck]:
    """The standard check battery (7 oracles + 5 metamorphic relations)."""
    return [
        SpectralDirectOracle(),
        BatchedSoloOracle(),
        BoundOrderingOracle(),
        BufferMonotonicityRelation(),
        ServiceMonotonicityRelation(),
        RateRelabelInvarianceRelation(),
        MonteCarloOracle(),
        MarkovEquivalenceOracle(),
        NetSimSolverOracle(),
        ShuffleInvarianceRelation(),
        HurstRecoveryRelation(),
        MatchedModelsOracle(),
    ]


@dataclass(frozen=True)
class CaseResult:
    """Everything one scenario produced."""

    index: int
    scenario: Scenario
    outcomes: tuple[CheckOutcome, ...]

    @property
    def failures(self) -> tuple[CheckOutcome, ...]:
        return tuple(o for o in self.outcomes if o.failed)


@dataclass
class CheckTally:
    """Outcome counters for one check (or family) across a run.

    ``ran`` counts every battery entry, so it is the sum of the other
    four: ``skipped`` checks ran and declined to judge, while
    ``not_applicable`` checks do not apply to the case and never ran.
    """

    ran: int = 0
    passed: int = 0
    failed: int = 0
    skipped: int = 0
    not_applicable: int = 0


@dataclass
class FuzzReport:
    """Aggregate outcome of a fuzz run."""

    cases: int = 0
    seed: int = 0
    seconds: float = 0.0
    tallies: dict[str, CheckTally] = field(default_factory=dict)
    family_tallies: dict[str, CheckTally] = field(default_factory=dict)
    failures: list[FailureRecord] = field(default_factory=list)
    corpus_paths: list[Path] = field(default_factory=list)

    @property
    def total_failures(self) -> int:
        return len(self.failures)

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, outcome: CheckOutcome, family: str | None = None) -> None:
        tallies = [self.tallies.setdefault(outcome.check, CheckTally())]
        if family is not None:
            tallies.append(self.family_tallies.setdefault(family, CheckTally()))
        for tally in tallies:
            tally.ran += 1
            if not outcome.applicable:
                tally.not_applicable += 1
            elif outcome.skipped:
                tally.skipped += 1
            elif outcome.passed:
                tally.passed += 1
            else:
                tally.failed += 1

    def family_report(self) -> dict:
        """JSON-able per-family pass rates (the nightly CI artifact)."""
        families = {}
        for family in sorted(self.family_tallies):
            tally = self.family_tallies[family]
            judged = tally.passed + tally.failed
            families[family] = {
                "ran": tally.ran,
                "passed": tally.passed,
                "failed": tally.failed,
                "skipped": tally.skipped,
                "not_applicable": tally.not_applicable,
                "pass_rate": (tally.passed / judged) if judged else None,
            }
        return {
            "cases": self.cases,
            "seed": self.seed,
            "seconds": round(self.seconds, 3),
            "failures": self.total_failures,
            "families": families,
        }

    @staticmethod
    def _columns(tally: CheckTally) -> str:
        return (
            f"ran {tally.ran:>5}  passed {tally.passed:>5}  failed {tally.failed:>3}  "
            f"skipped {tally.skipped:>4}  n/a {tally.not_applicable:>4}"
        )

    def summary(self) -> str:
        """Multi-line human-readable report."""
        lines = [
            f"fuzz: {self.cases} cases, seed {self.seed}, "
            f"{self.total_failures} failure(s), {self.seconds:.1f}s"
        ]
        for name in sorted(self.tallies):
            tally = self.tallies[name]
            lines.append(f"  {name:<24} {self._columns(tally)}")
        for family in sorted(self.family_tallies):
            tally = self.family_tallies[family]
            lines.append(f"  family={family:<17} {self._columns(tally)}")
        for record in self.failures:
            scenario = Scenario.from_payload(record.scenario)
            lines.append(f"  FAIL {record.check}: {record.message}")
            lines.append(f"       {scenario.describe()}")
        return "\n".join(lines)


def _select(checks: list[VerifyCheck], names: list[str] | None) -> list[VerifyCheck]:
    if names is None:
        return checks
    known = {check.name: check for check in checks}
    unknown = [name for name in names if name not in known]
    if unknown:
        raise ValueError(
            f"unknown checks: {', '.join(sorted(unknown))} "
            f"(available: {', '.join(sorted(known))})"
        )
    return [known[name] for name in names]


def _run_case(
    index: int,
    scenario: Scenario,
    cheap: list[VerifyCheck],
    expensive: list[VerifyCheck],
    ctx: CheckContext,
) -> CaseResult:
    battery = list(cheap)
    if expensive:
        # Deterministic rotation: case i pays for exactly one slow check.
        battery.append(expensive[index % len(expensive)])
    outcomes = tuple(judge(check, scenario, ctx) for check in battery)
    return CaseResult(index=index, scenario=scenario, outcomes=outcomes)


def _handle_failures(
    case: CaseResult,
    checks_by_name: dict[str, VerifyCheck],
    ctx: CheckContext,
    corpus: FailureCorpus | None,
    minimize: bool,
    report: FuzzReport,
) -> None:
    for failure in case.failures:
        check = checks_by_name[failure.check]
        scenario = case.scenario
        original = None
        if minimize:
            shrunk = minimize_scenario(scenario, check, ctx)
            if shrunk is not scenario:
                original = scenario.payload()
                scenario = shrunk
        record = FailureRecord(
            check=failure.check,
            message=failure.message,
            scenario=scenario.payload(),
            original=original,
            details=failure.details,
        )
        report.failures.append(record)
        if corpus is not None:
            report.corpus_paths.append(corpus.save(record))


def run_fuzz(
    cases: int = 200,
    seed: int = 0,
    checks: list[VerifyCheck] | None = None,
    check_names: list[str] | None = None,
    ctx: CheckContext | None = None,
    corpus_dir: str | Path | None = None,
    minimize: bool = True,
    max_failures: int = 25,
    start: int = 0,
    progress: object | None = None,
) -> FuzzReport:
    """Run the seeded verification sweep.

    Parameters
    ----------
    cases, seed, start:
        ``cases`` scenarios from the deterministic stream anchored at
        ``seed``, beginning at case index ``start``.
    checks, check_names:
        Check battery (default :func:`default_checks`), optionally
        filtered down to the named subset.
    ctx:
        Execution hooks; pass a context whose ``solve`` routes through a
        cached :class:`~repro.exec.engine.SweepEngine` to make repeated
        runs cheap.  Defaults to inline solving.
    corpus_dir:
        Where to persist failure records; ``None`` disables persistence.
    minimize:
        Shrink failing scenarios before persisting them.
    max_failures:
        Stop early after this many failures (a systematically broken
        invariant fails hundreds of cases; the corpus needs only a few).
    progress:
        Optional ``progress(done, total, case_result)`` callable.
    """
    if cases < 0:
        raise ValueError(f"cases must be >= 0, got {cases}")
    if max_failures < 1:
        raise ValueError(f"max_failures must be >= 1, got {max_failures}")
    battery = _select(checks if checks is not None else default_checks(), check_names)
    cheap = [check for check in battery if not check.expensive]
    expensive = [check for check in battery if check.expensive]
    checks_by_name = {check.name: check for check in battery}
    ctx = ctx if ctx is not None else CheckContext()
    corpus = FailureCorpus(corpus_dir) if corpus_dir is not None else None
    generator = ScenarioGenerator(seed=seed)

    report = FuzzReport(cases=cases, seed=seed)
    started = time.perf_counter()
    for offset, scenario in enumerate(generator.take(cases, start=start)):
        index = start + offset
        case = _run_case(index, scenario, cheap, expensive, ctx)
        for outcome in case.outcomes:
            report.record(outcome, family=scenario.family)
        _handle_failures(case, checks_by_name, ctx, corpus, minimize, report)
        if progress is not None:
            progress(offset + 1, cases, case)  # type: ignore[operator]
        if report.total_failures >= max_failures:
            break
    report.seconds = time.perf_counter() - started
    return report


def run_corpus(
    corpus_dir: str | Path,
    checks: list[VerifyCheck] | None = None,
    ctx: CheckContext | None = None,
) -> FuzzReport:
    """Replay every persisted failure record against the current code.

    A record *passes* the replay when its check no longer fails (the bug
    was fixed); records whose check still fails are reported as failures
    again — the corpus is the regression suite fuzzing grows over time.
    """
    battery = checks if checks is not None else default_checks()
    checks_by_name = {check.name: check for check in battery}
    ctx = ctx if ctx is not None else CheckContext()
    corpus = FailureCorpus(corpus_dir)
    report = FuzzReport(cases=0, seed=-1)
    started = time.perf_counter()
    for record in corpus.load():
        check = checks_by_name.get(record.check)
        if check is None:
            continue  # check battery changed; stale record
        scenario = record.restore_scenario()
        report.cases += 1
        outcome = judge(check, scenario, ctx)
        report.record(outcome)
        if outcome.failed:
            report.failures.append(
                FailureRecord(
                    check=record.check,
                    message=outcome.message,
                    scenario=record.scenario,
                    original=record.original,
                    details=outcome.details,
                )
            )
    report.seconds = time.perf_counter() - started
    return report
