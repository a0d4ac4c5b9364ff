"""Failure-corpus persistence and scenario minimization.

Every failing (scenario, check) pair is persisted as one JSON file under
the corpus directory (``tests/corpus/`` in this repository), so a fuzz
failure found tonight is a deterministic regression input tomorrow:
``repro fuzz --replay`` re-runs the whole corpus, and the JSON round-trip
is exact because scenarios serialize through the same canonical payload
encoding the solve cache uses.

Before persisting, failures are *minimized*: a greedy pass repeatedly
tries simplifying transformations (snap alpha/theta/utilization to round
values, collapse the marginal to on/off, drop the cutoff to a round lag)
and keeps any transformation under which the check still fails.  The
minimized scenario is what lands in the corpus (the original is kept in
the record for provenance).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterator

from repro.verify.checks import CheckContext, VerifyCheck, judge
from repro.verify.scenario import Scenario

__all__ = [
    "FailureCorpus",
    "FailureRecord",
    "minimize_scenario",
]

CORPUS_FORMAT = 1
"""Version of the on-disk failure-record schema."""


@dataclass(frozen=True)
class FailureRecord:
    """One persisted check failure.

    ``scenario`` is the (minimized) payload that reproduces the failure;
    ``original`` the payload as generated, kept for provenance when the
    minimizer changed anything.
    """

    check: str
    message: str
    scenario: dict
    original: dict | None = None
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "format": CORPUS_FORMAT,
            "check": self.check,
            "message": self.message,
            "scenario": self.scenario,
            "original": self.original,
            "details": self.details,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "FailureRecord":
        fmt = payload.get("format")
        if fmt != CORPUS_FORMAT:
            raise ValueError(f"unsupported corpus record format {fmt!r}")
        return cls(
            check=str(payload["check"]),
            message=str(payload["message"]),
            scenario=dict(payload["scenario"]),
            original=payload.get("original"),
            details=dict(payload.get("details") or {}),
        )

    def restore_scenario(self) -> Scenario:
        """Rebuild the minimized scenario for replay."""
        return Scenario.from_payload(self.scenario)


class FailureCorpus:
    """A directory of JSON failure records.

    Filenames are content-addressed (``<check>-<scenario hash>.json``),
    so re-finding the same minimized failure is idempotent rather than
    accumulating duplicates.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)

    def save(self, record: FailureRecord) -> Path:
        """Persist one record; returns the file written."""
        self.directory.mkdir(parents=True, exist_ok=True)
        scenario_id = Scenario.from_payload(record.scenario).case_id()
        path = self.directory / f"{record.check}-{scenario_id}.json"
        path.write_text(json.dumps(record.to_json(), indent=2, sort_keys=True) + "\n")
        return path

    def load(self) -> list[FailureRecord]:
        """All records in the corpus, sorted by filename for stable replay."""
        if not self.directory.is_dir():
            return []
        records = []
        for path in sorted(self.directory.glob("*.json")):
            records.append(FailureRecord.from_json(json.loads(path.read_text())))
        return records

    def __len__(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("*.json"))


def _simplification_candidates(scenario: Scenario) -> Iterator[Scenario]:
    """Candidate one-step simplifications, most aggressive first."""
    from repro.core.marginal import DiscreteMarginal
    from repro.core.source import CutoffFluidSource
    from repro.core.truncated_pareto import TruncatedPareto

    law = scenario.source.interarrival
    marginal = scenario.source.marginal

    def with_law(new_law: TruncatedPareto) -> Scenario:
        return replace(
            scenario,
            source=CutoffFluidSource(marginal=marginal, interarrival=new_law),
        )

    # Collapse the marginal to the canonical on/off law at the same mean.
    if marginal.size > 2 or abs(marginal.probs[0] - 0.5) > 1e-12:
        peak = max(2.0 * marginal.mean, 1e-6)
        onoff = DiscreteMarginal(rates=[0.0, peak], probs=[0.5, 0.5])
        yield replace(scenario, source=scenario.source.with_marginal(onoff))
    if marginal.size > 2:
        yield replace(
            scenario, source=scenario.source.with_marginal(marginal.rebinned(2))
        )
    # Snap the interarrival parameters to round values.
    for alpha in (1.5, 1.2, 1.8):
        if abs(law.alpha - alpha) > 1e-9:
            yield with_law(TruncatedPareto(theta=law.theta, alpha=alpha, cutoff=law.cutoff))
    if abs(law.theta - 0.05) > 1e-9:
        yield with_law(TruncatedPareto(theta=0.05, alpha=law.alpha, cutoff=law.cutoff))
    if law.cutoff != math.inf:
        for cutoff in (1.0, 10.0):
            if abs(law.cutoff - cutoff) > 1e-9:
                yield with_law(
                    TruncatedPareto(theta=law.theta, alpha=law.alpha, cutoff=cutoff)
                )
    # Snap the queue coordinates.
    if abs(scenario.utilization - 0.8) > 1e-9:
        yield replace(scenario, utilization=0.8)
    for buffer in (0.1, 0.5):
        if abs(scenario.normalized_buffer - buffer) > 1e-9:
            yield replace(scenario, normalized_buffer=buffer)


def _complexity(scenario: Scenario) -> tuple[int, float]:
    """Rough simplicity ordering: fewer levels, rounder parameters win."""
    law = scenario.source.interarrival
    roundness = 0.0
    for value, snaps in (
        (law.alpha, (1.2, 1.5, 1.8)),
        (law.theta, (0.05,)),
        (scenario.utilization, (0.8,)),
        (scenario.normalized_buffer, (0.1, 0.5)),
    ):
        roundness += min(abs(value - snap) for snap in snaps)
    return (scenario.source.marginal.size, roundness)


def minimize_scenario(
    scenario: Scenario,
    check: VerifyCheck,
    ctx: CheckContext,
    max_evaluations: int = 40,
) -> Scenario:
    """Greedy shrink: keep any simplification under which ``check`` still fails.

    Runs to a fixpoint or until ``max_evaluations`` check executions; the
    returned scenario is guaranteed to still fail the check (the original
    is returned unchanged if nothing simpler fails).
    """
    current = scenario
    budget = max_evaluations
    improved = True
    while improved and budget > 0:
        improved = False
        for candidate in _simplification_candidates(current):
            if budget <= 0:
                break
            if _complexity(candidate) >= _complexity(current):
                continue
            budget -= 1
            try:
                if judge(check, candidate, ctx).failed:
                    current = candidate
                    improved = True
                    break
            except (ValueError, ArithmeticError):
                continue  # invalid transform for this scenario; skip it
    return current
