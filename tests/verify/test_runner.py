"""Fuzz runner plumbing: rotation, filtering, corpus wiring, replay."""

from __future__ import annotations

import pytest

from repro.verify import (
    CheckContext,
    CheckOutcome,
    FailureCorpus,
    Scenario,
    default_checks,
    run_corpus,
    run_fuzz,
)


class StubCheck:
    """Configurable test double for battery plumbing tests."""

    def __init__(self, name, *, expensive=False, fail_when=None, applies=True):
        self.name = name
        self.kind = "oracle"
        self.expensive = expensive
        self.fail_when = fail_when
        self._applies = applies

    def applies(self, scenario: Scenario) -> bool:
        return self._applies

    def run(self, scenario: Scenario, ctx: CheckContext) -> CheckOutcome:
        if self.fail_when is not None and self.fail_when(scenario):
            return CheckOutcome.fail(self.name, "stub failure", utilization=scenario.utilization)
        return CheckOutcome.ok(self.name)


def test_default_battery_shape():
    battery = default_checks()
    assert len(battery) == 12
    assert sum(1 for c in battery if c.kind == "oracle") == 7
    assert sum(1 for c in battery if c.kind == "metamorphic") == 5
    assert sum(1 for c in battery if c.expensive) == 6


def test_cheap_checks_run_every_case_expensive_rotate():
    cheap = [StubCheck("c1"), StubCheck("c2")]
    expensive = [StubCheck("e1", expensive=True), StubCheck("e2", expensive=True)]
    report = run_fuzz(cases=10, seed=0, checks=cheap + expensive, minimize=False)
    assert report.ok
    assert report.tallies["c1"].ran == 10
    assert report.tallies["c2"].ran == 10
    assert report.tallies["e1"].ran == 5
    assert report.tallies["e2"].ran == 5


class DecliningCheck(StubCheck):
    """Applies, runs, and declines to judge every case."""

    def run(self, scenario: Scenario, ctx: CheckContext) -> CheckOutcome:
        return CheckOutcome.skip(self.name, "too small to resolve")


def test_inapplicable_checks_count_as_not_applicable():
    report = run_fuzz(
        cases=4, seed=0, checks=[StubCheck("never", applies=False), DecliningCheck("declines")]
    )
    assert report.ok
    never, declines = report.tallies["never"], report.tallies["declines"]
    assert (never.ran, never.not_applicable, never.skipped) == (4, 4, 0)
    assert (declines.ran, declines.not_applicable, declines.skipped) == (4, 0, 4)
    families = report.family_report()["families"]
    assert sum(tally["not_applicable"] for tally in families.values()) == 4
    assert sum(tally["skipped"] for tally in families.values()) == 4
    assert "skipped    4  n/a    0" in report.summary()


def test_check_names_filter_and_unknown_name():
    report = run_fuzz(
        cases=3,
        seed=0,
        checks=[StubCheck("a"), StubCheck("b")],
        check_names=["b"],
    )
    assert list(report.tallies) == ["b"]
    with pytest.raises(ValueError, match="unknown checks"):
        run_fuzz(cases=1, checks=[StubCheck("a")], check_names=["zzz"])


def test_invalid_arguments_rejected():
    with pytest.raises(ValueError):
        run_fuzz(cases=-1)
    with pytest.raises(ValueError):
        run_fuzz(cases=1, max_failures=0)


def test_failures_stop_early_and_land_in_the_corpus(tmp_path):
    corpus_dir = tmp_path / "corpus"
    failing = StubCheck("always_fails", fail_when=lambda s: True)
    report = run_fuzz(
        cases=50,
        seed=0,
        checks=[failing],
        corpus_dir=corpus_dir,
        minimize=False,
        max_failures=3,
    )
    assert not report.ok
    assert report.total_failures == 3
    assert report.tallies["always_fails"].ran == 3  # early stop, not 50
    assert len(report.corpus_paths) == 3
    assert len(FailureCorpus(corpus_dir)) == 3
    assert "FAIL always_fails" in report.summary()


def test_minimized_failures_rerun_idempotently(tmp_path):
    # Re-running the same seed re-finds the same minimized failures;
    # content addressing overwrites instead of accumulating duplicates.
    corpus_dir = tmp_path / "corpus"
    failing = StubCheck("always_fails", fail_when=lambda s: True)

    def sweep():
        return run_fuzz(
            cases=4,
            seed=0,
            checks=[failing],
            corpus_dir=corpus_dir,
            minimize=True,
            max_failures=4,
        )

    first = sweep()
    assert first.total_failures == 4
    size_after_first = len(FailureCorpus(corpus_dir))
    second = sweep()
    assert second.total_failures == 4
    assert len(FailureCorpus(corpus_dir)) == size_after_first
    record = FailureCorpus(corpus_dir).load()[0]
    assert record.original is not None  # provenance of the pre-shrink case
    shrunk = record.restore_scenario()
    assert shrunk.source.marginal.size <= 2  # the minimizer actually ran


def test_progress_callback_sees_every_case():
    seen = []
    run_fuzz(
        cases=5,
        seed=0,
        checks=[StubCheck("c")],
        progress=lambda done, total, case: seen.append((done, total, case.index)),
    )
    assert seen == [(1, 5, 0), (2, 5, 1), (3, 5, 2), (4, 5, 3), (5, 5, 4)]


def test_run_corpus_replays_and_reports_fixed_vs_still_broken(tmp_path):
    corpus_dir = tmp_path / "corpus"
    threshold_fail = StubCheck("thresh", fail_when=lambda s: s.utilization >= 0.55)
    report = run_fuzz(
        cases=4, seed=0, checks=[threshold_fail], corpus_dir=corpus_dir, minimize=False
    )
    assert not report.ok
    # Still broken: the replay fails again.
    replay = run_corpus(corpus_dir, checks=[threshold_fail])
    assert replay.cases == len(FailureCorpus(corpus_dir))
    assert not replay.ok
    # "Fixed": the same corpus passes once the check stops failing.
    fixed = run_corpus(corpus_dir, checks=[StubCheck("thresh")])
    assert fixed.ok
    assert fixed.tallies["thresh"].passed == replay.cases
    # Stale records for retired checks are ignored, not crashes.
    stale = run_corpus(corpus_dir, checks=[StubCheck("other")])
    assert stale.cases == 0
