"""The in-suite acceptance sweep plus the ``repro fuzz`` CLI surface.

The 200-case sweep is the PR's headline acceptance criterion: the full
default battery over the seed-0 stream must complete with zero failures.
It runs through the real CLI entry point so the engine wiring (cached
solves, corpus flags, exit codes) is exercised too.
"""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


@pytest.fixture(autouse=True)
def _isolated_cache(monkeypatch, tmp_path):
    """Keep CLI runs from touching the user's real solve cache."""
    monkeypatch.setenv("REPRO_LRD_CACHE_DIR", str(tmp_path / "fuzz-cache"))


class TestParser:
    def test_fuzz_defaults(self):
        args = build_parser().parse_args(["fuzz"])
        assert args.cases == 200
        assert args.seed == 0
        assert args.start == 0
        assert args.fuzz_checks is None
        assert args.corpus_dir == "tests/corpus"
        assert args.no_corpus is False
        assert args.no_minimize is False
        assert args.max_failures == 25
        assert args.replay is False

    def test_fuzz_check_flag_accumulates(self):
        args = build_parser().parse_args(
            ["fuzz", "--check", "bound_ordering", "--check", "buffer_monotone"]
        )
        assert args.fuzz_checks == ["bound_ordering", "buffer_monotone"]

    def test_fuzz_family_report_flag(self):
        assert build_parser().parse_args(["fuzz"]).family_report is None
        args = build_parser().parse_args(["fuzz", "--family-report", "fam.json"])
        assert args.family_report == "fam.json"

    def test_compare_defaults(self):
        args = build_parser().parse_args(["compare"])
        assert args.hurst == 0.8
        assert args.utilization == 0.9
        assert args.buffers is None  # falls back to (0.1, 0.5)
        assert args.families is None  # falls back to every matched family
        assert args.batches == 4
        assert args.seed == 0

    def test_compare_flags_accumulate(self):
        args = build_parser().parse_args(
            ["compare", "--buffer", "0.1", "--buffer", "1.0",
             "--family", "mmpp", "--family", "fgn"]
        )
        assert args.buffers == [0.1, 1.0]
        assert args.families == ["mmpp", "fgn"]


class TestCli:
    def test_list_checks(self, capsys):
        assert main(["fuzz", "--list-checks"]) == 0
        out = capsys.readouterr().out
        for name in ("spectral_vs_direct", "hurst_recovery", "solver_vs_markov"):
            assert name in out

    def test_unknown_check_is_an_error(self, capsys):
        assert main(["fuzz", "--cases", "1", "--check", "bogus", "--no-corpus"]) == 2
        assert "unknown checks" in capsys.readouterr().err

    def test_small_sweep_writes_no_corpus_when_clean(self, tmp_path, capsys):
        corpus_dir = tmp_path / "corpus"
        code = main(
            ["fuzz", "--cases", "6", "--seed", "0", "--corpus-dir", str(corpus_dir)]
        )
        assert code == 0
        assert not list(corpus_dir.glob("*.json")) if corpus_dir.is_dir() else True
        out = capsys.readouterr().out
        assert "fuzz: 6 cases, seed 0, 0 failure(s)" in out

    def test_replay_of_empty_corpus_is_clean(self, tmp_path, capsys):
        code = main(["fuzz", "--replay", "--corpus-dir", str(tmp_path / "empty")])
        assert code == 0
        assert "0 failure(s)" in capsys.readouterr().out

    def test_family_report_artifact(self, tmp_path, capsys):
        import json

        out = tmp_path / "families.json"
        code = main(
            ["fuzz", "--cases", "12", "--seed", "0", "--no-corpus",
             "--family-report", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["cases"] == 12 and payload["failures"] == 0
        # 12 cases over the 6-family rotation: every family ran twice.
        assert set(payload["families"]) == {
            "renewal", "fgn", "farima", "onoff", "mginf", "mmpp"
        }
        for tally in payload["families"].values():
            assert tally["ran"] > 0
            assert 0.0 <= tally["pass_rate"] <= 1.0

    def test_inapplicable_cases_are_not_counted_as_skips(self, capsys):
        # The exact netsim check never declines to judge; the cases it
        # does not apply to (no loss path) get their own column.
        code = main(
            ["fuzz", "--check", "netsim_vs_solver", "--cases", "300", "--seed", "1",
             "--no-corpus"]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        line = next(
            ln for ln in out.splitlines() if ln.strip().startswith("netsim_vs_solver")
        )
        counts = line.split()[1:]
        tally = dict(zip(counts[::2], (int(value) for value in counts[1::2])))
        assert tally == {
            "ran": 300, "passed": 237, "failed": 0, "skipped": 0, "n/a": 63
        }

    def test_unknown_compare_family_is_an_error(self, capsys):
        assert main(["compare", "--family", "bogus", "--buffer", "0.1"]) == 2
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.slow
    def test_compare_command_renders_the_grid(self, capsys):
        code = main(
            ["compare", "--buffer", "0.1", "--family", "mmpp",
             "--family", "fgn", "--batches", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "matched-model comparison" in out
        assert "mmpp" in out and "fgn" in out
        assert "diverged" in out

    @pytest.mark.fuzz
    def test_default_200_case_sweep_is_clean(self, capsys):
        # Acceptance criterion: `repro fuzz --cases 200 --seed 0` completes
        # clean in-suite (cached engine solves keep this inside the tier-1
        # time budget).
        code = main(["fuzz", "--cases", "200", "--seed", "0", "--no-corpus"])
        out = capsys.readouterr().out
        assert code == 0, f"fuzz sweep reported failures:\n{out}"
        assert "fuzz: 200 cases, seed 0, 0 failure(s)" in out
        # Every check in the battery must have actually judged cases —
        # a sweep that silently skips everything proves nothing.
        for name in (
            "spectral_vs_direct",
            "bound_ordering",
            "buffer_monotone",
            "service_monotone",
            "relabel_invariance",
            "solver_vs_monte_carlo",
            "solver_vs_markov",
            "shuffle_beyond_horizon",
            "hurst_recovery",
            "matched_models",
            "netsim_vs_solver",
        ):
            line = next(ln for ln in out.splitlines() if ln.strip().startswith(name))
            assert "failed   0" in line
            passed = int(line.split("passed")[1].split()[0])
            assert passed > 0, f"{name} never judged a case:\n{out}"
        # Stratification: all six generating families ran and none failed.
        for family in ("renewal", "fgn", "farima", "onoff", "mginf", "mmpp"):
            line = next(
                ln for ln in out.splitlines()
                if ln.strip().startswith(f"family={family}")
            )
            assert "failed   0" in line
            ran = int(line.split("ran")[1].split()[0])
            assert ran > 0, f"family {family} never ran:\n{out}"
