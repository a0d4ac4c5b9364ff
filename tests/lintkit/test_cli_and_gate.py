"""The ``repro-lrd lint`` subcommand and the zero-findings repo gate."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


def test_repo_tree_lints_clean(repo_root, capsys):
    """The CI gate: the shipped tree must produce zero findings."""
    code = main(["lint", str(repo_root / "src" / "repro"), "--root", str(repo_root)])
    out = capsys.readouterr().out
    assert code == 0, f"lint findings on the shipped tree:\n{out}"
    assert "clean: 0 findings" in out


def test_lint_cli_reports_findings_and_exit_code(tmp_path, capsys):
    bad = tmp_path / "repro" / "mod.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("def f(x):\n    return x == 0.25\n", encoding="utf-8")
    code = main(["lint", str(tmp_path), "--root", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "NUM001" in out and "repro/mod.py:2" in out


def test_lint_rules_reach_the_netsim_package(tmp_path, capsys):
    """NUM hygiene rules apply inside ``repro.netsim``, not just core.

    The simulator's determinism contract forbids global RNG state and
    wall-clock reads in simulation logic; this pins the rule families
    to the package path so a future scoping change cannot silently
    exempt it.
    """
    bad = tmp_path / "repro" / "netsim" / "mod.py"
    bad.parent.mkdir(parents=True)
    bad.write_text(
        "import time\n\nimport numpy as np\n\n\n"
        "def f():\n    return np.random.rand(), time.time()\n",
        encoding="utf-8",
    )
    code = main(["lint", str(tmp_path), "--root", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "NUM002" in out and "NUM003" in out


def test_lint_cli_json_format_and_out_file(tmp_path, capsys):
    bad = tmp_path / "repro" / "mod.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import time\n\n\ndef f():\n    return time.time()\n", encoding="utf-8")
    report_path = tmp_path / "report.json"
    code = main(
        [
            "lint", str(tmp_path), "--root", str(tmp_path),
            "--format", "json", "--out", str(report_path),
        ]
    )
    capsys.readouterr()
    assert code == 1
    payload = json.loads(report_path.read_text(encoding="utf-8"))
    assert payload["total_findings"] == 1
    assert payload["findings"][0]["rule"] == "NUM003"
    assert any(rule["id"] == "NUM003" for rule in payload["rules"])


def test_lint_cli_select_and_ignore(tmp_path, capsys):
    bad = tmp_path / "repro" / "mod.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("def f(x):\n    return x == 0.25\n", encoding="utf-8")
    assert main(["lint", str(tmp_path), "--root", str(tmp_path), "--select", "CON"]) == 0
    capsys.readouterr()
    assert main(["lint", str(tmp_path), "--root", str(tmp_path), "--ignore", "NUM001"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit, match="unknown rule"):
        main(["lint", str(tmp_path), "--select", "BOGUS"])


def test_lint_cli_rejects_missing_path(tmp_path):
    with pytest.raises(SystemExit, match="no such path"):
        main(["lint", str(tmp_path / "nowhere")])


def test_lint_cli_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("FPR001", "CON001", "NUM001"):
        assert rule_id in out
