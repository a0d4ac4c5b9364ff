"""Engine mechanics: suppressions, selection, module naming, reporters."""

from __future__ import annotations

import json

import pytest

from repro.lintkit import (
    Finding,
    LintEngine,
    Severity,
    all_rules,
    render_json,
    render_text,
    rules_by_id,
)
from repro.lintkit.engine import SourceFile

BAD_FLOAT_EQ = """\
def f(x):
    return x == 0.2
"""


def test_catalogue_covers_every_family():
    ids = {rule.id for rule in all_rules()}
    for family in ("FPR001", "CON001", "CON002", "CON003",
                   "NUM001", "NUM002", "NUM003", "NUM004"):
        assert family in ids
    # Ids are unique and every rule self-describes.
    assert len(ids) == len(all_rules())
    assert all(rule.name and rule.description for rule in all_rules())


def test_select_and_ignore_by_prefix():
    assert {rule.id for rule in rules_by_id(select=["NUM"])} == {
        "NUM001", "NUM002", "NUM003", "NUM004"
    }
    assert {rule.id for rule in rules_by_id(select=["NUM"], ignore=["NUM003"])} == {
        "NUM001", "NUM002", "NUM004"
    }
    with pytest.raises(ValueError, match="unknown rule"):
        rules_by_id(select=["NOPE"])
    with pytest.raises(ValueError, match="unknown rule"):
        rules_by_id(ignore=["XYZ9"])


def test_rule_scoped_suppression_comment(lint_tree):
    clean = lint_tree(
        {"repro/mod.py": "def f(x):\n    return x == 0.2  # lint: ignore[NUM001] calibrated\n"},
        select=["NUM"],
    )
    assert clean == []


def test_bare_suppression_comment_silences_all_rules(lint_tree):
    clean = lint_tree(
        {"repro/mod.py": "def f(x):\n    return x == 0.2  # lint: ignore\n"},
        select=["NUM"],
    )
    assert clean == []


def test_suppression_for_other_rule_does_not_silence(lint_tree):
    findings = lint_tree(
        {"repro/mod.py": "def f(x):\n    return x == 0.2  # lint: ignore[CON001]\n"},
        select=["NUM"],
    )
    assert [f.rule for f in findings] == ["NUM001"]


def test_suppression_only_covers_its_own_line(lint_tree):
    findings = lint_tree(
        {
            "repro/mod.py": (
                "# lint: ignore[NUM001]\n"
                "def f(x):\n"
                "    return x == 0.2\n"
            )
        },
        select=["NUM"],
    )
    assert [f.rule for f in findings] == ["NUM001"]


def test_module_name_derivation(tmp_path):
    path = tmp_path / "src" / "repro" / "core" / "solver.py"
    path.parent.mkdir(parents=True)
    path.write_text("x = 1\n", encoding="utf-8")
    assert SourceFile.parse(path).module == "repro.core.solver"
    init = tmp_path / "src" / "repro" / "core" / "__init__.py"
    init.write_text("", encoding="utf-8")
    assert SourceFile.parse(init).module == "repro.core"
    stray = tmp_path / "script.py"
    stray.write_text("x = 1\n", encoding="utf-8")
    assert SourceFile.parse(stray).module == "script"


def test_syntax_error_becomes_parse_finding(tmp_path):
    bad = tmp_path / "repro" / "broken.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("def f(:\n", encoding="utf-8")
    engine = LintEngine(rules=rules_by_id(select=["NUM"]), project_root=tmp_path)
    findings = engine.run([tmp_path])
    assert [f.rule for f in findings] == ["LINT000"]
    assert "could not parse" in findings[0].message


def test_text_and_json_reporters(lint_tree, tmp_path):
    findings = lint_tree({"repro/mod.py": BAD_FLOAT_EQ}, select=["NUM001"])
    assert len(findings) == 1

    text = render_text(findings, checked_files=1)
    assert "NUM001" in text
    assert "1 finding" in text
    assert render_text([], checked_files=3).startswith("clean: 0 findings")

    payload = json.loads(
        render_json(findings, checked_files=1, rules=rules_by_id(select=["NUM001"]))
    )
    assert payload["report_version"] == 1
    assert payload["total_findings"] == 1
    assert payload["findings_by_rule"] == {"NUM001": 1}
    assert payload["findings"][0]["rule"] == "NUM001"
    assert payload["findings"][0]["line"] == 2
    assert payload["rules"][0]["id"] == "NUM001"


def test_findings_sort_stably():
    a = Finding(path="a.py", line=2, col=1, rule="NUM001", message="m")
    b = Finding(path="a.py", line=1, col=1, rule="NUM001", message="m")
    c = Finding(path="b.py", line=1, col=1, rule="CON001", message="m", severity=Severity.WARNING)
    assert sorted([c, a, b]) == [b, a, c]
    assert "a.py:2:1" in str(a)
