"""Shared fixture helpers: write a snippet tree, lint it, return findings."""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.lintkit import LintEngine, rules_by_id


@pytest.fixture
def lint_tree(tmp_path):
    """Write ``{relpath: code}`` under a tmp root and lint it.

    Relative paths mimic the repo layout (``repro/core/mod.py``) so the
    engine's module-name scoping behaves exactly as on the real tree.
    Returns the finding list; rule selection narrows the run to the
    family under test so fixtures stay minimal.
    """

    def run(files: dict[str, str], select=None, ignore=None):
        for relpath, code in files.items():
            path = tmp_path / relpath
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(code), encoding="utf-8")
        rules = rules_by_id(select=select, ignore=ignore)
        engine = LintEngine(rules=rules, project_root=tmp_path)
        return engine.run([tmp_path])

    return run


@pytest.fixture
def repo_root() -> Path:
    return Path(__file__).resolve().parent.parent.parent
