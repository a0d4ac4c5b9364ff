"""repro.lintkit — repo-specific AST static analysis, gated in CI.

A small linting framework (rule registry, parse-once engine, per-line
suppression comments, text/JSON reporters) plus the rules that encode
this repository's unwritten invariants:

* fingerprint completeness — every dataclass field that can change a
  solver answer must be hashed into the solve-cache key (``FPR001``);
* concurrency discipline for the serving/execution layers — shared
  writes under locks, declared lock order, no blocking calls while a
  lock is held (``CON001``-``CON003``);
* numerical hygiene — no inexact float equality, no global RNG state,
  no wall-clock reads, no precision downcasts in the core (``NUM001``-
  ``NUM004``).

Run it as ``repro-lrd lint [paths]`` (defaults to ``src/repro``); CI
fails on any finding.  Silence an intentional violation on its own line
with ``# lint: ignore[RULE001] reason`` — see :mod:`repro.lintkit.engine`.
"""

from repro.lintkit import (  # noqa: F401  (imported for rule registration)
    rules_concurrency,
    rules_fingerprint,
    rules_numeric,
)
from repro.lintkit.engine import LintContext, LintEngine, SourceFile, lint_paths
from repro.lintkit.model import (
    Finding,
    Rule,
    Severity,
    all_rules,
    register,
    rules_by_id,
)
from repro.lintkit.reporters import render_json, render_text

__all__ = [
    "Finding",
    "Severity",
    "Rule",
    "register",
    "all_rules",
    "rules_by_id",
    "SourceFile",
    "LintContext",
    "LintEngine",
    "lint_paths",
    "render_text",
    "render_json",
]
