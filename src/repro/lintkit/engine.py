"""File loading, suppression comments, and the lint run itself.

The engine is deliberately compiler-shaped: parse every file once into a
:class:`SourceFile` (tree with parent backlinks, module name, per-line
suppressions), hand the set to each rule, collect findings, and filter
the suppressed ones at the very end — so a suppression comment silences
any rule family uniformly and the reporters never see dead findings.

Suppression syntax (one line, the line the finding reports)::

    x = self.total == 0.0  # lint: ignore[NUM001] exact sentinel
    y = frobnicate()       # lint: ignore  -- silences every rule here

``# lint: ignore[A,B]`` silences rules A and B only; the bare form
silences everything on that line.  Trailing prose after the marker is
encouraged — a suppression without a reason is a smell.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.lintkit.astutil import attach_parents
from repro.lintkit.model import Finding, Rule, Severity, all_rules

__all__ = ["SourceFile", "LintContext", "LintEngine", "lint_paths"]

_SUPPRESS_RE = re.compile(r"#\s*lint:\s*ignore(?:\[(?P<rules>[A-Za-z0-9_,\s]+)\])?")


def _module_name(path: Path) -> str:
    """Dotted module name derived from the path's ``repro`` anchor.

    ``.../src/repro/core/solver.py`` maps to ``repro.core.solver``; files
    outside a ``repro`` directory fall back to their stem.  Rules use
    this for scoping (e.g. numerical-hygiene rules that only apply to
    ``repro.core``), and fixtures replicate the layout under a tmp dir.
    """
    parts = list(path.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts.pop()
    for anchor in range(len(parts) - 1, -1, -1):
        if parts[anchor] == "repro":
            return ".".join(parts[anchor:])
    return parts[-1] if parts else str(path)


@dataclass
class SourceFile:
    """One parsed source file plus the lint metadata rules consume."""

    path: Path
    display_path: str
    text: str
    tree: ast.Module
    module: str
    suppressions: dict[int, set[str] | None] = field(default_factory=dict)

    @classmethod
    def parse(cls, path: Path, display_path: str | None = None) -> "SourceFile":
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text, filename=str(path))
        attach_parents(tree)
        suppressions: dict[int, set[str] | None] = {}
        for line_number, line in enumerate(text.splitlines(), start=1):
            match = _SUPPRESS_RE.search(line)
            if match is None:
                continue
            rules = match.group("rules")
            if rules is None:
                suppressions[line_number] = None  # bare form: silence all
            else:
                suppressions[line_number] = {
                    rule.strip() for rule in rules.split(",") if rule.strip()
                }
        return cls(
            path=path,
            display_path=display_path if display_path is not None else str(path),
            text=text,
            tree=tree,
            module=_module_name(path),
            suppressions=suppressions,
        )

    def suppressed(self, finding: Finding) -> bool:
        """True when a suppression comment on the finding's line covers it."""
        rules = self.suppressions.get(finding.line, ...)
        if rules is ...:
            return False
        return rules is None or finding.rule in rules  # type: ignore[union-attr]

    def in_package(self, *packages: str) -> bool:
        """True when this file's module lives under any of ``packages``."""
        return any(
            self.module == package or self.module.startswith(package + ".")
            for package in packages
        )


@dataclass
class LintContext:
    """Everything a rule may consult beyond its own file.

    ``files`` is the full parsed file set of the run (cross-file rules
    index it).
    """

    files: list[SourceFile]


class LintEngine:
    """Runs a rule set over a file set and returns surviving findings."""

    def __init__(
        self,
        rules: Sequence[Rule] | None = None,
        project_root: Path | str | None = None,
    ) -> None:
        self.rules: list[Rule] = list(rules) if rules is not None else all_rules()
        self.project_root = Path(project_root) if project_root is not None else Path.cwd()
        self.parse_errors: list[Finding] = []
        self.files: list[SourceFile] = []

    # ------------------------------------------------------------------ #
    # file collection
    # ------------------------------------------------------------------ #

    def collect(self, paths: Iterable[Path | str]) -> list[SourceFile]:
        """Parse every ``.py`` file under the given files/directories.

        A file that fails to parse produces a single ``LINT000`` finding
        (recorded on :attr:`parse_errors`) instead of aborting the run —
        the rest of the tree still gets linted.
        """
        files: list[SourceFile] = []
        for seed in paths:
            seed = Path(seed)
            candidates = sorted(seed.rglob("*.py")) if seed.is_dir() else [seed]
            for path in candidates:
                try:
                    display = str(path.relative_to(self.project_root))
                except ValueError:
                    display = str(path)
                try:
                    files.append(SourceFile.parse(path, display_path=display))
                except (SyntaxError, UnicodeDecodeError, OSError) as error:
                    self.parse_errors.append(
                        Finding(
                            path=display,
                            line=getattr(error, "lineno", 0) or 0,
                            col=getattr(error, "offset", 0) or 0,
                            rule="LINT000",
                            message=f"could not parse file: {error}",
                            severity=Severity.ERROR,
                        )
                    )
        return files

    # ------------------------------------------------------------------ #
    # the run
    # ------------------------------------------------------------------ #

    def run(self, paths: Iterable[Path | str]) -> list[Finding]:
        """Lint the given paths; returns sorted, unsuppressed findings.

        The parsed file set survives on :attr:`files` so frontends can
        report how much was checked without re-walking the tree.
        """
        files = self.collect(paths)
        self.files = files
        context = LintContext(files=files)
        by_display = {source.display_path: source for source in files}
        findings: list[Finding] = list(self.parse_errors)
        for rule in self.rules:
            for source in files:
                findings.extend(rule.check_file(source, context))
            findings.extend(rule.check_project(context))
        kept = []
        for finding in findings:
            source = by_display.get(finding.path)
            if source is not None and source.suppressed(finding):
                continue
            kept.append(finding)
        return sorted(set(kept))


def lint_paths(
    paths: Iterable[Path | str],
    rules: Sequence[Rule] | None = None,
    project_root: Path | str | None = None,
) -> list[Finding]:
    """One-call façade: lint ``paths`` with the full (or given) rule set."""
    engine = LintEngine(rules=rules, project_root=project_root)
    return engine.run(paths)
