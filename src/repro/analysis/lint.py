"""AST-based static-analysis engine for the repro codebase.

The repo has been bitten repeatedly by the same bug classes: shared mutable
default configs, thread-global state races, Generator-seed aliasing, and
in-place mutation of shared checkpoints.  This module provides the *engine*
for a small codebase-aware checker; the concrete rules live in
:mod:`repro.analysis.rules`.

Design
------
* A :class:`Rule` inspects one parsed file (``check_file``) and/or the whole
  project (``check_project``) and yields :class:`Finding` objects.
* Source comments carry the annotation vocabulary:

  - ``# guarded-by: _lock``   — the attribute assigned on this line may only
    be touched while ``self._lock`` is held.
  - ``# requires-lock: _lock`` — the method defined on (or directly below)
    this line is only ever called with ``self._lock`` held.
  - ``# repro-lint: disable=<rule>[,<rule>...] -- <justification>`` — suppress
    findings on this line.
  - ``# repro-lint: disable-file=<rule> -- <justification>`` — suppress a rule
    for the whole file.

* ``--strict`` additionally fails on warnings and on suppressions that carry
  no justification text, so CI can assert "zero undocumented findings".

Exit codes follow ``tools/check_docs.py``: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import re
import sys
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Finding",
    "Suppression",
    "FileContext",
    "Project",
    "Rule",
    "RULE_REGISTRY",
    "register_rule",
    "iter_python_files",
    "run_lint",
    "LintReport",
    "main",
]

SEVERITIES = ("warning", "error")

_DIRECTIVE_RE = re.compile(
    r"#\s*repro-lint:\s*(disable|disable-file)\s*=\s*"
    r"([A-Za-z0-9_,\- ]+?)\s*(?:--\s*(.*\S))?\s*$"
)
_GUARDED_BY_RE = re.compile(r"#\s*guarded-by:\s*([A-Za-z_][A-Za-z0-9_]*)")
_REQUIRES_LOCK_RE = re.compile(r"#\s*requires-lock:\s*([A-Za-z_][A-Za-z0-9_]*)")


@dataclass(frozen=True)
class Finding:
    """One diagnostic emitted by a rule."""

    rule: str
    message: str
    path: str
    line: int
    severity: str = "error"
    column: int = 0

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.column}: "
            f"[{self.severity}] {self.rule}: {self.message}"
        )

    def to_json(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "message": self.message,
        }


@dataclass
class Suppression:
    """A ``# repro-lint: disable=...`` directive found in a file."""

    line: int
    rules: Tuple[str, ...]
    justification: str
    file_level: bool = False
    used: bool = False

    def matches(self, finding: Finding) -> bool:
        if "all" in self.rules or finding.rule in self.rules:
            return self.file_level or self.line == finding.line
        return False


class FileContext:
    """A parsed source file plus its comment-borne annotations."""

    def __init__(self, path: Path, source: str, display: Optional[str] = None):
        self.path = path
        self.source = source
        self.display = display or _display_path(path)
        self.tree = ast.parse(source, filename=self.display)
        self.comments: Dict[int, str] = {}
        self.suppressions: List[Suppression] = []
        self.guarded_by: Dict[int, str] = {}
        self.requires_lock: Dict[int, str] = {}
        # Lines whose guarded-by comment was claimed by a lock-rule target;
        # unclaimed annotations are reported as dangling (see rules.py).
        self.claimed_guard_lines: set = set()
        self._scan_comments()

    # -- comment parsing -------------------------------------------------

    def _scan_comments(self) -> None:
        try:
            tokens = tokenize.generate_tokens(io.StringIO(self.source).readline)
            for tok in tokens:
                if tok.type != tokenize.COMMENT:
                    continue
                line = tok.start[0]
                text = tok.string
                self.comments[line] = text
                match = _DIRECTIVE_RE.search(text)
                if match:
                    kind, raw_rules, justification = match.groups()
                    rules = tuple(
                        part.strip() for part in raw_rules.split(",") if part.strip()
                    )
                    # A directive on its own line governs the line below it;
                    # a trailing directive governs its own line.
                    standalone = tok.line.strip().startswith("#")
                    self.suppressions.append(
                        Suppression(
                            line=line + 1 if standalone else line,
                            rules=rules,
                            justification=(justification or "").strip(),
                            file_level=(kind == "disable-file"),
                        )
                    )
                guard = _GUARDED_BY_RE.search(text)
                if guard:
                    self.guarded_by[line] = guard.group(1)
                requires = _REQUIRES_LOCK_RE.search(text)
                if requires:
                    self.requires_lock[line] = requires.group(1)
        except tokenize.TokenError:
            # A file that tokenizes badly still parsed via ast; treat it as
            # having no comments rather than crashing the whole run.
            pass

    # -- helpers ---------------------------------------------------------

    def in_package(self, *parts: str) -> bool:
        """True when the file lives under ``parts`` (posix path fragment)."""
        fragment = "/".join(parts).strip("/") + "/"
        return fragment in self.display.replace("\\", "/")

    def suppression_for(self, finding: Finding) -> Optional[Suppression]:
        for suppression in self.suppressions:
            if suppression.matches(finding):
                return suppression
        return None


class Project:
    """All files in one lint run, for cross-file rules."""

    def __init__(self, files: Sequence[FileContext]):
        self.files = list(files)

    def find(self, suffix: str) -> List[FileContext]:
        suffix = suffix.replace("\\", "/")
        return [
            ctx for ctx in self.files if ctx.display.replace("\\", "/").endswith(suffix)
        ]


class Rule:
    """Base class for lint rules.

    Subclasses set ``id``/``severity``/``description`` and implement
    ``check_file`` (per-file) and/or ``check_project`` (cross-file).
    """

    id: str = ""
    severity: str = "error"
    description: str = ""

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        return iter(())

    def check_project(self, project: Project) -> Iterator[Finding]:
        return iter(())

    # Convenience for subclasses.
    def finding(
        self,
        ctx: FileContext,
        node: ast.AST,
        message: str,
        severity: Optional[str] = None,
    ) -> Finding:
        return Finding(
            rule=self.id,
            message=message,
            path=ctx.display,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0),
            severity=severity or self.severity,
        )


RULE_REGISTRY: Dict[str, Rule] = {}


def register_rule(rule_cls):
    """Class decorator adding a rule instance to the global registry."""
    instance = rule_cls()
    if not instance.id:
        raise ValueError(f"rule {rule_cls.__name__} has no id")
    if instance.severity not in SEVERITIES:
        raise ValueError(f"rule {instance.id} has invalid severity")
    if instance.id in RULE_REGISTRY:
        raise ValueError(f"duplicate rule id {instance.id!r}")
    RULE_REGISTRY[instance.id] = instance
    return rule_cls


def _display_path(path: Path) -> str:
    try:
        return path.resolve().relative_to(Path.cwd()).as_posix()
    except ValueError:
        return path.as_posix()


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    seen = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            if "__pycache__" in candidate.parts:
                continue
            if any(part.startswith(".") for part in candidate.parts[1:]):
                continue
            resolved = candidate.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            yield candidate


@dataclass
class LintReport:
    """Outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Tuple[Finding, Suppression]] = field(default_factory=list)
    undocumented: List[Finding] = field(default_factory=list)
    files_checked: int = 0

    def active_findings(self, strict: bool = False) -> List[Finding]:
        active = list(self.findings)
        if strict:
            active.extend(self.undocumented)
        return sorted(active, key=lambda f: (f.path, f.line, f.rule))

    def failed(self, strict: bool = False) -> bool:
        for finding in self.active_findings(strict):
            if strict or finding.severity == "error":
                return True
        return False

    def to_json(self, strict: bool = False) -> Dict[str, object]:
        active = self.active_findings(strict)
        return {
            "version": 1,
            "strict": strict,
            "files_checked": self.files_checked,
            "counts": {
                "error": sum(1 for f in active if f.severity == "error"),
                "warning": sum(1 for f in active if f.severity == "warning"),
                "suppressed": len(self.suppressed),
            },
            "findings": [f.to_json() for f in active],
            "suppressed": [
                {**f.to_json(), "justification": s.justification}
                for f, s in self.suppressed
            ],
        }

    def render(self, strict: bool = False) -> str:
        lines = [f.render() for f in self.active_findings(strict)]
        active = self.active_findings(strict)
        summary = (
            f"checked {self.files_checked} file(s): "
            f"{len(active)} finding(s), {len(self.suppressed)} suppressed"
        )
        lines.append(summary)
        return "\n".join(lines)


def run_lint(
    paths: Sequence[Path],
    rule_ids: Optional[Sequence[str]] = None,
) -> LintReport:
    """Run the registered rules over ``paths`` and return a report."""
    # Importing rules here avoids a circular import at module load time and
    # guarantees the built-in rules are registered before any run.
    from repro.analysis import rules as _rules  # noqa: F401

    if rule_ids is None:
        rules = list(RULE_REGISTRY.values())
    else:
        unknown = sorted(set(rule_ids) - set(RULE_REGISTRY))
        if unknown:
            raise KeyError(f"unknown rule id(s): {', '.join(unknown)}")
        rules = [RULE_REGISTRY[rule_id] for rule_id in rule_ids]

    report = LintReport()
    contexts: List[FileContext] = []
    for path in iter_python_files(paths):
        try:
            source = path.read_text(encoding="utf-8")
        except OSError as error:
            report.findings.append(
                Finding(
                    rule="parse-error",
                    message=f"could not read file: {error}",
                    path=_display_path(path),
                    line=1,
                )
            )
            continue
        try:
            contexts.append(FileContext(path, source))
        except SyntaxError as error:
            report.findings.append(
                Finding(
                    rule="parse-error",
                    message=f"syntax error: {error.msg}",
                    path=_display_path(path),
                    line=error.lineno or 1,
                )
            )
    report.files_checked = len(contexts)

    project = Project(contexts)
    raw: List[Tuple[Finding, FileContext]] = []
    context_by_display = {ctx.display: ctx for ctx in contexts}
    for rule in rules:
        for ctx in contexts:
            for finding in rule.check_file(ctx):
                raw.append((finding, ctx))
        for finding in rule.check_project(project):
            raw.append((finding, context_by_display.get(finding.path)))

    for finding, ctx in raw:
        suppression = ctx.suppression_for(finding) if ctx is not None else None
        if suppression is None:
            report.findings.append(finding)
            continue
        suppression.used = True
        report.suppressed.append((finding, suppression))
        if not suppression.justification:
            report.undocumented.append(
                Finding(
                    rule="undocumented-suppression",
                    message=(
                        f"suppression of {finding.rule!r} has no justification "
                        "(append ` -- <reason>` to the directive)"
                    ),
                    path=finding.path,
                    line=suppression.line if not suppression.file_level else 1,
                    severity="error",
                )
            )

    report.findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return report


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Codebase-aware static checker for the repro project.",
    )
    parser.add_argument("paths", nargs="*", help="files or directories to check")
    parser.add_argument(
        "--strict",
        action="store_true",
        help="fail on warnings and on suppressions without a justification",
    )
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    parser.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list registered rules and exit"
    )
    args = parser.parse_args(argv)

    from repro.analysis import rules as _rules  # noqa: F401

    if args.list_rules:
        width = max((len(rule_id) for rule_id in RULE_REGISTRY), default=0)
        for rule_id in sorted(RULE_REGISTRY):
            rule = RULE_REGISTRY[rule_id]
            print(f"{rule_id.ljust(width)}  [{rule.severity}] {rule.description}")
        return 0

    if not args.paths:
        parser.print_usage(sys.stderr)
        print("repro-lint: error: no paths given", file=sys.stderr)
        return 2

    rule_ids = None
    if args.rules:
        rule_ids = [part.strip() for part in args.rules.split(",") if part.strip()]
    try:
        report = run_lint([Path(p) for p in args.paths], rule_ids=rule_ids)
    except KeyError as error:
        print(f"repro-lint: error: {error.args[0]}", file=sys.stderr)
        return 2

    if args.json:
        print(json.dumps(report.to_json(strict=args.strict), indent=2))
    else:
        print(report.render(strict=args.strict))
    return 1 if report.failed(strict=args.strict) else 0


if __name__ == "__main__":
    raise SystemExit(main())
