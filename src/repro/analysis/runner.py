"""File collection, checker dispatch, and report rendering.

``run_check`` is the single entry point behind ``python -m repro check``
and the test suite: collect ``.py`` files, parse them (a syntax error is
itself a finding, not a crash), run the selected checkers' per-module
passes, drop inline-suppressed findings, and wrap the rest in a
:class:`CheckReport`.

The JSON output is schema-versioned (``CHECK_SCHEMA_VERSION``) so CI
consumers can parse it without sniffing; tests pin the schema.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.base import Module, available_checkers, get_checker
from repro.analysis.findings import Finding, Severity
from repro.util.jsonutil import jsonable

__all__ = ["CHECK_SCHEMA_VERSION", "CheckReport", "collect_files", "render_findings", "run_check"]

CHECK_SCHEMA_VERSION = 2

#: Directory names never descended into while collecting files.
_SKIP_DIRS = {"__pycache__", ".git", ".venv", "node_modules", "build", "dist"}

#: The finding identity used for unparsable files.
_PARSE_CODE = "RC001"


@dataclass
class CheckReport:
    """One ``repro check`` run's outcome."""

    findings: list[Finding]  # every unsuppressed finding: these gate
    suppressed: int  # count of inline-suppressed findings
    n_files: int
    checkers: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether the run should exit 0 (warnings do not gate)."""
        return not any(f.severity == Severity.ERROR for f in self.findings)

    def as_dict(self) -> dict:
        return {
            "schema_version": CHECK_SCHEMA_VERSION,
            "checkers": list(self.checkers),
            "files": self.n_files,
            "ok": self.ok,
            "findings": [f.as_dict() for f in self.findings],
            "suppressed": self.suppressed,
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(jsonable(self.as_dict()), indent=indent, allow_nan=False)


def collect_files(paths: Sequence[str | Path], root: Path) -> list[tuple[Path, str]]:
    """Resolve ``paths`` to ``(abspath, repo-relative)`` python files.

    Directories are walked recursively in sorted order; explicit file
    arguments are taken verbatim.  Files outside ``root`` keep an
    absolute-ish relative string so findings stay addressable.
    """
    out: list[tuple[Path, str]] = []
    seen: set[Path] = set()

    def rel_of(p: Path) -> str:
        try:
            return p.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            return p.as_posix()

    def add(p: Path) -> None:
        rp = p.resolve()
        if rp not in seen:
            seen.add(rp)
            out.append((p, rel_of(p)))

    for path in paths:
        p = Path(path)
        if p.is_dir():
            for f in sorted(p.rglob("*.py")):
                if not any(part in _SKIP_DIRS for part in f.parts):
                    add(f)
        elif p.suffix == ".py":
            add(p)
        else:
            raise ValueError(f"not a python file or directory: {p}")
    return out


def run_check(
    paths: Sequence[str | Path] | None = None,
    select: Iterable[str] | None = None,
    root: str | Path | None = None,
) -> CheckReport:
    """Run the selected checkers over ``paths`` (default: ``<root>/src``).

    ``root`` anchors repo-relative paths; it defaults to the working
    directory.
    ``select`` narrows to named checkers (default: all registered).
    """
    import repro.analysis.checkers  # noqa: F401  (registers shipped checkers)

    root = Path(root) if root is not None else Path.cwd()
    if paths is None:
        paths = [root / "src"]
    names = sorted(select) if select is not None else available_checkers()
    checkers = [get_checker(n) for n in names]

    modules: dict[str, Module] = {}
    parse_failures: list[Finding] = []
    for path, rel in collect_files(paths, root):
        try:
            modules[rel] = Module.parse(path, rel)
        except SyntaxError as exc:
            parse_failures.append(
                Finding(
                    path=rel,
                    line=int(exc.lineno or 0),
                    code=_PARSE_CODE,
                    checker="parse",
                    severity=Severity.ERROR,
                    message=f"file does not parse: {exc.msg}",
                    fix_hint="fix the syntax error; unparsable files are unchecked",
                )
            )

    raw: list[Finding] = list(parse_failures)
    for checker in checkers:
        for module in modules.values():
            raw.extend(checker.check_module(module))

    kept: list[Finding] = []
    suppressed = 0
    for f in sorted(raw):
        m = modules.get(f.path)
        if m is not None and m.is_suppressed(f):
            suppressed += 1
        else:
            kept.append(f)

    return CheckReport(
        findings=kept,
        suppressed=suppressed,
        n_files=len(modules) + len(parse_failures),
        checkers=names,
    )


def render_findings(report: CheckReport) -> str:
    """Human-readable report (the CLI's ``--format text``)."""
    lines = [f.render() for f in report.findings]
    verdict = "ok" if report.ok else "FAILED"
    lines.append(
        f"repro check: {len(report.findings)} finding(s), "
        f"{report.suppressed} suppressed "
        f"across {report.n_files} file(s) with {len(report.checkers)} "
        f"checker(s): {verdict}"
    )
    return "\n".join(lines)
