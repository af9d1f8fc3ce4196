"""Checker protocol, parsed-module model, and the checker registry.

Mirrors the parallel-algorithm registry (``@register_parallel``): a
checker subclasses :class:`Checker`, declares its stable
``code``/``name``/``description``, and registers itself with
``@register_checker``.  The runner hands each checker parsed
:class:`Module` objects; checkers yield
:class:`~repro.analysis.findings.Finding` records and never mutate
anything.

Inline suppression: a ``# repro: ignore[RC101]`` comment on the flagged
line silences that code there (``# repro: ignore`` silences every code on
the line).  Suppressions are deliberate and visible in review.
"""

from __future__ import annotations

import abc
import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from repro.analysis.findings import Finding, Severity

__all__ = [
    "Checker",
    "Module",
    "available_checkers",
    "get_checker",
    "register_checker",
]

_IGNORE_RE = re.compile(r"#\s*repro:\s*ignore(?:\[(?P<codes>[A-Z0-9, ]+)\])?")


@dataclass
class Module:
    """One parsed source file.

    ``rel`` is the repo-relative posix path every finding reports;
    ``tree`` is the parsed AST; ``lines`` the raw source split for
    suppression-comment and context lookups.
    """

    path: Path
    rel: str
    source: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)

    @classmethod
    def parse(cls, path: Path, rel: str) -> "Module":
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=rel)
        return cls(
            path=path, rel=rel, source=source, tree=tree, lines=source.splitlines()
        )

    def suppressed_codes(self, line: int) -> set[str] | None:
        """Codes silenced on ``line`` (1-based).

        Returns ``None`` when there is no suppression comment, the empty
        set for a blanket ``# repro: ignore``, and the named codes for
        ``# repro: ignore[RC101, RC301]``.
        """
        if not 1 <= line <= len(self.lines):
            return None
        m = _IGNORE_RE.search(self.lines[line - 1])
        if m is None:
            return None
        codes = m.group("codes")
        if codes is None:
            return set()
        return {c.strip() for c in codes.split(",") if c.strip()}

    def is_suppressed(self, finding: Finding) -> bool:
        codes = self.suppressed_codes(finding.line)
        if codes is None:
            return False
        return not codes or finding.code in codes


class Checker(abc.ABC):
    """One registered invariant.

    Subclasses set ``name`` (registry key), ``code`` (stable finding
    prefix), ``description`` (one line, shown by ``repro check --list``),
    and override :meth:`check_module`.
    """

    name: str = "?"
    code: str = "RC000"
    description: str = ""
    default_severity: str = Severity.ERROR

    def check_module(self, module: Module) -> Iterable[Finding]:
        """Per-file pass; called once per parsed module."""
        return ()

    def finding(
        self,
        module_or_rel: Module | str,
        line: int,
        message: str,
        fix_hint: str = "",
        severity: str | None = None,
    ) -> Finding:
        """Convenience constructor stamping this checker's identity."""
        rel = module_or_rel.rel if isinstance(module_or_rel, Module) else module_or_rel
        return Finding(
            path=rel,
            line=line,
            code=self.code,
            checker=self.name,
            severity=severity if severity is not None else self.default_severity,
            message=message,
            fix_hint=fix_hint,
        )


_REGISTRY: dict[str, Checker] = {}


def register_checker(cls: type[Checker]) -> type[Checker]:
    """Class decorator: instantiate and register a :class:`Checker`."""
    inst = cls()
    if inst.name in _REGISTRY and type(_REGISTRY[inst.name]) is not cls:
        raise ValueError(f"checker {inst.name!r} already registered")
    codes = {c.code for n, c in _REGISTRY.items() if n != inst.name}
    if inst.code in codes:
        raise ValueError(f"checker code {inst.code!r} already registered")
    _REGISTRY[inst.name] = inst
    return cls


def get_checker(name: str) -> Checker:
    """Fetch a registered checker by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown checker {name!r}; available: {available_checkers()}"
        ) from None


def available_checkers() -> list[str]:
    """Names of all registered checkers, sorted."""
    return sorted(_REGISTRY)
