"""The diagnostic record every checker emits."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


class Severity:
    """String severity levels, ordered for exit-code decisions."""

    ERROR = "error"
    WARNING = "warning"

    ORDER = (WARNING, ERROR)


@dataclass(frozen=True, order=True)
class Finding:
    """One diagnostic: where, what, how bad, and how to fix it."""

    path: str  # repo-relative posix path
    line: int  # 1-based; 0 when the finding is file-level
    code: str  # stable checker code, e.g. "RC101"
    checker: str  # registry name, e.g. "cache-fingerprint"
    severity: str  # Severity.ERROR | Severity.WARNING
    message: str  # one-line statement of the defect
    fix_hint: str = ""  # how a developer should resolve it

    def as_dict(self) -> dict[str, Any]:
        return {
            "path": self.path,
            "line": self.line,
            "code": self.code,
            "checker": self.checker,
            "severity": self.severity,
            "message": self.message,
            "fix_hint": self.fix_hint,
        }

    def render(self) -> str:
        hint = f"  [{self.fix_hint}]" if self.fix_hint else ""
        return (
            f"{self.path}:{self.line}: {self.code} {self.severity}: "
            f"{self.message}{hint}"
        )
