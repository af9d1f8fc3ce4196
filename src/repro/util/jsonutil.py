"""Strict-JSON sanitization shared by every report emitter.

All the machine-readable outputs (`GridReport.to_json`,
`ScalingReport.to_json`, the CLI's expansion payload, serve responses) are
dumped with ``allow_nan=False`` so downstream parsers never see the
non-standard ``NaN``/``Infinity`` tokens.  :func:`jsonable` is the single
place the sanitization rule lives: non-finite floats map to ``None``,
numpy scalars/arrays decay to their Python equivalents, and anything else
unserializable raises instead of silently corrupting a report.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

__all__ = ["jsonable"]


def jsonable(value: Any) -> Any:
    """Recursively map ``value`` onto strict-JSON-serializable types."""
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        f = float(value)
        return f if math.isfinite(f) else None
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, (str, type(None))):
        return value
    if isinstance(value, range):
        return list(value)
    raise TypeError(f"value {value!r} is not strict-JSON serializable")
