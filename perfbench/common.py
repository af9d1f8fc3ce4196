"""Helpers shared by the benchmark's orchestrator, client and tracer.

Standard library only: ``run.py`` imports this before any program code, so
nothing here may pull in numpy, scipy or ``repro``.
"""

from __future__ import annotations

import json
import math
import os
import statistics
from pathlib import Path
from typing import Any, Iterable, Sequence

#: Where every run keeps its work files, relative to the checkout root.
WORK_DIR = Path(".perfbench")

#: Points of the paper's grid the certified interval cannot represent today:
#: a disconnected decode graph whose Cheeger bound is float noise above a
#: sweep cut of exactly 0.  Valid queries, so each failure counts as failed.
DEGENERATE_POINTS = (("classical2", 3), ("classical2", 4), ("classical122", 5), ("classical221", 5))

#: Latency limit for the serve workload's highest sustainable rate.
P99_LIMIT_MS = 250.0


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else math.nan


def quartiles(values: Sequence[float]) -> tuple[float, float]:
    """First and third quartile (``statistics.quantiles`` default method)."""
    if len(values) < 2:
        v = values[0] if values else math.nan
        return float(v), float(v)
    q = statistics.quantiles(values, n=4)
    return float(q[0]), float(q[2])


def tail_percentile(n: int) -> float:
    """The highest percentile with at least ten samples beyond it (max 99)."""
    if n < 11:
        return 50.0
    return min(99.0, math.floor(100.0 * (1.0 - 10.0 / n)))


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile; ``inf`` entries (failed requests) sort last."""
    if not values:
        return math.nan
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def vm_hwm_kb(pid: int) -> int:
    """Peak resident set (VmHWM) of a live process, in kB; 0 once it is gone."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time of a live process, all threads; 0 once gone."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[-1].split()
    except OSError:
        return 0.0
    # utime and stime are fields 14 and 15 of stat(5); 12 and 13 after ')'.
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def child_pids(parent: int) -> list[int]:
    """Live direct children of ``parent`` (pool workers, resource tracker)."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # The command name may hold spaces; fields resume after its ')'.
        fields = stat.rsplit(")", 1)[-1].split()
        if len(fields) > 1 and int(fields[1]) == parent:
            out.append(int(entry))
    return out


def tree_hwm_kb(root: int) -> int:
    """VmHWM summed over ``root`` and its direct children."""
    return vm_hwm_kb(root) + sum(vm_hwm_kb(pid) for pid in child_pids(root))


def write_json(path: Path, obj: Any) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(obj, indent=1, sort_keys=True, allow_nan=False))
    os.replace(tmp, path)


def finite(value: float) -> float | None:
    return value if math.isfinite(value) else None


def summary(values: Iterable[float]) -> dict[str, Any]:
    """Median, quartiles and count of a sample, as strict JSON."""
    vals = list(values)
    q1, q3 = quartiles(vals) if vals else (math.nan, math.nan)
    return {"n": len(vals), "median": finite(median(vals)), "q1": finite(q1), "q3": finite(q3)}
