"""In-memory span recorder for the benchmark's traced run.

The traced run puts this directory on ``PYTHONPATH``; its
``sitecustomize`` calls :func:`install` in every Python process the
benchmark starts (the client, the pool workers, the HTTP service).
:func:`install` replaces the functions each layer's callers look up at call
time (``repro.engine.builders.spectral_lower_bound``,
``repro.serve.service.read_request``, ...) with timing wrappers.  The
program itself is unchanged: the spans are recorded around the calls into
each layer, from the benchmark's own code.

A span is ``(name, start_ns, end_ns, id, parent, request, thread, attrs)``.
The parent is the enclosing span in the same thread or asyncio task; the
request id is the id of the enclosing ``serve.handle`` span (or of a
benchmark repetition), so the spans of one request share it.  Spans stay
in memory and each process writes its own file at exit.

Standard library only; ``repro`` modules are imported inside
:func:`install`.
"""

from __future__ import annotations

import atexit
import contextlib
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Iterator

__all__ = ["HOOKS", "aggregate", "install", "paused", "span"]

TRACE_ENV = "PERFBENCH_TRACE_DIR"

#: (module, attribute, span name): the layer boundaries, at the names their
#: callers resolve.  ``Class.method`` patches the class attribute.
HOOKS: tuple[tuple[str, str, str], ...] = (
    ("repro.engine.builders", "dec_graph", "cdag.build"),
    ("repro.engine.builders", "spectral_lower_bound", "spectral.eig"),
    ("repro.engine.builders", "fiedler_sweep_cut", "spectral.sweepcut"),
    ("repro.engine.builders", "decode_cone_upper_bound", "cone"),
    ("repro.core.expansion", "exact_edge_expansion_v2", "exact.scan"),
    ("repro.engine.grid", "evaluate_point", "grid.point"),
    ("repro.engine.grid", "dfs_io_model", "io_model"),
    ("repro.engine.grid", "rect_dfs_io_model", "io_model"),
    ("repro.engine.cache", "EngineCache.get_arrays", "cache.get"),
    ("repro.engine.cache", "EngineCache.put_arrays", "cache.put"),
    ("repro.engine.pool", "submit_batch", "pool.submit"),
    ("repro.engine.pool", "submit_one", "pool.submit"),
    # The task entry points the pool ships by reference; the worker-side
    # copies resolve to the worker's wrappers, so these time worker compute.
    ("repro.engine.grid", "_pool_point_task", "pool.worker_compute"),
    ("repro.core.exact", "_pool_scan_span", "pool.worker_compute"),
    ("repro.serve.jobs", "_pool_job_task", "pool.worker_compute"),
    ("repro.engine.planner", "plan", "plan"),
    ("repro.engine.scaling", "scaling_sweep", "scaling"),
    ("repro.serve.service", "read_request", "serve.read"),
    # The first line read of a request includes the keep-alive idle wait.
    ("repro.serve.http", "_read_line", "serve.read_line"),
    ("repro.serve.service", "parse_job", "serve.parse"),
    ("repro.serve.service", "json_response", "serve.encode"),
    ("repro.serve.http", "Response.encode", "serve.encode"),
    ("repro.serve.service", "ExpansionService.handle", "serve.handle"),
    ("repro.serve.service", "ExpansionService._dispatch", "serve.dispatch"),
    ("repro.serve.service", "run_job_inline", "serve.job"),
)

#: Spans that start a new request id.
_REQUEST_ROOTS = frozenset({"serve.handle"})

_SPANS: list[tuple[Any, ...]] = []
_IDS = itertools.count(1)
_CURRENT: contextvars.ContextVar[tuple[int, int]] = contextvars.ContextVar(
    "perfbench_span", default=(0, 0)
)
_MISSING: list[str] = []
_INSTALLED = False
_PAUSED = False


@contextlib.contextmanager
def paused() -> Iterator[None]:
    """Record nothing inside: the benchmark's own checks call the library too."""
    global _PAUSED
    _PAUSED = True
    try:
        yield
    finally:
        _PAUSED = False


def _attrs(kwargs: dict[str, Any]) -> dict[str, Any] | None:
    jobs = kwargs.get("jobs")
    return {"jobs": jobs} if isinstance(jobs, int) else None


def _enter(name: str) -> tuple[int, int, int, contextvars.Token[tuple[int, int]]]:
    parent, rid = _CURRENT.get()
    sid = next(_IDS)
    if name in _REQUEST_ROOTS:
        rid = sid
    return sid, parent, rid, _CURRENT.set((sid, rid))


def _wrap(fn: Callable[..., Any], name: str) -> Callable[..., Any]:
    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def awrapper(*args: Any, **kwargs: Any) -> Any:
            if _PAUSED:
                return await fn(*args, **kwargs)
            sid, parent, rid, token = _enter(name)
            start = time.perf_counter_ns()
            try:
                return await fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                _CURRENT.reset(token)
                _SPANS.append(
                    (name, start, end, sid, parent, rid, threading.get_ident(), _attrs(kwargs))
                )

        return awrapper

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if _PAUSED:
            return fn(*args, **kwargs)
        sid, parent, rid, token = _enter(name)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            _CURRENT.reset(token)
            _SPANS.append(
                (name, start, end, sid, parent, rid, threading.get_ident(), _attrs(kwargs))
            )

    return wrapper


class span:
    """Context manager for the benchmark's own spans (repetitions, phases)."""

    def __init__(self, name: str, request: bool = False) -> None:
        self.name = name
        self.request = request

    def __enter__(self) -> "span":
        parent, rid = _CURRENT.get()
        self.sid = next(_IDS)
        self.parent = parent
        self.rid = self.sid if self.request else rid
        self.token = _CURRENT.set((self.sid, self.rid))
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc: object) -> None:
        end = time.perf_counter_ns()
        _CURRENT.reset(self.token)
        _SPANS.append(
            (self.name, self.start, end, self.sid, self.parent, self.rid,
             threading.get_ident(), None)
        )


def install() -> None:
    """Patch every hook once and register the at-exit span dump."""
    global _INSTALLED
    if _INSTALLED or not os.environ.get(TRACE_ENV):
        return
    _INSTALLED = True
    for module_name, attr, name in HOOKS:
        try:
            module = importlib.import_module(module_name)
            owner: Any = module
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            setattr(owner, leaf, _wrap(getattr(owner, leaf), name))
        except (ImportError, AttributeError):
            _MISSING.append(f"{module_name}.{attr}")
    atexit.register(_dump)


def _dump() -> None:
    out = Path(os.environ[TRACE_ENV]) / f"spans-{os.getpid()}.json"
    out.write_text(
        json.dumps(
            {"pid": os.getpid(), "argv": sys.argv, "missing": _MISSING, "spans": _SPANS}
        )
    )


# ---------------------------------------------------------------------- #
# aggregation (run by the orchestrator over every process's file)         #
# ---------------------------------------------------------------------- #


def aggregate(trace_dir: Path) -> dict[str, Any]:
    """Per span name: calls, total, self and max seconds, over all processes.

    Self time is a span's duration minus the durations of its direct
    children (same process and thread, so children nest inside it).
    Attributed spans (``exact.scan`` with ``jobs``) are also grouped as
    ``name[jobs=N]``.  The first ``serve.read_line`` of each ``serve.read``
    waits for the client's next request on a keep-alive connection; those
    are also grouped as ``serve.read.wait``.
    """
    layers: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "max_s": 0.0}
    )
    missing: set[str] = set()
    for path in sorted(trace_dir.glob("spans-*.json")):
        data = json.loads(path.read_text())
        missing.update(data["missing"])
        spans = data["spans"]
        child_ns: dict[tuple[int, int], int] = defaultdict(int)
        first_line: dict[int, tuple[int, int]] = {}
        for name, start, end, sid, parent, rid, tid, attrs in spans:
            if parent:
                child_ns[(parent, tid)] += end - start
            if name == "serve.read_line" and start < first_line.get(parent, (start + 1, 0))[0]:
                first_line[parent] = (start, sid)
        waits = {sid for _start, sid in first_line.values()}
        for name, start, end, sid, parent, rid, tid, attrs in spans:
            dur = (end - start) / 1e9
            self_s = dur - child_ns.get((sid, tid), 0) / 1e9
            keys = [name]
            if attrs:
                keys.append(name + "".join(f"[{k}={v}]" for k, v in sorted(attrs.items())))
            if sid in waits:
                keys.append("serve.read.wait")
            for key in keys:
                row = layers[key]
                row["calls"] += 1
                row["total_s"] += dur
                row["self_s"] += self_s
                row["max_s"] = max(row["max_s"], dur)
    return {"layers": dict(layers), "missing": sorted(missing)}
