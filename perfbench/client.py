"""One workload run in a fresh process: set up, print READY, measure, check.

Started by ``run.py`` as ``python3 perfbench/client.py --workload W
--seed N --seconds S --out FILE`` with ``PYTHONPATH=src`` (plus the trace
hook for the traced run).  It drives the program only through public entry
points: ``repro.engine.grid.run_grid``,
``repro.core.expansion.exact_edge_expansion``,
``repro.engine.pool.prewarm``/``shutdown_pool`` and, for ``serve``,
``python -m repro serve`` over HTTP.  Everything it measures and checks
goes to ``--out`` as JSON; ``run.py`` turns that into metrics.

Top-level imports are standard library only: pool workers re-import this
module as their main module, and the ``sweep``/``exact`` set-up time counts
from process start to READY.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import math
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

from common import (
    DEGENERATE_POINTS,
    P99_LIMIT_MS,
    WORK_DIR,
    cpu_seconds,
    finite,
    nproc,
    percentile,
    tail_percentile,
    tree_hwm_kb,
    vm_hwm_kb,
    write_json,
)

try:  # present on sys.path only in the traced run
    from pbtrace import paused, span
except ImportError:
    paused, span = contextlib.nullcontext, None

# ---------------------------------------------------------------------- #
# fixed inputs                                                            #
# ---------------------------------------------------------------------- #

#: The paper's grid as two cartesian blocks: 40 + 60 = 100 points and 65
#: artifact builds when cold.
GRID_BLOCKS = (
    (("strassen", "winograd"), (1, 2, 3, 4, 5)),
    (("strassen2x", "hybrid4", "classical3", "strassen122", "classical221"), (1, 2, 3)),
)
GRID_MEMORIES = (48, 192, 768, 3072)
COLD_BUILDS = 65

#: Warm re-runs per cold repetition, each in a fresh EngineCache over the
#: populated root (a warm run is short, so it gets more samples).
WARM_PASSES = 3

#: Spot values of the cold grid: exact Dec_1 and Dec_2 (classical221, 28
#: vertices), a spectral sandwich, cone-only upper bounds and the
#: depth-first I/O model.  Exact arithmetic is pinned bit for bit; the
#: eigensolver's bound gets a relative tolerance of 1e-9.
GRID_PINS = {
    ("strassen", 1, 48): {"h_lower": 0.15, "h_upper": 0.15, "witness_size": 5,
                          "method": "exact", "measured_words": 12},
    ("classical221", 2, 192): {"h_upper": 0.0, "witness_size": 7, "method": "exact",
                               "measured_words": 24},
    ("strassen", 4, 3072): {"h_lower": 0.003329320238416785, "h_upper": 0.014486192847442281,
                            "witness_size": 2209, "provenance": "cheeger+sweep"},
    ("winograd", 5, 768): {"h_lower": None, "h_upper": 0.006082493822467212,
                           "method": "cone-only", "measured_words": 20736},
    ("strassen", 5, 3072): {"h_upper": 0.008109991763289616, "witness_size": 5261,
                            "io_lower_bound": 2048.0},
}
SPECTRAL_RTOL = 1e-9

EXACT_N = 30
EXACT_H = 0.12222222222222222

# ---------------------------------------------------------------------- #
# engine workloads (sweep, exact)                                         #
# ---------------------------------------------------------------------- #


def _setup() -> dict[str, float]:
    """Import the package, load the native kernel, start nproc pool workers.

    Ready means every worker has answered one task, so the first timed
    batch finds them booted.
    """
    t0 = time.perf_counter()
    import repro  # noqa: F401
    from repro.core import _native
    from repro.engine import pool

    t1 = time.perf_counter()
    _native.load()
    t2 = time.perf_counter()
    _start_pool(pool)
    t3 = time.perf_counter()
    return {"import_s": t1 - t0, "native_load_s": t2 - t1, "pool_start_s": t3 - t2}


def _start_pool(pool: Any) -> None:
    width = nproc()
    pool.prewarm(width)
    if width > 1:
        pool.submit_batch(abs, [0] * width, workers=width, chunksize=1)


def _rows_json(reports: list[Any]) -> str:
    """The grid rows as strict JSON (NaN -> null), via the public emitter."""
    rows = []
    for report in reports:
        rows.extend(json.loads(report.to_json())["rows"])
    return json.dumps(rows, sort_keys=True)


def _check_pins(rows: list[dict[str, Any]]) -> list[str]:
    errors = []
    index = {(r["scheme"], r["k"], r["M"]): r for r in rows}
    for point, expect in GRID_PINS.items():
        row = index.get(point)
        if row is None:
            errors.append(f"grid point {point} missing")
            continue
        for field, want in expect.items():
            got = row.get(field)
            if row.get("provenance") == "cheeger+sweep" and isinstance(want, float):
                ok = isinstance(got, float) and math.isclose(got, want, rel_tol=SPECTRAL_RTOL)
            else:
                ok = got == want
            if not ok:
                errors.append(f"{point} {field}={got!r}, pinned {want!r}")
    return errors


def _grid(workers: int, cache: Any) -> list[Any]:
    from repro.engine.grid import GridSpec, run_grid

    return [
        run_grid(GridSpec(schemes, ks, GRID_MEMORIES), workers=workers, cache=cache)
        for schemes, ks in GRID_BLOCKS
    ]


def _phase(name: str) -> Any:
    """A benchmark-level span in the traced run (its id tags the spans under it)."""
    return contextlib.nullcontext() if span is None else span(f"bench.{name}", request=True)


def run_sweep(args: argparse.Namespace, work: Path) -> dict[str, Any]:
    from repro.engine import pool
    from repro.engine.cache import EngineCache

    width = nproc()
    cold, warm, dup_builds, disk_bytes = [], [], [], []
    counters: dict[str, int] = {}
    errors: list[str] = []
    reference_rows: str | None = None
    worker_kb = 0
    deadline = time.perf_counter() + args.seconds
    rep = 0
    while rep < 3 or time.perf_counter() < deadline:
        # Cold means cold: a fresh cache root and fresh pool workers (they
        # memoize one cache per root), started before the clock runs.
        root = work / f"cache-{rep}"
        pool.shutdown_pool()
        _start_pool(pool)
        with _phase("sweep.cold"):
            t0 = time.perf_counter()
            cold_reports = _grid(width, EngineCache(root))
            t1 = time.perf_counter()
        worker_kb = max(worker_kb, tree_hwm_kb(os.getpid()) - vm_hwm_kb(os.getpid()))
        cold.append(t1 - t0)
        cold_builds = sum(r.stats["builds"] for r in cold_reports)
        dup_builds.append(cold_builds - COLD_BUILDS)
        if cold_builds < COLD_BUILDS:
            errors.append(f"rep {rep}: cold grid built {cold_builds} < {COLD_BUILDS} artifacts")
        cold_json = _rows_json(cold_reports)
        warm_reports = []
        for _ in range(WARM_PASSES):
            with _phase("sweep.warm"):
                t2 = time.perf_counter()
                warm_cache = EngineCache(root)
                reports = _grid(1, warm_cache)
                t3 = time.perf_counter()
            warm.append(t3 - t2)
            warm_builds = sum(r.stats["builds"] for r in reports)
            if warm_builds != 0:
                errors.append(f"rep {rep}: warm grid built {warm_builds} artifacts")
            if _rows_json(reports) != cold_json:
                errors.append(f"rep {rep}: warm rows differ from cold rows")
            warm_reports += reports
        disk_bytes.append(warm_cache.info()["bytes"])
        for report in cold_reports + warm_reports:
            for name, value in report.stats.items():
                counters[name] = counters.get(name, 0) + int(value)
        if reference_rows is None:
            reference_rows = cold_json
            errors += _check_pins(json.loads(cold_json))
        elif cold_json != reference_rows:
            errors.append(f"rep {rep}: cold rows differ from rep 0")
        shutil.rmtree(root, ignore_errors=True)
        rep += 1
    pool_stats = pool.pool_stats_snapshot()
    pool.shutdown_pool()
    with paused():
        probe = _degenerate_probe()
    points = sum(len(s) * len(k) * len(GRID_MEMORIES) for s, k in GRID_BLOCKS)
    return {
        "a_s": cold,
        "b_s": warm,
        # Distinct queries, not repetitions: the same in every run.
        "attempted": points + probe["attempted"],
        "failed": len(probe["failures"]),
        "probe": probe,
        "errors": errors,
        "digest": reference_rows,
        "reps": rep,
        "cache": counters,
        "cache_disk_bytes": max(disk_bytes),
        "pool": pool_stats,
        "pool_dup_builds": max(dup_builds),
        "worker_hwm_kb": worker_kb,
    }


def _degenerate_probe() -> dict[str, Any]:
    """Untimed: the valid grid points whose certified interval is empty today."""
    from repro.engine.builders import cached_estimate
    from repro.engine.cache import EngineCache

    cache = EngineCache(disk=False)
    failures = []
    for scheme, k in DEGENERATE_POINTS:
        try:
            cached_estimate(scheme, k, policy="auto", cache=cache)
        except ValueError as exc:
            failures.append({"scheme": scheme, "k": k, "error": str(exc)})
    return {"attempted": len(DEGENERATE_POINTS), "failures": failures}


def run_exact(args: argparse.Namespace, work: Path) -> dict[str, Any]:
    from repro.cdag.build import layered_circulant_cdag
    from repro.core.exact import native_backend_available
    from repro.core.expansion import exact_edge_expansion
    from repro.engine import pool

    width = nproc()
    g = layered_circulant_cdag(EXACT_N)
    serial, parallel, errors = [], [], []
    witness: tuple[int, ...] | None = None
    deadline = time.perf_counter() + args.seconds
    rep = 0
    while rep < 3 or time.perf_counter() < deadline:
        sizes = []
        for jobs, out in ((1, serial), (width, parallel)):
            with _phase(f"exact.jobs{jobs}"):
                t0 = time.perf_counter()
                h, mask = exact_edge_expansion(g, jobs=jobs)
                out.append(time.perf_counter() - t0)
            if h != EXACT_H:
                errors.append(f"rep {rep} jobs={jobs}: h={h!r}, pinned {EXACT_H!r}")
            sizes.append(int(mask.sum()))
            if witness is None:
                witness = tuple(int(i) for i in mask.nonzero()[0])
        if sizes[0] != sizes[1]:
            errors.append(f"rep {rep}: witness sizes differ across jobs: {sizes}")
        rep += 1
    worker_kb = tree_hwm_kb(os.getpid()) - vm_hwm_kb(os.getpid())
    pool_stats = pool.pool_stats_snapshot()
    pool.shutdown_pool()
    return {
        "a_s": serial,
        "b_s": parallel,
        # Distinct queries (jobs=1 and jobs=nproc), not repetitions.
        "attempted": 2,
        "failed": 0,
        "errors": errors,
        "digest": json.dumps({"h": EXACT_H, "witness": witness}),
        "reps": rep,
        "backend": "native" if native_backend_available() else "bitset",
        "n": EXACT_N,
        "pool": pool_stats,
        "worker_hwm_kb": worker_kb,
    }


# ---------------------------------------------------------------------- #
# serve workload: open loop against `python -m repro serve`               #
# ---------------------------------------------------------------------- #

#: Rate steps (requests per second).  Both steps together last about the
#: run's seconds: a 25 s run sends 833 requests per step, a 30 s run 1000.
#: 200 req/s overloads a 2-CPU host while the first asks build, so the
#: high step is 100 req/s.
RATES = (("low", 50.0), ("high", 100.0))


def requests_per_step(seconds: int) -> int:
    return max(20, round(seconds / sum(1.0 / rate for _step, rate in RATES)))


#: ~15 (scheme, k) keys in Zipf popularity order (fixed, so every seed asks
#: the same hot keys most).
EXPANSION_KEYS = (
    [("strassen", k) for k in (2, 3, 4, 1, 5)]
    + [("winograd", k) for k in (2, 3, 4, 1, 5)]
    + [("strassen2x", 1), ("strassen2x", 2), ("hybrid4", 1), ("hybrid4", 2), ("classical221", 2)]
)
ZIPF_S = 1.1
MIX = (("bounds", 0.60), ("expansion", 0.30), ("plan", 0.05), ("scaling", 0.04), ("sweep", 0.01))
DEGENERATE_SHARE = 0.002
TOPOLOGIES = ("uniform", "fat-tree:4x2", "torus:4x4", "gpu:2x4")


def _target(kind: str, rng: random.Random, zipf: list[float]) -> str:
    if kind == "bounds":
        return (
            f"/bounds?n={rng.randint(16, 1 << 16)}&M={rng.randint(64, 1 << 20)}"
            f"&p={rng.randint(1, 4096)}"
        )
    if kind == "expansion":
        scheme, k = rng.choices(EXPANSION_KEYS, weights=zipf)[0]
        return f"/expansion?scheme={scheme}&k={k}"
    if kind == "plan":
        return f"/plan?n={rng.choice((1024, 4096))}&topology={rng.choice(TOPOLOGIES)}"
    if kind == "scaling":
        return f"/scaling?n={rng.choice((16, 28))}&p_max={rng.choice((8, 16))}"
    return f"/sweep?schemes=strassen,winograd&k_max={rng.choice((2, 3))}&memories=48,192"


def make_schedule(seed: int, step: str, rate: float, n: int) -> list[tuple[float, str, str]]:
    """Seeded Poisson arrivals: ``(due offset s, kind, target)`` per request.

    The degenerate-but-valid share is placed at seeded positions with a
    fixed count, so every seed sends the same number of them.
    """
    rng = random.Random(f"{seed}:{step}")
    zipf = [1.0 / (i + 1) ** ZIPF_S for i in range(len(EXPANSION_KEYS))]
    kinds = [k for k, _ in MIX]
    weights = [w for _, w in MIX]
    degenerate = set(rng.sample(range(n), max(1, round(DEGENERATE_SHARE * n))))
    out, t = [], 0.0
    for i in range(n):
        t += rng.expovariate(rate)
        if i in degenerate:
            scheme, k = rng.choice(DEGENERATE_POINTS)
            out.append((t, "degenerate", f"/expansion?scheme={scheme}&k={k}"))
        else:
            kind = rng.choices(kinds, weights=weights)[0]
            out.append((t, kind, _target(kind, rng, zipf)))
    return out


#: Payload fields that report how the serving cache was used, not the
#: answer (a sweep counts builds or hits depending on what ran before it).
_VOLATILE = ("stats",)


def _answer(body: bytes) -> str:
    """A 200 body in canonical form, without its volatile fields."""
    payload = json.loads(body)
    for field in _VOLATILE:
        payload.pop(field, None)
    return json.dumps(payload, sort_keys=True)


async def _read_response(reader: asyncio.StreamReader) -> tuple[int, bytes, bool]:
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("server closed the connection")
    status = int(status_line.split()[1])
    length, keep_alive = 0, True
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        name = name.strip().lower()
        if name == "content-length":
            length = int(value)
        elif name == "connection":
            keep_alive = value.strip().lower() == "keep-alive"
    return status, await reader.readexactly(length), keep_alive


async def _open_loop(
    port: int, schedule: list[tuple[float, str, str]], conns: int
) -> tuple[list[dict[str, Any]], int]:
    """Send on schedule over ``conns`` keep-alive connections.

    Requests that come due while every connection is busy wait in a queue;
    each is timed from its due time, so a stall also counts against the
    requests queued behind it.
    """
    loop = asyncio.get_running_loop()
    queue: asyncio.Queue[tuple[int, float] | None] = asyncio.Queue()
    records: list[dict[str, Any]] = [{} for _ in schedule]

    async def worker() -> None:
        reader = writer = None
        while True:
            item = await queue.get()
            if item is None:
                break
            i, due = item
            sent = loop.time()
            status, body = 0, b""
            try:
                if writer is None:
                    reader, writer = await asyncio.open_connection("127.0.0.1", port)
                assert reader is not None
                writer.write(f"GET {schedule[i][2]} HTTP/1.1\r\nhost: bench\r\n\r\n".encode())
                status, body, keep_alive = await asyncio.wait_for(_read_response(reader), 60)
            except (OSError, ConnectionError, asyncio.TimeoutError, ValueError,
                    asyncio.IncompleteReadError):
                keep_alive = False
            if not keep_alive and writer is not None:
                writer.close()
                reader = writer = None
            records[i] = {"due": due, "sent": sent, "done": loop.time(), "status": status,
                          "body": _answer(body) if status == 200 else None}
        if writer is not None:
            writer.close()

    tasks = [asyncio.ensure_future(worker()) for _ in range(conns)]
    t0 = loop.time() + 0.05
    backlog_end = 0
    for i, (offset, _kind, _target) in enumerate(schedule):
        delay = t0 + offset - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        queue.put_nowait((i, t0 + offset))
        if i == len(schedule) - 1:
            backlog_end = queue.qsize()
    for _ in tasks:
        queue.put_nowait(None)
    await asyncio.gather(*tasks)
    return records, backlog_end


async def _http_get(port: int, target: str) -> tuple[int, Any]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(f"GET {target} HTTP/1.1\r\nhost: bench\r\nconnection: close\r\n\r\n".encode())
        status, body, _ = await asyncio.wait_for(_read_response(reader), 30)
    finally:
        writer.close()
    return status, json.loads(body) if body else None


class Service:
    """A freshly booted ``python -m repro serve`` over an empty cache dir."""

    def __init__(self, work: Path, name: str) -> None:
        self.cache_dir = work / f"serve-{name}"
        env = dict(os.environ, REPRO_CACHE_DIR=str(self.cache_dir))
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        try:
            assert self.proc.stderr is not None
            line = self.proc.stderr.readline().decode()
            if "listening on http://" not in line:
                raise RuntimeError(f"service did not start: {line!r}")
            self.port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
            while asyncio.run(_http_get(self.port, "/healthz"))[0] != 200:
                time.sleep(0.01)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - t0
        self.ready_cpu_s = cpu_seconds(self.proc.pid)

    def stop(self) -> int:
        """SIGINT (a clean shutdown, so the traced service writes its spans)."""
        hwm = vm_hwm_kb(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stderr is not None:
            self.proc.stderr.close()
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        return hwm


def _step_stats(schedule: list[tuple[float, str, str]], records: list[dict[str, Any]],
                backlog_end: int, conns: int) -> dict[str, Any]:
    """Latency and load-generator figures of one rate step."""
    lat, lag, hit, build, slowest = [], [], [], [], []
    seen: set[str] = set()
    ok = 0
    for (_off, kind, target), rec in zip(schedule, records):
        good = rec["status"] == 200
        ok += good
        ms = (rec["done"] - rec["due"]) * 1000.0 if good else math.inf
        lat.append(ms)
        lag.append((rec["sent"] - rec["due"]) * 1000.0)
        (hit if target in seen else build).append(ms)
        slowest.append((ms, round(rec["due"] - records[0]["due"], 3), kind, target not in seen,
                        target))
        seen.add(target)
    pct = tail_percentile(len(lat))
    p_tail = percentile(lat, pct)
    return {
        "sent": len(lat), "ok": ok, "failed": len(lat) - ok,
        "p50_ms": percentile(lat, 50), "tail_pct": pct, "tail_ms": p_tail,
        "lag_p99_ms": percentile(lag, tail_percentile(len(lag))),
        "backlog_end": backlog_end,
        "keeps_up": p_tail <= P99_LIMIT_MS and backlog_end <= conns,
        "hit_p50_ms": percentile(hit, 50) if hit else 0.0,
        "hit_n": len(hit),
        "build_tail_ms": percentile(build, tail_percentile(len(build))),
        "build_tail_pct": tail_percentile(len(build)),
        "build_n": len(build),
        # Raw latencies, so any other percentile can be recomputed from the record.
        "latencies_ms": [round(x, 3) if math.isfinite(x) else None for x in lat],
        # (latency ms, due s, kind, first ask, target) of the slowest 1%
        "slowest": [[finite(x[0]), *x[1:]]
                    for x in sorted(slowest, reverse=True)[: len(lat) // 100 + 1]],
    }


def run_serve(args: argparse.Namespace, work: Path) -> dict[str, Any]:
    conns = nproc()
    n = requests_per_step(args.seconds)
    steps: dict[str, Any] = {}
    answers: dict[str, str] = {}
    errors: list[str] = []
    setup, service_kb, client_kb = [], 0, 0
    for step, rate in RATES:
        schedule = make_schedule(args.seed, step, rate, n)
        service = Service(work, step)
        try:
            setup.append(service.setup_s)
            records, backlog = asyncio.run(_open_loop(service.port, schedule, conns))
            _status, info = asyncio.run(_http_get(service.port, "/cache/info"))
            cpu_s = cpu_seconds(service.proc.pid) - service.ready_cpu_s
        finally:
            service_kb = max(service_kb, service.stop())
        client_kb = max(client_kb, vm_hwm_kb(os.getpid()))
        stats = _step_stats(schedule, records, backlog, conns)
        stats.update(rate=rate, service=info["service"],
                     cache={**info["stats"], "disk_bytes": info["bytes"]},
                     cpu_ms_per_request=cpu_s * 1e3 / stats["sent"])
        steps[step] = stats
        for (_off, _kind, target), rec in zip(schedule, records):
            if rec["body"] is None:
                continue
            if answers.setdefault(target, rec["body"]) != rec["body"]:
                errors.append(f"{target}: two different 200 answers")
    # One more boot for the set-up median.
    boot = Service(work, "boot")
    setup.append(boot.setup_s)
    service_kb = max(service_kb, boot.stop())
    with paused():
        errors += _check_answers(answers, work)
    return {
        "a_ms": steps["low"]["cpu_ms_per_request"], "b_ms": steps["high"]["cpu_ms_per_request"],
        "setup_s": setup,
        "steps": steps,
        "attempted": sum(s["sent"] for s in steps.values()),
        "failed": sum(s["failed"] for s in steps.values()),
        "errors": errors,
        "digest": json.dumps(answers, sort_keys=True),
        "distinct_answers": len(answers),
        "service_hwm_kb": service_kb,
        "client_hwm_kb": client_kb,
    }


def _check_answers(answers: dict[str, str], work: Path) -> list[str]:
    """Every distinct 200 answer must equal the library's own answer."""
    from urllib.parse import parse_qsl, urlsplit

    from repro.engine.cache import EngineCache
    from repro.serve.jobs import build_payload, parse_job
    from repro.util.jsonutil import jsonable

    cache = EngineCache(work / "check-cache")
    errors = []
    for target, body in sorted(answers.items()):
        split = urlsplit(target)
        job = parse_job(split.path.strip("/"), dict(parse_qsl(split.query)))
        want = json.dumps(jsonable(build_payload(job, cache)), allow_nan=False)
        if _answer(want.encode()) != body:
            errors.append(f"{target}: served answer differs from the library's")
    return errors


# ---------------------------------------------------------------------- #
# entry point                                                             #
# ---------------------------------------------------------------------- #


def host_record() -> dict[str, Any]:
    """nproc, the BLAS numpy was built against, and any thread env present."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: v for k, v in os.environ.items()
                       if "THREADS" in k or k.startswith(("OMP_", "OPENBLAS_", "MKL_", "BLIS_"))},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("sweep", "exact", "serve"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR / "tmp"))
    try:
        phases: dict[str, float] = {}
        if args.workload != "serve":
            phases = _setup()
        print("READY", flush=True)
        if args.setup_only:
            return 0
        run = {"sweep": run_sweep, "exact": run_exact, "serve": run_serve}[args.workload]
        result = run(args, work)
        result["setup_phases"] = phases
        result["host"] = host_record()
        result["client_hwm_kb"] = max(result.get("client_hwm_kb", 0), vm_hwm_kb(os.getpid()))
        write_json(args.out, result)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
