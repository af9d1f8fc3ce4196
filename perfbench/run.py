"""The repository benchmark: one command, timed from outside the program.

    python3 perfbench/run.py --workload {sweep,exact,serve,all} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout.  Each workload runs in fresh processes
(``perfbench/client.py``) against the checkout's ``src/``.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The lines before it name every
metric of the workload with its unit, in the program's own terms.  See
``perfbench/README.md`` for the workloads and the metric map.

The work files (compiled native kernel, cache roots, traces, run records)
live under ``.perfbench/`` in the checkout; nothing else is written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from common import WORK_DIR, median, nproc, quartiles, summary, write_json
from tracehook.pbtrace import aggregate

HERE = Path(__file__).resolve().parent
CLIENT = HERE / "client.py"
TRACEHOOK = HERE / "tracehook"
WORKLOADS = ("sweep", "exact", "serve")

#: A client that has not finished by then has hung.
CHILD_TIMEOUT_S = 150.0

#: Set-up samples per run for sweep/exact: fresh processes timed to READY.
SETUP_SAMPLES = 3

END_TO_END = {
    "setup_s": "s",
    "time_ms.a": "ms",
    "time_ms.b": "ms",
    "peak_rss_mb": "MB",
}

_STEPS = ("low", "high")
PER_LAYER = {
    # Reported, not gated (see README): the tails of the end-to-end
    # timings, and the serve latency medians.
    "tail_ms.a": "ms",
    "tail_ms.b": "ms",
    "lat_p50_ms.low": "ms",
    "lat_p50_ms.high": "ms",
    **{f"spectral.eig.{m}": u for m, u in (("calls", "count"), ("s", "s"), ("max_s", "s"))},
    "spectral.sweepcut.s": "s",
    "cone.calls": "count",
    "cone.s": "s",
    "cdag.build.calls": "count",
    "cdag.build.s": "s",
    "grid.points": "count",
    "grid.point.s": "s",
    "io_model.calls": "count",
    "io_model.s": "s",
    "exact.scan.calls": "count",
    "exact.scan.s": "s",
    "exact.subsets_per_s": "1/s",
    "exact.parallel_eff": "ratio",
    **{f"cache.{c}": "count" for c in
       ("hits", "misses", "builds", "stores", "evictions", "disk_errors")},
    "cache.hit_ratio": "ratio",
    "cache.get.s": "s",
    "cache.put.s": "s",
    "cache.disk_bytes": "bytes",
    **{f"pool.{c}": "count" for c in
       ("tasks_dispatched", "workers_spawned", "respawns", "serial_tasks")},
    "pool.submit.s": "s",
    "pool.worker_compute.s": "s",
    "pool.utilization": "ratio",
    "pool.dup_builds": "count",
    "setup.import_s": "s",
    "setup.pool_start_s": "s",
    "native.compile_s": "s",
    "plan.s": "s",
    "scaling.s": "s",
    **{f"serve.{p}.s": "s" for p in
       ("read", "parse", "encode", "handle", "job", "executor_wait")},
    **{f"serve.{c}": "count" for c in ("requests", "errors", "deduped")},
    **{f"serve.hit_lat_p50_ms.{s}": "ms" for s in _STEPS},
    **{f"serve.build_lat_p99_ms.{s}": "ms" for s in _STEPS},
    "serve.max_rate_rps": "1/s",
    **{f"loadgen.{c}.{s}": "count" for c in ("sent", "ok", "failed", "backlog_end")
       for s in _STEPS},
    **{f"loadgen.lag_p99_ms.{s}": "ms" for s in _STEPS},
    "failed_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


class BenchError(RuntimeError):
    """A run that cannot produce a result (the benchmark exits non-zero)."""


# ---------------------------------------------------------------------- #
# child processes                                                         #
# ---------------------------------------------------------------------- #


def child_env(trace_dir: Path | None) -> dict[str, str]:
    """The program's environment: the checkout's sources, hermetic caches.

    No BLAS or OpenMP thread variable is set here; whatever the host has is
    recorded in the run record instead.
    """
    env = dict(os.environ)
    paths = [str(Path("src").resolve())]
    if trace_dir is not None:
        paths.append(str(TRACEHOOK))
        env["PERFBENCH_TRACE_DIR"] = str(trace_dir.resolve())
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["REPRO_NATIVE_DIR"] = str((WORK_DIR / "native").resolve())
    env["REPRO_CACHE_DIR"] = str((WORK_DIR / "cache").resolve())
    return env


def run_client(workload: str, seed: int, seconds: int, trace_dir: Path | None = None,
               setup_only: bool = False) -> tuple[float, dict[str, Any]]:
    """Start one client; returns (seconds from spawn to READY, its result)."""
    out = WORK_DIR / "tmp" / f"result-{os.getpid()}-{time.monotonic_ns()}.json"
    cmd = [sys.executable, str(CLIENT), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=child_env(trace_dir), stdout=subprocess.PIPE)
    try:
        assert proc.stdout is not None
        line = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        if line.strip() != b"READY":
            raise BenchError(f"{workload} client failed during set-up")
        proc.stdout.read()
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()
    if code != 0:
        raise BenchError(f"{workload} client exited with code {code}")
    if setup_only:
        return ready_s, {}
    result = json.loads(out.read_text())
    out.unlink()
    return ready_s, result


def prepare() -> dict[str, Any]:
    """Compile the native kernel once per source digest, into the work dir.

    The first preparation in a checkout also compiles the bytecode of the
    modules every client imports, so no timed set-up pays for it.
    """
    digest = hashlib.sha256()
    for path in sorted(Path("src/repro/core/_native").glob("*.c")):
        digest.update(path.read_bytes())
    record_path = WORK_DIR / "native" / "prepare.json"
    if record_path.is_file():
        record = json.loads(record_path.read_text())
        if record.get("digest") == digest.hexdigest():
            return record
    code = (
        "import json, time\n"
        "import repro, repro.serve.service, repro.engine.cli, repro.cdag.build\n"
        "from repro.core import _native\n"
        "t = time.perf_counter(); _native.load(); t = time.perf_counter() - t\n"
        "print(json.dumps({'compile_s': t, 'error': _native.native_build_error()}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(None),
                          stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S, check=True)
    record = {**json.loads(proc.stdout.decode().strip().splitlines()[-1]),
              "digest": digest.hexdigest()}
    write_json(record_path, record)
    return record


# ---------------------------------------------------------------------- #
# metrics                                                                 #
# ---------------------------------------------------------------------- #


def end_to_end(workload: str, res: dict[str, Any], setup: list[float]) -> tuple[dict, list]:
    """The end-to-end metrics, plus the human-readable lines in program terms."""
    if workload == "serve":
        steps = res["steps"]
        m = {"time_ms.a": res["a_ms"], "time_ms.b": res["b_ms"]}
        rss_kb = res["client_hwm_kb"] + res["service_hwm_kb"]
        lines = []
        for step in _STEPS:
            s = steps[step]
            lines.append(f"service_cpu_ms_per_request.{step} = {s['cpu_ms_per_request']:.4f} ms "
                         f"(service CPU after ready / {s['sent']} requests)")
            lines.append(f"lat_p50_ms.{step} = {s['p50_ms']:.3f} ms "
                         f"(n={s['sent']}, {s['rate']:g} req/s, open loop)")
            lines.append(f"lat_p{s['tail_pct']:g}_ms.{step} = {s['tail_ms']:.3f} ms "
                         f"(n={s['sent']}, {s['sent'] - math.ceil(s['tail_pct'] / 100 * s['sent'])}"
                         " samples beyond)")
        lines.append(f"max_rate_rps = {max_rate(steps):g} 1/s (highest step with "
                     f"p{steps['high']['tail_pct']:g} <= 250 ms and no growing backlog)")
    else:
        a_med, b_med = median(res["a_s"]), median(res["b_s"])
        m = {"time_ms.a": a_med * 1e3, "time_ms.b": b_med * 1e3}
        rss_kb = res["client_hwm_kb"] + res["worker_hwm_kb"]
        names = (("sweep_cold_s", "sweep_warm_s") if workload == "sweep"
                 else ("exact_s", "exact_parallel_s"))
        lines = []
        for name, key in zip(names, ("a_s", "b_s")):
            s = summary(res[key])
            lines.append(f"{name} = {s['median']:.4f} s (median of {s['n']} reps; "
                         f"q1 {s['q1']:.4f}, q3 {s['q3']:.4f})")
        if workload == "exact":
            lines.append(f"exact backend = {res['backend']}, n = {res['n']}, jobs = 1 vs {nproc()}")
    m["setup_s"] = median(setup)
    m["peak_rss_mb"] = rss_kb / 1024.0
    lines.insert(0, f"setup_s = {m['setup_s']:.4f} s (median of {len(setup)} fresh starts)")
    lines.append(f"failed_frac = {res['failed'] / res['attempted']:.6f} "
                 f"({res['failed']} failed of {res['attempted']} attempted)")
    lines.append(f"peak_rss_mb = {m['peak_rss_mb']:.1f} MB (VmHWM summed over the program's "
                 "processes)")
    return m, lines


def tails(workload: str, res: dict[str, Any]) -> tuple[float, float]:
    """serve: the highest percentile with ten samples beyond it, per step;
    sweep/exact: the third quartile of the repetitions."""
    if workload == "serve":
        return res["steps"]["low"]["tail_ms"], res["steps"]["high"]["tail_ms"]
    return quartiles(res["a_s"])[1] * 1e3, quartiles(res["b_s"])[1] * 1e3


def max_rate(steps: dict[str, Any]) -> float:
    ok = [s["rate"] for s in steps.values() if s["keeps_up"]]
    return max(ok) if ok else 0.0


def per_layer(workload: str, plain: dict[str, Any], traced: dict[str, Any],
              layers: dict[str, dict[str, float]], prep: dict[str, Any],
              overhead: float) -> dict[str, float]:
    """Per-layer metrics: spans from the traced client, counters from the
    untraced one.  Sums of span time are per repetition of the workload."""
    reps = max(1, traced.get("reps", 1))
    m: dict[str, float] = {name: 0.0 for name in PER_LAYER}

    def total(name: str) -> float:
        return layers.get(name, {}).get("total_s", 0.0) / reps

    def calls(name: str) -> float:
        return layers.get(name, {}).get("calls", 0) / reps

    for name in ("spectral.eig", "cone", "cdag.build", "io_model", "exact.scan"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = total(name)
    m["spectral.eig.max_s"] = layers.get("spectral.eig", {}).get("max_s", 0.0)
    m["spectral.sweepcut.s"] = total("spectral.sweepcut")
    m["grid.points"] = calls("grid.point")
    for name in ("grid.point", "cache.get", "cache.put", "pool.submit", "pool.worker_compute",
                 "plan", "scaling", "serve.parse", "serve.encode", "serve.handle", "serve.job"):
        m[f"{name}.s"] = total(name)
    m["serve.read.s"] = total("serve.read") - total("serve.read.wait")
    m["serve.executor_wait.s"] = max(0.0, total("serve.dispatch") - total("serve.job"))
    if m["pool.submit.s"] > 0:
        m["pool.utilization"] = m["pool.worker_compute.s"] / (m["pool.submit.s"] * nproc())
    m["tail_ms.a"], m["tail_ms.b"] = tails(workload, plain)
    if workload == "serve":
        for step in _STEPS:
            m[f"lat_p50_ms.{step}"] = plain["steps"][step]["p50_ms"]
    m["native.compile_s"] = float(prep.get("compile_s") or 0.0)
    m["failed_frac"] = plain["failed"] / plain["attempted"]
    m["trace.overhead_frac"] = overhead

    if workload == "exact":
        serial = layers.get("exact.scan[jobs=1]")
        if serial and serial["total_s"] > 0:
            m["exact.subsets_per_s"] = 2.0 ** plain["n"] / (serial["total_s"] / serial["calls"])
        m["exact.parallel_eff"] = median(plain["a_s"]) / (nproc() * median(plain["b_s"]))
    if workload in ("sweep", "exact"):
        plain_reps = max(1, plain["reps"])
        for name, value in plain["pool"].items():
            if f"pool.{name}" in m:
                m[f"pool.{name}"] = value / plain_reps
        m["setup.import_s"] = plain["setup_phases"]["import_s"]
        m["setup.pool_start_s"] = plain["setup_phases"]["pool_start_s"]
    if workload == "sweep":
        for name, value in plain["cache"].items():
            m[f"cache.{name}"] = value / plain["reps"]
        m["cache.disk_bytes"] = plain["cache_disk_bytes"]
        m["pool.dup_builds"] = plain["pool_dup_builds"]
    if workload == "serve":
        steps = plain["steps"]
        for step in _STEPS:
            s = steps[step]
            for name, value in s["cache"].items():
                if name == "disk_bytes":
                    m["cache.disk_bytes"] = max(m["cache.disk_bytes"], value)
                else:
                    m[f"cache.{name}"] += value
            for name in ("requests", "errors", "deduped"):
                m[f"serve.{name}"] += s["service"][name]
            for name in ("sent", "ok", "failed", "backlog_end"):
                m[f"loadgen.{name}.{step}"] = s[name]
            m[f"loadgen.lag_p99_ms.{step}"] = s["lag_p99_ms"]
            m[f"serve.hit_lat_p50_ms.{step}"] = s["hit_p50_ms"]
            m[f"serve.build_lat_p99_ms.{step}"] = s["build_tail_ms"]
        m["serve.max_rate_rps"] = max_rate(steps)
    looked_up = m["cache.hits"] + m["cache.misses"]
    m["cache.hit_ratio"] = m["cache.hits"] / looked_up if looked_up else 0.0
    return m


# ---------------------------------------------------------------------- #
# one workload                                                            #
# ---------------------------------------------------------------------- #


def run_workload(workload: str, seed: int, seconds: int, trace: bool,
                 prep: dict[str, Any]) -> tuple[dict[str, Any], list[str], dict[str, Any]]:
    if not trace:
        setup = []
        if workload != "serve":
            for _ in range(SETUP_SAMPLES - 1):
                setup.append(run_client(workload, seed, seconds, setup_only=True)[0])
        ready_s, res = run_client(workload, seed, seconds)
        if workload == "serve":
            setup = res["setup_s"]
        else:
            setup.append(ready_s)
        metrics, lines = end_to_end(workload, res, setup)
        record = {"result": res, "setup_s": setup}
        units = END_TO_END
        errors = res["errors"]
        attempted, failed = res["attempted"], res["failed"]
    else:
        # Half the seconds untraced, half traced, on the same seed: the
        # difference is the tracing overhead, and the results must agree.
        half = max(1, seconds // 2)
        _, plain = run_client(workload, seed, half)
        trace_dir = WORK_DIR / "trace" / f"{workload}-{seed}-{os.getpid()}"
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
        _, traced = run_client(workload, seed, half, trace_dir=trace_dir)
        spans = aggregate(trace_dir)
        plain_a = plain["a_ms"] if workload == "serve" else median(plain["a_s"]) * 1e3
        traced_a = traced["a_ms"] if workload == "serve" else median(traced["a_s"]) * 1e3
        overhead = (traced_a - plain_a) / plain_a
        metrics = per_layer(workload, plain, traced, spans["layers"], prep, overhead)
        errors = plain["errors"] + traced["errors"]
        if plain["digest"] != traced["digest"]:
            errors.append("traced results differ from untraced results")
        if spans["missing"]:
            errors.append(f"trace hooks not found: {spans['missing']}")
        lines = [f"{name} = {value:.6g} {PER_LAYER[name]}" for name, value in metrics.items()]
        lines.append(f"(span sums are per repetition; {traced.get('reps', 1)} traced reps)")
        record = {"plain": plain, "traced": traced, "spans": spans}
        units = PER_LAYER
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
        shutil.rmtree(trace_dir, ignore_errors=True)
    for name, value in metrics.items():
        if not math.isfinite(value):
            errors.append(f"metric {name} is not finite")
            metrics[name] = 0.0
    host = (record.get("result") or record.get("plain") or {}).get("host", {})
    summary_out = {
        "correct": not errors,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    write_json(WORK_DIR / "runs" / f"{workload}-seed{seed}-trace{int(trace)}.json",
               {"summary": summary_out, "errors": errors, "host": host, **record})
    lines += [f"check failed: {e}" for e in errors]
    lines.append(f"host: nproc={nproc()} {json.dumps(host, sort_keys=True)}")
    return summary_out, lines, record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not Path("src/repro/__init__.py").is_file():
        print("perfbench: run from the root of a checkout (src/repro not found)",
              file=sys.stderr)
        return 2
    (WORK_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    try:
        prep = prepare()
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        outs = {}
        for workload in names:
            out, lines, _ = run_workload(workload, args.seed, args.seconds, bool(args.trace), prep)
            print(f"[{workload}]")
            for line in lines:
                print(f"  {line}")
            outs[workload] = out
    except (BenchError, subprocess.SubprocessError, OSError, KeyError, ValueError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if len(outs) == 1:
        final = next(iter(outs.values()))
    else:
        final = {
            "correct": all(o["correct"] for o in outs.values()),
            "attempted": sum(o["attempted"] for o in outs.values()),
            "failed": sum(o["failed"] for o in outs.values()),
            "metrics": {f"{w}.{k}": v for w, o in outs.items() for k, v in o["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
