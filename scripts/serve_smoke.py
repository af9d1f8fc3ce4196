#!/usr/bin/env python
"""CI smoke test for ``python -m repro serve``: boot, hammer, verify, stop.

Boots the real CLI entry point as a subprocess on a free port, fires a
concurrent request mix (an identical-``/expansion`` wave to exercise
single-flight, plus ``/bounds``, ``/sweep`` and ``/healthz``), and checks
every response plus the ``/cache/info`` counters.  When builds run in the
service process (``--workers 0``, or ``REPRO_POOL=0`` with any
``--workers``), the service's build count must equal the builds of the
mix's distinct jobs run one after another over a fresh memory-only cache:
racing requests may not build any artifact twice, and no build may be
counted twice.  Pool workers share only the cache directory, so with
live workers two of them may build the same artifact and no count is
checked.  The service must also report (in ``/cache/info``) the
program's BLAS default: each of ``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` is ``"1"`` unless the caller
of this script set it, in which case the service sees the caller's
value.  Exits non-zero on any failure; prints one summary line on
success.

Usage::

    PYTHONPATH=src python scripts/serve_smoke.py [--workers N]
    REPRO_POOL=0 PYTHONPATH=src python scripts/serve_smoke.py --workers 2
"""

from __future__ import annotations

import argparse
import asyncio
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
from urllib.parse import parse_qsl, urlsplit

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro._blas import BLAS_THREAD_ENV  # noqa: E402
from repro.engine.cache import EngineCache  # noqa: E402
from repro.engine.pool import pool_enabled  # noqa: E402
from repro.serve.http import fetch_json  # noqa: E402
from repro.serve.jobs import JOB_KINDS, build_payload, parse_job  # noqa: E402

CLIENTS = 8
EXPANSION = "/expansion?scheme=strassen&k=2"
MIX = [EXPANSION] * CLIENTS + [  # the identical wave first: single-flight's job
    "/bounds?n=4096&M=256&p=64",
    "/sweep?schemes=strassen&k_min=1&k_max=2&memories=48",
    EXPANSION,
    "/healthz",
]


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return int(s.getsockname()[1])


def wait_until_up(port: int, proc: subprocess.Popen, deadline_s: float = 30.0) -> None:
    start = time.monotonic()
    while time.monotonic() - start < deadline_s:
        if proc.poll() is not None:
            raise SystemExit(f"serve process exited early with rc={proc.returncode}")
        try:
            status, body = asyncio.run(fetch_json("127.0.0.1", port, "/healthz", timeout=5.0))
        except OSError:
            time.sleep(0.2)
            continue
        if status == 200 and body == {"status": "ok"}:
            return
        raise SystemExit(f"unexpected /healthz answer: {status} {body!r}")
    raise SystemExit("service did not come up within the deadline")


def serial_builds() -> int:
    """Artifact builds of the mix's distinct jobs, run one by one in-process."""
    cache = EngineCache(disk=False)
    jobs = {}
    for target in MIX:
        split = urlsplit(target)
        kind = split.path.strip("/")
        if kind in JOB_KINDS:
            job = parse_job(kind, dict(parse_qsl(split.query, keep_blank_values=True)))
            jobs[job.key()] = job
    for job in jobs.values():
        build_payload(job, cache)
    return cache.stats.builds


async def hammer(port: int) -> dict:
    results = await asyncio.gather(*(fetch_json("127.0.0.1", port, t) for t in MIX))
    failures = [(t, s) for t, (s, _) in zip(MIX, results) if s != 200]
    if failures:
        raise SystemExit(f"non-200 responses: {failures}")
    bodies = [body for _, body in results[:CLIENTS]]
    if any(body != bodies[0] for body in bodies):
        raise SystemExit("identical /expansion requests returned differing payloads")
    status, info = await fetch_json("127.0.0.1", port, "/cache/info")
    if status != 200:
        raise SystemExit(f"/cache/info answered {status}")
    return info


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=0, help="serve --workers value")
    args = parser.parse_args()

    port = free_port()
    with tempfile.TemporaryDirectory(prefix="serve-smoke-") as cache_dir:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "--cache-dir",
                cache_dir,
                "serve",
                "--port",
                str(port),
                "--workers",
                str(args.workers),
            ],
            env=env,
        )
        try:
            wait_until_up(port, proc)
            info = asyncio.run(hammer(port))
        finally:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()

    service = info["service"]
    stats = info["stats"]
    if service["errors"] != 0:
        raise SystemExit(f"service counted {service['errors']} errors")
    expected_blas = {name: os.environ.get(name, "1") for name in BLAS_THREAD_ENV}
    if info["pool"]["blas_env"] != expected_blas:
        raise SystemExit(f"service BLAS env {info['pool']['blas_env']}; expected {expected_blas}")
    if args.workers == 0 or not pool_enabled():  # every build ran in the service
        expected = serial_builds()
        if stats["builds"] != expected:
            raise SystemExit(
                f"service built {stats['builds']} artifacts; the mix run serially builds "
                f"{expected}"
            )
    print(
        f"serve smoke ok: {service['requests']} requests, "
        f"{service['deduped']} deduped, builds={stats['builds']}, "
        f"workers={service['workers']}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
