"""The persistent shared worker-pool runtime (``repro.engine.pool``).

Lifecycle (one warm pool per process, reused across every call site),
failure semantics (one respawn, then permanent serial fallback), the
``REPRO_POOL`` kill switch, zero-copy transport, and the determinism
contract: identical results for every worker count — the property the
grid's row order and the exact engine's ``(h, mask)`` merge rely on.

Pool state is process-global, so every test that touches lifecycle or
counters goes through the ``fresh_pool`` fixture: boot from a clean
slate, restore the fallback state afterwards.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from collections import OrderedDict

import numpy as np
import pytest

from repro._blas import BLAS_THREAD_ENV
from repro.cdag.build import layered_circulant_cdag
from repro.cdag.graph import CDAG
from repro.core.exact import exact_edge_expansion_v2
from repro.engine import pool as pool_runtime
from repro.engine.cache import EngineCache
from repro.engine.grid import GridSpec, run_grid
from repro.serve.jobs import parse_job, run_job_pooled

# --------------------------------------------------------------------- #
# module-level task functions (spawn must pickle them; RC401 contract)   #
# --------------------------------------------------------------------- #


def _square(x: int) -> int:
    return x * x


def _dot(msg: tuple[np.ndarray, np.ndarray]) -> float:
    a, b = msg
    return float(a @ b)


def _arange(n: int) -> np.ndarray:
    return np.arange(n, dtype=np.uint64)


def _getenv(name: str) -> str | None:
    return os.getenv(name)


def _crash_in_worker(x: int) -> tuple[str, int]:
    """Kill the hosting *worker*; inert when run inline in the parent."""
    if pool_runtime.in_worker():
        os._exit(13)
    return ("inline", x)


def _cache_caps(cache: EngineCache) -> tuple[bool, int, int | None, bool, str]:
    """Where the task ran, and the settings of the cache it received."""
    memory = cache.info()["memory"]
    return (
        pool_runtime.in_worker(),
        memory["max_items"],
        memory["max_bytes"],
        cache.disk_enabled,
        str(cache.root),
    )


def _random_graph(n: int, seed: int, p: float = 0.35) -> CDAG:
    rng = np.random.default_rng(seed)
    src, dst = [], []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                src.append(i)
                dst.append(j)
    return CDAG(n, np.array(src), np.array(dst), np.zeros(n, dtype=np.int8))


@pytest.fixture
def fresh_pool(monkeypatch):
    """A clean, enabled pool slate; restores fallback state afterwards.

    These tests exercise the pool runtime itself, so the kill switch is
    forced open regardless of the environment (the ``REPRO_POOL=0`` CI leg
    proves the *call sites* degrade gracefully; the kill-switch test below
    re-closes it explicitly).
    """
    monkeypatch.setenv(pool_runtime.POOL_ENV, "1")
    pool_runtime.shutdown_pool()
    saved_reason = pool_runtime._FALLBACK_REASON
    pool_runtime._FALLBACK_REASON = None
    pool_runtime.reset_pool_stats()
    yield
    pool_runtime.shutdown_pool()
    pool_runtime._FALLBACK_REASON = saved_reason


# --------------------------------------------------------------------- #
# transport and scheduling                                               #
# --------------------------------------------------------------------- #


class TestSubmitBatch:
    def test_results_in_task_order(self, fresh_pool):
        tasks = list(range(37))
        assert pool_runtime.submit_batch(_square, tasks, workers=3) == [
            x * x for x in tasks
        ]

    def test_explicit_chunksize_same_results(self, fresh_pool):
        tasks = list(range(23))
        expected = [x * x for x in tasks]
        for chunksize in (1, 4, 23, 100):
            got = pool_runtime.submit_batch(
                _square, tasks, workers=2, chunksize=chunksize
            )
            assert got == expected

    def test_empty_batch(self, fresh_pool):
        assert pool_runtime.submit_batch(_square, [], workers=4) == []

    def test_ndarrays_ship_both_ways(self, fresh_pool):
        # protocol-5 out-of-band buffers: arrays in the task message and in
        # the result both round-trip bit-exactly.
        msgs = [
            (np.arange(64, dtype=np.float64), np.ones(64, dtype=np.float64))
            for _ in range(4)
        ]
        assert pool_runtime.submit_batch(_dot, msgs, workers=2) == [2016.0] * 4
        out = pool_runtime.submit_batch(_arange, [5, 9], workers=2)
        assert [a.tolist() for a in out] == [list(range(5)), list(range(9))]

    def test_workers_clamped_to_task_count(self, fresh_pool):
        before = pool_runtime.pool_stats_snapshot()
        pool_runtime.submit_batch(_square, [1, 2, 3], workers=16)
        delta = pool_runtime._STATS.delta_since(before)
        assert 0 < delta["workers_spawned"] <= 3

    def test_workers_clamped_to_chunk_count(self, fresh_pool):
        # 8 tasks in chunks of 4 keep 2 workers busy; a width-4 request
        # must not spawn 2 more that would get no chunk.
        out = pool_runtime.submit_batch(_square, range(8), workers=4, chunksize=4)
        assert out == [x * x for x in range(8)]
        assert pool_runtime.pool_stats_snapshot()["workers_spawned"] == 2

    def test_env_cap_limits_pool_size(self, fresh_pool, monkeypatch):
        monkeypatch.setenv(pool_runtime.POOL_JOBS_ENV, "2")
        before = pool_runtime.pool_stats_snapshot()
        pool_runtime.submit_batch(_square, list(range(6)), workers=4)
        delta = pool_runtime._STATS.delta_since(before)
        assert delta["workers_spawned"] <= 2

    def test_task_exception_propagates(self, fresh_pool):
        with pytest.raises(ZeroDivisionError):
            pool_runtime.submit_batch(_reciprocal, [1, 0, 2], workers=2)
        # the pool survived the task error: next batch still runs pooled
        before = pool_runtime.pool_stats_snapshot()
        assert pool_runtime.submit_batch(_square, [4, 5], workers=2) == [16, 25]
        delta = pool_runtime._STATS.delta_since(before)
        assert delta["serial_tasks"] == 0


def _reciprocal(x: int) -> float:
    return 1.0 / x


# --------------------------------------------------------------------- #
# lifecycle: warm reuse, kill switch, recovery ladder                    #
# --------------------------------------------------------------------- #


class TestLifecycle:
    def test_warm_reuse_across_grid_exact_and_serve(self, fresh_pool):
        # Two (scheme, k) groups: a grid fans out over at most one worker
        # per group, so a one-group grid would run inline.
        spec = GridSpec(
            schemes=("strassen",), ks=(1, 2), memories=(48, 192), policies=("auto",)
        )
        with tempfile.TemporaryDirectory() as root:
            run_grid(spec, workers=2, cache=EngineCache(root + "/grid"))
            after_grid = pool_runtime.pool_stats_snapshot()
            assert after_grid["pool_starts"] == 1
            assert after_grid["workers_spawned"] == 2

            # the exact scan and a pooled serve job ride the same workers
            exact_edge_expansion_v2(layered_circulant_cdag(18), jobs=2)
            job = parse_job("expansion", {"scheme": "strassen", "k": "1"})
            run_job_pooled(job, EngineCache(root + "/serve"))

            delta = pool_runtime._STATS.delta_since(after_grid)
            assert delta["pool_starts"] == 0
            assert delta["workers_spawned"] == 0  # zero new processes
            assert delta["warm_dispatches"] >= 2
            assert pool_runtime.pool_info()["live_workers"] == 2

    def test_cold_then_warm_grid_sweep_spawns_nothing(self, fresh_pool):
        # The second identical pooled sweep rides the live pool: same rows,
        # no new processes, no new pool start.
        spec = GridSpec.from_ranges(schemes=("strassen",), k_max=3, memories=(48, 192, 768, 3072))
        cold = run_grid(spec, workers=2, cache=EngineCache(disk=False))
        before = pool_runtime.pool_stats_snapshot()
        assert before["workers_spawned"] == 2  # the cold sweep paid the spawns
        warm = run_grid(spec, workers=2, cache=EngineCache(disk=False))
        delta = pool_runtime._STATS.delta_since(before)
        assert len(cold.rows) == 12
        assert warm.rows == cold.rows
        assert delta["workers_spawned"] == 0
        assert delta["pool_starts"] == 0

    def test_kill_switch_runs_serial(self, fresh_pool, monkeypatch):
        monkeypatch.setenv(pool_runtime.POOL_ENV, "0")
        spec = GridSpec(
            schemes=("strassen",), ks=(1, 2), memories=(48,), policies=("auto",)
        )
        with tempfile.TemporaryDirectory() as root:
            report = run_grid(spec, workers=2, cache=EngineCache(root))
        assert report.workers == 2  # the clamped request is still reported
        info = pool_runtime.pool_info()
        assert not info["enabled"]
        assert info["live_workers"] == 0
        assert info["stats"]["workers_spawned"] == 0
        assert info["stats"]["serial_tasks"] == 2

    def test_broken_pool_respawns_once_then_goes_serial(self, fresh_pool):
        # Every dispatch kills its worker: the first breakage is answered
        # with one respawn, the second drops the runtime into permanent
        # serial fallback — where the same tasks run inline and succeed.
        out = pool_runtime.submit_batch(_crash_in_worker, [1, 2], workers=2)
        assert out == [("inline", 1), ("inline", 2)]
        info = pool_runtime.pool_info()
        assert info["stats"]["respawns"] == 1
        assert info["serial_fallback"] is not None
        assert "respawn" in info["serial_fallback"]
        assert not info["enabled"]

        # fallback is sticky: later batches run inline without touching
        # worker processes at all
        before = pool_runtime.pool_stats_snapshot()
        assert pool_runtime.submit_batch(_square, [3, 4], workers=2) == [9, 16]
        delta = pool_runtime._STATS.delta_since(before)
        assert delta["workers_spawned"] == 0
        assert delta["serial_tasks"] == 2

    def test_shutdown_is_lifecycle_only(self, fresh_pool):
        pool_runtime.submit_batch(_square, [1, 2], workers=2)
        assert pool_runtime.pool_info()["live_workers"] == 2
        pool_runtime.shutdown_pool()
        assert pool_runtime.pool_info()["live_workers"] == 0
        assert pool_runtime.serial_fallback_reason() is None
        # next batch simply boots a fresh pool
        assert pool_runtime.submit_batch(_square, [3], workers=1) == [9]

    def test_prewarm_spawns_ahead_of_first_batch(self, fresh_pool):
        assert pool_runtime.prewarm(2) == 2
        before = pool_runtime.pool_stats_snapshot()
        pool_runtime.submit_batch(_square, [1, 2, 3, 4], workers=2)
        delta = pool_runtime._STATS.delta_since(before)
        assert delta["workers_spawned"] == 0
        assert delta["warm_dispatches"] == 1


class TestWorkerBlasEnv:
    @pytest.mark.parametrize(
        ("user_value", "expected"), [(None, ["1", "1", "1"]), ("2", ["2", "1", "1"])]
    )
    def test_workers_start_with_one_blas_thread(
        self, fresh_pool, monkeypatch, user_value, expected
    ):
        # Unset vars default to "1" in the worker; a user value passes
        # through; the parent's environment is the same after the spawn.
        for name in BLAS_THREAD_ENV:
            monkeypatch.delenv(name, raising=False)
        if user_value is not None:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", user_value)
        parent_env = dict(os.environ)
        names = list(BLAS_THREAD_ENV)
        assert pool_runtime.submit_batch(_getenv, names, workers=2) == expected
        assert pool_runtime.pool_stats_snapshot()["serial_tasks"] == 0
        assert dict(os.environ) == parent_env

    def test_pool_info_reports_this_process_blas_env(self, monkeypatch):
        for name in BLAS_THREAD_ENV:
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        assert pool_runtime.pool_info()["blas_env"] == {
            "OPENBLAS_NUM_THREADS": None,
            "OMP_NUM_THREADS": "3",
            "MKL_NUM_THREADS": None,
        }


# --------------------------------------------------------------------- #
# caller's cache: tasks carry it, workers get its settings               #
# --------------------------------------------------------------------- #


class TestCallerCache:
    def test_workers_get_the_callers_memory_caps(self, fresh_pool, tmp_path):
        cache = EngineCache(tmp_path, memory_items=1, memory_bytes=4096)
        out = pool_runtime.submit_batch(_cache_caps, [cache, cache], workers=2)
        assert out == [(True, 1, 4096, True, str(tmp_path))] * 2

    def test_pickled_cache_unpickles_to_one_cache_per_settings(self, monkeypatch):
        monkeypatch.setattr(pool_runtime, "_CTX_STORE", OrderedDict())
        cache = EngineCache(disk=False, memory_items=1, memory_bytes=4096)
        cache.put_object("k", 1)
        first = pickle.loads(pickle.dumps(cache, protocol=5))
        second = pickle.loads(pickle.dumps(cache, protocol=5))
        other = pickle.loads(pickle.dumps(EngineCache(disk=False, memory_items=2)))
        assert first is second
        assert first is not cache and other is not first
        memory = first.info()["memory"]
        assert (memory["max_items"], memory["max_bytes"], memory["items"]) == (1, 4096, 0)
        assert not first.disk_enabled and first.root == cache.root

    def test_inline_grid_counts_on_the_callers_cache(self, fresh_pool, monkeypatch):
        # Kill switch on: the "pooled" grid runs inline and must build on
        # the caller's own cache, under its cap, with the serial run's stats.
        monkeypatch.setenv(pool_runtime.POOL_ENV, "0")
        monkeypatch.setattr(pool_runtime, "_CTX_STORE", OrderedDict())
        spec = GridSpec(schemes=("strassen",), ks=(1, 2), memories=(48,))
        serial = run_grid(spec, workers=1, cache=EngineCache(disk=False, memory_items=1))
        cache = EngineCache(disk=False, memory_items=1)
        report = run_grid(spec, workers=2, cache=cache)
        info = cache.info()
        assert info["memory"]["items"] <= 1
        assert info["stats"]["evictions"] > 0
        assert info["stats"] == report.stats
        assert report.stats == serial.stats
        assert report.rows == serial.rows
        assert not any(token.startswith("engine-cache:") for token in pool_runtime._CTX_STORE)

    def test_pooled_grid_merges_worker_counts_into_the_callers_cache(self, fresh_pool):
        spec = GridSpec(schemes=("strassen",), ks=(1, 2), memories=(48, 192))
        serial = run_grid(spec, workers=1, cache=EngineCache(disk=False))
        cache = EngineCache(disk=False)
        report = run_grid(spec, workers=2, cache=cache)
        assert pool_runtime.pool_stats_snapshot()["tasks_dispatched"] == 4
        assert report.stats == serial.stats == cache.stats.as_dict()
        assert report.rows == serial.rows


# --------------------------------------------------------------------- #
# determinism: identical results for every worker count                  #
# --------------------------------------------------------------------- #


class TestDeterminism:
    def test_exact_jobs_bit_identical_on_circulant(self, fresh_pool):
        g = layered_circulant_cdag(18)
        h1, m1 = exact_edge_expansion_v2(g, jobs=1)
        for jobs in (2, 3):
            h, m = exact_edge_expansion_v2(g, jobs=jobs)
            assert h == h1
            assert np.array_equal(m, m1)

    def test_exact_jobs_bit_identical_on_random_graphs(self, fresh_pool):
        for seed in (3, 11):
            g = _random_graph(18, seed)
            h1, m1 = exact_edge_expansion_v2(g, jobs=1)
            for jobs in (2, 3):
                h, m = exact_edge_expansion_v2(g, jobs=jobs)
                assert h == h1
                assert np.array_equal(m, m1)

    def test_grid_rows_identical_for_every_worker_count(self, fresh_pool):
        spec = GridSpec(
            schemes=("strassen",), ks=(1, 2), memories=(48, 192), policies=("auto",)
        )
        with tempfile.TemporaryDirectory() as root:
            serial = run_grid(spec, workers=1, cache=EngineCache(root + "/w1"))
            for w in (2, 3):
                par = run_grid(spec, workers=w, cache=EngineCache(root + f"/w{w}"))
                assert par.rows == serial.rows

    def test_pooled_cold_grid_builds_each_artifact_once(self, fresh_pool):
        # Memory-only caches are private to each process, so a (scheme, k)
        # group split across two workers would rebuild its graph and
        # estimate there; the pooled build count must equal the serial one.
        spec = GridSpec(("strassen",), (2, 3), (48, 192, 768, 3072))
        serial = run_grid(spec, workers=1, cache=EngineCache(disk=False))
        pooled = run_grid(spec, workers=2, cache=EngineCache(disk=False))
        assert pool_runtime.pool_stats_snapshot()["tasks_dispatched"] == 8
        assert pooled.stats["builds"] == serial.stats["builds"]
        assert pooled.rows == serial.rows
