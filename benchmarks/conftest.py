"""Benchmark-suite configuration.

Each benchmark regenerates one of the paper's tables/figures (the experiment
ids listed in :mod:`repro.experiments`) and prints the measured-vs-bound
table it produced.  The benchmark timer measures the harness run; the
scientific payload is the printed table plus the shape assertions.
"""

import pytest


def pytest_configure(config):
    # Benchmarks print their tables; -s is implied by how we run them in CI
    # (pytest benchmarks/ --benchmark-only -s), but capturing stays on
    # harmlessly otherwise.
    pass


@pytest.fixture(autouse=True, scope="session")
def _hermetic_engine_cache(tmp_path_factory):
    """Per-session temp default cache for the benchmarks.

    Each benchmark's warmup round populates it, so the timed rounds still
    measure the warm path — but a stale persistent cache can never leak old
    artifacts into the measured tables.
    """
    from repro.engine.cache import EngineCache, set_default_cache

    cache = EngineCache(tmp_path_factory.mktemp("engine-cache"))
    previous = set_default_cache(cache)
    yield
    set_default_cache(previous)


@pytest.fixture
def emit():
    """Print a rendered experiment table under capture-friendly markers."""

    def _emit(text: str) -> None:
        print("\n" + text)

    return _emit


def _workload_payload(name: str):
    from repro.engine.bench import get_bench

    return get_bench(name).call()


# One shared evaluation per multi-part registry workload: the pytest layer
# asserts on these payloads (pytest-benchmark timings, where kept, cover
# workloads evaluated exactly once); `python -m repro bench` owns the
# authoritative timing of every workload.


@pytest.fixture(scope="session")
def table1_scaling_payload():
    """table1_scaling bundle (2D/3D/CAPS fits; its CAPS leg runs n = 224)."""
    return _workload_payload("table1_scaling")


@pytest.fixture(scope="session")
def memory_sweep_payload():
    """memory_sweep bundle (2.5D c-sweep + ω₀-free numerator rows)."""
    return _workload_payload("memory_sweep")


@pytest.fixture(scope="session")
def caps_tradeoff_payload():
    """caps_tradeoff bundle (all CAPS schedules at n = 112, p = 49)."""
    return _workload_payload("caps_tradeoff")


@pytest.fixture(scope="session")
def plan_tournament_payload():
    """plan_tournament bundle (auto-scheduler winners per topology × memory)."""
    return _workload_payload("plan_tournament")


@pytest.fixture(scope="session")
def latency_payload():
    """latency bundle (sequential + parallel message counts)."""
    return _workload_payload("latency")


@pytest.fixture(scope="session")
def partition_payload():
    """partition_bound bundle (Eq. 6 vs Belady + the tiny true optimum)."""
    return _workload_payload("partition_bound")
