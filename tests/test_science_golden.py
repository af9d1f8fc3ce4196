"""The paper's measured values, pinned: one case per golden workload.

``tests/data/science_golden.json`` holds, per workload, a parameter set and
the scalar outputs it must reproduce: CDAG sizes, exact and spectral
expansion values (Lemma 4.3), sequential word/message counts (Theorem 1.1),
partition bounds, and the Table I parallel word counts.  Each case below
recomputes its outputs through ``repro.experiments`` and the library, and
compares them with the file: integers and strings exactly, floats to a
relative 1e-4.  The values are fixed data; a change that moves one is a
change in the science, not in a tolerance.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from pathlib import Path
from typing import Any, Callable

import numpy as np
import pytest

from repro.engine.cache import EngineCache

GOLDEN = json.loads((Path(__file__).parent / "data" / "science_golden.json").read_text())
REL_TOL = 1e-4

_CASES: dict[str, Callable[..., dict[str, Any]]] = {}


def _case(name: str) -> Callable[[Callable[..., dict]], Callable[..., dict]]:
    def deco(func: Callable[..., dict]) -> Callable[..., dict]:
        _CASES[name] = func
        return func

    return deco


def _cache() -> EngineCache:
    return EngineCache(disk=False)


@_case("cdag_build")
def _cdag_build(scheme: str, k: int) -> dict:
    from repro.cdag.strassen_cdag import dec_graph, h_graph

    g = dec_graph(scheme, k)
    hg = h_graph(scheme, k).cdag
    return {"dec_V": g.n_vertices, "dec_E": g.n_edges, "h_V": hg.n_vertices, "h_E": hg.n_edges}


@_case("cdag_structure")
def _cdag_structure(scheme: str, k: int) -> dict:
    from repro.experiments.structure_exp import (
        dec1_connectivity_table,
        figure2_report,
        figure3_tree_report,
    )

    cache = _cache()
    fig2 = figure2_report(scheme, k, cache=cache)
    fig3 = figure3_tree_report(scheme, k, cache=cache)
    return {
        "dec1_V": fig2["dec1"]["V"],
        "deck_max_degree": fig2["deck"]["max_degree"],
        "hk_n_mults": fig2["hk"]["n_mults"],
        "partition_ok": fig3["partition_ok"],
        "connected": {
            r["scheme"]: r["dec1_connected"] for r in dec1_connectivity_table(cache=cache)
        },
    }


@_case("expansion_exact")
def _expansion_exact() -> dict:
    from repro.cdag.classical_cdag import classical_matmul_cdag
    from repro.cdag.strassen_cdag import dec1_graph
    from repro.core.expansion import exact_edge_expansion, exact_small_set_expansion

    g_cl = classical_matmul_cdag(2)
    g_dec = dec1_graph("strassen")
    return {
        "h_classical2": exact_edge_expansion(g_cl)[0],
        "h_dec1": exact_edge_expansion(g_dec)[0],
        "h_dec1_s3": exact_small_set_expansion(g_dec, 3),
        "V_classical2": g_cl.n_vertices,
    }


@_case("exact_v2")
def _exact_v2(n_head: int, n_deep: int, dec2_scheme: str) -> dict:
    from repro.cdag.build import layered_circulant_cdag
    from repro.core.expansion import exact_edge_expansion
    from repro.engine.builders import cached_estimate

    h_head, m_head = exact_edge_expansion(layered_circulant_cdag(n_head))
    h_deep, m_deep = exact_edge_expansion(layered_circulant_cdag(n_deep))
    est = cached_estimate(dec2_scheme, 2, policy="auto", cache=_cache())
    return {
        "h_head": h_head,
        "head_witness": int(m_head.sum()),
        "h_deep": h_deep,
        "deep_witness": int(m_deep.sum()),
        "dec2_method": est.method,
        "dec2_h": est.upper,
    }


@_case("small_set_exact")
def _small_set_exact(n: int, s_max: int) -> dict:
    from repro.cdag.build import layered_circulant_cdag
    from repro.core.expansion import exact_small_set_expansion

    g = layered_circulant_cdag(n)
    return {
        "V": g.n_vertices,
        "h_s": [exact_small_set_expansion(g, s) for s in range(1, s_max + 1)],
    }


@_case("exact_native")
def _exact_native(n: int, jobs: int) -> dict:
    from repro.cdag.build import layered_circulant_cdag
    from repro.core.exact import exact_edge_expansion_v2, native_backend_available

    g = layered_circulant_cdag(n)
    backend = "native" if native_backend_available() else "bitset"
    h, mask = exact_edge_expansion_v2(g, backend=backend, jobs=jobs)
    return {"V": g.n_vertices, "h": h, "witness": int(mask.sum())}


@_case("certify_interval")
def _certify_interval(scheme: str, k_max: int) -> dict:
    from repro.engine.builders import cached_estimate

    cache = _cache()
    ivs = [
        cached_estimate(scheme, k, policy="auto", cache=cache).interval()
        for k in range(1, k_max + 1)
    ]
    return {
        "provenances": [iv.provenance for iv in ivs],
        "uppers": [iv.upper for iv in ivs],
        "lowers": [iv.lower for iv in ivs],
    }


@_case("expansion_spectral")
def _expansion_spectral(scheme: str, k: int) -> dict:
    from repro.engine.builders import cached_estimate

    est = cached_estimate(scheme, k, policy="spectral", cache=_cache())
    return {
        "lower": est.lower,
        "upper": est.upper,
        "witness_size": est.witness_size,
        "method": est.method,
    }


@_case("expansion_decay")
def _expansion_decay(scheme: str, k_max: int, spectral_upto: int) -> dict:
    from repro.experiments.expansion_exp import expansion_decay, small_set_profile

    cache = _cache()
    decay = expansion_decay(scheme, k_max=k_max, spectral_upto=spectral_upto, cache=cache)
    small = small_set_profile(scheme, k=k_max, cache=cache)
    return {
        "uppers": [r["upper"] for r in decay["rows"]],
        "expected_decay": decay["expected_decay"],
        "small_set_hs": [r["h_of_cut"] for r in small["rows"]],
    }


@_case("seq_io_sweep")
def _seq_io_sweep(scheme: str, M: int, t_max: int, simulate_upto: int) -> dict:
    from repro.experiments.seq_io import n_sweep

    result = n_sweep(scheme, M=M, t_range=range(4, t_max + 1), simulate_upto=simulate_upto)
    return {
        "fit_exponent": result["fit_exponent"],
        "words": [r["measured_words"] for r in result["rows"]],
    }


@_case("seq_io_models")
def _seq_io_models(n_m_sweep: int, omega_depth: int, hybrid_levels: int) -> dict:
    from repro.algorithms.nonstationary import nonstationary_io
    from repro.experiments.seq_io import cutoff_ablation, m_sweep, omega_sweep

    hybrid_words = [
        nonstationary_io(512, 192, ["strassen"] * k + ["classical2"] * (hybrid_levels - k)).words
        for k in range(hybrid_levels + 1)
    ]
    return {
        "m_fit_exponent": m_sweep("strassen", n=n_m_sweep)["fit_exponent"],
        "omega_fits": {
            r["scheme"]: r["fit_exponent"] for r in omega_sweep(M=192, depth=omega_depth)["rows"]
        },
        "best_base": cutoff_ablation(n=512, M=3 * 32 * 32)["best_base"],
        "hybrid_words": hybrid_words,
    }


@_case("seq_io_simulate")
def _seq_io_simulate(n: int, M: int, scheme: str) -> dict:
    from repro.algorithms.io_strassen import dfs_io

    rep = dfs_io(n, M, scheme)
    return {"words": rep.words, "messages": rep.messages, "base_multiplies": rep.n_base_multiplies}


@_case("partition_bound")
def _partition_bound(deep: bool) -> dict:
    from repro.cdag.classical_cdag import classical_matmul_cdag, matvec_cdag
    from repro.cdag.pebble import exhaustive_min_io, schedule_io
    from repro.cdag.schedule import bfs_topological_order, dfs_topological_order
    from repro.cdag.strassen_cdag import h_graph
    from repro.core.partition import best_partition_bound

    cases = [
        (classical_matmul_cdag(4), 8),
        (classical_matmul_cdag(5), 12),
        (matvec_cdag(6), 6),
        (h_graph("strassen", 2).cdag, 8),
    ]
    if deep:
        cases += [(h_graph("strassen", 3).cdag, 16), (h_graph("winograd", 2).cdag, 8)]
    bounds, measured = [], []
    for g, M in cases:
        for order_fn in (dfs_topological_order, bfs_topological_order):
            order = order_fn(g)
            measured.append(schedule_io(g, order, M=M, policy="belady").total)
            bounds.append(best_partition_bound(g, order, M)[0])
    return {
        "bounds": bounds,
        "measured": measured,
        "tiny_optimum": exhaustive_min_io(matvec_cdag(2), 4),
    }


@_case("latency")
def _latency(M: int, ns: list[int], n_parallel: int) -> dict:
    from repro.experiments.latency_exp import parallel_latency, sequential_latency

    seq = sequential_latency("strassen", M=M, ns=tuple(ns))
    par = parallel_latency(n=n_parallel)
    return {
        "seq_messages": [r["measured_messages"] for r in seq["rows"]],
        "par_messages": [r["measured_messages"] for r in par["rows"]],
    }


@functools.lru_cache(maxsize=None)
def _cold_and_warm_grid(schemes: tuple[str, ...], k_max: int) -> tuple[Any, Any]:
    """One cold sweep and a warm re-run of it over the same memory-only cache."""
    from repro.engine.grid import GridSpec, run_grid

    spec = GridSpec.from_ranges(schemes=schemes, k_max=k_max, memories=(48, 192, 768, 3072))
    cache = _cache()
    return run_grid(spec, cache=cache), run_grid(spec, cache=cache)


def _grid_check(report: Any) -> dict:
    last = report.rows[-1]
    return {
        "points": len(report.rows),
        "V_total": sum(r["V"] for r in report.rows),
        "E_total": sum(r["E"] for r in report.rows),
        "last_h_upper": last["h_upper"],
        "last_io_lower": last["io_lower_bound"],
    }


@_case("grid_sweep_cold")
def _grid_sweep_cold(schemes: list[str], k_max: int) -> dict:
    return _grid_check(_cold_and_warm_grid(tuple(schemes), k_max)[0])


@_case("grid_sweep_warm")
def _grid_sweep_warm(schemes: list[str], k_max: int) -> dict:
    warm = _cold_and_warm_grid(tuple(schemes), k_max)[1]
    return {**_grid_check(warm), "rebuilds": warm.rebuilds}


@_case("scaling_sweep")
def _scaling_sweep(n: int, p_max: int, cs: list[int]) -> dict:
    from repro.engine.scaling import ScalingSpec, scaling_sweep
    from repro.parallel.base import available_parallel

    spec = ScalingSpec(algos=tuple(available_parallel()), n=n, p_max=p_max, cs=tuple(cs))
    rows = scaling_sweep(spec, cache=_cache()).rows
    return {
        "points": len(rows),
        "words_total": sum(r["measured_words"] for r in rows),
        "all_verified": all(r["verified"] for r in rows),
    }


@_case("plan_tournament")
def _plan_tournament(n: int, topologies: list[str]) -> dict:
    from repro.engine.planner import plan_report
    from repro.topology import Topology

    cache = _cache()
    winners: dict[str, str] = {}
    searched = 0
    flips = []
    for spec in topologies:
        report = plan_report(n, topology=Topology.parse(spec), cache=cache)
        for limit, winner in report["winners"].items():
            winners[f"{spec}@{limit}"] = winner
        searched += sum(len(t["rows"]) for t in report["tables"])
        flips.append(report["flips"])
    return {"winners": winners, "ranked_plans": searched, "every_topology_flips": all(flips)}


@_case("memory_sweep")
def _memory_sweep(n: int, q: int, cs: list[int]) -> dict:
    from repro.core.bounds import LG7, table1_cell
    from repro.experiments.table1 import two5d_c_sweep

    rows = two5d_c_sweep(n=n, q=q, cs=tuple(cs))["rows"]
    # §6.1: with its p and c powers divided back out, every strassen-like
    # Table I cell reconstructs to n², whatever ω0 (n = 256, p = 64, c = 2).
    nn, p, c = 256, 64, 2
    numerators = []
    for w in (2.1, 2.5, LG7, 3.0):
        for regime in ("2D", "3D", "2.5D"):
            cell = table1_cell(regime, "strassen-like", nn, p, c, omega0=w)
            c_part = c ** (w / 2 - 1) if regime == "2.5D" else 1.0
            numerators.append(cell.bound * (p**cell.exponent_of_p) * c_part)
    return {
        "words": [r["measured_words"] for r in rows],
        "regimes": [r["M_regime"] for r in rows],
        "all_verified": all(r["verified"] for r in rows),
        "numerators": numerators,
    }


@_case("table1_scaling")
def _table1_scaling(
    n: int, qs2d: list[int], qs3d: list[int], ells: list[int], n0_factor: int
) -> dict:
    from repro.experiments.table1 import caps_scaling, classical_2d_scaling, threed_scaling

    caps = caps_scaling(n0_factor=n0_factor, ells=tuple(ells))
    return {
        "cannon_p_exponent": classical_2d_scaling(n=n, qs=tuple(qs2d))["cannon_p_exponent"],
        "threed_p_exponent": threed_scaling(n=n, qs=tuple(qs3d))["p_exponent"],
        "caps_words": [r["measured_words"] for r in caps["rows"]],
    }


@_case("caps_tradeoff")
def _caps_tradeoff(n: int, ell: int) -> dict:
    from repro.experiments.table1 import caps_memory_sweep

    rows = caps_memory_sweep(n=n, ell=ell)["rows"]
    return {
        "words": {r["schedule"]: r["measured_words"] for r in rows},
        "mem_peaks": {r["schedule"]: r["mem_peak"] for r in rows},
        "all_verified": all(r["verified"] for r in rows),
    }


@_case("table1")
def _table1(n: int) -> dict:
    from repro.experiments.table1 import table1_summary

    rows = table1_summary(n=n)
    return {"measured": {f"{r['regime']}/{r['class']}": r["measured_words"] for r in rows}}


def assert_matches(actual: Any, expected: Any, path: str = "check") -> None:
    """Recursive comparison: integers, strings and bools exact, floats at REL_TOL."""
    if isinstance(expected, dict):
        assert isinstance(actual, dict), f"{path}: expected an object, got {actual!r}"
        assert set(actual) == set(expected), f"{path}: keys {sorted(actual)}"
        for key, value in expected.items():
            assert_matches(actual[key], value, f"{path}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, (list, tuple)), f"{path}: expected a list, got {actual!r}"
        assert len(actual) == len(expected), f"{path}: length {len(actual)}"
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_matches(a, e, f"{path}[{i}]")
    elif isinstance(expected, bool):
        assert isinstance(actual, (bool, np.bool_)), f"{path}: expected a bool, got {actual!r}"
        assert bool(actual) is expected, f"{path}: {actual!r} != {expected!r}"
    elif isinstance(expected, int) and isinstance(actual, numbers.Integral):
        assert int(actual) == expected, f"{path}: {actual!r} != {expected!r}"
    elif isinstance(expected, (int, float)):
        assert isinstance(actual, numbers.Real) and not isinstance(actual, (bool, np.bool_))
        assert math.isclose(float(actual), expected, rel_tol=REL_TOL, abs_tol=1e-12), (
            f"{path}: {actual!r} != {expected!r} (rel {REL_TOL})"
        )
    else:
        assert actual == expected, f"{path}: {actual!r} != {expected!r}"


def test_every_golden_workload_has_a_case():
    assert set(GOLDEN["workloads"]) == set(_CASES)


@pytest.mark.parametrize("name", list(GOLDEN["workloads"]))
def test_baseline_check_values(name):
    workload = GOLDEN["workloads"][name]
    assert_matches(_CASES[name](**workload["params"]), workload["check"])


class TestAssertMatches:
    """The comparison itself: exact integers, relative floats, strict shapes."""

    def test_float_within_tolerance_passes(self):
        assert_matches({"h": 0.15 * (1 + 5e-5)}, {"h": 0.15})

    def test_float_beyond_tolerance_fails(self):
        with pytest.raises(AssertionError, match="rel"):
            assert_matches({"h": 0.15 * (1 + 5e-4)}, {"h": 0.15})

    def test_integers_are_exact(self):
        assert_matches({"words": np.int64(2932032)}, {"words": 2932032})
        with pytest.raises(AssertionError):
            assert_matches({"words": 2932033}, {"words": 2932032})

    def test_shape_and_type_mismatches_fail(self):
        with pytest.raises(AssertionError, match="keys"):
            assert_matches({"a": 1, "b": 2}, {"a": 1})
        with pytest.raises(AssertionError, match="length"):
            assert_matches([1, 2], [1, 2, 3])
        with pytest.raises(AssertionError, match="bool"):
            assert_matches(1, True)
        with pytest.raises(AssertionError):
            assert_matches("spectral", "exact")
