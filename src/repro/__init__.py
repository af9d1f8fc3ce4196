"""repro — Graph expansion and communication costs of fast matrix multiplication.

A full reproduction of Ballard, Demmel, Holtz & Schwartz, *Graph Expansion
and Communication Costs of Fast Matrix Multiplication* (SPAA 2011,
arXiv:1109.1693): the CDAG machinery and expansion analysis behind the
paper's lower bounds, exact simulators for the sequential two-level and
parallel α–β machines, the algorithms that attain the bounds (depth-first
Strassen, Cannon, SUMMA, 3D, 2.5D, CAPS), and the experiment harnesses that
regenerate every table and figure.

Quick start::

    from repro import dec_graph, estimate_expansion, dfs_io, sequential_io_bound

    g = dec_graph("strassen", k=4)               # the Dec_k C graph of §4.1
    est = estimate_expansion(g, "strassen", 4)   # Lemma 4.3's h = Θ((4/7)^k)
    io = dfs_io(n=256, M=768)                    # measured words vs Theorem 1.1
    print(io.words / sequential_io_bound(256, 768))

See README.md for the system inventory and :mod:`repro.experiments` for
the paper-vs-measured harnesses.

The package root is lazy (PEP 562): ``import repro`` loads no numpy or
scipy, and each exported name is imported from its defining module on first
access.  That keeps ``python -m repro`` free to set its BLAS thread default
(:mod:`repro._blas`) before numpy loads.  The subpackages import eagerly as
usual (``import repro.engine`` loads the engine and its dependencies).
"""

import importlib
from typing import Any

__version__ = "1.0.0"

#: Every exported name, grouped by its defining module.
_EXPORTS: dict[str, tuple[str, ...]] = {
    "repro.cdag.graph": ("CDAG", "VertexKind"),
    "repro.cdag.schemes": (
        "BilinearScheme",
        "available_schemes",
        "compose_schemes",
        "get_scheme",
    ),
    "repro.cdag.strassen_cdag": ("HGraph", "dec_graph", "enc_graph", "h_graph"),
    "repro.cdag.classical_cdag": ("classical_matmul_cdag", "matvec_cdag"),
    "repro.cdag.pebble": ("exhaustive_min_io", "schedule_io"),
    "repro.cdag.schedule": (
        "bfs_topological_order",
        "dfs_topological_order",
        "random_topological_order",
    ),
    "repro.core.bounds": (
        "LG7",
        "latency_bound",
        "memory_independent_bound",
        "parallel_io_bound",
        "perfect_scaling_limit",
        "scaling_regime",
        "sequential_io_bound",
        "sequential_io_upper",
        "table1_rows",
    ),
    "repro.core.exact": ("exact_edge_expansion_v2", "exact_small_set_expansion_v2"),
    "repro.core.expansion": (
        "ExpansionEstimate",
        "decode_cone_mask",
        "estimate_expansion",
        "exact_edge_expansion",
        "exact_small_set_expansion",
        "expansion_of_cut",
    ),
    "repro.core.partition": ("best_partition_bound", "partition_bound", "segment_stats"),
    "repro.algorithms.strassen": ("bilinear_multiply", "count_flops", "strassen_multiply"),
    "repro.algorithms.io_strassen": ("dfs_io", "dfs_io_model"),
    "repro.algorithms.io_classical": ("blocked_io", "naive_io", "recursive_io"),
    "repro.engine.cache": ("EngineCache", "default_cache"),
    "repro.engine.grid": ("GridPoint", "GridReport", "GridSpec", "run_grid"),
    "repro.engine.scaling": ("ScalingPoint", "ScalingReport", "ScalingSpec", "scaling_sweep"),
    "repro.engine.builders": (
        "cached_dec_graph",
        "cached_estimate",
        "cached_h_graph",
        "cached_spectrum",
    ),
    "repro.engine.planner": ("Plan", "plan"),
    "repro.machine.cache": ("FastMemory",),
    "repro.machine.distributed": ("Machine", "Message"),
    "repro.parallel.base": (
        "AnalyticCost",
        "ParallelAlgorithm",
        "ParallelConfig",
        "ParallelResult",
        "available_parallel",
        "get_parallel",
    ),
    "repro.topology.model": ("Device", "Link", "Topology"),
}

#: Name -> defining module: the one table ``__getattr__`` reads.
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str) -> Any:
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
