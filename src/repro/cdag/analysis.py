"""Structural analysis of computation graphs against the paper's claims.

Each function here is an *executable version of a statement in the paper*:
it returns measured quantities and (where the paper makes a sharp claim)
raises ``AssertionError`` with a precise message when the structure
disagrees.  The test suite and the Figure 2/3 experiments drive these.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cdag.graph import CDAG
from repro.cdag.schemes import BilinearScheme, get_scheme
from repro.cdag.strassen_cdag import dec_graph, dec_level_sizes, h_graph

__all__ = [
    "LayerProfile",
    "layer_profile",
    "check_fact_4_2",
    "check_fact_4_6",
    "check_dec1_connected",
    "check_claim_5_1",
    "degree_histogram",
    "structure_report",
]


@dataclass(frozen=True)
class LayerProfile:
    """Per-level vertex counts and cross-level edge counts of a layered CDAG."""

    level_sizes: np.ndarray          # vertices per level
    cross_edges: np.ndarray          # edges between level t and t+1
    n_levels: int


def layer_profile(g: CDAG) -> LayerProfile:
    """Measure the layer structure of a layered graph (levels from ``g.levels``)."""
    if np.any(g.levels < 0):
        raise ValueError("graph is not layered (levels unset)")
    n_levels = int(g.levels.max()) + 1
    sizes = np.bincount(g.levels, minlength=n_levels)
    lev_src = g.levels[g.src]
    lev_dst = g.levels[g.dst]
    if np.any(np.abs(lev_dst - lev_src) != 1):
        raise ValueError("layered graph has an edge skipping a level")
    lo = np.minimum(lev_src, lev_dst)
    cross = np.bincount(lo, minlength=max(n_levels - 1, 1))[: n_levels - 1]
    return LayerProfile(level_sizes=sizes, cross_edges=cross, n_levels=n_levels)


def check_fact_4_2(
    scheme: BilinearScheme | str,
    k: int,
    g: CDAG | None = None,
    g1: CDAG | None = None,
) -> int:
    """Fact 4.2: all vertices of ``Dec_k C`` have degree at most a constant.

    For Strassen the constant is 6 (out-degree ≤ 4, in-degree ≤ 2).  Returns
    the measured max degree; raises if it exceeds the scheme's own bound
    ``max_out + max_in`` derived from ``Dec₁C``.  Prebuilt graphs may be
    passed to avoid rebuilding (the engine's cached path).
    """
    if isinstance(scheme, str):
        scheme = get_scheme(scheme)
    if g1 is None:
        g1 = dec_graph(scheme, 1)
    bound = int(g1.out_degree.max() + g1.in_degree.max())
    if g is None:
        g = dec_graph(scheme, k)
    measured = g.max_degree
    assert measured <= bound, (
        f"Fact 4.2 violated: Dec_{k}C max degree {measured} exceeds "
        f"Dec_1C-derived bound {bound}"
    )
    return measured


def check_fact_4_6(
    scheme: BilinearScheme | str,
    k: int,
    g: CDAG | None = None,
    prof: LayerProfile | None = None,
) -> dict:
    """Fact 4.6: level sizes and the 3/7-style mass ratios of ``Dec_k C``.

    Verifies ``|l_i| = c₀^(k−i+1) · t₀^(i−1)`` (in the paper's numbering) and
    the bounds on ``|l_{k+1}|/|V|`` and ``|l_1|/|V|``.  Returns the measured
    ratios.  The generic-scheme form replaces 4/7 with c₀/t₀ (§5.1.2), with
    ``c₀ = m₀·p₀`` for rectangular schemes.  A prebuilt graph and its
    profile may be passed to avoid rebuilding.
    """
    if isinstance(scheme, str):
        scheme = get_scheme(scheme)
    c0 = scheme.c_blocks
    t0 = scheme.t0
    if g is None:
        g = dec_graph(scheme, k)
    if prof is None:
        prof = layer_profile(g)
    expected = dec_level_sizes(scheme, k)
    assert np.array_equal(prof.level_sizes, expected), (
        f"Fact 4.6 violated: level sizes {prof.level_sizes} != {expected}"
    )
    V = g.n_vertices
    rho = c0 / t0
    top_ratio = t0**k / V                       # |l_{k+1}| / |V|
    bottom_ratio = c0**k / V                    # |l_1| / |V|
    if c0 == t0:
        # Degenerate rank-= -output schemes (e.g. classical<2,1,2>): every
        # level has the same size, so each holds exactly 1/(k+1) of the mass.
        exact = 1.0 / (k + 1)
        lo = exact
        correction = 1.0
    else:
        lo = (1 - rho) / 1.0                    # = 3/7 for Strassen
        # Exact identity: |V| = t0^k (1 - rho^{k+1}) / (1 - rho), so the mass
        # ratio is (1 - rho)/(1 - rho^{k+1}).  (The paper's display writes the
        # correction with exponent k+2 — a harmless slip in a Θ-level fact;
        # the geometric sum over k+1 levels gives k+1.)
        exact = (1 - rho) / (1 - rho ** (k + 1))
        correction = 1.0 / (1.0 - rho ** (k + 1))
    assert abs(top_ratio - exact) < 1e-9, (
        f"Fact 4.6 violated: top mass ratio {top_ratio} != exact {exact}"
    )
    assert lo * (1 - 1e-12) <= top_ratio <= lo * correction * (1 + 1e-12)
    assert abs(bottom_ratio - exact * rho**k) < 1e-9
    return {
        "top_ratio": top_ratio,
        "bottom_ratio": bottom_ratio,
        "lower": lo,
        "upper": lo * correction,
    }


def check_dec1_connected(scheme: BilinearScheme | str, g1: CDAG | None = None) -> bool:
    """The §5.1.1 critical technical assumption: is ``Dec₁C`` connected?

    Returns the measured connectivity (True/False) rather than asserting —
    classical schemes are *supposed* to fail this check.
    """
    if g1 is None:
        g1 = dec_graph(scheme, 1)
    return g1.is_connected_undirected()


def check_claim_5_1(scheme: BilinearScheme | str, g: CDAG | None = None) -> bool:
    """Claim 5.1: input and output vertex sets of ``Dec₁C`` are disjoint.

    The paper proves this from irreducibility of the output bilinear forms;
    structurally it means no row of W is a "forwarding" row, so the decode
    graph of any valid scheme keeps its levels disjoint.  Returns True when
    disjoint (and asserts, since every valid scheme must satisfy it).
    """
    if isinstance(scheme, str):
        scheme = get_scheme(scheme)
    if g is None:
        g = dec_graph(scheme, 1)
    inputs = set(np.flatnonzero(g.levels == 0).tolist())
    outputs = set(np.flatnonzero(g.levels == 1).tolist())
    disjoint = not (inputs & outputs)
    assert disjoint, "Claim 5.1 violated: Dec1C has a vertex that is input and output"
    # The deeper statement: outputs are true inner products, so every output
    # must depend on at least two products for n0 >= 2 (an output with a
    # single W nonzero would mean one multiplication computes an entire
    # inner product — impossible for a bilinear form of rank > 1; for
    # n0 = 1 a single product is the whole answer).
    if scheme.n0 >= 2:
        indeg = g.in_degree[np.flatnonzero(g.levels == 1)]
        assert int(indeg.min()) >= 1
    return disjoint


def degree_histogram(g: CDAG) -> dict[int, int]:
    """Histogram {degree: count} of undirected degrees."""
    vals, counts = np.unique(g.degree, return_counts=True)
    return {int(v): int(c) for v, c in zip(vals, counts)}


def structure_report(scheme_name: str, k: int, build_dec=None, build_h=None) -> dict:
    """One-stop structural summary used by the Figure 2 experiment (E4).

    Builds ``Dec₁C``, ``H₁``, ``Dec_k C``, ``H_k`` (the four panels of
    Fig. 2) and returns their vital statistics plus the paper checks.
    ``build_dec`` / ``build_h`` override the graph constructors — the engine
    passes its cached builders here; each graph is built exactly once.
    """
    if build_dec is None:
        build_dec = dec_graph
    if build_h is None:
        build_h = h_graph
    scheme = get_scheme(scheme_name)
    dec1 = build_dec(scheme, 1)
    h1 = build_h(scheme, 1)
    deck = build_dec(scheme, k)
    hk = build_h(scheme, k)
    deck_profile = layer_profile(deck)
    return {
        "scheme": scheme_name,
        "k": k,
        "dec1": {"V": dec1.n_vertices, "E": dec1.n_edges,
                 "connected": dec1.is_connected_undirected()},
        "h1": {"V": h1.cdag.n_vertices, "E": h1.cdag.n_edges},
        "deck": {
            "V": deck.n_vertices,
            "E": deck.n_edges,
            "max_degree": check_fact_4_2(scheme, k, g=deck, g1=dec1),
            "level_sizes": deck_profile.level_sizes.tolist(),
            "mass_ratios": check_fact_4_6(scheme, k, g=deck, prof=deck_profile),
        },
        "hk": {
            "V": hk.cdag.n_vertices,
            "E": hk.cdag.n_edges,
            "dec_fraction": hk.dec_fraction,
            "max_input_outdeg": int(hk.cdag.out_degree[hk.a_inputs].max()),
            "n_mults": len(hk.mult_ids),
        },
    }
