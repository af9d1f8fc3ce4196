"""Quickstart: the paper's main objects in ~40 lines.

Builds Strassen's computation graph, measures the expansion of its decode
part (Lemma 4.3), runs the depth-first implementation against the two-level
machine (Theorem 1.1), and checks a parallel run against Corollary 1.2.

Run:  python examples/quickstart.py
"""

from repro import (
    LG7,
    ParallelConfig,
    dec_graph,
    dfs_io,
    estimate_expansion,
    get_parallel,
    h_graph,
    parallel_io_bound,
    sequential_io_bound,
)
from repro.util.matgen import integer_matrix


def main() -> None:
    # 1. The computation graph of Strassen on 16x16 matrices (k = lg 16 = 4).
    H = h_graph("strassen", k=4)
    print(f"H_4: {H.cdag.n_vertices} vertices, {H.cdag.n_edges} edges; "
          f"{len(H.mult_ids)} multiplications (= 7^4); "
          f"decode part holds {H.dec_fraction:.1%} of the graph")

    # 2. Lemma 4.3: the decode graph's edge expansion decays like (4/7)^k.
    for k in (2, 3, 4):
        g = dec_graph("strassen", k)
        est = estimate_expansion(g, "strassen", k)
        print(f"Dec_{k}C: h in [{est.lower:.4f}, {est.upper:.4f}]  "
              f"vs (4/7)^{k} = {(4/7)**k:.4f}")

    # 3. Theorem 1.1: measured I/O of the depth-first implementation sits a
    #    constant factor above the lower-bound expression.
    n, M = 256, 3 * 16 * 16
    rep = dfs_io(n, M)
    bound = sequential_io_bound(n, M)
    print(f"DF-Strassen n={n}, M={M}: {rep.words} words moved "
          f"(lower-bound form {bound:.0f}; ratio {rep.words / bound:.1f})")

    # 4. Corollary 1.2: a real parallel Strassen (CAPS) on 7 simulated
    #    processors via the registry, verified against numpy, measured
    #    against the bound.
    A = integer_matrix(56, seed=1)
    B = integer_matrix(56, seed=2)
    r = get_parallel("caps").execute(A, B, ParallelConfig(n=56, p=7))
    assert (r.C == A @ B).all(), "parallel result must be exact"
    pbound = parallel_io_bound(56, r.max_mem_peak, 7, LG7)
    print(f"CAPS p=7, n=56: {r.critical_words} words on the critical path "
          f"(Cor 1.2 form at measured memory: {pbound:.0f})")


if __name__ == "__main__":
    main()
