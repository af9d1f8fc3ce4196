"""Native (C kernel) exact-expansion backend: equivalence + loader contract.

The native backend must be a *pure accelerator*: bit-identical ``(h, mask)``
to the numpy bitset kernels on every input and every ``jobs`` value, and a
silent no-op when the compiled library cannot be produced (``REPRO_NATIVE=0``,
missing compiler).  These tests pin both halves of that contract; the CI
fallback leg re-runs the whole exact/certify surface with the build disabled.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cdag.build import layered_circulant_cdag
from repro.cdag.graph import CDAG
from repro.core import _native
from repro.core.exact import (
    EXACT_BACKENDS,
    exact_edge_expansion_v2,
    native_backend_available,
)
from test_exact import _oracle, _random_graph

needs_native = pytest.mark.skipif(
    not native_backend_available(),
    reason=f"native kernel unavailable: {_native.native_build_error()}",
)


class TestNativeEquivalence:
    """native ≡ bitset ≡ seed oracle — the bit-identity contract."""

    @needs_native
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(min_value=2, max_value=14), seed=st.integers(0, 2**31 - 1))
    def test_native_matches_bitset_and_oracle_on_random_cdags(self, n, seed):
        g = _random_graph(n, seed)
        if g is None:
            return
        h_b, m_b = exact_edge_expansion_v2(g, backend="bitset")
        h_n, m_n = exact_edge_expansion_v2(g, backend="native")
        h_o, m_o = _oracle(g)
        assert h_n == h_b == h_o
        assert np.array_equal(m_n, m_b) and np.array_equal(m_n, m_o)

    @needs_native
    @pytest.mark.parametrize("n", [12, 18, 22, 26])
    def test_native_matches_bitset_on_circulant_bench_graphs(self, n):
        g = layered_circulant_cdag(n)
        h_b, m_b = exact_edge_expansion_v2(g, backend="bitset")
        h_n, m_n = exact_edge_expansion_v2(g, backend="native")
        assert h_n == h_b
        assert np.array_equal(m_n, m_b)

    @needs_native
    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_native_jobs_do_not_change_results(self, jobs):
        # n=18 > _LOW_BITS so the prefix space really shards over the pool.
        g = layered_circulant_cdag(18)
        h_b, m_b = exact_edge_expansion_v2(g, backend="bitset", jobs=1)
        h_n, m_n = exact_edge_expansion_v2(g, backend="native", jobs=jobs)
        assert h_n == h_b
        assert np.array_equal(m_n, m_b)

    @needs_native
    def test_restricted_walk_agrees_through_native_dispatch(self):
        # max_size= routes through the shared combinatorial machinery; the
        # answer must be identical whichever backend the caller named.
        g = layered_circulant_cdag(20)
        h_b, m_b = exact_edge_expansion_v2(g, max_size=4, backend="bitset")
        h_n, m_n = exact_edge_expansion_v2(g, max_size=4, backend="native")
        assert h_n == h_b
        assert np.array_equal(m_n, m_b)

    @needs_native
    def test_edgeless_graph_matches_bitset_nan_contract(self):
        g = CDAG(4, np.array([], dtype=np.int64), np.array([], dtype=np.int64),
                 np.zeros(4, dtype=np.int8))
        h_b, m_b = exact_edge_expansion_v2(g, backend="bitset")
        h_n, m_n = exact_edge_expansion_v2(g, backend="native")
        assert np.isnan(h_b) and np.isnan(h_n)
        assert np.array_equal(m_n, m_b)


class TestBackendSelection:
    def test_backend_registry_lists_native(self):
        assert EXACT_BACKENDS == ("auto", "native", "bitset")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            exact_edge_expansion_v2(layered_circulant_cdag(6), backend="simd")

    @needs_native
    def test_auto_equals_explicit_native(self):
        g = layered_circulant_cdag(14)
        h_a, m_a = exact_edge_expansion_v2(g, backend="auto")
        h_n, m_n = exact_edge_expansion_v2(g, backend="native")
        assert h_a == h_n
        assert np.array_equal(m_a, m_n)

    def test_walk_serves_native_beyond_its_row_width(self):
        # n = 70 > 64: the full native scan cannot pack the rows, but the
        # size-restricted walk ignores the backend and must answer.
        g = layered_circulant_cdag(70)
        h_n, m_n = exact_edge_expansion_v2(g, max_size=2, backend="native")
        h_b, m_b = exact_edge_expansion_v2(g, max_size=2, backend="bitset")
        assert h_n == h_b
        assert np.array_equal(m_n, m_b)

    def test_full_native_scan_still_rejects_wide_rows(self):
        with pytest.raises(ValueError, match="native backend packs rows"):
            exact_edge_expansion_v2(layered_circulant_cdag(70), backend="native", limit=70)

    def test_explicit_native_raises_when_disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        try:
            with pytest.raises(RuntimeError, match="native exact backend unavailable"):
                exact_edge_expansion_v2(layered_circulant_cdag(8), backend="native")
        finally:
            monkeypatch.undo()
            _native.reset()

    def test_auto_falls_back_silently_when_disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        try:
            g = layered_circulant_cdag(12)
            h, m = exact_edge_expansion_v2(g, backend="auto")  # must not raise
            h_b, m_b = exact_edge_expansion_v2(g, backend="bitset")
            assert h == h_b
            assert np.array_equal(m, m_b)
        finally:
            monkeypatch.undo()
            _native.reset()


class TestLoaderContract:
    def test_disabled_via_env_returns_none(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        try:
            assert _native.load() is None
            assert not native_backend_available()
        finally:
            monkeypatch.undo()
            _native.reset()

    def test_missing_compiler_degrades_to_unavailable(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_NATIVE", "1")  # even on the fallback CI leg
        monkeypatch.setenv("REPRO_NATIVE_CC", str(tmp_path / "no-such-cc"))
        monkeypatch.setenv("REPRO_NATIVE_DIR", str(tmp_path / "native"))
        _native.reset()
        try:
            assert _native.load() is None
            assert not native_backend_available()
            assert _native.native_build_error()  # the reason is recorded
        finally:
            monkeypatch.undo()
            _native.reset()

    @needs_native
    def test_compiled_library_is_content_addressed_and_cached(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_NATIVE_DIR", str(tmp_path / "native"))
        _native.reset()
        try:
            lib = _native.load()
            assert lib is not None
            built = list((tmp_path / "native").glob("exactscan-*.so"))
            assert len(built) == 1
            # A second load attempt must reuse the cached build (same path).
            _native.reset()
            assert _native.load() is not None
            assert list((tmp_path / "native").glob("exactscan-*.so")) == built
        finally:
            monkeypatch.undo()
            _native.reset()

    @needs_native
    def test_abi_version_exported(self):
        lib = _native.load()
        assert lib is not None
        assert int(lib.repro_native_abi()) == _native.NATIVE_ABI
