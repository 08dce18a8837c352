"""Normalized operators, block spectra, operator norms, and error radii."""
from __future__ import annotations

import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

import palink.spectral as spectral
from palink.graphdata import make_dataset, within_group_structure
from palink.spectral import (
    block_spectrum,
    matrix_from_edges,
    normalized_matrix,
    operator_norm,
    residual_and_bounds,
    residual_cross_term,
)

from conftest import (
    complete_bipartite_graph,
    complete_graph,
    random_planted_dataset,
    star_graph,
)
from oracles import (
    dense_power_entries,
    product_normalized_matrix,
    sym_block,
    sym_block_gap,
)


class TestNormalizedMatrix:
    def test_k3_symmetric_entries(self, k3):
        nm = normalized_matrix(k3, "symmetric")
        dense = nm.matrix.toarray()
        expected = np.full((3, 3), 0.5)
        np.fill_diagonal(expected, 0.0)
        np.testing.assert_allclose(dense, expected)

    def test_random_walk_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        ds = random_planted_dataset(rng, weights=(1.0,))
        nm = normalized_matrix(ds, "random_walk")
        np.testing.assert_allclose(nm.matrix.sum(axis=1).A1, 1.0, atol=1e-12)

    def test_zero_degree_row_and_column_empty(self):
        ds = make_dataset([(0, 1)], np.ones((3, 1)), [0, 0, 0],
                          self_loop_weight=0.0)
        for kind in ("symmetric", "random_walk"):
            nm = normalized_matrix(ds, kind)
            for axis in (0, 1):
                np.testing.assert_array_equal(nm.matrix.getnnz(axis=axis) == 0,
                                              [False, False, True])
            assert np.isfinite(nm.matrix.data).all()

    def test_self_loop_weight_on_diagonal(self):
        ds = make_dataset([(0, 1)], np.ones((2, 1)), [0, 0],
                          self_loop_weight=1.0)
        nm = normalized_matrix(ds, "symmetric")
        np.testing.assert_allclose(nm.matrix.toarray(),
                                   [[0.5, 0.5], [0.5, 0.5]])

    def test_within_group_source(self):
        ds = make_dataset([(0, 1), (1, 2)], np.ones((3, 1)), [0, 0, 1],
                          self_loop_weight=0.0)
        view = within_group_structure(ds)
        nm = normalized_matrix(view, "symmetric")
        dense = nm.matrix.toarray()
        assert dense[1, 2] == 0.0  # cross-group edge dropped
        assert dense[0, 1] == 1.0  # normalized by within-group degree 1

    def test_unknown_kind(self, k3):
        with pytest.raises(ValueError):
            normalized_matrix(k3, "laplacian")


def operator_instances():
    """Planted graphs with self-loop weights 0, 0.5, 1 and 2, isolated
    nodes included, and one train-split-like subset of their edges."""
    rng = np.random.default_rng(21)
    for _ in range(40):
        ds = random_planted_dataset(rng, n_max=60, p_out_range=(0.0, 0.05),
                                    weights=(0.0, 0.5, 1.0, 2.0))
        keep = rng.random(len(ds.edges)) < 0.7
        for edges in (ds.edges, ds.edges[keep]):
            yield ds.n, edges, ds.self_loop_weight


class TestOperatorBuild:
    @pytest.mark.parametrize("kind", ["symmetric", "random_walk"])
    def test_canonical_csr(self, kind):
        for n, edges, w in operator_instances():
            mat = matrix_from_edges(n, edges, w, kind).matrix
            # a fresh matrix on the same arrays checks, not trusts, the flag
            fresh = sp.csr_matrix((mat.data, mat.indices, mat.indptr),
                                  shape=mat.shape)
            assert mat.has_sorted_indices and fresh.has_sorted_indices
            assert np.all(mat.data != 0.0)

    def test_symmetric_bitwise_equal_to_product_formula(self):
        for n, edges, w in operator_instances():
            got = matrix_from_edges(n, edges, w, "symmetric").matrix
            expected = product_normalized_matrix(n, edges, w, "symmetric")
            for name in ("indptr", "indices", "data"):
                np.testing.assert_array_equal(getattr(got, name),
                                              getattr(expected, name),
                                              err_msg=name)

    def test_random_walk_equals_product_formula(self):
        for n, edges, w in operator_instances():
            got = matrix_from_edges(n, edges, w, "random_walk").matrix
            expected = product_normalized_matrix(n, edges, w, "random_walk")
            np.testing.assert_array_equal(got.toarray(), expected.toarray())


def oracle_eigenvalues(view, g) -> np.ndarray:
    """Ascending eigenvalues of group ``g``'s block, built on its own."""
    return np.linalg.eigvalsh(sym_block(view, g).toarray())


def counting_eigsh(monkeypatch) -> list:
    """Replace Lanczos ``eigsh`` with a wrapper that logs each call's
    block size; returns the log."""
    calls = []
    real = spectral.spla.eigsh

    def eigsh(mat, *args, **kwargs):
        calls.append(mat.shape[0])
        return real(mat, *args, **kwargs)

    monkeypatch.setattr(spectral.spla, "eigsh", eigsh)
    return calls


class TestBlockSpectrum:
    def test_k3_eigenvalues_and_gap(self, k3):
        view = within_group_structure(k3)
        gaps = block_spectrum(view)
        np.testing.assert_allclose(oracle_eigenvalues(view, 0),
                                   [-0.5, -0.5, 1.0], atol=1e-12)
        np.testing.assert_allclose(gaps, [0.5])

    def test_k4_gap(self, k4):
        view = within_group_structure(k4)
        gaps = block_spectrum(view)
        assert gaps[0] == pytest.approx(1.0 / 3.0)

    def test_c4_bipartite_gap_is_one(self, c4):
        view = within_group_structure(c4)
        gaps = block_spectrum(view)
        np.testing.assert_allclose(oracle_eigenvalues(view, 0),
                                   [-1.0, 0.0, 0.0, 1.0], atol=1e-12)
        assert gaps[0] == pytest.approx(1.0)

    def test_leading_eigenvalue_is_one_when_volume_positive(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            ds = random_planted_dataset(rng)
            view = within_group_structure(ds)
            gaps = block_spectrum(view)
            assert np.all(gaps <= 1.0 + 1e-9)
            for g in np.flatnonzero(view.volumes != 0.0):
                ev = oracle_eigenvalues(view, g)
                assert ev[-1] == pytest.approx(1.0, abs=1e-9)
                assert ev[0] >= -1.0 - 1e-9

    def test_random_walk_spectrum_equals_symmetric(self):
        rng = np.random.default_rng(4)
        ds = random_planted_dataset(rng, weights=(1.0,))
        view = within_group_structure(ds)
        sym = block_spectrum(view, "symmetric")
        rw = block_spectrum(view, "random_walk")
        np.testing.assert_array_equal(sym, rw)
        # cross-check against eigenvalues of the actual random-walk block
        nm_rw = normalized_matrix(view, "random_walk")
        g = int(np.argmax(np.diff(view.offsets)))
        nodes = view.order[view.offsets[g]:view.offsets[g + 1]]
        assert nodes.size > 2
        block = nm_rw.matrix.toarray()[np.ix_(nodes, nodes)]
        ev = np.sort(np.linalg.eigvals(block).real)
        assert sym[g] == pytest.approx(max(ev[-2], abs(ev[0])), abs=1e-8)

    def test_gaps_bitwise_equal_per_group_build(self):
        rng = np.random.default_rng(6)
        for p_in in ((0.5, 0.95), (0.05, 0.2)):
            for _ in range(8):
                ds = random_planted_dataset(rng, p_in_range=p_in)
                view = within_group_structure(ds)
                expected = [sym_block_gap(view, g) for g in range(view.n_groups)]
                np.testing.assert_array_equal(block_spectrum(view), expected)

    def test_singleton_groups(self):
        ds = make_dataset([(0, 1)], np.ones((3, 1)), [0, 0, 1],
                          self_loop_weight=1.0)
        view = within_group_structure(ds)
        gaps = block_spectrum(view)
        np.testing.assert_array_equal(oracle_eigenvalues(view, 1), [1.0])
        assert gaps[1] == 0.0
        assert view.volumes[1] != 0.0

    def test_zero_volume_singleton_flagged(self):
        ds = make_dataset([(0, 1)], np.ones((3, 1)), [0, 0, 1],
                          self_loop_weight=0.0)
        view = within_group_structure(ds)
        gaps = block_spectrum(view)
        np.testing.assert_array_equal(view.volumes == 0.0, [False, True])
        np.testing.assert_array_equal(oracle_eigenvalues(view, 1), [0.0])
        assert gaps[1] == 0.0

    def test_iterative_path_matches_dense(self, monkeypatch):
        rng = np.random.default_rng(5)
        ds = random_planted_dataset(rng, n_max=40, b_max=1,
                                    p_in_range=(0.4, 0.6), weights=(1.0,))
        # one view per solver path: gaps are memoized per view object
        view = within_group_structure(ds)
        dense = block_spectrum(view)
        calls = counting_eigsh(monkeypatch)
        monkeypatch.setattr(spectral, "DENSE_EIG_LIMIT", 2)
        iterative = block_spectrum(within_group_structure(ds))
        sizes = np.diff(view.offsets)
        # one Lanczos run (the deflated block's norm) per block above the limit
        assert sorted(calls) == sorted(sizes[sizes > 2].tolist())
        assert calls
        np.testing.assert_allclose(iterative, dense, rtol=0, atol=1e-7)
        np.testing.assert_array_equal(iterative[sizes <= 2], dense[sizes <= 2])

    def test_iterative_path_bitwise_repeatable(self, monkeypatch):
        rng = np.random.default_rng(5)
        ds = random_planted_dataset(rng, n_max=40, b_max=1,
                                    p_in_range=(0.4, 0.6), weights=(1.0,))
        calls = counting_eigsh(monkeypatch)
        monkeypatch.setattr(spectral, "DENSE_EIG_LIMIT", 2)
        # one view per call: gaps are memoized per view object
        first = block_spectrum(within_group_structure(ds))
        second = block_spectrum(within_group_structure(ds))
        assert calls
        np.testing.assert_array_equal(first, second)

    @pytest.mark.parametrize("graph, expected", [
        (lambda k: complete_graph(k, 1.0), 0.0),
        (lambda k: complete_bipartite_graph(k // 3, k - k // 3), 1.0),
        (lambda k: star_graph(k), 1.0),
        (lambda k: star_graph(k, 1.0), 0.5),
    ], ids=["complete", "bipartite", "star", "star_self_loops"])
    def test_blocks_above_the_limit_match_dense(self, monkeypatch, graph,
                                                expected):
        view = within_group_structure(graph(spectral.DENSE_EIG_LIMIT + 44))
        dense = sym_block_gap(view, 0)
        solved = counting_eigvalsh(monkeypatch)
        gap = block_spectrum(view)[0]
        assert solved == []
        assert gap == pytest.approx(dense, abs=1e-12)
        assert gap == pytest.approx(expected, abs=1e-12)

    def test_complete_block_gap_is_zero_without_lanczos(self, monkeypatch):
        # J / 50 minus its top pair is zero in floating point, where ARPACK
        # cannot start
        calls = counting_eigsh(monkeypatch)
        monkeypatch.setattr(spectral, "DENSE_EIG_LIMIT", 2)
        view = within_group_structure(complete_graph(50, 1.0))
        gap = block_spectrum(view)[0]
        assert calls == []
        assert 0.0 <= gap <= 1e-15
        assert gap == pytest.approx(sym_block_gap(view, 0), abs=1e-12)

    def test_start_vector_in_null_space_raises(self, monkeypatch):
        # the star's leaf differences are null vectors of the deflated
        # block; no silent gap of 0 for a block whose gap is 1
        monkeypatch.setattr(spectral, "DENSE_EIG_LIMIT", 2)
        monkeypatch.setattr(spectral, "_start_vector",
                            lambda n: np.r_[0.0, 1.0, -1.0, np.zeros(n - 3)])
        view = within_group_structure(star_graph(6, 0.0))
        with pytest.raises(ArithmeticError, match="start vector"):
            block_spectrum(view)

    def test_size_guard(self, monkeypatch):
        # one block just above the limit (a path) and one of three nodes:
        # only the small one is ever made dense
        big = spectral.DENSE_EIG_LIMIT + 1
        edges = [(i, i + 1) for i in range(big - 1)] + [(big, big + 1),
                                                          (big + 1, big + 2)]
        ds = make_dataset(edges, np.ones((big + 3, 1)), [0] * big + [1] * 3)
        view = within_group_structure(ds)
        solved = counting_eigvalsh(monkeypatch)
        densified = []
        real = sp.csr_matrix.toarray
        monkeypatch.setattr(
            sp.csr_matrix, "toarray",
            lambda self, *a, **k: densified.append(self.shape)
            or real(self, *a, **k))
        calls = counting_eigsh(monkeypatch)
        block_spectrum(view)
        assert solved == densified == [(3, 3)]
        assert calls == [big]

    def test_singletons_need_no_eigensolve(self, monkeypatch):
        # three singletons and one edge: one eigensolve, for the pair
        ds = make_dataset([(0, 1)], np.ones((5, 1)), [0, 0, 1, 1, 2])
        view = within_group_structure(ds)
        solved = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a: solved.append(a.shape) or real(a))
        gaps = block_spectrum(view)
        assert solved == [(2, 2)]
        np.testing.assert_array_equal(
            gaps, [sym_block_gap(view, g) for g in range(view.n_groups)])


def counting_eigvalsh(monkeypatch) -> list:
    """Replace dense ``eigvalsh`` with a wrapper that logs each call's
    matrix shape; returns the log."""
    solved = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a: solved.append(a.shape) or real(a))
    return solved


def counting_operator_norm(monkeypatch) -> list:
    """Replace ``spectral.operator_norm`` with a wrapper that logs each
    call's matrix shape; returns the log."""
    calls = []
    real = spectral.operator_norm

    def operator_norm(mat):
        calls.append(mat.shape)
        return real(mat)

    monkeypatch.setattr(spectral, "operator_norm", operator_norm)
    return calls


def assert_bounds_bitwise_equal(got, expected):
    for field in dataclasses.fields(got):
        np.testing.assert_array_equal(getattr(got, field.name),
                                      getattr(expected, field.name),
                                      err_msg=field.name)


class TestSpectralMemo:
    def test_both_kinds_solve_each_block_once(self, monkeypatch):
        rng = np.random.default_rng(13)
        ds = random_planted_dataset(rng, p_in_range=(0.3, 0.6))
        view = within_group_structure(ds)
        solved = counting_eigvalsh(monkeypatch)
        sym = block_spectrum(view, "symmetric")
        rw = block_spectrum(view, "random_walk")
        again = block_spectrum(view, "symmetric")
        sizes = np.diff(view.offsets)
        assert sorted(solved) == sorted((k, k) for k in sizes[sizes >= 2])
        assert solved
        assert sym is rw is again
        np.testing.assert_array_equal(
            sym, [sym_block_gap(view, g) for g in range(view.n_groups)])

    def test_gaps_are_read_only(self, k4):
        gaps = block_spectrum(within_group_structure(k4))
        assert not gaps.flags.writeable
        with pytest.raises(ValueError):
            gaps[0] = 0.0

    @pytest.mark.parametrize("kind", ["symmetric", "random_walk"])
    def test_two_norms_for_every_depth(self, monkeypatch, kind):
        rng = np.random.default_rng(14)
        ds = random_planted_dataset(rng, weights=(1.0,))
        view = within_group_structure(ds)
        full = normalized_matrix(ds, kind)
        within = normalized_matrix(view, kind)
        gaps = block_spectrum(view, kind)
        calls = counting_operator_norm(monkeypatch)
        memoized = [residual_and_bounds(full, within, gaps, L, view)
                    for L in (1, 2, 4)]
        assert len(calls) == 2
        for L, bounds in zip((1, 2, 4), memoized):
            fresh_view = within_group_structure(ds)
            fresh = residual_and_bounds(
                normalized_matrix(ds, kind),
                normalized_matrix(fresh_view, kind),
                block_spectrum(fresh_view, kind), L, fresh_view)
            assert_bounds_bitwise_equal(bounds, fresh)
        assert len(calls) == 2 + 2 * 3

    def test_entries_die_with_their_objects(self, k4):
        view = within_group_structure(k4)
        full = normalized_matrix(k4, "symmetric")
        within = normalized_matrix(view, "symmetric")
        residual_and_bounds(full, within, block_spectrum(view), 2, view)
        assert view in spectral._gaps and within in spectral._norms
        assert within in spectral._residual_norms[full]
        tables = (spectral._gaps, spectral._norms, spectral._residual_norms)
        filled = [len(table) for table in tables]
        refs = [weakref.ref(obj) for obj in (view, full, within)]
        del view, full, within
        gc.collect()
        assert all(ref() is None for ref in refs)
        for table, before in zip(tables, filled):
            assert len(table) <= before - 1
            assert all(key() is not None for key in table.data)

    def test_replaced_view_recomputes(self, monkeypatch, k4):
        view = within_group_structure(k4)
        first = block_spectrum(view)
        solved = counting_eigvalsh(monkeypatch)
        copy = dataclasses.replace(view)
        assert copy is not view and copy != view
        second = block_spectrum(copy)
        assert solved == [(4, 4)]
        assert second is not first
        np.testing.assert_array_equal(second, first)


class TestOperatorNorm:
    def test_matches_svd_on_random_sparse(self):
        rng = np.random.default_rng(6)
        for shape in [(12, 12)] * 5 + [(30, 30)]:
            dense = rng.normal(size=shape)  # not symmetric
            mat = sp.csr_matrix(dense)
            expected = np.linalg.svd(dense, compute_uv=False)[0]
            assert operator_norm(mat) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("case", ["bipartite", "one_by_one", "two_by_two",
                                      "row", "column"])
    def test_matches_dense_svd(self, case):
        rng = np.random.default_rng(7)
        if case == "bipartite":
            # eigenvalues come in +-pairs, so the top |eigenvalue| is tied
            b = rng.normal(size=(8, 5))
            dense = np.block([[np.zeros((8, 8)), b], [b.T, np.zeros((5, 5))]])
        elif case == "one_by_one":
            dense = np.array([[-2.5]])
        elif case == "two_by_two":
            dense = rng.normal(size=(2, 2))
        elif case == "row":
            dense = rng.normal(size=(1, 17))
        else:
            dense = rng.normal(size=(17, 1))
        expected = np.linalg.svd(dense, compute_uv=False)[0]
        assert operator_norm(sp.csr_matrix(dense)) == pytest.approx(
            expected, rel=1e-12)
        assert operator_norm(dense) == pytest.approx(expected, rel=1e-12)

    def test_zero_matrix(self):
        assert operator_norm(sp.csr_matrix((5, 5))) == 0.0
        explicit = sp.csr_matrix((np.zeros(3), (np.arange(3), np.arange(3))),
                                 shape=(4, 4))
        assert explicit.nnz == 3
        assert operator_norm(explicit) == 0.0

    @pytest.mark.parametrize("kind", ["symmetric", "random_walk"])
    def test_planted_residual_matches_dense_svd(self, kind):
        rng = np.random.default_rng(10)
        for _ in range(8):
            ds = random_planted_dataset(rng, weights=(1.0,))
            view = within_group_structure(ds)
            xi = (normalized_matrix(ds, kind).matrix
                  - normalized_matrix(view, kind).matrix).tocsr()
            expected = np.linalg.svd(xi.toarray(), compute_uv=False)[0]
            if expected == 0.0:
                assert operator_norm(xi) == 0.0
            else:
                assert operator_norm(xi) == pytest.approx(expected, rel=1e-12)

    def test_repeated_calls_bitwise_equal(self):
        rng = np.random.default_rng(11)
        mat = sp.random(200, 200, density=0.05, random_state=rng,
                        format="csr")
        first = operator_norm(mat)
        assert all(operator_norm(mat) == first for _ in range(3))

    def test_large_connected_graph_symmetric_norm_is_one(self):
        # Too large for a dense oracle: a connected graph with self-loops
        # has a symmetric operator with top eigenvalue 1, every other one
        # strictly inside (-1, 1).
        n = 6000
        rng = np.random.default_rng(12)
        ring = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
        extra = rng.integers(0, n, size=(4 * n, 2))
        extra = extra[extra[:, 0] != extra[:, 1]]
        edges = np.unique(np.sort(np.concatenate([ring, extra]), axis=1),
                          axis=0)
        nm = matrix_from_edges(n, edges, 1.0, "symmetric")
        assert operator_norm(nm.matrix) == pytest.approx(1.0, abs=1e-12)


class TestBounds:
    def test_k3_frozen_bound_values(self, k3):
        view = within_group_structure(k3)
        full = normalized_matrix(k3, "symmetric")
        within = normalized_matrix(view, "symmetric")
        gaps = block_spectrum(view)
        bounds = residual_and_bounds(full, within, gaps, L=2, view=view)
        # single group, no cross edges: residual vanishes
        assert bounds.xi_norm == pytest.approx(0.0, abs=1e-12)
        assert bounds.cross_term == pytest.approx(0.0, abs=1e-12)
        assert bounds.zeta[0] == pytest.approx(0.25)
        p2 = dense_power_entries(full, 2)
        np.testing.assert_allclose(np.diag(p2), 0.5)
        off = p2[0, 1]
        assert off == pytest.approx(0.25)
        # stationary target 2/6; deviation 1/12 within the radius 0.25
        assert abs(off - 2.0 / 6.0) == pytest.approx(1.0 / 12.0)
        assert abs(off - 2.0 / 6.0) <= bounds.zeta[0] + 1e-9

    def test_cross_term_formula(self):
        xi, phat = 0.3, 1.1
        expected = sum(
            math.comb(3, l) * xi**l * phat ** (3 - l) for l in (1, 2, 3)
        )
        assert residual_cross_term(3, xi, phat) == pytest.approx(expected)

    def test_degree_ratio_random_walk(self, toy_cs):
        view = within_group_structure(toy_cs)
        full = normalized_matrix(toy_cs, "random_walk")
        within = normalized_matrix(view, "random_walk")
        gaps = block_spectrum(view, "random_walk")
        bounds = residual_and_bounds(full, within, gaps, L=2, view=view)
        # degrees: {1, 2, 1, 3, 1, 0}; max/min positive = 3/1, so the
        # radius carries the factor sqrt(3)
        assert bounds.zeta[0] == pytest.approx(
            math.sqrt(3.0) * gaps[0]**2 + bounds.cross_term)
        assert np.isnan(bounds.zeta[1])  # zero-volume singleton group

    def test_all_zero_degrees_give_nan_radii(self):
        # Only cross-group edges and no self-loops: every within-group
        # degree is 0, so no radius is defined under either kind.
        ds = make_dataset([(0, 2), (1, 3)], np.ones((4, 1)), [0, 0, 1, 1],
                          self_loop_weight=0.0)
        view = within_group_structure(ds)
        for kind in ("symmetric", "random_walk"):
            full = normalized_matrix(ds, kind)
            within = normalized_matrix(view, kind)
            gaps = block_spectrum(view, kind)
            bounds = residual_and_bounds(full, within, gaps, L=2,
                                         view=view)
            assert bounds.zeta.shape == (4,)
            assert np.isnan(bounds.zeta).all(), kind

    def test_kind_mismatch_and_bad_L(self, k3):
        view = within_group_structure(k3)
        full = normalized_matrix(k3, "symmetric")
        within = normalized_matrix(view, "random_walk")
        gaps = block_spectrum(view)
        with pytest.raises(ValueError):
            residual_and_bounds(full, within, gaps, L=1, view=view)
        within_ok = normalized_matrix(view, "symmetric")
        with pytest.raises(ValueError):
            residual_and_bounds(full, within_ok, gaps, L=0, view=view)

    def test_entrywise_bounds_on_random_graphs(self):
        """Mini version of the bound suite; the full corpus runs in the
        acceptance tests."""
        rng = np.random.default_rng(8)
        for _ in range(15):
            ds = random_planted_dataset(rng)
            view = within_group_structure(ds)
            for kind in ("symmetric", "random_walk"):
                if kind == "random_walk" and not (view.wg_degrees > 0).any():
                    continue
                full = normalized_matrix(ds, kind)
                within = normalized_matrix(view, kind)
                gaps = block_spectrum(view, kind)
                for L in (1, 3):
                    bounds = residual_and_bounds(full, within, gaps, L,
                                                 view)
                    pl = dense_power_entries(full, L)
                    check_entry_bounds(pl, view, bounds, kind)


def check_entry_bounds(pl, view, bounds, kind, slack=1e-9):
    """Every same-group entry within its radius of the degree target; every
    cross-group entry within the residual-only radius."""
    deg = view.wg_degrees
    gof = view.group_of
    n = view.n
    for i in range(n):
        for j in range(n):
            if gof[i] == gof[j]:
                g = gof[i]
                vol = view.volumes[g]
                if vol == 0.0:
                    # degenerate group: block power is zero, residual-only
                    assert abs(pl[i, j]) <= bounds.cross_term + slack
                    continue
                if kind == "symmetric":
                    target = math.sqrt(deg[i] * deg[j]) / vol
                else:
                    target = deg[j] / vol
                assert abs(pl[i, j] - target) <= bounds.zeta[g] + slack
            else:
                assert abs(pl[i, j]) <= bounds.cross_term + slack


class TestDensePowers:
    def test_identity_and_first_power(self, k3):
        nm = normalized_matrix(k3, "symmetric")
        np.testing.assert_array_equal(dense_power_entries(nm, 0), np.eye(3))
        np.testing.assert_allclose(dense_power_entries(nm, 1),
                                   nm.matrix.toarray())

    def test_matches_matrix_power_oracle(self):
        rng = np.random.default_rng(9)
        ds = random_planted_dataset(rng)
        nm = normalized_matrix(ds, "symmetric")
        got = dense_power_entries(nm, 4)
        expected = np.linalg.matrix_power(nm.matrix.toarray(), 4)
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_size_guard(self):
        nm = matrix_from_edges(5001, np.zeros((0, 2), dtype=np.int64), 1.0,
                               "symmetric")
        with pytest.raises(ValueError):
            dense_power_entries(nm, 2)

    def test_negative_power_rejected(self, k3):
        nm = normalized_matrix(k3, "symmetric")
        with pytest.raises(ValueError):
            dense_power_entries(nm, -1)
