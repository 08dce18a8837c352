"""Closed-form score predictions: collapsed-weight vectors, per-group
constants, through-origin slopes, and report assembly."""
from __future__ import annotations

import math

import numpy as np
import pytest

from palink.gcn import Model, forward, init_model, score_pairs
from palink.graphdata import make_dataset, within_group_structure
from palink.spectral import (
    block_spectrum,
    normalized_matrix,
    residual_and_bounds,
)
from palink.theory import (
    alpha_vectors,
    build_theory_report,
    estimate_rho,
    group_c1,
    raw_theoretic_scores,
)

from conftest import random_planted_dataset
from oracles import loop_group_c1, within_group_pairs


def k3_unit_alphas():
    """K3 with one-hot features and an identity layer: every alpha is
    [1, 0], so the group constants can be computed by hand."""
    ds = make_dataset(
        edges=[(0, 1), (0, 2), (1, 2)],
        features=np.tile([1.0, 0.0], (3, 1)),
        s_labels=[0, 0, 0],
        self_loop_weight=0.0,
    )
    model = Model("symmetric", [np.eye(2)])
    return ds, within_group_structure(ds), alpha_vectors(model, ds.features)


class TestAlphaVectors:
    def test_matches_per_node_chain(self):
        rng = np.random.default_rng(61)
        model = init_model(4, (3, 2), seed=6)
        x = rng.normal(size=(7, 4))
        got = alpha_vectors(model, x)
        w1, w2 = model.weights
        for j in range(7):
            np.testing.assert_allclose(got[j], w2 @ (w1 @ x[j]), atol=1e-14)

    def test_single_layer(self):
        rng = np.random.default_rng(62)
        model = init_model(3, (2,), seed=1)
        x = rng.normal(size=(5, 3))
        got = alpha_vectors(model, x)
        np.testing.assert_allclose(got, x @ model.weights[0].T,
                                   atol=1e-15)

    def test_dim_mismatch_rejected(self):
        model = init_model(3, (2,), seed=0)
        with pytest.raises(ValueError):
            alpha_vectors(model, np.ones((4, 5)))


class TestGroupConstants:
    def test_k3_frozen_values(self):
        ds, view, aset = k3_unit_alphas()
        np.testing.assert_allclose(np.linalg.norm(aset, axis=1), 1.0,
                                   atol=1e-12)

        c1_sym = group_c1(view, aset, "symmetric")
        assert c1_sym[0] == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-12)
        c1_rw = group_c1(view, aset, "random_walk")
        assert c1_rw[0] == pytest.approx(1.0, abs=1e-12)

        pairs = [(0, 1), (0, 2), (1, 2)]
        tau_sym, _ = raw_theoretic_scores(view, aset, pairs, "symmetric")
        np.testing.assert_allclose(tau_sym, 1.0, atol=1e-12)
        tau_rw, _ = raw_theoretic_scores(view, aset, pairs, "random_walk")
        np.testing.assert_allclose(tau_rw, 1.0, atol=1e-12)

    def test_symmetric_tau_proportional_to_degree_geometry(self):
        rng = np.random.default_rng(63)
        for _ in range(10):
            ds = random_planted_dataset(rng)
            view = within_group_structure(ds)
            model = init_model(ds.feature_dim, (4, 2),
                               seed=int(rng.integers(100)))
            aset = alpha_vectors(model, ds.features)
            pairs = within_group_pairs(view.group_of)
            if pairs.shape[0] == 0:
                continue
            tau, c1 = raw_theoretic_scores(view, aset, pairs, "symmetric")
            deg = view.wg_degrees
            gp = view.group_of[pairs[:, 0]]
            expected = np.sqrt(deg[pairs[:, 0]] * deg[pairs[:, 1]]) * c1[gp] ** 2
            np.testing.assert_allclose(tau, expected, atol=1e-12)

            tau_rw, c1_rw = raw_theoretic_scores(view, aset, pairs,
                                                 "random_walk")
            np.testing.assert_allclose(tau_rw, c1_rw[gp] ** 2, atol=1e-12)

    def test_matches_per_group_loop(self):
        rng = np.random.default_rng(64)
        for p_in in ((0.5, 0.95), (0.05, 0.2)):
            for _ in range(8):
                ds = random_planted_dataset(rng, p_in_range=p_in)
                view = within_group_structure(ds)
                aset = rng.normal(size=(ds.n, 5))
                for kind in ("symmetric", "random_walk"):
                    np.testing.assert_allclose(
                        group_c1(view, aset, kind),
                        loop_group_c1(view, aset, kind), rtol=1e-12, atol=0.0,
                    )

    def test_zero_volume_group_constant_is_zero(self, toy_cs):
        view = within_group_structure(toy_cs)
        model = Model("symmetric", [np.eye(3)])
        aset = alpha_vectors(model, toy_cs.features)
        c1 = group_c1(view, aset, "symmetric")
        assert c1[1] == 0.0  # the isolated second group has volume 0
        assert c1[0] > 0.0

    def test_cross_group_pair_rejected(self, toy_cs):
        view = within_group_structure(toy_cs)
        aset = np.ones((6, 2))
        with pytest.raises(ValueError):
            raw_theoretic_scores(view, aset, [(0, 5)], "symmetric")

    def test_validation(self, toy_cs):
        view = within_group_structure(toy_cs)
        with pytest.raises(ValueError):
            group_c1(view, np.ones((3, 2)), "symmetric")
        with pytest.raises(ValueError):
            group_c1(view, np.ones((6, 2)), "laplacian")


class TestEstimateRho:
    def test_hand_value(self):
        est = estimate_rho([1.0, 2.0], [2.0, 4.0], [0, 0], 1)
        assert est.rho2[0] == pytest.approx(2.0)
        assert not est.skipped[0]
        assert est.n_pairs[0] == 2

    def test_exact_recovery_of_linear_scores(self):
        rng = np.random.default_rng(64)
        tau = rng.uniform(0.5, 2.0, size=30)
        groups = rng.integers(0, 3, size=30)
        slopes = np.array([0.5, -1.25, 3.0])
        est = estimate_rho(tau, slopes[groups] * tau, groups, 3)
        np.testing.assert_allclose(est.rho2, slopes, atol=1e-12)

    def test_slope_minimizes_squared_error(self):
        rng = np.random.default_rng(65)
        tau = rng.uniform(0.1, 1.0, size=20)
        y = rng.normal(size=20)
        rho = estimate_rho(tau, y, np.zeros(20, int), 1).rho2[0]

        def loss(r):
            return np.sum((y - r * tau) ** 2)

        assert loss(rho) <= loss(rho + 0.01)
        assert loss(rho) <= loss(rho - 0.01)

    def test_skip_reasons(self):
        est = estimate_rho([1.0], [1.0], [1], 3)
        assert est.reasons == ("no_pairs", "too_few_pairs", "no_pairs")
        assert np.all(est.skipped)
        assert np.all(np.isnan(est.rho2))

        est = estimate_rho([0.0, 0.0], [1.0, 2.0], [0, 0], 1)
        assert est.skipped[0] and est.reasons[0] == "zero_tau"

    def test_misaligned_inputs_rejected(self):
        with pytest.raises(ValueError):
            estimate_rho([1.0, 2.0], [1.0], [0, 0], 1)


class TestTheoryReport:
    def build(self, seed=66):
        rng = np.random.default_rng(seed)
        ds = random_planted_dataset(rng, b_max=3, with_subgroups=False)
        view = within_group_structure(ds)
        model = init_model(ds.feature_dim, (4, 3),
                           seed=int(rng.integers(100)))
        aset = alpha_vectors(model, ds.features)
        same = within_group_pairs(view.group_of)
        cross = np.array(
            [(i, j) for i in range(ds.n) for j in range(i + 1, ds.n)
             if view.group_of[i] != view.group_of[j]]
        ).reshape(-1, 2)[:5]
        pairs = np.concatenate([same, cross], axis=0)
        scores = rng.normal(size=pairs.shape[0])
        return view, aset, pairs, scores, cross.shape[0]

    def test_rows_and_fits_are_consistent(self):
        view, aset, pairs, scores, n_cross = self.build()
        report = build_theory_report(view, aset, pairs, scores, "symmetric")
        assert report.n_dropped_cross == n_cross
        rows = report.rows
        # every kept row comes from a non-skipped group, with
        # tau_fitted = slope * tau_raw
        assert not np.any(report.skipped[rows["group"]])
        np.testing.assert_allclose(
            rows["tau_fitted"], report.rho2[rows["group"]] * rows["tau_raw"],
            atol=1e-12,
        )
        # metrics recomputed with the plain formulas
        f, y = rows["tau_fitted"], rows["gcn_score"]
        rmse = math.sqrt(np.mean((f - y) ** 2))
        assert report.nrmse.value == pytest.approx(
            rmse / (y.max() - y.min()), abs=1e-12
        )
        fc, yc = f - f.mean(), y - y.mean()
        assert report.pcc.value == pytest.approx(
            float(fc @ yc / math.sqrt((fc @ fc) * (yc @ yc))), abs=1e-12
        )

    def test_group_slopes_match_direct_estimation(self):
        view, aset, pairs, scores, _ = self.build(seed=67)
        report = build_theory_report(view, aset, pairs, scores, "symmetric")
        same = view.group_of[pairs[:, 0]] == view.group_of[pairs[:, 1]]
        tau, _ = raw_theoretic_scores(view, aset, pairs[same], "symmetric")
        est = estimate_rho(tau, scores[same],
                           view.group_of[pairs[same][:, 0]], view.n_groups)
        np.testing.assert_array_equal(np.isnan(report.rho2),
                                      np.isnan(est.rho2))
        np.testing.assert_allclose(np.nan_to_num(report.rho2),
                                   np.nan_to_num(est.rho2), atol=1e-12)

    def test_csv_and_json_outputs(self):
        # the per-pair CSV is written by the pipelines from ``rows`` and
        # checked against report.json in tests/test_pipelines.py
        view, aset, pairs, scores, _ = self.build(seed=68)
        report = build_theory_report(view, aset, pairs, scores, "symmetric")
        payload = report.to_json_dict()
        assert payload["filter"] == "symmetric"
        assert payload["n_pairs_used"] == report.rows["tau_raw"].size
        assert len(payload["groups"]) == view.n_groups
        for entry in payload["groups"]:
            if entry["skipped"]:
                assert entry["rho2"] is None

    def test_misaligned_scores_rejected(self):
        view, aset, pairs, scores, _ = self.build(seed=69)
        with pytest.raises(ValueError):
            build_theory_report(view, aset, pairs, scores[:-1], "symmetric")


class TestScoreConcentration:
    """Linear-model scores must sit within the certified distance of the
    closed form: the per-entry propagation bounds imply
    |score - tau| <= zeta * (w_i + w_j) * C1 * C2 + zeta^2 * C2^2 with
    w = sqrt(degree) for the symmetric filter and w = 1 for random walk."""

    @pytest.mark.parametrize("kind", ["symmetric", "random_walk"])
    @pytest.mark.parametrize("layers", [1, 2])
    def test_bound_holds_on_random_graphs(self, kind, layers):
        rng = np.random.default_rng(71)
        checked = 0
        for _ in range(10):
            ds = random_planted_dataset(rng, n_max=30, weights=(1.0, 2.0))
            view = within_group_structure(ds)
            full = normalized_matrix(ds, kind)
            within = normalized_matrix(view, kind)
            summary = block_spectrum(view, kind)
            bounds = residual_and_bounds(full, within, summary, layers, view)

            dims = tuple(int(d) for d in rng.integers(2, 5, size=layers))
            model = init_model(ds.feature_dim, dims, kind,
                               seed=int(rng.integers(1000)))
            aset = alpha_vectors(model, ds.features)
            c2 = np.linalg.norm(aset, axis=1).sum()  # C2 = sum_k ||alpha_k||
            h = forward(model, full, ds.features, linear=True)

            pairs = within_group_pairs(view.group_of)
            if pairs.shape[0] == 0:
                continue
            scores = score_pairs(h, pairs)
            tau, c1 = raw_theoretic_scores(view, aset, pairs, kind)
            gp = view.group_of[pairs[:, 0]]
            zeta = bounds.zeta[gp]
            if kind == "symmetric":
                w = np.sqrt(view.wg_degrees)
                spread = w[pairs[:, 0]] + w[pairs[:, 1]]
            else:
                spread = 2.0
            cap = zeta * spread * c1[gp] * c2 + zeta**2 * c2**2
            assert np.all(np.abs(scores - tau) <= cap + 1e-9)
            checked += pairs.shape[0]
        assert checked > 50
