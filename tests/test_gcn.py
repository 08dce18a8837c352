"""Encoder forward/backward checks: hand-worked values, a dense linear
oracle, and finite-difference validation of every gradient entry."""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from scipy.special import expit

import palink.gcn as gcn
from palink.fairness import delta, regularizer_term
from palink.gcn import (
    Model,
    _forward_cached,
    _pair_gradient,
    bce_from_logits,
    forward,
    init_model,
    loss_and_gradients,
    score_pairs,
)
from palink.graphdata import make_dataset
from palink.spectral import KINDS, normalized_matrix

from conftest import complete_graph, random_planted_dataset
from oracles import (
    dense_power_entries,
    einsum_scores,
    finite_difference_grads,
    gradient_error,
    lifted_pair_gradient,
    propagate_first_bce_grads,
    propagate_first_forward,
)


def two_path():
    ds = make_dataset(
        edges=[(0, 1)],
        features=[[1.0, 2.0], [3.0, 4.0]],
        s_labels=[0, 0],
        self_loop_weight=0.0,
    )
    return ds, normalized_matrix(ds, "symmetric")


class TestInit:
    def test_deterministic_per_seed(self):
        a = init_model(5, (4, 3), seed=11)
        b = init_model(5, (4, 3), seed=11)
        c = init_model(5, (4, 3), seed=12)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)
        assert any(
            not np.array_equal(wa, wc)
            for wa, wc in zip(a.weights, c.weights)
        )

    def test_shapes_and_props(self):
        m = init_model(7, (5, 3, 2), seed=0)
        assert [w.shape for w in m.weights] == [(5, 7), (3, 5), (2, 3)]
        assert m.n_layers == 3
        assert m.feature_dim == 7

    def test_within_uniform_limits(self):
        m = init_model(9, (6, 4), seed=3)
        fan_in = 9
        for w in m.weights:
            fan_out = w.shape[0]
            limit = math.sqrt(6.0 / (fan_in + fan_out))
            assert np.all(np.abs(w) <= limit)
            assert np.std(w) > 0.1 * limit  # actually spread out
            fan_in = fan_out

    def test_validation(self):
        with pytest.raises(ValueError):
            init_model(4, (3,), filter_kind="spectral")
        with pytest.raises(ValueError):
            init_model(4, ())
        with pytest.raises(ValueError):
            init_model(0, (3,))
        with pytest.raises(ValueError):
            init_model(4, (3, 0))


class TestForward:
    def test_hand_worked_two_layer(self):
        # P = [[0,1],[1,0]] swaps rows.  With all pre-activations positive
        # in layer 1 the ReLU is inert and every step is a small matmul
        # that can be checked by hand.
        ds, nm = two_path()
        w1 = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        w2 = np.array([[1.0, -1.0, 0.0]])
        model = Model("symmetric", [w1, w2])
        h = forward(model, nm, ds.features)
        # layer 1: P X = [[3,4],[1,2]]; Z1 = [[3,4,7],[1,2,3]] (all > 0)
        # layer 2: P H1 = [[1,2,3],[3,4,7]]; Z2 = [[-1],[-1]]
        np.testing.assert_allclose(h, [[-1.0], [-1.0]], atol=1e-15)
        assert score_pairs(h, [(0, 1)])[0] == pytest.approx(1.0)

    def test_relu_masks_inner_negatives(self):
        ds, nm = two_path()
        w1 = np.array([[-1.0, 0.0], [0.0, 1.0]])
        w2 = np.array([[1.0, 1.0]])
        model = Model("symmetric", [w1, w2])
        # layer 1 pre-activations: P X = [[3,4],[1,2]] -> Z1 columns
        # [-3, 4] and [-1, 2]; ReLU zeroes the first column.
        h = forward(model, nm, ds.features)
        np.testing.assert_allclose(h.ravel(), [2.0, 4.0], atol=1e-15)
        h_lin = forward(model, nm, ds.features, linear=True)
        np.testing.assert_allclose(h_lin.ravel(), [2.0 - 1.0, 4.0 - 3.0],
                                   atol=1e-15)

    def test_linear_forward_equals_dense_chain(self):
        rng = np.random.default_rng(31)
        for _ in range(8):
            ds = random_planted_dataset(rng)
            kind = ("symmetric", "random_walk")[int(rng.integers(2))]
            nm = normalized_matrix(ds, kind)
            layers = int(rng.integers(1, 4))
            dims = tuple(int(d) for d in rng.integers(2, 5, size=layers))
            model = init_model(ds.feature_dim, dims, kind,
                               seed=int(rng.integers(1000)))
            h = forward(model, nm, ds.features, linear=True)
            pl = dense_power_entries(nm, layers)
            chain = model.weights[0]
            for w in model.weights[1:]:
                chain = w @ chain
            np.testing.assert_allclose(h, pl @ ds.features @ chain.T,
                                       atol=1e-12)

    def test_single_layer_has_no_activation(self):
        ds, nm = two_path()
        model = Model("symmetric", [np.array([[-1.0, 0.0]])])
        h = forward(model, nm, ds.features)
        np.testing.assert_allclose(h.ravel(), [-3.0, -1.0], atol=1e-15)

    def test_kind_mismatch_rejected(self):
        ds, nm = two_path()
        model = init_model(2, (3,), "random_walk")
        with pytest.raises(ValueError):
            forward(model, nm, ds.features)

    def test_feature_dim_mismatch_rejected(self):
        ds, nm = two_path()
        model = init_model(5, (3,), "symmetric")
        with pytest.raises(ValueError):
            forward(model, nm, ds.features)


class TestScoresAndLoss:
    def test_score_pairs_matches_loop(self):
        rng = np.random.default_rng(32)
        h = rng.normal(size=(9, 4))
        pairs = [(0, 3), (2, 5), (8, 8), (1, 0)]
        got = score_pairs(h, pairs)
        for k, (i, j) in enumerate(pairs):
            assert got[k] == pytest.approx(float(h[i] @ h[j]), abs=1e-12)

    def test_score_is_symmetric_in_endpoint_order(self):
        rng = np.random.default_rng(64)
        h = rng.normal(size=(10, 5))
        pairs = np.array([(i, j) for i in range(10) for j in range(10)
                          if i != j])
        np.testing.assert_array_equal(score_pairs(h, pairs),
                                      score_pairs(h, pairs[:, ::-1]))

    @pytest.mark.parametrize("block", [1, 7, 10**6])
    def test_blocked_scores_bitwise_equal_unblocked(self, block, monkeypatch):
        monkeypatch.setattr(gcn, "_PAIR_BLOCK", block)
        rng = np.random.default_rng(65)
        h = rng.normal(size=(40, 13))
        # no pairs, one pair, exactly one block, several blocks with a
        # partial last block (a single partial block when block is large)
        for count in (0, 1, min(block, 300), min(3 * block + 2, 500)):
            pairs = rng.integers(0, 40, size=(count, 2))
            got = score_pairs(h, pairs)
            assert got.shape == (count,)
            np.testing.assert_array_equal(got, einsum_scores(h, pairs))

    def test_out_of_range_pair_rejected(self):
        h = np.ones((4, 2))
        for bad in ([(0, 4)], [(-1, 2)]):
            with pytest.raises(ValueError):
                score_pairs(h, bad)

    def test_bce_zero_scores_is_log_two(self):
        scores = np.zeros(6)
        labels = np.array([1, 0, 1, 1, 0, 0], dtype=float)
        assert bce_from_logits(scores, labels) == pytest.approx(math.log(2.0))

    def test_bce_matches_direct_formula(self):
        rng = np.random.default_rng(33)
        scores = rng.normal(scale=2.0, size=50)
        labels = (rng.random(50) < 0.5).astype(float)
        p = expit(scores)
        direct = -np.mean(labels * np.log(p) + (1 - labels) * np.log(1 - p))
        assert bce_from_logits(scores, labels) == pytest.approx(direct,
                                                                abs=1e-12)

    def test_bce_stable_at_extreme_scores(self):
        val = bce_from_logits([1000.0, -1000.0], [1.0, 0.0])
        assert val == pytest.approx(0.0, abs=1e-12)
        val = bce_from_logits([1000.0], [0.0])
        assert val == pytest.approx(1000.0, rel=1e-12)


def gradient_instance(seed, n=8, hidden=(4, 3), kind=None):
    rng = np.random.default_rng(seed)
    ds = random_planted_dataset(rng, n_max=n, b_max=2, with_subgroups=True)
    kind = kind or ("symmetric", "random_walk")[seed % 2]
    nm = normalized_matrix(ds, kind)
    model = init_model(ds.feature_dim, hidden, kind, seed=seed)
    m = ds.edges.shape[0]
    pos = ds.edges[: max(1, m // 2)]
    all_ij = np.array(
        [(i, j) for i in range(ds.n) for j in range(i + 1, ds.n)]
    )
    keys = {i * ds.n + j for i, j in ds.edges}
    non = np.array([p for p in all_ij if p[0] * ds.n + p[1] not in keys])
    neg = non[rng.permutation(non.shape[0])[: pos.shape[0]]]
    group_of = rng.integers(0, 2, size=ds.n)
    return ds, nm, model, pos, neg, group_of, ds.t_labels


class TestGradients:
    @pytest.mark.parametrize("lam", [0.0, 1.0])
    @pytest.mark.parametrize("seed", [41, 42])
    def test_matches_finite_differences(self, seed, lam):
        ds, nm, model, pos, neg, group_of, t = gradient_instance(seed)
        loss, bce, penalty, grads = loss_and_gradients(
            model, nm, ds.features, pos, neg, lam, group_of, t
        )
        assert loss == pytest.approx(bce + penalty, abs=1e-12)
        fd = finite_difference_grads(model, nm, ds.features, pos, neg, lam,
                                     group_of, t)
        assert gradient_error(grads, fd) < 1e-4

    def test_gradient_shapes(self):
        ds, nm, model, pos, neg, group_of, t = gradient_instance(43)
        _, _, _, grads = loss_and_gradients(model, nm, ds.features, pos, neg)
        assert [g.shape for g in grads] == [w.shape for w in model.weights]

    def test_penalty_matches_public_gap_measure(self):
        ds, nm, model, pos, neg, group_of, t = gradient_instance(44)
        lam = 2.5
        _, _, penalty, _ = loss_and_gradients(
            model, nm, ds.features, pos, neg, lam, group_of, t
        )
        h = forward(model, nm, ds.features)
        pairs = np.concatenate([pos, neg], axis=0)
        scores = score_pairs(h, pairs)
        assessment = delta(pairs, scores, group_of, t)
        assert penalty == pytest.approx(
            regularizer_term(assessment.delta, lam), abs=1e-12)

    def test_zero_lambda_has_no_penalty(self):
        ds, nm, model, pos, neg, group_of, t = gradient_instance(45)
        loss, bce, penalty, _ = loss_and_gradients(
            model, nm, ds.features, pos, neg, 0.0, group_of, t
        )
        assert penalty == 0.0
        assert loss == bce

    def test_lambda_without_labels_rejected(self):
        ds, nm, model, pos, neg, _, _ = gradient_instance(46)
        with pytest.raises(ValueError):
            loss_and_gradients(model, nm, ds.features, pos, neg, 1.0)

    def test_no_pairs_rejected(self):
        ds, nm, model, *_ = gradient_instance(47)
        empty = np.empty((0, 2), dtype=np.int64)
        with pytest.raises(ValueError):
            loss_and_gradients(model, nm, ds.features, empty, empty)

    def test_forward_cache_is_bitwise_identical(self):
        ds, nm, model, pos, neg, group_of, t = gradient_instance(48)
        a = loss_and_gradients(model, nm, ds.features, pos, neg, 1.0,
                               group_of, t)
        # with and without the first layer's propagation precomputed, as
        # training supplies it
        px = nm.matrix @ ds.features
        for cache in (_forward_cached(model, nm, ds.features),
                      _forward_cached(model, nm, ds.features, px=px)):
            b = loss_and_gradients(model, nm, ds.features, pos, neg, 1.0,
                                   group_of, t, forward_cache=cache)
            assert a[:3] == b[:3]
            for ga, gb in zip(a[3], b[3]):
                np.testing.assert_array_equal(ga, gb)

    def test_pair_matrix_gradient_matches_two_lifts(self):
        rng = np.random.default_rng(49)
        n = 12
        h = rng.normal(size=(n, 5))
        pairs = rng.integers(0, n, size=(60, 2))
        # repeated pairs, both orientations of one pair, a (u, u) pair and
        # a node (n - 1) that no pair touches
        pairs = np.concatenate([
            pairs % (n - 1), [(3, 7), (3, 7), (7, 3), (5, 5), (5, 5)],
        ])
        dscore = rng.normal(size=pairs.shape[0])
        got = _pair_gradient(h, pairs, dscore)
        want = lifted_pair_gradient(h, pairs, dscore)
        np.testing.assert_allclose(got, want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())
        np.testing.assert_array_equal(got[n - 1], 0.0)


# (8, 3, 6) has a narrowing layer between two widening ones; (4, 16) has
# none after the first layer, which always propagates first.
ORDER_CASES = [
    pytest.param(hidden, kind, id="x".join(map(str, hidden)) + "-" + kind)
    for hidden in [(8, 3, 6), (4, 16)] for kind in KINDS
]


class _WidthRecorder:
    """Stands in for ``nm.matrix``: multiplies as it does and records the
    column count of every dense operand, also through ``.T``."""

    def __init__(self, matrix, widths):
        self.matrix, self.widths = matrix, widths

    @property
    def T(self):
        return _WidthRecorder(self.matrix.T, self.widths)

    def __matmul__(self, dense):
        self.widths.append(dense.shape[1])
        return self.matrix @ dense


class TestPropagationOrder:
    @pytest.mark.parametrize("hidden,kind", ORDER_CASES)
    def test_forward_matches_propagate_first_oracle(self, hidden, kind):
        ds, nm, model, *_ = gradient_instance(51, hidden=hidden, kind=kind)
        for linear in (False, True):
            got = forward(model, nm, ds.features, linear=linear)
            want = propagate_first_forward(model, nm, ds.features, linear)[0]
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("hidden,kind", ORDER_CASES)
    def test_forward_with_and_without_px_bitwise_equal(self, hidden, kind):
        ds, nm, model, *_ = gradient_instance(52, hidden=hidden, kind=kind)
        px = nm.matrix @ ds.features
        a = _forward_cached(model, nm, ds.features)
        b = _forward_cached(model, nm, ds.features, px=px)
        np.testing.assert_array_equal(a[0], b[0])
        for xs, ys in zip(a[1:], b[1:]):
            for x, y in zip(xs, ys):
                np.testing.assert_array_equal(x, y)

    @pytest.mark.parametrize("lam", [0.0, 1.5])
    @pytest.mark.parametrize("hidden,kind", ORDER_CASES)
    def test_gradients_match_finite_differences(self, hidden, kind, lam):
        ds, nm, model, pos, neg, group_of, t = gradient_instance(
            53, hidden=hidden, kind=kind)
        grads = loss_and_gradients(model, nm, ds.features, pos, neg, lam,
                                   group_of, t)[3]
        fd = finite_difference_grads(model, nm, ds.features, pos, neg, lam,
                                     group_of, t)
        assert gradient_error(grads, fd) < 1e-4

    @pytest.mark.parametrize("hidden,kind", ORDER_CASES)
    def test_gradients_match_propagate_first_oracle(self, hidden, kind):
        ds, nm, model, pos, neg, *_ = gradient_instance(
            54, hidden=hidden, kind=kind)
        grads = loss_and_gradients(model, nm, ds.features, pos, neg)[3]
        want = propagate_first_bce_grads(model, nm, ds.features, pos, neg)
        assert gradient_error(grads, want) < 1e-10

    def test_sparse_products_run_at_the_narrower_width(self):
        rng = np.random.default_rng(55)
        ds = random_planted_dataset(rng, n_max=40, feature_dim=16)
        nm = normalized_matrix(ds, "symmetric")
        widths = []
        recording = dataclasses.replace(
            nm, matrix=_WidthRecorder(nm.matrix, widths))
        model = init_model(16, (128, 64), "symmetric", seed=55)
        neg = rng.integers(0, ds.n, size=(ds.m, 2))
        loss_and_gradients(model, recording, ds.features, ds.edges, neg)
        # P @ X, then P @ (H_1 W_2^T) forward and P^T G_2 backward
        assert widths == [16, 64, 64]
