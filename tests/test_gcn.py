"""Encoder forward/backward checks: hand-worked values, a dense linear
oracle, and finite-difference validation of every gradient entry."""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from scipy.special import expit

import palink.gcn as gcn
from palink.fairness import _sigmoid, delta
from palink.gcn import (
    Model,
    PairState,
    _forward_cached,
    forward,
    init_model,
    loss_and_gradients,
    score_pairs,
)
from palink.graphdata import make_dataset
from palink.spectral import KINDS, matrix_from_edges, normalized_matrix

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
        assert np.mean(gcn._bce(scores, labels)) == pytest.approx(
            math.log(2.0))

    def test_bce_matches_direct_formula(self):
        rng = np.random.default_rng(33)
        scores = rng.normal(scale=2.0, size=50)
        labels = (rng.random(50) < 0.5).astype(float)
        p = expit(scores)
        direct = -np.mean(labels * np.log(p) + (1 - labels) * np.log(1 - p))
        assert np.mean(gcn._bce(scores, labels)) == pytest.approx(
            direct, abs=1e-12)

    def test_bce_stable_at_extreme_scores(self):
        val = np.mean(gcn._bce(np.array([1000.0, -1000.0]),
                               np.array([1.0, 0.0])))
        assert val == pytest.approx(0.0, abs=1e-12)
        val = np.mean(gcn._bce(np.array([1000.0]), np.array([0.0])))
        assert val == pytest.approx(1000.0, rel=1e-12)


# Each form of the sigmoid and of the softplus rounds one exp (libm's in
# SciPy's expit and np.logaddexp, NumPy's vectorized one here, each within
# about an ulp), then a log1p or a division and one addition, half an ulp
# each.  So either is within about 2 ulp of the exact value, and the two
# within 4 ulp of each other.  The label term of a BCE term can cancel its
# softplus, so that bound is taken at the larger operand's magnitude.
ULPS = 4
# Zero, both signs of the exp overflow (709.78) and underflow (745)
# thresholds, far past both, and the infinities.
EDGES = np.array([0.0, -0.0, 709.8, -709.8, 745.0, -745.0, 1e3, -1e3,
                  np.inf, -np.inf])


def logistic_grid():
    rng = np.random.default_rng(34)
    return np.concatenate([EDGES, np.linspace(-40.0, 40.0, 8001),
                           rng.normal(scale=10.0, size=4000),
                           rng.uniform(-800.0, 800.0, size=4000)])


class TestLogistic:
    """The NumPy sigmoid and BCE softplus against SciPy's expit and
    np.logaddexp: no exponent may overflow, and NaN must reach the loss
    so that training names the epoch."""

    def test_sigmoid_matches_expit(self):
        x = logistic_grid()
        with np.errstate(all="raise", under="ignore"):
            got = _sigmoid(x)
        want = expit(x)
        tiny = np.finfo(np.float64).tiny
        normal = want >= tiny
        assert np.all(np.abs(got - want)[normal]
                      <= ULPS * np.spacing(want[normal]))
        # below x = -709.78 expit's exp(-x) overflows and it returns 0,
        # where e / (1 + e) keeps the subnormal value
        assert np.all((got[~normal] >= 0.0) & (got[~normal] < tiny))
        assert _sigmoid(np.array([np.inf]))[0] == 1.0
        assert _sigmoid(np.array([-np.inf]))[0] == 0.0
        assert _sigmoid(np.array([0.0]))[0] == 0.5

    @pytest.mark.parametrize("label", [0.0, 1.0])
    def test_bce_terms_match_logaddexp(self, label):
        s = logistic_grid()
        y = np.full_like(s, label)
        finite = np.isfinite(s)
        with np.errstate(all="raise", under="ignore"):
            terms = gcn._bce(s[finite], y[finite])
        softplus = np.logaddexp(0.0, s[finite])
        want = softplus - y[finite] * s[finite]
        scale = np.maximum(softplus, np.abs(y[finite] * s[finite]))
        assert np.all(np.abs(terms - want) <= ULPS * np.spacing(scale))

        # 0 * inf and inf - inf leave NaN in both forms, and only there
        inf = s[~finite]
        with np.errstate(over="raise", invalid="ignore"):
            got = gcn._bce(inf, y[~finite])
            want = np.logaddexp(0.0, inf) - y[~finite] * inf
        np.testing.assert_array_equal(got, want)

    def test_nan_reaches_the_loss(self):
        with np.errstate(all="raise"):
            assert np.isnan(_sigmoid(np.array([np.nan]))).all()
            assert np.isnan(np.mean(gcn._bce(np.array([0.0, np.nan]),
                                             np.array([1.0, 0.0]))))


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
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 200])
    def test_weight_gradient_sums_every_row(self, n):
        rng = np.random.default_rng(n)
        g, x = rng.normal(size=(n, 5)), rng.normal(size=(n, 3))
        got = gcn._weight_gradient(g, x)
        np.testing.assert_allclose(got, np.einsum("ki,kj->ij", g, x),
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    @pytest.mark.parametrize("seed", [41, 42])
    def test_matches_finite_differences(self, seed, lam):
        ds, nm, model, pos, neg, group_of, t = gradient_instance(seed)
        state = PairState(pos, len(neg), nm, np.float64, group_of, t)
        loss, bce, penalty, grads = loss_and_gradients(
            model, state, neg, _forward_cached(model, nm, ds.features), lam
        )
        assert loss == pytest.approx(bce + penalty, abs=1e-12)
        fd = finite_difference_grads(model, nm, ds.features, pos, neg, lam,
                                     group_of, t)
        assert gradient_error(grads, fd) < 1e-4

    def test_gradient_shapes(self):
        ds, nm, model, pos, neg, group_of, t = gradient_instance(43)
        state = PairState(pos, len(neg), nm, np.float64)
        _, _, _, grads = loss_and_gradients(
            model, state, neg, _forward_cached(model, nm, ds.features))
        assert [g.shape for g in grads] == [w.shape for w in model.weights]

    def test_penalty_matches_public_gap_measure(self):
        ds, nm, model, pos, neg, group_of, t = gradient_instance(44)
        lam = 2.5
        state = PairState(pos, len(neg), nm, np.float64, group_of, t)
        _, _, penalty, _ = loss_and_gradients(
            model, state, neg, _forward_cached(model, nm, ds.features), lam
        )
        h = forward(model, nm, ds.features)
        pairs = np.concatenate([pos, neg], axis=0)
        scores = score_pairs(h, pairs)
        a = delta(pairs, scores, group_of, t)
        active = a.reasons == ""
        assert active.sum() > 0
        assert penalty == float(lam * np.sum(a.delta[active]) / active.sum())

    @pytest.mark.parametrize("lam", [-1.0, float("nan")])
    def test_negative_or_nan_lambda_rejected(self, lam):
        ds, nm, model, pos, neg, group_of, t = gradient_instance(44)
        state = PairState(pos, len(neg), nm, np.float64, group_of, t)
        cache = _forward_cached(model, nm, ds.features)
        with pytest.raises(ValueError, match=r"^lambda_fair must be >= 0$"):
            loss_and_gradients(model, state, neg, cache, lam)

    def test_no_active_group_gives_zero_penalty(self):
        # group 0 holds one subgroup's nodes and every other node is alone,
        # so no group has both subgroups anchored
        ds, nm, model, pos, neg, _, t = gradient_instance(44)
        group_of = np.where(t == t[0], 0, 1 + np.arange(ds.n))
        args = (model, PairState(pos, len(neg), nm, np.float64, group_of, t),
                neg, _forward_cached(model, nm, ds.features))
        loss0, bce0, _, grads0 = loss_and_gradients(*args, 0.0)
        loss, bce, penalty, grads = loss_and_gradients(*args, 3.0)
        assert penalty == 0.0 and (loss, bce) == (loss0, bce0)
        for g, g0 in zip(grads, grads0):
            np.testing.assert_array_equal(g, g0)

    def test_zero_lambda_has_no_penalty(self):
        ds, nm, model, pos, neg, group_of, t = gradient_instance(45)
        state = PairState(pos, len(neg), nm, np.float64, group_of, t)
        loss, bce, penalty, _ = loss_and_gradients(
            model, state, neg, _forward_cached(model, nm, ds.features), 0.0
        )
        assert penalty == 0.0
        assert loss == bce

    def test_lambda_without_labels_rejected(self):
        ds, nm, model, pos, neg, _, _ = gradient_instance(46)
        state = PairState(pos, len(neg), nm, np.float64)
        cache = _forward_cached(model, nm, ds.features)
        with pytest.raises(ValueError):
            loss_and_gradients(model, state, neg, cache, 1.0)

    def test_no_pairs_rejected(self):
        ds, nm, model, *_ = gradient_instance(47)
        empty = np.empty((0, 2), dtype=np.int64)
        with pytest.raises(ValueError):
            PairState(empty, len(empty), nm, np.float64)

    def test_forward_cache_is_bitwise_identical(self):
        ds, nm, model, pos, neg, group_of, t = gradient_instance(48)
        a = loss_and_gradients(
            model, PairState(pos, len(neg), nm, np.float64, group_of, t),
            neg, _forward_cached(model, nm, ds.features), 1.0)
        # one state reused across calls, and forwards with and without the
        # first layer's propagation precomputed, as training supplies them
        state = PairState(pos, len(neg), nm, np.float64, group_of, t)
        px = nm.matrix @ ds.features
        for cache in (_forward_cached(model, nm, ds.features),
                      _forward_cached(model, nm, ds.features, px=px)):
            b = loss_and_gradients(model, state, neg, cache, 1.0)
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
        nm = normalized_matrix(complete_graph(n), "symmetric")
        # the first 40 pairs are the positives, the rest are negatives
        # written over an earlier draw, as a training's epochs do
        state = PairState(pairs[:40], pairs.shape[0] - 40, nm, np.float64)
        state.set_negatives(pairs[::-1][: pairs.shape[0] - 40])
        state.set_negatives(pairs[40:])
        got = state.gradient(h, dscore)
        want = lifted_pair_gradient(h, pairs, dscore)
        np.testing.assert_allclose(got, want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())
        np.testing.assert_array_equal(got[n - 1], 0.0)

    @pytest.mark.parametrize("weight", [1.0, 0.5, 0.0])
    def test_symmetric_operator_is_its_own_transpose(self, weight):
        # PairState takes the symmetric operator as its transpose: the
        # canonical CSR that matrix_from_edges builds transposes to the
        # same indptr, indices and data, bit for bit
        ds = random_planted_dataset(np.random.default_rng(50), n_max=40)
        for kind in KINDS:
            nm = matrix_from_edges(ds.n, ds.edges, weight, kind)
            state = PairState(ds.edges, 0, nm, np.float64)
            if kind == "symmetric":
                t = nm.matrix.T.tocsr()
                for name in ("indptr", "indices", "data"):
                    a, b = getattr(t, name), getattr(nm.matrix, name)
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
                assert state.pt is nm.matrix
            else:
                assert (state.pt != nm.matrix.T).nnz == 0

    def test_one_shot_calls_keep_their_results(self):
        # forward and the loss make their own arrays, so a later call
        # writes over nothing an earlier one returned;
        # (8, 3, 6) ends in a widening layer, whose output is a dense
        # array of the call's own rather than a sparse product's
        ds, nm, model, pos, neg, group_of, t = gradient_instance(
            56, hidden=(8, 3, 6))
        h = forward(model, nm, ds.features)
        cache = _forward_cached(model, nm, ds.features)
        _, inputs, outs = cache
        state = PairState(pos, len(neg), nm, np.float64, group_of, t)
        grads = loss_and_gradients(model, state, neg, cache, 1.0)[3]
        returned = [h, *inputs, *outs, *grads]
        kept = [a.copy() for a in returned]
        other = init_model(ds.feature_dim, (8, 3, 6), nm.kind, seed=57)
        forward(other, nm, ds.features)
        loss_and_gradients(other, state, neg,
                           _forward_cached(other, nm, ds.features), 1.0)
        for a, b in zip(returned, kept):
            np.testing.assert_array_equal(a, b)


# (8, 3, 6) has a narrowing layer between two widening ones; (4, 16) has
# none after the first layer, which always propagates first.
ORDER_CASES = [
    pytest.param(hidden, kind, id="x".join(map(str, hidden)) + "-" + kind)
    for hidden in [(8, 3, 6), (4, 16)] for kind in KINDS
]


class _WidthRecorder:
    """Stands in for ``nm.matrix``: has its shape, multiplies as it does
    and records the column count of every dense operand, also through
    ``.T``."""

    def __init__(self, matrix, widths):
        self.matrix, self.widths, self.shape = matrix, widths, matrix.shape

    @property
    def T(self):
        return _WidthRecorder(self.matrix.T, self.widths)

    def tocsr(self):
        return _WidthRecorder(self.matrix.tocsr(), self.widths)

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
        state = PairState(pos, len(neg), nm, np.float64, group_of, t)
        grads = loss_and_gradients(
            model, state, neg, _forward_cached(model, nm, ds.features), lam)[3]
        fd = finite_difference_grads(model, nm, ds.features, pos, neg, lam,
                                     group_of, t)
        assert gradient_error(grads, fd) < 1e-4

    @pytest.mark.parametrize("hidden,kind", ORDER_CASES)
    def test_gradients_match_propagate_first_oracle(self, hidden, kind):
        ds, nm, model, pos, neg, *_ = gradient_instance(
            54, hidden=hidden, kind=kind)
        state = PairState(pos, len(neg), nm, np.float64)
        grads = loss_and_gradients(
            model, state, neg, _forward_cached(model, nm, ds.features))[3]
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
        state = PairState(ds.edges, len(neg), recording, np.float64)
        loss_and_gradients(model, state, neg,
                           _forward_cached(model, recording, ds.features))
        # P @ X, then P @ (H_1 W_2^T) forward and P^T G_2 backward
        assert widths == [16, 64, 64]
