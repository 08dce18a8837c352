"""Subgroup score-gap quantification: enumeration oracles, closed-form
brute force, and gradient terms."""
from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.special import expit, logit

from palink.fairness import delta, delta_hat, sampled_delta_terms
from palink.gcn import (Model, PairState, _forward_cached,
                        loss_and_gradients, score_pairs)
from palink.graphdata import make_dataset, within_group_structure
from palink.spectral import matrix_from_edges

from conftest import random_planted_dataset
from oracles import delta_enumeration_oracle, within_group_pairs


def random_delta_instance(rng, n=14):
    group_of = rng.integers(0, 3, size=n)
    t_labels = rng.integers(0, 2, size=n)
    pairs = within_group_pairs(group_of)
    if pairs.shape[0] == 0:
        return None
    take = rng.random(pairs.shape[0]) < 0.7
    pairs = pairs[take]
    scores = rng.normal(size=pairs.shape[0])
    return pairs, scores, group_of, t_labels


class TestDelta:
    def test_hand_worked_instance(self):
        # group {0,1,2}: nodes 0,1 in subgroup 0, node 2 in subgroup 1.
        # pairs (0,1)=0.8 and (0,2)=0.4 after the sigmoid give anchored
        # multisets T1: {0.8, 0.8, 0.4} and T2: {0.4};
        # gap = |2/3 - 0.4| = 4/15.
        pairs = [(0, 1), (0, 2)]
        scores = logit([0.8, 0.4])
        out = delta(pairs, scores, [0, 0, 0], [0, 0, 1])
        assert out.delta[0] == pytest.approx(4.0 / 15.0)
        assert out.n_t1[0] == 3
        assert out.n_t2[0] == 1

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(21)
        checked = 0
        for _ in range(40):
            inst = random_delta_instance(rng)
            if inst is None:
                continue
            pairs, scores, group_of, t_labels = inst
            expected = delta_enumeration_oracle(pairs, expit(scores),
                                                group_of, t_labels)
            got = delta(pairs, scores, group_of, t_labels)
            np.testing.assert_allclose(got.delta, expected, rtol=0,
                                       atol=1e-12)
            np.testing.assert_array_equal(got.reasons != "",
                                          np.isnan(expected))
            checked += int((got.reasons == "").sum())
        assert checked > 30

    def test_empty_subgroup_skipped(self):
        out = delta([(0, 1)], [1.0], [0, 0], [0, 0])
        assert out.reasons[0] != ""
        assert out.reasons.tolist() == ["empty_subgroup"]
        assert math.isnan(out.delta[0]) and math.isnan(out.mean_delta)

    def test_cross_group_pairs_ignored(self):
        pairs = [(0, 1), (0, 2)]
        scores = [0.8, 123.0]
        base = delta([(0, 1)], [0.8], [0, 0, 1], [0, 1, 0])
        with_cross = delta(pairs, scores, [0, 0, 1], [0, 1, 0])
        assert with_cross.delta[0] == base.delta[0]

    def test_self_pair_rejected(self):
        with pytest.raises(ValueError):
            delta([(1, 1)], [0.5], [0, 0], [0, 1])

    def test_missing_subgroup_labels_rejected(self):
        with pytest.raises(ValueError):
            delta([(0, 1)], [0.5], [0, 0], None)

    def test_invariances(self):
        rng = np.random.default_rng(23)
        inst = random_delta_instance(rng, n=12)
        pairs, scores, group_of, t_labels = inst
        base = delta(pairs, scores, group_of, t_labels)

        # swapping subgroup labels leaves the gap unchanged
        swapped = delta(pairs, scores, group_of, 1 - t_labels)
        np.testing.assert_allclose(swapped.delta, base.delta, rtol=0,
                                   atol=1e-12)

        # consistent node relabeling leaves the gap unchanged
        perm = rng.permutation(group_of.size)
        inv = np.empty_like(perm)
        inv[perm] = np.arange(perm.size)
        relabeled = delta(inv[pairs], scores, group_of[perm], t_labels[perm])
        np.testing.assert_allclose(relabeled.delta, base.delta, rtol=0,
                                   atol=1e-12)

        # non-negative everywhere
        assert np.all(base.delta[base.reasons == ""] >= 0.0)


class TestSampledDeltaTerms:
    def test_matches_public_delta(self):
        rng = np.random.default_rng(24)
        inst = random_delta_instance(rng)
        pairs, scores, group_of, t_labels = inst
        probs = expit(scores)
        gaps, _ = sampled_delta_terms(pairs, probs, group_of, t_labels)
        public = delta(pairs, scores, group_of, t_labels)
        np.testing.assert_array_equal(gaps,
                                      public.delta[public.reasons == ""])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(25)
        for _ in range(10):
            inst = random_delta_instance(rng)
            if inst is None:
                continue
            pairs, scores, group_of, t_labels = inst
            probs = expit(scores)
            gaps, grad = sampled_delta_terms(pairs, probs, group_of,
                                             t_labels)
            if not gaps.size:
                continue
            total = np.sum(gaps)
            h = 1e-7
            for e in range(min(pairs.shape[0], 8)):
                bumped = probs.copy()
                bumped[e] += h
                up = np.sum(sampled_delta_terms(pairs, bumped, group_of,
                                                t_labels)[0])
                fd = (up - total) / h
                assert grad[e] == pytest.approx(fd, abs=1e-5)

    def test_no_same_group_pairs(self):
        gaps, grad = sampled_delta_terms(
            np.array([[0, 1]]), np.array([0.5]),
            np.array([0, 1]), np.array([0, 1])
        )
        assert gaps.shape == (0,)
        np.testing.assert_array_equal(grad, [0.0])


def regularizer_instance():
    """A one-layer linear encoder on an edgeless graph (identity operator,
    identity weights), so each pair's score is the inner product of two
    hand-set feature rows.  Group {0,1,2} has subgroups [0,0,1] and
    pair probabilities (0,1)=0.8, (0,2)=0.2; group {3,4,5} has subgroups
    [0,0,1] and (3,4)=0.5, (3,5)=0.35.  Each group's anchored means give
    gap = 2|p01 - p02| / 3: 0.4 and 0.1."""
    x = np.zeros((6, 2))
    x[0, 0], x[1, 0], x[2, 0] = 1.0, logit(0.8), logit(0.2)
    x[3, 1], x[4, 1], x[5, 1] = 1.0, logit(0.5), logit(0.35)
    model = Model(filter_kind="symmetric", weights=[np.eye(2)])
    nm = matrix_from_edges(6, np.empty((0, 2)), 1.0, "symmetric")
    pos = np.array([[0, 1], [3, 4]])
    neg = np.array([[0, 2], [3, 5]])
    return model, nm, x, pos, neg, [0, 0, 0, 1, 1, 1], [0, 0, 1, 0, 0, 1]


class TestRegularizer:
    def test_hand_value(self):
        model, nm, x, pos, neg, group_of, t = regularizer_instance()
        state = PairState(pos, len(neg), nm, np.float64, group_of, t)
        loss, bce, penalty, _ = loss_and_gradients(
            model, state, neg, _forward_cached(model, nm, x), 2.0)
        # (2.0 / 2 active groups) * (0.4 + 0.1)
        assert penalty == pytest.approx(0.5, abs=1e-12)
        assert loss == bce + penalty

    def test_accepts_assessment(self):
        model, nm, x, pos, neg, group_of, t = regularizer_instance()
        state = PairState(pos, len(neg), nm, np.float64, group_of, t)
        _, _, penalty, _ = loss_and_gradients(
            model, state, neg, _forward_cached(model, nm, x), 3.0)
        pairs = np.concatenate([pos, neg])
        a = delta(pairs, score_pairs(x, pairs), group_of, t)
        np.testing.assert_allclose(a.delta, [0.4, 0.1], atol=1e-12)
        assert penalty == pytest.approx(3.0 * a.mean_delta, abs=1e-15)


def delta_hat_brute_force(view, rho2, c1, t_labels, g):
    """Independent evaluation: explicit sums over the group's nodes."""
    nodes = view.order[view.offsets[g]:view.offsets[g + 1]]
    sq = np.sqrt(view.wg_degrees)
    t1 = [i for i in nodes if t_labels[i] == 0]
    t2 = [i for i in nodes if t_labels[i] == 1]
    total = sum(sq[j] for j in nodes)
    disp = np.mean([sq[i] for i in t1]) - np.mean([sq[i] for i in t2])
    return abs(rho2[g] * c1[g] ** 2 * total * disp) / len(nodes)


class TestDeltaHat:
    def test_toy_frozen_value(self, toy_cs):
        view = within_group_structure(toy_cs)
        rho2 = np.ones(view.n_groups)
        c1 = np.ones(view.n_groups)
        dh, disparity = delta_hat(view, rho2, c1, toy_cs.t_labels,
                                  "symmetric")
        # degrees {1,2,1,3,1}: sum of square roots 3 + sqrt2 + sqrt3,
        # subgroup-0 mean sqrt3, subgroup-1 mean (3 + sqrt2)/4
        total = 3.0 + math.sqrt(2.0) + math.sqrt(3.0)
        disp = math.sqrt(3.0) - (3.0 + math.sqrt(2.0)) / 4.0
        assert dh[0] == pytest.approx(total * disp / 5.0, abs=1e-12)
        assert dh[0] == pytest.approx(0.7726, abs=5e-5)
        assert disparity[0] == pytest.approx(disp, abs=1e-12)
        # the second group has only one subgroup present
        assert np.isnan(dh[1]) and np.isnan(disparity[1])

    def test_matches_brute_force_on_random_graphs(self):
        rng = np.random.default_rng(26)
        for _ in range(20):
            ds = random_planted_dataset(rng, with_subgroups=True)
            view = within_group_structure(ds)
            rho2 = rng.normal(size=view.n_groups) ** 2
            c1 = np.abs(rng.normal(size=view.n_groups))
            dh, _ = delta_hat(view, rho2, c1, ds.t_labels, "symmetric")
            for g in np.flatnonzero(~np.isnan(dh)):
                expected = delta_hat_brute_force(view, rho2, c1, ds.t_labels,
                                                 g)
                assert dh[g] == pytest.approx(expected, abs=1e-9)
                assert dh[g] >= 0.0

    def test_random_walk_closed_form_is_zero(self):
        rng = np.random.default_rng(27)
        ds = random_planted_dataset(rng, with_subgroups=True)
        view = within_group_structure(ds)
        ones = np.ones(view.n_groups)
        rw, disparity = delta_hat(view, ones, ones, ds.t_labels,
                                  "random_walk")
        sym, _ = delta_hat(view, ones, ones, ds.t_labels, "symmetric")
        np.testing.assert_array_equal(np.isnan(rw), np.isnan(disparity))
        np.testing.assert_array_equal(np.isnan(rw), np.isnan(sym))
        assert np.all(rw[~np.isnan(rw)] == 0.0)

    def test_negative_slope_flagged(self, toy_cs):
        # a negative slope is applied as-is: the estimate is |...|
        view = within_group_structure(toy_cs)
        neg, _ = delta_hat(view, np.array([-1.0, 1.0]), np.ones(2),
                           toy_cs.t_labels, "symmetric")
        pos, _ = delta_hat(view, np.ones(2), np.ones(2), toy_cs.t_labels,
                           "symmetric")
        assert neg[0] == pos[0] > 0.0

    def test_missing_slope_skipped(self, toy_cs):
        view = within_group_structure(toy_cs)
        for kind in ("symmetric", "random_walk"):
            dh, disparity = delta_hat(view, np.array([np.nan, 1.0]),
                                      np.ones(2), toy_cs.t_labels, kind)
            assert np.isnan(dh).all()
            # the disparity does not depend on the slope
            assert np.isfinite(disparity[0]) and np.isnan(disparity[1])

    @pytest.mark.parametrize("kind", ["sym", "laplacian"])
    def test_unknown_kind_raises(self, toy_cs, kind):
        view = within_group_structure(toy_cs)
        ones = np.ones(view.n_groups)
        with pytest.raises(ValueError, match="unknown filter kind"):
            delta_hat(view, ones, ones, toy_cs.t_labels, kind)

    def test_subgroup_swap_invariance(self, toy_cs):
        view = within_group_structure(toy_cs)
        ones = np.ones(view.n_groups)
        a, a_disp = delta_hat(view, ones, ones, toy_cs.t_labels, "symmetric")
        b, b_disp = delta_hat(view, ones, ones, 1 - toy_cs.t_labels,
                              "symmetric")
        assert a[0] == pytest.approx(b[0])
        assert a_disp[0] == pytest.approx(-b_disp[0])


class TestWithinGroupPairs:
    def test_counts_and_validity(self):
        group_of = np.array([0, 0, 0, 1, 1, 2])
        pairs = within_group_pairs(group_of)
        assert pairs.shape[0] == 3 + 1  # C(3,2) + C(2,2)
        for i, j in pairs:
            assert i < j
            assert group_of[i] == group_of[j]

    def test_empty(self):
        assert within_group_pairs(np.array([0, 1, 2])).shape == (0, 2)
