"""Subgroup score-gap quantification: enumeration oracles, closed-form
brute force, and gradient terms."""
from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.special import expit, logit

from palink.fairness import (
    delta,
    delta_hat,
    regularizer_term,
    sampled_delta_terms,
)
from palink.graphdata import make_dataset, within_group_structure

from conftest import random_planted_dataset
from oracles import within_group_pairs


def delta_enumeration_oracle(pairs, values, group_of, t_labels):
    """Independent oracle: build both anchored orientation multisets per
    group with explicit loops and diff their means."""
    sums = {}
    for (i, j), v in zip(pairs, values):
        if group_of[i] != group_of[j]:
            continue
        g = group_of[i]
        bucket = sums.setdefault(g, {0: [], 1: []})
        for anchor in (i, j):
            bucket[t_labels[anchor]].append(v)
    out = {}
    for g, bucket in sums.items():
        if bucket[0] and bucket[1]:
            out[g] = abs(np.mean(bucket[0]) - np.mean(bucket[1]))
    return out


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
        assert out.groups[0].delta == pytest.approx(4.0 / 15.0)
        assert out.groups[0].n_t1 == 3
        assert out.groups[0].n_t2 == 1

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
            for g in got.groups:
                if g.group_id in expected:
                    assert not g.skipped
                    assert g.delta == pytest.approx(expected[g.group_id],
                                                    abs=1e-12)
                    checked += 1
                else:
                    assert g.skipped
        assert checked > 30

    def test_empty_subgroup_skipped(self):
        out = delta([(0, 1)], [1.0], [0, 0], [0, 0])
        assert out.groups[0].skipped
        assert out.groups[0].reason == "empty_subgroup"
        assert math.isnan(out.mean_delta)

    def test_cross_group_pairs_ignored(self):
        pairs = [(0, 1), (0, 2)]
        scores = [0.8, 123.0]
        base = delta([(0, 1)], [0.8], [0, 0, 1], [0, 1, 0])
        with_cross = delta(pairs, scores, [0, 0, 1], [0, 1, 0])
        assert with_cross.groups[0].delta == base.groups[0].delta

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
        for a, b in zip(base.groups, swapped.groups):
            assert (a.delta is None) == (b.delta is None)
            if a.delta is not None:
                assert a.delta == pytest.approx(b.delta, abs=1e-12)

        # consistent node relabeling leaves the gap unchanged
        perm = rng.permutation(group_of.size)
        inv = np.empty_like(perm)
        inv[perm] = np.arange(perm.size)
        relabeled = delta(inv[pairs], scores, group_of[perm], t_labels[perm])
        for a, b in zip(base.groups, relabeled.groups):
            if a.delta is not None:
                assert a.delta == pytest.approx(b.delta, abs=1e-12)

        # non-negative everywhere
        for g in base.groups:
            if g.delta is not None:
                assert g.delta >= 0.0


class TestSampledDeltaTerms:
    def test_matches_public_delta(self):
        rng = np.random.default_rng(24)
        inst = random_delta_instance(rng)
        pairs, scores, group_of, t_labels = inst
        probs = expit(scores)
        deltas, _, n_active = sampled_delta_terms(pairs, probs, group_of,
                                                  t_labels)
        public = delta(pairs, scores, group_of, t_labels)
        active = {g.group_id: g.delta for g in public.active()}
        assert deltas.keys() == active.keys()
        for g, v in deltas.items():
            assert v == pytest.approx(active[g], abs=1e-12)
        assert n_active == len(active)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(25)
        for _ in range(10):
            inst = random_delta_instance(rng)
            if inst is None:
                continue
            pairs, scores, group_of, t_labels = inst
            probs = expit(scores)
            deltas, grad, _ = sampled_delta_terms(pairs, probs, group_of,
                                                  t_labels)
            if not deltas:
                continue
            total = sum(deltas.values())
            h = 1e-7
            for e in range(min(pairs.shape[0], 8)):
                bumped = probs.copy()
                bumped[e] += h
                up = sum(sampled_delta_terms(pairs, bumped, group_of,
                                             t_labels)[0].values())
                fd = (up - total) / h
                assert grad[e] == pytest.approx(fd, abs=1e-5)

    def test_no_same_group_pairs(self):
        deltas, grad, n = sampled_delta_terms(
            np.array([[0, 1]]), np.array([0.5]),
            np.array([0, 1]), np.array([0, 1])
        )
        assert deltas == {} and n == 0
        np.testing.assert_array_equal(grad, [0.0])


class TestRegularizer:
    def test_hand_value(self):
        assert regularizer_term({0: 0.4, 1: 0.1}, 2.0) == pytest.approx(0.5)

    def test_no_groups_gives_zero(self):
        assert regularizer_term({}, 4.0) == 0.0

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            regularizer_term({0: 0.1}, -1.0)

    def test_accepts_assessment(self):
        out = delta([(0, 1)], [0.0], [0, 0], [0, 1])
        deltas = {g.group_id: g.delta for g in out.active()}
        assert regularizer_term(deltas, 3.0) == pytest.approx(0.0)


def delta_hat_brute_force(view, rho2, c1, t_labels, g):
    """Independent evaluation: explicit sums over the group's nodes."""
    nodes = view.groups[g]
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
        out = delta_hat(view, rho2, c1, toy_cs.t_labels, "symmetric")
        g0 = out.groups[0]
        # degrees {1,2,1,3,1}: sum of square roots 3 + sqrt2 + sqrt3,
        # subgroup-0 mean sqrt3, subgroup-1 mean (3 + sqrt2)/4
        total = 3.0 + math.sqrt(2.0) + math.sqrt(3.0)
        disp = math.sqrt(3.0) - (3.0 + math.sqrt(2.0)) / 4.0
        assert g0.delta_hat == pytest.approx(total * disp / 5.0, abs=1e-12)
        assert g0.delta_hat == pytest.approx(0.7726, abs=5e-5)
        assert g0.disparity == pytest.approx(disp, abs=1e-12)
        # the second group has only one subgroup present
        assert out.groups[1].skipped

    def test_matches_brute_force_on_random_graphs(self):
        rng = np.random.default_rng(26)
        for _ in range(20):
            ds = random_planted_dataset(rng, with_subgroups=True)
            view = within_group_structure(ds)
            rho2 = rng.normal(size=view.n_groups) ** 2
            c1 = np.abs(rng.normal(size=view.n_groups))
            out = delta_hat(view, rho2, c1, ds.t_labels, "symmetric")
            for g in out.groups:
                if g.skipped:
                    continue
                expected = delta_hat_brute_force(view, rho2, c1, ds.t_labels,
                                                 g.group_id)
                assert g.delta_hat == pytest.approx(expected, abs=1e-9)
                assert g.delta_hat >= 0.0

    def test_random_walk_closed_form_is_zero(self):
        rng = np.random.default_rng(27)
        ds = random_planted_dataset(rng, with_subgroups=True)
        view = within_group_structure(ds)
        out = delta_hat(view, np.ones(view.n_groups), np.ones(view.n_groups),
                        ds.t_labels, "random_walk")
        for g in out.groups:
            if not g.skipped:
                assert g.delta_hat == 0.0

    def test_negative_slope_flagged(self, toy_cs):
        view = within_group_structure(toy_cs)
        rho2 = np.array([-1.0, 1.0])
        out = delta_hat(view, rho2, np.ones(2), toy_cs.t_labels, "symmetric")
        assert "negative_slope" in out.groups[0].flags
        assert out.groups[0].delta_hat >= 0.0

    def test_missing_slope_skipped(self, toy_cs):
        view = within_group_structure(toy_cs)
        rho2 = np.array([np.nan, np.nan])
        out = delta_hat(view, rho2, np.ones(2), toy_cs.t_labels, "symmetric")
        assert out.groups[0].skipped
        assert out.groups[0].reason == "no_slope"

    def test_subgroup_swap_invariance(self, toy_cs):
        view = within_group_structure(toy_cs)
        ones = np.ones(view.n_groups)
        a = delta_hat(view, ones, ones, toy_cs.t_labels, "symmetric")
        b = delta_hat(view, ones, ones, 1 - toy_cs.t_labels, "symmetric")
        assert a.groups[0].delta_hat == pytest.approx(b.groups[0].delta_hat)
        assert a.groups[0].disparity == pytest.approx(-b.groups[0].disparity)


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
