"""Metric oracles: pair-counting AUC, hand-formula NRMSE/PCC, and the
degree-ratio diagnostic."""
from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from palink.metrics import (
    max_degree_ratio,
    nrmse,
    pcc,
    roc_auc,
)


def auc_pair_count_oracle(scores, labels):
    """Exhaustive O(n^2) pair counting with half credit for ties."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def random_instance(rng, n=50, tie_prob=0.5):
    labels = rng.integers(0, 2, size=n)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    scores = rng.normal(size=n)
    if rng.random() < tie_prob:
        # quantize a chunk to force ties across and within classes
        scores[: n // 2] = np.round(scores[: n // 2] * 2) / 2
    return scores, labels


class TestRocAuc:
    def test_separated_classes(self):
        got = roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        assert got.value == 1.0

    def test_all_equal_scores(self):
        assert roc_auc([0.3] * 6, [1, 0, 1, 0, 0, 1]).value == 0.5

    def test_single_class_flagged(self):
        for labels in ([1, 1], [0, 0]):
            got = roc_auc([0.1, 0.2], labels)
            assert np.isnan(got.value)
            assert got.n == 2 and got.reason == "one_class"

    def test_labels_outside_zero_one_rejected(self):
        with pytest.raises(ValueError):
            roc_auc([0.1, 0.2, 0.3], [1, 0, 2])

    def test_matches_pair_count_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            scores, labels = random_instance(rng)
            got = roc_auc(scores, labels).value
            assert got == auc_pair_count_oracle(scores, labels)

    def test_invariances(self):
        rng = np.random.default_rng(13)
        scores, labels = random_instance(rng)
        base = roc_auc(scores, labels).value
        # strictly increasing transform
        assert roc_auc(np.exp(scores), labels).value == pytest.approx(base)
        # joint permutation
        perm = rng.permutation(scores.size)
        assert roc_auc(scores[perm], labels[perm]).value == pytest.approx(base)
        # label flip mirrors around 1/2
        assert roc_auc(scores, 1 - labels).value == pytest.approx(1.0 - base)
        # bounded
        assert 0.0 <= base <= 1.0


class TestNrmse:
    def test_perfect_predictions(self):
        assert nrmse([1.0, 2.0], [1.0, 2.0]).value == 0.0

    def test_hand_value(self):
        got = nrmse([0.0, 0.0], [0.0, 1.0])
        assert got.value == pytest.approx(np.sqrt(0.5), abs=1e-15)

    def test_degenerate_range_flagged(self):
        got = nrmse([0.0, 1.0], [2.0, 2.0])
        assert np.isnan(got.value)
        assert got.reason == "degenerate_range"

    def test_hand_formula_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            p = rng.normal(size=30)
            t = rng.normal(size=30)
            expected = np.sqrt(np.mean((p - t) ** 2)) / (t.max() - t.min())
            assert nrmse(p, t).value == pytest.approx(expected, abs=1e-12)

    def test_empty_flagged(self):
        got = nrmse([], [])
        assert np.isnan(got.value)
        assert got.n == 0 and got.reason == "no_pairs"


class TestPcc:
    def test_linear_relations(self):
        x = np.arange(10.0)
        assert pcc(x, 3 * x + 1).value == pytest.approx(1.0)
        assert pcc(x, -2 * x).value == pytest.approx(-1.0)

    def test_hand_formula_oracle(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            x = rng.normal(size=25)
            y = rng.normal(size=25)
            xc, yc = x - x.mean(), y - y.mean()
            expected = (xc * yc).sum() / np.sqrt((xc**2).sum() * (yc**2).sum())
            assert pcc(x, y).value == pytest.approx(expected, abs=1e-13)

    def test_zero_variance_flagged(self):
        got = pcc([1.0, 1.0, 1.0], [0.0, 1.0, 2.0])
        assert np.isnan(got.value)
        assert got.reason == "zero_variance"

    def test_too_few_points(self):
        for x in ([], [1.0]):
            got = pcc(x, x)
            assert np.isnan(got.value)
            assert got.n == len(x) and got.reason == "insufficient_samples"

    def test_shift_scale_invariance(self):
        rng = np.random.default_rng(16)
        x, y = rng.normal(size=20), rng.normal(size=20)
        base = pcc(x, y).value
        assert pcc(2.0 * x + 5.0, y).value == pytest.approx(base, abs=1e-12)
        assert pcc(x, -3.0 * y).value == pytest.approx(-base, abs=1e-12)


class TestMaxDegreeRatio:
    def test_hand_value(self):
        got = max_degree_ratio([1.0, 2.0, 3.0])
        assert got.value == pytest.approx(np.sqrt(3.0))
        assert got.reason == ""

    def test_zero_degrees_excluded_and_flagged(self):
        got = max_degree_ratio([0.0, 1.0, 4.0])
        assert got.value == 2.0
        assert got.n == 2

    def test_all_zero_flagged(self):
        got = max_degree_ratio([0.0, 0.0])
        assert np.isnan(got.value)
        assert got.n == 0
        assert got.reason == "no_positive_degree"


def test_benchmark_counts_roc_auc_samples():
    """perfbench's span wrapper counts each ``roc_auc`` call's ``n``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    recorder = spans.Recorder()
    wrapped = recorder.wrap("metrics.roc_auc", roc_auc)
    assert wrapped([0.1, 0.4, 0.3], [0, 1, 1]) == roc_auc([0.1, 0.4, 0.3],
                                                            [0, 1, 1])
    wrapped([0.1, 0.2], [1, 1])
    assert recorder.counts == {"metrics.roc_auc.samples": 5}
