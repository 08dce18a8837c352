"""Evaluation metrics: ROC-AUC, NRMSE, Pearson correlation, and the
within-group degree ratio.

All metrics return a MetricValue carrying the number of samples: a metric
that is undefined on its input (one class, no samples, too few samples, a
flat range, zero variance or no positive degree) is NaN with a ``reason``
naming why, instead of raising.  Misshapen or mislabelled inputs still
raise.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MetricValue:
    value: float
    n: int
    reason: str = ""  # why ``value`` is NaN; "" where it is defined


def roc_auc(scores, labels) -> MetricValue:
    """Probability that a random positive outranks a random negative,
    ties credited one half (Mann-Whitney).

    Counts the Mann-Whitney U statistic exactly, as pair counting does,
    by binary search of each positive score among the sorted negatives:
    O(n log n) time and O(n) memory.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be aligned 1-d arrays")
    pos = scores[labels == 1]
    neg = np.sort(scores[labels == 0])
    if pos.size + neg.size != scores.size:
        raise ValueError("labels must be 0 or 1")
    if pos.size == 0 or neg.size == 0:
        return MetricValue(float("nan"), scores.size, "one_class")

    below = np.searchsorted(neg, pos, side="left")
    tied = np.searchsorted(neg, pos, side="right") - below
    u = below.sum() + 0.5 * tied.sum()
    return MetricValue(float(u / (pos.size * neg.size)), scores.size)


def nrmse(predictions, targets) -> MetricValue:
    """Root-mean-square error divided by the range (max - min) of targets."""
    predictions = np.asarray(predictions, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if predictions.shape != targets.shape or predictions.ndim != 1:
        raise ValueError("predictions and targets must be aligned 1-d arrays")
    if predictions.size == 0:
        return MetricValue(float("nan"), 0, "no_pairs")
    rmse = float(np.sqrt(np.mean((predictions - targets) ** 2)))
    span = float(targets.max() - targets.min())
    if span == 0.0:
        return MetricValue(float("nan"), predictions.size, "degenerate_range")
    return MetricValue(rmse / span, predictions.size)


def pcc(x, y) -> MetricValue:
    """Pearson correlation coefficient; NaN for zero-variance inputs."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be aligned 1-d arrays")
    if x.size < 2:
        return MetricValue(float("nan"), x.size, "insufficient_samples")
    xc = x - x.mean()
    yc = y - y.mean()
    sx = float(np.sqrt((xc * xc).sum()))
    sy = float(np.sqrt((yc * yc).sum()))
    if sx == 0.0 or sy == 0.0:
        return MetricValue(float("nan"), x.size, "zero_variance")
    value = float((xc * yc).sum() / (sx * sy))
    return MetricValue(min(1.0, max(-1.0, value)), x.size)


def max_degree_ratio(wg_degrees) -> MetricValue:
    """sqrt(max / min) over strictly positive within-group degrees; NaN
    for the reason ``no_positive_degree`` when no degree is positive."""
    deg = np.asarray(wg_degrees, dtype=np.float64)
    pos = deg[deg > 0]
    if pos.size == 0:
        return MetricValue(float("nan"), 0, "no_positive_degree")
    return MetricValue(float(np.sqrt(pos.max() / pos.min())), int(pos.size))
