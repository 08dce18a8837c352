"""Evaluation metrics: ROC-AUC, NRMSE, Pearson correlation, and the
degree/similarity deviation diagnostics.

All metrics return a MetricValue carrying the number of samples and any
degeneracy flags instead of raising on flat inputs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MetricValue:
    name: str
    value: float
    n: int
    flags: tuple[str, ...] = ()

    def __float__(self) -> float:
        return float(self.value)


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
        raise ValueError("roc_auc needs both classes present")

    below = np.searchsorted(neg, pos, side="left")
    tied = np.searchsorted(neg, pos, side="right") - below
    u = below.sum() + 0.5 * tied.sum()
    return MetricValue(name="roc_auc", value=float(u / (pos.size * neg.size)),
                       n=scores.size)


def nrmse(predictions, targets) -> MetricValue:
    """Root-mean-square error divided by the range (max - min) of targets."""
    predictions = np.asarray(predictions, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if predictions.shape != targets.shape or predictions.ndim != 1:
        raise ValueError("predictions and targets must be aligned 1-d arrays")
    if predictions.size == 0:
        raise ValueError("nrmse needs at least one sample")
    rmse = float(np.sqrt(np.mean((predictions - targets) ** 2)))
    span = float(targets.max() - targets.min())
    if span == 0.0:
        return MetricValue(
            name="nrmse", value=float("nan"), n=predictions.size,
            flags=("degenerate_range",),
        )
    return MetricValue(name="nrmse", value=rmse / span, n=predictions.size)


def pcc(x, y) -> MetricValue:
    """Pearson correlation coefficient; zero-variance inputs are flagged."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be aligned 1-d arrays")
    if x.size < 2:
        raise ValueError("pcc needs at least two samples")
    xc = x - x.mean()
    yc = y - y.mean()
    sx = float(np.sqrt((xc * xc).sum()))
    sy = float(np.sqrt((yc * yc).sum()))
    if sx == 0.0 or sy == 0.0:
        return MetricValue(
            name="pcc", value=float("nan"), n=x.size, flags=("zero_variance",)
        )
    value = float((xc * yc).sum() / (sx * sy))
    return MetricValue(name="pcc", value=min(1.0, max(-1.0, value)), n=x.size)


@dataclass(frozen=True)
class BinStat:
    lo: float
    hi: float
    count: int
    mean_deviation: float


@dataclass(frozen=True)
class DeviationReport:
    pcc_log_degree: MetricValue
    pcc_similarity: MetricValue
    degree_bins: tuple[BinStat, ...]
    similarity_bins: tuple[BinStat, ...]
    n_excluded_zero_degree_product: int


def _decile_bins(x: np.ndarray, dev: np.ndarray) -> tuple[BinStat, ...]:
    edges = np.unique(np.quantile(x, np.linspace(0.0, 1.0, 11)))
    if edges.size < 2:
        return (BinStat(float(edges[0]), float(edges[0]), x.size, float(dev.mean())),)
    idx = np.clip(np.digitize(x, edges[1:-1], right=True), 0, edges.size - 2)
    stats = []
    for b in range(edges.size - 1):
        mask = idx == b
        if not mask.any():
            continue
        stats.append(
            BinStat(float(edges[b]), float(edges[b + 1]), int(mask.sum()),
                    float(dev[mask].mean()))
        )
    return tuple(stats)


def deviation_analysis(deviations, degree_products, similarities) -> DeviationReport:
    """Associate per-pair deviations with log degree products and with a
    per-pair similarity value, via PCC and decile-binned means.

    Pairs with zero degree product are excluded from the log-degree axis
    (and counted); the similarity axis keeps all pairs.
    """
    dev = np.asarray(deviations, dtype=np.float64)
    dp = np.asarray(degree_products, dtype=np.float64)
    sim = np.asarray(similarities, dtype=np.float64)
    if not (dev.shape == dp.shape == sim.shape) or dev.ndim != 1:
        raise ValueError("inputs must be aligned 1-d arrays")
    if dev.size == 0:
        raise ValueError("deviation_analysis needs at least one pair")

    keep = dp > 0
    n_excluded = int((~keep).sum())
    if keep.sum() >= 2:
        log_dp = np.log10(dp[keep])
        pcc_deg = pcc(dev[keep], log_dp)
        deg_bins = _decile_bins(log_dp, dev[keep])
    else:
        pcc_deg = MetricValue("pcc", float("nan"), int(keep.sum()),
                              ("insufficient_samples",))
        deg_bins = ()

    if sim.size >= 2:
        pcc_sim = pcc(dev, sim)
        sim_bins = _decile_bins(sim, dev)
    else:
        pcc_sim = MetricValue("pcc", float("nan"), sim.size,
                              ("insufficient_samples",))
        sim_bins = ()

    return DeviationReport(
        pcc_log_degree=pcc_deg,
        pcc_similarity=pcc_sim,
        degree_bins=deg_bins,
        similarity_bins=sim_bins,
        n_excluded_zero_degree_product=n_excluded,
    )


def max_degree_ratio(wg_degrees) -> MetricValue:
    """sqrt(max / min) over strictly positive within-group degrees."""
    deg = np.asarray(wg_degrees, dtype=np.float64)
    pos = deg[deg > 0]
    if pos.size == 0:
        raise ValueError("max_degree_ratio needs at least one positive degree")
    flags: tuple[str, ...] = ()
    n_zero = deg.size - pos.size
    if n_zero:
        flags = (f"excluded_zero_degree={n_zero}",)
    value = float(np.sqrt(pos.max() / pos.min()))
    return MetricValue(name="max_degree_ratio", value=value, n=int(pos.size),
                       flags=flags)
