"""Degree-driven closed forms for expected link scores.

Collapsing the layer weights into a single chain maps each node's features
to a vector alpha_j; propagation then concentrates, per refined group,
around a score that is sqrt(D_ii * D_jj) * C1^2 for the symmetric filter
and a group constant for the random-walk filter.  A through-origin
regression of trained scores on these raw values supplies the per-group
slope used for fitted scores.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .gcn import Model
from .graphdata import WithinGroupView
from .metrics import MetricValue, nrmse, pcc


@dataclass(frozen=True)
class AlphaSet:
    """Per-node collapsed-weight feature images and their total norm."""

    alphas: np.ndarray  # (n, out_dim)
    c2: float  # sum of ||alpha_k||_2 over all nodes

    @property
    def n(self) -> int:
        return int(self.alphas.shape[0])


def alpha_vectors(model: Model, features) -> AlphaSet:
    """alpha_j = (W_L ... W_1) x_j for every node, plus C2 = sum ||alpha||."""
    features = np.asarray(features, dtype=np.float64)
    if features.shape[1] != model.feature_dim:
        raise ValueError(
            f"feature dim {features.shape[1]} does not match model "
            f"{model.feature_dim}"
        )
    chain = reduce(lambda acc, w: w @ acc, model.weights)
    alphas = features @ chain.T
    c2 = float(np.linalg.norm(alphas, axis=1).sum())
    return AlphaSet(alphas=alphas, c2=c2)


def group_c1(view: WithinGroupView, alpha_set: AlphaSet, kind: str) -> np.ndarray:
    """Per refined group, the norm of the degree-weighted alpha average.

    Symmetric filter: ||sum_k (sqrt(D_kk)/vol) alpha_k||; random walk:
    ||sum_k (D_kk/vol) alpha_k||.  Zero-volume groups get 0.
    """
    if kind not in ("symmetric", "random_walk"):
        raise ValueError(f"unknown filter kind: {kind!r}")
    if alpha_set.n != view.n:
        raise ValueError("alpha set size does not match view")
    deg = view.wg_degrees
    weights = np.sqrt(deg) if kind == "symmetric" else deg
    c1 = np.zeros(view.n_groups)
    for g, nodes in enumerate(view.groups):
        vol = view.volumes[g]
        if vol == 0.0:
            continue
        v = (weights[nodes][:, None] * alpha_set.alphas[nodes]).sum(axis=0) / vol
        c1[g] = np.linalg.norm(v)
    return c1


def raw_theoretic_scores(
    view: WithinGroupView, alpha_set: AlphaSet, pairs, kind: str = "symmetric"
):
    """Raw degree-driven scores for same-group pairs.

    Symmetric: tau_ij = sqrt(D_ii * D_jj) * C1(b)^2.  Random walk:
    tau_ij = C1(b)^2, constant within the group.  Cross-group pairs are an
    error.  Returns (tau, c1 per group).
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    gi = view.group_of[pairs[:, 0]]
    gj = view.group_of[pairs[:, 1]]
    if np.any(gi != gj):
        raise ValueError("raw theoretic scores are defined for same-group pairs")
    c1 = group_c1(view, alpha_set, kind)
    c1sq = c1[gi] ** 2
    if kind == "symmetric":
        deg = view.wg_degrees
        tau = np.sqrt(deg[pairs[:, 0]] * deg[pairs[:, 1]]) * c1sq
    else:
        tau = c1sq.copy()
    return tau, c1


@dataclass(frozen=True)
class RhoEstimate:
    rho2: np.ndarray  # per group; NaN where skipped
    n_pairs: np.ndarray
    skipped: np.ndarray
    reasons: tuple[str, ...]

    @property
    def negative(self) -> np.ndarray:
        return np.nan_to_num(self.rho2, nan=0.0) < 0


def estimate_rho(tau, scores, pair_groups, n_groups: int) -> RhoEstimate:
    """Through-origin least-squares slope of trained scores on raw
    theoretic scores, per group: rho2 = sum(tau*y) / sum(tau^2).

    Groups with fewer than two pairs or zero tau variance are skipped
    (NaN slope); negative slopes are kept but exposed via ``negative``.
    """
    tau = np.asarray(tau, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    pair_groups = np.asarray(pair_groups, dtype=np.int64)
    if not (tau.shape == scores.shape == pair_groups.shape):
        raise ValueError("tau, scores, and pair_groups must be aligned")

    rho2 = np.full(n_groups, np.nan)
    n_pairs = np.bincount(pair_groups, minlength=n_groups) if tau.size else \
        np.zeros(n_groups, dtype=np.int64)
    skipped = np.ones(n_groups, dtype=bool)
    reasons = ["no_pairs"] * n_groups
    denom = np.bincount(pair_groups, weights=tau * tau, minlength=n_groups) \
        if tau.size else np.zeros(n_groups)
    numer = np.bincount(pair_groups, weights=tau * scores, minlength=n_groups) \
        if tau.size else np.zeros(n_groups)
    for g in range(n_groups):
        if n_pairs[g] < 2:
            reasons[g] = "too_few_pairs" if n_pairs[g] else "no_pairs"
            continue
        if denom[g] == 0.0:
            reasons[g] = "zero_tau"
            continue
        rho2[g] = numer[g] / denom[g]
        skipped[g] = False
        reasons[g] = ""
    return RhoEstimate(rho2=rho2, n_pairs=n_pairs.astype(np.int64),
                       skipped=skipped, reasons=tuple(reasons))


@dataclass(frozen=True)
class TheoryReport:
    """Fitted-vs-trained score comparison over same-group pairs.

    ``rows`` holds (group, i, j, tau_raw, tau_fitted, gcn_score) for pairs
    in non-skipped groups; summary metrics are computed over those rows.
    """

    kind: str
    rows: dict[str, np.ndarray]
    rho2: np.ndarray
    c1: np.ndarray
    n_pairs: np.ndarray
    skipped: np.ndarray
    skip_reasons: tuple[str, ...]
    nrmse: MetricValue
    pcc: MetricValue
    n_dropped_cross: int

    def to_json_dict(self) -> dict:
        def val(m: MetricValue):
            return None if np.isnan(m.value) else m.value

        return {
            "filter": self.kind,
            "nrmse": val(self.nrmse),
            "pcc": val(self.pcc),
            "n_pairs_used": int(self.rows["tau_raw"].size),
            "n_dropped_cross_group": self.n_dropped_cross,
            "groups": [
                {
                    "group": g,
                    "rho2": None if np.isnan(self.rho2[g]) else float(self.rho2[g]),
                    "c1": float(self.c1[g]),
                    "n_pairs": int(self.n_pairs[g]),
                    "skipped": bool(self.skipped[g]),
                    "reason": self.skip_reasons[g],
                }
                for g in range(self.rho2.size)
            ],
            "skipped_groups": [int(g) for g in np.flatnonzero(self.skipped)],
        }


def build_theory_report(
    view: WithinGroupView, alpha_set: AlphaSet, pairs, gcn_scores,
    kind: str = "symmetric",
) -> TheoryReport:
    """Fit per-group slopes and compare fitted theoretic scores with
    trained scores.  Cross-group pairs are dropped (and counted); pairs in
    skipped groups are excluded from rows and metrics."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    gcn_scores = np.asarray(gcn_scores, dtype=np.float64)
    if gcn_scores.shape != (pairs.shape[0],):
        raise ValueError("scores must align with pairs")

    gi = view.group_of[pairs[:, 0]]
    gj = view.group_of[pairs[:, 1]]
    same = gi == gj
    n_dropped = int((~same).sum())
    pairs, gcn_scores, gi = pairs[same], gcn_scores[same], gi[same]

    tau, c1 = raw_theoretic_scores(view, alpha_set, pairs, kind)
    est = estimate_rho(tau, gcn_scores, gi, view.n_groups)

    keep = ~est.skipped[gi]
    fitted = est.rho2[gi[keep]] * tau[keep]
    rows = {
        "group": gi[keep],
        "i": pairs[keep, 0],
        "j": pairs[keep, 1],
        "tau_raw": tau[keep],
        "tau_fitted": fitted,
        "gcn_score": gcn_scores[keep],
    }
    if fitted.size:
        err = nrmse(fitted, gcn_scores[keep])
        corr = pcc(fitted, gcn_scores[keep]) if fitted.size >= 2 else \
            MetricValue("pcc", float("nan"), int(fitted.size),
                        ("insufficient_samples",))
    else:
        err = MetricValue("nrmse", float("nan"), 0, ("no_pairs",))
        corr = MetricValue("pcc", float("nan"), 0, ("no_pairs",))
    return TheoryReport(
        kind=kind, rows=rows, rho2=est.rho2, c1=c1, n_pairs=est.n_pairs,
        skipped=est.skipped, skip_reasons=est.reasons, nrmse=err, pcc=corr,
        n_dropped_cross=n_dropped,
    )
