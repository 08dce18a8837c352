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


def alpha_vectors(model: Model, features) -> np.ndarray:
    """The (n, out_dim) array of alpha_j = (W_L ... W_1) x_j, one row per
    node."""
    features = np.asarray(features, dtype=np.float64)
    if features.shape[1] != model.feature_dim:
        raise ValueError(
            f"feature dim {features.shape[1]} does not match model "
            f"{model.feature_dim}"
        )
    chain = reduce(lambda acc, w: w @ acc, model.weights)
    return features @ chain.T


def group_c1(view: WithinGroupView, alphas, kind: str) -> np.ndarray:
    """Per refined group, the norm of the degree-weighted alpha average.

    Symmetric filter: ||sum_k (sqrt(D_kk)/vol) alpha_k||; random walk:
    ||sum_k (D_kk/vol) alpha_k||.  Zero-volume groups get 0.
    """
    if kind not in ("symmetric", "random_walk"):
        raise ValueError(f"unknown filter kind: {kind!r}")
    alphas = np.asarray(alphas, dtype=np.float64)
    if alphas.shape[0] != view.n:
        raise ValueError("alpha rows do not match the view's nodes")
    deg = view.wg_degrees
    weights = np.sqrt(deg) if kind == "symmetric" else deg
    vol = view.volumes
    # add.at sums each group's rows in node order, and the stacked matmul
    # takes one BLAS dot per row as np.linalg.norm does for a vector, so C1
    # has the bits of a per-group sum and norm.
    sums = np.zeros((vol.size, alphas.shape[1]))
    np.add.at(sums, view.group_of, weights[:, None] * alphas)
    v = sums / np.where(vol == 0.0, 1.0, vol)[:, None]
    sq = (v[:, None, :] @ v[:, :, None]).ravel()
    return np.where(vol == 0.0, 0.0, np.sqrt(sq))


def raw_theoretic_scores(
    view: WithinGroupView, alphas, pairs, kind: str = "symmetric"
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
    c1 = group_c1(view, alphas, kind)
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


def estimate_rho(tau, scores, pair_groups, n_groups: int) -> RhoEstimate:
    """Through-origin least-squares slope of trained scores on raw
    theoretic scores, per group: rho2 = sum(tau*y) / sum(tau^2).

    Groups with fewer than two pairs or zero tau variance are skipped
    (NaN slope); negative slopes are kept.
    """
    tau = np.asarray(tau, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    pair_groups = np.asarray(pair_groups, dtype=np.int64)
    if not (tau.shape == scores.shape == pair_groups.shape):
        raise ValueError("tau, scores, and pair_groups must be aligned")

    n_pairs = np.bincount(pair_groups, minlength=n_groups)
    denom = np.bincount(pair_groups, weights=tau * tau, minlength=n_groups)
    numer = np.bincount(pair_groups, weights=tau * scores, minlength=n_groups)
    reasons = np.select(
        [n_pairs == 0, n_pairs < 2, denom == 0.0],
        ["no_pairs", "too_few_pairs", "zero_tau"], default="",
    )
    skipped = reasons != ""
    with np.errstate(divide="ignore", invalid="ignore"):
        rho2 = np.where(skipped, np.nan, numer / denom)
    return RhoEstimate(rho2=rho2, n_pairs=n_pairs, skipped=skipped,
                       reasons=tuple(reasons.tolist()))


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
        """The report's fields for report.json, where a NaN metric is
        written as null."""
        return {
            "filter": self.kind,
            "nrmse": self.nrmse.value,
            "pcc": self.pcc.value,
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
    view: WithinGroupView, alphas, pairs, gcn_scores,
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

    tau, c1 = raw_theoretic_scores(view, alphas, pairs, kind)
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
    return TheoryReport(
        kind=kind, rows=rows, rho2=est.rho2, c1=c1, n_pairs=est.n_pairs,
        skipped=est.skipped, skip_reasons=est.reasons,
        nrmse=nrmse(fitted, gcn_scores[keep]),
        pcc=pcc(fitted, gcn_scores[keep]), n_dropped_cross=n_dropped,
    )
