"""Within-group score parity: the gap between mean link scores anchored at
each subgroup, its closed-form degree-driven estimate, and the
corresponding training penalty.

Subgroup id 0 plays the role of the first anchor set (T1) throughout; the
gap itself is symmetric under swapping the two subgroups.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .graphdata import WithinGroupView


@dataclass(frozen=True)
class FairnessAssessment:
    """Per-group results, each an array indexed by refined-group id.

    ``delta`` is the trained-score gap (from ``delta``), ``delta_hat`` and
    ``disparity`` the closed form and its sqrt-degree disparity (from
    ``delta_hat``); a value the producing function does not compute, or
    that is undefined for a skipped group, is NaN.  ``reasons`` names why
    each skipped group was skipped ("" for active groups).
    """

    delta: np.ndarray
    delta_hat: np.ndarray
    disparity: np.ndarray
    n_t1: np.ndarray
    n_t2: np.ndarray
    skipped: np.ndarray
    reasons: tuple[str, ...]
    negative_slope: np.ndarray

    @property
    def mean_delta(self) -> float:
        vals = self.delta[~self.skipped]
        return float(np.mean(vals)) if vals.size else float("nan")


def _subgroup_gaps(pairs, values, group_of, t_labels):
    """Signed gap between the subgroup-anchored mean values of each group.

    An unordered same-group pair contributes one oriented observation per
    endpoint: the anchor's subgroup decides which mean the value joins.
    Cross-group pairs are ignored.  Returns (idx, gid, weight, c1, c2,
    diff): the same-group pairs' indices and group ids, each such pair's
    weight d diff / d value, the anchor counts per group, and per group the
    signed mean difference (0 where a subgroup has no anchor).
    """
    group_of = np.asarray(group_of)
    t_labels = np.asarray(t_labels)
    n_groups = int(group_of.max()) + 1 if group_of.size else 0
    g0 = group_of[pairs[:, 0]]
    idx = np.flatnonzero(g0 == group_of[pairs[:, 1]])
    gid, v = g0[idx], values[idx]
    a1 = (t_labels[pairs[idx, 0]] == 0).astype(np.float64)
    a1 += t_labels[pairs[idx, 1]] == 0
    a2 = 2.0 - a1
    c1 = np.bincount(gid, weights=a1, minlength=n_groups)
    c2 = np.bincount(gid, weights=a2, minlength=n_groups)
    sum1 = np.bincount(gid, weights=a1 * v, minlength=n_groups)
    sum2 = np.bincount(gid, weights=a2 * v, minlength=n_groups)
    safe_c1 = np.where(c1 > 0, c1, 1.0)
    safe_c2 = np.where(c2 > 0, c2, 1.0)
    diff = np.where((c1 > 0) & (c2 > 0), sum1 / safe_c1 - sum2 / safe_c2, 0.0)
    weight = a1 / safe_c1[gid] - a2 / safe_c2[gid]
    return idx, gid, weight, c1, c2, diff


def delta(pairs, scores, group_of, t_labels) -> FairnessAssessment:
    """Per-group absolute difference of subgroup-anchored mean scores,
    taken on post-sigmoid scores.

    Parameters
    ----------
    pairs : (m, 2) int array
        Unordered scored pairs; cross-group pairs are ignored.
    scores : (m,) float array
        Raw scores (logits); the logistic transform is applied here.
    group_of, t_labels : (n,) int arrays
        Group id and binary subgroup id per node.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (pairs.shape[0],):
        raise ValueError("scores must align with pairs")
    if t_labels is None:
        raise ValueError("subgroup labels are required")
    if np.any(pairs[:, 0] == pairs[:, 1]):
        raise ValueError("self-pairs are not valid scored pairs")

    _, _, _, c1, c2, diff = _subgroup_gaps(pairs, expit(scores), group_of,
                                           t_labels)
    reasons = np.select([(c1 == 0) & (c2 == 0), (c1 == 0) | (c2 == 0)],
                        ["no_pairs", "empty_subgroup"], default="")
    skipped = reasons != ""
    n_groups = c1.size
    return FairnessAssessment(
        delta=np.where(skipped, np.nan, np.abs(diff)),
        delta_hat=np.full(n_groups, np.nan),
        disparity=np.full(n_groups, np.nan), n_t1=c1.astype(np.int64),
        n_t2=c2.astype(np.int64), skipped=skipped,
        reasons=tuple(reasons.tolist()),
        negative_slope=np.zeros(n_groups, dtype=bool),
    )


def sampled_delta_terms(pairs, probs, group_of, t_labels):
    """Per-group gaps over already-transformed scores plus the gradient of
    their sum with respect to each pair's transformed score.

    Used by the training loop; cross-group pairs get zero gradient.
    Returns (gaps: per-group array, NaN where a group is inactive,
    grad: (m,) array, n_active).
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    probs = np.asarray(probs, dtype=np.float64)
    idx, gid, weight, c1, c2, diff = _subgroup_gaps(pairs, probs, group_of,
                                                    t_labels)
    active = (c1 > 0) & (c2 > 0)
    grad = np.zeros(probs.shape[0])
    grad[idx] = (np.sign(diff) * active)[gid] * weight
    return np.where(active, np.abs(diff), np.nan), grad, int(active.sum())


def regularizer_term(gaps, lam: float) -> float:
    """(lam / B) * sum of the B defined (non-NaN) per-group gaps."""
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    gaps = np.asarray(gaps, dtype=np.float64)
    vals = gaps[~np.isnan(gaps)]
    if not vals.size:
        return 0.0
    return float(lam * np.sum(vals) / vals.size)


def delta_hat(
    view: WithinGroupView,
    rho2,
    c1,
    t_labels,
    kind: str = "symmetric",
) -> FairnessAssessment:
    """Closed-form estimate of the subgroup score gap per refined group.

    For the symmetric filter the estimate is
    ``|rho2 * C1^2 * (sum_j sqrt(D_jj)) * disparity| / |S|`` with
    ``disparity = mean sqrt(D) over T1 - mean sqrt(D) over T2``; for the
    random-walk filter the theoretic scores are degree-free within a group,
    so the estimate is identically zero.  Groups with an empty subgroup or
    no slope estimate are skipped; negative slopes are applied as-is but
    flagged.
    """
    if kind not in ("symmetric", "random_walk"):
        raise ValueError(f"unknown filter kind: {kind!r}")
    t_labels = np.asarray(t_labels)
    rho2 = np.asarray(rho2, dtype=np.float64)
    c1 = np.asarray(c1, dtype=np.float64)
    if rho2.shape != (view.n_groups,) or c1.shape != (view.n_groups,):
        raise ValueError("rho2 and c1 must have one entry per refined group")

    n_groups = view.n_groups
    sqrt_deg = np.sqrt(view.wg_degrees)
    gid = view.group_of
    t1, t2 = t_labels == 0, t_labels == 1
    n_t1 = np.bincount(gid[t1], minlength=n_groups)
    n_t2 = np.bincount(gid[t2], minlength=n_groups)
    sum1 = np.bincount(gid[t1], weights=sqrt_deg[t1], minlength=n_groups)
    sum2 = np.bincount(gid[t2], weights=sqrt_deg[t2], minlength=n_groups)
    total = np.bincount(gid, weights=sqrt_deg, minlength=n_groups)
    # An empty subgroup's mean is 0/0, so its disparity is NaN.
    with np.errstate(divide="ignore", invalid="ignore"):
        disparity = sum1 / n_t1 - sum2 / n_t2
        dh = np.abs(rho2 * c1**2 * total * disparity) / np.diff(view.offsets)
    if kind == "random_walk":
        dh = np.zeros(n_groups)
    reasons = np.select([(n_t1 == 0) | (n_t2 == 0), ~np.isfinite(rho2)],
                        ["empty_subgroup", "no_slope"], default="")
    skipped = reasons != ""
    return FairnessAssessment(
        delta=np.full(n_groups, np.nan),
        delta_hat=np.where(skipped, np.nan, dh), disparity=disparity,
        n_t1=n_t1, n_t2=n_t2, skipped=skipped,
        reasons=tuple(reasons.tolist()),
        negative_slope=~skipped & (rho2 < 0),
    )
