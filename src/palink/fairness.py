"""Within-group score parity: the gap between mean link scores anchored at
each subgroup, its closed-form degree-driven estimate, and the
corresponding training penalty.

Subgroup id 0 plays the role of the first anchor set (T1) throughout; the
gap itself is symmetric under swapping the two subgroups.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .graphdata import WithinGroupView


@dataclass(frozen=True)
class GroupFairness:
    group_id: int
    delta: float | None = None
    delta_hat: float | None = None
    disparity: float | None = None
    n_t1: int = 0
    n_t2: int = 0
    skipped: bool = False
    reason: str = ""
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class FairnessAssessment:
    groups: tuple[GroupFairness, ...]

    def active(self) -> tuple[GroupFairness, ...]:
        return tuple(g for g in self.groups if not g.skipped)

    @property
    def mean_delta(self) -> float:
        vals = [g.delta for g in self.active() if g.delta is not None]
        return float(np.mean(vals)) if vals else float("nan")


def _orientation_stats(pairs, values, group_of, t_labels, n_groups):
    """Accumulate anchored orientation sums per group.

    An unordered scored pair contributes one oriented observation per
    endpoint: the anchor's subgroup decides which mean the score joins.
    Returns (a1, c1, c2, sum1, sum2) with a1 per pair and the rest per
    group.
    """
    gid = group_of[pairs[:, 0]]
    a1 = (t_labels[pairs[:, 0]] == 0).astype(np.float64)
    a1 += t_labels[pairs[:, 1]] == 0
    a2 = 2.0 - a1
    c1 = np.bincount(gid, weights=a1, minlength=n_groups)
    c2 = np.bincount(gid, weights=a2, minlength=n_groups)
    sum1 = np.bincount(gid, weights=a1 * values, minlength=n_groups)
    sum2 = np.bincount(gid, weights=a2 * values, minlength=n_groups)
    return gid, a1, a2, c1, c2, sum1, sum2


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
    group_of = np.asarray(group_of)
    t_labels = np.asarray(t_labels)
    if np.any(pairs[:, 0] == pairs[:, 1]):
        raise ValueError("self-pairs are not valid scored pairs")

    n_groups = int(group_of.max()) + 1 if group_of.size else 0
    same = group_of[pairs[:, 0]] == group_of[pairs[:, 1]]
    pairs, scores = pairs[same], scores[same]

    if pairs.size:
        _, _, _, c1, c2, sum1, sum2 = _orientation_stats(
            pairs, expit(scores), group_of, t_labels, n_groups
        )
    else:
        c1 = c2 = sum1 = sum2 = np.zeros(n_groups)

    groups = []
    for g in range(n_groups):
        if c1[g] == 0 and c2[g] == 0:
            groups.append(GroupFairness(g, skipped=True, reason="no_pairs"))
        elif c1[g] == 0 or c2[g] == 0:
            groups.append(
                GroupFairness(g, n_t1=int(c1[g]), n_t2=int(c2[g]),
                              skipped=True, reason="empty_subgroup")
            )
        else:
            d = abs(sum1[g] / c1[g] - sum2[g] / c2[g])
            groups.append(
                GroupFairness(g, delta=float(d), n_t1=int(c1[g]),
                              n_t2=int(c2[g]))
            )
    return FairnessAssessment(groups=tuple(groups))


def sampled_delta_terms(pairs, probs, group_of, t_labels):
    """Per-group gaps over already-transformed scores plus the gradient of
    their sum with respect to each pair's transformed score.

    Used by the training loop; cross-group pairs get zero gradient.
    Returns (deltas: dict group -> gap, grad: (m,) array, n_active).
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    probs = np.asarray(probs, dtype=np.float64)
    group_of = np.asarray(group_of)
    t_labels = np.asarray(t_labels)

    grad = np.zeros(probs.shape[0])
    same = group_of[pairs[:, 0]] == group_of[pairs[:, 1]]
    if not same.any():
        return {}, grad, 0

    idx = np.flatnonzero(same)
    sub_pairs = pairs[idx]
    sub_probs = probs[idx]
    n_groups = int(group_of.max()) + 1
    gid, a1, a2, c1, c2, sum1, sum2 = _orientation_stats(
        sub_pairs, sub_probs, group_of, t_labels, n_groups
    )

    active = (c1 > 0) & (c2 > 0)
    deltas: dict[int, float] = {}
    with np.errstate(invalid="ignore", divide="ignore"):
        diff = np.where(active, sum1 / np.where(c1 > 0, c1, 1.0)
                        - sum2 / np.where(c2 > 0, c2, 1.0), 0.0)
    sign = np.sign(diff) * active
    for g in np.flatnonzero(active):
        deltas[int(g)] = abs(float(diff[g]))

    safe_c1 = np.where(c1 > 0, c1, 1.0)
    safe_c2 = np.where(c2 > 0, c2, 1.0)
    per_pair = sign[gid] * (a1 / safe_c1[gid] - a2 / safe_c2[gid])
    grad[idx] = per_pair
    return deltas, grad, int(active.sum())


def regularizer_term(deltas, lam: float) -> float:
    """(lam / B) * sum of the B per-group gaps in ``deltas`` (group -> gap)."""
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    vals = list(deltas.values())
    if not vals:
        return 0.0
    return float(lam * np.sum(vals) / len(vals))


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
    # Skipped groups (an empty subgroup, no slope) get NaNs here, unread.
    with np.errstate(divide="ignore", invalid="ignore"):
        disparity = sum1 / n_t1 - sum2 / n_t2
        dh = np.abs(rho2 * c1**2 * total * disparity) / np.diff(view.offsets)
    if kind == "random_walk":
        dh[:] = 0.0

    groups = []
    for g, (k1, k2, disp, est, slope) in enumerate(zip(
        n_t1.tolist(), n_t2.tolist(), disparity.tolist(), dh.tolist(),
        rho2.tolist(),
    )):
        if k1 == 0 or k2 == 0:
            groups.append(GroupFairness(g, n_t1=k1, n_t2=k2, skipped=True,
                                        reason="empty_subgroup"))
        elif not math.isfinite(slope):
            groups.append(GroupFairness(g, disparity=disp, n_t1=k1, n_t2=k2,
                                        skipped=True, reason="no_slope"))
        else:
            flags = ("negative_slope",) if slope < 0 else ()
            groups.append(GroupFairness(g, delta_hat=est, disparity=disp,
                                        n_t1=k1, n_t2=k2, flags=flags))
    return FairnessAssessment(groups=tuple(groups))
