"""Within-group score parity: the gap between mean link scores anchored at
each subgroup, its closed-form degree-driven estimate, and the per-group
gaps and gradient of the training penalty.

Subgroup id 0 plays the role of the first anchor set (T1) throughout; the
gap itself is symmetric under swapping the two subgroups.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphdata import WithinGroupView
from .spectral import KINDS


@dataclass(frozen=True)
class FairnessAssessment:
    """``delta``'s per-group results, each an array indexed by refined-group
    id: the trained-score gap, each subgroup's anchor observations
    (same-group pair endpoints, so one pair counts twice), and why the gap
    is NaN ("" where it is defined)."""

    delta: np.ndarray
    n_t1: np.ndarray
    n_t2: np.ndarray
    reasons: np.ndarray

    @property
    def mean_delta(self) -> float:
        vals = self.delta[self.reasons == ""]
        return float(np.mean(vals)) if vals.size else float("nan")


def _float_array(a) -> np.ndarray:
    """``a`` as an array, float32 and float64 kept at their width and any
    other dtype read as float64."""
    a = np.asarray(a)
    return a if a.dtype in (np.float32, np.float64) else a.astype(np.float64)


def _sigmoid(x, out=None, tmp=None):
    """Logistic sigmoid of a float32 or float64 array, at its width:
    ``e / (1 + e)`` where ``x < 0`` and ``1 / (1 + e)`` elsewhere, with
    ``e = exp(-|x|) <= 1``, so no input overflows and NaN stays NaN.
    Written into ``out`` with ``tmp`` as scratch (each new if omitted)."""
    e = np.abs(x, out=tmp)
    np.exp(np.negative(e, out=e), out=e)
    # the numerator: as e <= 1, max(e, heaviside(x)) is e where x < 0
    # and 1 elsewhere
    num = np.maximum(e, np.heaviside(x, 1.0, out=out), out=out)
    return np.divide(num, np.add(1.0, e, out=e), out=num)


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
    a1 = (t_labels[pairs[idx, 0]] == 0).astype(values.dtype)
    a1 += t_labels[pairs[idx, 1]] == 0
    a2 = 2.0 - a1
    c1 = np.bincount(gid, weights=a1, minlength=n_groups)
    c2 = np.bincount(gid, weights=a2, minlength=n_groups)
    sum1 = np.bincount(gid, weights=a1 * v, minlength=n_groups)
    sum2 = np.bincount(gid, weights=a2 * v, minlength=n_groups)
    # counts, exact at the values' width, so ``weight`` stays at it
    safe_c1 = np.where(c1 > 0, c1, 1.0).astype(values.dtype, copy=False)
    safe_c2 = np.where(c2 > 0, c2, 1.0).astype(values.dtype, copy=False)
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

    _, _, _, c1, c2, diff = _subgroup_gaps(pairs, _sigmoid(scores), group_of,
                                           t_labels)
    reasons = np.select([(c1 == 0) & (c2 == 0), (c1 == 0) | (c2 == 0)],
                        ["no_pairs", "empty_subgroup"], default="")
    return FairnessAssessment(
        delta=np.where(reasons != "", np.nan, np.abs(diff)),
        n_t1=c1.astype(np.int64), n_t2=c2.astype(np.int64), reasons=reasons,
    )


def sampled_delta_terms(pairs, probs, group_of, t_labels):
    """The active groups' gaps over already-transformed scores, in group
    order, plus the gradient of their sum with respect to each pair's
    transformed score.

    Used by the training loop; cross-group pairs get zero gradient.
    Returns (gaps: one entry per group with both subgroups anchored,
    grad: (m,) array).
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    probs = _float_array(probs)
    idx, gid, weight, c1, c2, diff = _subgroup_gaps(pairs, probs, group_of,
                                                    t_labels)
    active = (c1 > 0) & (c2 > 0)
    grad = np.zeros(probs.shape[0], probs.dtype)
    grad[idx] = (np.sign(diff) * active).astype(probs.dtype)[gid] * weight
    return np.abs(diff[active]), grad


def delta_hat(
    view: WithinGroupView,
    rho2,
    c1,
    t_labels,
    kind: str = "symmetric",
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form estimate of the subgroup score gap per refined group.

    For the symmetric filter the estimate is
    ``|rho2 * C1^2 * (sum_j sqrt(D_jj)) * disparity| / |S|`` with
    ``disparity = mean sqrt(D) over T1 - mean sqrt(D) over T2``; for the
    random-walk filter the theoretic scores are degree-free within a group,
    so the estimate is identically zero.  Returns ``(delta_hat,
    disparity)``, arrays indexed by refined-group id: both are NaN where a
    subgroup is empty, and ``delta_hat`` also where ``rho2`` is not finite.
    A negative slope is applied as-is.
    """
    if kind not in KINDS:
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
    undefined = np.isnan(disparity) | ~np.isfinite(rho2)
    return np.where(undefined, np.nan, dh), disparity
