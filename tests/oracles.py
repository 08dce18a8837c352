"""Reference implementations the tests compare the package against.

Each one computes its answer the slow, obvious way (full enumeration or
dense matrices), so it is only fit for small inputs.
"""
from __future__ import annotations

import numpy as np

DENSE_POWER_LIMIT = 5000


def within_group_pairs(group_of) -> np.ndarray:
    """All unordered same-group pairs (i < j); self-pairs excluded."""
    group_of = np.asarray(group_of)
    out = []
    for g in np.unique(group_of):
        nodes = np.flatnonzero(group_of == g)
        if nodes.size < 2:
            continue
        ii, jj = np.triu_indices(nodes.size, k=1)
        out.append(np.stack([nodes[ii], nodes[jj]], axis=1))
    if not out:
        return np.zeros((0, 2), dtype=np.int64)
    return np.concatenate(out, axis=0)


def dense_power_entries(nm, L: int) -> np.ndarray:
    """P^L of a NormalizedMatrix by repeated dense multiplication;
    guarded to n <= 5000."""
    if L < 0:
        raise ValueError("L must be >= 0")
    if nm.n > DENSE_POWER_LIMIT:
        raise ValueError(
            f"dense powers limited to n <= {DENSE_POWER_LIMIT}, got n = {nm.n}"
        )
    dense = nm.matrix.toarray()
    out = np.eye(nm.n)
    for _ in range(L):
        out = out @ dense
    return out


def dense_negatives(n: int, edges, count: int, rng, exclude=None) -> np.ndarray:
    """``sample_negatives`` by enumeration: list every free pair (i < j) of
    an n x n mask in row-major order, then take ``count`` of them with one
    ``rng.choice`` without replacement, in sorted order."""
    mask = np.triu(np.ones((n, n), dtype=bool), k=1)
    for pairs in (edges, exclude):
        if pairs is None:
            continue
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        mask[pairs.min(axis=1), pairs.max(axis=1)] = False
    cand = np.argwhere(mask)
    idx = rng.choice(cand.shape[0], size=count, replace=False)
    return cand[np.sort(idx)].astype(np.int64)
