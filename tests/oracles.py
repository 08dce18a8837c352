"""Reference implementations the tests compare the package against.

Each one computes its answer the slow, obvious way (full enumeration or
dense matrices), so it is only fit for small inputs.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sparse

from palink.spectral import matrix_from_edges

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


def einsum_scores(h, pairs) -> np.ndarray:
    """``score_pairs`` as one einsum over the full gathers of both
    endpoints, with no blocking."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    return np.einsum("ij,ij->i", h[pairs[:, 0]], h[pairs[:, 1]])


def lifted_pair_gradient(h, pairs, dscore) -> np.ndarray:
    """Gradient of ``sum_k dscore_k * h_i . h_j`` with respect to ``h`` by
    two ``n x m_pairs`` lift matrices applied to the gathered partner rows:
    dh = lift_i @ h[j] + lift_j @ h[i]."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    n, m_pairs = h.shape[0], pairs.shape[0]
    cols = np.arange(m_pairs)
    lift_i = sparse.csr_matrix((dscore, (pairs[:, 0], cols)),
                               shape=(n, m_pairs))
    lift_j = sparse.csr_matrix((dscore, (pairs[:, 1], cols)),
                               shape=(n, m_pairs))
    return lift_i @ h[pairs[:, 1]] + lift_j @ h[pairs[:, 0]]


def sym_block(view, gid: int) -> sparse.csr_matrix:
    """Symmetric normalized operator of refined group ``gid`` built on its
    own: a scan for its nodes, its within-group edges relabelled 0..k-1,
    then ``matrix_from_edges``."""
    nodes = np.flatnonzero(view.group_of == gid)
    pos = -np.ones(view.n, dtype=np.int64)
    pos[nodes] = np.arange(nodes.size)
    edges = view.wg_edges
    sub = edges[view.group_of[edges[:, 0]] == gid]
    return matrix_from_edges(
        nodes.size, pos[sub], view.self_loop_weight, "symmetric"
    ).matrix


def sym_block_gap(view, gid: int) -> float:
    """Spectral gap max(lambda_2, |lambda_min|) of ``sym_block`` by a dense
    eigensolve; 0 for a singleton."""
    ev = np.linalg.eigvalsh(sym_block(view, gid).toarray())
    return 0.0 if ev.size == 1 else max(float(ev[-2]), abs(float(ev[0])))


def loop_group_c1(view, alpha_set, kind: str) -> np.ndarray:
    """``group_c1`` one refined group at a time: the norm of the
    degree-weighted alpha sum over the group's nodes, divided by its
    volume (0 for a zero-volume group)."""
    deg = view.wg_degrees
    weights = np.sqrt(deg) if kind == "symmetric" else deg
    c1 = np.zeros(int(view.group_of.max()) + 1)
    for g in range(c1.size):
        nodes = np.flatnonzero(view.group_of == g)
        vol = deg[nodes].sum()
        if vol == 0.0:
            continue
        v = (weights[nodes][:, None] * alpha_set.alphas[nodes]).sum(axis=0)
        c1[g] = np.linalg.norm(v / vol)
    return c1


def delta_enumeration_oracle(pairs, values, group_of, t_labels) -> np.ndarray:
    """``fairness.delta`` on already-transformed scores by explicit loops:
    per group, both anchored orientation multisets, then the absolute
    difference of their means; NaN for a group where either is empty."""
    buckets = {}
    for (i, j), v in zip(pairs, values):
        if group_of[i] != group_of[j]:
            continue
        bucket = buckets.setdefault(group_of[i], {0: [], 1: []})
        for anchor in (i, j):
            bucket[t_labels[anchor]].append(v)
    out = np.full(int(np.max(group_of)) + 1, np.nan)
    for g, bucket in buckets.items():
        if bucket[0] and bucket[1]:
            out[g] = abs(np.mean(bucket[0]) - np.mean(bucket[1]))
    return out
