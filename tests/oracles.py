"""Reference implementations the tests compare the package against.

Each one computes its answer the slow, obvious way (full enumeration or
dense matrices), so it is only fit for small inputs.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sparse
from scipy.special import expit

from palink.gcn import loss_and_gradients
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


def lexsort_canonical_edges(edges) -> tuple[np.ndarray, int]:
    """``make_dataset``'s edge canonicalization by a lexicographic sort of
    the ``(min, max)`` rows and a compare with the previous row: the
    distinct edges ``u < v`` in order, and the number of dropped
    duplicates."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    canon = np.stack([edges.min(axis=1), edges.max(axis=1)], axis=1)
    canon = canon[np.lexsort((canon[:, 1], canon[:, 0]))]
    keep = np.ones(canon.shape[0], dtype=bool)
    keep[1:] = np.any(canon[1:] != canon[:-1], axis=1)
    return canon[keep], int((~keep).sum())


def dense_planted_edges(config) -> tuple[np.ndarray, np.ndarray]:
    """``synth_generate``'s edges and subgroup-"a" mask by one Bernoulli
    draw over every ``np.triu_indices`` pair, then per "a" node a choice
    among ``nodes[nodes != node]``, then ``np.unique`` and a lexicographic
    sort.  Memory is quadratic in ``config.n``."""
    rng = np.random.default_rng(config.seed)
    n = config.n
    sizes = np.array(config.sizes, dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    group_of = np.repeat(np.arange(sizes.size), sizes)
    iu, ju = np.triu_indices(n, k=1)
    prob = np.where(group_of[iu] == group_of[ju], config.p_in, config.p_out)
    hit = rng.random(iu.size) < prob
    edge_list = [np.stack([iu[hit], ju[hit]], axis=1)]
    t_is_a = np.zeros(n, dtype=bool)
    for g, size in enumerate(sizes):
        nodes = np.arange(offsets[g], offsets[g + 1])
        k = min(max(1, int(round(config.t1_fraction[g] * size))), size - 1)
        chosen = rng.choice(nodes, size=k, replace=False)
        t_is_a[chosen] = True
        extra = int(round(config.disparity_boost[g]))
        if extra > 0:
            for node in np.sort(chosen):
                others = nodes[nodes != node]
                partners = rng.choice(others, size=min(extra, others.size),
                                      replace=False)
                edge_list.append(np.stack([np.minimum(node, partners),
                                           np.maximum(node, partners)],
                                          axis=1))
    edges = np.concatenate(edge_list, axis=0)
    _, first = np.unique(edges[:, 0] * n + edges[:, 1], return_index=True)
    edges = edges[np.sort(first)]
    return edges[np.lexsort((edges[:, 1], edges[:, 0]))], t_is_a


def product_normalized_matrix(n: int, edges, self_loop_weight: float,
                              kind: str) -> sparse.csr_matrix:
    """``matrix_from_edges``' operator by sparse products: the adjacency
    from a COO, plus ``w * I``, then ``diag(D^-1/2) @ A @ diag(D^-1/2)``
    or ``diag(D^-1) @ A``."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    degrees = np.bincount(edges.ravel(), minlength=n) + self_loop_weight
    both = np.concatenate([edges, edges[:, ::-1]])
    adj = sparse.coo_matrix((np.ones(len(both)), (both[:, 0], both[:, 1])),
                            shape=(n, n)).tocsr()
    if self_loop_weight != 0.0:
        adj = adj + self_loop_weight * sparse.identity(n, format="csr")
    with np.errstate(divide="ignore"):
        if kind == "symmetric":
            scale = sparse.diags(np.where(degrees > 0,
                                          1.0 / np.sqrt(degrees), 0.0))
            return (scale @ adj @ scale).tocsr()
        scale = sparse.diags(np.where(degrees > 0, 1.0 / degrees, 0.0))
        return (scale @ adj).tocsr()


def dense_power_entries(nm, L: int) -> np.ndarray:
    """P^L of a NormalizedMatrix by repeated dense multiplication;
    guarded to n <= 5000."""
    if L < 0:
        raise ValueError("L must be >= 0")
    n = nm.matrix.shape[0]
    if n > DENSE_POWER_LIMIT:
        raise ValueError(
            f"dense powers limited to n <= {DENSE_POWER_LIMIT}, got n = {n}"
        )
    dense = nm.matrix.toarray()
    out = np.eye(n)
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


def finite_difference_grads(model, nm, features, pos, neg, lam, group_of,
                            t_labels, h=1e-6) -> list[np.ndarray]:
    """``loss_and_gradients``' gradients by central finite differences of
    its loss over every weight entry."""
    out = []
    for w in model.weights:
        g = np.zeros_like(w)
        it = np.nditer(w, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = w[idx]
            w[idx] = orig + h
            up = loss_and_gradients(model, nm, features, pos, neg, lam,
                                    group_of, t_labels)[0]
            w[idx] = orig - h
            dn = loss_and_gradients(model, nm, features, pos, neg, lam,
                                    group_of, t_labels)[0]
            w[idx] = orig
            g[idx] = (up - dn) / (2.0 * h)
        out.append(g)
    return out


def gradient_error(grads, reference, floor: float = 1e-12) -> float:
    """Largest entrywise error of ``grads`` against ``reference``, relative
    to the larger of the two entries; an entry below 1e-3 of the largest
    gradient entry, or below ``floor``, is measured against that bound
    instead."""
    gmax = max(float(np.max(np.abs(g), initial=0.0)) for g in grads)
    worst = 0.0
    for a, f in zip(grads, reference):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(f)),
                           max(1e-3 * gmax, floor))
        worst = max(worst, float(np.max(np.abs(a - f) / denom)))
    return worst


def propagate_first_forward(model, nm, features, linear=False):
    """``gcn._forward_cached`` with every layer propagating first,
    ``Z_l = (P @ H_{l-1}) @ W_l^T``: the final representations, each
    layer's ``P @ H_{l-1}`` and each ``Z_l``."""
    h = np.asarray(features, dtype=np.float64)
    propagated, pre = [], []
    for l, w in enumerate(model.weights):
        propagated.append(nm.matrix @ h)
        pre.append(propagated[-1] @ w.T)
        last = linear or l == len(model.weights) - 1
        h = pre[-1] if last else np.maximum(pre[-1], 0.0)
    return h, propagated, pre


def propagate_first_bce_grads(model, nm, features, pos,
                              neg) -> list[np.ndarray]:
    """``loss_and_gradients``' gradients at ``lambda_fair = 0`` through
    ``propagate_first_forward``: unblocked scores, the two-lift pair
    gradient, then ``dW_l = G^T (P @ H_{l-1})`` and
    ``dH_{l-1} = P^T (G @ W_l)`` at every layer."""
    h, propagated, pre = propagate_first_forward(model, nm, features)
    pos, neg = (np.asarray(p, dtype=np.int64).reshape(-1, 2)
                for p in (pos, neg))
    pairs = np.concatenate([pos, neg])
    labels = np.r_[np.ones(len(pos)), np.zeros(len(neg))]
    scores = einsum_scores(h, pairs)
    dscore = (expit(scores) - labels) / pairs.shape[0]
    g = lifted_pair_gradient(h, pairs, dscore)
    grads = [None] * model.n_layers
    for l in range(model.n_layers - 1, -1, -1):
        if l < model.n_layers - 1:
            g = g * (pre[l] > 0.0)
        grads[l] = g.T @ propagated[l]
        g = nm.matrix.T @ (g @ model.weights[l])
    return grads


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


def loop_group_c1(view, alphas, kind: str) -> np.ndarray:
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
        v = (weights[nodes][:, None] * alphas[nodes]).sum(axis=0)
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
