"""Normalized graph operators, per-group spectra, and propagation error radii.

Builds symmetric (D^-1/2 A D^-1/2) and random-walk (D^-1 A) normalizations
of a graph or of its within-group subgraph, computes per-group spectral
gaps, and turns the residual between the two operators into entrywise
bounds on powers of the full operator.
"""
from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .graphdata import Dataset, WithinGroupView
from .metrics import max_degree_ratio

DENSE_EIG_LIMIT = 4096

KINDS = ("symmetric", "random_walk")


@dataclass(frozen=True, eq=False)
class NormalizedMatrix:
    """A degree-normalized adjacency operator.  A node whose
    (self-loop-inclusive) degree is zero has an empty row and column.

    Compares and hashes by identity: ``residual_and_bounds`` memoizes its
    operator norms per object, assuming ``matrix`` is never mutated in
    place.  Build a new operator instead."""

    kind: str
    n: int
    matrix: sp.csr_matrix


def normalized_matrix(source: Dataset | WithinGroupView, kind: str) -> NormalizedMatrix:
    """Build the normalized operator of a dataset's graph or of a
    within-group view's subgraph.

    Degrees include the self-loop weight; zero-degree rows stay zero.
    """
    if isinstance(source, Dataset):
        edges = source.edges
    elif isinstance(source, WithinGroupView):
        edges = source.wg_edges
    else:
        raise TypeError(f"unsupported source type: {type(source).__name__}")
    return matrix_from_edges(source.n, edges, source.self_loop_weight, kind)


def matrix_from_edges(
    n: int, edges: np.ndarray, self_loop_weight: float, kind: str
) -> NormalizedMatrix:
    """Normalized operator for an explicit edge array (e.g. a train split)."""
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    counts = np.bincount(edges.ravel(), minlength=n).astype(np.float64)
    degrees = counts + self_loop_weight
    if edges.size:
        u, v = edges[:, 0], edges[:, 1]
        rows = np.concatenate([u, v])
        cols = np.concatenate([v, u])
        data = np.ones(rows.size, dtype=np.float64)
        adj = sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
    else:
        adj = sp.csr_matrix((n, n), dtype=np.float64)
    if self_loop_weight != 0.0:
        adj = adj + self_loop_weight * sp.identity(n, format="csr")
    with np.errstate(divide="ignore"):
        if kind == "symmetric":
            inv_sqrt = np.where(degrees > 0, 1.0 / np.sqrt(degrees), 0.0)
            mat = sp.diags(inv_sqrt) @ adj @ sp.diags(inv_sqrt)
        else:
            inv = np.where(degrees > 0, 1.0 / degrees, 0.0)
            mat = sp.diags(inv) @ adj
    return NormalizedMatrix(kind=kind, n=n, matrix=mat.tocsr())


@dataclass(frozen=True)
class SpectralSummary:
    """Per refined group (indexed by group id), the spectral gap of its
    normalized block and whether the group has zero volume."""

    kind: str
    lambda_gaps: np.ndarray
    degenerate: np.ndarray


def _start_vector(n: int) -> np.ndarray:
    # ARPACK draws a fresh random start vector on every call unless given
    # one, so identical calls would differ in their last bits.
    return np.random.default_rng(0).standard_normal(n)


def _memo(table: weakref.WeakKeyDictionary, key, compute):
    """``table[key]``, filled by ``compute()`` on the first call.  The
    entry dies with ``key``, so a reused ``id()`` never finds it."""
    value = table.get(key)
    if value is None:
        value = table[key] = compute()
    return value


# Solved once per input object; neither depends on the filter kind or L.
_gaps = weakref.WeakKeyDictionary()  # view -> read-only gap array
_norms = weakref.WeakKeyDictionary()  # within -> ||P_within||
# full -> {within: ||P - P_within||}, weak in both keys
_residual_norms = weakref.WeakKeyDictionary()


def block_spectrum(view: WithinGroupView, kind: str = "symmetric") -> SpectralSummary:
    """Per refined group, the spectral gap max(lambda_2, |lambda_min|) of
    its normalized block.

    The random-walk block is similar to the symmetric one via D^1/2, so
    both kinds share eigenvalues: they are solved once per view object
    (by identity, assuming its arrays are never mutated in place), and
    every summary of that view shares one read-only gap array.  A
    singleton's gap is 0 without an eigensolve.  Blocks larger than
    ``DENSE_EIG_LIMIT`` get only their extremal eigenvalues via Lanczos.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    gaps = _memo(_gaps, view, lambda: _block_gaps(view))
    return SpectralSummary(kind=kind, lambda_gaps=gaps,
                           degenerate=view.volumes == 0.0)


def _block_gaps(view: WithinGroupView) -> np.ndarray:
    # Refined groups are components of the within-group graph, so this
    # operator is block diagonal: permuted into group order, each group's
    # block is a diagonal slice, with the entries of a per-group build.
    sym = normalized_matrix(view, "symmetric").matrix[view.order][:, view.order]
    bounds = view.offsets.tolist()
    gaps = np.zeros(view.n_groups)
    for gid in np.flatnonzero(np.diff(view.offsets) >= 2).tolist():
        a, b = bounds[gid], bounds[gid + 1]
        block = sym[a:b, a:b]
        if b - a <= DENSE_EIG_LIMIT:
            ev = np.linalg.eigvalsh(block.toarray())
            second, lowest = ev[-2], ev[0]
        else:
            opts = dict(v0=_start_vector(b - a), return_eigenvectors=False)
            second = spla.eigsh(block, k=2, which="LA", **opts).min()
            lowest = spla.eigsh(block, k=1, which="SA", **opts).min()
        gaps[gid] = max(float(second), abs(float(lowest)))
    gaps.flags.writeable = False
    return gaps


def operator_norm(mat) -> float:
    """Spectral norm (largest singular value) of a sparse or dense matrix.

    Lanczos (ARPACK ``eigsh``) for the largest eigenvalue of the Gram
    operator M^T M, to machine precision at every size; the norm is its
    square root.  An all-zero matrix has norm 0 and a single row or column
    its vector 2-norm, the two inputs ARPACK cannot take.
    """
    mat = sp.csr_matrix(mat, dtype=np.float64)
    if min(mat.shape) <= 1:
        return float(spla.norm(mat))
    if mat.count_nonzero() == 0:
        return 0.0
    n = mat.shape[1]
    # Transposed once: a fresh ``mat.T`` per product dominates small inputs.
    mat_t = mat.T.tocsr()
    gram = spla.LinearOperator(
        (n, n), matvec=lambda x: mat_t @ (mat @ x), dtype=np.float64
    )
    top = spla.eigsh(gram, k=1, which="LA", tol=0, v0=_start_vector(n),
                     return_eigenvectors=False)
    return math.sqrt(float(top[0]))


@dataclass(frozen=True)
class BoundSet:
    """Entrywise error radii for length-L propagation.

    ``zeta`` holds one radius per refined group (NaN for degenerate,
    zero-volume groups); ``cross_term`` is the residual-only part that also
    bounds entries between distinct groups.
    """

    kind: str
    L: int
    xi_norm: float
    phat_norm: float
    cross_term: float
    zeta: np.ndarray
    lambda_gaps: np.ndarray
    degree_ratio: float | None


def residual_cross_term(L: int, xi_norm: float, phat_norm: float) -> float:
    """sum_{l=1..L} C(L,l) * xi^l * phat^(L-l)."""
    return float(
        sum(math.comb(L, l) * xi_norm**l * phat_norm ** (L - l) for l in range(1, L + 1))
    )


def residual_and_bounds(
    full: NormalizedMatrix,
    within: NormalizedMatrix,
    summary: SpectralSummary,
    L: int,
    view: WithinGroupView,
) -> BoundSet:
    """Error radii for entries of the L-th power of the full operator.

    For the symmetric kind the radius of group b is
    ``lambda_b^L + cross_term``; the random-walk kind additionally carries
    the global degree ratio sqrt(max D / min positive D).  Both norms in
    the cross term come from ``operator_norm`` (Lanczos, every size) and
    depend on neither L nor the summary: ``||P_within||`` is solved once
    per ``within`` object and ``||P - P_within||`` once per
    ``(full, within)`` pair, by identity, assuming neither matrix is
    mutated in place.
    """
    if L < 1:
        raise ValueError("L must be >= 1")
    if full.kind != within.kind or full.kind != summary.kind:
        raise ValueError("operator kinds do not match")

    by_within = _residual_norms.setdefault(full, weakref.WeakKeyDictionary())
    xi_norm = _memo(by_within, within, lambda: operator_norm(
        (full.matrix - within.matrix).tocsr()))
    phat_norm = _memo(_norms, within, lambda: operator_norm(within.matrix))
    cross = residual_cross_term(L, xi_norm, phat_norm)

    gaps = summary.lambda_gaps
    degenerate = summary.degenerate

    if full.kind == "random_walk":
        ratio = max_degree_ratio(view.wg_degrees).value
        zeta = ratio * gaps**L + cross
    else:
        ratio = None
        zeta = gaps**L + cross
    zeta = np.where(degenerate, np.nan, zeta)

    return BoundSet(
        kind=full.kind,
        L=L,
        xi_norm=xi_norm,
        phat_norm=phat_norm,
        cross_term=cross,
        zeta=zeta,
        lambda_gaps=gaps,
        degree_ratio=ratio,
    )
