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

# Largest block solved by dense ``eigvalsh``; a larger one takes one Lanczos
# run.  Measured with one BLAS thread (median of 9, sparse connected blocks
# of mean degree 8-20), the two cost the same at 256-288 nodes (about
# 5 ms); at 400 nodes dense takes 11.6-13.4 ms and Lanczos 7.0-7.8 ms.
DENSE_EIG_LIMIT = 256

KINDS = ("symmetric", "random_walk")


@dataclass(frozen=True, eq=False)
class NormalizedMatrix:
    """A degree-normalized adjacency operator.  A node whose
    (self-loop-inclusive) degree is zero has an empty row and column.

    Compares and hashes by identity: ``residual_and_bounds`` memoizes its
    operator norms per object, assuming ``matrix`` is never mutated in
    place.  Build a new operator instead."""

    kind: str
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
    """Normalized operator for an explicit edge array (e.g. a train split).

    Built in one pass: the edges in both orientations and the self-loop
    diagonal go into one COO, whose ``tocsr`` sums duplicates and sorts
    each row's column indices; the stored values are then scaled in place,
    ``inv_sqrt[row] * a * inv_sqrt[col]`` or ``inv[row] * a``.  The result
    is canonical CSR (sorted indices, no explicit zeros), so its products
    sum each row in column order.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    degrees = np.bincount(edges.ravel(), minlength=n) + self_loop_weight
    loops = np.arange(n if self_loop_weight != 0.0 else 0)
    rows = np.concatenate([edges[:, 0], edges[:, 1], loops])
    cols = np.concatenate([edges[:, 1], edges[:, 0], loops])
    data = np.ones(rows.size)
    data[2 * len(edges):] = self_loop_weight
    mat = sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
    row = np.repeat(np.arange(n), np.diff(mat.indptr))
    with np.errstate(divide="ignore"):
        if kind == "symmetric":
            inv_sqrt = np.where(degrees > 0, 1.0 / np.sqrt(degrees), 0.0)
            mat.data = inv_sqrt[row] * mat.data * inv_sqrt[mat.indices]
        else:
            inv = np.where(degrees > 0, 1.0 / degrees, 0.0)
            mat.data = inv[row] * mat.data
    return NormalizedMatrix(kind=kind, matrix=mat)


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


def block_spectrum(view: WithinGroupView, kind: str = "symmetric") -> np.ndarray:
    """Per refined group (indexed by group id), the spectral gap
    max(lambda_2, |lambda_min|) of its normalized block.

    The random-walk block is similar to the symmetric one via D^1/2, so
    both kinds share eigenvalues: they are solved once per view object
    (by identity, assuming its arrays are never mutated in place), and
    every call on that view returns one read-only gap array.  A
    singleton's gap is 0 without an eigensolve.  A block of up to
    ``DENSE_EIG_LIMIT`` nodes is solved by dense ``eigvalsh``.  A larger
    one is never made dense: its top eigenpair is known (eigenvalue 1,
    eigenvector sqrt of its degrees), so the gap is the spectral norm of
    the block with that pair deflated, from one Lanczos run.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    return _memo(_gaps, view, lambda: _block_gaps(view))


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
            gaps[gid] = max(float(ev[-2]), abs(float(ev[0])))
        else:
            top = np.sqrt(view.wg_degrees[view.order[a:b]])
            gaps[gid] = _deflated_norm(block, top / np.linalg.norm(top))
    gaps.flags.writeable = False
    return gaps


def _deflated_norm(block: sp.csr_matrix, top: np.ndarray) -> float:
    """Spectral norm of ``block - top top^T`` by one Lanczos run.

    ``top`` is the unit eigenvector of a connected block's eigenvalue 1
    (``sqrt`` of its degrees, normalized), so deflating it leaves the
    other eigenvalues, and the largest of their magnitudes is the gap
    max(lambda_2, |lambda_min|).
    """
    size = block.shape[0]
    deflated = spla.LinearOperator(
        (size, size), matvec=lambda x: block @ x - top * (top @ x),
        dtype=np.float64)
    start = _start_vector(size)
    if (deflated @ start).any():
        largest = spla.eigsh(deflated, k=1, which="LM", tol=0, v0=start,
                             return_eigenvectors=False)
        return abs(float(largest[0]))
    # ARPACK stops ("starting vector is zero") when the operator maps its
    # start to zero.  For a Gaussian start that means the deflated block is
    # zero in floating point, which needs every entry stored: a complete
    # block with self-loop weight 1, P = J / size.  Its residual's
    # Frobenius norm then bounds the gap, which is zero within rounding.
    if block.nnz != size * size:
        raise ArithmeticError(
            f"the deflated {size}-node block maps its start vector to zero")
    entries = block.tocoo()
    residual = entries.data - top[entries.row] * top[entries.col]
    return float(np.linalg.norm(residual))


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

    xi_norm: float
    phat_norm: float
    cross_term: float
    zeta: np.ndarray
    lambda_gaps: np.ndarray


def residual_cross_term(L: int, xi_norm: float, phat_norm: float) -> float:
    """sum_{l=1..L} C(L,l) * xi^l * phat^(L-l)."""
    return float(
        sum(math.comb(L, l) * xi_norm**l * phat_norm ** (L - l) for l in range(1, L + 1))
    )


def residual_and_bounds(
    full: NormalizedMatrix,
    within: NormalizedMatrix,
    gaps: np.ndarray,
    L: int,
    view: WithinGroupView,
) -> BoundSet:
    """Error radii for entries of the L-th power of the full operator.

    For the symmetric kind the radius of group b is
    ``lambda_b^L + cross_term``; the random-walk kind additionally carries
    the global degree ratio sqrt(max D / min positive D).  Both norms in
    the cross term come from ``operator_norm`` (Lanczos, every size) and
    depend on neither L nor the gaps: ``||P_within||`` is solved once
    per ``within`` object and ``||P - P_within||`` once per
    ``(full, within)`` pair, by identity, assuming neither matrix is
    mutated in place.  ``gaps`` are ``block_spectrum(view)``'s; a
    zero-volume group of ``view`` gets a NaN radius.
    """
    if L < 1:
        raise ValueError("L must be >= 1")
    if full.kind != within.kind:
        raise ValueError("operator kinds do not match")

    by_within = _residual_norms.setdefault(full, weakref.WeakKeyDictionary())
    xi_norm = _memo(by_within, within, lambda: operator_norm(
        (full.matrix - within.matrix).tocsr()))
    phat_norm = _memo(_norms, within, lambda: operator_norm(within.matrix))
    cross = residual_cross_term(L, xi_norm, phat_norm)

    ratio = (max_degree_ratio(view.wg_degrees).value
             if full.kind == "random_walk" else 1.0)
    zeta = np.where(view.volumes == 0.0, np.nan, ratio * gaps**L + cross)

    return BoundSet(
        xi_norm=xi_norm,
        phat_norm=phat_norm,
        cross_term=cross,
        zeta=zeta,
        lambda_gaps=gaps,
    )
