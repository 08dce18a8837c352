"""Normalized graph operators, per-group spectra, and propagation error radii.

Builds symmetric (D^-1/2 A D^-1/2) and random-walk (D^-1 A) normalizations
of a graph or of its within-group subgraph, computes per-group spectral
gaps, and turns the residual between the two operators into entrywise
bounds on powers of the full operator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .graphdata import Dataset, WithinGroupView
from .metrics import max_degree_ratio

DENSE_EIG_LIMIT = 4096

KINDS = ("symmetric", "random_walk")


@dataclass(frozen=True)
class NormalizedMatrix:
    """A degree-normalized adjacency operator.

    ``zero_degree`` marks nodes whose (self-loop-inclusive) degree is zero;
    their rows and columns are identically zero rather than NaN.
    """

    kind: str
    n: int
    matrix: sp.csr_matrix
    degrees: np.ndarray
    zero_degree: np.ndarray


def normalized_matrix(source: Dataset | WithinGroupView, kind: str) -> NormalizedMatrix:
    """Build the normalized operator of a dataset's graph or of a
    within-group view's subgraph.

    Degrees include the self-loop weight; zero-degree rows stay zero and
    are flagged.
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
    return NormalizedMatrix(
        kind=kind, n=n, matrix=mat.tocsr(), degrees=degrees,
        zero_degree=degrees == 0.0,
    )


@dataclass(frozen=True)
class GroupSpectrum:
    group_id: int
    size: int
    volume: float
    eigenvalues: np.ndarray  # descending; extremal triple on iterative path
    lambda_gap: float
    degenerate: bool
    method: str


@dataclass(frozen=True)
class SpectralSummary:
    kind: str
    groups: tuple[GroupSpectrum, ...]

    @property
    def lambda_gaps(self) -> np.ndarray:
        return np.array([g.lambda_gap for g in self.groups])

    @property
    def degenerate(self) -> np.ndarray:
        return np.array([g.degenerate for g in self.groups])


def _start_vector(n: int) -> np.ndarray:
    # ARPACK draws a fresh random start vector on every call unless given
    # one, so identical calls would differ in their last bits.
    return np.random.default_rng(0).standard_normal(n)


def block_spectrum(view: WithinGroupView, kind: str = "symmetric") -> SpectralSummary:
    """Per refined group, the spectrum of its normalized block.

    The random-walk block is similar to the symmetric one via D^1/2, so
    both kinds share eigenvalues.  Blocks larger than ``DENSE_EIG_LIMIT``
    get only their extremal eigenvalues (lambda_1, lambda_2, lambda_min)
    via Lanczos.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    # Refined groups are components of the within-group graph, so this
    # operator is block diagonal: permuted into group order, each group's
    # block is a diagonal slice, with the entries of a per-group build.
    sym = normalized_matrix(view, "symmetric").matrix[view.order][:, view.order]
    bounds = view.offsets.tolist()
    specs = []
    for gid, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
        k = b - a
        vol = float(view.volumes[gid])
        block = sym[a:b, a:b]
        degenerate = vol == 0.0
        if k <= DENSE_EIG_LIMIT:
            ev = np.linalg.eigvalsh(block.toarray())[::-1]
            method = "dense"
        else:
            opts = dict(v0=_start_vector(k), return_eigenvectors=False)
            top = spla.eigsh(block, k=2, which="LA", **opts)
            bot = spla.eigsh(block, k=1, which="SA", **opts)
            ev = np.array([top.max(), top.min(), bot.min()])
            method = "iterative"
        if k == 1:
            gap = 0.0
        else:
            gap = max(float(ev[1]), abs(float(ev[-1])))
        specs.append(
            GroupSpectrum(
                group_id=gid,
                size=k,
                volume=vol,
                eigenvalues=ev,
                lambda_gap=gap,
                degenerate=degenerate,
                method=method,
            )
        )
    return SpectralSummary(kind=kind, groups=tuple(specs))


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
    the cross term come from ``operator_norm`` (Lanczos, every size).
    """
    if L < 1:
        raise ValueError("L must be >= 1")
    if full.kind != within.kind or full.kind != summary.kind:
        raise ValueError("operator kinds do not match")

    xi = (full.matrix - within.matrix).tocsr()
    xi_norm = operator_norm(xi)
    phat_norm = operator_norm(within.matrix)
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
