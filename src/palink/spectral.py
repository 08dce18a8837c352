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
DENSE_SVD_LIMIT = 4096
DENSE_POWER_LIMIT = 5000
POWER_ITER_TOL = 1e-8
POWER_ITER_CAP = 10000

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


def _sym_block(view: WithinGroupView, gid: int, nodes: np.ndarray) -> sp.csr_matrix:
    # A refined group is a connected component of the within-group graph,
    # so its edges are those whose first endpoint lies in it, and their
    # degrees are its nodes' within-group degrees.
    pos = -np.ones(view.n, dtype=np.int64)
    pos[nodes] = np.arange(nodes.size)
    edges = view.wg_edges
    sub = edges[view.group_of[edges[:, 0]] == gid]
    return matrix_from_edges(
        nodes.size, pos[sub], view.self_loop_weight, "symmetric"
    ).matrix


def block_spectrum(
    view: WithinGroupView, kind: str = "symmetric", compute_vectors: bool = False
):
    """Per refined group, the spectrum of its normalized block.

    The random-walk block is similar to the symmetric one via D^1/2, so
    both kinds share eigenvalues; vectors (when requested) are those of the
    symmetric block.  Blocks larger than ``DENSE_EIG_LIMIT`` get only their
    extremal eigenvalues (lambda_1, lambda_2, lambda_min) via Lanczos.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    specs = []
    vectors: list[np.ndarray | None] = []
    for gid, nodes in enumerate(view.groups):
        k = nodes.size
        vol = float(view.volumes[gid])
        block = _sym_block(view, gid, nodes)
        degenerate = vol == 0.0
        if k <= DENSE_EIG_LIMIT:
            dense = block.toarray()
            if compute_vectors:
                ev, evec = np.linalg.eigh(dense)
                vectors.append(evec[:, ::-1])
            else:
                ev = np.linalg.eigvalsh(dense)
                vectors.append(None)
            ev = ev[::-1]
            method = "dense"
        else:
            top = spla.eigsh(block, k=2, which="LA", return_eigenvectors=False)
            bot = spla.eigsh(block, k=1, which="SA", return_eigenvectors=False)
            ev = np.array([top.max(), top.min(), bot.min()])
            vectors.append(None)
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
    summary = SpectralSummary(kind=kind, groups=tuple(specs))
    if compute_vectors:
        return summary, vectors
    return summary


def operator_norm(mat) -> float:
    """Spectral norm (largest singular value).

    Dense SVD up to ``DENSE_SVD_LIMIT``; above that, power iteration on
    M^T M with tolerance 1e-8 and a 10000-iteration cap.
    """
    if sp.issparse(mat):
        n = max(mat.shape)
        if n <= DENSE_SVD_LIMIT:
            return float(np.linalg.svd(mat.toarray(), compute_uv=False)[0])
        v = np.ones(mat.shape[1]) / math.sqrt(mat.shape[1])
        v += np.linspace(0.0, 1e-3, mat.shape[1])
        v /= np.linalg.norm(v)
        sigma = 0.0
        for _ in range(POWER_ITER_CAP):
            u = mat @ v
            v_new = mat.T @ u
            norm = np.linalg.norm(v_new)
            if norm == 0.0:
                return 0.0
            v_new /= norm
            sigma_new = math.sqrt(norm)
            if abs(sigma_new - sigma) <= POWER_ITER_TOL * max(sigma_new, 1.0):
                return sigma_new
            sigma, v = sigma_new, v_new
        return sigma
    arr = np.asarray(mat, dtype=np.float64)
    if arr.size == 0:
        return 0.0
    return float(np.linalg.svd(arr, compute_uv=False)[0])


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
    the global degree ratio sqrt(max D / min positive D).
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


def dense_power_entries(nm: NormalizedMatrix, L: int) -> np.ndarray:
    """P^L by repeated dense multiplication; guarded to n <= 5000."""
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
