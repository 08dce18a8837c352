"""Graph dataset loading, validation, and within-group structure.

A dataset couples an undirected simple graph with node features, a group
label per node, and (optionally) a binary subgroup label per node.  The
within-group view keeps only edges whose endpoints share a group label and
refines each label class into its connected components.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components


class DatasetError(ValueError):
    """Raised when input files or arrays violate the dataset contract."""


@dataclass(frozen=True)
class Dataset:
    """An undirected graph with features and group labels.

    Attributes
    ----------
    n : int
        Number of nodes; node ids are 0..n-1.
    edges : ndarray of shape (m, 2)
        Canonical undirected edges with u < v, sorted, duplicate-free.
    features : ndarray of shape (n, d)
        Dense float64 feature matrix.
    s_labels : ndarray of shape (n,)
        Group id per node, 0..B-1.
    t_labels : ndarray of shape (n,) or None
        Optional binary subgroup id per node (0 or 1).
    self_loop_weight : float
        Weight w >= 0 added on the diagonal of every adjacency built from
        this dataset; degrees include it.
    """

    n: int
    edges: np.ndarray
    features: np.ndarray
    s_labels: np.ndarray
    t_labels: np.ndarray | None
    self_loop_weight: float
    s_names: tuple[str, ...] = ()
    t_names: tuple[str, ...] = ()
    n_duplicate_edges: int = 0

    @property
    def m(self) -> int:
        return int(self.edges.shape[0])

    @property
    def feature_dim(self) -> int:
        return int(self.features.shape[1])

    @property
    def n_groups(self) -> int:
        return int(self.s_labels.max()) + 1 if self.n else 0


def make_dataset(
    edges,
    features,
    s_labels,
    t_labels=None,
    self_loop_weight: float = 1.0,
    s_names: tuple[str, ...] = (),
    t_names: tuple[str, ...] = (),
) -> Dataset:
    """Validate and canonicalize raw arrays into a Dataset.

    Edges are reordered so u < v, sorted lexicographically, and
    de-duplicated (the number of dropped duplicates is recorded on the
    dataset).  Self-edges in the input are rejected: diagonal weight is
    controlled exclusively by ``self_loop_weight``.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] == 0:
        raise DatasetError("features must be a non-empty 2-d array")
    if not np.all(np.isfinite(features)):
        raise DatasetError("features contain non-finite values")
    n = features.shape[0]

    s_labels = np.asarray(s_labels)
    if s_labels.shape != (n,):
        raise DatasetError(f"expected {n} group labels, got {s_labels.shape}")
    s_labels = s_labels.astype(np.int64)
    if s_labels.min(initial=0) < 0:
        raise DatasetError("group labels must be non-negative")

    if t_labels is not None:
        t_labels = np.asarray(t_labels).astype(np.int64)
        if t_labels.shape != (n,):
            raise DatasetError(f"expected {n} subgroup labels, got {t_labels.shape}")
        uniq = np.unique(t_labels)
        if not np.array_equal(uniq, np.array([0, 1])):
            raise DatasetError(
                "subgroup labels must take exactly the two values 0 and 1"
            )

    if self_loop_weight < 0:
        raise DatasetError("self_loop_weight must be >= 0")

    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size:
        if edges.min() < 0 or edges.max() >= n:
            raise DatasetError("edge endpoint outside 0..n-1")
        if np.any(edges[:, 0] == edges[:, 1]):
            raise DatasetError(
                "explicit self-edges are not allowed; use self_loop_weight"
            )
        lo = np.minimum(edges[:, 0], edges[:, 1])
        hi = np.maximum(edges[:, 0], edges[:, 1])
        canon = np.stack([lo, hi], axis=1)
        canon = canon[np.lexsort((canon[:, 1], canon[:, 0]))]
        keep = np.ones(canon.shape[0], dtype=bool)
        keep[1:] = np.any(canon[1:] != canon[:-1], axis=1)
        n_dup = int((~keep).sum())
        edges = canon[keep]
    else:
        edges = edges.reshape(0, 2)
        n_dup = 0

    return Dataset(
        n=n,
        edges=edges,
        features=features,
        s_labels=s_labels,
        t_labels=t_labels,
        self_loop_weight=float(self_loop_weight),
        s_names=tuple(s_names),
        t_names=tuple(t_names),
        n_duplicate_edges=n_dup,
    )


def _parse_edges_file(path: str) -> np.ndarray:
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            toks = body.split()
            if len(toks) != 2:
                raise DatasetError(f"{path}:{lineno}: expected two node ids")
            try:
                rows.append((int(toks[0]), int(toks[1])))
            except ValueError as exc:
                raise DatasetError(f"{path}:{lineno}: non-integer node id") from exc
    return np.asarray(rows, dtype=np.int64).reshape(-1, 2)


def _parse_labels_file(path: str, n: int):
    node_ids, s_raw, t_raw = [], [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            toks = line.split("\t")
            if len(toks) not in (2, 3):
                raise DatasetError(
                    f"{path}:{lineno}: expected 2 or 3 tab-separated fields"
                )
            try:
                node_ids.append(int(toks[0]))
            except ValueError as exc:
                raise DatasetError(f"{path}:{lineno}: non-integer node id") from exc
            s_raw.append(toks[1].strip())
            t_raw.append(toks[2].strip() if len(toks) == 3 else None)

    if len(node_ids) != n:
        raise DatasetError(f"{path}: {len(node_ids)} label rows for {n} nodes")
    seen = np.zeros(n, dtype=bool)
    for nid in node_ids:
        if not 0 <= nid < n:
            raise DatasetError(f"{path}: node id {nid} outside 0..{n - 1}")
        if seen[nid]:
            raise DatasetError(f"{path}: duplicate label row for node {nid}")
        seen[nid] = True

    has_t = [t is not None for t in t_raw]
    if any(has_t) and not all(has_t):
        raise DatasetError(f"{path}: subgroup column present on only some rows")

    def densify(raw):
        names: list[str] = []
        index: dict[str, int] = {}
        out = np.empty(n, dtype=np.int64)
        for nid, val in zip(node_ids, raw):
            if val not in index:
                index[val] = len(names)
                names.append(val)
            out[nid] = index[val]
        return out, tuple(names)

    s_labels, s_names = densify(s_raw)
    if all(has_t):
        t_labels, t_names = densify(t_raw)
    else:
        t_labels, t_names = None, ()
    return s_labels, s_names, t_labels, t_names


def load_dataset(
    edges_path: str,
    features_path: str,
    labels_path: str,
    self_loop_weight: float = 1.0,
) -> Dataset:
    """Load a dataset from an edge list, a feature CSV, and a label TSV.

    Parameters
    ----------
    edges_path : str
        Whitespace-separated integer pairs, one edge per line; ``#`` starts
        a comment.
    features_path : str
        Headerless CSV, one row per node; row count defines n.
    labels_path : str
        Tab-separated rows ``node_id <TAB> group [<TAB> subgroup]``.  Label
        strings are mapped to dense ids in first-seen order.  When present,
        the subgroup column must take exactly two distinct values.
    self_loop_weight : float
        Diagonal weight added to every adjacency built from the dataset.
    """
    for path in (edges_path, features_path, labels_path):
        if not os.path.exists(path):
            raise DatasetError(f"missing input file: {path}")

    try:
        features = np.loadtxt(features_path, delimiter=",", dtype=np.float64, ndmin=2)
    except ValueError as exc:
        raise DatasetError(f"{features_path}: {exc}") from exc
    n = features.shape[0]

    edges = _parse_edges_file(edges_path)
    s_labels, s_names, t_labels, t_names = _parse_labels_file(labels_path, n)
    return make_dataset(
        edges,
        features,
        s_labels,
        t_labels,
        self_loop_weight=self_loop_weight,
        s_names=s_names,
        t_names=t_names,
    )


@dataclass(frozen=True)
class NormalizationInfo:
    mode: str
    zero_sum_rows: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    constant_columns: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))

    @property
    def flagged(self) -> bool:
        return bool(self.zero_sum_rows.size or self.constant_columns.size)


def normalize_features(features: np.ndarray, mode: str):
    """Normalize a feature matrix; returns ``(features, NormalizationInfo)``.

    ``row_sum_one`` divides each row by its sum (zero-sum rows are left
    unchanged and flagged).  ``minmax_signed`` affinely maps each column
    onto [-1, 1] (constant columns map to 0 and are flagged).  ``none``
    returns the input untouched.  Both non-trivial modes are idempotent.
    """
    features = np.asarray(features, dtype=np.float64)
    if mode == "none":
        return features.copy(), NormalizationInfo(mode=mode)
    if mode == "row_sum_one":
        sums = features.sum(axis=1)
        zero = np.flatnonzero(sums == 0.0)
        safe = np.where(sums == 0.0, 1.0, sums)
        return features / safe[:, None], NormalizationInfo(mode, zero_sum_rows=zero)
    if mode == "minmax_signed":
        lo = features.min(axis=0)
        hi = features.max(axis=0)
        const = np.flatnonzero(hi == lo)
        span = np.where(hi == lo, 1.0, hi - lo)
        out = 2.0 * (features - lo) / span - 1.0
        out[:, const] = 0.0
        return out, NormalizationInfo(mode, constant_columns=const)
    raise ValueError(f"unknown normalization mode: {mode!r}")


@dataclass(frozen=True)
class WithinGroupView:
    """Within-group subgraph plus its refinement into connected components.

    Cross-group edges are removed; each label class then splits into the
    connected components of what remains ("refined groups").  Nodes with no
    within-group edge form singleton groups, flagged via ``singleton``.
    Degrees and volumes include the dataset's self-loop weight.
    """

    n: int
    self_loop_weight: float
    wg_edges: np.ndarray
    wg_degrees: np.ndarray
    group_of: np.ndarray
    groups: tuple[np.ndarray, ...]
    volumes: np.ndarray
    s_of_group: np.ndarray

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    @property
    def singleton(self) -> np.ndarray:
        return np.array([g.size == 1 for g in self.groups])

    @property
    def zero_volume(self) -> np.ndarray:
        return self.volumes == 0.0


def within_group_structure(dataset: Dataset) -> WithinGroupView:
    """Build the within-group view of a dataset.

    Refined groups are numbered by their smallest member node, so the
    result is independent of edge order.
    """
    s = dataset.s_labels
    edges = dataset.edges
    if edges.size:
        mask = s[edges[:, 0]] == s[edges[:, 1]]
        wg_edges = edges[mask]
    else:
        wg_edges = edges.reshape(0, 2)

    n = dataset.n
    counts = np.bincount(wg_edges.ravel(), minlength=n).astype(np.float64)
    wg_degrees = counts + dataset.self_loop_weight

    if wg_edges.size:
        data = np.ones(wg_edges.shape[0], dtype=np.int8)
        adj = sp.coo_matrix(
            (data, (wg_edges[:, 0], wg_edges[:, 1])), shape=(n, n)
        )
        n_comp, raw = connected_components(adj, directed=False)
    else:
        n_comp, raw = n, np.arange(n)

    # Relabel components in order of smallest member node.
    first = np.full(n_comp, n, dtype=np.int64)
    for node in range(n - 1, -1, -1):
        first[raw[node]] = node
    order = np.argsort(first, kind="stable")
    relabel = np.empty(n_comp, dtype=np.int64)
    relabel[order] = np.arange(n_comp)
    group_of = relabel[raw]

    groups = tuple(
        np.flatnonzero(group_of == g) for g in range(n_comp)
    )
    volumes = np.array([wg_degrees[g].sum() for g in groups])
    s_of_group = np.array([int(s[g[0]]) for g in groups], dtype=np.int64)

    return WithinGroupView(
        n=n,
        self_loop_weight=dataset.self_loop_weight,
        wg_edges=wg_edges,
        wg_degrees=wg_degrees,
        group_of=group_of,
        groups=groups,
        volumes=volumes,
        s_of_group=s_of_group,
    )
