"""Graph dataset loading, validation, and within-group structure.

A dataset couples an undirected simple graph with node features, a group
label per node, and (optionally) a binary subgroup label per node.  The
within-group view keeps only edges whose endpoints share a group label and
refines each label class into its connected components.
"""
from __future__ import annotations

import itertools
import os
import re
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components


class DatasetError(ValueError):
    """Raised when input files or arrays violate the dataset contract."""

    _edge_row: int | None = None  # the edge row ``make_dataset`` rejected


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
    n_duplicate_edges: int = 0

    @property
    def m(self) -> int:
        return int(self.edges.shape[0])

    @property
    def feature_dim(self) -> int:
        return int(self.features.shape[1])


def make_dataset(
    edges,
    features,
    s_labels,
    t_labels=None,
    self_loop_weight: float = 1.0,
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
    bad = _bad_edge(edges, n)
    if bad is not None:
        raise bad
    keys = _pair_keys(edges, n)

    return Dataset(
        n=n,
        edges=_key_pairs(keys, n),
        features=features,
        s_labels=s_labels,
        t_labels=t_labels,
        self_loop_weight=float(self_loop_weight),
        n_duplicate_edges=edges.shape[0] - keys.size,
    )


def _pair_keys(pairs, n: int) -> np.ndarray:
    """Sorted distinct keys of unordered pairs of distinct nodes in [0, n):
    ``{i, j}``, ``i < j``, is its index in the row-major upper triangle, so
    sorted keys are lexicographically sorted pairs.  (A sort: NumPy 2's
    hashing ``np.unique`` is far slower.)"""
    a, b = np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T
    i, j = np.minimum(a, b), np.maximum(a, b)
    keys = np.sort(_row_start(i, n) + j - i - 1)
    return keys[np.diff(keys, prepend=-1) > 0]


def _row_start(i, n: int):
    """The key of pair ``(i, i + 1)``: where row ``i`` of the triangle
    starts."""
    return i * (2 * n - i - 1) // 2


def _key_pairs(keys, n: int) -> np.ndarray:
    """The ``(k, 2)`` pairs ``i < j`` of upper-triangle keys, in key order."""
    starts = _row_start(np.arange(n - 1, dtype=np.int64), n)
    i = np.searchsorted(starts, keys, side="right") - 1
    return np.stack([i, keys - starts[i] + i + 1], axis=1)


def _bad_edge(edges: np.ndarray, n: int) -> DatasetError | None:
    """The error for the first row of ``edges`` that is not two distinct
    nodes in 0..n-1, carrying the row's index; None if there is none."""
    outside = (edges < 0) | (edges >= n)
    # column by column: ``any(axis=1)`` over two columns is 5x slower
    rows = np.flatnonzero(outside[:, 0] | outside[:, 1]
                          | (edges[:, 0] == edges[:, 1]))
    if not rows.size:
        return None
    row = int(rows[0])
    exc = DatasetError(
        f"edge endpoint outside 0..{n - 1}" if outside[row].any()
        else "explicit self-edges are not allowed; use self_loop_weight")
    exc._edge_row = row
    return exc


def _first_seen(ids: np.ndarray, k: int) -> np.ndarray:
    """``ids``, each in ``0..k-1`` and each of those present, renumbered
    ``0..k-1`` in order of first appearance: O(n), with no sort of ``ids``."""
    first = np.full(k, ids.size, dtype=np.int64)
    np.minimum.at(first, ids, np.arange(ids.size))
    relabel = np.empty(k, dtype=np.int64)
    relabel[np.argsort(first)] = np.arange(k)
    return relabel[ids]


def _loadtxt(source, **kwargs) -> np.ndarray:
    """``np.loadtxt(source, ndmin=2, **kwargs)``; a source with no data
    rows gives an empty array, without ``loadtxt``'s warning.  A value read
    with a DeprecationWarning raises ValueError: NumPy 1.23 on reads ``1.0``
    as int 1 and warns, unseen outside ``__main__``."""
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore", message="loadtxt: input contained no data")
        warnings.simplefilter("error", DeprecationWarning)
        try:
            return np.loadtxt(source, ndmin=2, **kwargs)
        except DeprecationWarning as exc:
            raise ValueError(str(exc)) from exc


def _read(tokens: list[str], dtype) -> np.ndarray | None:
    """``tokens`` read as ``np.loadtxt`` reads ``dtype`` values, one per
    token, or None if some token is not one.  This is the number rule of
    the feature CSV and, at int64, the node-id rule of the edges and the
    labels: optional blanks, an optional sign, ASCII digits, inside int64."""
    try:
        # each token a line of its own, where loadtxt skips an empty one
        # and splits one at a comma
        values = _loadtxt(tokens, dtype=dtype, delimiter=",", comments=None)
    except ValueError:
        return None
    return values.ravel() if values.shape == (len(tokens), 1) else None


def _is_row(line: str) -> bool:
    """Whether a line of an input file is a row: in all three files, a
    line with only blanks before any ``#`` is none."""
    return line.lstrip()[:1] not in ("", "#")


def _lines(path: str) -> list[str]:
    """The lines of ``path`` as text mode splits them, each decoded as
    UTF-8 on its own, so that a byte that is not UTF-8 raises DatasetError
    naming its line (a comment line too).  The error paths' reader."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        lines = fh.readlines()
    for lineno, line in enumerate(lines, start=1):
        try:
            line.encode(errors="surrogateescape").decode()
        except UnicodeDecodeError as exc:
            raise DatasetError(f"{path}:{lineno}: {exc}") from None
    return lines


def _rows(path: str, sep: str | None = None):
    """``(line number, tokens)`` of each row of an edge list or feature
    CSV (see ``_lines``), cut at its ``#`` and split at ``sep``
    (whitespace if None)."""
    for lineno, line in enumerate(_lines(path), start=1):
        if _is_row(line):
            yield lineno, line.split("#", 1)[0].rstrip("\n").split(sep)


def _bad_line(path: str, sep, width, dtype, noun: str, what: str):
    """``path:line: ...`` for the first row of ``path`` (see ``_rows``)
    that does not hold ``width`` tokens (the first row's count if None)
    or that holds a token ``_read`` rejects as ``dtype``; None if there is
    none.  One read per row, then one per token of the row that fails."""
    for lineno, toks in _rows(path, sep):
        width = width or len(toks)
        if len(toks) != width:
            return f"{path}:{lineno}: expected {width} {noun}, got {len(toks)}"
        if _read(toks, dtype) is None:
            tok = next(t for t in toks if _read([t], dtype) is None)
            if re.fullmatch(r"[+-]?[0-9]+", tok):  # an integer past int64
                return f"{path}:{lineno}: node id {tok} is outside int64"
            return f"{path}:{lineno}: {tok!r} is not {what}"
    return None


def _parse_labels_file(path: str, n: int):
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError:  # which names no line
        lines = _lines(path)  # raises DatasetError naming the line
    numbers = [i for i, line in enumerate(lines, start=1) if _is_row(line)]
    rows = [lines[i - 1].split("\t") for i in numbers]
    widths = {len(toks) for toks in rows}
    node_ids = _read([toks[0] for toks in rows], np.int64)
    if node_ids is None or not widths <= {2, 3}:  # name the first bad line
        for lineno, toks in zip(numbers, rows):
            if len(toks) not in (2, 3):
                raise DatasetError(f"{path}:{lineno}: expected 2 or 3 "
                                   "tab-separated fields")
            if _read(toks[:1], np.int64) is None:
                raise DatasetError(f"{path}:{lineno}: non-integer node id")

    if len(rows) != n:
        raise DatasetError(f"{path}: {len(rows)} label rows for {n} nodes")
    seen = bytearray(n)
    for lineno, nid in zip(numbers, node_ids.tolist()):
        if not 0 <= nid < n:
            raise DatasetError(
                f"{path}:{lineno}: node id {nid} outside 0..{n - 1}")
        if seen[nid]:
            raise DatasetError(
                f"{path}:{lineno}: duplicate label row for node {nid}")
        seen[nid] = 1
    if widths == {2, 3}:
        raise DatasetError(f"{path}: subgroup column present on only some rows")

    def densify(column):
        values, ids = np.unique([toks[column].strip() for toks in rows],
                                return_inverse=True)
        out = np.empty(n, dtype=np.int64)
        out[node_ids] = _first_seen(ids, values.size)
        return out

    t_labels = densify(2) if widths == {3} else None
    return densify(1), t_labels


def load_dataset(
    edges_path: str,
    features_path: str,
    labels_path: str,
    self_loop_weight: float = 1.0,
) -> Dataset:
    """Load a dataset from an edge list, a feature CSV, and a label TSV.

    ``edges_path`` holds whitespace-separated node-id pairs, one edge per
    line, ``#`` starting a comment; a malformed line, an endpoint outside
    0..n-1 or a self-edge raises naming ``path:line`` (an error in the
    features or labels raises first, except a malformed edge line).
    ``features_path`` is a headerless CSV, one row per node (the row count
    defines n).  ``labels_path`` holds tab-separated rows
    ``node_id <TAB> group [<TAB> subgroup]``; label strings map to dense ids
    in first-seen order, and a subgroup column takes exactly two values.
    Ids and numbers are read as ``np.loadtxt`` reads int64 and float64, and
    a line with only blanks before any ``#`` is no row.  Adjacencies built
    from the dataset carry ``self_loop_weight`` on their diagonal.
    """
    for path in (edges_path, features_path, labels_path):
        if not os.path.exists(path):
            raise DatasetError(f"missing input file: {path}")

    try:
        # loadtxt reads blanks as a row
        with open(features_path, encoding="utf-8") as fh:
            features = _loadtxt([line for line in fh if _is_row(line)],
                                delimiter=",", dtype=np.float64)
    except ValueError as exc:
        raise DatasetError(
            _bad_line(features_path, ",", None, np.float64, "values",
                      "a number") or f"{features_path}: {exc}") from exc
    if not features.size:
        raise DatasetError(f"{features_path}: no feature rows")
    n = features.shape[0]

    try:
        edges = _loadtxt(edges_path, dtype=np.int64, comments="#",
                         encoding="utf-8")
        if edges.size and edges.shape[1] != 2:
            raise ValueError("expected two node ids per line")
    except ValueError as exc:
        raise DatasetError(
            _bad_line(edges_path, None, 2, np.int64, "node ids",
                      "an integer node id") or f"{edges_path}: {exc}") from exc
    s_labels, t_labels = _parse_labels_file(labels_path, n)
    try:
        return make_dataset(edges, features, s_labels, t_labels,
                            self_loop_weight=self_loop_weight)
    except DatasetError as exc:
        if exc._edge_row is None:
            raise
        # make_dataset checks the edges; name the failing row's line
        rows = itertools.islice(_rows(edges_path), exc._edge_row, None)
        raise DatasetError(f"{edges_path}:{next(rows)[0]}: {exc}") from None


def normalize_features(features: np.ndarray, mode: str):
    """Normalize a feature matrix; returns ``(features, counts)``, where
    ``counts`` holds ``n_zero_sum_rows`` and ``n_constant_columns``.

    ``row_sum_one`` divides each row by its sum (zero-sum rows are left
    unchanged and counted).  ``minmax_signed`` affinely maps each column
    onto [-1, 1] (constant columns map to 0 and are counted).  ``none``
    returns the input untouched.  Both non-trivial modes are idempotent.
    """
    features = np.asarray(features, dtype=np.float64)
    counts = {"n_zero_sum_rows": 0, "n_constant_columns": 0}
    if mode == "none":
        return features.copy(), counts
    if mode == "row_sum_one":
        sums = features.sum(axis=1)
        counts["n_zero_sum_rows"] = int(np.count_nonzero(sums == 0.0))
        safe = np.where(sums == 0.0, 1.0, sums)
        return features / safe[:, None], counts
    if mode == "minmax_signed":
        lo = features.min(axis=0)
        hi = features.max(axis=0)
        const = np.flatnonzero(hi == lo)
        counts["n_constant_columns"] = int(const.size)
        span = np.where(hi == lo, 1.0, hi - lo)
        out = 2.0 * (features - lo) / span - 1.0
        out[:, const] = 0.0
        return out, counts
    raise ValueError(f"unknown normalization mode: {mode!r}")


@dataclass(frozen=True, eq=False)
class WithinGroupView:
    """Within-group subgraph plus its refinement into connected components.

    Cross-group edges are removed; each label class then splits into the
    connected components of what remains ("refined groups", singletons
    included).  Degrees and volumes include the dataset's self-loop weight.

    The refinement is stored once, CSR-style: ``order`` lists the nodes
    sorted by refined group (ascending within a group), and group ``g``'s
    nodes are ``order[offsets[g]:offsets[g + 1]]``.

    Compares and hashes by identity: ``spectral.block_spectrum`` memoizes
    its gaps per view object, assuming the arrays are never mutated in
    place.  Build a new view instead.
    """

    n: int
    self_loop_weight: float
    wg_edges: np.ndarray
    wg_degrees: np.ndarray
    group_of: np.ndarray
    order: np.ndarray
    offsets: np.ndarray
    volumes: np.ndarray

    @property
    def n_groups(self) -> int:
        return int(self.offsets.size) - 1


def within_group_structure(dataset: Dataset) -> WithinGroupView:
    """Build the within-group view of a dataset.

    Refined groups are numbered by their smallest member node, so the
    result is independent of edge order.  The nodes are sorted by group
    once; no step scans them once per group.
    """
    s = dataset.s_labels
    edges = dataset.edges
    wg_edges = edges[s[edges[:, 0]] == s[edges[:, 1]]]

    n = dataset.n
    counts = np.bincount(wg_edges.ravel(), minlength=n).astype(np.float64)
    wg_degrees = counts + dataset.self_loop_weight

    data = np.ones(wg_edges.shape[0], dtype=np.int8)
    adj = sp.coo_matrix((data, (wg_edges[:, 0], wg_edges[:, 1])), shape=(n, n))
    n_comp, raw = connected_components(adj, directed=False)

    group_of = _first_seen(raw, n_comp)  # numbered by smallest member node

    order = np.argsort(group_of, kind="stable")
    offsets = np.zeros(n_comp + 1, dtype=np.int64)
    np.cumsum(np.bincount(group_of, minlength=n_comp), out=offsets[1:])

    return WithinGroupView(
        n=n,
        self_loop_weight=dataset.self_loop_weight,
        wg_edges=wg_edges,
        wg_degrees=wg_degrees,
        group_of=group_of,
        order=order,
        offsets=offsets,
        volumes=np.bincount(group_of, weights=wg_degrees, minlength=n_comp),
    )
