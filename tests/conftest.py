"""Shared fixtures: small hand-checked graphs and random planted-partition
dataset builders used across the suite."""
from __future__ import annotations

import numpy as np
import pytest

from palink.graphdata import Dataset, make_dataset


@pytest.fixture
def toy_cs() -> Dataset:
    """Six nodes: a 5-node collaboration group (one hub) plus an isolated
    member of a second group.  Self-loop weight 0 keeps degrees integral.

    Within-group degrees of group 0: node 3 has 3, node 1 has 2, nodes
    0/2/4 have 1.  Subgroup 0 = {3, 5}, subgroup 1 = {0, 1, 2, 4}.
    """
    edges = [(0, 3), (2, 3), (1, 3), (1, 4)]
    features = np.eye(6, 3, dtype=float) + 0.5
    s = [0, 0, 0, 0, 0, 1]
    t = [1, 1, 1, 0, 1, 0]
    return make_dataset(edges, features, s, t, self_loop_weight=0.0)


def complete_graph(k: int, self_loop_weight: float = 0.0,
                   features: np.ndarray | None = None) -> Dataset:
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    if features is None:
        features = np.ones((k, 2))
    return make_dataset(edges, features, [0] * k,
                        self_loop_weight=self_loop_weight)


def star_graph(k: int, self_loop_weight: float = 0.0) -> Dataset:
    """Node 0 joined to nodes 1..k-1, all in one group."""
    edges = [(0, i) for i in range(1, k)]
    return make_dataset(edges, np.ones((k, 2)), [0] * k,
                        self_loop_weight=self_loop_weight)


def complete_bipartite_graph(a: int, b: int,
                             self_loop_weight: float = 0.0) -> Dataset:
    """Nodes 0..a-1 each joined to nodes a..a+b-1, all in one group."""
    edges = [(i, j) for i in range(a) for j in range(a, a + b)]
    return make_dataset(edges, np.ones((a + b, 2)), [0] * (a + b),
                        self_loop_weight=self_loop_weight)


@pytest.fixture
def k3() -> Dataset:
    return complete_graph(3)


@pytest.fixture
def k4() -> Dataset:
    return complete_graph(4)


@pytest.fixture
def c4() -> Dataset:
    """4-cycle: bipartite, spectral gap 1."""
    edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
    return make_dataset(edges, np.ones((4, 2)), [0] * 4, self_loop_weight=0.0)


def random_planted_dataset(
    rng: np.random.Generator,
    n_max: int = 40,
    b_max: int = 3,
    p_in_range=(0.5, 0.95),
    p_out_range=(0.0, 0.25),
    weights=(0.0, 1.0, 2.0),
    feature_dim: int = 3,
    with_subgroups: bool = False,
) -> Dataset:
    """Random planted-partition dataset: dense blocks, sparse cross edges,
    random self-loop weight."""
    b = int(rng.integers(1, b_max + 1))
    sizes = rng.integers(2, max(3, n_max // b + 1), size=b)
    while sizes.sum() > n_max:
        sizes = rng.integers(2, max(3, n_max // b + 1), size=b)
    n = int(sizes.sum())
    group_of = np.repeat(np.arange(b), sizes)
    p_in = rng.uniform(*p_in_range)
    p_out = rng.uniform(*p_out_range)

    iu, ju = np.triu_indices(n, k=1)
    prob = np.where(group_of[iu] == group_of[ju], p_in, p_out)
    hit = rng.random(iu.size) < prob
    edges = np.stack([iu[hit], ju[hit]], axis=1)

    features = rng.normal(size=(n, feature_dim))
    t = rng.integers(0, 2, size=n) if with_subgroups else None
    if t is not None and (t.min() == t.max()):
        t[0] = 1 - t[0]
    w = float(rng.choice(weights))
    return make_dataset(edges, features, group_of, t, self_loop_weight=w)
