"""Synthetic planted-partition datasets with controllable subgroup degree
disparity, written in the package's on-disk formats.

Groups are contiguous index blocks.  Within each group a chosen fraction
of nodes forms subgroup "a" and receives extra intra-group edges, planting
the degree gap the fairness machinery is meant to detect.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields

import numpy as np

from .graphdata import _key_pairs, _pair_keys

# Pair keys whose Bernoulli uniforms are drawn per call: 32 MiB of float64.
_PAIR_CHUNK = 1 << 22


@dataclass(frozen=True)
class SynthConfig:
    """Generator settings.  ``t1_fraction`` and ``disparity_boost`` take
    one value per group or one for every group, and are stored as per-group
    tuples of floats."""

    sizes: tuple[int, ...] = (200, 200, 200)
    p_in: float = 0.15
    p_out: float = 0.005
    t1_fraction: float | tuple[float, ...] = 0.3
    disparity_boost: float | tuple[float, ...] = 0.0
    feature_dim: int = 16
    feature_separation: float = 1.0
    feature_noise: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not self.sizes or any(s < 2 for s in self.sizes):
            raise ValueError("every group size must be >= 2")
        if not 0.0 <= self.p_out <= self.p_in <= 1.0:
            raise ValueError("need 0 <= p_out <= p_in <= 1")
        for name in ("t1_fraction", "disparity_boost"):
            value = getattr(self, name)
            value = tuple(float(v) for v in (
                [value] * len(self.sizes) if np.isscalar(value) else value))
            if len(value) != len(self.sizes):
                raise ValueError("per-group value length must match sizes")
            object.__setattr__(self, name, value)
        for f in self.t1_fraction:
            if not 0.0 < f < 1.0:
                raise ValueError("subgroup fractions must lie in (0, 1)")
        for b in self.disparity_boost:
            if b < 0:
                raise ValueError("disparity boost must be >= 0")
        if self.feature_dim < 1:
            raise ValueError("feature_dim must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    @property
    def n(self) -> int:
        return int(sum(self.sizes))

    def to_dict(self) -> dict:
        """The JSON layout: the fields by name, tuples as lists."""
        return {f.name: list(v) if isinstance(v := getattr(self, f.name), tuple)
                else v for f in fields(self)}


def synth_generate(config: SynthConfig, out_dir: str) -> dict[str, str]:
    """Generate a dataset and write edges.txt, features.csv, labels.tsv,
    and meta.json into ``out_dir``.  Same config, same bytes.

    Returns the mapping of file roles to paths.
    """
    rng = np.random.default_rng(config.seed)
    n = config.n
    sizes = np.array(config.sizes, dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    group_of = np.repeat(np.arange(sizes.size), sizes)

    # Planted-partition edges: one Bernoulli draw per pair in key order, a
    # chunk at a time; only the candidates u < p_in (p_out <= p_in) can hit.
    edge_list = []
    n_keys = n * (n - 1) // 2
    for start in range(0, n_keys, _PAIR_CHUNK):
        u = rng.random(min(_PAIR_CHUNK, n_keys - start))
        cand = np.flatnonzero(u < config.p_in)
        pairs = _key_pairs(start + cand, n)
        same = group_of[pairs[:, 0]] == group_of[pairs[:, 1]]
        edge_list.append(pairs[same | (u[cand] < config.p_out)])

    # Subgroup assignment: per group, round(fraction * size) nodes (at
    # least one) join subgroup "a".
    t_is_a = np.zeros(n, dtype=bool)
    for g, size in enumerate(sizes):
        nodes = np.arange(offsets[g], offsets[g + 1])
        k = max(1, int(round(config.t1_fraction[g] * size)))
        k = min(k, size - 1)  # keep both subgroups non-empty
        chosen = rng.choice(nodes, size=k, replace=False)
        t_is_a[chosen] = True
        # Degree disparity: extra intra-group partners for each "a" node.
        extra = int(round(config.disparity_boost[g]))
        if extra > 0:
            for node in np.sort(chosen):
                pos = rng.choice(size - 1, size=min(extra, size - 1),
                                 replace=False)
                partners = offsets[g] + pos + (pos >= node - offsets[g])
                edge_list.append(np.stack(
                    [np.full_like(partners, node), partners], axis=1))

    edges = _key_pairs(_pair_keys(np.concatenate(edge_list), n), n)

    # Gaussian features with group-dependent means.
    means = np.zeros((sizes.size, config.feature_dim))
    for g in range(sizes.size):
        means[g, g % config.feature_dim] = config.feature_separation
    features = rng.normal(loc=means[group_of], scale=config.feature_noise,
                          size=(n, config.feature_dim))

    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "edges": os.path.join(out_dir, "edges.txt"),
        "features": os.path.join(out_dir, "features.csv"),
        "labels": os.path.join(out_dir, "labels.tsv"),
        "meta": os.path.join(out_dir, "meta.json"),
    }
    with open(paths["edges"], "w", encoding="utf-8") as fh:
        fh.write("# u v\n")
        for block in np.array_split(edges, max(1, edges.shape[0] >> 16)):
            fh.writelines(f"{u} {v}\n" for u, v in zip(*block.T.tolist()))
    np.savetxt(paths["features"], features, delimiter=",", fmt="%.10g")
    with open(paths["labels"], "w", encoding="utf-8") as fh:
        for i in range(n):
            fh.write(f"{i}\tg{group_of[i]}\t{'a' if t_is_a[i] else 'b'}\n")
    with open(paths["meta"], "w", encoding="utf-8") as fh:
        json.dump({"config": config.to_dict(), "n": n,
                   "m": int(edges.shape[0])}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return paths
