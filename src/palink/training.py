"""Edge splitting, negative sampling, and the full-batch Adam training loop.

Message passing during training uses only the training positives; the
validation/test negatives are drawn once at split time, while training
negatives are resampled every epoch.  The returned model is the snapshot
with the best validation AUC.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .gcn import Model, _forward_cached, init_model, loss_and_gradients, score_pairs
from .graphdata import Dataset, WithinGroupView, within_group_structure
from .metrics import roc_auc
from .spectral import NormalizedMatrix, matrix_from_edges

DEFAULT_RATIOS = (0.85, 0.05, 0.10)


@dataclass(frozen=True)
class LinkSplit:
    train_pos: np.ndarray
    val_pos: np.ndarray
    test_pos: np.ndarray
    val_neg: np.ndarray
    test_neg: np.ndarray
    seed: int
    ratios: tuple[float, float, float]


def _pair_keys(pairs: np.ndarray, n: int) -> np.ndarray:
    lo = np.minimum(pairs[:, 0], pairs[:, 1]).astype(np.int64)
    hi = np.maximum(pairs[:, 0], pairs[:, 1]).astype(np.int64)
    return lo * n + hi


def sample_negatives(n: int, edges, count: int, rng, exclude=None) -> np.ndarray:
    """Sample ``count`` distinct non-adjacent unordered pairs uniformly.

    ``exclude`` removes further pairs from the candidate pool (e.g. the
    other split's negatives).  Raises if fewer than ``count`` candidates
    exist.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    banned = _pair_keys(edges, n)
    if exclude is not None:
        exclude = np.asarray(exclude, dtype=np.int64).reshape(-1, 2)
        banned = np.concatenate([banned, _pair_keys(exclude, n)])
    banned = np.unique(banned)

    total = n * (n - 1) // 2
    available = total - banned.size
    if count > available:
        raise ValueError(
            f"requested {count} negatives but only {available} "
            "non-adjacent pairs remain"
        )
    if count == 0:
        return np.zeros((0, 2), dtype=np.int64)

    # Dense enumeration when the pool is tight or the graph is small.
    if n <= 2048 and (available < 4 * count or total <= 50_000):
        mask = np.triu(np.ones((n, n), dtype=bool), k=1)
        mask.flat[banned[banned < n * n]] = False  # keys are lo*n+hi
        cand = np.argwhere(mask)
        idx = rng.choice(cand.shape[0], size=count, replace=False)
        return cand[np.sort(idx)].astype(np.int64)

    chosen = np.zeros(0, dtype=np.int64)
    for _ in range(1000):
        need = count - chosen.size
        if need <= 0:
            break
        batch = max(4 * need, 1024)
        u = rng.integers(0, n, size=batch, dtype=np.int64)
        v = rng.integers(0, n, size=batch, dtype=np.int64)
        ok = u != v
        u, v = u[ok], v[ok]
        keys = np.minimum(u, v) * n + np.maximum(u, v)
        keys = keys[~np.isin(keys, banned)]
        keys = np.unique(keys)
        keys = keys[~np.isin(keys, chosen)]
        rng.shuffle(keys)
        chosen = np.concatenate([chosen, keys[:need]])
    else:
        raise RuntimeError("negative sampling failed to converge")
    chosen = np.sort(chosen)
    return np.stack([chosen // n, chosen % n], axis=1)


def split_links(dataset: Dataset, ratios=DEFAULT_RATIOS, seed: int = 0) -> LinkSplit:
    """Permute edges into train/val/test positives and draw the fixed
    evaluation negatives (1:1 with positives, disjoint between val and
    test)."""
    ratios = tuple(float(r) for r in ratios)
    if len(ratios) != 3 or any(r <= 0 for r in ratios):
        raise ValueError("ratios must be three positive fractions")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError("ratios must sum to 1")
    m = dataset.m
    n_tr = int(m * ratios[0])
    n_val = int(m * ratios[1])
    n_te = m - n_tr - n_val
    if min(n_tr, n_val, n_te) < 1:
        raise ValueError(
            f"split of {m} edges at {ratios} leaves an empty part"
        )
    rng = np.random.default_rng(seed)
    perm = rng.permutation(m)
    train_pos = dataset.edges[perm[:n_tr]]
    val_pos = dataset.edges[perm[n_tr : n_tr + n_val]]
    test_pos = dataset.edges[perm[n_tr + n_val :]]
    val_neg = sample_negatives(dataset.n, dataset.edges, n_val, rng)
    test_neg = sample_negatives(dataset.n, dataset.edges, n_te, rng,
                                exclude=val_neg)
    return LinkSplit(
        train_pos=train_pos, val_pos=val_pos, test_pos=test_pos,
        val_neg=val_neg, test_neg=test_neg, seed=seed, ratios=ratios,
    )


@dataclass(frozen=True)
class TrainConfig:
    filter_kind: str = "symmetric"
    hidden_dims: tuple[int, ...] = (128, 64)
    epochs: int = 100
    lr: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    lambda_fair: float = 0.0
    seed: int = 0


@dataclass
class TrainResult:
    model: Model
    best_epoch: int
    best_val_auc: float
    history: list[tuple[int, float, float, float]]
    train_nm: NormalizedMatrix
    train_view: WithinGroupView
    final_model: Model


def train(dataset: Dataset, split: LinkSplit, config: TrainConfig) -> TrainResult:
    """Full-batch Adam on BCE plus the subgroup-gap penalty.

    One optimizer step per epoch; training negatives are resampled each
    epoch (1:1 with training positives) while validation pairs stay fixed.
    Identical dataset, split, and config give bitwise-identical results.
    """
    if config.epochs < 1:
        raise ValueError("epochs must be >= 1")
    if config.lambda_fair != 0.0 and dataset.t_labels is None:
        raise ValueError("lambda_fair > 0 requires subgroup labels")

    features = dataset.features
    train_ds = replace(dataset, edges=np.ascontiguousarray(split.train_pos))
    view = within_group_structure(train_ds)
    nm = matrix_from_edges(
        dataset.n, split.train_pos, dataset.self_loop_weight, config.filter_kind
    )
    model = init_model(
        dataset.feature_dim, config.hidden_dims, config.filter_kind, config.seed
    )
    px = nm.matrix @ features

    neg_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 1]))
    adam_m = [np.zeros_like(w) for w in model.weights]
    adam_v = [np.zeros_like(w) for w in model.weights]

    val_pairs = np.concatenate([split.val_pos, split.val_neg], axis=0)
    val_labels = np.zeros(val_pairs.shape[0])
    val_labels[: split.val_pos.shape[0]] = 1.0

    history: list[tuple[int, float, float, float]] = []
    best_auc = -np.inf
    best_epoch = 0
    best_weights = [w.copy() for w in model.weights]

    n_train = split.train_pos.shape[0]
    for epoch in range(1, config.epochs + 1):
        neg = sample_negatives(dataset.n, dataset.edges, n_train, neg_rng)
        loss, _, penalty, grads = loss_and_gradients(
            model, nm, features, split.train_pos, neg,
            lambda_fair=config.lambda_fair,
            group_of=view.group_of, t_labels=dataset.t_labels, px=px,
        )
        for w, g, m_buf, v_buf in zip(model.weights, grads, adam_m, adam_v):
            m_buf *= config.beta1
            m_buf += (1.0 - config.beta1) * g
            v_buf *= config.beta2
            v_buf += (1.0 - config.beta2) * g * g
            m_hat = m_buf / (1.0 - config.beta1**epoch)
            v_hat = v_buf / (1.0 - config.beta2**epoch)
            w -= config.lr * m_hat / (np.sqrt(v_hat) + config.eps)

        h = _forward_cached(model, nm, features, px=px)[0]
        val_auc = roc_auc(score_pairs(h, val_pairs), val_labels).value
        history.append((epoch, float(loss), float(penalty), float(val_auc)))
        if val_auc > best_auc:
            best_auc = val_auc
            best_epoch = epoch
            best_weights = [w.copy() for w in model.weights]

    best_model = Model(config.filter_kind, best_weights)
    return TrainResult(
        model=best_model,
        best_epoch=best_epoch,
        best_val_auc=float(best_auc),
        history=history,
        train_nm=nm,
        train_view=view,
        final_model=model,
    )


CHECKPOINT_VERSION = 1


def save_checkpoint(path: str, model: Model, seed: int, config_echo: dict):
    """Versioned npz container: dims, filter kind, float64 weights, seed,
    and a JSON echo of the run config."""
    payload = {
        "format_version": np.int64(CHECKPOINT_VERSION),
        "filter_kind": np.str_(model.filter_kind),
        "n_layers": np.int64(model.n_layers),
        "seed": np.int64(seed),
        "config_json": np.str_(json.dumps(config_echo, sort_keys=True)),
    }
    for i, w in enumerate(model.weights):
        payload[f"W{i}"] = w.astype(np.float64)
    np.savez(path, **payload)


def load_checkpoint(path: str):
    """Returns (Model, meta dict with seed and config echo)."""
    with np.load(path, allow_pickle=False) as data:
        version = int(data["format_version"])
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        n_layers = int(data["n_layers"])
        weights = [np.array(data[f"W{i}"]) for i in range(n_layers)]
        meta = {
            "seed": int(data["seed"]),
            "config": json.loads(str(data["config_json"])),
        }
        model = Model(str(data["filter_kind"]), weights)
    return model, meta
