"""Edge splitting, negative sampling, and the full-batch Adam training loop.

Message passing during training uses only the training positives; the
validation/test negatives are drawn once at split time, while training
negatives are resampled every epoch from the pairs that are neither a
training positive nor a validation/test negative.  The returned model is
the snapshot with the best validation AUC.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .gcn import (Model, PairState, _forward_cached, init_model,
                  loss_and_gradients, score_pairs)
from .graphdata import (Dataset, WithinGroupView, _key_pairs, _pair_keys,
                        within_group_structure)
from .metrics import roc_auc
from .spectral import NormalizedMatrix, matrix_from_edges

DEFAULT_RATIOS = (0.85, 0.05, 0.10)
# Adam's decay rates of the first and second moments, and its step guard.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class LinkSplit:
    train_pos: np.ndarray
    val_pos: np.ndarray
    test_pos: np.ndarray
    val_neg: np.ndarray
    test_neg: np.ndarray


class NegativeSampler:
    """Uniform draws of distinct free pairs: unordered pairs of two
    distinct nodes in [0, n) that are neither in ``edges`` nor in
    ``exclude``.

    The banned pairs are keyed, sorted and deduplicated once, here, so
    repeated draws from one banned set (a training run's epochs) do not
    rebuild them.  Each draw takes ``count`` distinct ranks among the free
    pairs (one ``rng.choice`` without replacement) and maps each to its
    upper-triangle key: exact at any ``n``, with memory linear in
    ``count``, ``n`` and the banned pairs (no n x n mask).
    """

    def __init__(self, n: int, edges, exclude=None):
        pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if exclude is not None:
            exclude = np.asarray(exclude, dtype=np.int64).reshape(-1, 2)
            pairs = np.concatenate([pairs, exclude])
        if pairs.size and (pairs.min() < 0 or pairs.max() >= n
                           or np.any(pairs[:, 0] == pairs[:, 1])):
            raise ValueError(
                "banned pairs must join two distinct nodes in [0, n)")
        banned = _pair_keys(pairs, n)
        self._n = n
        self.available = n * (n - 1) // 2 - banned.size
        # banned[k] - k free pairs precede banned[k], so the free pair of
        # rank r has key r plus the number of k with banned[k] - k <= r.
        self._shift = banned - np.arange(banned.size)

    def draw(self, count: int, rng) -> np.ndarray:
        """``count`` distinct free pairs as an ``(count, 2)`` array of
        ``i < j``, sorted; raises if fewer than ``count`` are free."""
        if count < 0:
            raise ValueError("count must be >= 0")
        if count > self.available:
            raise ValueError(
                f"requested {count} negatives but only {self.available} "
                "non-adjacent pairs remain"
            )
        ranks = np.sort(rng.choice(self.available, size=count, replace=False))
        keys = ranks + np.searchsorted(self._shift, ranks, side="right")
        return _key_pairs(keys, self._n)


def sample_negatives(n: int, edges, count: int, rng, exclude=None) -> np.ndarray:
    """Sample ``count`` distinct non-adjacent unordered pairs uniformly:
    one draw of a ``NegativeSampler`` over ``edges`` and ``exclude`` (e.g.
    the other split's negatives).  Raises if fewer than ``count`` exist."""
    return NegativeSampler(n, edges, exclude).draw(count, rng)


def split_links(dataset: Dataset, ratios=DEFAULT_RATIOS, seed: int = 0) -> LinkSplit:
    """Permute edges into train/val/test positives and draw the fixed
    evaluation negatives (1:1 with positives, disjoint between val and
    test).  ``train_pos`` keeps the sorted edge order, so training walks
    the representations row by row.  ``ratios`` must be three positive
    fractions summing to 1."""
    ratios = tuple(float(r) for r in ratios)
    if len(ratios) != 3 or not all(r > 0 for r in ratios):
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
    train_pos = dataset.edges[np.sort(perm[:n_tr])]
    val_pos = dataset.edges[perm[n_tr : n_tr + n_val]]
    test_pos = dataset.edges[perm[n_tr + n_val :]]
    val_neg = sample_negatives(dataset.n, dataset.edges, n_val, rng)
    test_neg = sample_negatives(dataset.n, dataset.edges, n_te, rng,
                                exclude=val_neg)
    return LinkSplit(
        train_pos=train_pos, val_pos=val_pos, test_pos=test_pos,
        val_neg=val_neg, test_neg=test_neg,
    )


@dataclass(frozen=True)
class TrainConfig:
    """One training's settings; a negative or NaN ``lr`` or ``lambda_fair``,
    ``epochs < 1`` and ``seed < 0`` raise here."""

    filter_kind: str = "symmetric"
    hidden_dims: tuple[int, ...] = (128, 64)
    epochs: int = 100
    lr: float = 0.01
    lambda_fair: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not self.lr >= 0:
            raise ValueError("lr must be >= 0")
        if not self.lambda_fair >= 0:
            raise ValueError("lambda_fair must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class TrainResult:
    model: Model
    best_epoch: int
    best_val_auc: float
    history: list[tuple[int, float, float, float]]
    train_nm: NormalizedMatrix
    train_view: WithinGroupView


@np.errstate(over="ignore", invalid="ignore")
def train(dataset: Dataset, split: LinkSplit, config: TrainConfig) -> TrainResult:
    """Full-batch Adam on BCE plus the subgroup-gap penalty.

    One optimizer step per epoch; training negatives are resampled each
    epoch (1:1 with training positives), from one ``NegativeSampler`` built
    per run, while validation pairs stay fixed.  One ``PairState`` holds
    the epoch's pairs, pair matrix and the dense arrays of the forward,
    loss and backward (the gather buffers among them) for the whole run.
    A training negative is never a training positive or a frozen
    validation/test negative, so no held-out pair is trained on as a
    negative.  Validation/test positives stay drawable: the trainer does
    not know them, as in PyG's ``negative_sampling(train_edge_index)``.
    Identical dataset, split, and config give bitwise-identical results.
    The forward pass that scores the validation pairs after each step is
    the one the next epoch's loss starts from, so each epoch runs one
    forward pass.  A non-finite loss or weight raises ``ValueError`` naming
    the epoch, so NumPy's overflow and invalid-value warnings are not shown.
    The epochs run in float32, from one cast of the features and operator
    here; the weights and Adam's moments are float64, and so are the
    returned model and ``train_nm``.
    """
    if config.lambda_fair != 0.0 and dataset.t_labels is None:
        raise ValueError("lambda_fair > 0 requires subgroup labels")

    train_ds = replace(dataset, edges=np.ascontiguousarray(split.train_pos))
    view = within_group_structure(train_ds)
    nm = matrix_from_edges(
        dataset.n, split.train_pos, dataset.self_loop_weight, config.filter_kind
    )
    model = init_model(
        dataset.feature_dim, config.hidden_dims, config.filter_kind, config.seed
    )
    # The epochs run in float32: every array of the forward, loss and
    # backward takes the dtype of these two, at half float64's bytes.  The
    # weights, Adam's moments, the returned model and operator stay float64.
    features = dataset.features.astype(np.float32)
    nm32 = replace(nm, matrix=nm.matrix.astype(np.float32))
    px = nm32.matrix @ features

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
    sampler = NegativeSampler(
        dataset.n, split.train_pos,
        exclude=np.concatenate([split.val_neg, split.test_neg]))
    pair_state = PairState(split.train_pos, n_train, nm32, features.dtype)
    # The forward before the first step makes arrays of its own, and the
    # epochs' forwards write into the state's.  Freeing the first ones
    # raises glibc's adaptive mmap threshold past the n-row arrays, so the
    # sparse products' per-epoch outputs are reused from the heap instead
    # of being unmapped and faulted in again every epoch: about 11k rather
    # than 37k minor faults in a 20-epoch n=3000 training.
    cache = _forward_cached(model, nm32, features, px=px)
    for epoch in range(1, config.epochs + 1):
        neg = sampler.draw(n_train, neg_rng)
        loss, _, penalty, grads = loss_and_gradients(
            model, nm32, features, split.train_pos, neg,
            lambda_fair=config.lambda_fair,
            group_of=view.group_of, t_labels=dataset.t_labels,
            forward_cache=cache, pair_state=pair_state,
        )
        if not np.isfinite(loss):
            raise ValueError(f"epoch {epoch}: training loss is {loss}")
        for w, g, m_buf, v_buf in zip(model.weights, grads, adam_m, adam_v):
            m_buf *= ADAM_BETA1
            m_buf += (1.0 - ADAM_BETA1) * g
            v_buf *= ADAM_BETA2
            v_buf += (1.0 - ADAM_BETA2) * g * g
            m_hat = m_buf / (1.0 - ADAM_BETA1**epoch)
            v_hat = v_buf / (1.0 - ADAM_BETA2**epoch)
            w -= config.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        for l, w in enumerate(model.weights, start=1):
            if not np.isfinite(w).all():
                raise ValueError(
                    f"epoch {epoch}: weight W_{l} is no longer finite"
                )

        cache = _forward_cached(model, nm32, features, px=px,
                                arrays=pair_state.arrays)
        val_auc = roc_auc(score_pairs(cache[0], val_pairs, pair_state.arrays),
                          val_labels).value
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
