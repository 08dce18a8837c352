"""Graph convolutional encoder for link prediction, from first principles.

Layers compute H_l = act(P @ H_{l-1} @ W_l^T) with ReLU inside and identity
at the top; no biases; a narrowing layer transforms before it propagates
(``_transforms_first``).  Link scores are inner products of the final
representations.  Gradients are exact reverse-mode derivatives of the
binary cross-entropy plus the subgroup-gap penalty, written out by hand so
they can be checked against finite differences.

Pair scores are computed in fixed blocks of rows through two reusable
buffers, and the gradient with respect to the final representations is one
sparse pair-matrix product, so a training step never gathers a
``pairs x dim`` array.  ``loss_and_gradients`` takes an optional forward
cache, the ``_forward_cached`` triple, which must have been computed at the
model's current weights; training passes the forward it already ran for
validation after the previous step.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse
from scipy.special import expit

from .fairness import regularizer_term, sampled_delta_terms
from .spectral import KINDS, NormalizedMatrix

# Rows per block in ``score_pairs``: the two gather buffers stay small
# enough to be reused without fresh page faults.
_PAIR_BLOCK = 1024


@dataclass
class Model:
    filter_kind: str
    weights: list[np.ndarray]  # each (out_dim, in_dim)

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def feature_dim(self) -> int:
        return int(self.weights[0].shape[1])


def init_model(
    feature_dim: int,
    hidden_dims,
    filter_kind: str = "symmetric",
    seed: int = 0,
) -> Model:
    """Glorot-uniform initialized weights; same seed, same weights."""
    if filter_kind not in KINDS:
        raise ValueError(f"filter_kind must be one of {KINDS}")
    hidden_dims = tuple(int(d) for d in hidden_dims)
    if not hidden_dims:
        raise ValueError("at least one layer is required")
    if feature_dim < 1 or any(d < 1 for d in hidden_dims):
        raise ValueError("layer dimensions must be >= 1")
    rng = np.random.default_rng(seed)
    weights = []
    fan_in = feature_dim
    for fan_out in hidden_dims:
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        fan_in = fan_out
    return Model(filter_kind=filter_kind, weights=weights)


def _check_compat(model: Model, nm: NormalizedMatrix, features: np.ndarray):
    if nm.kind != model.filter_kind:
        raise ValueError(
            f"operator kind {nm.kind!r} does not match model {model.filter_kind!r}"
        )
    if features.shape[1] != model.feature_dim:
        raise ValueError(
            f"feature dim {features.shape[1]} does not match model "
            f"{model.feature_dim}"
        )
    if features.shape[0] != nm.matrix.shape[0]:
        raise ValueError("feature rows must match operator size")


def _transforms_first(l: int, w: np.ndarray) -> bool:
    """Whether layer ``l`` computes ``P @ (H W^T)``: when W narrows it, so
    ``P`` acts on ``min(in, out)`` columns.  Layer 0's ``P @ X`` is
    constant, so it always propagates first."""
    return l > 0 and w.shape[0] < w.shape[1]


def _forward_cached(model: Model, nm: NormalizedMatrix, features, px=None,
                    linear: bool = False):
    """Forward pass keeping what each W_l multiplies (``P @ H_{l-1}``, or
    ``H_{l-1}`` if ``_transforms_first``) and the pre-activations.

    ``px`` optionally supplies a precomputed P @ features for the first
    layer (it is constant across epochs); ``linear=True`` forces identity
    activations at every layer.
    """
    features = np.asarray(features, dtype=np.float64)
    _check_compat(model, nm, features)
    h = features
    inputs = []  # what W_l multiplies
    pre = []  # Z_l
    L = model.n_layers
    for l, w in enumerate(model.weights):
        if _transforms_first(l, w):
            inputs.append(h)
            z = nm.matrix @ (h @ w.T)
        else:
            inputs.append(px if l == 0 and px is not None else nm.matrix @ h)
            z = inputs[-1] @ w.T
        pre.append(z)
        h = z if linear or l == L - 1 else np.maximum(z, 0.0)
    return h, inputs, pre


def forward(model: Model, nm: NormalizedMatrix, features, linear: bool = False):
    """Final node representations; ``linear=True`` forces identity
    activations at every layer."""
    return _forward_cached(model, nm, features, linear=linear)[0]


def score_pairs(representations: np.ndarray, pairs) -> np.ndarray:
    """Inner-product link scores h_i . h_j for each pair.

    The pairs are walked in blocks of ``_PAIR_BLOCK`` rows, gathered into
    two buffers allocated once per call; each row is the same einsum as
    over the whole gather, so the scores do not depend on the block size.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    h = np.asarray(representations)
    m = pairs.shape[0]
    if m and (pairs.min() < 0 or pairs.max() >= h.shape[0]):
        raise ValueError("pair indices must lie in [0, n)")
    out = np.empty(m, dtype=h.dtype)
    rows = min(_PAIR_BLOCK, m)
    left = np.empty((rows, h.shape[1]), dtype=h.dtype)
    right = np.empty_like(left)
    for start in range(0, m, _PAIR_BLOCK):
        stop = min(start + _PAIR_BLOCK, m)
        k = stop - start
        # mode="clip" is a no-op on the checked indices and, unlike the
        # default, writes straight into ``out`` without a temporary copy.
        np.take(h, pairs[start:stop, 0], axis=0, out=left[:k], mode="clip")
        np.take(h, pairs[start:stop, 1], axis=0, out=right[:k], mode="clip")
        np.einsum("ij,ij->i", left[:k], right[:k], out=out[start:stop])
    return out


def _pair_gradient(h: np.ndarray, pairs: np.ndarray,
                   dscore: np.ndarray) -> np.ndarray:
    """Gradient with respect to ``h`` of ``sum_k dscore_k * h_i . h_j`` over
    the pairs (i, j): dh_u sums dscore * h_partner over the pairs holding u.

    That is ``S @ h`` for the symmetric pair matrix S with dscore at (i, j)
    and at (j, i).  Duplicate entries add up in the product, which keeps
    repeated pairs and (u, u) pairs exact, and no row of h is gathered.
    """
    n = h.shape[0]
    both = np.concatenate([dscore, dscore])
    rows = np.concatenate([pairs[:, 0], pairs[:, 1]])
    cols = np.concatenate([pairs[:, 1], pairs[:, 0]])
    return sparse.coo_matrix((both, (rows, cols)), shape=(n, n)) @ h


def bce_from_logits(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mean binary cross-entropy of sigmoid(scores) against labels,
    computed in the numerically stable log-sum-exp form."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    return float(np.mean(np.logaddexp(0.0, scores) - labels * scores))


def loss_and_gradients(
    model: Model,
    nm: NormalizedMatrix,
    features,
    pos_pairs,
    neg_pairs,
    lambda_fair: float = 0.0,
    group_of=None,
    t_labels=None,
    forward_cache=None,
):
    """Training objective and its exact gradients.

    Objective: mean BCE over positive and negative pairs plus
    ``(lambda_fair / B) * sum_b gap_b`` where the per-group gap is computed
    post-sigmoid over the same pairs.  Returns
    ``(loss, bce, penalty, grads)`` with one gradient per weight matrix.

    ``forward_cache`` optionally supplies the ``_forward_cached(model, nm,
    features)`` triple, which is then not recomputed.  It must be the
    forward pass at the model's current weights, operator and features;
    nothing checks this.  Given that, the result is bitwise identical to
    the call without it.
    """
    pos_pairs = np.asarray(pos_pairs, dtype=np.int64).reshape(-1, 2)
    neg_pairs = np.asarray(neg_pairs, dtype=np.int64).reshape(-1, 2)
    pairs = np.concatenate([pos_pairs, neg_pairs], axis=0)
    if pairs.shape[0] == 0:
        raise ValueError("no pairs to train on")
    labels = np.zeros(pairs.shape[0])
    labels[: pos_pairs.shape[0]] = 1.0

    if forward_cache is None:
        forward_cache = _forward_cached(model, nm, features)
    h, inputs, pre = forward_cache
    scores = score_pairs(h, pairs)
    probs = expit(scores)

    n_pairs = pairs.shape[0]
    bce = bce_from_logits(scores, labels)
    dscore = (probs - labels) / n_pairs

    penalty = 0.0
    if lambda_fair != 0.0:
        if group_of is None or t_labels is None:
            raise ValueError(
                "lambda_fair > 0 requires group and subgroup labels"
            )
        gaps, dprob, n_active = sampled_delta_terms(
            pairs, probs, group_of, t_labels
        )
        penalty = regularizer_term(gaps, lambda_fair)
        if n_active:
            dscore = dscore + (lambda_fair / n_active) * dprob * probs * (1.0 - probs)

    L = model.n_layers
    grads: list[np.ndarray] = [np.empty(0)] * L
    g = _pair_gradient(h, pairs, dscore)
    for l, w in reversed(list(enumerate(model.weights))):
        first = _transforms_first(l, w)
        if l < L - 1:
            g = g * (pre[l] > 0.0)
        if first:
            g = nm.matrix.T @ g  # gradient of the transformed H_{l-1} W_l^T
        grads[l] = g.T @ inputs[l]
        if l > 0:
            g = g @ w if first else nm.matrix.T @ (g @ w)

    return bce + penalty, bce, penalty, grads
