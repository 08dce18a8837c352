"""Graph convolutional encoder for link prediction, from first principles.

Layers compute H_l = act(P @ H_{l-1} @ W_l^T) with ReLU inside and identity
at the top; no biases.  Link scores are inner products of the final
representations.  Gradients are exact reverse-mode derivatives of the
binary cross-entropy plus the subgroup-gap penalty, written out by hand so
they can be checked against finite differences.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse
from scipy.special import expit

from .fairness import regularizer_term, sampled_delta_terms
from .spectral import KINDS, NormalizedMatrix

sigmoid = expit


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

    @property
    def hidden_dims(self) -> tuple[int, ...]:
        return tuple(int(w.shape[0]) for w in self.weights)

    def copy(self) -> "Model":
        return Model(self.filter_kind, [w.copy() for w in self.weights])


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
    if features.shape[0] != nm.n:
        raise ValueError("feature rows must match operator size")


def _forward_cached(model: Model, nm: NormalizedMatrix, features, px=None,
                    linear: bool = False):
    """Forward pass keeping propagated inputs and pre-activations.

    ``px`` optionally supplies a precomputed P @ features for the first
    layer (it is constant across epochs); ``linear=True`` forces identity
    activations at every layer.
    """
    features = np.asarray(features, dtype=np.float64)
    _check_compat(model, nm, features)
    h = features
    propagated = []  # M_l = P @ H_{l-1}
    pre = []  # Z_l
    L = model.n_layers
    for l, w in enumerate(model.weights):
        m = (nm.matrix @ h) if not (l == 0 and px is not None) else px
        z = m @ w.T
        propagated.append(m)
        pre.append(z)
        h = z if linear or l == L - 1 else np.maximum(z, 0.0)
    return h, propagated, pre


def forward(model: Model, nm: NormalizedMatrix, features, linear: bool = False):
    """Final node representations; ``linear=True`` forces identity
    activations at every layer."""
    return _forward_cached(model, nm, features, linear=linear)[0]


def score_pairs(representations: np.ndarray, pairs) -> np.ndarray:
    """Inner-product link scores h_i . h_j for each pair."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    h = representations
    return np.einsum("ij,ij->i", h[pairs[:, 0]], h[pairs[:, 1]])


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
    px=None,
):
    """Training objective and its exact gradients.

    Objective: mean BCE over positive and negative pairs plus
    ``(lambda_fair / B) * sum_b gap_b`` where the per-group gap is computed
    post-sigmoid over the same pairs.  Returns
    ``(loss, bce, penalty, grads)`` with one gradient per weight matrix.
    """
    pos_pairs = np.asarray(pos_pairs, dtype=np.int64).reshape(-1, 2)
    neg_pairs = np.asarray(neg_pairs, dtype=np.int64).reshape(-1, 2)
    pairs = np.concatenate([pos_pairs, neg_pairs], axis=0)
    if pairs.shape[0] == 0:
        raise ValueError("no pairs to train on")
    labels = np.zeros(pairs.shape[0])
    labels[: pos_pairs.shape[0]] = 1.0

    h, propagated, pre = _forward_cached(model, nm, features, px=px)
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
        deltas, dprob, n_active = sampled_delta_terms(
            pairs, probs, group_of, t_labels
        )
        penalty = regularizer_term(deltas, lambda_fair)
        if n_active:
            dscore = dscore + (lambda_fair / n_active) * dprob * probs * (1.0 - probs)

    # d loss / d representations: dh_u = sum over pairs containing u of
    # dscore * h_partner, accumulated via sparse carriers.
    m_pairs = pairs.shape[0]
    cols = np.arange(m_pairs)
    lift_i = sparse.csr_matrix(
        (dscore, (pairs[:, 0], cols)), shape=(h.shape[0], m_pairs)
    )
    lift_j = sparse.csr_matrix(
        (dscore, (pairs[:, 1], cols)), shape=(h.shape[0], m_pairs)
    )
    dh = lift_i @ h[pairs[:, 1]] + lift_j @ h[pairs[:, 0]]

    L = model.n_layers
    grads: list[np.ndarray] = [np.empty(0)] * L
    g = dh
    for l in range(L - 1, -1, -1):
        if l < L - 1:
            g = g * (pre[l] > 0.0)
        grads[l] = g.T @ propagated[l]
        if l > 0:
            g = nm.matrix.T @ (g @ model.weights[l])

    return bce + penalty, bce, penalty, grads
