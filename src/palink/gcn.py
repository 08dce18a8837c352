"""Graph convolutional encoder for link prediction, from first principles.

Layers compute H_l = act(P @ H_{l-1} @ W_l^T) with ReLU inside and identity
at the top; no biases; a narrowing layer transforms before it propagates
(``_transforms_first``).  Link scores are inner products of the final
representations.  Gradients are exact reverse-mode derivatives of the
binary cross-entropy plus the subgroup-gap penalty, written out by hand so
they can be checked against finite differences.

Pair scores are computed in fixed blocks of rows through two gather
buffers, and the gradient with respect to the final representations is one
sparse pair-matrix product, so a training step never gathers a
``pairs x dim`` array.  ``loss_and_gradients`` takes an optional forward
cache, the ``_forward_cached`` triple, which must have been computed at
the model's current weights; training passes the forward it already ran
for validation after the previous step, and its ``PairState``.

A ``PairState`` keeps a training's pairs, its pair matrix and, by name in
an ``_Arrays``, every dense array of a step: the forward's layer outputs
(ReLU is applied in place), the two gather buffers, the loss's
pair-length scores, probabilities, BCE terms and score gradient, and the
backward's ``n``-row ``G @ W`` products, ReLU masks and each weight
gradient's block product (``_weight_gradient``).  Each epoch rewrites
them in place, the arrays with ``out=`` in the same operand order as a
fresh computation, so the bits do not depend on the reuse.  A forward
cache taken through a state is overwritten by that state's next forward.
The sparse products (``P @``, ``P^T @``, ``S @``) go through SciPy's
public API and still return fresh arrays; so do the weight gradients,
which callers keep.  ``forward`` makes its own arrays, and so do
``score_pairs`` without ``arrays`` and ``loss_and_gradients`` without a
state, through the same code.

Every array of a call takes its inputs' dtype, float32 or float64 (other
feature dtypes are read as float64): the layer outputs, the pair-length
arrays, the sparse products and each weight gradient's blocks.  The
weights are cast to it per layer per call, and each returned gradient has
its weight's dtype.  ``training.train`` casts its features and operator to
float32 once, so its epochs run at half float64's bytes; a one-shot call
keeps its inputs' dtype.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse

from .fairness import _float_array, _sigmoid, sampled_delta_terms
from .spectral import KINDS, NormalizedMatrix

# Rows of the two gather buffers that pair scores are computed through;
# at 64 float32 columns each buffer is 512 KiB.
_PAIR_BLOCK = 2048
# Rows per block of a weight gradient's sum over nodes (``_weight_gradient``).
_GRAD_BLOCK = 64


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


class _Arrays:
    """Named arrays, each allocated on its first request and handed out
    again while its shape and dtype hold; a new instance hands out new
    arrays."""

    def __init__(self):
        self._arrays: dict = {}

    def __call__(self, name, shape, dtype) -> np.ndarray:
        a = self._arrays.get(name)
        if a is None or a.shape != shape or a.dtype != dtype:
            a = self._arrays[name] = np.empty(shape, dtype)
        return a


def _forward_cached(model: Model, nm: NormalizedMatrix, features, px=None,
                    linear: bool = False, arrays: _Arrays | None = None):
    """Forward pass keeping what each W_l multiplies (``P @ H_{l-1}``, or
    ``H_{l-1}`` if ``_transforms_first``) and each layer's output H_l.

    ``px`` optionally supplies a precomputed P @ features for the first
    layer (it is constant across epochs); ``linear=True`` forces identity
    activations at every layer.  The dense products and the in-place ReLU
    write into ``arrays`` (new ones if omitted), so the next forward
    through the same ``arrays`` overwrites this one's outputs.
    """
    features = _float_array(features)
    _check_compat(model, nm, features)
    if arrays is None:
        arrays = _Arrays()
    h, dtype = features, features.dtype
    inputs = []  # what W_l multiplies
    outs = []  # H_l
    L = model.n_layers
    for l, w in enumerate(model.weights):
        w = w.astype(dtype, copy=False)
        shape = (h.shape[0], w.shape[0])
        if _transforms_first(l, w):
            inputs.append(h)
            hw = np.matmul(h, w.T, out=arrays(("hw", l), shape, dtype))
            h = nm.matrix @ hw
        else:
            inputs.append(px if l == 0 and px is not None else nm.matrix @ h)
            h = np.matmul(inputs[-1], w.T, out=arrays(("z", l), shape, dtype))
        if not (linear or l == L - 1):
            np.maximum(h, 0.0, out=h)
        outs.append(h)
    return h, inputs, outs


def forward(model: Model, nm: NormalizedMatrix, features, linear: bool = False):
    """Final node representations; ``linear=True`` forces identity
    activations at every layer."""
    return _forward_cached(model, nm, features, linear=linear)[0]


def score_pairs(representations: np.ndarray, pairs, arrays: _Arrays | None = None,
                out: np.ndarray | None = None) -> np.ndarray:
    """Inner-product link scores ``h_i . h_j`` for each pair, into ``out``
    (new if omitted), walked in blocks of ``_PAIR_BLOCK`` rows gathered
    into the ``"left"`` and ``"right"`` arrays of ``arrays`` (this call's
    own if omitted; a training passes its ``PairState.arrays``).  Each row
    is the same einsum as over the whole gather, so the scores do not
    depend on the block size or on where the buffers live."""
    h = np.asarray(representations)
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    m = pairs.shape[0]
    if m and (pairs.min() < 0 or pairs.max() >= h.shape[0]):
        raise ValueError("pair indices must lie in [0, n)")
    if out is None:
        out = np.empty(m, dtype=h.dtype)
    arrays = _Arrays() if arrays is None else arrays
    left, right = (arrays(side, (_PAIR_BLOCK, h.shape[1]), h.dtype)
                   for side in ("left", "right"))
    for start in range(0, m, _PAIR_BLOCK):
        stop = min(start + _PAIR_BLOCK, m)
        k = stop - start
        # mode="clip" is a no-op on the checked indices and, unlike the
        # default, writes straight into ``out`` without a temporary copy.
        np.take(h, pairs[start:stop, 0], axis=0, out=left[:k], mode="clip")
        np.take(h, pairs[start:stop, 1], axis=0, out=right[:k], mode="clip")
        np.einsum("ij,ij->i", left[:k], right[:k], out=out[start:stop])
    return out


class PairState:
    """A training's pair state, allocated once and rewritten in place, so
    its epochs allocate (and page-fault in) none of it again.

    Holds the ``(n_pos + n_neg, 2)`` pairs (positives first, written once)
    and their labels, the symmetric pair matrix ``S`` as COO (labels and
    ``S`` in ``dtype``, the features' dtype) and the
    operator's transpose ``pt`` as CSR: the operator itself under the
    symmetric filter, whose canonical CSR transposes to the same arrays.
    ``arrays`` holds the step's dense arrays (see the module docstring),
    allocated by the first forward, loss and scoring through this state
    and rewritten by every later one.  ``S`` has the entries pos(i, j),
    neg(i, j), pos(j, i), neg(j, i) in that order, so ``S @ h`` is the
    gradient with respect to ``h`` of ``sum_k dscore_k * h_i . h_j``.
    Duplicate entries add up in the product, which keeps repeated pairs
    and (u, u) pairs exact, and no row of ``h`` is gathered.
    """

    def __init__(self, pos_pairs, n_neg: int, nm: NormalizedMatrix, dtype):
        pos = np.asarray(pos_pairs, dtype=np.int64).reshape(-1, 2)
        self.n_pos = pos.shape[0]
        m = self.n_pos + int(n_neg)
        if m == 0:
            raise ValueError("no pairs to train on")
        n = nm.matrix.shape[0]
        self.pairs = np.zeros((m, 2), dtype=np.int64)
        self.pairs[: self.n_pos] = pos
        self.labels = np.zeros(m, dtype)
        self.labels[: self.n_pos] = 1.0
        rows = np.concatenate([self.pairs[:, 0], self.pairs[:, 1]])
        cols = np.concatenate([self.pairs[:, 1], self.pairs[:, 0]])
        self.pair_matrix = sparse.coo_matrix(
            (np.zeros(2 * m, dtype), (rows, cols)), shape=(n, n))
        self.pt = (nm.matrix if nm.kind == "symmetric"
                   else nm.matrix.T.tocsr())
        self.arrays = _Arrays()

    def set_negatives(self, neg_pairs) -> None:
        """Write this epoch's negatives into the pairs and ``S``; their
        indices are checked when they are scored."""
        neg = np.asarray(neg_pairs, dtype=np.int64).reshape(-1, 2)
        p, m = self.n_pos, self.pairs.shape[0]
        self.pairs[p:] = neg
        row, col = self.pair_matrix.row, self.pair_matrix.col
        row[p:m], row[m + p:] = neg[:, 0], neg[:, 1]
        col[p:m], col[m + p:] = neg[:, 1], neg[:, 0]

    def gradient(self, h: np.ndarray, dscore: np.ndarray) -> np.ndarray:
        """``S @ h`` with ``dscore`` at each pair's (i, j) and (j, i)."""
        m = self.pairs.shape[0]
        data = self.pair_matrix.data
        data[:m] = dscore
        data[m:] = dscore
        return self.pair_matrix @ h


def _bce(scores, labels, terms=None, tmp=None) -> float:
    """Mean binary cross-entropy of ``sigmoid(scores)`` against ``labels``,
    arrays of one float dtype, at that width: the mean of
    ``softplus(s) - y s`` with ``softplus(s) = max(s, 0) +
    log1p(exp(-|s|))``, whose exponent never overflows.  The per-pair terms
    are written into ``terms``, with ``tmp`` as scratch (each new if not
    given)."""
    t = np.abs(scores, out=terms)
    np.log1p(np.exp(np.negative(t, out=t), out=t), out=t)
    t += np.maximum(scores, 0.0, out=tmp)
    t -= np.multiply(labels, scores, out=tmp)
    return float(np.mean(t))


def _weight_gradient(g: np.ndarray, x: np.ndarray, tmp: np.ndarray):
    """``g.T @ x``, a sum over the ``n`` rows, taken as one product per
    ``_GRAD_BLOCK``-row block (into ``tmp``) added up in row order.  A BLAS
    may split one long product's sum by its thread count, and OpenBLAS
    does; the short block products came out bitwise equal at 1 and 2
    threads, so the gradient's bits do not depend on the thread count."""
    acc = np.matmul(g[:_GRAD_BLOCK].T, x[:_GRAD_BLOCK])
    for start in range(_GRAD_BLOCK, g.shape[0], _GRAD_BLOCK):
        stop = start + _GRAD_BLOCK
        acc += np.matmul(g[start:stop].T, x[start:stop], out=tmp)
    return acc


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
    pair_state: PairState | None = None,
):
    """Training objective and its exact gradients.

    Objective: mean BCE over positive and negative pairs plus
    ``(lambda_fair / B) * sum_b gap_b`` where the per-group gap is computed
    post-sigmoid over the same pairs.  Returns
    ``(loss, bce, penalty, grads)`` with one gradient per weight matrix;
    B counts the groups with both subgroups anchored, and with none the
    penalty is 0.

    ``forward_cache`` optionally supplies the ``_forward_cached(model, nm,
    features)`` triple, which is then not recomputed.  It must be the
    forward pass at the model's current weights, operator and features;
    nothing checks this.  ``pair_state`` optionally supplies a
    ``PairState`` built from ``pos_pairs``, ``len(neg_pairs)`` and ``nm``,
    which is then reused: ``neg_pairs`` are written into it, ``pos_pairs``
    are not read again, and the forward (if not supplied), the pair-length
    arrays and the backward's dense products are written into its
    ``arrays``.  Without it the call builds its own.  Given either, the
    result is bitwise identical to the call without it.  The gradients are
    new arrays on every call.
    """
    if not lambda_fair >= 0:
        raise ValueError("lambda_fair must be >= 0")
    neg_pairs = np.asarray(neg_pairs, dtype=np.int64).reshape(-1, 2)
    features = _float_array(features)
    if pair_state is None:
        pair_state = PairState(pos_pairs, len(neg_pairs), nm, features.dtype)
    pair_state.set_negatives(neg_pairs)
    pairs, labels = pair_state.pairs, pair_state.labels

    arrays = pair_state.arrays
    if forward_cache is None:
        forward_cache = _forward_cached(model, nm, features, arrays=arrays)
    h, inputs, outs = forward_cache
    n_pairs, dtype = pairs.shape[0], h.dtype
    scores = score_pairs(h, pairs, arrays, arrays("scores", (n_pairs,), dtype))
    # terms and dscore are free as scratch until the BCE terms and
    # (probs - labels) are written into them
    terms, dscore = (arrays(name, (n_pairs,), dtype)
                     for name in ("terms", "dscore"))
    probs = _sigmoid(scores, arrays("probs", (n_pairs,), dtype), terms)
    bce = _bce(scores, labels, terms, dscore)
    np.subtract(probs, labels, out=dscore)
    dscore /= n_pairs

    penalty = 0.0
    if lambda_fair != 0.0:
        if group_of is None or t_labels is None:
            raise ValueError(
                "lambda_fair > 0 requires group and subgroup labels"
            )
        gaps, dprob = sampled_delta_terms(pairs, probs, group_of, t_labels)
        if gaps.size:
            penalty = float(lambda_fair * np.sum(gaps) / gaps.size)
            # dscore + (lambda_fair / B) * dprob * probs * (1 - probs), in
            # place in dprob, a new array
            term = np.multiply(lambda_fair / gaps.size, dprob, out=dprob)
            term *= probs
            term *= np.subtract(1.0, probs, out=terms)
            dscore += term

    L = model.n_layers
    grads: list[np.ndarray] = [np.empty(0)] * L
    g = pair_state.gradient(h, dscore)
    for l, w in reversed(list(enumerate(model.weights))):
        first = _transforms_first(l, w)
        if l < L - 1:
            # H_l > 0 exactly where Z_l > 0 (NaN in neither); g is a
            # sparse product's new array or this call's "gw" array
            g *= np.greater(outs[l], 0.0,
                            out=arrays(("mask", l), outs[l].shape, bool))
        if first:
            g = pair_state.pt @ g  # gradient of the transformed H_{l-1} W_l^T
        dw = arrays(("dw", l), (g.shape[1], inputs[l].shape[1]), dtype)
        # each gradient at its weight's width, as Adam updates the weight
        grads[l] = _weight_gradient(g, inputs[l], dw).astype(w.dtype,
                                                             copy=False)
        if l > 0:
            gw = arrays(("gw", l), (g.shape[0], w.shape[1]), dtype)
            np.matmul(g, w.astype(dtype, copy=False), out=gw)
            g = gw if first else pair_state.pt @ gw

    return bce + penalty, bce, penalty, grads
