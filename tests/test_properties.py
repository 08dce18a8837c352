"""Property-based checks on generated instances: the subgroup gap against
its enumeration oracle and under relabellings, block-spectrum gaps against
per-group builds, the negative sampler against its dense oracle, blocked
pair scores against one unblocked einsum, and the training gradients
against finite differences.  Example generation is derandomized, so the
suite is deterministic and keeps no example database."""
from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis.configuration import set_hypothesis_home_dir  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from scipy.special import expit  # noqa: E402

from palink.fairness import delta  # noqa: E402
from palink.gcn import (  # noqa: E402
    _PAIR_BLOCK,
    init_model,
    loss_and_gradients,
    score_pairs,
)
from palink.graphdata import make_dataset, within_group_structure  # noqa: E402
from palink.spectral import (  # noqa: E402
    KINDS,
    block_spectrum,
    normalized_matrix,
)
from palink.training import sample_negatives  # noqa: E402

from conftest import random_planted_dataset  # noqa: E402
from oracles import (  # noqa: E402
    delta_enumeration_oracle,
    dense_negatives,
    einsum_scores,
    finite_difference_grads,
    gradient_error,
    sym_block_gap,
)

deterministic = settings(derandomize=True, database=None, deadline=None)

# Hypothesis caches the constants it reads from local source files under
# its home directory, ``.hypothesis/`` in the working directory unless set,
# and does so while tests are collected.  Keep that cache out of the tree.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "palink-hypothesis")


@st.composite
def node_pairs(draw, n: int) -> np.ndarray:
    """A random subset of the n-node unordered pairs, each in a random
    orientation."""
    iu, ju = np.triu_indices(n, k=1)
    keep = np.array(draw(st.lists(st.booleans(), min_size=iu.size,
                                  max_size=iu.size)), dtype=bool)
    pairs = np.stack([iu[keep], ju[keep]], axis=1).astype(np.int64)
    flip = np.array(draw(st.lists(st.booleans(), min_size=len(pairs),
                                  max_size=len(pairs))), dtype=bool)
    pairs[flip] = pairs[flip][:, ::-1]
    return pairs


@st.composite
def delta_instances(draw):
    """Scored pairs (same- and cross-group) on up to 14 nodes in up to
    three groups, with a permutation of the nodes."""
    n = draw(st.integers(2, 14))
    labels = st.lists(st.integers(0, 2), min_size=n, max_size=n)
    group_of = np.array(draw(labels))
    t_labels = np.array(draw(labels)) % 2
    pairs = draw(node_pairs(n))
    scores = np.array(draw(st.lists(
        st.floats(-8.0, 8.0), min_size=len(pairs), max_size=len(pairs))))
    perm = np.array(draw(st.permutations(range(n))))
    return pairs, scores, group_of, t_labels, perm


@st.composite
def graphs(draw):
    """A graph on up to 16 nodes in up to three groups, with a self-loop
    weight of 0, 1 or 2."""
    n = draw(st.integers(1, 16))
    labels = np.array(draw(st.lists(st.integers(0, 2), min_size=n,
                                    max_size=n)))
    edges = draw(node_pairs(n))
    weight = draw(st.sampled_from((0.0, 1.0, 2.0)))
    return make_dataset(edges.reshape(-1, 2), np.zeros((n, 1)), labels,
                        self_loop_weight=weight)


def _keys(pairs, n: int) -> set:
    """Unordered pairs as ``min * n + max`` keys."""
    pairs = np.asarray(pairs).reshape(-1, 2)
    return set((pairs.min(axis=1) * n + pairs.max(axis=1)).tolist())


@st.composite
def sampler_instances(draw):
    """Banned pairs on up to 14 nodes as ``edges`` and ``exclude`` (which
    may overlap), a count of free pairs to draw and an RNG seed."""
    n = draw(st.integers(2, 14))
    edges, exclude = draw(node_pairs(n)), draw(node_pairs(n))
    free = n * (n - 1) // 2 - len(_keys(edges, n) | _keys(exclude, n))
    return (n, edges, exclude, draw(st.integers(0, free)),
            draw(st.integers(0, 2**32 - 1)))


@st.composite
def protocol_instances(draw):
    """The training protocol's banned set on up to 14 nodes: the training
    share of a graph's edges, plus held-out negatives that are non-edges
    (the held-out edges stay drawable).  Returns (n, train_pos,
    held_out_neg, count, seed)."""
    n = draw(st.integers(2, 14))
    edges = draw(node_pairs(n))
    in_train = np.array(draw(st.lists(st.booleans(), min_size=len(edges),
                                      max_size=len(edges))), dtype=bool)
    candidates = draw(node_pairs(n))
    edge_keys = _keys(edges, n)
    held_neg = np.array([p for p in candidates.tolist()
                         if min(p) * n + max(p) not in edge_keys],
                        dtype=np.int64).reshape(-1, 2)
    free = n * (n - 1) // 2 - int(in_train.sum()) - held_neg.shape[0]
    return (n, edges[in_train], held_neg, draw(st.integers(0, free)),
            draw(st.integers(0, 2**32 - 1)))


class TestSampleNegativesProperties:
    @deterministic
    @given(sampler_instances())
    def test_bitwise_equal_dense_oracle(self, inst):
        n, edges, exclude, count, seed = inst
        got = sample_negatives(n, edges, count, np.random.default_rng(seed),
                               exclude)
        ref = dense_negatives(n, edges, count, np.random.default_rng(seed),
                              exclude)
        assert got.dtype == ref.dtype == np.int64
        np.testing.assert_array_equal(got.reshape(-1, 2), ref.reshape(-1, 2))

    @deterministic
    @given(protocol_instances())
    def test_training_protocol_banned_set(self, inst):
        n, train_pos, held_neg, count, seed = inst
        got = sample_negatives(n, train_pos, count,
                               np.random.default_rng(seed), held_neg)
        ref = dense_negatives(n, train_pos, count,
                              np.random.default_rng(seed), held_neg)
        np.testing.assert_array_equal(got.reshape(-1, 2), ref.reshape(-1, 2))
        assert not _keys(got, n) & (_keys(train_pos, n) | _keys(held_neg, n))


class TestDeltaProperties:
    @deterministic
    @given(delta_instances())
    def test_matches_enumeration_oracle(self, inst):
        pairs, scores, group_of, t_labels, _ = inst
        got = delta(pairs, scores, group_of, t_labels)
        expected = delta_enumeration_oracle(pairs, expit(scores), group_of,
                                            t_labels)
        np.testing.assert_array_equal(got.skipped, np.isnan(expected))
        np.testing.assert_allclose(got.delta, expected, rtol=0, atol=1e-12)

    @deterministic
    @given(delta_instances())
    def test_subgroup_swap_invariance(self, inst):
        pairs, scores, group_of, t_labels, _ = inst
        base = delta(pairs, scores, group_of, t_labels)
        swapped = delta(pairs, scores, group_of, 1 - t_labels)
        np.testing.assert_array_equal(swapped.skipped, base.skipped)
        np.testing.assert_allclose(swapped.delta, base.delta, rtol=0,
                                   atol=1e-12)

    @deterministic
    @given(delta_instances())
    def test_node_relabelling_invariance(self, inst):
        pairs, scores, group_of, t_labels, perm = inst
        inv = np.empty_like(perm)
        inv[perm] = np.arange(perm.size)
        base = delta(pairs, scores, group_of, t_labels)
        relabelled = delta(inv[pairs], scores, group_of[perm],
                           t_labels[perm])
        np.testing.assert_array_equal(relabelled.skipped, base.skipped)
        np.testing.assert_allclose(relabelled.delta, base.delta, rtol=0,
                                   atol=1e-12)


class TestBlockSpectrumProperties:
    @deterministic
    @given(graphs(), st.sampled_from(("symmetric", "random_walk")))
    def test_gaps_bitwise_equal_per_group_build(self, ds, kind):
        view = within_group_structure(ds)
        summary = block_spectrum(view, kind)
        expected = [sym_block_gap(view, g) for g in range(view.n_groups)]
        np.testing.assert_array_equal(summary.lambda_gaps, expected)
        np.testing.assert_array_equal(summary.degenerate, view.volumes == 0)


@st.composite
def scored_pairs(draw):
    """Representations of up to 30 nodes and a pair count that is often
    next to a multiple of the score block."""
    n, dim = draw(st.integers(1, 30)), draw(st.integers(1, 20))
    near_block = st.sampled_from([k * _PAIR_BLOCK + d for k in (1, 2, 3)
                                  for d in (-1, 0, 1)])
    count = draw(near_block | st.integers(0, 3 * _PAIR_BLOCK + 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.normal(size=(n, dim)), rng.integers(0, n, size=(count, 2))


@st.composite
def gradient_instances(draw):
    """A planted dataset of up to 10 nodes with subgroup labels, a model of
    one to three layers of width 1 to 4 under either filter, and random
    positive and negative pairs (self-pairs included) over random refined
    groups."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ds = random_planted_dataset(rng, n_max=10, b_max=2, with_subgroups=True)
    kind = draw(st.sampled_from(KINDS))
    hidden = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    model = init_model(ds.feature_dim, hidden, kind,
                       seed=int(rng.integers(99)))
    n_pos, n_neg = draw(st.integers(1, 12)), draw(st.integers(0, 12))
    pos = rng.integers(0, ds.n, size=(n_pos, 2))
    neg = rng.integers(0, ds.n, size=(n_neg, 2))
    group_of = rng.integers(0, 2, size=ds.n)
    return ds, normalized_matrix(ds, kind), model, pos, neg, group_of


class TestScorePairsProperties:
    @deterministic
    @given(scored_pairs())
    def test_blocked_bitwise_equal_unblocked_einsum(self, inst):
        h, pairs = inst
        got = score_pairs(h, pairs)
        assert got.shape == (pairs.shape[0],)
        np.testing.assert_array_equal(got, einsum_scores(h, pairs))


class TestGradientProperties:
    @pytest.mark.parametrize("lam", [0.0, 1.5])
    @settings(deterministic, max_examples=40)
    @given(gradient_instances())
    def test_match_central_finite_differences(self, lam, inst):
        ds, nm, model, pos, neg, group_of = inst
        grads = loss_and_gradients(model, nm, ds.features, pos, neg, lam,
                                   group_of, ds.t_labels)[3]
        fd = finite_difference_grads(model, nm, ds.features, pos, neg, lam,
                                     group_of, ds.t_labels)
        # Central differences at h = 1e-6 of a loss of order 1 carry up to
        # about 2e-10 of round-off (machine epsilon / h), so entries below
        # 1e-5 are held to an absolute 1e-9.
        assert gradient_error(grads, fd, floor=1e-5) < 1e-4
