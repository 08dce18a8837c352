"""Property-based checks on generated instances: the upper-triangle pair
key and its inverse, edge canonicalization and the synthetic generator
against their sort-based and dense oracles, the subgroup gap against its
enumeration oracle and under relabellings, block-spectrum gaps against
per-group builds and, on the deflated Lanczos path, against dense
eigensolves of connected blocks, the negative sampler against its dense
oracle, blocked pair scores against one unblocked einsum, and the
training gradients against finite differences.  Example generation is derandomized, so the
suite is deterministic and keeps no example database."""
from __future__ import annotations

import tempfile
from pathlib import Path
from unittest import mock

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
    PairState,
    _forward_cached,
    init_model,
    loss_and_gradients,
    score_pairs,
)
from palink import spectral, synth  # noqa: E402
from palink.graphdata import (  # noqa: E402
    _key_pairs,
    _pair_keys,
    make_dataset,
    within_group_structure,
)
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
    dense_planted_edges,
    einsum_scores,
    finite_difference_grads,
    gradient_error,
    lexsort_canonical_edges,
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


@st.composite
def key_instances(draw):
    """A node count and a list of upper-triangle keys (with repeats)."""
    n = draw(st.integers(2, 60))
    keys = draw(st.lists(st.integers(0, n * (n - 1) // 2 - 1), max_size=80))
    return n, np.array(keys, dtype=np.int64)


@st.composite
def edge_lists(draw):
    """Pairs of distinct nodes on 2 to 20 nodes, in either orientation and
    with repeats."""
    n = draw(st.integers(2, 20))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node).filter(lambda p: p[0] != p[1]),
                          max_size=60))
    return n, np.array(pairs, dtype=np.int64).reshape(-1, 2)


@st.composite
def synth_configs(draw):
    """Small generator configs: groups of 2 to 12 nodes, ``p_in`` often 1,
    ``p_out`` often 0 or ``p_in``, boosts up to past the group size, and a
    key chunk from one key to more than all of them."""
    sizes = tuple(draw(st.lists(st.integers(2, 12), min_size=1, max_size=3)))
    p_in = draw(st.sampled_from([1.0]) | st.floats(0.0, 1.0))
    p_out = draw(st.sampled_from([0.0, p_in]) | st.floats(0.0, p_in))
    config = synth.SynthConfig(
        sizes=sizes, p_in=p_in, p_out=p_out,
        t1_fraction=draw(st.floats(0.05, 0.95)),
        disparity_boost=float(draw(st.integers(0, 14))),
        feature_dim=2, seed=draw(st.integers(0, 2**32 - 1)))
    return config, draw(st.sampled_from([1, 7, 64, 1 << 22]))


class TestPairKeyProperties:
    @deterministic
    @given(key_instances())
    def test_key_pair_round_trip(self, inst):
        n, keys = inst
        distinct = np.unique(keys)
        pairs = _key_pairs(keys, n)
        assert pairs.dtype == np.int64 and pairs.shape == (keys.size, 2)
        assert np.all((0 <= pairs[:, 0]) & (pairs[:, 0] < pairs[:, 1])
                      & (pairs[:, 1] < n))
        np.testing.assert_array_equal(_pair_keys(pairs, n), distinct)
        np.testing.assert_array_equal(_pair_keys(pairs[:, ::-1], n), distinct)

    @deterministic
    @given(key_instances())
    def test_sorted_keys_are_lexicographic_pairs(self, inst):
        n, keys = inst
        pairs = _key_pairs(np.unique(keys), n)
        np.testing.assert_array_equal(
            pairs, pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))])
        assert np.all(np.diff(pairs[:, 0] * n + pairs[:, 1]) > 0)
        all_pairs = _key_pairs(np.arange(n * (n - 1) // 2), n)
        np.testing.assert_array_equal(
            all_pairs, np.stack(np.triu_indices(n, k=1), axis=1))

    @deterministic
    @given(edge_lists())
    def test_make_dataset_matches_lexsort_oracle(self, inst):
        n, pairs = inst
        ds = make_dataset(pairs, np.zeros((n, 1)), np.zeros(n))
        edges, n_dup = lexsort_canonical_edges(pairs)
        assert ds.edges.dtype == np.int64 and ds.edges.flags.c_contiguous
        np.testing.assert_array_equal(ds.edges, edges.reshape(-1, 2))
        assert ds.n_duplicate_edges == n_dup

    @deterministic
    @given(synth_configs())
    def test_generator_matches_dense_oracle(self, inst):
        config, chunk = inst
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(synth, "_PAIR_CHUNK", chunk):
            paths = synth.synth_generate(config, tmp)
            with open(paths["edges"]) as fh:
                edges = [line.split() for line in fh if line[0] != "#"]
            with open(paths["labels"]) as fh:
                t_is_a = [line.split("\t")[2] == "a\n" for line in fh]
        expected, expected_a = dense_planted_edges(config)
        np.testing.assert_array_equal(
            np.array(edges, dtype=np.int64).reshape(-1, 2), expected)
        np.testing.assert_array_equal(t_is_a, expected_a)


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
        np.testing.assert_array_equal(got.reasons != "", np.isnan(expected))
        np.testing.assert_allclose(got.delta, expected, rtol=0, atol=1e-12)

    @deterministic
    @given(delta_instances())
    def test_subgroup_swap_invariance(self, inst):
        pairs, scores, group_of, t_labels, _ = inst
        base = delta(pairs, scores, group_of, t_labels)
        swapped = delta(pairs, scores, group_of, 1 - t_labels)
        np.testing.assert_array_equal(swapped.reasons, base.reasons)
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
        np.testing.assert_array_equal(relabelled.reasons, base.reasons)
        np.testing.assert_allclose(relabelled.delta, base.delta, rtol=0,
                                   atol=1e-12)


@st.composite
def connected_blocks(draw):
    """A connected graph on 2 to 24 nodes in one group, so one block: a
    random tree plus random extra pairs, with a self-loop weight of 0, 0.5
    or 1."""
    n = draw(st.integers(2, 24))
    parents = [draw(st.integers(0, i - 1)) for i in range(1, n)]
    tree = np.stack([np.arange(1, n), parents], axis=1).reshape(-1, 2)
    edges = np.concatenate([tree, draw(node_pairs(n))])
    weight = draw(st.sampled_from((0.0, 0.5, 1.0)))
    return make_dataset(edges, np.zeros((n, 1)), np.zeros(n, dtype=np.int64),
                        self_loop_weight=weight)


class TestBlockSpectrumProperties:
    @deterministic
    @given(graphs(), st.sampled_from(("symmetric", "random_walk")))
    def test_gaps_bitwise_equal_per_group_build(self, ds, kind):
        view = within_group_structure(ds)
        expected = [sym_block_gap(view, g) for g in range(view.n_groups)]
        np.testing.assert_array_equal(block_spectrum(view, kind), expected)

    @deterministic
    @given(connected_blocks())
    def test_deflated_gap_matches_dense(self, ds):
        view = within_group_structure(ds)
        assert view.n_groups == 1
        with mock.patch.object(spectral, "DENSE_EIG_LIMIT", 1):
            gap = block_spectrum(view)[0]
        assert abs(gap - sym_block_gap(view, 0)) <= 1e-12


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
        state = PairState(pos, len(neg), nm, np.float64, group_of,
                          ds.t_labels)
        grads = loss_and_gradients(
            model, state, neg, _forward_cached(model, nm, ds.features), lam)[3]
        fd = finite_difference_grads(model, nm, ds.features, pos, neg, lam,
                                     group_of, ds.t_labels)
        # Central differences at h = 1e-6 of a loss of order 1 carry up to
        # about 2e-10 of round-off (machine epsilon / h), so entries below
        # 1e-5 are held to an absolute 1e-9.
        assert gradient_error(grads, fd, floor=1e-5) < 1e-4
