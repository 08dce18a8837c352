"""Property-based checks on generated instances: the subgroup gap against
its enumeration oracle and under relabellings, and block-spectrum gaps
against per-group builds.  Example generation is derandomized, so the
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
from palink.graphdata import make_dataset, within_group_structure  # noqa: E402
from palink.spectral import block_spectrum  # noqa: E402

from oracles import delta_enumeration_oracle, sym_block_gap  # noqa: E402

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
