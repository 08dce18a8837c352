"""Split/negative-sampling bookkeeping and the Adam training loop."""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sparse

import palink.gcn as gcn
from palink.gcn import forward, init_model, loss_and_gradients, score_pairs
from palink.graphdata import make_dataset, within_group_structure
from palink.metrics import roc_auc
from palink.spectral import matrix_from_edges
from palink import training
from palink.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    NegativeSampler,
    TrainConfig,
    load_checkpoint,
    sample_negatives,
    save_checkpoint,
    split_links,
    train,
)

from conftest import random_planted_dataset
from oracles import dense_negatives


def pair_set(pairs):
    return {(int(i), int(j)) for i, j in np.asarray(pairs).reshape(-1, 2)}


def sized_dataset(m, n=60, seed=7):
    """A graph with exactly m edges on n nodes."""
    rng = np.random.default_rng(seed)
    all_pairs = np.array([(i, j) for i in range(n) for j in range(i + 1, n)])
    idx = rng.choice(all_pairs.shape[0], size=m, replace=False)
    feats = rng.normal(size=(n, 4))
    return make_dataset(all_pairs[np.sort(idx)], feats, np.zeros(n, int))


def float32_operator(ds, split, kind):
    """The training operator at the width train() runs its epochs in."""
    nm = matrix_from_edges(ds.n, split.train_pos, ds.self_loop_weight, kind)
    return dataclasses.replace(nm, matrix=nm.matrix.astype(np.float32))


def trainable_dataset(seed=50):
    rng = np.random.default_rng(seed)
    while True:
        ds = random_planted_dataset(rng, n_max=40, b_max=2,
                                    p_in_range=(0.7, 0.95),
                                    with_subgroups=True)
        if ds.m >= 40:
            return ds


class TestSplitLinks:
    def test_default_ratio_sizes(self):
        ds = sized_dataset(1000)
        split = split_links(ds, seed=3)
        assert split.train_pos.shape[0] == 850
        assert split.val_pos.shape[0] == 50
        assert split.test_pos.shape[0] == 100
        assert split.val_neg.shape[0] == 50
        assert split.test_neg.shape[0] == 100

    def test_positives_partition_the_edges(self):
        ds = sized_dataset(200)
        split = split_links(ds, seed=4)
        tr, va, te = map(pair_set,
                         (split.train_pos, split.val_pos, split.test_pos))
        assert tr | va | te == pair_set(ds.edges)
        assert not (tr & va) and not (tr & te) and not (va & te)

    def test_negatives_are_valid_and_disjoint(self):
        ds = sized_dataset(300)
        split = split_links(ds, seed=5)
        edges = pair_set(ds.edges)
        vn, tn = pair_set(split.val_neg), pair_set(split.test_neg)
        assert not (vn & edges) and not (tn & edges)
        assert not (vn & tn)
        for i, j in vn | tn:
            assert 0 <= i < j < ds.n

    def test_train_part_sorted_held_out_parts_in_permutation_order(self):
        ds = sized_dataset(300)
        split = split_links(ds, seed=6)
        rng = np.random.default_rng(6)
        perm = rng.permutation(ds.m)
        n_tr, n_val = 255, 15
        assert split.train_pos.shape == (n_tr, 2)
        assert pair_set(split.train_pos) == pair_set(ds.edges[perm[:n_tr]])
        order = np.lexsort((split.train_pos[:, 1], split.train_pos[:, 0]))
        np.testing.assert_array_equal(order, np.arange(n_tr))
        val_neg = sample_negatives(ds.n, ds.edges, n_val, rng)
        test_neg = sample_negatives(ds.n, ds.edges, ds.m - n_tr - n_val, rng,
                                    exclude=val_neg)
        for got, want in (
            (split.val_pos, ds.edges[perm[n_tr:n_tr + n_val]]),
            (split.test_pos, ds.edges[perm[n_tr + n_val:]]),
            (split.val_neg, val_neg), (split.test_neg, test_neg),
        ):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_same_seed_same_split(self):
        ds = sized_dataset(150)
        a = split_links(ds, seed=9)
        b = split_links(ds, seed=9)
        for fa, fb in zip(
            (a.train_pos, a.val_pos, a.test_pos, a.val_neg, a.test_neg),
            (b.train_pos, b.val_pos, b.test_pos, b.val_neg, b.test_neg),
        ):
            np.testing.assert_array_equal(fa, fb)

    def test_ratio_validation(self):
        ds = sized_dataset(100)
        with pytest.raises(ValueError):
            split_links(ds, ratios=(0.9, 0.1))
        with pytest.raises(ValueError):
            split_links(ds, ratios=(0.9, -0.1, 0.2))
        with pytest.raises(ValueError):
            split_links(ds, ratios=(0.5, 0.3, 0.3))
        with pytest.raises(ValueError, match="three positive fractions"):
            split_links(ds, ratios=(float("nan"), 0.5, 0.5))

    def test_empty_part_rejected(self):
        ds = sized_dataset(10)
        with pytest.raises(ValueError):
            split_links(ds, ratios=(0.85, 0.05, 0.10))


class TestSampleNegatives:
    def test_only_candidate_is_found(self):
        # complete graph on 4 nodes minus (1, 2)
        edges = [(i, j) for i in range(4) for j in range(i + 1, 4)
                 if (i, j) != (1, 2)]
        got = sample_negatives(4, edges, 1, np.random.default_rng(0))
        np.testing.assert_array_equal(got, [[1, 2]])
        with pytest.raises(ValueError):
            sample_negatives(4, edges, 2, np.random.default_rng(0))

    def test_exclude_shrinks_the_pool(self):
        edges = [(0, 1)]
        got = sample_negatives(4, edges, 3, np.random.default_rng(1),
                               exclude=[(0, 2), (0, 3)])
        assert pair_set(got) == {(1, 2), (1, 3), (2, 3)}

    def test_zero_count(self):
        # with 9 free pairs, and with none (n=2, one edge)
        for n in (5, 2):
            rng = np.random.default_rng(0)
            state = rng.bit_generator.state
            out = sample_negatives(n, [(0, 1)], 0, rng)
            assert out.shape == (0, 2) and out.dtype == np.int64
            assert rng.bit_generator.state == state

    @pytest.mark.parametrize("n, m, n_exclude, pool", [
        pytest.param(4, 3, 0, "full", id="n4-full"),
        pytest.param(30, 200, 0, "tight", id="n30-tight"),
        pytest.param(30, 200, 40, "wide", id="n30-wide-exclude"),
        pytest.param(90, 3000, 500, "full", id="n90-full-exclude"),
        pytest.param(400, 3000, 0, "wide", id="n400-wide"),
        pytest.param(400, 3000, 2000, "wide", id="n400-wide-exclude"),
    ])
    def test_equals_dense_enumeration(self, n, m, n_exclude, pool):
        rng = np.random.default_rng(n + m + n_exclude)
        iu = np.triu_indices(n, k=1)

        def random_pairs(size):
            keys = rng.choice(iu[0].size, size=size, replace=False)
            pairs = np.stack([iu[0][keys], iu[1][keys]], axis=1)
            flip = rng.random(size) < 0.5
            pairs[flip] = pairs[flip][:, ::-1]
            return pairs

        edges = random_pairs(m)
        # Drawn independently of the edges, so the two may overlap.
        exclude = random_pairs(n_exclude) if n_exclude else None
        banned = edges if exclude is None else np.concatenate([edges, exclude])
        available = iu[0].size - len(pair_set(np.sort(banned, axis=1)))
        count = {"full": available, "tight": available // 2,
                 "wide": available // 20}[pool]
        for seed in range(3):
            got = sample_negatives(n, edges, count,
                                   np.random.default_rng(seed), exclude)
            ref = dense_negatives(n, edges, count,
                                  np.random.default_rng(seed), exclude)
            assert got.dtype == ref.dtype == np.int64
            np.testing.assert_array_equal(got, ref)

    def test_two_million_nodes(self):
        # An n x n mask here would take 4 TB.
        n = 2_000_000
        ring = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
        got = sample_negatives(n, ring, 100_000, np.random.default_rng(5))
        assert got.shape == (100_000, 2)
        assert np.all((0 <= got[:, 0]) & (got[:, 0] < got[:, 1])
                      & (got[:, 1] < n))
        keys = got[:, 0] * n + got[:, 1]
        assert np.all(np.diff(keys) > 0)  # sorted and distinct
        ring_keys = ring.min(axis=1) * n + ring.max(axis=1)
        assert not np.isin(keys, ring_keys).any()

    def test_invalid_banned_pairs_rejected(self):
        for edges in ([(0, 4)], [(-1, 2)], [(2, 2)]):
            with pytest.raises(ValueError, match="distinct nodes"):
                sample_negatives(4, edges, 1, np.random.default_rng(0))
        with pytest.raises(ValueError, match="distinct nodes"):
            sample_negatives(4, [(0, 1)], 1, np.random.default_rng(0),
                             exclude=[(1, 1)])

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            sample_negatives(4, [(0, 1)], -1, np.random.default_rng(0))

    def test_sampler_built_once_matches_per_epoch_sampling(self):
        # train() draws every epoch from one sampler over the protocol's
        # banned set; each draw must equal a fresh sample_negatives call
        # and the dense enumeration at the same RNG state.
        ds = trainable_dataset()
        split = split_links(ds, seed=1)
        held_out = held_out_negatives(split)
        count = split.train_pos.shape[0]
        sampler = NegativeSampler(ds.n, split.train_pos, exclude=held_out)
        rngs = [np.random.default_rng(np.random.SeedSequence([4, 1]))
                for _ in range(3)]
        for _ in range(6):
            got = sampler.draw(count, rngs[0])
            np.testing.assert_array_equal(
                got, sample_negatives(ds.n, split.train_pos, count, rngs[1],
                                      held_out))
            np.testing.assert_array_equal(
                got, dense_negatives(ds.n, split.train_pos, count, rngs[2],
                                     held_out))


def held_out_negatives(split):
    """The frozen validation and test negatives, which training must not
    draw."""
    return np.concatenate([split.val_neg, split.test_neg])


class TestTrain:
    def test_negatives_avoid_held_out_pairs_over_all_epochs(
            self, monkeypatch):
        ds = trainable_dataset()
        split = split_links(ds, seed=1)
        banned_sets, draws = [], []

        class Recording(training.NegativeSampler):
            def __init__(self, n, edges, exclude=None):
                super().__init__(n, edges, exclude)
                banned_sets.append(pair_set(edges) | pair_set(exclude))

            def draw(self, count, rng):
                neg = super().draw(count, rng)
                draws.append(pair_set(neg))
                return neg

        monkeypatch.setattr(training, "NegativeSampler", Recording)
        train(ds, split, TrainConfig(hidden_dims=(4,), epochs=40, seed=3))
        assert len(banned_sets) == 1  # built once per run
        assert len(draws) == 40

        held_pos = pair_set(split.val_pos) | pair_set(split.test_pos)
        held_neg = pair_set(split.val_neg) | pair_set(split.test_neg)
        train_pos = pair_set(split.train_pos)
        assert banned_sets[0] == train_pos | held_neg
        drawn = set()
        for neg in draws:
            assert not neg & (train_pos | held_neg)
            drawn |= neg
        # held-out positives are unknown to the trainer, so some are drawn
        assert drawn & held_pos

    def test_history_and_best_model_semantics(self):
        ds = trainable_dataset()
        split = split_links(ds, seed=1)
        config = TrainConfig(hidden_dims=(8, 4), epochs=6, seed=2)
        result = train(ds, split, config)

        assert [row[0] for row in result.history] == [1, 2, 3, 4, 5, 6]
        aucs = [row[3] for row in result.history]
        assert result.best_val_auc == max(aucs)
        assert result.best_epoch == aucs.index(max(aucs)) + 1
        assert all(row[2] == 0.0 for row in result.history)  # no penalty

        # the stored model reproduces the recorded best validation AUC
        val_pairs = np.concatenate([split.val_pos, split.val_neg])
        val_labels = np.concatenate([
            np.ones(split.val_pos.shape[0]), np.zeros(split.val_neg.shape[0])
        ])
        from palink.gcn import forward

        h = forward(result.model, result.train_nm, ds.features)
        auc = roc_auc(score_pairs(h, val_pairs), val_labels).value
        assert auc == pytest.approx(result.best_val_auc, abs=1e-12)

    def test_trained_model_beats_untrained_on_test_links(self):
        ds = trainable_dataset()
        split = split_links(ds, seed=1)
        config = TrainConfig(hidden_dims=(8, 4), epochs=30, seed=2)
        result = train(ds, split, config)

        test_pairs = np.concatenate([split.test_pos, split.test_neg])
        test_labels = np.concatenate([
            np.ones(split.test_pos.shape[0]),
            np.zeros(split.test_neg.shape[0]),
        ])

        def test_auc(model):
            h = forward(model, result.train_nm, ds.features)
            return roc_auc(score_pairs(h, test_pairs), test_labels).value

        untrained = init_model(ds.feature_dim, (8, 4), "symmetric", seed=2)
        assert test_auc(result.model) >= test_auc(untrained)

    def test_bitwise_reproducible(self):
        ds = trainable_dataset()
        split = split_links(ds, seed=1)
        config = TrainConfig(hidden_dims=(6, 3), epochs=4, seed=5)
        a = train(ds, split, config)
        b = train(ds, split, config)
        assert a.history == b.history
        assert a.best_epoch == b.best_epoch
        for wa, wb in zip(a.model.weights, b.model.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_single_epoch_matches_adam_arithmetic(self):
        ds = trainable_dataset()
        split = split_links(ds, seed=1)
        config = TrainConfig(hidden_dims=(5, 3), epochs=1, seed=8)
        result = train(ds, split, config)

        model0 = init_model(ds.feature_dim, (5, 3), "symmetric", seed=8)
        nm = float32_operator(ds, split, "symmetric")
        neg_rng = np.random.default_rng(np.random.SeedSequence([8, 1]))
        neg = sample_negatives(ds.n, split.train_pos, split.train_pos.shape[0],
                               neg_rng, held_out_negatives(split))
        grads = loss_and_gradients(model0, nm, ds.features.astype(np.float32),
                                   split.train_pos, neg)[3]
        assert result.best_epoch == 1
        for w0, g, w1 in zip(model0.weights, grads, result.model.weights):
            expected = w0 - config.lr * g / (np.abs(g) + ADAM_EPS)
            np.testing.assert_allclose(w1, expected, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("lam", [0.0, 2.0])
    @pytest.mark.parametrize("kind", ["symmetric", "random_walk"])
    @pytest.mark.parametrize("ratios,block", [
        pytest.param(training.DEFAULT_RATIOS, 7, id="block7"),
        # more validation pairs than training pairs, at the full block
        pytest.param((0.2, 0.6, 0.2), gcn._PAIR_BLOCK, id="val-heavy"),
    ])
    def test_reused_forward_matches_fresh_forward_per_epoch(
            self, monkeypatch, lam, kind, ratios, block):
        # train() feeds each epoch's loss the forward pass it ran for
        # validation after the previous step, and reuses one PairState
        # for every epoch's pairs, gathers and pair matrix; fresh one-shot
        # calls must give the same loss, gradients, weights and AUC bits.
        monkeypatch.setattr(gcn, "_PAIR_BLOCK", block)
        ds = trainable_dataset()
        split = split_links(ds, ratios, seed=1)
        n_train = split.train_pos.shape[0]
        n_val = split.val_pos.shape[0] + split.val_neg.shape[0]
        # block7: both pair sets span several blocks and end in a partial
        # one; val-heavy: validation outnumbers the training pairs
        if block == 7:
            assert 2 * n_train > 2 * block and 2 * n_train % block
            assert n_val > block and n_val % block
        else:
            assert n_val > 2 * n_train
        seen = []
        real = training.loss_and_gradients

        def recording(model, *args, **kwargs):
            out = real(model, *args, **kwargs)
            seen.append(([w.copy() for w in model.weights], out[3]))
            return out

        monkeypatch.setattr(training, "loss_and_gradients", recording)
        config = TrainConfig(filter_kind=kind, hidden_dims=(5, 3), epochs=4,
                             lambda_fair=lam, seed=8)
        result = train(ds, split, config)

        model = init_model(ds.feature_dim, (5, 3), kind, seed=8)
        nm = float32_operator(ds, split, kind)
        features = ds.features.astype(np.float32)
        group_of = within_group_structure(
            dataclasses.replace(ds, edges=split.train_pos)).group_of
        val_pairs = np.concatenate([split.val_pos, split.val_neg])
        val_labels = np.repeat([1.0, 0.0], [split.val_pos.shape[0],
                                            split.val_neg.shape[0]])
        neg_rng = np.random.default_rng(np.random.SeedSequence([8, 1]))
        adam_m = [np.zeros_like(w) for w in model.weights]
        adam_v = [np.zeros_like(w) for w in model.weights]
        negs = []
        for epoch in range(1, config.epochs + 1):
            negs.append(sample_negatives(ds.n, split.train_pos, n_train,
                                         neg_rng, held_out_negatives(split)))
            loss, _, penalty, grads = loss_and_gradients(
                model, nm, features, split.train_pos, negs[-1], lam,
                group_of, ds.t_labels)
            weights_seen, grads_seen = seen[epoch - 1]
            for w, w_seen, g, g_seen in zip(model.weights, weights_seen,
                                            grads, grads_seen):
                np.testing.assert_array_equal(w, w_seen)
                np.testing.assert_array_equal(g, g_seen)
            for w, g, m_buf, v_buf in zip(model.weights, grads, adam_m,
                                          adam_v):
                m_buf *= ADAM_BETA1
                m_buf += (1.0 - ADAM_BETA1) * g
                v_buf *= ADAM_BETA2
                v_buf += (1.0 - ADAM_BETA2) * g * g
                m_hat = m_buf / (1.0 - ADAM_BETA1**epoch)
                v_hat = v_buf / (1.0 - ADAM_BETA2**epoch)
                w -= config.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
            h = forward(model, nm, features)
            auc = roc_auc(score_pairs(h, val_pairs), val_labels).value
            assert result.history[epoch - 1] == (epoch, loss, penalty, auc)
            if epoch == result.best_epoch:
                for w, w_best in zip(model.weights, result.model.weights):
                    np.testing.assert_array_equal(w, w_best)
        assert len(seen) == config.epochs
        assert not any(np.array_equal(a, b) for a, b in zip(negs, negs[1:]))
        assert 1 <= result.best_epoch <= config.epochs

    def test_epochs_write_into_the_state_arrays(self, monkeypatch):
        # each epoch's forward writes into the PairState's arrays, so the
        # caches that epochs 1 and 2 computed (which the losses of epochs 2
        # and 3 start from) share the layer-0 activation's memory; the
        # forward before the first step has arrays of its own
        caches = []
        real = training.loss_and_gradients

        def recording(*args, **kwargs):
            caches.append(kwargs["forward_cache"])
            return real(*args, **kwargs)

        monkeypatch.setattr(training, "loss_and_gradients", recording)
        ds = trainable_dataset()
        train(ds, split_links(ds, seed=1),
              TrainConfig(hidden_dims=(5, 3), epochs=3, seed=8))
        before, epoch1, epoch2 = (cache[2][0] for cache in caches)
        assert np.shares_memory(epoch1, epoch2)
        assert not np.shares_memory(before, epoch1)

    def test_every_epoch_scores_through_score_pairs(self, monkeypatch):
        # each epoch scores its training pairs (in the loss) and then the
        # validation pairs through the one public scorer, both times with
        # the PairState's gather buffers, so a call counter sees 2E calls
        calls, stores = [], []
        real = gcn.score_pairs

        def counting(h, pairs, arrays=None, out=None):
            calls.append(len(pairs))
            stores.append(arrays)
            return real(h, pairs, arrays, out)

        for module in (gcn, training):
            monkeypatch.setattr(module, "score_pairs", counting)
        ds = trainable_dataset()
        split = split_links(ds, seed=1)
        epochs = 3
        train(ds, split, TrainConfig(hidden_dims=(5, 3), epochs=epochs,
                                     seed=8))
        n_val = split.val_pos.shape[0] + split.val_neg.shape[0]
        assert calls == [2 * split.train_pos.shape[0], n_val] * epochs
        assert stores[0] is not None
        assert all(store is stores[0] for store in stores)

    def test_epochs_run_in_float32_and_one_shot_calls_in_float64(
            self, monkeypatch):
        # train() casts the features and the operator to float32 once;
        # every sparse product, weight gradient and state array of its
        # epochs stays at that width, penalty included, while a one-shot
        # float64 call keeps float64 throughout
        products, states = [], []
        for cls in (sparse.csr_matrix, sparse.coo_matrix):
            def product(self, dense, real=cls.__matmul__):
                out = real(self, dense)
                name = ("S" if isinstance(self, sparse.coo_matrix) else
                        "P^T" if any(self is s.pt for s in states) else "P")
                products.append((name, out.dtype))
                return out

            monkeypatch.setattr(cls, "__matmul__", product)
        real_gradient = gcn._weight_gradient

        def weight_gradient(g, x, tmp):
            out = real_gradient(g, x, tmp)
            products.append(("dW", out.dtype))
            return out

        class Recording(gcn.PairState):
            def __init__(self, *args):
                super().__init__(*args)
                states.append(self)

        monkeypatch.setattr(gcn, "_weight_gradient", weight_gradient)
        for module in (gcn, training):
            monkeypatch.setattr(module, "PairState", Recording)
        ds = trainable_dataset()
        split = split_links(ds, seed=1)
        result = train(ds, split, TrainConfig(
            filter_kind="random_walk", hidden_dims=(5, 3), epochs=3,
            lambda_fair=2.0, seed=8))
        assert any(row[2] > 0.0 for row in result.history)
        assert {name for name, _ in products} == {"P", "P^T", "S", "dW"}
        assert {dtype for _, dtype in products} == {np.dtype(np.float32)}
        state = states.pop()
        floats = [a for a in state.arrays._arrays.values()
                  if a.dtype.kind == "f"]
        assert len(floats) > 10
        floats += [state.labels, state.pair_matrix.data]
        assert all(a.dtype == np.float32 for a in floats)
        assert all(w.dtype == np.float64 for w in result.model.weights)
        assert result.train_nm.matrix.dtype == np.float64

        products.clear()
        grads = loss_and_gradients(
            result.model, result.train_nm, ds.features, split.train_pos,
            split.train_pos[::-1], 2.0, result.train_view.group_of,
            ds.t_labels)[3]
        assert len(states) == 1
        assert {name for name, _ in products} == {"P", "P^T", "S", "dW"}
        assert {dtype for _, dtype in products} == {np.dtype(np.float64)}
        assert all(g.dtype == np.float64 for g in grads)

    def test_message_passing_uses_training_positives_only(self):
        ds = trainable_dataset()
        split = split_links(ds, seed=2)
        result = train(ds, split, TrainConfig(hidden_dims=(4,), epochs=2))
        expected = matrix_from_edges(ds.n, split.train_pos,
                                     ds.self_loop_weight, "symmetric")
        # the diagonal holds self_loop_weight / degree, so an equal matrix
        # also means equal training degrees
        assert (result.train_nm.matrix != expected.matrix).nnz == 0
        from dataclasses import replace

        view = within_group_structure(replace(ds, edges=split.train_pos))
        np.testing.assert_array_equal(result.train_view.group_of,
                                      view.group_of)

    def test_penalty_recorded_when_regularized(self):
        ds = trainable_dataset()
        split = split_links(ds, seed=3)
        config = TrainConfig(hidden_dims=(6, 3), epochs=3, lambda_fair=2.0,
                             seed=1)
        result = train(ds, split, config)
        regs = [row[2] for row in result.history]
        assert all(r >= 0.0 for r in regs)
        assert any(r > 0.0 for r in regs)

    def test_lambda_without_subgroups_rejected(self):
        rng = np.random.default_rng(51)
        ds = random_planted_dataset(rng, n_max=30, p_in_range=(0.8, 0.9))
        assert ds.t_labels is None
        split = split_links(ds, seed=0)
        with pytest.raises(ValueError):
            train(ds, split, TrainConfig(epochs=1, lambda_fair=1.0))

    @pytest.mark.parametrize("lam", [-1.0, float("nan")])
    def test_negative_lambda_rejected_before_training(self, monkeypatch,
                                                      lam):
        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(training, "within_group_structure", no_training)
        ds = trainable_dataset()
        split = split_links(ds, seed=1)
        with pytest.raises(ValueError, match=r"^lambda_fair must be >= 0$"):
            train(ds, split, TrainConfig(epochs=1, lambda_fair=lam))

    def test_non_finite_loss_is_named(self):
        # the first step moves every weight by ~1e200; the next forward
        # overflows, so epoch 2's loss is NaN
        ds = trainable_dataset()
        split = split_links(ds, seed=1)
        config = TrainConfig(hidden_dims=(8, 4), epochs=5, lr=1e200, seed=2)
        with pytest.raises(ValueError, match=r"^epoch 2: training loss is"):
            train(ds, split, config)

    def test_non_finite_weight_is_named(self):
        ds = trainable_dataset()
        split = split_links(ds, seed=1)
        config = TrainConfig(hidden_dims=(8, 4), epochs=5, lr=np.inf, seed=2)
        with pytest.raises(ValueError,
                           match=r"^epoch 1: weight W_1 is no longer finite"):
            train(ds, split, config)

    def test_epoch_validation(self):
        ds = trainable_dataset()
        split = split_links(ds, seed=0)
        with pytest.raises(ValueError):
            train(ds, split, TrainConfig(epochs=0))

    @pytest.mark.parametrize("lr", [-1.0, float("nan")])
    def test_lr_validation(self, lr):
        ds = trainable_dataset()
        split = split_links(ds, seed=0)
        with pytest.raises(ValueError, match="^lr must be >= 0$"):
            train(ds, split, TrainConfig(epochs=1, lr=lr))


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        model = init_model(6, (4, 2), "random_walk", seed=13)
        echo = {"lr": 0.01, "filter": "random_walk", "layers": [4, 2]}
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(path, model, seed=13, config_echo=echo)
        loaded, meta = load_checkpoint(path)
        assert loaded.filter_kind == "random_walk"
        assert meta["seed"] == 13
        assert meta["config"] == echo
        assert len(loaded.weights) == 2
        for wa, wb in zip(model.weights, loaded.weights):
            np.testing.assert_array_equal(wa, wb)
            assert wb.dtype == np.float64

    def test_unsupported_version_rejected(self, tmp_path):
        path = str(tmp_path / "bad.npz")
        np.savez(path, format_version=np.int64(99))
        with pytest.raises(ValueError):
            load_checkpoint(path)

