"""Acceptance gate: one test per shipped guarantee.

Each test prints a single pass/fail line with the measured quantities
(visible with ``pytest -s`` or on failure).  Thresholds are stated inline;
nothing here is tuned at runtime — the synthetic beds are frozen configs
whose behavior is deterministic end to end.
"""
from __future__ import annotations

import math
import os
import time

import numpy as np
import pytest
from scipy.special import expit

import palink.spectral as spectral
from palink.fairness import delta_hat
from palink.gcn import forward, init_model, loss_and_gradients
from palink.graphdata import within_group_structure
from palink.metrics import nrmse, pcc, roc_auc
from palink.pipelines import (
    config_from_dict,
    run_delta_comparison,
    run_fairness_sweep,
    run_validate_theory,
)
from palink.spectral import (
    block_spectrum,
    normalized_matrix,
    residual_and_bounds,
)
from palink.synth import SynthConfig, synth_generate
from palink.theory import alpha_vectors, raw_theoretic_scores

from conftest import random_planted_dataset
from oracles import dense_power_entries


def _emit(tag: str, ok: bool, detail: str) -> None:
    print(f"[acceptance {tag}] {'PASS' if ok else 'FAIL'} - {detail}",
          flush=True)
    assert ok, f"acceptance {tag}: {detail}"


def _info(tag: str, detail: str) -> None:
    print(f"[acceptance {tag}] INFO - {detail}", flush=True)


# --------------------------------------------------------------------------
# shared corpora and synthetic beds (frozen seeds; fully deterministic)

N_BOUND_GRAPHS = 200
BOUND_LAYERS = (1, 2, 4)


@pytest.fixture(scope="module")
def bound_corpus():
    rng = np.random.default_rng(977)
    graphs = []
    while len(graphs) < N_BOUND_GRAPHS:
        ds = random_planted_dataset(rng, n_max=40, b_max=3)
        view = within_group_structure(ds)
        if not np.any(view.wg_degrees > 0):
            continue  # degree ratio undefined for the random-walk radii
        graphs.append((ds, view))
    return graphs


def _bed(tmp_root, name, synth_kwargs, run_kwargs):
    cfg = SynthConfig(**synth_kwargs)
    paths = synth_generate(cfg, os.path.join(tmp_root, name, "data"))
    raw = {
        "dataset": {"name": name, "edges": paths["edges"],
                    "features": paths["features"],
                    "labels": paths["labels"]},
        "normalization": "minmax_signed",
        "hidden_dims": [128, 64],
        "epochs": 100,
        "out": os.path.join(tmp_root, name, "runs"),
    }
    raw.update(run_kwargs)
    return config_from_dict(raw)


@pytest.fixture(scope="module")
def bed_root(tmp_path_factory):
    return str(tmp_path_factory.mktemp("beds"))


def max_bound_violation(pl, view, bounds, kind):
    """Worst excess of |P^L entry - degree target| over its radius.

    Same-group entries (including the diagonal) are measured against the
    degree-determined limit with the group radius; zero-volume groups and
    cross-group entries are measured against the residual-only radius.
    """
    gof = view.group_of
    deg = view.wg_degrees.astype(np.float64)
    same = gof[:, None] == gof[None, :]
    vol = view.volumes[gof]
    vol_ij = np.where(same, np.broadcast_to(vol[:, None], pl.shape), np.inf)
    safe_vol = np.where(vol_ij > 0.0, vol_ij, np.inf)
    if kind == "symmetric":
        target = np.sqrt(np.outer(deg, deg)) / safe_vol
    else:
        target = np.broadcast_to(deg[None, :], pl.shape) / safe_vol
    radius_groups = np.where(np.isnan(bounds.zeta), bounds.cross_term,
                             bounds.zeta)
    radius = np.where(same, radius_groups[gof][:, None], bounds.cross_term)
    return float(np.max(np.abs(pl - target) - radius))


def _run_bound_suite(bound_corpus, kind):
    worst = -np.inf
    n_entries = 0
    start = time.perf_counter()
    for ds, view in bound_corpus:
        full = normalized_matrix(ds, kind)
        within = normalized_matrix(view, kind)
        summary = block_spectrum(view, kind)
        for L in BOUND_LAYERS:
            bounds = residual_and_bounds(full, within, summary, L, view)
            pl = dense_power_entries(full, L)
            worst = max(worst, max_bound_violation(pl, view, bounds, kind))
            n_entries += pl.size
    return worst, n_entries, time.perf_counter() - start


def test_01_symmetric_propagation_entry_bounds(bound_corpus):
    worst, n_entries, elapsed = _run_bound_suite(bound_corpus, "symmetric")
    ok = worst <= 1e-9 and elapsed < 60.0
    _emit("01", ok,
          f"symmetric entry bounds on {N_BOUND_GRAPHS} graphs x "
          f"L={BOUND_LAYERS}: worst excess {worst:.3e} (allowed 1e-9), "
          f"{n_entries} entries, {elapsed:.1f}s (< 60s)")


def test_02_random_walk_propagation_entry_bounds(bound_corpus):
    worst, n_entries, elapsed = _run_bound_suite(bound_corpus, "random_walk")
    ok = worst <= 1e-9
    _emit("02", ok,
          f"random-walk entry bounds on {N_BOUND_GRAPHS} graphs x "
          f"L={BOUND_LAYERS}: worst excess {worst:.3e} (allowed 1e-9), "
          f"{n_entries} entries, {elapsed:.1f}s")


def test_01_02_entry_bounds_on_the_lanczos_path(bound_corpus, monkeypatch):
    # Every block of three or more nodes takes the deflated Lanczos solve.
    # Fresh views: 01 and 02 may have memoized the corpus views' dense gaps.
    monkeypatch.setattr(spectral, "DENSE_EIG_LIMIT", 2)
    dense_sizes = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a: dense_sizes.append(len(a)) or real(a))
    corpus = [(ds, within_group_structure(ds)) for ds, _ in bound_corpus]
    worst = {kind: _run_bound_suite(corpus, kind)[0]
             for kind in ("symmetric", "random_walk")}
    ok = max(worst.values()) <= 1e-9 and max(dense_sizes, default=0) <= 2
    _emit("01/02", ok,
          f"entry bounds on {len(corpus)} graphs x L={BOUND_LAYERS} with "
          f"DENSE_EIG_LIMIT=2: worst excess symmetric "
          f"{worst['symmetric']:.3e}, random-walk {worst['random_walk']:.3e} "
          f"(allowed 1e-9); largest dense block {max(dense_sizes, default=0)}")


def _gradient_instance(rng, kind, dims):
    while True:
        ds = random_planted_dataset(rng, n_max=12, b_max=2,
                                    with_subgroups=True)
        keys = {i * ds.n + j for i, j in ds.edges}
        non = np.array(
            [(i, j) for i in range(ds.n) for j in range(i + 1, ds.n)
             if i * ds.n + j not in keys]
        ).reshape(-1, 2)
        if ds.m >= 4 and non.shape[0] >= 1:
            break
    view = within_group_structure(ds)
    nm = normalized_matrix(ds, kind)
    model = init_model(ds.feature_dim, dims, kind,
                       seed=int(rng.integers(10_000)))
    pos = ds.edges[: ds.m // 2]
    neg = non[rng.permutation(non.shape[0])[: max(1, pos.shape[0])]]
    return ds, view, nm, model, pos, neg


def _fd_gradients(model, nm, x, pos, neg, lam, gof, t, h=1e-5):
    out = []
    for w in model.weights:
        g = np.zeros_like(w)
        it = np.nditer(w, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = w[idx]
            w[idx] = orig + h
            up = loss_and_gradients(model, nm, x, pos, neg, lam, gof, t)[0]
            w[idx] = orig - h
            dn = loss_and_gradients(model, nm, x, pos, neg, lam, gof, t)[0]
            w[idx] = orig
            g[idx] = (up - dn) / (2.0 * h)
        out.append(g)
    return out


def test_03_gradients_match_finite_differences():
    rng = np.random.default_rng(488)
    kinds = ("symmetric", "random_walk")
    layer_choices = ((4, 3), (5, 4, 3, 2))  # two and four layers
    worst = 0.0
    for i in range(10):
        kind = kinds[i % 2]
        dims = layer_choices[(i // 2) % 2]
        ds, view, nm, model, pos, neg = _gradient_instance(rng, kind, dims)
        for lam in (0.0, 1.0):
            _, _, _, grads = loss_and_gradients(
                model, nm, ds.features, pos, neg, lam,
                view.group_of, ds.t_labels,
            )
            fd = _fd_gradients(model, nm, ds.features, pos, neg, lam,
                               view.group_of, ds.t_labels)
            gmax = max(np.max(np.abs(g)) for g in grads)
            floor = max(1e-3 * gmax, 1e-12)
            for a, f in zip(grads, fd):
                denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), floor)
                worst = max(worst, float(np.max(np.abs(a - f) / denom)))
    ok = worst <= 1e-4
    _emit("03", ok,
          "10 instances (n<=12) x both filters x 2/4 layers x "
          f"lambda in {{0,1}}: max relative gradient error {worst:.3e} "
          "(allowed 1e-4)")


def test_04_identity_activation_exact_linearization():
    rng = np.random.default_rng(512)
    worst = 0.0
    n_checked = 0
    for _ in range(10):
        ds = random_planted_dataset(rng, n_max=100, b_max=3, feature_dim=5)
        for kind in ("symmetric", "random_walk"):
            nm = normalized_matrix(ds, kind)
            for L in (1, 2, 3):
                dims = tuple(int(d) for d in rng.integers(2, 6, size=L))
                model = init_model(ds.feature_dim, dims, kind,
                                   seed=int(rng.integers(10_000)))
                h = forward(model, nm, ds.features, linear=True)
                chain = model.weights[0]
                for w in model.weights[1:]:
                    chain = w @ chain
                ref = dense_power_entries(nm, L) @ ds.features @ chain.T
                worst = max(worst, float(np.max(np.abs(h - ref))))
                n_checked += 1
    ok = worst <= 1e-9
    _emit("04", ok,
          f"identity-activation forward vs dense chain on {n_checked} "
          f"(graph, filter, depth) combinations, n<=100: max deviation "
          f"{worst:.3e} (allowed 1e-9)")


def _gap_estimate_brute_force(view, rho2, c1, t_labels, g):
    """The closed form's sums evaluated with explicit loops."""
    nodes = view.order[view.offsets[g]:view.offsets[g + 1]]
    t1 = [i for i in nodes if t_labels[i] == 0]
    t2 = [i for i in nodes if t_labels[i] == 1]
    if not t1 or not t2:
        return None
    if math.isnan(rho2[g]):
        return None
    total = 0.0
    for k in nodes:
        total += math.sqrt(view.wg_degrees[k])
    disparity = sum(math.sqrt(view.wg_degrees[i]) for i in t1) / len(t1) \
        - sum(math.sqrt(view.wg_degrees[j]) for j in t2) / len(t2)
    return abs(rho2[g] * c1[g] ** 2 * total * disparity) / len(nodes)


def test_05_score_shape_and_gap_estimate_forms():
    rng = np.random.default_rng(733)
    worst_shape = 0.0
    worst_gap = 0.0
    n_pairs = n_groups = 0
    for _ in range(30):
        ds = random_planted_dataset(rng, n_max=100, b_max=3,
                                    with_subgroups=True)
        view = within_group_structure(ds)
        model = init_model(ds.feature_dim, (4, 3),
                           seed=int(rng.integers(10_000)))
        aset = alpha_vectors(model, ds.features)

        gof = view.group_of
        pairs = np.array([(i, j) for i in range(ds.n)
                          for j in range(i + 1, ds.n) if gof[i] == gof[j]])
        if pairs.shape[0]:
            # symmetric: tau / sqrt(deg_i * deg_j) recovers the group
            # constant; random walk: tau is the group constant verbatim
            tau_s, c1_s = raw_theoretic_scores(view, aset, pairs,
                                               "symmetric")
            deg = view.wg_degrees
            gp = gof[pairs[:, 0]]
            geo = np.sqrt(deg[pairs[:, 0]] * deg[pairs[:, 1]])
            pos = geo > 0
            ratio_err = np.abs(tau_s[pos] / geo[pos] - c1_s[gp[pos]] ** 2)
            if ratio_err.size:
                worst_shape = max(worst_shape, float(ratio_err.max()))
            tau_r, c1_r = raw_theoretic_scores(view, aset, pairs,
                                               "random_walk")
            assert np.all(tau_r == c1_r[gp] ** 2)
            n_pairs += pairs.shape[0]

        rho2 = rng.normal(size=view.n_groups) ** 2
        c1 = np.abs(rng.normal(size=view.n_groups))
        closed, _ = delta_hat(view, rho2, c1, ds.t_labels, "symmetric")
        for g in range(view.n_groups):
            ref = _gap_estimate_brute_force(view, rho2, c1, ds.t_labels, g)
            if np.isnan(closed[g]):
                assert ref is None
                continue
            worst_gap = max(worst_gap, abs(closed[g] - ref))
            n_groups += 1
        rw, _ = delta_hat(view, rho2, c1, ds.t_labels, "random_walk")
        assert np.all(rw[~np.isnan(rw)] == 0.0)

    ok = worst_shape <= 1e-12 and worst_gap <= 1e-9
    _emit("05", ok,
          f"score shapes over {n_pairs} pairs (deg-geometry ratio err "
          f"{worst_shape:.2e} <= 1e-12; rw constant exact) and closed-form "
          f"gap estimate vs direct sums over {n_groups} groups (err "
          f"{worst_gap:.2e} <= 1e-9; rw form == 0)")


def test_06_synthetic_theory_validation(bed_root):
    synth_kwargs = dict(sizes=(200, 200, 200), p_in=0.15, p_out=0.005,
                        t1_fraction=0.3, disparity_boost=0.0,
                        feature_dim=16, feature_separation=1.0,
                        feature_noise=1.0, seed=0)
    start = time.perf_counter()
    cfg = _bed(bed_root, "bed_theory", synth_kwargs,
               {"seeds": [0, 1, 2, 3, 4], "lambda_fair": [0.0]})
    agg = run_validate_theory(cfg)["aggregate"]

    rw_cfg = _bed(bed_root, "bed_theory_rw", synth_kwargs,
                  {"seeds": [0, 1, 2, 3, 4], "lambda_fair": [0.0],
                   "filter": "rw"})
    rw_agg = run_validate_theory(rw_cfg)["aggregate"]
    elapsed = time.perf_counter() - start

    _info("06", f"random-walk run (no floor): PCC "
                f"{rw_agg['pcc_mean']:.3f} +- {rw_agg['pcc_std']:.3f}, "
                f"NRMSE {rw_agg['nrmse_mean']:.3f}")
    ok = agg["pcc_mean"] >= 0.7 and agg["nrmse_mean"] <= 0.15
    _emit("06", ok,
          f"planted bed n=600 B=3, symmetric, 5 seeds: PCC "
          f"{agg['pcc_mean']:.3f} +- {agg['pcc_std']:.3f} (>= 0.7), NRMSE "
          f"{agg['nrmse_mean']:.3f} +- {agg['nrmse_std']:.3f} (<= 0.15), "
          f"test AUC {agg['test_auc_mean']:.3f}, {elapsed:.0f}s")


def test_07_fairness_penalty_sweep(bed_root):
    synth_kwargs = dict(sizes=(100, 100), p_in=0.15, p_out=0.01,
                        t1_fraction=0.25, disparity_boost=10.0,
                        feature_dim=8, feature_separation=0.5,
                        feature_noise=1.0, seed=0)
    start = time.perf_counter()
    cfg = _bed(bed_root, "bed_sweep", synth_kwargs,
               {"seeds": list(range(10)),
                "lambda_fair": [0.0, 1.0, 2.0, 4.0]})
    rows = {row["lambda_fair"]: row for row in run_fairness_sweep(cfg)["table"]}
    elapsed = time.perf_counter() - start

    d0, d4 = rows[0.0]["delta_mean"], rows[4.0]["delta_mean"]
    a0, a4 = rows[0.0]["auc_mean"], rows[4.0]["auc_mean"]
    ok = d4 <= 0.5 * d0 and (a0 - a4) <= 0.05 and elapsed < 600.0
    _emit("07", ok,
          f"disparity bed, 10 seeds, lambda {{0,1,2,4}}: gap "
          f"{d0:.4f} -> {d4:.4f} (need <= {0.5 * d0:.4f}), AUC "
          f"{a0:.3f} -> {a4:.3f} (drop {a0 - a4:+.4f} <= 0.05), "
          f"{elapsed:.0f}s (< 600s)")


def test_08_gap_estimate_association(bed_root):
    synth_kwargs = dict(sizes=(60, 60, 60), p_in=0.2, p_out=0.01,
                        t1_fraction=0.25, disparity_boost=(0.0, 3.0, 8.0),
                        feature_dim=8, feature_separation=0.5,
                        feature_noise=1.0, seed=0)
    cfg = _bed(bed_root, "bed_assoc", synth_kwargs,
               {"seeds": list(range(10)), "lambda_fair": [0.0]})
    payload = run_delta_comparison(cfg)
    ok = payload["n_points"] >= 10 and payload["pcc"] > 0.0
    _emit("08", ok,
          f"estimated vs measured subgroup gap over {payload['n_points']} "
          f"(seed, group) points: PCC {payload['pcc']:.3f} (> 0)")


def _auc_oracle(scores, labels):
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def test_09_metric_oracles_and_invariances():
    rng = np.random.default_rng(871)
    worst_formula = 0.0
    for i in range(100):
        n = int(rng.integers(4, 60))
        labels = rng.integers(0, 2, size=n)
        labels[:2] = [0, 1]
        scores = rng.normal(size=n)
        if i % 3 == 0:
            scores = np.round(scores, 1)  # inject ties

        # AUC: exact agreement with quadratic pair counting, plus
        # monotone-transform and bitwise-repeat invariance
        got = roc_auc(scores, labels).value
        assert got == _auc_oracle(scores, labels)
        assert roc_auc(expit(scores), labels).value == got
        assert roc_auc(scores, labels).value == got

        # NRMSE/PCC: hand formulas and their invariances
        pred = rng.normal(size=n)
        targ = rng.normal(size=n)
        rmse = math.sqrt(sum((p - t) ** 2 for p, t in zip(pred, targ)) / n)
        worst_formula = max(worst_formula, abs(
            nrmse(pred, targ).value - rmse / (targ.max() - targ.min())
        ))
        mp, mt = pred.mean(), targ.mean()
        num = sum((p - mp) * (t - mt) for p, t in zip(pred, targ))
        den = math.sqrt(sum((p - mp) ** 2 for p in pred)
                        * sum((t - mt) ** 2 for t in targ))
        worst_formula = max(worst_formula,
                            abs(pcc(pred, targ).value - num / den))
        worst_formula = max(worst_formula, abs(
            nrmse(3.0 * pred, 3.0 * targ).value - nrmse(pred, targ).value
        ))
        worst_formula = max(worst_formula, abs(
            pcc(2.0 * pred + 1.0, targ).value - pcc(pred, targ).value
        ))
    ok = worst_formula <= 1e-12
    _emit("09", ok,
          "AUC == quadratic pair counting on 100 instances (exact, with "
          "ties), monotone-transform/repeat invariances exact; NRMSE/PCC "
          f"formulas and scale/affine invariances within {worst_formula:.2e}"
          " (allowed 1e-12)")


def test_10_optional_real_dataset():
    data_dir = os.environ.get("PALINK_CORA_DIR")
    if not data_dir:
        print("[acceptance 10] SKIP - set PALINK_CORA_DIR to a directory "
              "with edges.txt, features.csv, labels.tsv to run the "
              "full-scale citation-network check", flush=True)
        pytest.skip("PALINK_CORA_DIR not set")
    start = time.perf_counter()
    raw = {
        "dataset": {"name": "cora",
                    "edges": os.path.join(data_dir, "edges.txt"),
                    "features": os.path.join(data_dir, "features.csv"),
                    "labels": os.path.join(data_dir, "labels.tsv")},
        "normalization": "row_sum_one",
        "hidden_dims": [128, 64],
        "epochs": 100,
        "seeds": list(range(10)),
        "lambda_fair": [0.0],
        "out": os.path.join(data_dir, "runs"),
    }
    agg = run_validate_theory(config_from_dict(raw))["aggregate"]
    elapsed = time.perf_counter() - start
    ok = (agg["test_auc_mean"] >= 0.90 and agg["nrmse_mean"] <= 0.08
          and agg["pcc_mean"] >= 0.80 and elapsed <= 45 * 60)
    _emit("10", ok,
          f"citation network, symmetric, 10 seeds: AUC "
          f"{agg['test_auc_mean']:.3f} (>= 0.90), NRMSE "
          f"{agg['nrmse_mean']:.3f} (<= 0.08), PCC {agg['pcc_mean']:.3f} "
          f"(>= 0.80), {elapsed / 60:.1f} min (<= 45)")
