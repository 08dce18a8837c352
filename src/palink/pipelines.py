"""End-to-end pipelines: theory validation, subgroup-gap comparison, and
the fairness-penalty sweep, each emitting deterministic JSON/CSV reports.

Run directories embed the dataset name, filter kind, and a hash of the
config so sweeps with different settings never collide.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .fairness import delta, delta_hat
from .gcn import forward, score_pairs
from .graphdata import Dataset, load_dataset, normalize_features
from .metrics import nrmse, pcc, roc_auc
from .theory import alpha_vectors, build_theory_report
from .training import TrainConfig, save_checkpoint, split_links, train

FILTER_ABBREV = {"symmetric": "sym", "random_walk": "rw"}
FILTER_ALIASES = {
    "sym": "symmetric", "symmetric": "symmetric",
    "rw": "random_walk", "random_walk": "random_walk",
}


@dataclass(frozen=True)
class RunConfig:
    name: str
    edges: str
    features: str
    labels: str
    normalization: str = "none"
    self_loop_weight: float = 1.0
    filter_kind: str = "symmetric"
    hidden_dims: tuple[int, ...] = (128, 64)
    epochs: int = 100
    lr: float = 0.01
    ratios: tuple[float, float, float] = (0.85, 0.05, 0.10)
    seeds: tuple[int, ...] = tuple(range(10))
    lambda_fair: tuple[float, ...] = (0.0, 1.0, 2.0, 4.0)
    out: str = "runs"

    def to_dict(self) -> dict:
        return {
            "dataset": {
                "name": self.name,
                "edges": self.edges,
                "features": self.features,
                "labels": self.labels,
            },
            "normalization": self.normalization,
            "self_loop_weight": self.self_loop_weight,
            "filter": self.filter_kind,
            "hidden_dims": list(self.hidden_dims),
            "epochs": self.epochs,
            "lr": self.lr,
            "ratios": list(self.ratios),
            "seeds": list(self.seeds),
            "lambda_fair": list(self.lambda_fair),
            "out": self.out,
        }

    @property
    def config_hash(self) -> str:
        payload = self.to_dict()
        payload.pop("out")
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:8]

    def run_dir(self) -> str:
        abbrev = FILTER_ABBREV[self.filter_kind]
        return os.path.join(self.out, f"{self.name}_{abbrev}_{self.config_hash}")


def load_config(path: str) -> RunConfig:
    with open(path) as fh:
        raw = json.load(fh)
    return config_from_dict(raw)


_JSON_TYPES = {int: ((int,), "an integer"),
               float: ((int, float), "a number"), str: ((str,), "a string")}


def check_value(key: str, value, kind: type):
    """``value`` itself if it is a JSON value of ``kind`` (int, float or
    str; an integer also counts as a float, a boolean as neither),
    otherwise a ValueError that names ``key``."""
    types, name = _JSON_TYPES[kind]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ValueError(f"config key {key!r} must be {name}, got {value!r}")
    return value


def check_list(key: str, value, kind: type, scalar: bool = False) -> tuple:
    """A non-empty list of ``kind`` values as a tuple; with ``scalar`` a
    bare value counts as a list of one."""
    if scalar and not isinstance(value, (list, tuple)):
        value = [value]
    if not isinstance(value, (list, tuple)) or not value:
        raise ValueError(f"config key {key!r} must be a non-empty list, "
                         f"got {value!r}")
    return tuple(check_value(key, v, kind) for v in value)


def config_from_dict(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    raw = dict(raw)
    ds = raw.pop("dataset", None)
    if not isinstance(ds, dict) or not {"edges", "features", "labels"} <= set(ds):
        raise ValueError("config needs dataset.{name,edges,features,labels}")
    kwargs = {
        key: check_value(f"dataset.{key}", ds.get(key, "dataset"), str)
        for key in ("name", "edges", "features", "labels")
    }
    if "filter" in raw:
        kind = check_value("filter", raw.pop("filter"), str)
        if kind not in FILTER_ALIASES:
            raise ValueError(f"unknown filter: {kind!r}")
        kwargs["filter_kind"] = FILTER_ALIASES[kind]
    if "hidden_dims" in raw:
        raw.pop("layers", None)
    elif "layers" in raw:
        n_layers = check_value("layers", raw.pop("layers"), int)
        if n_layers < 1:
            raise ValueError("layers must be >= 1")
        kwargs["hidden_dims"] = hidden_dims_for_layers(n_layers)
    for key, kind in (("normalization", str), ("self_loop_weight", float),
                      ("epochs", int), ("lr", float), ("out", str)):
        if key in raw:
            kwargs[key] = check_value(key, raw.pop(key), kind)
    for key, kind, scalar in (("hidden_dims", int, False),
                              ("ratios", float, False), ("seeds", int, True),
                              ("lambda_fair", float, True)):
        if key in raw:
            kwargs[key] = tuple(
                kind(v) for v in check_list(key, raw.pop(key), kind, scalar))
    if raw:
        raise ValueError(f"unknown config keys: {sorted(raw)}")
    return RunConfig(**kwargs)


def hidden_dims_for_layers(n_layers: int) -> tuple[int, ...]:
    """L layers as 128-wide hidden stack feeding a 64-dim output."""
    return tuple([128] * (n_layers - 1) + [64])


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        return None if math.isnan(f) else f
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _csv_cell(value) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return ""
    return repr(float(value)) if isinstance(value, float) else str(value)


def _write_csv(path: str, header, rows) -> None:
    """Comma-separated file: ints bare, floats by ``repr`` (full
    precision), ``None`` and NaN as an empty cell (``null`` in
    report.json), anything else as ``str``."""
    lines = [",".join(header)]
    lines.extend(",".join(_csv_cell(v) for v in row) for row in rows)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _mean_std(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean()) if arr.size else float("nan")
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return mean, std


def prepare_dataset(config: RunConfig) -> Dataset:
    dataset = load_dataset(
        config.edges, config.features, config.labels,
        self_loop_weight=config.self_loop_weight,
    )
    feats, _ = normalize_features(dataset.features, config.normalization)
    return replace(dataset, features=feats)


@dataclass
class SeedRun:
    seed: int
    lambda_fair: float
    split: object
    result: object
    test_pairs: np.ndarray
    test_labels: np.ndarray
    test_scores: np.ndarray
    test_auc: float
    same_group: np.ndarray


def run_seed(dataset: Dataset, config: RunConfig, seed: int,
             lambda_fair: float) -> SeedRun:
    """Train one model and score the fixed test pairs."""
    split = split_links(dataset, config.ratios, seed)
    tc = TrainConfig(
        filter_kind=config.filter_kind, hidden_dims=config.hidden_dims,
        epochs=config.epochs, lr=config.lr, lambda_fair=lambda_fair,
        seed=seed,
    )
    result = train(dataset, split, tc)
    h = forward(result.model, result.train_nm, dataset.features)
    test_pairs = np.concatenate([split.test_pos, split.test_neg], axis=0)
    test_labels = np.zeros(test_pairs.shape[0])
    test_labels[: split.test_pos.shape[0]] = 1.0
    test_scores = score_pairs(h, test_pairs)
    auc = roc_auc(test_scores, test_labels).value
    gof = result.train_view.group_of
    same = gof[test_pairs[:, 0]] == gof[test_pairs[:, 1]]
    return SeedRun(
        seed=seed, lambda_fair=lambda_fair, split=split, result=result,
        test_pairs=test_pairs, test_labels=test_labels,
        test_scores=test_scores, test_auc=auc, same_group=same,
    )


def _same_group_auc(run: SeedRun) -> float:
    labels = run.test_labels[run.same_group]
    if labels.size == 0 or labels.min() == labels.max():
        return float("nan")
    return roc_auc(run.test_scores[run.same_group], labels).value


def _open_run(config: RunConfig,
              needs_subgroups: str = "") -> tuple[Dataset, str]:
    """Load the dataset and create the run directory.  A non-empty
    ``needs_subgroups`` names the pipeline that requires subgroup labels."""
    dataset = prepare_dataset(config)
    if needs_subgroups and dataset.t_labels is None:
        raise ValueError(f"{needs_subgroups} requires subgroup labels")
    out_dir = config.run_dir()
    os.makedirs(out_dir, exist_ok=True)
    return dataset, out_dir


def _finish(config: RunConfig, out_dir: str, pipeline: str, fields: dict,
            csvs: dict, files: dict | None = None) -> dict:
    """Write report.json (common header plus ``fields``) and each CSV of
    ``csvs`` (role -> (file name, header, rows)); return the payload with
    the written ``paths``, which also list the already written ``files``."""
    payload = {
        "pipeline": pipeline,
        "dataset": config.name,
        "filter": config.filter_kind,
        "config_hash": config.config_hash,
        "config": config.to_dict(),
        **fields,
    }
    paths = {"report": os.path.join(out_dir, "report.json")}
    _write_json(paths["report"], payload)
    for role, (name, header, rows) in csvs.items():
        paths[role] = os.path.join(out_dir, name)
        _write_csv(paths[role], header, rows)
    paths.update(files or {})
    paths["run_dir"] = out_dir
    payload["paths"] = paths
    return payload


def run_validate_theory(config: RunConfig) -> dict:
    """Train per seed (no penalty), fit per-group slopes on same-group test
    pairs, and report NRMSE/PCC of fitted theoretic scores plus test AUC.

    Writes report.json and pairs.csv; returns the report dict with paths.
    """
    dataset, out_dir = _open_run(config)

    per_seed = []
    csv_rows = []
    for seed in config.seeds:
        run = run_seed(dataset, config, seed, lambda_fair=0.0)
        view = run.result.train_view
        alpha = alpha_vectors(run.result.model, dataset.features)
        report = build_theory_report(
            view, alpha, run.test_pairs[run.same_group],
            run.test_scores[run.same_group], config.filter_kind,
        )
        if bool(report.skipped.all()):
            raise ValueError(
                f"seed {seed}: every refined group was skipped; "
                "theory comparison has no support"
            )
        rows = report.rows
        csv_rows.extend(
            (seed, g, tr, tf, sc)
            for g, tr, tf, sc in zip(rows["group"], rows["tau_raw"],
                                     rows["tau_fitted"], rows["gcn_score"])
        )
        entry = report.to_json_dict()
        entry.update({
            "seed": seed,
            "test_auc": run.test_auc,
            "test_auc_same_group": _same_group_auc(run),
            "best_epoch": run.result.best_epoch,
            "best_val_auc": run.result.best_val_auc,
        })
        per_seed.append(entry)

    nrmse_m, nrmse_s = _mean_std([e["nrmse"] for e in per_seed])
    pcc_m, pcc_s = _mean_std([e["pcc"] for e in per_seed])
    auc_m, auc_s = _mean_std([e["test_auc"] for e in per_seed])
    fields = {
        "per_seed": per_seed,
        "aggregate": {
            "nrmse_mean": nrmse_m, "nrmse_std": nrmse_s,
            "pcc_mean": pcc_m, "pcc_std": pcc_s,
            "test_auc_mean": auc_m, "test_auc_std": auc_s,
        },
    }
    header = ("seed", "group", "tau_raw", "tau_fitted", "gcn_score")
    return _finish(config, out_dir, "validate_theory", fields,
                   {"pairs": ("pairs.csv", header, csv_rows)})


def run_fairness_sweep(config: RunConfig) -> dict:
    """Per penalty weight, train over the seed set and tabulate the mean
    subgroup gap (post-sigmoid, same-group test pairs) and test AUC.

    Rows are sorted by lambda descending.  Writes report.json and
    fairness_table.csv.
    """
    dataset, out_dir = _open_run(config, needs_subgroups="fairness sweep")
    lambdas = tuple(float(lam) for lam in config.lambda_fair)

    table_rows = []
    detail = []
    for lam in sorted(lambdas, reverse=True):
        deltas, aucs = [], []
        for seed in config.seeds:
            run = run_seed(dataset, config, seed, lambda_fair=lam)
            view = run.result.train_view
            assess = delta(
                run.test_pairs[run.same_group],
                run.test_scores[run.same_group],
                view.group_of, dataset.t_labels,
            )
            deltas.append(assess.mean_delta)
            aucs.append(run.test_auc)
            detail.append({
                "lambda_fair": lam,
                "seed": seed,
                "mean_delta": assess.mean_delta,
                "test_auc": run.test_auc,
                "groups": [
                    {"group": g, "delta": d, "n_t1": k1, "n_t2": k2,
                     "skipped": skip, "reason": reason}
                    for g, (d, k1, k2, skip, reason) in enumerate(zip(
                        assess.delta.tolist(), assess.n_t1.tolist(),
                        assess.n_t2.tolist(), assess.skipped.tolist(),
                        assess.reasons,
                    ))
                ],
            })
        d_mean, d_std = _mean_std(deltas)
        a_mean, a_std = _mean_std(aucs)
        table_rows.append({
            "dataset": config.name, "lambda_fair": lam,
            "delta_mean": d_mean, "delta_std": d_std,
            "auc_mean": a_mean, "auc_std": a_std,
        })

    header = ("dataset", "lambda_fair", "delta_mean", "delta_std",
              "auc_mean", "auc_std")
    rows = [[row[key] for key in header] for row in table_rows]
    return _finish(config, out_dir, "fairness_sweep",
                   {"table": table_rows, "runs": detail},
                   {"table": ("fairness_table.csv", header, rows)})


def run_delta_comparison(config: RunConfig) -> dict:
    """Per seed and refined group, the trained-score gap versus the
    theoretic estimate (fitted scores pushed through the same post-sigmoid
    gap), plus the closed form; reports PCC/NRMSE of estimate vs gap."""
    dataset, out_dir = _open_run(config, needs_subgroups="gap comparison")

    scatter = []
    for seed in config.seeds:
        run = run_seed(dataset, config, seed, lambda_fair=0.0)
        view = run.result.train_view
        pairs_sg = run.test_pairs[run.same_group]
        scores_sg = run.test_scores[run.same_group]

        assess = delta(pairs_sg, scores_sg, view.group_of, dataset.t_labels)

        alpha = alpha_vectors(run.result.model, dataset.features)
        report = build_theory_report(view, alpha, pairs_sg, scores_sg,
                                     config.filter_kind)
        rows = report.rows
        fitted_pairs = np.stack([rows["i"], rows["j"]], axis=1)
        est = delta(fitted_pairs, rows["tau_fitted"], view.group_of,
                    dataset.t_labels)
        closed = delta_hat(view, report.rho2, report.c1, dataset.t_labels,
                           config.filter_kind)

        for g in np.flatnonzero(~assess.skipped & ~est.skipped).tolist():
            scatter.append({
                "seed": seed, "group": g,
                "delta": float(assess.delta[g]),
                "delta_hat": float(est.delta[g]),
                "delta_hat_closed_form": float(closed.delta_hat[g]),
                "disparity": float(closed.disparity[g]),
                "n_t1": int(assess.n_t1[g]), "n_t2": int(assess.n_t2[g]),
            })

    deltas = np.array([r["delta"] for r in scatter], dtype=np.float64)
    estimates = np.array([r["delta_hat"] for r in scatter], dtype=np.float64)
    if deltas.size >= 2:
        corr = pcc(estimates, deltas)
        err = nrmse(estimates, deltas)
        corr_v, err_v = corr.value, err.value
    else:
        corr_v = err_v = float("nan")

    fields = {
        "n_points": int(deltas.size),
        "pcc": corr_v,
        "nrmse": err_v,
        "points": scatter,
    }
    header = ("seed", "group", "delta", "delta_hat", "delta_hat_closed_form",
              "disparity")
    rows = [[r[key] for key in header] for r in scatter]
    return _finish(config, out_dir, "delta_comparison", fields,
                   {"scatter": ("pairs.csv", header, rows)})


def run_train(config: RunConfig) -> dict:
    """Train a single model (first seed, first lambda) and write the
    checkpoint, history CSV, and a summary report."""
    dataset, out_dir = _open_run(config)
    seed = config.seeds[0]
    lam = config.lambda_fair[0]

    run = run_seed(dataset, config, seed, lambda_fair=lam)
    ckpt_path = os.path.join(out_dir, "checkpoint.npz")
    save_checkpoint(ckpt_path, run.result.model, seed, config.to_dict())

    fields = {
        "seed": seed,
        "lambda_fair": lam,
        "best_epoch": run.result.best_epoch,
        "best_val_auc": run.result.best_val_auc,
        "test_auc": run.test_auc,
        "test_auc_same_group": _same_group_auc(run),
    }
    header = ("epoch", "train_loss", "reg_term", "val_auc")
    return _finish(config, out_dir, "train", fields,
                   {"history": ("history.csv", header, run.result.history)},
                   files={"checkpoint": ckpt_path})
