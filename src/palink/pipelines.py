"""End-to-end pipelines: theory validation, subgroup-gap comparison, and
the fairness-penalty sweep, each emitting deterministic JSON/CSV reports.

Run directories embed the dataset name, the pipeline, the filter kind and
a hash of the config, so pipelines and sweeps with different settings
never collide.

A pipeline's (seed, lambda) trainings are independent and fully seeded, so
they run in forked worker processes, as many as the usable CPUs hold at the
BLAS's thread count, and their results are gathered in task order: at a
given BLAS thread count the reports are byte-identical for any worker count.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import typing
from dataclasses import dataclass, fields, replace

import numpy as np

from .fairness import delta, delta_hat
from .gcn import forward, score_pairs
from .graphdata import Dataset, load_dataset, normalize_features
from .metrics import nrmse, pcc, roc_auc
from .theory import alpha_vectors, build_theory_report
from .training import (DEFAULT_RATIOS, TrainConfig, save_checkpoint,
                       split_links, train)

FILTER_ABBREV = {"symmetric": "sym", "random_walk": "rw"}
FILTER_ALIASES = {alias: kind for kind, abbrev in FILTER_ABBREV.items()
                  for alias in (kind, abbrev)}
# The RunConfig fields that its JSON layout nests in a "dataset" block.
_DATASET_FIELDS = ("name", "edges", "features", "labels")


@dataclass(frozen=True)
class RunConfig:
    name: str
    edges: str
    features: str
    labels: str
    normalization: str = "none"
    self_loop_weight: float = 1.0
    filter_kind: str = TrainConfig.filter_kind
    hidden_dims: tuple[int, ...] = TrainConfig.hidden_dims
    epochs: int = TrainConfig.epochs
    lr: float = TrainConfig.lr
    ratios: tuple[float, float, float] = DEFAULT_RATIOS
    seeds: tuple[int, ...] = tuple(range(10))
    lambda_fair: tuple[float, ...] = (0.0, 1.0, 2.0, 4.0)
    out: str = "runs"

    def to_dict(self) -> dict:
        """The JSON layout: the dataset fields in a ``dataset`` block,
        ``filter_kind`` as ``filter``, tuples as lists."""
        layout = {"filter" if f.name == "filter_kind" else f.name:
                  list(v) if isinstance(v := getattr(self, f.name), tuple)
                  else v for f in fields(self)}
        return {"dataset": {key: layout.pop(key) for key in _DATASET_FIELDS},
                **layout}

    @property
    def config_hash(self) -> str:
        payload = self.to_dict()
        payload.pop("out")
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:8]

    def run_dir(self, pipeline: str) -> str:
        abbrev = FILTER_ABBREV[self.filter_kind]
        return os.path.join(
            self.out, f"{self.name}_{pipeline}_{abbrev}_{self.config_hash}")


_JSON_TYPES = {int: ((int,), "an integer"),
               float: ((int, float), "a number"), str: ((str,), "a string")}


def _check(key: str, value, hint):
    """``value`` as a value of the field type ``hint``: int, float (a
    finite number a float holds; an integer counts, a boolean does not), str,
    ``tuple[T, ...]`` (a non-empty list, its items made T; a fixed length
    is left to the user of the field) or ``T | tuple[T, ...]``; otherwise
    a ValueError that names ``key``."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)) or not value:
            raise ValueError(f"config key {key!r} must be a non-empty list, "
                             f"got {value!r}")
        return tuple(args[0](_check(key, v, args[0])) for v in value)
    if args:  # T | tuple[T, ...]
        return _check(key, value, args[isinstance(value, (list, tuple))])
    types, name = _JSON_TYPES[hint]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ValueError(f"config key {key!r} must be {name}, got {value!r}")
    # NaN and an int past the float range fail this too
    if hint is float and not abs(value) <= sys.float_info.max:
        raise ValueError(f"config key {key!r} must be finite, got {value!r}")
    return value


def _read_fields(cls, raw: dict, what: str = "config") -> dict:
    """``raw``'s values checked against the annotations of the dataclass
    ``cls``; a key that is not one of its fields is a ValueError."""
    hints = typing.get_type_hints(cls)
    unknown = sorted(set(raw) - set(hints))
    if unknown:
        raise ValueError(f"unknown {what} keys: {unknown}")
    return {key: _check(key, value, hints[key]) for key, value in raw.items()}


def config_from_dict(raw: dict) -> RunConfig:
    """The RunConfig of ``RunConfig.to_dict``'s JSON layout, where
    ``dataset.name`` is optional, ``filter`` may be an alias and ``seeds``
    and ``lambda_fair`` may be bare values.  The training values are checked
    here, through one ``TrainConfig`` per seed and penalty weight."""
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    raw = dict(raw)
    ds = raw.pop("dataset", None)
    if not isinstance(ds, dict) or not {"edges", "features", "labels"} <= set(ds):
        raise ValueError("config needs dataset.{name,edges,features,labels}")
    # a field name is a key only where the layout spells it so
    unknown = sorted({f"dataset.{k}" for k in set(ds) - set(_DATASET_FIELDS)}
                     | (set(raw) & {*_DATASET_FIELDS, "filter_kind"}))
    if unknown:
        raise ValueError(f"unknown config keys: {unknown}")
    hints = typing.get_type_hints(RunConfig)
    kwargs = {key: _check(f"dataset.{key}", value, hints[key])
              for key, value in {"name": "dataset", **ds}.items()}
    if "filter" in raw:
        kind = _check("filter", raw.pop("filter"), hints["filter_kind"])
        if kind not in FILTER_ALIASES:
            raise ValueError(f"unknown filter: {kind!r}")
        kwargs["filter_kind"] = FILTER_ALIASES[kind]
    for key in ("seeds", "lambda_fair"):
        if key in raw and not isinstance(raw[key], (list, tuple)):
            raw[key] = [raw[key]]
    config = RunConfig(**kwargs, **_read_fields(RunConfig, raw))
    for seed in config.seeds:
        for lam in config.lambda_fair:
            TrainConfig(epochs=config.epochs, lr=config.lr, lambda_fair=lam,
                        seed=seed)
    return config


def _jsonable(obj):
    """``obj`` with each NaN float made None, which JSON writes as null."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and math.isnan(obj):
        return None
    return obj


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _mean_std(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean()) if arr.size else float("nan")
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return mean, std


def prepare_dataset(config: RunConfig) -> tuple[Dataset, dict]:
    """The config's dataset, features normalized, and the counts of what
    loading and normalizing flagged (the report header's ``input``)."""
    dataset = load_dataset(
        config.edges, config.features, config.labels,
        self_loop_weight=config.self_loop_weight,
    )
    feats, counts = normalize_features(dataset.features, config.normalization)
    return replace(dataset, features=feats), {
        "n_duplicate_edges": dataset.n_duplicate_edges, **counts}


@dataclass
class SeedRun:
    result: object
    test_pairs: np.ndarray
    test_scores: np.ndarray
    test_auc: float
    test_auc_same_group: float


def run_seed(dataset: Dataset, config: RunConfig, seed: int,
             lambda_fair: float) -> SeedRun:
    """Train one model and score the fixed test pairs: AUC over all of
    them and over those within one refined group of the training view."""
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
    gof = result.train_view.group_of
    same = gof[test_pairs[:, 0]] == gof[test_pairs[:, 1]]
    return SeedRun(
        result=result, test_pairs=test_pairs, test_scores=test_scores,
        test_auc=roc_auc(test_scores, test_labels).value,
        test_auc_same_group=roc_auc(test_scores[same],
                                    test_labels[same]).value,
    )


# The variables that set a BLAS's thread count, in the order OpenBLAS and
# MKL read them.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "OMP_NUM_THREADS")


def _max_workers() -> int:
    """How many training processes fit on the CPUs this process may use:
    the usable CPUs divided by the threads each process's BLAS runs, at
    least 1.

    The BLAS thread count is the first of ``_BLAS_THREAD_VARS`` that is a
    positive integer.  With none set, OpenBLAS and MKL run one thread per
    CPU, so workers would only oversubscribe the CPUs (on 2 CPUs, two
    workers of two BLAS threads each made a 40-training sweep at n=200
    2.6-3.3x slower than one process), and the runs stay in this process.
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    blas_threads = cpus
    for var in _BLAS_THREAD_VARS:
        value = os.environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            blas_threads = int(value)
            break
    return max(1, cpus // blas_threads)


def _map_runs(run, dataset: Dataset, config: RunConfig, tasks) -> list:
    """``[run(dataset, config, seed, lam) for seed, lam in tasks]``.

    The runs are spread over ``min(len(tasks), _max_workers())`` worker
    processes forked from this one, and their results are returned in task
    order; a run's exception is raised here, the first in task order.
    ``run`` must be a module-level function whose result pickles.  With one
    worker, or where the platform cannot fork, the runs are called here
    and ``multiprocessing`` is not imported.  No worker outlives the call.
    """
    workers = min(len(tasks), _max_workers())
    if workers <= 1 or not hasattr(os, "fork"):
        return [run(dataset, config, seed, lam) for seed, lam in tasks]

    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # fork, not spawn: a spawned worker imports NumPy and SciPy afresh,
    # about 0.6 s on 2 vCPUs, which is longer than a small training.
    pool = ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"))
    try:
        futures = [pool.submit(run, dataset, config, seed, lam)
                   for seed, lam in tasks]
        return [future.result() for future in futures]
    except BrokenProcessPool as exc:
        raise ChildProcessError(
            f"a training worker process exited unexpectedly: {exc}") from None
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _drive(config: RunConfig, pipeline: str, run, tasks, summarize,
           needs_subgroups: str = "") -> dict:
    """Run ``pipeline``: ``_map_runs(run, dataset, config, tasks)``, then
    write report.json (the common header plus the fields ``summarize``
    makes of the results) and the files it names, role -> ``(file name,
    write, *args)``; return the report with the written ``paths``.  A
    non-empty ``needs_subgroups`` asks for subgroup labels.  The run
    directory is made only once every run has succeeded, but a name the
    file-system encoding cannot hold fails before the first run."""
    dataset, flagged = prepare_dataset(config)
    if needs_subgroups and dataset.t_labels is None:
        raise ValueError(f"{needs_subgroups} requires subgroup labels")
    out_dir = config.run_dir(pipeline)
    os.fsencode(out_dir)
    fields, files = summarize(_map_runs(run, dataset, config, tasks))
    os.makedirs(out_dir, exist_ok=True)
    payload = {
        "pipeline": pipeline,
        "config_hash": config.config_hash,
        "config": config.to_dict(),
        "input": flagged,
        **fields,
    }
    paths = {"report": os.path.join(out_dir, "report.json")}
    _write_json(paths["report"], payload)
    for role, (name, write, *args) in files.items():
        paths[role] = os.path.join(out_dir, name)
        write(paths[role], *args)
    paths["run_dir"] = out_dir
    payload["paths"] = paths
    return payload


def _records(columns: dict, rows=slice(None)) -> list[dict]:
    """One dict of Python scalars per row of ``columns`` (name -> one value
    per row, or one value for every row), for the rows ``rows`` selects."""
    n = max(np.size(value) for value in columns.values() if np.ndim(value))
    lists = {key: np.broadcast_to(value, (n,))[rows].tolist()
             for key, value in columns.items()}
    return [dict(zip(lists, row)) for row in zip(*lists.values())]


def _csv(name: str, header, records) -> tuple:
    """The ``_drive`` file entry of the CSV of ``records``' columns."""
    return name, _write_csv, header, [[r[key] for key in header]
                                      for r in records]


def _fit_theory(dataset: Dataset, config: RunConfig, seed: int, lam: float):
    """One training and its theory report over all its test pairs."""
    run = run_seed(dataset, config, seed, lam)
    alpha = alpha_vectors(run.result.model, dataset.features)
    return run, build_theory_report(run.result.train_view, alpha,
                                    run.test_pairs, run.test_scores,
                                    config.filter_kind)


def _theory_run(dataset: Dataset, config: RunConfig, seed: int,
                lam: float) -> tuple[dict, dict]:
    """One validate-theory training: the seed's report entry and its
    theory report's rows."""
    run, report = _fit_theory(dataset, config, seed, lam)
    if (report.reasons != "").all():
        raise ValueError(
            f"seed {seed}: every refined group was skipped; "
            "theory comparison has no support"
        )
    return {
        "seed": seed,
        "nrmse": report.nrmse.value,
        "pcc": report.pcc.value,
        "n_pairs_used": report.rows["tau_raw"].size,
        "n_dropped_cross_group": report.n_dropped_cross,
        "groups": _records({
            "group": np.arange(report.rho2.size), "rho2": report.rho2,
            "c1": report.c1, "n_pairs": report.n_pairs,
            "reason": report.reasons,
        }),
        "test_auc": run.test_auc,
        "test_auc_same_group": run.test_auc_same_group,
        "best_epoch": run.result.best_epoch,
        "best_val_auc": run.result.best_val_auc,
    }, report.rows


def run_validate_theory(config: RunConfig) -> dict:
    """Train per seed (no penalty), fit per-group slopes on same-group test
    pairs, and report NRMSE/PCC of fitted theoretic scores plus test AUC.

    Writes report.json and pairs.csv; returns the report dict with paths.
    """
    def summarize(runs):
        per_seed = [entry for entry, _ in runs]
        aggregate = {}
        for key in ("nrmse", "pcc", "test_auc"):
            aggregate[f"{key}_mean"], aggregate[f"{key}_std"] = _mean_std(
                [entry[key] for entry in per_seed])
        records = [record for entry, rows in runs
                   for record in _records({"seed": entry["seed"], **rows})]
        header = ("seed", "group", "tau_raw", "tau_fitted", "gcn_score")
        return ({"per_seed": per_seed, "aggregate": aggregate},
                {"pairs": _csv("pairs.csv", header, records)})

    return _drive(config, "validate_theory", _theory_run,
                  [(seed, 0.0) for seed in config.seeds], summarize)


def _sweep_run(dataset: Dataset, config: RunConfig, seed: int,
               lam: float) -> dict:
    """One fairness-sweep training: its entry of the report's ``runs``."""
    run = run_seed(dataset, config, seed, lam)
    assess = delta(run.test_pairs, run.test_scores,
                   run.result.train_view.group_of, dataset.t_labels)
    return {
        "lambda_fair": lam,
        "seed": seed,
        "mean_delta": assess.mean_delta,
        "test_auc": run.test_auc,
        "groups": _records({
            "group": np.arange(assess.delta.size), "delta": assess.delta,
            "n_t1": assess.n_t1, "n_t2": assess.n_t2, "reason": assess.reasons,
        }),
    }


def run_fairness_sweep(config: RunConfig) -> dict:
    """Per penalty weight, train over the seed set and tabulate the mean
    subgroup gap (post-sigmoid, same-group test pairs) and test AUC.

    Rows are sorted by lambda descending.  Writes report.json and
    fairness_table.csv.
    """
    lambdas = sorted((float(lam) for lam in config.lambda_fair), reverse=True)
    n_seeds = len(config.seeds)

    def summarize(detail):
        table = []
        for k, lam in enumerate(lambdas):
            runs = detail[k * n_seeds:(k + 1) * n_seeds]
            d_mean, d_std = _mean_std([r["mean_delta"] for r in runs])
            a_mean, a_std = _mean_std([r["test_auc"] for r in runs])
            table.append({
                "dataset": config.name, "lambda_fair": lam,
                "delta_mean": d_mean, "delta_std": d_std,
                "auc_mean": a_mean, "auc_std": a_std,
            })
        header = ("dataset", "lambda_fair", "delta_mean", "delta_std",
                  "auc_mean", "auc_std")
        return ({"table": table, "runs": detail},
                {"table": _csv("fairness_table.csv", header, table)})

    return _drive(config, "fairness_sweep", _sweep_run,
                  [(seed, lam) for lam in lambdas for seed in config.seeds],
                  summarize, needs_subgroups="fairness sweep")


def _delta_run(dataset: Dataset, config: RunConfig, seed: int,
               lam: float) -> list[dict]:
    """One delta-compare training: its scatter points, one per refined
    group where both the trained and the estimated gap are defined."""
    run, report = _fit_theory(dataset, config, seed, lam)
    group_of = run.result.train_view.group_of
    assess = delta(run.test_pairs, run.test_scores, group_of,
                   dataset.t_labels)
    rows = report.rows
    fitted_pairs = np.stack([rows["i"], rows["j"]], axis=1)
    est = delta(fitted_pairs, rows["tau_fitted"], group_of, dataset.t_labels)
    closed, disparity = delta_hat(run.result.train_view, report.rho2,
                                  report.c1, dataset.t_labels,
                                  config.filter_kind)
    return _records({
        "seed": seed, "group": np.arange(assess.delta.size),
        "delta": assess.delta, "delta_hat": est.delta,
        "delta_hat_closed_form": closed, "disparity": disparity,
        "n_t1": assess.n_t1, "n_t2": assess.n_t2,
    }, (assess.reasons == "") & (est.reasons == ""))


def run_delta_comparison(config: RunConfig) -> dict:
    """Per seed and refined group, the trained-score gap versus the
    theoretic estimate (fitted scores pushed through the same post-sigmoid
    gap), plus the closed form; reports PCC/NRMSE of estimate vs gap.
    The random-walk estimate is zero but for rounding, so its PCC and NRMSE
    are null.
    """
    def summarize(runs):
        scatter = [point for points in runs for point in points]
        deltas = np.array([r["delta"] for r in scatter], dtype=np.float64)
        estimates = np.array([r["delta_hat"] for r in scatter],
                             dtype=np.float64)
        fields = {
            "n_points": int(deltas.size),
            "pcc": pcc(estimates, deltas).value,
            "nrmse": nrmse(estimates, deltas).value,
            "points": scatter,
        }
        if config.filter_kind == "random_walk":
            reason = "estimate_zero_under_random_walk"
            fields.update(pcc=None, pcc_reason=reason, nrmse=None,
                          nrmse_reason=reason)
        header = ("seed", "group", "delta", "delta_hat",
                  "delta_hat_closed_form", "disparity")
        return fields, {"scatter": _csv("pairs.csv", header, scatter)}

    return _drive(config, "delta_comparison", _delta_run,
                  [(seed, 0.0) for seed in config.seeds], summarize,
                  needs_subgroups="gap comparison")


def run_train(config: RunConfig) -> dict:
    """Train a single model (first seed, first lambda) and write the
    checkpoint, history CSV, and a summary report."""
    seed, lam = config.seeds[0], config.lambda_fair[0]

    def summarize(runs):
        (run,) = runs
        fields = {
            "seed": seed,
            "lambda_fair": lam,
            "best_epoch": run.result.best_epoch,
            "best_val_auc": run.result.best_val_auc,
            "test_auc": run.test_auc,
            "test_auc_same_group": run.test_auc_same_group,
        }
        header = ("epoch", "train_loss", "reg_term", "val_auc")
        return fields, {
            "history": ("history.csv", _write_csv, header,
                        run.result.history),
            "checkpoint": ("checkpoint.npz", save_checkpoint,
                           run.result.model, seed, config.to_dict()),
        }

    return _drive(config, "train", run_seed, [(seed, lam)], summarize)
