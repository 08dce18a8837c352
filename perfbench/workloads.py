"""The benchmark's workloads: how each makes its inputs, what it runs, and
how its outputs are checked.

Every workload reads only files written by ``palink.synth.synth_generate``
at the workload seed.  ``prepare`` and ``check`` run in the benchmark's own
process; ``execute`` runs in a fresh child process per repetition.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import traceback

import numpy as np

# Trainings per pipeline run are cut from the paper-scale settings so that
# several repetitions fit in one measured run; the beds and the per-epoch
# work are unchanged.
SWEEP_SEEDS = (0, 1)
SWEEP_LAMBDAS = (0.0, 1.0, 2.0, 4.0)
THEORY_EPOCHS = 20
BOUND_LAYERS = (1, 2, 4)
KINDS = ("symmetric", "random_walk")
REFERENCE_RTOL = 1e-9


class Workload:
    """One workload; its reason for being in the benchmark is in
    BENCHMARK.json."""

    name: str
    bed: dict  # SynthConfig arguments other than the seed

    def operations(self) -> int:
        raise NotImplementedError

    def prepare(self, out_dir: str, seed: int) -> dict:
        """Write the inputs under ``out_dir``; return what the child needs."""
        from palink.synth import SynthConfig, synth_generate

        paths = synth_generate(SynthConfig(seed=seed, **self.bed),
                               os.path.join(out_dir, "inputs"))
        return {"workload": self.name, "inputs": paths,
                "runs": os.path.join(out_dir, "runs")}

    def reference(self, prepared: dict):
        """Expected values computed outside the timed region, or None."""
        return None

    def execute(self, prepared: dict):
        """The timed top-level call (child side).  Returns
        ``(outputs, failed_operations)``."""
        raise NotImplementedError

    def check(self, outputs, reference) -> tuple[list[str], dict]:
        """Problems found in one repetition's outputs, and the quality
        figures read from them."""
        raise NotImplementedError


class _Pipeline(Workload):
    command: str
    run: dict

    def prepare(self, out_dir, seed):
        prepared = super().prepare(out_dir, seed)
        paths = prepared["inputs"]
        config = {
            "dataset": {"name": self.name, "edges": paths["edges"],
                        "features": paths["features"],
                        "labels": paths["labels"]},
            "normalization": "minmax_signed",
            "hidden_dims": [128, 64],
            "filter": "symmetric",
            "out": prepared["runs"],
            **self.run,
        }
        prepared["config"] = os.path.join(out_dir, "config.json")
        with open(prepared["config"], "w") as fh:
            json.dump(config, fh, indent=2, sort_keys=True)
        return prepared

    def operations(self):
        return len(self.run["seeds"]) * len(self.run["lambda_fair"])

    def execute(self, prepared):
        from palink.cli import main

        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = main([self.command, "--config", prepared["config"]])
        if code != 0:
            return None, self.operations()
        return json.loads(printed.getvalue()), 0

    def check(self, outputs, reference):
        report_path = outputs["report"]
        with open(report_path, "rb") as fh:
            blob = fh.read()
        report = json.loads(blob)
        problems, quality = self.check_report(report)
        for role, path in outputs.items():
            if role not in ("report", "run_dir"):
                with open(path) as fh:
                    rows = [line.split(",") for line in fh.read().splitlines()]
                if len(rows) < 2 or any(len(r) != len(rows[0]) for r in rows):
                    problems.append(f"{role} CSV is malformed")
        quality["report_sha256"] = hashlib.sha256(blob).hexdigest()
        return problems, quality


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def _in_unit(value) -> bool:
    return _finite(value) and 0.0 <= value <= 1.0


class SweepSmall(_Pipeline):
    name = "sweep_small"
    command = "fairness-sweep"
    bed = dict(sizes=(100, 100), p_in=0.15, p_out=0.01, t1_fraction=0.25,
               disparity_boost=10.0, feature_dim=8, feature_separation=0.5)
    run = {"epochs": 100, "seeds": list(SWEEP_SEEDS),
           "lambda_fair": list(SWEEP_LAMBDAS)}

    def check_report(self, report):
        problems = []
        if report.get("pipeline") != "fairness_sweep":
            problems.append("report is not a fairness sweep")
        table = report.get("table", [])
        lambdas = [row.get("lambda_fair") for row in table]
        if lambdas != sorted(SWEEP_LAMBDAS, reverse=True):
            problems.append(f"table lambdas {lambdas}")
        for row in table:
            if not all(_finite(row.get(k)) for k in
                       ("delta_mean", "delta_std", "auc_std")):
                problems.append(f"non-finite table row {row}")
            if not _in_unit(row.get("auc_mean")):
                problems.append(f"auc_mean outside [0, 1]: {row}")
        runs = report.get("runs", [])
        if len(runs) != self.operations():
            problems.append(f"{len(runs)} runs, expected {self.operations()}")
        if not all(_in_unit(r.get("test_auc")) for r in runs):
            problems.append("a run's test_auc is outside [0, 1]")
        if problems:
            return problems, {}
        by_lambda = {row["lambda_fair"]: row for row in table}
        low, high = by_lambda[0.0], by_lambda[max(SWEEP_LAMBDAS)]
        quality = {
            "test_auc": low["auc_mean"],
            "gap_ratio": high["delta_mean"] / low["delta_mean"]
            if low["delta_mean"] else None,
            "auc_drop": low["auc_mean"] - high["auc_mean"],
        }
        return problems, quality


class TheoryMid(_Pipeline):
    name = "theory_mid"
    command = "validate-theory"
    bed = dict(sizes=(1000, 1000, 1000), p_in=0.03, p_out=0.0005,
               t1_fraction=0.3, feature_dim=16)
    run = {"epochs": THEORY_EPOCHS, "seeds": [0], "lambda_fair": [0.0]}

    def check_report(self, report):
        problems = []
        if report.get("pipeline") != "validate_theory":
            problems.append("report is not a theory validation")
        if len(report.get("per_seed", [])) != self.operations():
            problems.append("per_seed has the wrong length")
        agg = report.get("aggregate", {})
        if not _in_unit(agg.get("test_auc_mean")):
            problems.append(f"test_auc_mean {agg.get('test_auc_mean')}")
        pcc = agg.get("pcc_mean")
        if not (_finite(pcc) and -1.0 <= pcc <= 1.0):
            problems.append(f"pcc_mean {pcc}")
        nrmse = agg.get("nrmse_mean")
        if not (_finite(nrmse) and nrmse >= 0.0):
            problems.append(f"nrmse_mean {nrmse}")
        if problems:
            return problems, {}
        return problems, {"test_auc": agg["test_auc_mean"],
                          "theory_pcc": pcc, "theory_nrmse": nrmse}


class BoundsMid(Workload):
    name = "bounds_mid"
    # n=1200 rather than 2100 so that several repetitions fit in one run;
    # still below the spectral module's dense SVD and eigensolver limits.
    bed = dict(sizes=(400, 400, 400), p_in=0.05, p_out=0.001,
               t1_fraction=0.3, feature_dim=16)

    def operations(self):
        return len(KINDS) * len(BOUND_LAYERS)

    def execute(self, prepared):
        from palink.graphdata import load_dataset, within_group_structure
        from palink.spectral import (block_spectrum, normalized_matrix,
                                     residual_and_bounds)

        paths = prepared["inputs"]
        dataset = load_dataset(paths["edges"], paths["features"],
                               paths["labels"])
        view = within_group_structure(dataset)
        outputs, failed = {}, 0
        for kind in KINDS:
            try:
                full = normalized_matrix(dataset, kind)
                within = normalized_matrix(view, kind)
                summary = block_spectrum(view, kind)
            except Exception:  # counted per operation, the run goes on
                traceback.print_exc()
                failed += len(BOUND_LAYERS)
                continue
            for L in BOUND_LAYERS:
                try:
                    b = residual_and_bounds(full, within, summary, L, view)
                except Exception:  # counted per operation
                    traceback.print_exc()
                    failed += 1
                    continue
                outputs[f"{kind}/{L}"] = {
                    "xi_norm": b.xi_norm, "phat_norm": b.phat_norm,
                    "cross_term": b.cross_term,
                    "zeta": [None if math.isnan(z) else float(z)
                             for z in b.zeta],
                    "lambda_gaps": [float(g) for g in b.lambda_gaps],
                }
        return outputs, failed

    def reference(self, prepared):
        """Dense operator norms built straight from the input files, with
        none of palink's operator code."""
        paths = prepared["inputs"]
        edges = np.loadtxt(paths["edges"], dtype=np.int64, comments="#",
                           ndmin=2)
        with open(paths["labels"]) as fh:
            groups = [line.split("\t")[1] for line in fh if line.strip()]
        n = len(groups)
        group = np.unique(groups, return_inverse=True)[1]
        adj = np.zeros((n, n))
        adj[edges[:, 0], edges[:, 1]] = 1.0
        adj[edges[:, 1], edges[:, 0]] = 1.0
        within = adj * (group[:, None] == group[None, :])
        adj += np.eye(n)  # the datasets' default self-loop weight of 1
        within += np.eye(n)
        ref = {}
        for kind in KINDS:
            full_op, within_op = (_normalize(a, kind) for a in (adj, within))
            ref[kind] = {
                "xi_norm": float(np.linalg.norm(full_op - within_op, 2)),
                "phat_norm": float(np.linalg.norm(within_op, 2)),
            }
        return ref

    def check(self, outputs, reference):
        problems = []
        expected = {f"{kind}/{L}" for kind in KINDS for L in BOUND_LAYERS}
        for key in sorted(expected & set(outputs)):
            out, ref = outputs[key], reference[key.split("/")[0]]
            for name in ("xi_norm", "phat_norm"):
                err = abs(out[name] - ref[name]) / max(abs(ref[name]), 1e-300)
                if not err <= REFERENCE_RTOL:
                    problems.append(f"{key} {name} {out[name]!r} vs dense "
                                    f"reference {ref[name]!r} (rel {err:.2e})")
            L = int(key.split("/")[1])
            cross = sum(math.comb(L, l) * out["xi_norm"] ** l
                        * out["phat_norm"] ** (L - l) for l in range(1, L + 1))
            if not math.isclose(out["cross_term"], cross, rel_tol=1e-12):
                problems.append(f"{key} cross_term {out['cross_term']!r}")
            if not all(z is None or (_finite(z) and z >= out["cross_term"])
                       for z in out["zeta"]):
                problems.append(f"{key} zeta below the cross term or infinite")
            if not all(_finite(g) and -1e-9 <= g <= 1.0 + 1e-9
                       for g in out["lambda_gaps"]):
                problems.append(f"{key} lambda gap outside [0, 1]")
        blob = json.dumps(outputs, sort_keys=True).encode()
        return problems, {"report_sha256": hashlib.sha256(blob).hexdigest()}


def _normalize(adj: np.ndarray, kind: str) -> np.ndarray:
    deg = adj.sum(axis=1)
    if kind == "symmetric":
        s = 1.0 / np.sqrt(deg)
        return adj * s[:, None] * s[None, :]
    return adj / deg[:, None]


WORKLOADS = {w.name: w for w in (SweepSmall(), TheoryMid(), BoundsMid())}
