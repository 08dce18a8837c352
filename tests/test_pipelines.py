"""End-to-end pipeline runs on a tiny synthetic bed, plus config parsing
and the command-line entry point."""
from __future__ import annotations

import csv
import dataclasses
import json
import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from palink import pipelines
from palink.cli import main
from palink.fairness import delta
from palink.graphdata import within_group_structure
from palink.metrics import nrmse, pcc
from palink.pipelines import (
    _write_csv,
    config_from_dict,
    prepare_dataset,
    run_delta_comparison,
    run_fairness_sweep,
    run_seed,
    run_train,
    run_validate_theory,
)
from palink.synth import SynthConfig, synth_generate
from palink.training import load_checkpoint, split_links


@pytest.fixture(scope="module")
def tiny_bed(tmp_path_factory):
    root = tmp_path_factory.mktemp("bed")
    cfg = SynthConfig(sizes=(24, 24), p_in=0.5, p_out=0.02,
                      t1_fraction=0.3, disparity_boost=4.0,
                      feature_dim=4, seed=0)
    paths = synth_generate(cfg, str(root / "data"))
    return root, paths


def csv_cell(value) -> str:
    """How a report.json value must appear in a CSV cell."""
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


def read_outputs(payload) -> dict:
    """Role -> bytes of every file a pipeline wrote."""
    out = {}
    for role, path in payload["paths"].items():
        if role != "run_dir":
            with open(path, "rb") as fh:
                out[role] = fh.read()
    return out


def seed_and_pid(dataset, config, seed, lam) -> tuple[int, int]:
    """A per-run function for ``_map_runs``: its seed and the process it
    ran in."""
    return seed, os.getpid()


def split_and_view(dataset, config, seed):
    """The seed's link split and the refined groups of its training view."""
    split = split_links(dataset, config.ratios, seed)
    return split, within_group_structure(
        dataclasses.replace(dataset, edges=split.train_pos))


def base_config(tiny_bed, **kw):
    root, paths = tiny_bed
    raw = {
        "dataset": {"name": "tiny", "edges": paths["edges"],
                    "features": paths["features"],
                    "labels": paths["labels"]},
        "normalization": "minmax_signed",
        "hidden_dims": [8, 4],
        "epochs": 4,
        "seeds": [0, 1],
        "lambda_fair": [0.0, 1.0],
        "out": str(root / "runs"),
    }
    raw.update(kw)
    return config_from_dict(raw)


class TestConfigParsing:
    def raw(self):
        return {
            "dataset": {"name": "x", "edges": "e", "features": "f",
                        "labels": "l"},
        }

    def test_defaults(self):
        cfg = config_from_dict(self.raw())
        assert cfg.filter == "symmetric"
        assert cfg.hidden_dims == (128, 64)
        assert cfg.epochs == 100
        assert cfg.lr == 0.01
        assert cfg.ratios == (0.85, 0.05, 0.10)
        assert cfg.seeds == tuple(range(10))
        assert cfg.lambda_fair == (0.0, 1.0, 2.0, 4.0)

    def test_dataset_block_required(self):
        with pytest.raises(ValueError):
            config_from_dict({"epochs": 3})
        with pytest.raises(ValueError):
            config_from_dict({"dataset": {"edges": "e", "features": "f"}})

    def test_unknown_keys_rejected(self):
        # a field name is a config key only where the layout spells it so
        for key in ("learning_rate", "filter_kind", "edges", "layers"):
            raw = self.raw()
            raw[key] = "x"
            with pytest.raises(ValueError,
                               match=rf"unknown config keys: \['{key}'\]"):
                config_from_dict(raw)

    def test_filter_aliases(self):
        raw = self.raw()
        raw["filter"] = "rw"
        assert config_from_dict(raw).filter == "random_walk"
        raw["filter"] = "symmetric"
        assert config_from_dict(raw).filter == "symmetric"
        cfg = dataclasses.replace(config_from_dict(raw), filter="rw")
        assert cfg.filter == "random_walk"
        assert cfg.run_dir("train") == os.path.join(
            "runs", f"x_train_rw_{cfg.config_hash}")
        raw["filter"] = "laplacian"
        with pytest.raises(ValueError):
            config_from_dict(raw)

    @pytest.mark.parametrize("extra", [
        {},
        {"filter": "rw", "hidden_dims": [5, 4], "seeds": 4, "lambda_fair": 2,
         "lr": 1, "self_loop_weight": 0, "ratios": [0.8, 0.1, 0.1],
         "normalization": "minmax_signed", "out": "elsewhere"},
    ])
    def test_round_trip(self, extra):
        cfg = config_from_dict({**self.raw(), **extra})
        assert config_from_dict(dataclasses.asdict(cfg)) == cfg
        assert config_from_dict(
            json.loads(json.dumps(dataclasses.asdict(cfg)))) == cfg

    def test_hash_of_the_default_layout_is_pinned(self):
        # every run directory name embeds this hash: a change to the JSON
        # layout or its encoding renames all of them
        assert config_from_dict(self.raw()).config_hash == "91a6478f"

    def test_readme_lists_every_config_key(self):
        readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
        with open(readme, encoding="utf-8") as fh:
            text = fh.read()
        table = text.split("| key | default | meaning |", 1)[1]
        table = table.split("\n\n", 1)[0]
        documented = set()
        for row in table.splitlines()[2:]:
            cell = row.split("|")[1]
            for key in re.findall(r"`([^`]+)`", cell):
                prefix, brace, names = key.partition("{")
                names = names.rstrip("}").split(",") if brace else [""]
                documented.update(prefix + name for name in names)
        layout = dataclasses.asdict(config_from_dict(self.raw()))
        written = {f"dataset.{key}" for key in layout.pop("dataset")}
        assert documented == written | set(layout)

    def test_readme_library_example_runs(self, tiny_bed, capsys):
        readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
        with open(readme, encoding="utf-8") as fh:
            text = fh.read()
        block = text.split("## Library usage", 1)[1]
        block = block.split("```python\n", 1)[1].split("\n```", 1)[0]
        data_dir = os.path.dirname(tiny_bed[1]["edges"])
        exec(block.replace('"data/', f'"{data_dir}/'), {})
        out = capsys.readouterr().out
        for label in ("test AUC:", "mean gap:", "closed-form gap:",
                      "symmetric 4 per-group entry radii:"):
            assert label in out

    def test_scalar_seed_and_lambda(self):
        raw = self.raw()
        raw["seeds"] = 7
        raw["lambda_fair"] = 2
        cfg = config_from_dict(raw)
        assert cfg.seeds == (7,)
        assert cfg.lambda_fair == (2.0,)
        assert pipelines.RunConfig(dataset=cfg.dataset, seeds=3).seeds == (3,)

    def test_hash_ignores_out_but_tracks_settings(self):
        a = config_from_dict(self.raw())
        raw = self.raw()
        raw["out"] = "elsewhere"
        b = config_from_dict(raw)
        assert a.config_hash == b.config_hash
        raw = self.raw()
        raw["lr"] = 0.05
        c = config_from_dict(raw)
        assert a.config_hash != c.config_hash
        # an integer for a float key is that float
        d, e = (config_from_dict({**self.raw(), "lr": lr}) for lr in (1, 1.0))
        assert (d.config_hash, d.run_dir("x")) == (e.config_hash,
                                                   e.run_dir("x"))

    def test_replace_applies_the_config_rules(self):
        cfg = config_from_dict(self.raw())
        with pytest.raises(ValueError, match="'dataset.name' must be"):
            dataclasses.replace(cfg, dataset=dataclasses.replace(
                cfg.dataset, name="../../up"))
        with pytest.raises(ValueError, match="lambda_fair must be >= 0"):
            dataclasses.replace(cfg, lambda_fair=(-1.0,))

    def test_run_dir_embeds_name_filter_hash(self):
        raw = self.raw()
        raw["filter"] = "rw"
        cfg = config_from_dict(raw)
        leaf = os.path.basename(cfg.run_dir("fairness_sweep"))
        assert leaf == f"x_fairness_sweep_rw_{cfg.config_hash}"


def test_csv_cell_format(tmp_path):
    path = tmp_path / "t.csv"
    _write_csv(str(path), ("a", "b", "c", "d"),
               [(1, 0.1, None, "x"), (np.int64(2), np.float64(1 / 3), 2.0, ""),
                (3, float("nan"), np.float64("nan"), "y")])
    assert path.read_text() == (
        "a,b,c,d\n1,0.1,,x\n2,0.3333333333333333,2.0,\n3,,,y\n")


class TestValidateTheory:
    def test_payload_and_files(self, tiny_bed):
        cfg = base_config(tiny_bed)
        payload = run_validate_theory(cfg)
        assert payload["pipeline"] == "validate_theory"
        assert len(payload["per_seed"]) == 2
        for entry in payload["per_seed"]:
            assert 0.0 <= entry["test_auc"] <= 1.0
            assert entry["nrmse"] is None or entry["nrmse"] >= 0.0
        agg = payload["aggregate"]
        vals = [e["test_auc"] for e in payload["per_seed"]]
        assert agg["test_auc_mean"] == pytest.approx(np.mean(vals))
        assert agg["test_auc_std"] == pytest.approx(np.std(vals, ddof=1))

        lines = Path(payload["paths"]["pairs"]).read_text().splitlines()
        assert lines[0] == "seed,group,tau_raw,tau_fitted,gcn_score"
        n_rows = sum(e["n_pairs_used"] for e in payload["per_seed"])
        assert len(lines) == 1 + n_rows
        for line in lines[1:3]:
            seed, group, tr, tf, sc = line.split(",")
            int(seed), int(group)
            float(tr), float(tf), float(sc)

        report = json.loads(Path(payload["paths"]["report"]).read_text())
        assert report["config"]["dataset"]["name"] == "tiny"

    def test_group_entries(self, tiny_bed, tmp_path):
        # node 0 loses its edges, so it is a refined group of its own,
        # with no pairs, which the theory report skips
        _, paths = tiny_bed
        edges = [line for line in Path(paths["edges"]).read_text().splitlines()
                 if line.startswith("#") or "0" not in line.split()]
        (tmp_path / "edges.txt").write_text("\n".join(edges) + "\n")
        cfg = base_config(tiny_bed)
        cfg = dataclasses.replace(cfg, dataset=dataclasses.replace(
            cfg.dataset, edges=str(tmp_path / "edges.txt")))
        payload = run_validate_theory(cfg)
        report = json.loads(Path(payload["paths"]["report"]).read_text())
        lines = Path(payload["paths"]["pairs"]).read_text().splitlines()
        # one groups entry per refined group of the seed's training view,
        # rho2 null exactly where the group is skipped
        dataset, _ = prepare_dataset(cfg)
        for entry in report["per_seed"]:
            _, view = split_and_view(dataset, cfg, entry["seed"])
            groups = entry["groups"]
            assert [g["group"] for g in groups] == list(range(view.n_groups))
            skipped = [g["group"] for g in groups if g["reason"] != ""]
            assert skipped and int(view.group_of[0]) in skipped
            for g in groups:
                assert (g["rho2"] is None) == (g["reason"] != "")
            n_rows = sum(line.startswith(f"{entry['seed']},")
                         for line in lines[1:])
            assert entry["n_pairs_used"] == n_rows == sum(
                g["n_pairs"] for g in groups if g["reason"] == "")

    def test_metrics_match_emitted_pairs_csv(self, tiny_bed):
        # the summary metrics must be recomputable from pairs.csv alone
        cfg = base_config(tiny_bed)
        payload = run_validate_theory(cfg)
        by_seed: dict[int, list[tuple[float, float]]] = {}
        pairs_csv = Path(payload["paths"]["pairs"]).read_text()
        for line in pairs_csv.splitlines()[1:]:
            seed, _group, _tr, tf, sc = line.split(",")
            by_seed.setdefault(int(seed), []).append((float(tf), float(sc)))
        for entry in payload["per_seed"]:
            fitted, scores = (np.array(col)
                              for col in zip(*by_seed[entry["seed"]]))
            assert entry["nrmse"] == nrmse(fitted, scores).value
            assert entry["pcc"] == pcc(fitted, scores).value

    def test_cross_group_pairs_are_counted(self, tiny_bed):
        # every test pair reaches the theory report, which drops and
        # counts those whose endpoints lie in different refined groups of
        # the training view
        cfg = base_config(tiny_bed)
        payload = run_validate_theory(cfg)
        dataset, _ = prepare_dataset(cfg)
        for entry in payload["per_seed"]:
            split, view = split_and_view(dataset, cfg, entry["seed"])
            pairs = np.concatenate([split.test_pos, split.test_neg])
            gof = view.group_of
            n_cross = int((gof[pairs[:, 0]] != gof[pairs[:, 1]]).sum())
            assert n_cross > 0
            assert entry["n_dropped_cross_group"] == n_cross
            assert entry["n_pairs_used"] <= len(pairs) - n_cross

    @pytest.mark.parametrize("runner", [
        run_validate_theory, run_delta_comparison, run_fairness_sweep,
        run_train], ids=lambda runner: runner.__name__)
    def test_byte_determinism(self, tiny_bed, runner):
        cfg = base_config(tiny_bed, seeds=[0], epochs=3)
        first = read_outputs(runner(cfg))
        assert first == read_outputs(runner(cfg))
        assert "report" in first and len(first) >= 2


class TestFairnessSweep:
    def test_table_schema_and_order(self, tiny_bed):
        cfg = base_config(tiny_bed)
        payload = run_fairness_sweep(cfg)
        table = payload["table"]
        lams = [row["lambda_fair"] for row in table]
        assert lams == sorted(lams, reverse=True) == [1.0, 0.0]
        for row in table:
            assert row["dataset"] == "tiny"
            assert 0.0 <= row["auc_mean"] <= 1.0
            assert row["delta_mean"] >= 0.0

        lines = Path(payload["paths"]["table"]).read_text().splitlines()
        assert lines[0] == \
            "dataset,lambda_fair,delta_mean,delta_std,auc_mean,auc_std"
        assert len(lines) == 1 + len(table)
        header = lines[0].split(",")
        report = json.loads(Path(payload["paths"]["report"]).read_text())
        for line, row in zip(lines[1:], report["table"]):
            assert line.split(",") == [csv_cell(row[k]) for k in header]

    def test_unpenalized_row_matches_direct_runs(self, tiny_bed):
        cfg = base_config(tiny_bed, seeds=[0, 1], lambda_fair=[0.0])
        payload = run_fairness_sweep(cfg)
        row = payload["table"][0]

        dataset, _ = prepare_dataset(cfg)
        gaps = []
        for seed in cfg.seeds:
            run = run_seed(dataset, cfg, seed, lambda_fair=0.0)
            assess = delta(run.test_pairs, run.test_scores,
                           run.result.train_view.group_of, dataset.t_labels)
            gaps.append(assess.mean_delta)
        assert row["delta_mean"] == pytest.approx(np.mean(gaps), abs=1e-12)

    def test_requires_subgroups(self, tiny_bed, tmp_path):
        root, paths = tiny_bed
        # rewrite labels without the subgroup column
        stripped = tmp_path / "labels.tsv"
        with open(paths["labels"]) as src, open(stripped, "w") as dst:
            for line in src:
                node, s, _ = line.split("\t")
                dst.write(f"{node}\t{s}\n")
        cfg = base_config(tiny_bed)
        cfg = dataclasses.replace(cfg, dataset=dataclasses.replace(
            cfg.dataset, labels=str(stripped)))
        with pytest.raises(ValueError):
            run_fairness_sweep(cfg)


def test_pipelines_on_one_config_keep_their_own_files(tiny_bed, tmp_path):
    cfg = base_config(tiny_bed, out=str(tmp_path / "runs"))
    first = run_delta_comparison(cfg)
    delta_files = read_outputs(first)
    second = run_fairness_sweep(cfg)
    assert first["paths"]["run_dir"] != second["paths"]["run_dir"]
    assert read_outputs(first) == delta_files
    assert sorted(os.listdir(first["paths"]["run_dir"])) == \
        ["pairs.csv", "report.json"]
    assert sorted(os.listdir(second["paths"]["run_dir"])) == \
        ["fairness_table.csv", "report.json"]
    for payload in (first, second):
        report = json.loads(Path(payload["paths"]["report"]).read_text())
        assert report["pipeline"] == payload["pipeline"]


# The keys of each pipeline's report.json: the header, then each entry of
# its per-seed or per-run lists and each entry of a seed's groups.  A fact
# that ``config`` or a group's ``reason`` states is not written again.
HEADER_KEYS = {"pipeline", "config_hash", "config", "input"}
REPORT_KEYS = {
    run_train: {"": {"seed", "lambda_fair", "best_epoch", "best_val_auc",
                     "test_auc", "test_auc_same_group"}},
    run_validate_theory: {
        "": {"per_seed", "aggregate"},
        "per_seed": {"seed", "nrmse", "pcc", "n_pairs_used",
                     "n_dropped_cross_group", "groups", "test_auc",
                     "test_auc_same_group", "best_epoch", "best_val_auc"},
        "per_seed.groups": {"group", "rho2", "c1", "n_pairs", "reason"},
    },
    run_fairness_sweep: {
        "": {"table", "runs"},
        "table": {"dataset", "lambda_fair", "delta_mean", "delta_std",
                  "auc_mean", "auc_std"},
        "runs": {"lambda_fair", "seed", "mean_delta", "test_auc", "groups"},
        "runs.groups": {"group", "delta", "n_t1", "n_t2", "reason"},
    },
    run_delta_comparison: {
        "": {"n_points", "pcc", "nrmse", "points"},
        "points": {"seed", "group", "delta", "delta_hat",
                   "delta_hat_closed_form", "disparity", "n_t1", "n_t2"},
    },
}


@pytest.mark.parametrize("runner", REPORT_KEYS,
                         ids=lambda runner: runner.__name__)
def test_report_keys_are_pinned(tiny_bed, runner):
    # under --filter rw too, where delta-compare adds its two *_reason keys
    for kind in ("sym", "rw"):
        expected = dict(REPORT_KEYS[runner])
        expected[""] = HEADER_KEYS | expected[""]
        if runner is run_delta_comparison and kind == "rw":
            expected[""] |= {"pcc_reason", "nrmse_reason"}
        path = runner(base_config(tiny_bed, filter=kind, seeds=[0, 1],
                                  epochs=2))["paths"]["report"]
        report = json.loads(Path(path).read_text())
        found = {"": set(report)}
        for key in set(expected) - {""}:
            outer, _, inner = key.partition(".")
            entries = report[outer]
            if inner:
                entries = [g for entry in entries for g in entry[inner]]
            assert entries
            found[key] = set().union(*entries)
            assert all(set(entry) == found[key] for entry in entries)
        assert found == expected


class TestParallelRuns:
    @pytest.mark.parametrize("runner", [
        run_validate_theory, run_delta_comparison, run_fairness_sweep])
    def test_same_bytes_at_one_and_two_workers(self, tiny_bed, monkeypatch,
                                               runner):
        cfg = base_config(tiny_bed, seeds=[0, 1, 2])
        outputs = []
        for workers in (1, 2):
            monkeypatch.setattr(pipelines, "_max_workers", lambda: workers)
            outputs.append(read_outputs(runner(cfg)))
        assert outputs[0] == outputs[1]

    def test_same_bytes_at_one_and_two_blas_threads(self, tmp_path):
        # OpenBLAS may order one long product's sum by its thread count.
        # The weight gradients sum over every node: taken as one product
        # each, they moved checkpoint.npz's bits between 1 and 2 threads on
        # this bed (2 x 200 nodes was the smallest that moved; 3 x 200
        # leaves a margin for other BLAS kernels' block sizes).
        cpus = (len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
        if cpus < 2:
            pytest.skip(f"{cpus} usable CPU: BLAS cannot run 2 threads")
        paths = synth_generate(
            SynthConfig(sizes=(200, 200, 200), p_in=0.08, p_out=0.002,
                        disparity_boost=5.0, feature_dim=16, seed=0),
            str(tmp_path / "data"))
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "dataset": {"name": "blas", **{key: paths[key] for key in
                                           ("edges", "features", "labels")}},
            "normalization": "minmax_signed", "hidden_dims": [128, 64],
            "epochs": 1, "seeds": [0], "lambda_fair": [2.0], "out": "runs"}))
        src = os.path.dirname(os.path.dirname(pipelines.__file__))
        outputs = []
        for threads in ("1", "2"):
            cwd = tmp_path / f"threads{threads}"
            cwd.mkdir()
            env = dict(os.environ, PYTHONPATH=src,
                       OPENBLAS_NUM_THREADS=threads)
            out = subprocess.run(
                [sys.executable, "-m", "palink.cli", "train", "--config",
                 str(config)], cwd=cwd, env=env, capture_output=True,
                check=True)
            files = {str(path.relative_to(cwd)): path.read_bytes()
                     for path in sorted(cwd.rglob("*")) if path.is_file()}
            outputs.append((out.stdout, files))
        assert len(outputs[0][1]) == 3
        assert outputs[0] == outputs[1]

    def test_runs_in_workers_in_task_order(self, monkeypatch):
        monkeypatch.setattr(pipelines, "_max_workers", lambda: 2)
        tasks = [(seed, 0.0) for seed in range(5)]
        seeds, pids = zip(*pipelines._map_runs(seed_and_pid, None, None,
                                               tasks))
        assert seeds == (0, 1, 2, 3, 4)
        assert os.getpid() not in pids and len(set(pids)) <= 2
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("env, expected", [
        ({}, 1),
        ({"OPENBLAS_NUM_THREADS": "1"}, 8),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 4),
        ({"MKL_NUM_THREADS": "3"}, 2),
        ({"OMP_NUM_THREADS": "1"}, 8),
        ({"OMP_NUM_THREADS": "16"}, 1),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "x"}, 1),
    ])
    def test_workers_share_the_cpus_with_blas_threads(self, monkeypatch,
                                                      env, expected):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(8)), raising=False)
        for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        assert pipelines._max_workers() == expected

    @pytest.mark.parametrize("cpus, n_tasks", [(1, 4), (8, 1)])
    def test_one_cpu_or_one_task_creates_no_pool(self, monkeypatch, cpus,
                                                 n_tasks):
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was created")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            no_pool)
        monkeypatch.setattr(pipelines, "_max_workers", lambda: cpus)
        tasks = [(seed, 0.0) for seed in range(n_tasks)]
        assert pipelines._map_runs(seed_and_pid, None, None, tasks) == \
            [(seed, os.getpid()) for seed in range(n_tasks)]

    def test_import_loads_no_process_pool_machinery(self):
        # Every run pays for ``import palink``; the pool's modules take
        # tens of milliseconds to import, so only a pool loads them.
        # scipy.special took about 40 ms and 3.5 MiB of peak RSS, and the
        # package's sigmoid and softplus are NumPy's own.
        code = (
            "import sys, palink\n"
            "from palink import pipelines\n"
            "mods = ('multiprocessing', 'concurrent.futures.process',\n"
            "        'scipy.special')\n"
            "print([m for m in mods if m in sys.modules])\n"
            "pipelines._max_workers = lambda: 1\n"
            "pipelines._map_runs(lambda *a: 0, None, None, [(0, 0.0)] * 2)\n"
            "print([m for m in mods if m in sys.modules])\n"
        )
        src = os.path.dirname(os.path.dirname(pipelines.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.splitlines() == ["[]", "[]"]


class TestDeltaComparison:
    def test_payload_and_scatter(self, tiny_bed):
        cfg = base_config(tiny_bed)
        payload = run_delta_comparison(cfg)
        assert payload["pipeline"] == "delta_comparison"
        assert payload["n_points"] == len(payload["points"])
        for point in payload["points"]:
            assert point["delta"] >= 0.0
            assert point["delta_hat"] >= 0.0
            assert point["n_t1"] > 0 and point["n_t2"] > 0

        lines = Path(payload["paths"]["scatter"]).read_text().splitlines()
        assert lines[0] == \
            "seed,group,delta,delta_hat,delta_hat_closed_form,disparity"
        assert len(lines) == 1 + payload["n_points"]
        header = lines[0].split(",")
        report = json.loads(Path(payload["paths"]["report"]).read_text())
        for line, point in zip(lines[1:], report["points"]):
            assert line.split(",") == [csv_cell(point[k]) for k in header]

    @pytest.mark.parametrize("kind", ["sym", "rw"])
    def test_pcc_is_null_for_the_random_walk_estimate(self, tiny_bed, kind):
        # the random-walk estimate is zero up to rounding, so a
        # correlation with it would report noise, and an NRMSE a statistic
        # of the trained gaps alone
        cfg = base_config(tiny_bed, filter=kind)
        path = run_delta_comparison(cfg)["paths"]["report"]
        report = json.loads(Path(path).read_text())
        deltas, estimates = (np.array([p[key] for p in report["points"]])
                             for key in ("delta", "delta_hat"))
        assert report["n_points"] >= 2
        if kind == "sym":
            assert report["nrmse"] == nrmse(estimates, deltas).value
            assert report["pcc"] == pcc(estimates, deltas).value
            assert "pcc_reason" not in report and "nrmse_reason" not in report
        else:
            assert np.all(estimates < 1e-12)
            for key in ("pcc", "nrmse"):
                assert report[key] is None
                assert report[f"{key}_reason"] == (
                    "estimate_zero_under_random_walk")


class TestRunTrain:
    def test_artifacts(self, tiny_bed):
        cfg = base_config(tiny_bed, seeds=[1], lambda_fair=[1.0])
        payload = run_train(cfg)
        assert payload["seed"] == 1
        assert payload["lambda_fair"] == 1.0
        assert 1 <= payload["best_epoch"] <= cfg.epochs

        model, meta = load_checkpoint(payload["paths"]["checkpoint"])
        assert model.filter_kind == "symmetric"
        assert [w.shape[0] for w in model.weights] == [8, 4]
        assert meta["seed"] == 1
        assert meta["config"]["dataset"]["name"] == "tiny"

        lines = Path(payload["paths"]["history"]).read_text().splitlines()
        assert lines[0] == "epoch,train_loss,reg_term,val_auc"
        assert len(lines) == 1 + cfg.epochs
        regs = [float(line.split(",")[2]) for line in lines[1:]]
        assert all(r >= 0.0 for r in regs)
        # repr round-trip keeps full float precision
        run = run_seed(prepare_dataset(cfg)[0], cfg, 1, lambda_fair=1.0)
        for line, (epoch, loss, reg, auc) in zip(lines[1:],
                                                 run.result.history):
            cells = line.split(",")
            assert int(cells[0]) == epoch
            assert [float(c) for c in cells[1:]] == [loss, reg, auc]


@pytest.mark.parametrize("normalization, flagged", [
    ("minmax_signed", {"n_zero_sum_rows": 0, "n_constant_columns": 1}),
    ("row_sum_one", {"n_zero_sum_rows": 1, "n_constant_columns": 0}),
])
def test_report_header_counts_what_loading_flagged(tiny_bed, tmp_path,
                                                   normalization, flagged):
    # one edge listed twice (reversed), feature column 0 constant and
    # feature row 0 all zero
    _, paths = tiny_bed
    edges = Path(paths["edges"]).read_text().splitlines()
    u, v = next(line for line in edges if not line.startswith("#")).split()
    (tmp_path / "edges.txt").write_text("\n".join([*edges, f"{v} {u}"]))
    feats = np.loadtxt(paths["features"], delimiter=",")
    feats[:, 0] = 0.0
    feats[0] = 0.0
    np.savetxt(tmp_path / "features.csv", feats, delimiter=",")
    cfg = base_config(tiny_bed, seeds=[0], normalization=normalization)
    cfg = dataclasses.replace(cfg, dataset=dataclasses.replace(
        cfg.dataset, edges=str(tmp_path / "edges.txt"),
        features=str(tmp_path / "features.csv")))
    report = json.loads(Path(run_train(cfg)["paths"]["report"]).read_text())
    assert report["input"] == {"n_duplicate_edges": 1, **flagged}


class TestCli:
    def write_config(self, tmp_path, tiny_bed, **kw):
        root, paths = tiny_bed
        raw = {
            "dataset": {"name": "tiny", "edges": paths["edges"],
                        "features": paths["features"],
                        "labels": paths["labels"]},
            "hidden_dims": [6, 3],
            "epochs": 2,
            "seeds": [0],
            "lambda_fair": [0.0],
            "out": str(tmp_path / "runs"),
        }
        raw["dataset"].update(kw.pop("dataset", {}))
        raw.update(kw)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        return str(path)

    def test_synth_command(self, tmp_path, capsys):
        # --seed and --out replace the file's seed and out
        cfg = {"sizes": [10, 10], "p_in": 0.5, "p_out": 0.05,
               "feature_dim": 3, "seed": 1, "out": str(tmp_path / "file_out")}
        path = tmp_path / "synth.json"
        path.write_text(json.dumps(cfg))
        code = main(["synth", "--config", str(path), "--seed", "3",
                     "--out", str(tmp_path / "data")])
        assert code == 0
        paths = json.loads(capsys.readouterr().out)
        for role in ("edges", "features", "labels", "meta"):
            assert os.path.exists(paths[role])
            assert paths[role].startswith(str(tmp_path / "data"))
        assert not (tmp_path / "file_out").exists()
        meta = json.loads(Path(paths["meta"]).read_text())
        assert meta["config"]["seed"] == 3

    @pytest.mark.parametrize("flag", [["--filter", "rw"], ["--layers", "2"],
                                      ["--lambda-fair", "1.0"]])
    def test_synth_rejects_pipeline_flags(self, tmp_path, capsys, flag):
        path = tmp_path / "synth.json"
        path.write_text(json.dumps({"sizes": [10, 10],
                                    "out": str(tmp_path / "data")}))
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--config", str(path), *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "data").exists()

    def test_validate_theory_with_overrides(self, tmp_path, tiny_bed,
                                            capsys):
        config_path = self.write_config(tmp_path, tiny_bed)
        code = main([
            "validate-theory", "--config", config_path,
            "--filter", "rw", "--layers", "1", "--seed", "1",
            "--out", str(tmp_path / "override_runs"),
        ])
        assert code == 0
        paths = json.loads(capsys.readouterr().out)
        assert "_rw_" in os.path.basename(paths["run_dir"])
        assert paths["run_dir"].startswith(str(tmp_path / "override_runs"))
        report = json.loads(Path(paths["report"]).read_text())
        assert report["config"]["hidden_dims"] == [64]
        assert report["config"]["seeds"] == [1]
        assert report["config"]["filter"] == "random_walk"

    def test_flags_replace_their_file_keys_before_the_check(
            self, tmp_path, tiny_bed, capsys):
        # the file's hidden_dims and seeds would not pass the check; the
        # flags replace them first
        config_path = self.write_config(tmp_path, tiny_bed,
                                        hidden_dims="wide", seeds=[])
        code = main(["train", "--config", config_path,
                     "--layers", "2", "--seed", "3"])
        assert code == 0
        path = json.loads(capsys.readouterr().out)["report"]
        report = json.loads(Path(path).read_text())
        assert report["config"]["hidden_dims"] == [128, 64]
        assert report["config"]["seeds"] == [3]
        assert report["seed"] == 3

    def test_train_command(self, tmp_path, tiny_bed, capsys):
        config_path = self.write_config(tmp_path, tiny_bed)
        code = main(["train", "--config", config_path,
                     "--lambda-fair", "2.0"])
        assert code == 0
        paths = json.loads(capsys.readouterr().out)
        report = json.loads(Path(paths["report"]).read_text())
        assert report["lambda_fair"] == 2.0

    def test_text_files_name_their_encoding(self, tmp_path):
        # every text file palink opens is UTF-8 whatever the locale, so an
        # open() that falls back to the locale's encoding is an error here;
        # NumPy's own savetxt opens one without an encoding, so only
        # palink's modules are held to it
        synth = {"sizes": [24, 24], "p_in": 0.5, "p_out": 0.02,
                 "feature_dim": 4, "seed": 0, "out": "data"}
        run = {"dataset": {"name": "tiny", "edges": "data/edges.txt",
                           "features": "data/features.csv",
                           "labels": "data/labels.tsv"},
               "hidden_dims": [6, 3], "epochs": 1, "seeds": [0],
               "lambda_fair": [0.0, 1.0], "out": "runs"}
        (tmp_path / "synth.json").write_text(json.dumps(synth))
        (tmp_path / "run.json").write_text(json.dumps(run))
        argvs = [["synth", "--config", "synth.json"]] + [
            [command, "--config", "run.json"]
            for command in ("train", "validate-theory", "delta-compare",
                            "fairness-sweep")]
        code = (
            "import json, sys, warnings\n"
            "warnings.filterwarnings('error', category=EncodingWarning,\n"
            "                        module=r'palink\\.')\n"
            "from palink.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert main(argv) == 0, argv\n"
        )
        src = os.path.dirname(os.path.dirname(pipelines.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-c", code,
             json.dumps(argvs)],
            cwd=tmp_path, env=env, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert len(list((tmp_path / "runs").iterdir())) == 4

    @staticmethod
    def train_where_a_run_exits_7(tmp_path, config_path, **env):
        """``palink train`` on ``config_path`` in a new process whose
        ``run_seed`` exits 7, with ``env`` added to the environment."""
        code = (
            "import os, sys\n"
            "from palink import pipelines\n"
            "from palink.cli import main\n"
            "pipelines.run_seed = lambda *args: os._exit(7)\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        src = os.path.dirname(os.path.dirname(pipelines.__file__))
        return subprocess.run(
            [sys.executable, "-c", code, "train", "--config", config_path],
            cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src, **env),
            capture_output=True, text=True)

    def test_unencodable_run_directory_exits_2_before_training(
            self, tmp_path, tiny_bed):
        # under an ASCII file-system encoding the run directory's name
        # cannot be made, and that exits 2 before the first run, which
        # here would exit 7
        config_path = self.write_config(tmp_path, tiny_bed,
                                        dataset={"name": "caf\u00e9"})
        out = self.train_where_a_run_exits_7(
            tmp_path, config_path, PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
            LC_ALL="C")
        assert out.returncode == 2, out.stderr
        assert ("'ascii' codec can't encode character '\\xe9'"
                in out.stderr), out.stderr
        assert not (tmp_path / "runs").exists()

    def test_out_under_a_file_exits_2_before_training(self, tmp_path,
                                                      tiny_bed):
        # the run directory cannot be made under a file, and that exits 2
        # before the first run, which here would exit 7
        (tmp_path / "d").mkdir()
        (tmp_path / "d" / "edges.txt").write_text("")
        config_path = self.write_config(tmp_path, tiny_bed,
                                        out=str(tmp_path / "d" / "edges.txt"))
        out = self.train_where_a_run_exits_7(tmp_path, config_path)
        assert out.returncode == 2, out.stderr
        assert out.stderr.endswith(
            f"{str(tmp_path / 'd' / 'edges.txt')!r} is not a directory\n")
        assert os.listdir(tmp_path / "d") == ["edges.txt"]

    @pytest.mark.parametrize(
        "name", ["../../escaped", "a\u0000b", "a\rb", "a\nb", "a\tb"],
        ids=["parent_dirs", "nul", "carriage_return", "newline", "tab"])
    def test_name_with_a_path_separator_or_nul_exits_2_before_any_input(
            self, tmp_path, tiny_bed, capsys, name):
        # the run directory would land two levels above out, or fail to be
        # made only after the training; the edges file here is missing, so
        # the name is rejected before any input is read
        config_path = self.write_config(
            tmp_path, tiny_bed,
            dataset={"name": name, "edges": str(tmp_path / "no_edges.txt")})
        assert main(["fairness-sweep", "--config", config_path]) == 2
        assert capsys.readouterr().err.strip() == (
            "error: config key 'dataset.name' must be printable, with no "
            f"path separator, got {name!r}")
        assert not (tmp_path / "runs").exists()

    def test_comma_in_the_dataset_name_keeps_the_table_rectangular(
            self, tmp_path, tiny_bed, capsys):
        config_path = self.write_config(tmp_path, tiny_bed,
                                        dataset={"name": "cora,v2"},
                                        lambda_fair=[0.0, 1.0])
        assert main(["fairness-sweep", "--config", config_path]) == 0
        paths = json.loads(capsys.readouterr().out)
        with open(paths["table"], encoding="utf-8", newline="") as fh:
            header, *rows = csv.reader(fh)
        report = json.loads(Path(paths["report"]).read_text())
        assert [row[0] for row in rows] == ["cora,v2", "cora,v2"]
        assert rows == [[csv_cell(entry[key]) for key in header]
                        for entry in report["table"]]

    def test_non_finite_training_exits_2(self, tmp_path, tiny_bed, capsys):
        config_path = self.write_config(tmp_path, tiny_bed, lr=1e200,
                                        epochs=4)
        code = main(["train", "--config", config_path])
        assert code == 2
        err = capsys.readouterr().err
        assert err.strip() == ("error: epoch 1: a validation score is "
                               "not finite")

    def test_non_finite_training_in_a_worker_exits_2(self, tmp_path,
                                                     tiny_bed, capsys,
                                                     monkeypatch):
        monkeypatch.setattr(pipelines, "_max_workers", lambda: 2)
        config_path = self.write_config(tmp_path, tiny_bed, lr=1e200,
                                        epochs=4, seeds=[0, 1])
        code = main(["fairness-sweep", "--config", config_path])
        assert code == 2
        err = capsys.readouterr().err
        assert err.strip() == ("error: epoch 1: a validation score is "
                               "not finite")
        assert multiprocessing.active_children() == []

    def test_negative_lambda_in_a_worker_exits_2(self, tmp_path, tiny_bed,
                                                  capsys, monkeypatch):
        # a bad training value exits 2 when the config is read: before the
        # (here missing) edges file is opened and before any worker forks
        monkeypatch.setattr(pipelines, "_max_workers", lambda: 2)
        missing = {"edges": str(tmp_path / "no_edges.txt")}
        for bad, message in [({"lambda_fair": [1.0, -0.5]},
                              "lambda_fair must be >= 0"),
                             ({"lr": -1}, "lr must be >= 0"),
                             ({"epochs": 0}, "epochs must be >= 1"),
                             ({"seeds": [0, -1]}, "seed must be >= 0")]:
            config_path = self.write_config(tmp_path, tiny_bed,
                                            dataset=missing,
                                            **{"seeds": [0, 1], **bad})
            code = main(["fairness-sweep", "--config", config_path])
            assert code == 2
            assert capsys.readouterr().err.strip() == f"error: {message}"
            assert multiprocessing.active_children() == []
            assert not (tmp_path / "runs").exists()

    def test_dead_worker_exits_2(self, tmp_path, tiny_bed, capsys,
                                 monkeypatch):
        monkeypatch.setattr(pipelines, "_max_workers", lambda: 2)
        monkeypatch.setattr(pipelines, "run_seed",
                            lambda *args, **kwargs: os._exit(1))
        config_path = self.write_config(tmp_path, tiny_bed, seeds=[0, 1])
        code = main(["fairness-sweep", "--config", config_path])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(
            "error: a training worker process exited unexpectedly")
        assert "Traceback" not in err
        assert multiprocessing.active_children() == []

    def test_theory_without_support_exits_2(self, tmp_path, tiny_bed,
                                            capsys, monkeypatch):
        real = pipelines.build_theory_report

        def skip_every_group(*args, **kwargs):
            report = real(*args, **kwargs)
            return dataclasses.replace(
                report, reasons=np.full_like(report.reasons, "no_pairs"))

        monkeypatch.setattr(pipelines, "build_theory_report",
                            skip_every_group)
        config_path = self.write_config(tmp_path, tiny_bed)
        code = main(["validate-theory", "--config", config_path])
        assert code == 2
        err = capsys.readouterr().err
        assert err.strip() == (
            "error: seed 0: every refined group was skipped; "
            "theory comparison has no support"
        )

    def test_missing_config_exits_2(self, tmp_path, capsys):
        code = main(["train", "--config", str(tmp_path / "nope.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_directory_as_config_exits_2(self, tmp_path, capsys):
        code = main(["train", "--config", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_bad_config_key_exits_2(self, tmp_path, tiny_bed, capsys):
        config_path = self.write_config(tmp_path, tiny_bed, widgets=3)
        code = main(["fairness-sweep", "--config", config_path])
        assert code == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_bad_synth_config_key_exits_2(self, tmp_path, capsys):
        path = tmp_path / "synth.json"
        path.write_text(json.dumps({"sizes": [10, 10], "bogus": 1,
                                    "out": str(tmp_path / "data")}))
        code = main(["synth", "--config", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.strip() == "error: unknown synth config keys: ['bogus']"
        assert not (tmp_path / "data").exists()

    # Each row names itself, with the id pytest once generated from its
    # position, so a row can leave without renaming the rows after it.
    @pytest.mark.parametrize("command,config,extra,message", [
        pytest.param(
            "train", {"epochs": "3"}, [], "'epochs' must be an integer",
            id="train-config0-extra0-'epochs' must be an integer"),
        pytest.param(
            "train", {"lr": "x"}, [], "'lr' must be a number",
            id="train-config1-extra1-'lr' must be a number"),
        pytest.param(
            "train", {"self_loop_weight": "a"}, [],
            "'self_loop_weight' must be a number",
            id="train-config2-extra2-'self_loop_weight' must be a number"),
        pytest.param(
            "train", {"hidden_dims": 5}, [],
            "'hidden_dims' must be a non-empty list",
            id="train-config3-extra3-'hidden_dims' must be a non-empty list"),
        pytest.param(
            "train", [1, 2], [], "config must be a JSON object",
            id="train-config4-extra4-config must be a JSON object"),
        pytest.param(
            "train", {}, ["--layers", "0"], "--layers must be >= 1",
            id="train-config5-extra5---layers must be >= 1"),
        pytest.param(
            "train", {"seeds": []}, [], "'seeds' must be a non-empty list",
            id="train-config6-extra6-'seeds' must be a non-empty list"),
        pytest.param(
            "train", {"lambda_fair": []}, [],
            "'lambda_fair' must be a non-empty list",
            id="train-config7-extra7-'lambda_fair' must be a non-empty list"),
        pytest.param(
            "validate-theory", {"seeds": []}, [],
            "'seeds' must be a non-empty list",
            id=("validate-theory-config8-extra8-'seeds' must be a non-empty "
                "list")),
        pytest.param(
            "fairness-sweep", {"lambda_fair": []}, [],
            "'lambda_fair' must be a non-empty list",
            id=("fairness-sweep-config9-extra9-'lambda_fair' must be a "
                "non-empty list")),
        pytest.param(
            "synth", {"sizes": 5}, [], "'sizes' must be a non-empty list",
            id="synth-config10-extra10-'sizes' must be a non-empty list"),
        pytest.param(
            "synth", {"p_in": "a"}, [], "'p_in' must be a number",
            id="synth-config11-extra11-'p_in' must be a number"),
        pytest.param(
            "synth", [1], [], "synth config must be a JSON object",
            id="synth-config12-extra12-synth config must be a JSON object"),
        pytest.param(
            "train", {"dataset": {"self_loop_weight": 0.0}}, [],
            "unknown config keys: ['dataset.self_loop_weight']",
            id=("train-config13-extra13-unknown config keys: "
                "['dataset.self_loop_weight']")),
        pytest.param(
            "train", {"layers": 3}, [], "unknown config keys: ['layers']",
            id="train-config14-extra14-unknown config keys: ['layers']"),
        pytest.param(
            "train", {"layers": 3, "hidden_dims": [4]}, [],
            "unknown config keys: ['layers']",
            id="train-config15-extra15-unknown config keys: ['layers']"),
        pytest.param(
            "train", {"epochs": True}, [], "'epochs' must be an integer",
            id="train-config16-extra16-'epochs' must be an integer"),
        pytest.param(
            "train", {"lr": False}, [], "'lr' must be a number",
            id="train-config17-extra17-'lr' must be a number"),
        pytest.param(
            "synth", {"feature_dim": True}, [],
            "'feature_dim' must be an integer",
            id="synth-config18-extra18-'feature_dim' must be an integer"),
        pytest.param(
            "train", {"ratios": [0.9, 0.1]}, [],
            "ratios must be three positive fractions",
            id=("train-config19-extra19-ratios must be three positive "
                "fractions")),
        pytest.param(
            "fairness-sweep", {"ratios": [0.9, -0.1, 0.2]}, [],
            "ratios must be three positive fractions",
            id=("fairness-sweep-config20-extra20-ratios must be three "
                "positive fractions")),
        pytest.param(
            "delta-compare", {"ratios": [0.5, 0.3, 0.3]}, [],
            "ratios must sum to 1",
            id="delta-compare-config21-extra21-ratios must sum to 1"),
        # each row below fails inside a run or at read time; a failed run
        # makes no run directory
        pytest.param(
            "fairness-sweep", {"lambda_fair": [-1.0]}, [],
            "lambda_fair must be >= 0",
            id="fairness-sweep-config22-extra22-lambda_fair must be >= 0"),
        pytest.param(
            "train", {"epochs": 0}, [], "epochs must be >= 1",
            id="train-config23-extra23-epochs must be >= 1"),
        pytest.param(
            "train", {"hidden_dims": [0]}, [],
            "layer dimensions must be >= 1",
            id="train-config24-extra24-layer dimensions must be >= 1"),
        pytest.param(
            "train", {"lr": -1}, [], "lr must be >= 0",
            id="train-config25-extra25-lr must be >= 0"),
        pytest.param(
            "train", {"lr": float("nan")}, [],
            "config key 'lr' must be finite, got nan",
            id=("train-config26-extra26-config key 'lr' must be finite, got "
                "nan")),
        pytest.param(
            "train", {"self_loop_weight": float("nan")}, [],
            "config key 'self_loop_weight' must be finite, got nan",
            id=("train-config27-extra27-config key 'self_loop_weight' must be "
                "finite, got nan")),
        pytest.param(
            "validate-theory", {"ratios": [float("nan"), 0.5, 0.5]}, [],
            "config key 'ratios' must be finite, got nan",
            id=("validate-theory-config28-extra28-config key 'ratios' must be "
                "finite, got nan")),
        pytest.param(
            "train", {"lr": float("inf")}, [],
            "config key 'lr' must be finite, got inf",
            id=("train-config29-extra29-config key 'lr' must be finite, got "
                "inf")),
        pytest.param(
            "train", {"ratios": [0.5, 0.5, 10**400]}, [],
            "config key 'ratios' must be finite, got 1000",
            id=("train-config30-extra30-config key 'ratios' must be finite, "
                "got 1000")),
        pytest.param(
            "synth", {"seed": -1}, [], "seed must be >= 0",
            id="synth-config31-extra31-seed must be >= 0"),
        pytest.param(
            "synth", {}, ["--seed", "-1"], "seed must be >= 0",
            id="synth-config32-extra32-seed must be >= 0"),
        pytest.param(
            "fairness-sweep", {"seeds": [0, -1]}, [], "seed must be >= 0",
            id="fairness-sweep-config33-extra33-seed must be >= 0"),
        pytest.param(
            "train", {}, ["--seed", "-1"], "seed must be >= 0",
            id="train-config34-extra34-seed must be >= 0"),
    ])
    def test_bad_config_value_exits_2(self, tmp_path, tiny_bed, capsys,
                                      command, config, extra, message):
        path = tmp_path / "config.json"
        if isinstance(config, list):
            path.write_text(json.dumps(config))
        elif command == "synth":
            path.write_text(json.dumps({"sizes": [10, 10],
                                        "out": str(tmp_path / "data"),
                                        **config}))
        else:
            self.write_config(tmp_path, tiny_bed, **config)
        code = main([command, "--config", str(path), *extra])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "runs").exists()
        assert not (tmp_path / "data").exists()

    # Each array is past 128 TiB, beyond a 47-bit address space, so its
    # allocation fails under any overcommit mode and touches no memory.
    @pytest.mark.parametrize("command,config,workers", [
        pytest.param("validate-theory", {"hidden_dims": [10**13]}, 1,
                     id="validate-theory-in-process"),
        pytest.param("validate-theory",
                     {"hidden_dims": [10**13], "seeds": [0, 1]}, 2,
                     id="validate-theory-in-workers"),
        pytest.param("synth", {"feature_dim": 10**13}, 1, id="synth"),
    ])
    def test_allocation_that_cannot_be_made_exits_2(
            self, tmp_path, tiny_bed, capsys, monkeypatch, command, config,
            workers):
        monkeypatch.setattr(pipelines, "_max_workers", lambda: workers)
        if command == "synth":
            path = tmp_path / "synth.json"
            path.write_text(json.dumps({"sizes": [10, 10],
                                        "out": str(tmp_path / "data"),
                                        **config}))
        else:
            path = self.write_config(tmp_path, tiny_bed, **config)
        assert main([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: Unable to allocate")
        assert multiprocessing.active_children() == []
        assert not (tmp_path / "runs").exists()
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("command", ["train", "synth"])
    @pytest.mark.parametrize("content", [b'{"epochs": 3,', b"\xff{}"],
                             ids=["truncated", "not_utf8"])
    def test_config_that_is_not_json_is_named(self, tmp_path, capsys,
                                              command, content):
        path = tmp_path / "config.json"
        path.write_bytes(content)
        assert main([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {path}: ")

    def test_readme_command_line_example_runs(self, tmp_path, monkeypatch):
        readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
        with open(readme, encoding="utf-8") as fh:
            text = fh.read()
        block = text.split("## Command-line usage", 1)[1]
        block = block.split("```bash\n", 1)[1].split("\n```", 1)[0]
        files = re.findall(r"cat > (\S+) <<'EOF'\n(.*?\n)EOF\n", block,
                           re.S)
        commands = [line.split()[1:] for line in block.splitlines()
                    if line.startswith("palink ")]
        assert len(files) == 2 and len(commands) == 5
        monkeypatch.chdir(tmp_path)
        for name, body in files:
            (tmp_path / name).write_text(body, encoding="utf-8")
        for argv in commands:
            assert main(argv) == 0, argv


class TestPackage:
    def test_import_loads_every_module_but_cli(self):
        code = (
            "import json, sys, palink\n"
            "print(json.dumps([\n"
            "    sorted(m for m in sys.modules if m.startswith('palink.')),\n"
            "    sorted(n for n in vars(palink) if not n.startswith('_')),\n"
            "    palink.load_dataset is palink.graphdata.load_dataset,\n"
            "    palink.__version__]))\n"
        )
        src = os.path.dirname(os.path.dirname(pipelines.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        loaded, public, same_loader, version = json.loads(out.stdout)
        modules = ["fairness", "gcn", "graphdata", "metrics", "pipelines",
                   "spectral", "synth", "theory", "training"]
        assert loaded == [f"palink.{name}" for name in modules]
        assert public == sorted(modules + ["load_dataset"])
        assert same_loader and isinstance(version, str)
