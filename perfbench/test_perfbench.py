"""Tests of the benchmark's own code.

    python3 -m pytest perfbench
"""
from __future__ import annotations

import json
import os
import re
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import spans  # noqa: E402
from workloads import KINDS, BOUND_LAYERS, WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_self_times_of_nested_spans():
    spans_ = [
        ["workload.call", 0.0, 10.0, -1],
        ["pipelines.run_seed", 1.0, 4.0, 0],
        ["training.train", 2.0, 3.0, 1],
        ["metrics.roc_auc", 5.0, 9.0, 0],
    ]
    assert spans.self_times(spans_) == [3.0, 2.0, 1.0, 4.0]
    metrics = spans.layer_metrics(spans_, {"metrics.roc_auc.samples": 7})
    layer_self = sum(v for k, v in metrics.items()
                     if k.count(".") == 1 and k.endswith(".self_s"))
    assert layer_self == metrics["workload.call.s"] == 10.0
    assert metrics["pipelines.run_seed.s"] == 3.0
    assert metrics["pipelines.run_seed.self_s"] == 2.0
    assert metrics["metrics.roc_auc.calls"] == 1
    assert metrics["metrics.roc_auc.samples"] == 7


def test_self_times_count_overlapping_children_once():
    spans_ = [["a.x", 0.0, 10.0, -1], ["b.y", 1.0, 5.0, 0],
              ["b.z", 3.0, 12.0, 0]]
    assert spans.self_times(spans_)[0] == 1.0


def test_wrapper_returns_value_and_records_nesting():
    ticks = iter(range(100))
    recorder = spans.Recorder(clock=lambda: float(next(ticks)))
    inner = recorder.wrap("training.sample_negatives",
                          lambda n: np.zeros((n, 2)))
    outer = recorder.wrap("training.train", lambda n: inner(n).shape)
    assert outer(3) == (3, 2)
    assert [(s[0], s[3]) for s in recorder.spans] == [
        ("training.train", -1), ("training.sample_negatives", 0)]
    assert recorder.counts == {"training.sample_negatives.pairs": 3}
    assert all(s[2] > s[1] for s in recorder.spans)


def test_wrapper_reraises_and_closes_the_span():
    recorder = spans.Recorder()

    def boom():
        raise KeyError("x")

    wrapped = recorder.wrap("gcn.forward", boom)
    with pytest.raises(KeyError):
        wrapped()
    (span,) = recorder.spans
    assert span[2] >= span[1] > 0.0
    after = recorder.wrap("gcn.score_pairs", lambda: 1)
    after()
    assert recorder.spans[1][3] == -1  # the stack unwound


def test_instrument_rebinds_every_importer_and_restores():
    import palink
    from palink import gcn, pipelines, spectral, training
    from palink.graphdata import make_dataset, within_group_structure

    originals = (training.sample_negatives, pipelines.train,
                 gcn.sampled_delta_terms, spectral.operator_norm,
                 palink.load_dataset)
    recorder = spans.Recorder()
    restore = spans.instrument(recorder)
    try:
        assert training.sample_negatives is not originals[0]
        assert training.loss_and_gradients is gcn.loss_and_gradients
        assert training.roc_auc is sys.modules["palink.metrics"].roc_auc
        assert pipelines.train is training.train is not originals[1]
        assert pipelines.load_dataset is palink.load_dataset
        assert gcn.sampled_delta_terms is not originals[2]
        assert spectral.operator_norm is not originals[3]

        ds = make_dataset([(0, 1), (1, 2), (2, 3), (0, 3)], np.eye(4),
                          [0, 0, 1, 1])
        view = within_group_structure(ds)
        full = spectral.normalized_matrix(ds, "symmetric")
        within = spectral.normalized_matrix(view, "symmetric")
        summary = spectral.block_spectrum(view, "symmetric")
        spectral.residual_and_bounds(full, within, summary, 2, view)
    finally:
        restore()
    assert (training.sample_negatives, pipelines.train,
            gcn.sampled_delta_terms, spectral.operator_norm,
            palink.load_dataset) == originals
    names = [s[0] for s in recorder.spans]
    assert names.count("spectral.operator_norm") == 2
    parent = recorder.spans[names.index("spectral.operator_norm")][3]
    assert recorder.spans[parent][0] == "spectral.residual_and_bounds"


def producible(name: str) -> bool:
    """Whether the traced run can report a per-layer metric of this name."""
    import importlib

    if name in ("trace.overhead", "workload.call.s", "workload.self_s"):
        return True
    if name in {metric for metric, _ in spans.COUNTERS.values()}:
        return True
    layer, _, rest = name.partition(".")
    if layer not in spans.LAYERS:
        return False
    if rest == "self_s":
        return True
    fn, _, kind = rest.rpartition(".")
    module = importlib.import_module(f"palink.{layer}")
    return (kind in ("s", "self_s", "calls")
            and fn in dict(spans.public_functions(module)))


def test_metric_names():
    spec = load_spec()
    names = [m["name"] for key in ("end_to_end", "per_layer")
             for m in spec[key]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert [n for n in per_layer if not producible(n)] == []
    with open(os.path.join(HERE, "metric_map.json")) as fh:
        mapped = [n for layer in json.load(fh)["layers"].values()
                  for n in layer["metrics"]]
    assert sorted(mapped) == sorted(per_layer)


def test_bounds_check_compares_with_the_reference():
    workload = WORKLOADS["bounds_mid"]
    reference = {kind: {"xi_norm": 0.25, "phat_norm": 1.0} for kind in KINDS}

    def outputs(xi):
        cross = {1: xi, 2: 2 * xi + xi**2,
                 4: sum([4 * xi, 6 * xi**2, 4 * xi**3, xi**4])}
        return {f"{kind}/{L}": {"xi_norm": xi, "phat_norm": 1.0,
                                "cross_term": cross[L],
                                "zeta": [0.5**L + cross[L], None],
                                "lambda_gaps": [0.5, 0.0]}
                for kind in KINDS for L in BOUND_LAYERS}

    problems, _ = workload.check(outputs(0.25), reference)
    assert problems == []
    problems, _ = workload.check(outputs(0.25 * (1 + 1e-7)), reference)
    assert len(problems) == len(KINDS) * len(BOUND_LAYERS)


def test_changed_inputs_at_a_seed_are_a_benchmark_error(tmp_path, monkeypatch):
    import run

    monkeypatch.setattr(run, "DIGEST_RECORD", str(tmp_path / "record.json"))
    monkeypatch.setattr(run, "BASELINE", str(tmp_path / "baseline.json"))
    run.check_input_digests("sweep_small", 3, {"edges": "aa"})
    run.check_input_digests("sweep_small", 3, {"edges": "aa"})
    run.check_input_digests("sweep_small", 4, {"edges": "bb"})
    with pytest.raises(run.BenchmarkError):
        run.check_input_digests("sweep_small", 3, {"edges": "cc"})
