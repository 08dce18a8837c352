"""Dataset loading, validation, normalization, and within-group structure."""
from __future__ import annotations

import json
import time
import warnings

import numpy as np
import pytest

from palink import graphdata
from palink.cli import main
from palink.fairness import delta_hat
from palink.graphdata import (
    DatasetError,
    load_dataset,
    make_dataset,
    normalize_features,
    within_group_structure,
)
from palink.theory import group_c1

from conftest import random_planted_dataset


def write_files(tmp_path, edges_text, features_text, labels_text):
    e = tmp_path / "edges.txt"
    f = tmp_path / "features.csv"
    l = tmp_path / "labels.tsv"
    e.write_text(edges_text, encoding="utf-8")
    f.write_text(features_text, encoding="utf-8")
    l.write_text(labels_text, encoding="utf-8")
    return str(e), str(f), str(l)


def write_train_config(tmp_path, paths) -> str:
    """A one-epoch ``train`` config on the files ``paths``."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "dataset": dict(zip(("edges", "features", "labels"), paths)),
        "hidden_dims": [2], "epochs": 1, "seeds": [0],
        "out": str(tmp_path / "runs"),
    }))
    return str(config)


class TestLoader:
    def test_round_trip_with_comments_and_blanks(self, tmp_path):
        # the second feature file holds lines of blanks, one before a #
        for features in ("1.0,2.0\n3.0,4.0\n5.0,6.0\n",
                         "1.0,2.0\n  \n3.0,4.0\n \t # c\n5.0,6.0\n\t\n"):
            paths = write_files(
                tmp_path,
                "# header comment\n0 1\n\n1 2  # trailing comment\n",
                features,
                "0\tred\tx\n1\tblue\ty\n2\tred\tx\n",
            )
            ds = load_dataset(*paths, self_loop_weight=1.0)
            assert ds.n == 3
            np.testing.assert_array_equal(ds.edges, [[0, 1], [1, 2]])
            np.testing.assert_allclose(ds.features, [[1, 2], [3, 4], [5, 6]])
            # first-seen order: red -> 0, blue -> 1; x -> 0, y -> 1
            np.testing.assert_array_equal(ds.s_labels, [0, 1, 0])
            np.testing.assert_array_equal(ds.t_labels, [0, 1, 0])
            assert ds.self_loop_weight == 1.0

    def test_duplicate_edges_collapsed_and_counted(self, tmp_path):
        paths = write_files(
            tmp_path,
            "0 1\n1 0\n0 1\n",
            "1.0\n2.0\n",
            "0\ta\n1\tb\n",
        )
        ds = load_dataset(*paths)
        assert ds.m == 1
        assert ds.n_duplicate_edges == 2

    def test_labels_without_subgroup_column(self, tmp_path):
        paths = write_files(tmp_path, "0 1\n", "1.0\n2.0\n", "0\ta\n1\ta\n")
        ds = load_dataset(*paths)
        assert ds.t_labels is None

    @pytest.mark.parametrize(
        "edges,features,labels",
        [
            ("0 5\n", "1.0\n2.0\n", "0\ta\n1\ta\n"),  # endpoint out of range
            ("0 0\n", "1.0\n2.0\n", "0\ta\n1\ta\n"),  # explicit self-edge
            ("0 x\n", "1.0\n2.0\n", "0\ta\n1\ta\n"),  # non-integer id
            ("0 1 2\n", "1.0\n2.0\n", "0\ta\n1\ta\n"),  # wrong arity
            ("0 1\n2 3 4\n", "1.0\n2.0\n", "0\ta\n1\ta\n"),  # mixed arity
            ("0 1\n1\n", "1.0\n2.0\n", "0\ta\n1\ta\n"),  # one-token line
            ("1\n", "1.0\n2.0\n", "0\ta\n1\ta\n"),  # one token only
            ("0 1.5\n", "1.0\n2.0\n", "0\ta\n1\ta\n"),  # float id
            ("0 99999999999999999999\n", "1.0\n2.0\n",
             "0\ta\n1\ta\n"),  # id above int64
            ("0 1\n", "1.0\nbad\n", "0\ta\n1\ta\n"),  # non-numeric feature
            ("0 1\n", "1.0\n2.0\n", "0\ta\n"),  # missing label row
            ("0 1\n", "1.0\n2.0\n", "0\ta\n0\tb\n"),  # duplicate node label
            ("0 1\n", "1.0\n2.0\n", "0\ta\tx\n1\tb\n"),  # partial t column
            ("0 1\n", "1.0\n2.0\n", "0\ta\tx\n1\tb\ty\n2\tc\tz\n"),  # extra row
            ("0 1\n", "1.0\n2.0\n", "0\ta\n1\n"),  # one label field
            ("0 1\n", "1.0\n2.0\n", "0\ta\tx\ty\n1\ta\tx\ty\n"),  # four
            ("0 1\n", "1.0\n2.0\n", "0\ta\nx\ta\n"),  # non-integer label id
            ("0 1\n", "1.0\n2.0\n", "0\ta\n2\ta\n"),  # label id outside
        ],
    )
    def test_malformed_inputs_raise(self, tmp_path, edges, features, labels):
        paths = write_files(tmp_path, edges, features, labels)
        with pytest.raises(DatasetError):
            load_dataset(*paths)

    def test_comment_only_edge_file_has_no_edges(self, tmp_path):
        paths = write_files(tmp_path, "# no edges yet\n\n", "1.0\n2.0\n",
                            "0\ta\n1\ta\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ds = load_dataset(*paths)
        assert ds.edges.shape == (0, 2) and ds.edges.dtype == np.int64

    def test_oversized_node_id_exits_2_through_cli(self, tmp_path, capsys):
        paths = write_files(tmp_path, "0 99999999999999999999\n",
                            "1.0\n2.0\n", "0\ta\n1\ta\n")
        config = write_train_config(tmp_path, paths)
        assert main(["train", "--config", config]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {paths[0]}:1: node id ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "edges,line",
        [
            ("# header\n\n0 1\n2 x\n", 4),  # bad token
            ("# header\n\n0 1\n2\n", 4),  # one id
            ("0 1\n\n# c\n3 4 5\n", 4),  # three ids after a blank
            ("0 1 2\n3 4 5\n", 1),  # three ids on every line
            ("0 1\n# 9 9 9\n1 99999999999999999999\n", 3),  # above int64
        ],
    )
    def test_edge_error_names_file_line(self, tmp_path, edges, line):
        paths = write_files(tmp_path, edges, "1.0\n2.0\n", "0\ta\n1\ta\n")
        with pytest.raises(DatasetError) as info:
            load_dataset(*paths)
        assert str(info.value).startswith(f"{paths[0]}:{line}: ")

    def test_edge_line_error_exits_2_through_cli(self, tmp_path, capsys):
        paths = write_files(tmp_path, "# header\n\n0 1\n2 x\n",
                            "1.0\n2.0\n3.0\n", "0\ta\n1\ta\n2\ta\n")
        config = write_train_config(tmp_path, paths)
        assert main(["train", "--config", config]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {paths[0]}:4: 'x' is not an integer node id\n"

    @pytest.mark.parametrize("edges,features,labels,role,message", [
        ("0 1\n# c\n\n1 5\n", "1.0\n2.0\n", b"0\ta\n1\ta\n", 0,
         ":4: edge endpoint outside 0..1"),
        ("0 1\n1 1\n", "1.0\n2.0\n", b"0\ta\n1\ta\n", 0,
         ":2: explicit self-edges are not allowed; use self_loop_weight"),
        ("0 1\n", "", b"0\ta\n1\ta\n", 1, ": no feature rows"),
        ("0 1\n", "# c\n\n1.0,2.0\n3.0,bad\n", b"0\ta\n1\ta\n", 1,
         ":4: 'bad' is not a number\n"),
        ("0 1\n", "1.0,2.0\n3.0,4.0\n5.0\n", b"0\ta\n1\ta\n", 1,
         ":3: expected 2 values, got 1\n"),
        ("0 1\n", "1.0\n2.0\n", b"0\ta\n1\t\xff\n", 2,
         ":2: 'utf-8' codec can't decode byte 0xff"),
        ("0 1\n", "1.0\n2.0\n", b"# c\n\n0\ta\n1\n", 2,
         ":4: expected 2 or 3 tab-separated fields\n"),
        ("0 1\n", "1.0\n2.0\n", b"# c\n\n0\ta\nx\ta\n", 2,
         ":4: non-integer node id\n"),
        ("0 1\n", "1.0\n2.0\n", b"0\ta\n5\ta\n", 2,
         ": node id 5 outside 0..1\n"),
        ("0 1\n", "1_0\n2.0\n", b"0\ta\n1\ta\n", 1,
         ":1: '1_0' is not a number\n"),
        ("0 1\n", "1.0\n2.0\n", b"0\ta\n1_0\ta\n", 2,
         ":2: non-integer node id\n"),
        ("0 1\n", "1.0\n2.0\n", "0\ta\n\u0661\ta\n".encode(), 2,
         ":2: non-integer node id\n"),
        ("0 1\n", "1.0\n2.0\n", b"0\ta\nx\ta\n2\n", 2,
         ":2: non-integer node id\n"),
        ("0 1\n", "1.0\n2.0\n", b"0,1\ta\n\ta\n", 2,
         ":1: non-integer node id\n"),
        (f"0 1\n1 {2**63}\n", "1.0\n2.0\n", b"0\ta\n1\ta\n", 0,
         f":2: node id {2**63} is outside int64\n"),
        # a byte that is not UTF-8 names its line, in a comment too
        ("0 1\n", b"1.0\n2.0 # \xff\n", b"0\ta\n1\ta\n", 1,
         ":2: 'utf-8' codec can't decode byte 0xff"),
        (b"0 1 # \xff\n1 0\n", "1.0\n2.0\n", b"0\ta\n1\ta\n", 0,
         ":1: 'utf-8' codec can't decode byte 0xff"),
        ("0 1\n", "1.0\n2.0\n", b"0\tg\n1\tg # \xff\n", 2,
         ":2: 'utf-8' codec can't decode byte 0xff"),
    ], ids=["endpoint_outside", "self_edge", "empty_features",
            "feature_token", "feature_short_row", "labels_not_utf8",
            "label_fields", "label_node_id", "label_node_outside",
            "feature_underscore", "label_node_underscore",
            "label_node_non_ascii", "label_node_id_before_fields",
            "label_node_comma", "edge_node_past_int64",
            "feature_comment_not_utf8", "edge_comment_not_utf8",
            "label_not_utf8_line_2"])
    def test_content_error_exits_2_naming_its_file(
            self, tmp_path, capsys, edges, features, labels, role, message):
        paths = write_files(tmp_path, "", "", "")
        for path, content in zip(paths, (edges, features, labels)):
            with open(path, "wb") as fh:
                fh.write(content if isinstance(content, bytes)
                         else content.encode())
        config = write_train_config(tmp_path, paths)
        assert main(["train", "--config", config]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {paths[role]}{message}")
        assert err.count("\n") == 1  # no warning, no traceback

    def test_one_edge_check_per_load(self, tmp_path, monkeypatch):
        calls = []
        real = graphdata._bad_edge

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(graphdata, "_bad_edge", counted)
        paths = write_files(tmp_path, "0 1\n1 2\n", "1.0\n2.0\n3.0\n",
                            "0\ta\n1\ta\n2\tb\n")
        load_dataset(*paths)
        assert len(calls) == 1
        # a failing load checks the edges once too, and names the line
        write_files(tmp_path, "0 1\n1 1\n", "1.0\n2.0\n3.0\n",
                    "0\ta\n1\ta\n2\tb\n")
        with pytest.raises(DatasetError, match=r"edges\.txt:2: explicit"):
            load_dataset(*paths)
        assert len(calls) == 2

    @pytest.mark.parametrize("token,value", [
        ("+3", 3), (" 7 ", 7), ("1_0", None), ("\u0661", None),
        ("1.0", None), ("0x1", None), ("1e3", None), ("", None),
        (str(2**63), None),
    ])
    def test_node_id_rule_is_loadtxts_int64(self, tmp_path, token, value):
        # the one node-id rule of edges and labels, token by token
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # loadtxt warns on no data
            # and NumPy 1.23 on reads ``1.0`` via a float, with a warning
            warnings.simplefilter("error", DeprecationWarning)
            try:
                read = np.loadtxt([token], dtype=np.int64, ndmin=1).tolist()
            except (ValueError, DeprecationWarning):
                read = []
        assert read == ([] if value is None else [value])
        rule = graphdata._read([token], np.int64)
        assert (None if rule is None else rule.tolist()) == (
            None if value is None else [value])
        paths = write_files(tmp_path, "", "1.0\n", f"{token}\ta\n")
        message = ("non-integer node id" if value is None
                   else f"node id {value} outside 0..0")
        with pytest.raises(DatasetError, match=message):
            load_dataset(*paths)

    @pytest.mark.parametrize("edges,labels,message", [
        ("0 1.0\n", "0\ta\n1\ta\n", r"edges\.txt:1: '1\.0' is not an integer"),
        ("0 1\n", "0\ta\n1.0\ta\n", r"labels\.tsv:2: non-integer node id"),
    ], ids=["edges", "labels"])
    def test_int_read_via_float_is_rejected(self, tmp_path, monkeypatch,
                                            edges, labels, message):
        # NumPy releases from 1.23 read an int64 token such as ``1.0`` via
        # a float and only warn, with a DeprecationWarning that is hidden
        # outside ``__main__``; under such a NumPy ``1.0`` is no node id
        real = np.loadtxt

        def via_float(source, *, dtype=float, **kwargs):
            try:
                return real(source, dtype=dtype, **kwargs)
            except ValueError:
                if dtype is not np.int64:
                    raise
                warnings.warn("loadtxt(): Parsing an integer via a float is "
                              "deprecated.", DeprecationWarning, stacklevel=2)
                floats = real(source, dtype=np.float64, **kwargs)
                return floats.astype(np.int64)

        monkeypatch.setattr(np, "loadtxt", via_float)
        paths = write_files(tmp_path, edges, "1.0\n2.0\n", labels)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            assert np.loadtxt(["1.0"], dtype=np.int64).tolist() == 1
            with pytest.raises(DatasetError, match=message):
                load_dataset(*paths)

    @pytest.mark.parametrize("labels,message", [
        ("0\ta\n", "1 label rows for 2 nodes"),
        ("0\ta\tx\n1\ta\tx\n", "subgroup labels must take exactly"),
    ], ids=["label_rows", "one_subgroup"])
    def test_label_error_wins_over_edge_endpoint(self, tmp_path, labels,
                                                 message):
        # the endpoint is checked with the arrays, after the labels
        paths = write_files(tmp_path, "0 5\n", "1.0\n2.0\n", labels)
        with pytest.raises(DatasetError, match=message):
            load_dataset(*paths)

    def test_three_subgroup_values_rejected(self, tmp_path):
        paths = write_files(
            tmp_path,
            "0 1\n",
            "1.0\n2.0\n3.0\n",
            "0\ta\tx\n1\ta\ty\n2\ta\tz\n",
        )
        with pytest.raises(DatasetError):
            load_dataset(*paths)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError):
            load_dataset(str(tmp_path / "no.txt"), str(tmp_path / "no.csv"),
                         str(tmp_path / "no.tsv"))

    def test_negative_self_loop_weight(self, tmp_path):
        paths = write_files(tmp_path, "0 1\n", "1.0\n2.0\n", "0\ta\n1\ta\n")
        with pytest.raises(DatasetError):
            load_dataset(*paths, self_loop_weight=-1.0)


class TestMakeDataset:
    def test_canonicalizes_edge_order(self):
        ds = make_dataset([(3, 1), (0, 2)], np.ones((4, 1)), [0] * 4)
        np.testing.assert_array_equal(ds.edges, [[0, 2], [1, 3]])

    def test_rejects_non_finite_features(self):
        with pytest.raises(DatasetError):
            make_dataset([(0, 1)], [[np.nan], [1.0]], [0, 0])

    def test_rejects_single_subgroup_value(self):
        with pytest.raises(DatasetError):
            make_dataset([(0, 1)], np.ones((2, 1)), [0, 0], t_labels=[1, 1])

    @pytest.mark.parametrize("features,s_labels,t_labels,message", [
        (np.ones(3), [0, 0, 0], None, "non-empty 2-d array"),
        (np.ones((0, 2)), [], None, "non-empty 2-d array"),
        (np.ones((3, 1)), [0, 0], None, "expected 3 group labels"),
        (np.ones((3, 1)), [0, 0, 0], [0, 1], "expected 3 subgroup labels"),
        (np.ones((3, 1)), [0, -1, 0], None, "must be non-negative"),
    ], ids=["features_1d", "features_empty", "group_count",
            "subgroup_count", "negative_group"])
    def test_malformed_arrays_raise(self, features, s_labels, t_labels,
                                    message):
        with pytest.raises(DatasetError, match=message):
            make_dataset([(0, 1)], features, s_labels, t_labels)


class TestNormalization:
    def test_row_sum_one(self):
        x = np.array([[1.0, 3.0], [0.0, 0.0], [2.0, 2.0]])
        out, counts = normalize_features(x, "row_sum_one")
        np.testing.assert_allclose(out[0], [0.25, 0.75])
        np.testing.assert_allclose(out[2], [0.5, 0.5])
        # zero-sum row left unchanged, flagged
        np.testing.assert_allclose(out[1], [0.0, 0.0])
        assert counts == {"n_zero_sum_rows": 1, "n_constant_columns": 0}

    def test_row_sum_one_idempotent(self):
        rng = np.random.default_rng(7)
        x = np.abs(rng.normal(size=(10, 4))) + 0.1
        once, _ = normalize_features(x, "row_sum_one")
        twice, _ = normalize_features(once, "row_sum_one")
        np.testing.assert_allclose(twice, once, rtol=0, atol=1e-15)

    def test_minmax_signed(self):
        x = np.array([[0.0, 5.0], [10.0, 5.0], [5.0, 5.0]])
        out, counts = normalize_features(x, "minmax_signed")
        np.testing.assert_allclose(out[:, 0], [-1.0, 1.0, 0.0])
        # constant column maps to zero and is flagged
        np.testing.assert_allclose(out[:, 1], 0.0)
        assert counts == {"n_zero_sum_rows": 0, "n_constant_columns": 1}

    def test_minmax_signed_idempotent(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(12, 3))
        once, _ = normalize_features(x, "minmax_signed")
        twice, _ = normalize_features(once, "minmax_signed")
        np.testing.assert_allclose(twice, once, atol=1e-12)

    def test_none_mode_and_unknown_mode(self):
        x = np.ones((2, 2))
        out, counts = normalize_features(x, "none")
        np.testing.assert_array_equal(out, x)
        assert counts == {"n_zero_sum_rows": 0, "n_constant_columns": 0}
        with pytest.raises(ValueError):
            normalize_features(x, "zscore")


class TestWithinGroupView:
    def test_toy_degrees(self, toy_cs):
        view = within_group_structure(toy_cs)
        np.testing.assert_allclose(view.wg_degrees, [1, 2, 1, 3, 1, 0])
        # hub degree 3; mean within-group degree over subgroup 1 members
        women = np.array([0, 1, 2, 4])
        assert view.wg_degrees[3] == 3.0
        assert view.wg_degrees[women].mean() == 1.25

    def test_toy_refinement(self, toy_cs):
        view = within_group_structure(toy_cs)
        assert view.n_groups == 2
        np.testing.assert_array_equal(
            view.order[view.offsets[0]:view.offsets[1]], [0, 1, 2, 3, 4])
        np.testing.assert_array_equal(
            view.order[view.offsets[1]:view.offsets[2]], [5])
        assert view.volumes[0] == 8.0
        assert view.volumes[1] == 0.0
        np.testing.assert_array_equal(np.diff(view.offsets) == 1,
                                      [False, True])

    def test_cross_edges_removed(self):
        ds = make_dataset([(0, 1), (1, 2)], np.ones((3, 1)), [0, 0, 1])
        view = within_group_structure(ds)
        np.testing.assert_array_equal(view.wg_edges, [[0, 1]])
        np.testing.assert_allclose(view.wg_degrees, [2.0, 2.0, 1.0])

    def test_disconnected_label_class_splits(self):
        # one label class in two components: {0,1} and {2,3}
        ds = make_dataset([(0, 1), (2, 3)], np.ones((4, 1)), [0, 0, 0, 0],
                          self_loop_weight=0.0)
        view = within_group_structure(ds)
        assert view.n_groups == 2
        np.testing.assert_array_equal(view.group_of, [0, 0, 1, 1])

    def test_self_loop_weight_in_degrees(self):
        ds = make_dataset([(0, 1)], np.ones((2, 1)), [0, 0],
                          self_loop_weight=2.0)
        view = within_group_structure(ds)
        np.testing.assert_allclose(view.wg_degrees, [3.0, 3.0])
        assert view.volumes[0] == 6.0

    def test_group_numbering_by_smallest_node(self):
        # components {0,3} and {1,2}: group 0 must contain node 0
        ds = make_dataset([(0, 3), (1, 2)], np.ones((4, 1)), [0, 1, 1, 0])
        view = within_group_structure(ds)
        np.testing.assert_array_equal(
            view.order[view.offsets[0]:view.offsets[1]], [0, 3])
        np.testing.assert_array_equal(
            view.order[view.offsets[1]:view.offsets[2]], [1, 2])

    def test_random_structure_invariants(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            ds = random_planted_dataset(rng)
            view = within_group_structure(ds)
            members = [view.order[view.offsets[g]:view.offsets[g + 1]]
                       for g in range(view.n_groups)]
            # every within-group edge joins same s label and same component
            for u, v in view.wg_edges:
                assert ds.s_labels[u] == ds.s_labels[v]
                assert view.group_of[u] == view.group_of[v]
            # volumes match degree sums; groups partition the nodes
            np.testing.assert_allclose(
                view.volumes,
                [view.wg_degrees[g].sum() for g in members],
            )
            assert sum(g.size for g in members) == ds.n
            counts = np.bincount(view.wg_edges.ravel(), minlength=ds.n)
            np.testing.assert_allclose(
                view.wg_degrees, counts + ds.self_loop_weight
            )
            # refined groups never span two label classes
            for g in members:
                assert np.unique(ds.s_labels[g]).size == 1
            # group g is order[offsets[g]:offsets[g + 1]], ascending, as a
            # scan of group_of finds it
            for g in range(view.n_groups):
                np.testing.assert_array_equal(
                    view.order[view.offsets[g]:view.offsets[g + 1]],
                    np.flatnonzero(view.group_of == g),
                )

    def test_million_nodes_mostly_singletons(self):
        # 1M nodes in 3 labels with n/4 random edges: ~920k refined groups,
        # ~90% of them singletons.  A full-length scan per group takes
        # minutes here; the sorted layout takes well under a second.
        n = 1_000_000
        rng = np.random.default_rng(8)
        edges = rng.integers(0, n, size=(n // 4, 2))
        edges = edges[edges[:, 0] != edges[:, 1]]
        ds = make_dataset(edges, np.zeros((n, 1)), rng.integers(0, 3, size=n),
                          rng.integers(0, 2, size=n))
        start = time.perf_counter()
        view = within_group_structure(ds)
        assert time.perf_counter() - start < 60.0

        sizes = np.diff(view.offsets)
        assert view.offsets[0] == 0 and view.offsets[-1] == n
        assert sizes.min() == 1 and np.mean(sizes == 1) > 0.8
        np.testing.assert_array_equal(
            view.group_of[view.order], np.repeat(np.arange(view.n_groups), sizes)
        )
        within = np.diff(view.group_of[view.order]) == 0
        assert np.all(np.diff(view.order)[within] > 0)
        firsts = view.order[view.offsets[:-1]]
        assert np.all(np.diff(firsts) > 0)  # numbered by smallest member
        assert view.volumes.sum() == view.wg_degrees.sum()

        # a singleton of degree 1 (its self-loop) has C1 = ||alpha||
        alphas = rng.normal(size=(n, 2))
        c1 = group_c1(view, alphas, "symmetric")
        lone = sizes == 1
        np.testing.assert_allclose(
            c1[lone], np.linalg.norm(alphas[firsts[lone]], axis=1),
            rtol=1e-15,
        )
        closed, disparity = delta_hat(view, np.ones(view.n_groups), c1,
                                      ds.t_labels)
        assert closed.size == disparity.size == view.n_groups
        # a singleton has one subgroup only
        assert np.isnan(closed[lone]).all() and np.isnan(disparity[lone]).all()
