"""The bytes of every output the command line writes, against a committed
table.

``synth`` makes a small bed; then ``train``, ``validate-theory``,
``delta-compare`` and ``fairness-sweep`` run on it under ``--filter sym``
and ``--filter rw``.  The sha256 of every file written and of each
command's stdout must equal ``digests.json``.  The commands run in a fresh
directory on relative paths, so the run directories' config hashes and the
printed paths do not depend on where the test runs.

Last bits depend on the machine (NumPy's SIMD kernels and the BLAS are
chosen by CPU), so the table stores the environment it was taken on, and
the test skips, naming the field, where this one differs or cannot be read.
A change that moves bits re-takes the table in the same commit:

    PYTHONPATH=src python tests/test_digests.py
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

from palink.cli import main

TABLE = Path(__file__).with_name("digests.json")
SYNTH = {"sizes": [60, 60], "p_in": 0.08, "p_out": 0.01, "t1_fraction": 0.3,
         "disparity_boost": 4.0, "feature_dim": 8, "seed": 0, "out": "data"}
RUN = {"dataset": {"name": "bed", "edges": "data/edges.txt",
                   "features": "data/features.csv",
                   "labels": "data/labels.tsv"},
       "normalization": "minmax_signed", "hidden_dims": [32, 16],
       "epochs": 5, "seeds": [0, 1], "lambda_fair": [0.0, 1.0],
       "out": "runs"}
COMMANDS = ("train", "validate-theory", "delta-compare", "fairness-sweep")


def environment() -> dict:
    """What the outputs' last bits depend on; None where it cannot be
    read."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # NumPy before 1.26 has no mode
        config = {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    simd = config.get("SIMD Extensions", {})
    return {
        "python": "%d.%d" % sys.version_info[:2],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "simd_baseline": simd.get("baseline"),
        "simd_found": simd.get("found"),
    }


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def output_digests(root: Path) -> dict:
    """Run every command in ``root``; the sha256 of each command's stdout
    and of each file written, by relative path."""
    work = root / "work"
    work.mkdir()
    (root / "synth.json").write_text(json.dumps(SYNTH))
    (root / "run.json").write_text(json.dumps(RUN))
    argvs = [["synth", "--config", str(root / "synth.json")]]
    argvs += [[command, "--config", str(root / "run.json"), "--filter", kind]
              for kind in ("sym", "rw") for command in COMMANDS]
    digests = {}
    cwd = os.getcwd()
    os.chdir(work)
    try:
        for argv in argvs:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                assert main(argv) == 0, argv
            key = " ".join(argv[:1] + argv[3:])
            digests[f"{key}: stdout"] = _sha256(stdout.getvalue().encode())
    finally:
        os.chdir(cwd)
    for path in sorted(work.rglob("*")):
        if path.is_file():
            digests[path.relative_to(work).as_posix()] = _sha256(
                path.read_bytes())
    return digests


def test_outputs_keep_their_sha256(tmp_path):
    table = json.loads(TABLE.read_text())
    here = environment()
    for field, taken in table["environment"].items():
        if here[field] is None:
            pytest.skip(f"digest table: {field} cannot be read here")
        if here[field] != taken:
            pytest.skip(f"digest table: {field} is {here[field]!r} here, "
                        f"the table was taken at {taken!r}")
    got, want = output_digests(tmp_path), table["sha256"]
    moved = sorted(key for key in got.keys() | want.keys()
                   if got.get(key) != want.get(key))
    assert not moved, ("outputs moved: re-take the table with "
                       "`PYTHONPATH=src python tests/test_digests.py` "
                       f"and name each moved output: {moved}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        table = {"environment": environment(),
                 "sha256": output_digests(Path(scratch))}
    TABLE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {TABLE}: {len(table['sha256'])} digests")
