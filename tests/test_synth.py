"""Synthetic planted-partition generator: determinism, validity of the
emitted files, that the planted structure is actually there, the bytes of
the benchmark beds, and the generator's memory."""
from __future__ import annotations

import hashlib
import json
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from palink.graphdata import load_dataset
from palink.synth import SynthConfig, synth_generate


def small_config(**kw):
    base = dict(sizes=(30, 30), p_in=0.4, p_out=0.02, t1_fraction=0.3,
                disparity_boost=0.0, feature_dim=4, seed=5)
    base.update(kw)
    return SynthConfig(**base)


def subgroup_a(paths) -> np.ndarray:
    """Per node, whether labels.tsv puts it in subgroup "a"."""
    with open(paths["labels"]) as fh:
        return np.array([line.split("\t")[2].strip() == "a" for line in fh])


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SynthConfig(sizes=(1, 5))
        with pytest.raises(ValueError):
            SynthConfig(sizes=())
        with pytest.raises(ValueError):
            SynthConfig(p_in=0.1, p_out=0.2)
        with pytest.raises(ValueError):
            SynthConfig(p_in=1.5)
        with pytest.raises(ValueError):
            SynthConfig(t1_fraction=0.0)
        with pytest.raises(ValueError):
            SynthConfig(t1_fraction=1.0)
        with pytest.raises(ValueError):
            SynthConfig(disparity_boost=-1.0)
        with pytest.raises(ValueError):
            SynthConfig(feature_dim=0)

    def test_per_group_values(self):
        cfg = SynthConfig(sizes=(10, 20), t1_fraction=(0.2, 0.4),
                          disparity_boost=(0.0, 3.0))
        assert (cfg.t1_fraction, cfg.disparity_boost) == ((0.2, 0.4), (0.0, 3.0))
        spread = SynthConfig(sizes=(10, 20), t1_fraction=0.5, disparity_boost=2)
        assert (spread.t1_fraction, spread.disparity_boost) == ((0.5, 0.5),
                                                                (2.0, 2.0))
        with pytest.raises(ValueError):
            SynthConfig(sizes=(10, 20), t1_fraction=(0.2, 0.4, 0.3))

    def test_n(self):
        assert SynthConfig(sizes=(3, 4, 5)).n == 12


class TestGenerate:
    def test_same_seed_same_bytes(self, tmp_path):
        cfg = small_config(disparity_boost=2.0)
        a = synth_generate(cfg, str(tmp_path / "a"))
        b = synth_generate(cfg, str(tmp_path / "b"))
        for role in ("edges", "features", "labels", "meta"):
            assert Path(a[role]).read_bytes() == Path(b[role]).read_bytes()

    def test_different_seed_different_edges(self, tmp_path):
        a = synth_generate(small_config(seed=1), str(tmp_path / "a"))
        b = synth_generate(small_config(seed=2), str(tmp_path / "b"))
        assert Path(a["edges"]).read_text() != Path(b["edges"]).read_text()

    def test_round_trip_and_meta(self, tmp_path):
        cfg = small_config()
        paths = synth_generate(cfg, str(tmp_path / "d"))
        ds = load_dataset(paths["edges"], paths["features"], paths["labels"])
        meta = json.loads(Path(paths["meta"]).read_text())
        assert ds.n == meta["n"] == cfg.n
        assert ds.m == meta["m"]
        assert meta["config"] == json.loads(json.dumps(asdict(cfg)))
        # contiguous blocks in the declared sizes
        counts = np.bincount(ds.s_labels)
        np.testing.assert_array_equal(counts, cfg.sizes)
        np.testing.assert_array_equal(
            ds.s_labels, np.repeat([0, 1], cfg.sizes)
        )
        # both subgroups present in every group, at the planted count
        for g, size in enumerate(cfg.sizes):
            t_here = ds.t_labels[ds.s_labels == g]
            k = max(1, round(0.3 * size))
            assert sorted(np.bincount(t_here, minlength=2)) == \
                sorted([k, size - k])
        assert ds.feature_dim == cfg.feature_dim

    def test_complete_blocks_at_extreme_probabilities(self, tmp_path):
        cfg = SynthConfig(sizes=(3, 4), p_in=1.0, p_out=0.0, feature_dim=2,
                          seed=0)
        paths = synth_generate(cfg, str(tmp_path / "d"))
        ds = load_dataset(paths["edges"], paths["features"], paths["labels"])
        assert ds.m == 3 + 6
        gi, gj = ds.s_labels[ds.edges[:, 0]], ds.s_labels[ds.edges[:, 1]]
        assert np.all(gi == gj)

    def test_within_group_edges_dominate(self, tmp_path):
        for seed in range(5):
            cfg = small_config(seed=seed)
            paths = synth_generate(cfg, str(tmp_path / f"s{seed}"))
            ds = load_dataset(paths["edges"], paths["features"],
                              paths["labels"])
            gi, gj = ds.s_labels[ds.edges[:, 0]], ds.s_labels[ds.edges[:, 1]]
            assert np.mean(gi == gj) > 0.9

    def test_boost_plants_degree_disparity(self, tmp_path):
        cfg = small_config(sizes=(40, 40), p_in=0.2, disparity_boost=6.0,
                           seed=3)
        paths = synth_generate(cfg, str(tmp_path / "d"))
        ds = load_dataset(paths["edges"], paths["features"], paths["labels"])
        is_a = subgroup_a(paths)
        gi, gj = ds.s_labels[ds.edges[:, 0]], ds.s_labels[ds.edges[:, 1]]
        within = ds.edges[gi == gj]
        deg = np.zeros(ds.n)
        np.add.at(deg, within[:, 0], 1.0)
        np.add.at(deg, within[:, 1], 1.0)
        for g in range(2):
            in_g = ds.s_labels == g
            boosted = deg[in_g & is_a].mean()
            plain = deg[in_g & ~is_a].mean()
            assert boosted > plain + 2.0

    def test_no_boost_no_systematic_gap(self, tmp_path):
        gaps = []
        for seed in range(6):
            cfg = small_config(sizes=(60, 60), seed=seed)
            paths = synth_generate(cfg, str(tmp_path / f"s{seed}"))
            ds = load_dataset(paths["edges"], paths["features"],
                              paths["labels"])
            is_a = subgroup_a(paths)
            deg = np.zeros(ds.n)
            np.add.at(deg, ds.edges[:, 0], 1.0)
            np.add.at(deg, ds.edges[:, 1], 1.0)
            gaps.append(deg[is_a].mean() - deg[~is_a].mean())
        assert abs(np.mean(gaps)) < 1.5

    def test_feature_separation_is_visible(self, tmp_path):
        cfg = small_config(sizes=(50, 50), feature_separation=3.0, seed=9)
        paths = synth_generate(cfg, str(tmp_path / "d"))
        ds = load_dataset(paths["edges"], paths["features"], paths["labels"])
        m0 = ds.features[ds.s_labels == 0].mean(axis=0)
        m1 = ds.features[ds.s_labels == 1].mean(axis=0)
        assert m0[0] - m1[0] > 1.5
        assert m1[1] - m0[1] > 1.5


# The benchmark beds at seed 2 and the sha256 of the four files that the
# dense one-draw-per-pair generator wrote for them.  A change to how the
# generator reads its random stream must keep every byte.
PINNED_BEDS = {
    "sweep_small": (
        dict(sizes=(100, 100), p_in=0.15, p_out=0.01, t1_fraction=0.25,
             disparity_boost=10.0, feature_dim=8, feature_separation=0.5),
        {"edges": "6f0aba5c5418c6bde0e8918db61c9aa7"
                  "a77a77f7fbaab3c9129d6f657116f5fb",
         "features": "c745892eca1966b4f718e4138870e5f8"
                     "28eac95d2cd6d06f02cdd9b6d2572679",
         "labels": "94306b1dd5a5d73848a020e5b5c68033"
                   "5cb0a2ddf6c9433452ed4bea8dcccc82",
         "meta": "95eb51dfe6882b011e1516d55a534f0f"
                 "d7df88e7ae8b5473106d68be6b0e538f"}),
    "theory_mid": (
        dict(sizes=(1000, 1000, 1000), p_in=0.03, p_out=0.0005,
             t1_fraction=0.3, feature_dim=16),
        {"edges": "5a8e975c3ec637818cbd61c8dcb3256e"
                  "128888aa469fb950105f577257a8f1e6",
         "features": "329367b54ad972a7b371fdb7fc6db978"
                     "1b65c6e808088ec01e3b65563fc838e3",
         "labels": "c0eb2db773978fb43b1f398df7c135fa"
                   "8dad537ab3daee11463b9fd493aa4476",
         "meta": "908f23cf5777f3a442ddf5398a9ea869"
                 "449d93d46055e90dc8da20ab61092a13"}),
    "bounds_mid": (
        dict(sizes=(400, 400, 400), p_in=0.05, p_out=0.001,
             t1_fraction=0.3, feature_dim=16),
        {"edges": "19eb5fabf035b70e061e9e51f8950054"
                  "d318931d4d18dd983b9907b98892e26b",
         "features": "c976a947dd9cc45fe0a365ad98be1f1a"
                     "7df057b694c9b21f7cec3a35da7aa233",
         "labels": "04de23daea1bca6e8ce297dc154e3ed2"
                   "5278316f53005ef48317ecb72ec6b8d8",
         "meta": "ae4cc54b9d8fd32d1db04f67a12b2250"
                 "3dc3f51bdef7ec51b4ead13ef4f7000f"}),
}


class TestPinnedBytes:
    @pytest.mark.parametrize("bed", sorted(PINNED_BEDS))
    def test_benchmark_bed_keeps_its_sha256(self, tmp_path, bed):
        kwargs, digests = PINNED_BEDS[bed]
        paths = synth_generate(SynthConfig(seed=2, **kwargs), str(tmp_path))
        got = {role: hashlib.sha256(Path(path).read_bytes()).hexdigest()
               for role, path in paths.items()}
        assert got == digests


class TestMemory:
    def test_peak_at_n6000_stays_under_128_mib(self, tmp_path):
        # One Bernoulli draw per pair over all 18M pairs at once held about
        # 566 MiB of index and probability arrays; drawing the uniforms a
        # chunk of keys at a time needs far less.  tracemalloc sees NumPy's
        # buffers and, unlike a child's ru_maxrss, not this process's past.
        cfg = SynthConfig(sizes=(2000, 2000, 2000), p_in=0.01, p_out=0.0005,
                          disparity_boost=5.0, seed=0)
        tracemalloc.start()
        try:
            synth_generate(cfg, str(tmp_path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * 2**20
