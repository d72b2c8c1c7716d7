import json
import os
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest

import reference_synth
from priorcast.data import (
    ModalityData,
    SynthConfig,
    load_manifest,
    read_features,
    read_labels,
    synth_generate,
    write_dataset,
    write_features,
    write_json,
    write_labels,
    write_tensor_file,
)
from priorcast.errors import ConfigError, FormatError
from priorcast.numerics import make_rng, row_spans


def test_features_round_trip(tmp_path):
    rng = make_rng(0)
    path = tmp_path / "m.dfm"
    for shape in [(1, 1), (7, 3), (40, 16)]:
        mat = rng.standard_normal(shape).astype(np.float32).astype(np.float64)
        write_features(path, mat)
        back = read_features(path)
        assert back.dtype == np.float32
        assert np.array_equal(back, mat)


def test_features_bad_magic(tmp_path):
    path = tmp_path / "bad.dfm"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(FormatError, match="magic"):
        read_features(path)


def test_features_truncated(tmp_path):
    rng = make_rng(1)
    path = tmp_path / "t.dfm"
    write_features(path, rng.standard_normal((5, 4)))
    data = path.read_bytes()
    path.write_bytes(data[:-7])
    with pytest.raises(FormatError, match="truncated"):
        read_features(path)


def test_features_dimension_overflow(tmp_path):
    path = tmp_path / "o.dfm"
    # header claims a payload far larger than anything sane
    path.write_bytes(b"DFM1" + struct.pack("<III", 2**20, 2**20, 0))
    with pytest.raises(FormatError, match="overflow"):
        read_features(path)


def test_labels_round_trip(tmp_path):
    path = tmp_path / "l.dlb"
    labels = np.array([0, 2, 1, 2, 0], dtype=np.int64)
    write_labels(path, labels, num_classes=3)
    back, c = read_labels(path)
    assert c == 3
    assert np.array_equal(back, labels)


def test_labels_reject_out_of_range(tmp_path):
    path = tmp_path / "l.dlb"
    with pytest.raises(FormatError):
        write_labels(path, np.array([0, 3]), num_classes=3)


def test_labels_header_claiming_more_than_the_file_holds(tmp_path):
    # 0xFFFFFFFF labels would be a ~17 GB read from a 20-byte file. The
    # reader runs in a child under a 2 GiB address-space limit, so one that
    # allocates before checking the file size fails there with MemoryError
    # instead of reserving the memory.
    path = tmp_path / "huge.dlb"
    path.write_bytes(b"DLB1" + struct.pack("<II", 0xFFFFFFFF, 3) + bytes(8))
    code = (
        "import resource, sys\n"
        "limit = resource.RLIMIT_AS\n"
        "resource.setrlimit(limit, (2 << 30, resource.getrlimit(limit)[1]))\n"
        "from priorcast.data import read_labels\n"
        "from priorcast.errors import FormatError\n"
        "try:\n"
        "    read_labels(sys.argv[1])\n"
        "except FormatError as exc:\n"
        "    print(exc)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", code, str(path)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("truncated payload: header claims 4294967295 labels")


def _write(ds, out_dir):
    """write_dataset, then the path of the manifest it wrote."""
    write_dataset(ds, out_dir)
    return os.path.join(str(out_dir), "manifest.json")


def test_dataset_write_load_round_trip(tmp_path):
    ds = synth_generate(SynthConfig(num_modalities=2, num_classes=3,
                                    feature_dims=[10, 8], samples_per_class=10,
                                    noise=[0.1, 0.2], seed=4))
    manifest = _write(ds, tmp_path)
    back = load_manifest(manifest)
    assert back.num_classes == ds.num_classes
    for split in ("train", "val", "test"):
        for a, b in zip(ds.splits[split], back.splits[split]):
            assert a.name == b.name
            assert np.array_equal(a.features, b.features)
            assert np.array_equal(a.labels, b.labels)


def test_manifest_lists_the_files_it_read(tmp_path):
    ds = synth_generate(SynthConfig(num_modalities=2, num_classes=3,
                                    feature_dims=[10, 8], samples_per_class=10,
                                    noise=[0.1, 0.2], seed=4))
    manifest = _write(ds, tmp_path)
    back = load_manifest(manifest)
    assert back.files == [manifest] + [
        os.path.join(str(tmp_path), f"mod{k}_{split}.{ext}")
        for split in ("train", "val", "test") for k in (0, 1) for ext in ("dfm", "dlb")]


@pytest.mark.parametrize("splits, match", [
    ([], "splits must be an object"),
    ({"train": {"name": "mod0"}}, "split 'train' missing or empty"),
    ({"train": [7]}, "entry 7 is not an object"),
    ({"train": [{"name": "mod0", "features": 3, "labels": "a.dlb"}]}, "string 'features'"),
    ({"train": [{"name": "mod0", "features": "a.dfm"}]}, "string 'labels'"),
    ({"train": [{"name": "mod0", "features": "a\0.dfm", "labels": "a.dlb"}]},
     "string 'features' without NUL"),
])
def test_manifest_rejects_malformed_shapes(tmp_path, splits, match):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"num_classes": 3, "splits": splits}))
    with pytest.raises(FormatError, match=match):
        load_manifest(path)


def test_manifest_rejects_missing_file(tmp_path):
    ds = synth_generate(SynthConfig(num_modalities=2, num_classes=3,
                                    feature_dims=[10, 8], samples_per_class=10,
                                    noise=[0.1, 0.2], seed=4))
    manifest = _write(ds, tmp_path)
    os.remove(tmp_path / "mod0_val.dfm")
    with pytest.raises((FormatError, OSError)):
        load_manifest(manifest)


def test_manifest_rejects_class_mismatch(tmp_path):
    ds = synth_generate(SynthConfig(num_modalities=2, num_classes=3,
                                    feature_dims=[10, 8], samples_per_class=10,
                                    noise=[0.1, 0.2], seed=4))
    manifest = _write(ds, tmp_path)
    raw = json.loads(open(manifest).read())
    raw["num_classes"] = 7
    with open(manifest, "w") as fh:
        json.dump(raw, fh)
    with pytest.raises(FormatError):
        load_manifest(manifest)


def test_manifest_rejects_feature_width_differing_across_splits(tmp_path):
    ds = synth_generate(SynthConfig(num_modalities=2, num_classes=3,
                                    feature_dims=[10, 8], samples_per_class=10,
                                    noise=[0.1, 0.2], seed=4))
    test0 = ds.splits["test"][0]
    ds.splits["test"][0] = ModalityData(test0.name, test0.features[:, :7], test0.labels)
    manifest = _write(ds, tmp_path)
    with pytest.raises(FormatError, match=r"'mod0': test features are 7 wide, train features 10"):
        load_manifest(manifest)


def test_synth_deterministic():
    cfg = SynthConfig(seed=9)
    a = synth_generate(cfg)
    b = synth_generate(cfg)
    for split in ("train", "val", "test"):
        for ma, mb in zip(a.splits[split], b.splits[split]):
            assert np.array_equal(ma.features, mb.features)
            assert np.array_equal(ma.labels, mb.labels)


def test_synth_split_sizes_and_stratification():
    ds = synth_generate(SynthConfig(seed=2))  # 40 per class, 5 classes, 3 modalities
    for mod in ds.splits["train"]:
        assert mod.num_samples == 5 * 32
    for mod in ds.splits["val"]:
        assert mod.num_samples == 5 * 4
    for mod in ds.splits["test"]:
        assert mod.num_samples == 5 * 4
        # every class present in every split
        assert set(np.unique(mod.labels)) == set(range(5))


def test_synth_zero_noise_collapses_classes():
    ds = synth_generate(SynthConfig(num_modalities=2, feature_dims=[24, 16],
                                    noise=[0.0, 0.0], seed=3))
    mod = ds.splits["train"][0]
    same = mod.features[mod.labels == 0]
    assert np.allclose(same, same[0])  # zero noise: identical within class
    # and classes stay apart
    other = mod.features[mod.labels == 1]
    assert np.linalg.norm(same[0] - other[0]) > 1.0


def test_synth_config_validation():
    with pytest.raises(ConfigError, match="separation"):
        SynthConfig(separation=0.0).validate()
    with pytest.raises(ConfigError, match="noise"):
        SynthConfig(noise=[-0.1, 0.1, 0.1]).validate()
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="separation"):
            SynthConfig(separation=bad).validate()
        with pytest.raises(ConfigError, match="noise"):
            SynthConfig(noise=[bad, 0.1, 0.1]).validate()
    with pytest.raises(ConfigError, match="feature_dims"):
        SynthConfig(feature_dims=[8, 8]).validate()  # K=3 needs 3 dims
    with pytest.raises(ConfigError):
        SynthConfig(samples_per_class=2).validate()


@pytest.mark.parametrize("field", [
    dict(separation=1e39), dict(separation=1e300),
    dict(noise=[0.1, 1e39, 0.1]), dict(noise=[1e308, 0.1, 0.1]),
    # at seed 1 every feature of both modalities is below -float32 max
    dict(num_modalities=2, num_classes=2, feature_dims=[1, 1], samples_per_class=3,
         noise=[0.0, 0.0], separation=1e39),
])
def test_synth_features_beyond_float32_are_a_config_error(field):
    # finite settings whose features overflow the float32 payload, without a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="separation and noise: modality 'mod"):
            synth_generate(SynthConfig(seed=1, **field))


@pytest.mark.parametrize("cfg", [
    SynthConfig(seed=5),
    SynthConfig(num_modalities=2, num_classes=2, feature_dims=[1, 3],
                samples_per_class=3, noise=[0.0, 0.2], seed=0),
    SynthConfig(num_modalities=4, num_classes=12, feature_dims=[1, 7, 16, 5],
                samples_per_class=3, noise=[0.3, 0.0, 1.5, 0.05], seed=17),
    SynthConfig(num_modalities=3, num_classes=12, feature_dims=[20, 24, 28],
                samples_per_class=23, noise=[0.0, 0.0, 0.0], separation=0.5, seed=3),
    SynthConfig(num_modalities=2, num_classes=2, feature_dims=[9, 1],
                samples_per_class=60, noise=[2.0, 0.1], separation=30.0, seed=2**31),
], ids=["default", "c2-k2-n3-dim1-noise0", "c12-k4-n3", "c12-all-noise0", "c2-n60"])
def test_synth_matches_frozen_generator(cfg):
    ds = synth_generate(cfg)
    expected = reference_synth.synth_generate(cfg)
    for split in ("train", "val", "test"):
        assert len(ds.splits[split]) == cfg.num_modalities
        for k, (mod, (feats, labels)) in enumerate(zip(ds.splits[split], expected[split])):
            assert mod.name == f"mod{k}"
            # the frozen generator widens its float32-rounded values back to
            # float64; synth_generate holds them as float32, as they are stored
            assert mod.features.dtype == np.float32 and feats.dtype == np.float64
            assert mod.labels.dtype == labels.dtype
            assert mod.features.shape == feats.shape and mod.labels.shape == labels.shape
            assert mod.features.astype(np.float64).tobytes() == feats.tobytes()
            assert np.array_equal(mod.labels, labels)


def test_row_spans_cover_the_rows_in_blocks_of_at_least_two():
    for n in range(1, 201):
        for height in range(1, 41):
            spans = row_spans(n, height)
            h = max(2, height)
            assert spans[0][0] == 0 and spans[-1][1] == n
            assert all(stop == nxt for (_, stop), (nxt, _) in zip(spans, spans[1:]))
            sizes = [stop - start for start, stop in spans]
            # a one-row tail joins the span before it: 4 + 4 + 1 rows are 4 + 5
            assert all(size >= min(2, n) for size in sizes)
            assert all(size <= h + 1 for size in sizes)
            assert all(size == h for size in sizes[:-1])
    assert row_spans(9, 4) == [(0, 4), (4, 9)]


@pytest.mark.parametrize("write", [
    lambda path: write_json(path, {"loss": float("nan")}),
    lambda path: write_tensor_file(path, {"format": "T"}, [np.zeros((2, 2)), np.zeros((1, 1, 1))]),
    lambda path: write_features(path, np.zeros(3)),
], ids=["json-nan", "tensor-3d", "features-1d"])
@pytest.mark.parametrize("existing", [False, True], ids=["new", "over-old"])
def test_failed_write_leaves_no_partial_or_temp_file(tmp_path, write, existing):
    path = tmp_path / "artifact"
    if existing:
        path.write_bytes(b"old")
    with pytest.raises((ValueError, FormatError)):
        write(path)
    assert os.listdir(tmp_path) == (["artifact"] if existing else [])
    if existing:
        assert path.read_bytes() == b"old"


def test_atomic_open_replaces_only_on_success(tmp_path):
    from priorcast.data import atomic_open

    path = tmp_path / "out.txt"
    with atomic_open(path, "w") as fh:
        fh.write("new")
        assert not path.exists()  # the content lands beside it until the end
    assert path.read_text() == "new" and os.listdir(tmp_path) == ["out.txt"]
    with pytest.raises(KeyboardInterrupt):
        with atomic_open(path, "w") as fh:
            fh.write("partial")
            raise KeyboardInterrupt
    assert path.read_text() == "new" and os.listdir(tmp_path) == ["out.txt"]
