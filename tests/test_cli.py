import ctypes
import gc
import hashlib
import json
import math
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest

from priorcast import cli
from priorcast.cli import main
from priorcast.config import RunConfig
from priorcast.data import ModalityData, load_manifest, write_dataset
from priorcast.encoder import load_checkpoint, save_checkpoint
from priorcast.losses import q_at
from priorcast.prior import load_prior, save_prior


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return str(path)


def _synth_cfg(tmp_path, **over):
    doc = {"synth": {"num_modalities": 2, "num_classes": 3,
                     "feature_dims": [10, 8], "samples_per_class": 10,
                     "noise": [0.1, 0.1], "seed": 3}}
    doc["synth"].update(over)
    return _write(tmp_path / "synth.json", doc)


def _run_cfg(tmp_path, manifest, **over):
    doc = {"manifest": manifest, "seed": 5, "spl_epochs": 5, "rsc_epochs": 8,
           "batch_size": 8}
    doc.update(over)
    return _write(tmp_path / "run.json", doc)


def test_synth_writes_expected_files(tmp_path):
    cfg = _synth_cfg(tmp_path)
    out = tmp_path / "data"
    assert main(["synth", "--config", cfg, "--out", str(out)]) == 0
    names = sorted(os.listdir(out))
    dfm = [n for n in names if n.endswith(".dfm")]
    dlb = [n for n in names if n.endswith(".dlb")]
    assert len(dfm) == 6  # 2 modalities x 3 splits
    assert len(dlb) == 6
    assert "manifest.json" in names
    assert "run_manifest.json" in names


def test_synth_run_manifest_lists_only_the_files_it_wrote(tmp_path):
    # a file of another program, and a second synth into the same directory
    cfg = _synth_cfg(tmp_path)
    out = tmp_path / "data"
    out.mkdir()
    (out / "unrelated.txt").write_text("not part of the dataset")
    for _ in range(2):
        assert main(["synth", "--config", cfg, "--out", str(out)]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        written = sorted(set(os.listdir(out)) - {"unrelated.txt", "run_manifest.json"})
        assert sorted(manifest["outputs"]) == written
        assert manifest["outputs"] == {name: _sha256(out / name) for name in written}
        assert [stage["outputs"] for stage in manifest["stages"]] == [written]


def test_synth_deterministic_bytes(tmp_path):
    cfg = _synth_cfg(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["synth", "--config", cfg, "--out", str(out_a)])
    main(["synth", "--config", cfg, "--out", str(out_b)])
    for name in os.listdir(out_a):
        if name == "run_manifest.json":
            continue  # carries wall-clock
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_synth_rejects_bad_noise(tmp_path):
    cfg = _synth_cfg(tmp_path, noise=[-1.0, 0.1])
    assert main(["synth", "--config", cfg, "--out", str(tmp_path / "x")]) == 2


def test_missing_config_file(tmp_path):
    assert main(["synth", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "x")]) == 3


def test_config_without_manifest(tmp_path):
    cfg = _write(tmp_path / "r.json", {"seed": 1})
    assert main(["spl", "--config", cfg, "--out", str(tmp_path / "x")]) == 2


def test_train_without_prior(tmp_path):
    cfg = _synth_cfg(tmp_path)
    data = tmp_path / "data"
    main(["synth", "--config", cfg, "--out", str(data)])
    run = _run_cfg(tmp_path, str(data / "manifest.json"))
    assert main(["train", "--config", run, "--out", str(tmp_path / "run")]) == 3


def test_malformed_manifest_shapes_exit_3(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    for doc in ({"num_classes": 3, "splits": []},
                {"num_classes": 3, "splits": {"train": [7]}}):
        _write(manifest, doc)
        run = _run_cfg(tmp_path, str(manifest))
        assert main(["spl", "--config", run, "--out", str(tmp_path / "run")]) == 3
        assert "format error: manifest" in capsys.readouterr().err


def test_unknown_ablation(tmp_path):
    cfg = _synth_cfg(tmp_path)
    data = tmp_path / "data"
    main(["synth", "--config", cfg, "--out", str(data)])
    run = _run_cfg(tmp_path, str(data / "manifest.json"))
    assert main(["pipeline", "--config", run, "--out", str(tmp_path / "run"),
                 "--ablation", "bogus"]) == 2


def test_bad_n_rank(tmp_path):
    cfg = _synth_cfg(tmp_path)
    data = tmp_path / "data"
    main(["synth", "--config", cfg, "--out", str(data)])
    run = _run_cfg(tmp_path, str(data / "manifest.json"))
    assert main(["eval", "--config", run, "--out", str(tmp_path / "run"),
                 "--n-rank", "zero"]) == 2


# spl_report.json's keys, with selection and with no-spl; the stage's wall
# time is run_manifest.json's
SPL_REPORT_KEYS = {"scores", "selected", "runner_up", "lead", "epochs", "seed", "skipped",
                   "modalities"}


def test_pipeline_artifacts(tmp_path):
    cfg = _synth_cfg(tmp_path)
    data = tmp_path / "data"
    main(["synth", "--config", cfg, "--out", str(data)])
    run = _run_cfg(tmp_path, str(data / "manifest.json"))
    out = tmp_path / "run"
    assert main(["pipeline", "--config", run, "--out", str(out)]) == 0
    names = set(os.listdir(out))
    assert {"prior.bin", "encoder_mod0.bin", "encoder_mod1.bin",
            "map_table.json", "spl_report.json", "training_report.json",
            "run_manifest.json", "pr_mod0_mod1.csv",
            "pr_mod1_mod0.csv"} <= names
    table = json.loads((out / "map_table.json").read_text())
    assert len(table["pairs"]) == 2
    assert table["n_rank"] == "all"
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["version"]
    assert manifest["inputs"]  # digests recorded
    report = json.loads((out / "training_report.json").read_text())
    assert len(report["modalities"]) == 2
    spl = json.loads((out / "spl_report.json").read_text())
    assert set(spl) == SPL_REPORT_KEYS
    scores = spl["scores"]
    assert spl["runner_up"] in scores and spl["runner_up"] != spl["selected"]
    assert spl["lead"] == scores[spl["selected"]] - scores[spl["runner_up"]] >= 0
    # per-epoch stage-one records, in training_report.json's layout
    assert [m["name"] for m in spl["modalities"]] == ["mod0", "mod1"]
    for entry in spl["modalities"]:
        assert [rec["epoch"] for rec in entry["epochs"]] == list(range(5))
        assert [rec["q"] for rec in entry["epochs"]] == [q_at(RunConfig().q_start, 5, e) for e in range(5)]
        assert all(math.isfinite(rec[key]) for rec in entry["epochs"]
                   for key in ("label", "wall_seconds"))


def test_eval_n_rank_flag(tmp_path):
    cfg = _synth_cfg(tmp_path)
    data = tmp_path / "data"
    main(["synth", "--config", cfg, "--out", str(data)])
    run = _run_cfg(tmp_path, str(data / "manifest.json"))
    out = tmp_path / "run"
    main(["pipeline", "--config", run, "--out", str(out)])
    full = json.loads((out / "map_table.json").read_text())
    # the table records the depth asked for; each 3-item test gallery ranks 3 deep
    for depth in (5, 5000):
        assert main(["eval", "--config", run, "--out", str(out),
                     "--n-rank", str(depth)]) == 0
        table = json.loads((out / "map_table.json").read_text())
        assert table["n_rank"] == depth
    assert table["pairs"] == full["pairs"] and table["avg"] == full["avg"]


def test_pipeline_ablation_skip_spl(tmp_path):
    cfg = _synth_cfg(tmp_path)
    data = tmp_path / "data"
    main(["synth", "--config", cfg, "--out", str(data)])
    run = _run_cfg(tmp_path, str(data / "manifest.json"))
    out = tmp_path / "run"
    assert main(["pipeline", "--config", run, "--out", str(out),
                 "--ablation", "no-spl"]) == 0
    report = json.loads((out / "spl_report.json").read_text())
    assert set(report) == SPL_REPORT_KEYS
    assert report["skipped"] is True
    assert report["selected"] is None
    assert report["runner_up"] is None
    assert report["lead"] is None
    assert report["modalities"] == []


def test_stage_two_ablations_leave_the_prior_unchanged(tmp_path):
    """fixed-q-* and no-label-loss act on stage two only (README)."""
    run = _run_cfg(tmp_path, _synth_data(tmp_path))
    priors = []
    for i, flags in enumerate(([], ["--ablation", "fixed-q-0.5"], ["--ablation", "no-label-loss"])):
        out = tmp_path / f"run{i}"
        assert main(["spl", "--config", run, "--out", str(out), *flags]) == 0
        priors.append((out / "prior.bin").read_bytes())
    assert priors[1:] == priors[:1] * 2


def test_seed_flag_changes_result(tmp_path):
    cfg = _synth_cfg(tmp_path)
    data = tmp_path / "data"
    main(["synth", "--config", cfg, "--out", str(data)])
    run = _run_cfg(tmp_path, str(data / "manifest.json"))
    out_a, out_b = tmp_path / "ra", tmp_path / "rb"
    main(["pipeline", "--config", run, "--out", str(out_a), "--seed", "1"])
    main(["pipeline", "--config", run, "--out", str(out_b), "--seed", "2"])
    assert (out_a / "prior.bin").read_bytes() != (out_b / "prior.bin").read_bytes()


def _synth_data(tmp_path, name="data", **over):
    cfg = _synth_cfg(tmp_path, **over)
    data = tmp_path / name
    assert main(["synth", "--config", cfg, "--out", str(data)]) == 0
    return str(data / "manifest.json")


def test_pipeline_matches_stages_run_one_by_one(tmp_path):
    run = _run_cfg(tmp_path, _synth_data(tmp_path))
    staged, piped = tmp_path / "staged", tmp_path / "piped"
    for command in ("spl", "train", "eval"):
        assert main([command, "--config", run, "--out", str(staged)]) == 0
    assert main(["pipeline", "--config", run, "--out", str(piped)]) == 0
    # the reports and run manifests carry wall-clock; every artifact must match
    artifacts = sorted(n for n in os.listdir(staged)
                       if n.endswith((".bin", ".csv")) or n == "map_table.json")
    assert len(artifacts) == 1 + 2 + 1 + 2
    for name in artifacts:
        assert (staged / name).read_bytes() == (piped / name).read_bytes(), name
    manifest = json.loads((piped / "run_manifest.json").read_text())
    assert manifest["command"] == "pipeline"
    assert [s["stage"] for s in manifest["stages"]] == ["spl", "train", "eval"]
    assert all(s["wall_seconds"] >= 0 for s in manifest["stages"])
    assert set(artifacts) <= set(manifest["outputs"])
    assert sorted(manifest["outputs"]) == sorted(n for s in manifest["stages"] for n in s["outputs"])
    assert manifest["outputs"] == {name: _sha256(piped / name) for name in manifest["outputs"]}
    # files the pipeline wrote itself are outputs, not inputs
    assert not [p for p in manifest["inputs"] if p.startswith(os.path.join("..", "piped"))]
    assert "manifest.json" in manifest["inputs"]


def test_a_stage_run_alone_lists_what_it_reads_from_out_as_inputs(tmp_path):
    """train alone reads prior.bin and eval alone both checkpoints from --out;
    each is an input by hash, keyed by its path relative to the dataset."""
    run = _run_cfg(tmp_path, _synth_data(tmp_path))
    out = tmp_path / "run"
    reads = {"spl": [], "train": ["prior.bin"], "eval": ["encoder_mod0.bin", "encoder_mod1.bin"]}
    for command, names in reads.items():
        assert main([command, "--config", run, "--out", str(out)]) == 0
        inputs = json.loads((out / "run_manifest.json").read_text())["inputs"]
        from_out = {k: v for k, v in inputs.items() if k.startswith(os.path.join("..", "run", ""))}
        assert from_out == {os.path.join("..", "run", name): _sha256(out / name)
                            for name in names}


def test_run_manifest_outputs_are_the_stage_table_writes(tmp_path):
    """After each command, the manifest's outputs are stage_table's writes of
    the stages that ran, each with its file's hash; --out holds no other file
    of priorcast's than the writes of the stages up to the last one run; a
    foreign file is neither listed nor removed."""
    manifest = _synth_data(tmp_path, num_modalities=3, feature_dims=[10, 8, 6],
                           noise=[0.1, 0.1, 0.1])
    table = cli.stage_table(load_manifest(manifest).modality_names())
    assert len(table["eval"][2]) == 1 + 3 * 2
    run = _run_cfg(tmp_path, manifest)
    staged, piped = tmp_path / "staged", tmp_path / "piped"
    piped.mkdir()
    (piped / "notes.txt").write_text("kept")
    order = ["spl", "train", "eval"]
    for command, out, seed in (("spl", staged, "1"), ("train", staged, "1"),
                               ("eval", staged, "1"), ("pipeline", piped, "1"),
                               ("spl", staged, "2")):
        assert main([command, "--config", run, "--out", str(out), "--seed", seed]) == 0
        ran = order if command == "pipeline" else [command]
        kept = order[:order.index(ran[-1]) + 1]
        doc = json.loads((out / "run_manifest.json").read_text())
        assert sorted(doc["outputs"]) == sorted(f for name in ran for f in table[name][2])
        assert doc["outputs"] == {name: _sha256(out / name) for name in doc["outputs"]}
        assert [s["outputs"] for s in doc["stages"]] == [sorted(table[name][2]) for name in ran]
        left = set(os.listdir(out)) - {"run_manifest.json", "notes.txt"}
        assert left == {f for name in kept for f in table[name][2]}
    assert (piped / "notes.txt").read_text() == "kept"


def _spy_on_stages(monkeypatch, on_start):
    """Wrap each stage function so on_start(stage, dataset) runs as it starts."""
    for name in ("spl", "train", "eval"):
        real = getattr(cli, f"cmd_{name}")

        def spy(cfg, out_dir, dataset, clear, name=name, real=real):
            on_start(name, dataset)
            return real(cfg, out_dir, dataset, clear)
        monkeypatch.setattr(cli, f"cmd_{name}", spy)


def test_each_stage_holds_only_the_splits_it_or_a_later_stage_reads(tmp_path, monkeypatch):
    held = []
    _spy_on_stages(monkeypatch, lambda name, dataset: held.append(
        (name, sorted(dataset.splits))))
    run = _run_cfg(tmp_path, _synth_data(tmp_path))
    out = str(tmp_path / "run")
    assert main(["pipeline", "--config", run, "--out", out]) == 0
    assert held == [("spl", ["test", "train"]), ("train", ["test", "train"]),
                    ("eval", ["test"])]
    for command, split in (("spl", "train"), ("train", "train"), ("eval", "test")):
        held.clear()
        assert main([command, "--config", run, "--out", out]) == 0
        assert held == [(command, [split])]


def test_pipeline_frees_the_training_split_before_eval(tmp_path, monkeypatch):
    refs, alive_at_eval = [], []

    def on_start(name, dataset):
        if name == "spl":
            refs.append(weakref.ref(dataset.splits["train"][0].features))
        elif name == "eval":
            alive_at_eval.append(refs[0]() is not None)  # no gc.collect(): refcounts alone
    _spy_on_stages(monkeypatch, on_start)
    run = _run_cfg(tmp_path, _synth_data(tmp_path))
    assert main(["pipeline", "--config", run, "--out", str(tmp_path / "run")]) == 0
    assert alive_at_eval == [False]


def test_runs_without_a_c_library_handle(tmp_path, monkeypatch):
    """On Windows ctypes.CDLL(None) raises TypeError; no command may depend on it."""
    def no_handle(*args, **kwargs):
        raise TypeError("argument of type 'NoneType' is not iterable")
    monkeypatch.setattr(ctypes, "CDLL", no_handle)
    assert main(["synth", "--config", _synth_cfg(tmp_path),
                 "--out", str(tmp_path / "data")]) == 0


def test_eval_rejects_checkpoint_of_other_feature_dim(tmp_path, capsys):
    run = _run_cfg(tmp_path, _synth_data(tmp_path))
    out = tmp_path / "run"
    assert main(["pipeline", "--config", run, "--out", str(out)]) == 0
    other = _synth_data(tmp_path, "other", feature_dims=[9, 8])
    run = _run_cfg(tmp_path, other)
    assert main(["eval", "--config", run, "--out", str(out)]) == 3
    assert "encoder_mod0.bin" in capsys.readouterr().err


def test_train_rejects_prior_of_other_embed_dim(tmp_path, capsys):
    manifest = _synth_data(tmp_path)
    out = tmp_path / "run"
    assert main(["spl", "--config", _run_cfg(tmp_path, manifest), "--out", str(out)]) == 0
    run = _run_cfg(tmp_path, manifest, embed_dim=8)
    assert main(["train", "--config", run, "--out", str(out)]) == 3
    assert "prior.bin" in capsys.readouterr().err


def test_train_rejects_prior_of_other_class_count(tmp_path, capsys):
    out = tmp_path / "run"
    run = _run_cfg(tmp_path, _synth_data(tmp_path))
    assert main(["spl", "--config", run, "--out", str(out)]) == 0
    run = _run_cfg(tmp_path, _synth_data(tmp_path, "other", num_classes=4))
    assert main(["train", "--config", run, "--out", str(out)]) == 3
    assert "prior.bin" in capsys.readouterr().err


def test_pipeline_rejects_split_width_mismatch_before_any_stage(tmp_path, capsys):
    manifest = _synth_data(tmp_path)
    # mod0's test features one column narrower than its training features
    with open(manifest) as fh:
        doc = json.load(fh)
    doc["splits"]["test"][0]["features"] = doc["splits"]["test"][1]["features"]
    _write(manifest, doc)
    out = tmp_path / "run"
    assert main(["pipeline", "--config", _run_cfg(tmp_path, manifest), "--out", str(out)]) == 3
    assert "'mod0': test features are 8 wide, train features 10" in capsys.readouterr().err
    assert not (out / "prior.bin").exists()


@pytest.mark.parametrize("ablation,stage,unwritten", [
    (["--ablation", "no-spl"], "stage two", "training_report.json"),
    ([], "stage one", "prior.bin"),
], ids=["stage-two", "stage-one"])
def test_pipeline_exits_4_when_training_goes_non_finite(tmp_path, capsys, ablation, stage,
                                                         unwritten):
    run = _run_cfg(tmp_path, _synth_data(tmp_path), lr=1e200)
    out = tmp_path / "run"
    with np.errstate(all="ignore"):
        code = main(["pipeline", "--config", run, "--out", str(out), *ablation])
    assert code == 4
    assert f"{stage}, epoch 0: loss or parameters not finite" in capsys.readouterr().err
    assert not [n for n in os.listdir(out) if n.startswith("encoder_")]
    assert not (out / unwritten).exists()


def test_run_manifest_keys_inputs_by_path_relative_to_the_dataset(tmp_path):
    manifest = _synth_data(tmp_path)
    data = os.path.dirname(manifest)
    synth_inputs = json.loads((tmp_path / "data" / "run_manifest.json").read_text())["inputs"]
    assert list(synth_inputs) == [os.path.join("..", "synth.json")]
    # one directory per modality, each holding train.dfm, train.dlb, val.dfm, ...
    with open(manifest) as fh:
        doc = json.load(fh)
    for entries in doc["splits"].values():
        for entry in entries:
            os.makedirs(os.path.join(data, entry["name"]), exist_ok=True)
            for key in ("features", "labels"):
                moved = os.path.join(entry["name"], entry[key].split("_", 1)[1])
                os.replace(os.path.join(data, entry[key]), os.path.join(data, moved))
                entry[key] = moved
    _write(manifest, doc)
    run = _run_cfg(tmp_path, manifest)
    out = tmp_path / "run"
    assert main(["pipeline", "--config", run, "--out", str(out)]) == 0
    inputs = json.loads((out / "run_manifest.json").read_text())["inputs"]
    data_files = [os.path.join(mod, f"{split}.{ext}") for mod in ("mod0", "mod1")
                  for split in ("train", "val", "test") for ext in ("dfm", "dlb")]
    assert sorted(inputs) == sorted([os.path.join("..", "run.json"), "manifest.json"]
                                    + data_files)
    assert len(inputs) == 14



# --- one row per exit-code case of the README ---

def _edited_data(tmp_path, edit):
    """A synthetic dataset, rewritten after edit(dataset) changed it in place."""
    dataset = load_manifest(_synth_data(tmp_path, "synth"))
    edit(dataset)
    write_dataset(dataset, tmp_path / "data")
    return str(tmp_path / "data" / "manifest.json")


def _drop_mod1(dataset):
    for split in dataset.splits.values():
        del split[1:]


def _rename_mod1(dataset):
    for split in dataset.splits.values():
        split[1].name = "mod0"


def _one_train_sample(dataset):
    mod = dataset.splits["train"][0]
    dataset.splits["train"][0] = ModalityData(mod.name, mod.features[:1], mod.labels[:1])


def _disjoint_test_classes(dataset):
    for k, mod in enumerate(dataset.splits["test"]):
        rows = mod.labels == k  # mod0 keeps class 0 only, mod1 class 1 only
        dataset.splits["test"][k] = ModalityData(mod.name, mod.features[rows], mod.labels[rows])


def _narrow_mod0_test(dataset):
    mod = dataset.splits["test"][0]
    dataset.splits["test"][0] = ModalityData(mod.name, mod.features[:, :8], mod.labels)


def _run(command="pipeline", *flags, edit=None, **over):
    """Set-up of a row: command on a (possibly edited) dataset into tmp/run."""
    def setup(tmp_path):
        manifest = _edited_data(tmp_path, edit) if edit else _synth_data(tmp_path)
        return [command, "--config", _run_cfg(tmp_path, manifest, **over),
                "--out", str(tmp_path / "run"), *flags]
    return setup


def _raw_config(text, command="spl"):
    def setup(tmp_path):
        path = tmp_path / "raw.json"
        path.write_bytes(text)
        return [command, "--config", str(path), "--out", str(tmp_path / "run")]
    return setup


def _synth_field(**field):
    def setup(tmp_path):
        return ["synth", "--config", _synth_cfg(tmp_path, **field),
                "--out", str(tmp_path / "run")]
    return setup


def _damaged(damage):
    """A pipeline on a synthetic dataset after damage(data directory)."""
    def setup(tmp_path):
        argv = _run()(tmp_path)
        damage(tmp_path / "data")
        return argv
    return setup


def _truncate(path):
    with open(path, "r+b") as fh:
        fh.truncate(40)  # the header claims 3 x 10 floats; 24 payload bytes remain


def _append(path, extra):
    with open(path, "ab") as fh:
        fh.write(extra)


def _train_on_prior_with_trailing_bytes(tmp_path):
    assert main(_run("spl")(tmp_path)) == 0
    _append(tmp_path / "run" / "prior.bin", b"GARBAGE")
    return _run("train")(tmp_path)


def _eval_on_checkpoint_with_trailing_bytes(tmp_path):
    assert main(_run()(tmp_path)) == 0
    _append(tmp_path / "run" / "encoder_mod0.bin", b"\0")
    return _run("eval")(tmp_path)


def _train_on_prior_with_deep_header(tmp_path):
    assert main(_run("spl")(tmp_path)) == 0
    path = tmp_path / "run" / "prior.bin"
    _, blocks = path.read_bytes().split(b"\n", 1)
    path.write_bytes(b"[" * 100_000 + b"\n" + blocks)
    return _run("train")(tmp_path)


def _train_on_prior_of_other_shape(tmp_path):
    assert main(_run("spl")(tmp_path)) == 0
    return _run("train", embed_dim=8)(tmp_path)


def _eval_with_other_embed_dim(tmp_path):
    assert main(_run()(tmp_path)) == 0
    return _run("eval", embed_dim=8)(tmp_path)


def _edited_manifest(change, edit=None):
    """A pipeline on a synthetic dataset (edited by edit, if given) whose
    manifest.json change(doc) then rewrote."""
    def setup(tmp_path):
        argv = _run(edit=edit)(tmp_path)
        manifest = tmp_path / "data" / "manifest.json"
        doc = json.loads(manifest.read_text())
        change(doc)
        _write(manifest, doc)
        return argv
    return setup


def _rename_in_manifest(name):
    """A synthetic dataset whose manifest calls mod1 name in every split."""
    def rename(doc):
        for entries in doc["splits"].values():
            entries[1]["name"] = name
    return _edited_manifest(rename)


def _one_class(dataset):
    dataset.num_classes = 1
    for split in dataset.splits.values():
        for k, mod in enumerate(split):
            split[k] = ModalityData(mod.name, mod.features, np.zeros_like(mod.labels))


def _widen_mod0(dataset):
    # 46342 x 46340 is just over the 2**31-element cap; 46340 x 46340 is not
    for split in dataset.splits.values():
        mod = split[0]
        wide = np.pad(mod.features, ((0, 0), (0, 46342 - mod.feature_dim)))
        split[0] = ModalityData(mod.name, wide, mod.labels)


def _eval_on_nan_checkpoint(tmp_path):
    assert main(_run()(tmp_path)) == 0
    path = tmp_path / "run" / "encoder_mod0.bin"
    params, header = load_checkpoint(path)
    params.w1[0, 0] = np.nan
    save_checkpoint(path, params, header["modality"])
    return _run("eval")(tmp_path)


def _train_on_nan_prior(tmp_path):
    assert main(_run("spl")(tmp_path)) == 0
    path = tmp_path / "run" / "prior.bin"
    prior = load_prior(path)
    prior.w[0, 0] = np.nan
    save_prior(path, prior)
    return _run("train")(tmp_path)


def _eval_on_other_feature_width(tmp_path):
    assert main(_run()(tmp_path)) == 0
    other = _run_cfg(tmp_path, _synth_data(tmp_path, "other", feature_dims=[9, 8]))
    return ["eval", "--config", other, "--out", str(tmp_path / "run")]


EXIT_CASES = {
    # 2: configuration errors
    "config-without-synth": (2, "config error: config has no 'synth'",
                             _raw_config(b'{"seed": 1}', "synth")),
    "config-without-manifest": (2, "config error: config has no 'manifest'",
                                _raw_config(b'{"seed": 1}')),
    "config-unknown-key": (2, "config error: unknown config keys",
                           _raw_config(b'{"learning_rate": 0.1}')),
    # the retired ablation flags are unknown keys; mixup names one of three modes
    "config-retired-fa-off": (2, "config error: unknown config keys: ['fa_off']",
                              _raw_config(b'{"fa_off": true}')),
    "config-retired-drop-disc": (2, "config error: unknown config keys: ['drop_disc']",
                                 _raw_config(b'{"drop_disc": true}')),
    "config-unknown-mixup": (2, "config error: mixup must be one of embedding, input, off, "
                                "got 'both'", _raw_config(b'{"mixup": "both"}')),
    "config-wrong-type": (2, "config error: batch_size must be an integer",
                          _raw_config(b'{"batch_size": "big"}')),
    "config-out-of-range": (2, "config error: mix_lambda must be in (0, 1]",
                            _raw_config(b'{"mix_lambda": 0}')),
    "config-non-finite": (2, "config error: alpha must be finite", _raw_config(b'{"alpha": NaN}')),
    "config-dims-over-cap": (2, "config error: hidden_dim 100000000000 and embed_dim 16 give",
                             _raw_config(b'{"hidden_dim": 100000000000}')),
    "synth-out-of-range": (2, "config error: noise: standard deviations",
                           _synth_field(noise=[-1.0, 0.1])),
    "synth-beyond-float32": (2, "config error: separation and noise: modality 'mod0' features",
                             _synth_field(separation=1e300)),
    "synth-negative-seed": (2, "config error: seed: must be >= 0, got -1",
                            _synth_field(seed=-1)),
    "synth-list-of-strings": (2, "config error: synth.feature_dims must be a list of integers",
                              _synth_field(feature_dims=["8", "6"])),
    "synth-float-count": (2, "config error: synth.num_classes must be an integer",
                          _synth_field(num_classes=5.5)),
    "synth-scalar-for-list": (2, "config error: synth.noise must be a list of numbers",
                              _synth_field(noise=0.1)),
    # sizes that would once end in a MemoryError (exit 1) inside synth_generate
    "synth-dims-over-cap": (2, "config error: num_classes, samples_per_class and feature_dims",
                            _synth_field(feature_dims=[2**40, 4])),
    "synth-classes-over-cap": (2, "config error: num_classes, samples_per_class and feature_dims",
                               _synth_field(num_classes=2**40)),
    "synth-samples-over-cap": (2, "config error: num_classes, samples_per_class and feature_dims",
                               _synth_field(samples_per_class=2**40)),
    # a train split of 70000 x 1, but (70000, 70000, 1) centre differences
    "synth-centres-over-cap": (2, "config error: num_classes, samples_per_class and "
                                  "feature_dims: 70000 classes in 1 dimensions",
                               _synth_field(num_classes=70000, samples_per_class=3,
                                            feature_dims=[1, 1])),
    # a train split of 2 x 2**29 and (2, 2, 2**29) centre differences, but a
    # (2**29, 2**29) latent map
    "synth-map-over-cap": (2, "config error: num_classes, samples_per_class and "
                              "feature_dims: 2 classes in 536870912 dimensions",
                           _synth_field(num_classes=2, samples_per_class=3,
                                        feature_dims=[2**29, 2**29])),
    "unknown-ablation": (2, "config error: unknown ablation 'bogus'",
                         _run("pipeline", "--ablation", "bogus")),
    "bad-n-rank-flag": (2, "config error: --n-rank must be 'all'", _run("eval", "--n-rank", "zero")),
    "negative-seed-flag": (2, "config error: --seed must be >= 0", _run("pipeline", "--seed", "-1")),
    "embed-dim-below-classes": (2, "config error: embed_dim 2 is below the dataset's 3 classes",
                                _run(embed_dim=2)),
    # synth refuses this width, so the set-up writes it with write_dataset
    "first-layer-over-cap": (2, "config error: hidden_dim 46340 and the widest feature width "
                                "46342 give", _run(edit=_widen_mod0, hidden_dim=46340)),
    "config-manifest-lone-surrogate": (2, "config error: manifest path must be UTF-8 text",
                                       _raw_config(b'{"manifest": "data/\\ud800.json"}')),
    # 3: I/O and file-format errors
    "config-missing": (3, "i/o error:", lambda tmp_path: [
        "spl", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "run")]),
    "config-not-json": (3, "format error: config", _raw_config(b"{not json")),
    "config-not-utf8": (3, "format error: config", _raw_config(b'{"seed": "\xff"}')),
    "config-nested-too-deep": (3, "format error: config", _raw_config(b"[" * 100_000)),
    "config-integer-too-long": (3, "format error: config",
                                _raw_config(b'{"seed": 1' + b"0" * 5000 + b"}")),
    "manifest-nested-too-deep": (3, "format error: manifest is not valid JSON", _damaged(
        lambda data: (data / "manifest.json").write_bytes(b"[" * 100_000))),
    "prior-header-nested-too-deep": (3, "format error: malformed header",
                                     _train_on_prior_with_deep_header),
    "manifest-not-object": (3, "format error: manifest must be an object",
                            _damaged(lambda data: (data / "manifest.json").write_text("[]"))),
    "manifest-not-utf8": (3, "format error: manifest is not valid JSON", _damaged(
        lambda data: (data / "manifest.json").write_bytes(b'{"num_classes": "\xff"}'))),
    # true == 1 matches the one-class label headers
    "manifest-num-classes-true": (3, "format error: manifest num_classes must be a positive",
                                  _edited_manifest(lambda doc: doc.update(num_classes=True),
                                                   edit=_one_class)),
    "manifest-unknown-key": (3, "format error: manifest has unknown keys ['extra']",
                             _edited_manifest(lambda doc: doc.update(extra=1))),
    "manifest-unknown-split": (3, "format error: manifest splits has unknown keys ['extra']",
                               _edited_manifest(
                                   lambda doc: doc["splits"].update(extra=doc["splits"]["val"]))),
    "manifest-entry-unknown-key": (
        3, "format error: manifest split 'test': entry has unknown keys ['weight']",
        _edited_manifest(lambda doc: doc["splits"]["test"][0].update(weight=2))),
    "manifest-features-lone-surrogate": (
        3, "format error: manifest entry needs a UTF-8 string 'features'",
        _edited_manifest(lambda doc: doc["splits"]["train"][0].update(features="\udc00.dfm"))),
    "data-file-missing": (3, "i/o error:", _damaged(lambda data: (data / "mod1_test.dlb").unlink())),
    "features-truncated": (3, "format error: truncated payload",
                           _damaged(lambda data: _truncate(data / "mod0_val.dfm"))),
    "features-trailing-bytes": (3, "format error: trailing bytes after the last block",
                                _damaged(lambda data: _append(data / "mod0_val.dfm", b"GARBAGE"))),
    "labels-trailing-bytes": (3, "format error: trailing bytes after the last block",
                              _damaged(lambda data: _append(data / "mod1_test.dlb", b"XYZW"))),
    "prior-trailing-bytes": (3, "format error:", _train_on_prior_with_trailing_bytes),
    "checkpoint-trailing-bytes": (3, "format error:", _eval_on_checkpoint_with_trailing_bytes),
    "one-modality": (3, "format error: need at least two modalities", _run(edit=_drop_mod1)),
    "modality-named-twice": (3, "format error: need at least two modalities, each named once",
                             _run(edit=_rename_mod1)),
    "one-sample-train-split": (3, "format error: modality 'mod0': training split has 1 sample",
                               _run(edit=_one_train_sample)),
    "test-splits-share-no-class": (3, "format error: test splits of 'mod0' and 'mod1' share no",
                                   _run(edit=_disjoint_test_classes)),
    "split-width-mismatch": (3, "format error: modality 'mod0': test features are 8 wide",
                             _run(edit=_narrow_mod0_test)),
    "no-prior-to-train": (3, "i/o error:", _run("train")),
    "prior-of-other-shape": (3, "format error:", _train_on_prior_of_other_shape),
    "checkpoint-of-other-width": (3, "format error:", _eval_on_other_feature_width),
    "checkpoint-of-other-embed-dim": (3, "format error:", _eval_with_other_embed_dim),
    "checkpoint-not-finite": (3, "format error:", _eval_on_nan_checkpoint),
    "prior-not-finite": (3, "format error:", _train_on_nan_prior),
    "modality-name-with-slash": (3, "format error: modality name 'sub/mod1' is not a safe",
                                 _rename_in_manifest("sub/mod1")),
    "modality-name-with-dotdot": (3, "format error: modality name '..' is not a safe",
                                  _rename_in_manifest("..")),
    "modality-name-empty": (3, "format error: modality name '' is not a safe",
                            _rename_in_manifest("")),
    "modality-name-lone-surrogate": (3, "format error: manifest entry needs a UTF-8 string 'name'",
                                     _rename_in_manifest("m\ud800")),
    "modality-names-share-a-pr-file": (
        3, "format error: modality pairs ('mod0', 'mod0_mod0') and ('mod0_mod0', 'mod0') would "
           "both write pr_mod0_mod0_mod0.csv", _rename_in_manifest("mod0_mod0")),
    # 4: numeric failures
    "non-finite-training": (4, "numeric failure: stage one, epoch 0", _run("spl", lr=1e200)),
}


def _artifacts(out):
    """The files in out by name, but for the run manifest, which a stage removes."""
    if not out.exists():
        return {}
    return {p.name: p.read_bytes() for p in out.iterdir() if p.name != "run_manifest.json"}


@pytest.mark.parametrize("case", EXIT_CASES)
def test_exit_code_cases(tmp_path, capsys, case):
    code, prefix, setup = EXIT_CASES[case]
    argv = setup(tmp_path)
    before = _artifacts(tmp_path / "run")
    capsys.readouterr()
    with np.errstate(all="ignore"):
        assert main(argv) == code
    assert capsys.readouterr().err.startswith(prefix)
    assert _artifacts(tmp_path / "run") == before  # the failing command wrote nothing


@pytest.mark.parametrize("case, name", [("features-truncated", "mod0_val.dfm"),
                                        ("labels-trailing-bytes", "mod1_test.dlb")])
def test_format_errors_name_the_file(tmp_path, capsys, case, name):
    argv = EXIT_CASES[case][2](tmp_path)
    capsys.readouterr()
    assert main(argv) == 3
    assert capsys.readouterr().err.rstrip().endswith(f"(in {tmp_path / 'data' / name})")


def test_an_error_inside_a_stage_surfaces_as_a_bug(tmp_path, monkeypatch):
    """Inputs are checked at load; a ValueError from a stage is a bug, which
    main does not report as an input error but lets end the run (exit 1)."""
    def broken(*args):
        raise ValueError("kernel bug")
    monkeypatch.setattr("priorcast.prior.run_spl", broken)
    with pytest.raises(ValueError, match="kernel bug"):
        main(_run("spl")(tmp_path))


def test_failed_pipeline_leaves_no_older_run_manifest(tmp_path):
    manifest = _synth_data(tmp_path)
    out = tmp_path / "run"
    assert main(["pipeline", "--config", _run_cfg(tmp_path, manifest), "--out", str(out)]) == 0
    assert (out / "run_manifest.json").exists()
    failing = _run_cfg(tmp_path, manifest, lr=1e200)
    with np.errstate(all="ignore"):
        code = main(["pipeline", "--config", failing, "--out", str(out), "--ablation", "no-spl"])
    assert code == 4
    assert not (out / "run_manifest.json").exists()


def test_a_new_prior_removes_what_was_made_from_the_old_one(tmp_path, capsys):
    """spl removes the encoders, the training report and eval's outputs of
    the prior it replaces, and train removes eval's outputs, so eval after a
    new spl exits 3 on a missing checkpoint instead of scoring the old
    encoders beside the new prior. Files priorcast does not write stay."""
    run = _run_cfg(tmp_path, _synth_data(tmp_path))
    out = tmp_path / "run"
    assert main(["pipeline", "--config", run, "--out", str(out), "--seed", "1"]) == 0
    (out / "notes.txt").write_text("kept")
    made = {"encoder_mod0.bin", "encoder_mod1.bin", "training_report.json", "map_table.json",
            "pr_mod0_mod1.csv", "pr_mod1_mod0.csv"}
    assert made <= set(os.listdir(out))

    assert main(["spl", "--config", run, "--out", str(out), "--seed", "2"]) == 0
    assert not made & set(os.listdir(out))
    assert {"prior.bin", "spl_report.json", "notes.txt"} <= set(os.listdir(out))
    capsys.readouterr()
    assert main(["eval", "--config", run, "--out", str(out)]) == 3
    assert "encoder_mod0.bin" in capsys.readouterr().err

    assert main(["train", "--config", run, "--out", str(out), "--seed", "2"]) == 0
    assert main(["eval", "--config", run, "--out", str(out), "--seed", "2"]) == 0
    assert main(["train", "--config", run, "--out", str(out), "--seed", "3"]) == 0
    assert not {"map_table.json", "pr_mod0_mod1.csv", "pr_mod1_mod0.csv"} & set(os.listdir(out))
    assert (out / "notes.txt").read_text() == "kept"


def _cli_process(*args):
    """A fresh interpreter running `python args...` against this checkout's priorcast."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)


_IMPORT_PROBE = """
import json, sys
from priorcast import cli
stage = [f"priorcast.{m}" for m in ("encoder", "losses", "prior", "training", "evaluate")]
synth_cfg, data, run_cfg, out = sys.argv[1:]
seen = {}
assert cli.main(["synth", "--config", synth_cfg, "--out", data]) == 0
seen["loaded by synth"] = [m for m in stage if m in sys.modules]
real = cli.load_manifest
def spy(path):
    seen["missing at load_manifest"] = [m for m in stage if m not in sys.modules]
    return real(path)
cli.load_manifest = spy
assert cli.main(["spl", "--config", run_cfg, "--out", out]) == 0
print(json.dumps(seen))
"""


def test_synth_loads_no_stage_module_and_stages_load_them_before_the_dataset(tmp_path):
    """In a fresh interpreter: `synth` imports none of the stage modules, and a
    stage command has imported all of them when it loads the dataset."""
    data = tmp_path / "data"
    argv = [_synth_cfg(tmp_path), str(data), _run_cfg(tmp_path, str(data / "manifest.json")),
            str(tmp_path / "run")]
    done = _cli_process("-c", _IMPORT_PROBE, *argv)
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout.splitlines()[-1])
    assert seen == {"loaded by synth": [], "missing at load_manifest": []}


def test_module_entry_exits_with_main_code(tmp_path):
    out = tmp_path / "data"
    done = _cli_process("-m", "priorcast.cli", "synth", "--config", _synth_cfg(tmp_path),
                        "--out", str(out))
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"wrote dataset manifest {out / 'manifest.json'}\n"
    assert done.stderr == ""
    bad = _write(tmp_path / "bad.json", {"synth": {"noise": [-1.0, 0.1, 0.1]}})
    done = _cli_process("-m", "priorcast.cli", "synth", "--config", bad,
                        "--out", str(tmp_path / "x"))
    assert done.returncode == 2
    assert done.stderr.startswith("config error: ")


def test_overflowing_loss_weights_exit_4_without_numpy_warnings(tmp_path):
    """Weights of 1e308 overflow stage two's loss in its first epoch. Exit 4
    reports that; numpy's overflow warnings must not print ahead of it."""
    run = _run_cfg(tmp_path, _synth_data(tmp_path), alpha=1e308, beta=1e308)
    done = _cli_process("-m", "priorcast.cli", "pipeline", "--config", run,
                        "--out", str(tmp_path / "run"))
    assert done.returncode == 4
    failure = "stage two, epoch 0: loss or parameters not finite"
    assert done.stderr.splitlines() == [f"pipeline stage 'train' failed: {failure}",
                                        f"numeric failure: {failure}"]


_ATEXIT_WRAPPER = """
import atexit, gc, sys
from priorcast import cli
atexit.register(lambda: print(f"atexit ran, {gc.get_freeze_count()} objects frozen"))
cli.run()
"""


def test_process_entry_keeps_atexit_hooks_and_freezes_after_main(tmp_path):
    """cli.run() ends the process through sys.exit, not os._exit: a hook a
    wrapper registered still runs, and by then the heap is frozen."""
    done = _cli_process("-c", _ATEXIT_WRAPPER, "synth", "--config", _synth_cfg(tmp_path),
                        "--out", str(tmp_path / "data"))
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("wrote dataset manifest ")
    assert lines[1].startswith("atexit ran, ") and int(lines[1].split()[2]) > 0


def test_main_does_not_freeze_the_heap(tmp_path):
    frozen = gc.get_freeze_count()
    assert main(["synth", "--config", _synth_cfg(tmp_path), "--out", str(tmp_path / "d")]) == 0
    assert gc.get_freeze_count() == frozen


def test_console_script_is_the_process_entry():
    tomllib = pytest.importorskip("tomllib")
    pyproject = os.path.join(os.path.dirname(os.path.dirname(__file__)), "pyproject.toml")
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"priorcast": "priorcast.cli:run"}
