import json
import os

import numpy as np
import pytest

from priorcast.cli import main


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


def test_eval_n_rank_flag(tmp_path):
    cfg = _synth_cfg(tmp_path)
    data = tmp_path / "data"
    main(["synth", "--config", cfg, "--out", str(data)])
    run = _run_cfg(tmp_path, str(data / "manifest.json"))
    out = tmp_path / "run"
    main(["pipeline", "--config", run, "--out", str(out)])
    assert main(["eval", "--config", run, "--out", str(out),
                 "--n-rank", "5"]) == 0
    table = json.loads((out / "map_table.json").read_text())
    assert table["n_rank"] == 5


def test_pipeline_ablation_skip_spl(tmp_path):
    cfg = _synth_cfg(tmp_path)
    data = tmp_path / "data"
    main(["synth", "--config", cfg, "--out", str(data)])
    run = _run_cfg(tmp_path, str(data / "manifest.json"))
    out = tmp_path / "run"
    assert main(["pipeline", "--config", run, "--out", str(out),
                 "--ablation", "no-spl"]) == 0
    report = json.loads((out / "spl_report.json").read_text())
    assert report["skipped"] is True
    assert report["selected"] is None


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
    assert manifest["outputs"] == sorted(n for s in manifest["stages"] for n in s["outputs"])
    # files the pipeline wrote itself are outputs, not inputs
    assert "prior.bin" not in manifest["inputs"]
    assert "manifest.json" in manifest["inputs"]


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
