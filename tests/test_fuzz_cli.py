"""The whole CLI, fuzzed in-process: no input makes it exit 1.

A tiny synthetic dataset and a finished pipeline run over it are made once.
Each example restores them, applies one drawn mutation and runs, through
cli.main, the command that reads the mutated file first: `synth` for the
synth config, `pipeline` for the run config and the dataset, `train` for
prior.bin and `eval` for an encoder checkpoint. The mutations are
- a JSON value of another type (or a negative, zero or 2**40 integer) at a
  key of the run config, its synth section, the dataset manifest or the
  header line of prior.bin or encoder_mod0.bin;
- new names for the modalities, in every split of the manifest;
- a truncation, a bit flip or appended bytes in any of those files or in a
  feature or label file.
The command must exit 0, 2, 3 or 4, leave no *.tmp file, and leave every
file in the run directory either as it was or complete: it reads back.

The draws stay small. 2**40 is drawn at every key whose check refuses it
or that costs little to honour, the synth section's sizes included, which
synth bounds (README: a size under the tensor-file cap can still exhaust
memory, exit 1). It is never drawn at the epoch counts: they cost time,
not memory, and nothing bounds them but patience. Names have at most 12
characters, so no artifact name outgrows the file system's limit.
"""

import json
import os
import shutil

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from priorcast.cli import main
from priorcast.config import RunConfig
from priorcast.data import SynthConfig
from priorcast.encoder import load_checkpoint
from priorcast.prior import load_prior

SYNTH = {"num_modalities": 2, "num_classes": 3, "feature_dims": [5, 4],
         "samples_per_class": 4, "noise": [0.5, 0.5], "seed": 3}
RUN = {"seed": 5, "embed_dim": 4, "hidden_dim": 8, "spl_epochs": 2, "rsc_epochs": 2,
       "batch_size": 4}
# the keys at which 2**40 would be honoured at any cost of time
UNBOUNDED = {("spl_epochs",), ("rsc_epochs",)}
VALUES = [True, False, None, 1.5, -1, 0, 2**40, "x", "", [], [1], {}, {"a": 1}]

SPLITS = ("train", "val", "test")
DATA_FILES = [f"data/mod{k}_{split}.{ext}" for k in range(2) for split in SPLITS
              for ext in ("dfm", "dlb")]
# the key paths a value mutation may set, present in the file or not
KEYS = {
    "run.json": [(name,) for name in RunConfig.__dataclass_fields__],
    "synth.json": [("synth",), *[("synth", name) for name in SynthConfig.__dataclass_fields__],
                   ("synth", "feature_dims", 0), ("synth", "noise", 1)],
    "data/manifest.json": [("num_classes",), ("splits",), *[
        key for split in SPLITS for key in (
            ("splits", split), ("splits", split, 1),
            *[("splits", split, k, field) for k in range(2)
              for field in ("name", "features", "labels")])]],
    "run/prior.bin": [("format",), ("embed_dim",), ("num_classes",), ("score",),
                      ("source_modality",)],
    "run/encoder_mod0.bin": [("modality",), ("input_dim",), ("hidden_dim",), ("output_dim",),
                             ("tensors",)],
}


@pytest.fixture(scope="module")
def template(tmp_path_factory):
    """(work directory, {relative path: bytes}) of a finished tiny run."""
    work = tmp_path_factory.mktemp("cli-fuzz")
    manifest = str(work / "data" / "manifest.json")
    (work / "synth.json").write_text(json.dumps({"synth": SYNTH}))
    (work / "run.json").write_text(json.dumps(dict(RUN, manifest=manifest)))
    assert main(_argv(work, "synth")) == 0
    assert main(_argv(work, "pipeline")) == 0
    files = {}
    for root, _, names in os.walk(work):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, work)] = fh.read()
    return work, files


def _argv(work, command):
    if command == "synth":
        return ["synth", "--config", str(work / "synth.json"), "--out", str(work / "data")]
    return [command, "--config", str(work / "run.json"), "--out", str(work / "run")]


@st.composite
def mutations(draw):
    kind = draw(st.sampled_from(["value", "rename", "bytes"]))
    if kind == "value":
        target = draw(st.sampled_from(sorted(KEYS)))
        key = draw(st.sampled_from(KEYS[target]))
        values = [v for v in VALUES if not (v == 2**40 and key in UNBOUNDED)]
        return kind, target, key, draw(st.sampled_from(values))
    if kind == "rename":
        return kind, "data/manifest.json", draw(st.lists(st.text(max_size=12), min_size=2,
                                                         max_size=2))
    target = draw(st.sampled_from(sorted(KEYS) + DATA_FILES + ["run/encoder_mod1.bin"]))
    return kind, target, *draw(st.one_of(
        st.tuples(st.just("truncate"), st.integers(0, 2**16)),
        st.tuples(st.just("flip"), st.integers(0, 2**19)),
        st.tuples(st.just("append"), st.binary(min_size=1, max_size=16))))


def _mutate(files, mutation):
    """The files after mutation, and the command that reads its target first."""
    kind, target, *how = mutation
    files = dict(files)
    blob = files[target]
    if kind == "value" and target.endswith(".bin"):  # a field of the header line
        line, rest = blob.split(b"\n", 1)
        blob = json.dumps(dict(json.loads(line), **{how[0][0]: how[1]})).encode() + b"\n" + rest
    elif kind == "value":
        doc = json.loads(blob)
        inner = doc
        for part in how[0][:-1]:
            inner = inner[part]
        inner[how[0][-1]] = how[1]
        blob = json.dumps(doc).encode()
    elif kind == "rename":
        doc = json.loads(blob)
        for entries in doc["splits"].values():
            for entry, name in zip(entries, how[0]):
                entry["name"] = name
        blob = json.dumps(doc).encode()
    elif how[0] == "truncate":  # a position past the end truncates nothing
        blob = blob[:how[1] % len(blob)]
    elif how[0] == "flip":
        data = bytearray(blob)
        data[how[1] // 8 % len(blob)] ^= 1 << (how[1] % 8)
        blob = bytes(data)
    else:
        blob += how[1]
    files[target] = blob
    command = {"synth.json": "synth", "run/prior.bin": "train"}.get(target, "pipeline")
    return files, "eval" if target.startswith("run/encoder_") else command


def _restore(work, files):
    shutil.rmtree(work)
    for name, blob in files.items():
        path = work / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(blob)


def _reads_back(path):
    """Whether a file priorcast wrote is complete."""
    name = path.name
    if name == "prior.bin":
        load_prior(path)
    elif name.startswith("encoder_"):
        load_checkpoint(path)
    elif name.endswith(".json"):
        json.loads(path.read_text(encoding="utf-8"))
    else:
        assert name.endswith(".csv") and path.read_text(encoding="utf-8").endswith("\n")


@settings(max_examples=150)
@example(("value", "data/manifest.json", ("num_classes",), True))
@example(("rename", "data/manifest.json", ["mod0", "mod0_mod0"]))
@example(("rename", "data/manifest.json", ["modality_image", "modality_text"]))
@given(mutations())
def test_cli_exits_0_2_3_or_4(template, mutation):
    work, files = template
    mutated, command = _mutate(files, mutation)
    _restore(work, mutated)
    with np.errstate(all="ignore"):
        code = main(_argv(work, command))
    assert code in (0, 2, 3, 4)
    for _, _, names in os.walk(work):
        assert not [name for name in names if name.endswith(".tmp")]
    for path in (work / "run").iterdir():
        if path.read_bytes() != mutated.get(f"run/{path.name}"):
            _reads_back(path)
