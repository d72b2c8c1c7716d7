import dataclasses
import json

import pytest

from priorcast.config import (
    ABLATION_PRESETS,
    MIXUP_MODES,
    RunConfig,
    apply_ablation,
    config_from_dict,
    load_config,
)
from priorcast.errors import ConfigError, FormatError


def test_defaults_validate():
    RunConfig().validate()


@pytest.mark.parametrize("field,value,msg", [
    ("alpha", -0.1, "alpha"),
    ("beta", -1.0, "beta"),
    ("mix_lambda", 0.0, "mix_lambda"),
    ("mix_lambda", 1.5, "mix_lambda"),
    ("batch_size", 1, "batch_size"),
    ("q_start", 0.0, "q_start"),
    ("q_start", 1.5, "q_start"),
    ("lr", 0.0, "lr"),
    ("embed_dim", 0, "embed_dim"),
    # a checkpoint tensor of more than 2**31 elements: w3 (hidden, embed), w2 (hidden, hidden)
    ("embed_dim", 10**30, "embed_dim"),
    ("embed_dim", 10**11, "embed_dim"),
    ("hidden_dim", 10**11, "hidden_dim"),
    ("spl_epochs", 0, "spl_epochs"),
    ("rsc_epochs", 0, "rsc_epochs"),
    ("n_rank", -1, "n_rank"),
    ("seed", -1, "seed"),
    ("fixed_q", 0.0, "fixed_q"),
    ("alpha", float("nan"), "alpha"),
    ("alpha", float("inf"), "alpha"),
    ("beta", float("nan"), "beta"),
    ("beta", float("inf"), "beta"),
    ("lr", float("inf"), "lr"),
    ("fixed_q", float("inf"), "fixed_q"),
])
def test_field_specific_rejections(field, value, msg):
    cfg = RunConfig(**{field: value})
    with pytest.raises(ConfigError, match=msg):
        cfg.validate()


def test_mixup_must_be_a_known_mode():
    for mode in MIXUP_MODES:
        RunConfig(mixup=mode).validate()
    for mode in ("both", "Embedding", ""):
        with pytest.raises(ConfigError, match="mixup must be one of embedding, input, off"):
            RunConfig(mixup=mode).validate()


def test_all_eleven_presets_exist():
    assert len(ABLATION_PRESETS) == 11
    for name in ABLATION_PRESETS:
        apply_ablation(RunConfig(), name).validate()


def test_apply_ablation_unknown():
    with pytest.raises(ConfigError, match="unknown ablation"):
        apply_ablation(RunConfig(), "frobnicate")


def test_fixed_q_presets_cover_large_q():
    cfg = apply_ablation(RunConfig(), "fixed-q-2.0")
    assert cfg.fixed_q == 2.0
    cfg.validate()  # q > 1 is legal as a fixed override


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys"):
        config_from_dict({"learning_rate": 0.1})


def test_from_dict_type_errors():
    with pytest.raises(ConfigError, match="batch_size"):
        config_from_dict({"batch_size": "big"})
    with pytest.raises(ConfigError, match="alpha"):
        config_from_dict({"alpha": "small"})
    with pytest.raises(ConfigError, match="skip_spl"):
        config_from_dict({"skip_spl": 1})
    with pytest.raises(ConfigError, match="embed_dim"):
        config_from_dict({"embed_dim": True})
    with pytest.raises(ConfigError, match="manifest"):
        config_from_dict({"manifest": 7})
    with pytest.raises(ConfigError, match="manifest"):
        config_from_dict({"manifest": "data\0/manifest.json"})
    with pytest.raises(ConfigError, match="fixed_q"):
        config_from_dict({"fixed_q": "half"})
    for key, value in (("feature_dims", ["8", "6", "7"]), ("feature_dims", [8.0, 6, 7]),
                       ("num_classes", 5.5), ("noise", 0.1), ("noise", [0.1, None, 0.1]),
                       ("separation", True), ("seed", "1")):
        with pytest.raises(ConfigError, match=f"synth.{key} must be"):
            config_from_dict({"synth": {key: value}})


def test_from_dict_synth_section():
    cfg = config_from_dict({"synth": {"num_modalities": 2, "num_classes": 3,
                                      "feature_dims": [8, 6],
                                      "samples_per_class": 10,
                                      "noise": [0.1, 0.1], "seed": 1}})
    assert cfg.synth.num_modalities == 2
    with pytest.raises(ConfigError, match="unknown synth keys"):
        config_from_dict({"synth": {"modality_count": 2}})


def test_round_trip_through_json(tmp_path):
    cfg = RunConfig(alpha=0.25, manifest="data/manifest.json", n_rank=50)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dataclasses.asdict(cfg)))
    back = load_config(path)
    assert back == cfg


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    with pytest.raises(FormatError):
        load_config(path)
