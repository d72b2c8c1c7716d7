"""Run configuration: defaults, validation, ablation presets, JSON loading."""

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional, Union, get_args, get_origin

from .data import _MAX_ELEMS, SynthConfig, parse_json, usable_text
from .errors import ConfigError

MIXUP_MODES = ("embedding", "input", "off")  # what stage two mixes with a shuffled copy


@dataclass
class RunConfig:
    """Knobs for one training/evaluation run.

    Defaults are desk-scale: small embedding, short schedules, quick on a
    laptop CPU. The ablation switches all default to the full method.
    """

    seed: int = 0
    manifest: Optional[str] = None
    synth: Optional[SynthConfig] = None
    embed_dim: int = 16
    hidden_dim: int = 64
    lr: float = 1e-2
    spl_epochs: int = 50
    rsc_epochs: int = 100
    batch_size: int = 32
    q_start: float = 0.01
    alpha: float = 0.1
    beta: float = 0.1
    mix_lambda: float = 0.9
    mixup: str = "embedding"  # one of MIXUP_MODES
    n_rank: int = 0  # 0 means rank the whole gallery
    # ablation switches
    skip_spl: bool = False
    drop_label: bool = False
    fixed_q: Optional[float] = None
    use_transpose: bool = False

    def validate(self) -> None:
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.manifest is not None and not usable_text(self.manifest):
            raise ConfigError("manifest path must be UTF-8 text without a NUL character")
        if self.synth is not None:
            self.synth.validate()
        if self.embed_dim < 1:
            raise ConfigError(f"embed_dim must be >= 1, got {self.embed_dim}")
        if self.hidden_dim < 1:
            raise ConfigError(f"hidden_dim must be >= 1, got {self.hidden_dim}")
        # a checkpoint tensor over the tensor-file cap could never be read back
        if self.hidden_dim * max(self.hidden_dim, self.embed_dim) > _MAX_ELEMS:
            raise ConfigError(f"hidden_dim {self.hidden_dim} and embed_dim {self.embed_dim} "
                              f"give a checkpoint tensor of more than {_MAX_ELEMS} elements")
        if not 0 < self.lr < math.inf:
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        if self.spl_epochs < 1:
            raise ConfigError(f"spl_epochs must be >= 1, got {self.spl_epochs}")
        if self.rsc_epochs < 1:
            raise ConfigError(f"rsc_epochs must be >= 1, got {self.rsc_epochs}")
        if self.batch_size < 2:
            raise ConfigError(f"batch_size must be >= 2, got {self.batch_size}")
        if not 0 < self.q_start <= 1:
            raise ConfigError(f"q_start must be in (0, 1], got {self.q_start}")
        if not 0 <= self.alpha < math.inf:
            raise ConfigError(f"alpha must be finite and >= 0, got {self.alpha}")
        if not 0 <= self.beta < math.inf:
            raise ConfigError(f"beta must be finite and >= 0, got {self.beta}")
        if not 0 < self.mix_lambda <= 1:
            raise ConfigError(f"mix_lambda must be in (0, 1], got {self.mix_lambda}")
        if self.mixup not in MIXUP_MODES:
            raise ConfigError(f"mixup must be one of {', '.join(MIXUP_MODES)}, got {self.mixup!r}")
        if self.n_rank < 0:
            raise ConfigError(f"n_rank must be >= 0, got {self.n_rank}")
        if self.fixed_q is not None and not 0 < self.fixed_q < math.inf:
            raise ConfigError(f"fixed_q must be finite and > 0, got {self.fixed_q}")


# Named single-switch variants used by the ablation sweep. Each entry maps a
# preset name to the field overrides it applies on top of the base config.
ABLATION_PRESETS = {
    "no-spl": {"skip_spl": True},
    "no-label-loss": {"drop_label": True},
    "no-disc-loss": {"alpha": 0.0},
    "no-mse-loss": {"beta": 0.0},
    "fixed-q-0.01": {"fixed_q": 0.01},
    "fixed-q-0.5": {"fixed_q": 0.5},
    "fixed-q-1.0": {"fixed_q": 1.0},
    "fixed-q-2.0": {"fixed_q": 2.0},
    "transpose-prior": {"use_transpose": True},
    "no-mixup": {"mixup": "off"},
    "input-mixup": {"mixup": "input"},
}


def apply_ablation(cfg: RunConfig, name: str) -> RunConfig:
    """A copy of cfg with one named ablation preset applied."""
    if name not in ABLATION_PRESETS:
        known = ", ".join(sorted(ABLATION_PRESETS))
        raise ConfigError(f"unknown ablation {name!r}; known: {known}")
    out = dataclasses.replace(cfg, **ABLATION_PRESETS[name])
    out.validate()
    return out


# JSON kinds of the annotated field types: how a message names one, and many
_KINDS = {bool: ("a boolean", "booleans"), int: ("an integer", "integers"),
          float: ("a number", "numbers"), str: ("a string", "strings")}


def _matches(value, kind) -> bool:
    # JSON true and false load as bool, a subclass of int
    if isinstance(value, bool) or kind is bool:
        return isinstance(value, bool) and kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def _check_types(obj, prefix: str = "") -> None:
    """ConfigError unless each field of the dataclass obj holds a value of
    its annotated type; an int passes as a float and None as an Optional."""
    for f in dataclasses.fields(obj):
        got, kind = getattr(obj, f.name), f.type
        if get_origin(kind) is Union:  # Optional[X]
            if got is None:
                continue
            kind = get_args(kind)[0]
        if dataclasses.is_dataclass(kind):
            continue  # a section: checked on its own
        if get_origin(kind) is list:
            elem = get_args(kind)[0]
            ok = isinstance(got, list) and all(_matches(v, elem) for v in got)
            what = f"a list of {_KINDS[elem][1]}"
        else:
            ok, what = _matches(got, kind), _KINDS[kind][0]
        if not ok:
            raise ConfigError(f"{prefix}{f.name} must be {what}, got {got!r}")


def config_from_dict(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = set(raw) - fields
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    raw = dict(raw)
    synth_raw = raw.pop("synth", None)
    if synth_raw is not None:
        if not isinstance(synth_raw, dict):
            raise ConfigError("synth section must be a JSON object")
        synth_fields = {f.name for f in dataclasses.fields(SynthConfig)}
        unknown = set(synth_raw) - synth_fields
        if unknown:
            raise ConfigError(f"unknown synth keys: {sorted(unknown)}")
        raw["synth"] = SynthConfig(**synth_raw)
        _check_types(raw["synth"], "synth.")
    cfg = RunConfig(**raw)
    _check_types(cfg)
    cfg.validate()
    return cfg


def load_config(path) -> RunConfig:
    with open(path, "rb") as fh:
        raw = parse_json(fh.read(), f"config {path} is not valid JSON")
    return config_from_dict(raw)
