"""Run configuration: one JSON document, every key overridable as `a.b=value`."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

from .das import DasConfig
from .encoder import ACTIVATIONS, OPTIMIZER_RULES
from .errors import ConfigError
from .losses import LossSpec
from .sampling import BatchSpec, SAMPLER_KINDS


@dataclass
class DataConfig:
    kind: str = "gaussian"  # gaussian | csv
    classes: int = 16
    per_class: int = 64
    input_dim: int = 32
    center_scale: float = 1.0
    noise_sigma: float = 0.6
    seed: int = -1  # generator seed; -1 means derive from the run seed
    path: str = ""  # csv only
    label_col: int = -1  # csv only; -1 means last column
    header: bool = False

    def validate(self):
        if self.kind not in ("gaussian", "csv"):
            raise ConfigError(f"data.kind must be gaussian or csv, got {self.kind!r}")
        if self.kind == "csv" and not self.path:
            raise ConfigError("data.kind=csv requires data.path")


@dataclass
class EncoderConfig:
    hidden: list = field(default_factory=lambda: [64])
    embed_dim: int = 16
    activation: str = "relu"

    def layer_sizes(self, input_dim: int) -> list:
        return [input_dim] + list(self.hidden) + [self.embed_dim]

    def validate(self):
        if self.embed_dim < 1:
            raise ConfigError("encoder.embed_dim must be >= 1")
        if any(h < 1 for h in self.hidden):
            raise ConfigError("encoder.hidden sizes must be >= 1")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown encoder.activation {self.activation!r}")


@dataclass
class SamplerConfig:
    kind: str = "distance"
    semihard_margin: float = 0.2
    clip: float = 0.5
    produced_as_anchors: bool = True

    def validate(self):
        if self.kind not in SAMPLER_KINDS:
            raise ConfigError(f"sampler.kind must be one of {SAMPLER_KINDS}, got {self.kind!r}")


@dataclass
class OptimConfig:
    kind: str = "adam"  # one of OPTIMIZER_RULES
    lr: float = 1e-3
    momentum: float = 0.0

    def validate(self):
        if self.kind not in OPTIMIZER_RULES:
            raise ConfigError(
                f"optim.kind must be one of {OPTIMIZER_RULES}, got {self.kind!r}"
            )
        if self.lr <= 0:
            raise ConfigError("optim.lr must be positive")


@dataclass
class RunConfig:
    seed: int = 7
    steps: int = 2000
    eval_every: int = 0  # 0 -> evaluate at the final step only
    eval_ks: list = field(default_factory=lambda: [1, 2, 4, 8])
    out_dir: str = ""
    # extra per-anchor copies of each real embedding, appended without the
    # production machinery; diagnostic baseline for the zero-radius identity
    replicate: int = 0
    data: DataConfig = field(default_factory=DataConfig)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    batch: BatchSpec = field(default_factory=BatchSpec)
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    loss: LossSpec = field(default_factory=LossSpec)
    das: DasConfig = field(default_factory=DasConfig)
    optim: OptimConfig = field(default_factory=OptimConfig)

    def validate(self) -> "RunConfig":
        if self.steps < 1:
            raise ConfigError("steps must be >= 1")
        if self.eval_every < 0:
            raise ConfigError("eval_every must be >= 0")
        if not self.eval_ks or any(k < 1 for k in self.eval_ks):
            raise ConfigError("eval_ks must be a nonempty list of positive integers")
        if self.replicate < 0:
            raise ConfigError("replicate must be >= 0")
        if self.replicate and self.das.enabled:
            raise ConfigError("replicate is a baseline diagnostic; disable das first")
        self.data.validate()
        self.encoder.validate()
        self.batch.validate()
        self.sampler.validate()
        self.loss.validate()
        self.das.validate(self.encoder.embed_dim)
        self.optim.validate()
        return self


_SECTIONS = ("data", "encoder", "batch", "sampler", "loss", "das", "optim")


def config_to_dict(cfg: RunConfig) -> dict:
    return dataclasses.asdict(cfg)


def config_from_dict(doc: dict) -> RunConfig:
    cfg = RunConfig()
    try:
        for key, value in doc.items():
            if key in _SECTIONS:
                section = getattr(cfg, key)
                for sub, sub_value in value.items():
                    _assign(section, sub, sub_value, f"{key}.{sub}")
            else:
                _assign(cfg, key, value, key)
    except AttributeError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return config_from_dict(doc)


def save_config(cfg: RunConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _known_fields(obj) -> dict:
    return {f.name: f for f in dataclasses.fields(obj)}


def _assign(obj, name, value, dotted):
    fields = _known_fields(obj)
    if name not in fields:
        raise ConfigError(f"unknown config key {dotted!r}")
    current = getattr(obj, name)
    setattr(obj, name, _coerce(value, current, dotted))


def _coerce(value, current, dotted):
    if current is None:
        # optional numeric field (e.g. loss.beta_lr)
        if value is None or str(value).lower() in ("none", "null", ""):
            return None
        try:
            return float(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{dotted}: expected a number or none, got {value!r}") from exc
    if isinstance(current, bool):
        if isinstance(value, bool):
            return value
        if str(value).lower() in ("true", "1", "yes"):
            return True
        if str(value).lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"{dotted}: expected a boolean, got {value!r}")
    if isinstance(current, int) and not isinstance(current, bool):
        try:
            return int(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{dotted}: expected an integer, got {value!r}") from exc
    if isinstance(current, float):
        try:
            return float(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{dotted}: expected a number, got {value!r}") from exc
    if isinstance(current, list):
        return parse_int_list(value, dotted)
    return str(value) if value is not None else ""


def parse_int_list(value, name):
    """Integers from a JSON list or a comma-separated string; ConfigError
    naming `name` on any entry that is not an integer."""
    items = value if isinstance(value, list) else [
        v for v in str(value).split(",") if v.strip() != ""]
    try:
        return [int(v) for v in items]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: expected a list of integers, got {value!r}") from exc


def apply_override(cfg: RunConfig, dotted_key: str, value) -> None:
    """Set `section.field` (or a top-level field) from a string or JSON value."""
    parts = dotted_key.split(".")
    if len(parts) == 1:
        _assign(cfg, parts[0], value, dotted_key)
    elif len(parts) == 2 and parts[0] in _SECTIONS:
        _assign(getattr(cfg, parts[0]), parts[1], value, dotted_key)
    else:
        raise ConfigError(f"unknown config key {dotted_key!r}")


def parse_set_args(cfg: RunConfig, assignments) -> RunConfig:
    """Apply repeated `--set key=value` arguments in order."""
    for item in assignments or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        apply_override(cfg, key.strip(), value.strip())
    return cfg
