"""Run configuration: one JSON document, every key overridable as `a.b=value`."""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

from .das import DasConfig
from .encoder import ACTIVATIONS, OPTIMIZER_RULES
from .errors import ConfigError
from .losses import LossSpec
from .sampling import BatchSpec, SAMPLER_KINDS


@dataclass
class DataConfig:
    """Gaussian clusters from the generator fields, or, when `path` is set,
    the CSV at `path`."""

    classes: int = 16
    per_class: int = 64
    input_dim: int = 32
    center_scale: float = 1.0
    noise_sigma: float = 0.6
    seed: int = -1  # generator seed; -1 means derive from the run seed
    path: str = ""  # a CSV to load; empty means generate
    label_col: int = -1  # csv only; -1 means last column
    header: bool = False


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
        if self.clip <= 0:
            raise ConfigError("sampler.clip must be positive")
        if self.semihard_margin <= 0:
            raise ConfigError("sampler.semihard_margin must be positive")


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
        if not 0 <= self.momentum < 1:
            raise ConfigError(f"optim.momentum must be in [0, 1), got {self.momentum}")


@dataclass
class RunConfig:
    seed: int = 7
    steps: int = 2000
    eval_every: int = 0  # 0 -> evaluate at the final step only
    eval_ks: list = field(default_factory=lambda: [1, 2, 4, 8])
    out_dir: str = ""
    data: DataConfig = field(default_factory=DataConfig)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    batch: BatchSpec = field(default_factory=BatchSpec)
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    loss: LossSpec = field(default_factory=LossSpec)
    das: DasConfig = field(default_factory=DasConfig)
    optim: OptimConfig = field(default_factory=OptimConfig)

    def validate(self) -> "RunConfig":
        """The rules that read the config alone, run before any data is built
        or loaded; `training.preflight` holds those that read the dataset."""
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.data.seed < -1:
            raise ConfigError(f"data.seed must be -1 or >= 0, got {self.data.seed}")
        if self.steps < 1:
            raise ConfigError("steps must be >= 1")
        if self.eval_every < 0:
            raise ConfigError("eval_every must be >= 0")
        self.encoder.validate()
        self.batch.validate()
        self.sampler.validate()
        self.loss.validate()
        self.das.validate(self.encoder.embed_dim)
        self.optim.validate()
        d, b = self.data, self.batch
        check_sizes(("data.classes/per_class/input_dim",
                     0 if d.path else d.classes * d.per_class * d.input_dim),
                    ("batch.classes_per_batch/samples_per_class, das.T",
                     b.classes_per_batch * b.samples_per_class * (self.das.T + 1)))
        return self


def check_sizes(*terms) -> None:
    """The size rule: ConfigError naming the keys of the first (keys, size)
    term whose array holds 2**60 entries or more, which numpy cannot shape."""
    for keys, size in terms:
        if size >= 2**60:
            raise ConfigError(f"{keys} give an array of {size} entries: numpy holds < 2**60")


_SECTIONS = ("data", "encoder", "batch", "sampler", "loss", "das", "optim")


def config_to_dict(cfg: RunConfig) -> dict:
    return dataclasses.asdict(cfg)


def config_from_dict(doc: dict) -> RunConfig:
    cfg = RunConfig()
    for key, value in doc.items():
        if key not in _SECTIONS:
            apply_override(cfg, key, value)
        elif not isinstance(value, dict):
            raise ConfigError(f"config section {key!r} must be a JSON object, got {value!r}")
        else:
            for sub, sub_value in value.items():
                apply_override(cfg, f"{key}.{sub}", sub_value)
    return cfg


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return config_from_dict(doc)


def save_config(cfg: RunConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _parse_bool(value, key):
    text = str(value).lower()  # a JSON boolean reads "true" or "false"
    if text not in ("true", "1", "yes", "false", "0", "no"):
        raise ConfigError(f"{key}: expected a boolean, got {value!r}")
    return text in ("true", "1", "yes")


def _parse_int(value, key):
    """An int, an integral float such as JSON's 3.0, or an integer string;
    booleans and fractions are rejected, never truncated."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise ConfigError(f"{key}: expected an integer, got {value!r}")


def _parse_float(value, key):
    """A finite number; booleans, nan and infinities are rejected."""
    if not isinstance(value, bool):
        try:
            number = float(value)
        except (TypeError, ValueError, OverflowError):
            pass
        else:
            if math.isfinite(number):
                return number
    raise ConfigError(f"{key}: expected a finite number, got {value!r}")


def _parse_optional_float(value, key):
    if value is None or str(value).lower() in ("none", "null", ""):
        return None
    return _parse_float(value, key)


def _parse_str(value, key):
    if value is not None and not isinstance(value, str):
        raise ConfigError(f"{key}: expected a string, got {value!r}")
    return value or ""  # JSON null reads as the empty string


def parse_int_list(value, name):
    """Integers from a JSON list or a comma-separated string; ConfigError
    naming `name` on any entry that is not an integer."""
    items = value if isinstance(value, list) else [
        v for v in str(value).split(",") if v.strip() != ""]
    try:
        return [_parse_int(v, name) for v in items]
    except ConfigError as exc:
        raise ConfigError(f"{name}: expected a list of integers, got {value!r}") from exc


# one parser per type a leaf field declares (the annotation as a string)
_PARSERS = {
    "bool": _parse_bool,
    "int": _parse_int,
    "float": _parse_float,
    "float | None": _parse_optional_float,
    "list": parse_int_list,
    "str": _parse_str,
}


def apply_override(cfg: RunConfig, dotted_key: str, value) -> None:
    """Set `section.field` (or a top-level field) from a string or JSON value,
    parsed by the type the field declares."""
    section, _, name = dotted_key.rpartition(".")
    owner = cfg if not section else getattr(cfg, section) if section in _SECTIONS else None
    declared = {} if owner is None else {f.name: f.type for f in dataclasses.fields(owner)}
    parser = _PARSERS.get(declared.get(name))
    if parser is None:
        raise ConfigError(f"unknown config key {dotted_key!r}")
    setattr(owner, name, parser(value, dotted_key))


def parse_set_args(cfg: RunConfig, assignments) -> None:
    """Apply repeated `--set key=value` arguments in order."""
    for item in assignments or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        apply_override(cfg, key.strip(), value.strip())
