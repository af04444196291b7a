"""Experiment configuration: flat ``key = value`` text files with ``#``
comments and dotted keys, mirrored one-to-one by CLI flags.

Each setting is declared once, as an ``ExperimentConfig`` field whose metadata
holds its dotted key, parser and checks; the key lookup, the flags and the
sub-specs derive from it."""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, field, fields

from . import conditioning as C
from .datagen import GENERATORS, LabeledSet, ShiftSpec, generate, load_csv
from .errors import ConfigError
from .networks import MlpSpec
from .optim import ScheduleParams


def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {s!r}")


def _parse_int_list(s: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in s.split(",") if tok.strip())


def _parse_float_list(s: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in s.split(",") if tok.strip())


def _parse_rotation(s: str) -> float | tuple[float, ...]:
    values = _parse_float_list(s)
    return values[0] if len(values) == 1 else values


def _parse_pair(s: str) -> tuple[float, float]:
    values = _parse_float_list(s)
    if len(values) != 2:
        raise ValueError(f"expected two comma-separated numbers, got {s!r}")
    return values


def _key(key: str, parse, default=None, home: tuple[type, str] | None = None, **checks):
    """Declare one setting: its dotted key, which is also its CLI flag, the
    parser of its text value, and the ``choices`` or ``min`` that validate()
    checks. A setting that a sub-spec also holds names that field as
    ``home = (class, field name)`` and takes its default from there."""
    if home is not None:
        default = home[0].__dataclass_fields__[home[1]].default
    return field(default=default, metadata={"key": key, "parse": parse, "home": home, **checks})


_STRATEGY_CHOICES = ("auto",) + C.STRATEGY_TAGS


@dataclass
class ExperimentConfig:
    generator: str = _key("dataset.generator", str, home=(ShiftSpec, "generator"), choices=GENERATORS)
    n_classes: int = _key("dataset.classes", int, home=(ShiftSpec, "n_classes"), min=2)
    n_source: int = _key("dataset.n_source", int, home=(ShiftSpec, "n_source"))
    n_target: int = _key("dataset.n_target", int, home=(ShiftSpec, "n_target"))
    noise: float | None = _key("dataset.noise", float, home=(ShiftSpec, "noise"), min=0)
    radius: float = _key("dataset.radius", float, home=(ShiftSpec, "radius"), min=0)
    rotation_deg: float | tuple[float, ...] | None = _key(
        "dataset.rotation_deg", _parse_rotation, home=(ShiftSpec, "rotation_deg"))
    translation: tuple[float, float] = _key("dataset.translation", _parse_pair, home=(ShiftSpec, "translation"))
    class_angles_deg: tuple[float, ...] | None = _key(
        "dataset.class_angles", _parse_float_list, home=(ShiftSpec, "class_angles_deg"))
    class_scales: tuple[float, ...] | None = _key(
        "dataset.class_scales", _parse_float_list, home=(ShiftSpec, "class_scales"), min=0)
    source_csv: str | None = _key("dataset.source_csv", str)
    target_csv: str | None = _key("dataset.target_csv", str)
    f_hidden: tuple[int, ...] = _key("model.f_hidden", _parse_int_list, (64, 64), min=1)
    d_hidden: tuple[int, ...] = _key("model.d_hidden", _parse_int_list, (64, 64), min=1)
    strategy: str = _key("strategy", str, "auto", choices=_STRATEGY_CHOICES)
    entropy: bool = _key("entropy", _parse_bool, False)
    threshold: int = _key("conditioning.threshold", int, C.DEFAULT_DIM_THRESHOLD, min=1)
    randomized_d: int = _key("conditioning.d", int, home=(C.ConditioningStrategy, "d"), min=1)
    sampler: str = _key("conditioning.sampler", str, home=(C.ConditioningStrategy, "sampler"), choices=C.SAMPLERS)
    normalize_features: bool = _key("conditioning.normalize_features", _parse_bool,
                                    home=(C.ConditioningStrategy, "normalize_features"))
    eta0: float = _key("schedule.eta0", float, home=(ScheduleParams, "eta0"))
    alpha: float = _key("schedule.alpha", float, home=(ScheduleParams, "alpha"))
    beta: float = _key("schedule.beta", float, home=(ScheduleParams, "beta"))
    delta: float = _key("schedule.delta", float, home=(ScheduleParams, "delta"))
    momentum: float = _key("schedule.momentum", float, home=(ScheduleParams, "momentum"))
    lam: float = _key("schedule.lambda", float, home=(ScheduleParams, "lam"))
    lr_mult_f: float = _key("lr_mult.f", float, 1.0, min=0)
    lr_mult_g: float = _key("lr_mult.g", float, 1.0, min=0)
    lr_mult_d: float = _key("lr_mult.d", float, 1.0, min=0)
    batch_size: int = _key("train.batch_size", int, 64, min=1)
    total_steps: int = _key("train.total_steps", int, 3000, min=1)
    seeds: tuple[int, ...] = _key("seeds", _parse_int_list, (0,), min=0)

    def validate(self) -> "ExperimentConfig":
        for f in fields(self):
            meta, value = f.metadata, getattr(self, f.name)
            if "choices" in meta and value not in meta["choices"]:
                raise ConfigError(f"{meta['key']} must be one of {meta['choices']}, got {value!r}")
            # a list checks each entry; None (a generator's default) checks nothing
            values = value if isinstance(value, tuple) else () if value is None else (value,)
            if any(isinstance(v, float) and not math.isfinite(v) for v in values):
                raise ConfigError(f"{meta['key']} must be finite, got {value}")
            if "min" in meta and any(v < meta["min"] for v in values):
                raise ConfigError(f"{meta['key']} must be >= {meta['min']}, got {value}")
        if (self.source_csv is None) != (self.target_csv is None):
            raise ConfigError("dataset.source_csv and dataset.target_csv must be given together")
        if not self.f_hidden:
            raise ConfigError("model.f_hidden must list at least one width")
        if not self.seeds:
            raise ConfigError("seeds must list at least one seed")
        try:
            if self.source_csv is None:
                self._section(ShiftSpec)
            self.schedule()
        except ConfigError as exc:  # name the dotted keys, not the ShiftSpec or ScheduleParams fields
            keys = {f.metadata["home"][1]: f.metadata["key"] for f in fields(self) if f.metadata["home"]}
            raise ConfigError(re.sub(r"\w+", lambda m: keys.get(m[0], m[0]), str(exc))) from None
        return self

    def _section(self, cls, **extra):
        """Build the sub-spec ``cls`` from the settings whose home it is."""
        for f in fields(self):
            home = f.metadata["home"]
            if home is not None and home[0] is cls:
                extra[home[1]] = getattr(self, f.name)
        return cls(**extra)

    def schedule(self) -> ScheduleParams:
        return self._section(ScheduleParams)

    def make_dataset(self, seed: int) -> tuple[LabeledSet, LabeledSet]:
        if self.source_csv is not None:
            for path in (self.source_csv, self.target_csv):
                if not os.path.exists(path):
                    raise ConfigError(f"dataset path does not exist: {path}")
            src = load_csv(self.source_csv, domain="source", n_classes=self.n_classes)
            tgt = load_csv(self.target_csv, domain="target", n_classes=self.n_classes)
            if src.dim != tgt.dim:
                raise ConfigError(f"{self.target_csv}: {tgt.dim} feature columns, but {self.source_csv} has {src.dim}")
            return src, tgt
        return generate(self._section(ShiftSpec, seed=seed))

    def model_specs(self, input_dim: int) -> tuple[MlpSpec, MlpSpec, MlpSpec]:
        d_f = self.f_hidden[-1]
        strategy = self.resolve_strategy()
        cond_dim = C.conditioned_dim(strategy, d_f, self.n_classes)
        return (MlpSpec((input_dim,) + self.f_hidden),
                MlpSpec((d_f, self.n_classes)),
                MlpSpec((cond_dim,) + self.d_hidden + (1,)))

    def resolve_strategy(self) -> C.ConditioningStrategy:
        tag = self.strategy
        if tag == "auto":
            tag = C.select_strategy(self.f_hidden[-1], self.n_classes, self.threshold)
        return self._section(C.ConditioningStrategy, tag=tag)


def parse_config_lines(lines, origin: str = "<config>") -> dict[str, str]:
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}: line {lineno} is not 'key = value': {line!r}")
        key, value = line.split("=", 1)
        pairs[key.strip()] = value.strip()
    return pairs


# Dotted key -> its ExperimentConfig field; every key doubles as a CLI flag.
KEYS = {f.metadata["key"]: f for f in fields(ExperimentConfig)}


def _apply(cfg: ExperimentConfig, pairs: dict[str, str], origin: str) -> ExperimentConfig:
    for key, raw in pairs.items():
        if key not in KEYS:
            raise ConfigError(f"{origin}: unknown config key {key!r}")
        try:
            setattr(cfg, KEYS[key].name, KEYS[key].metadata["parse"](raw))
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{origin}: bad value for {key}: {raw!r} ({exc})") from exc
    return cfg


def load_config(path=None, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    """The config file at ``path`` (if any), then ``overrides`` (the CLI flags'
    values by key) on top. An error names the file or the flag it came from."""
    cfg = ExperimentConfig()
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError(f"config file does not exist: {path}")
        with open(path) as fh:
            _apply(cfg, parse_config_lines(fh, origin=str(path)), origin=str(path))
    for key, raw in (overrides or {}).items():
        _apply(cfg, {key: raw}, origin=f"--{key}")
    return cfg.validate()
