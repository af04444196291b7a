"""Experiment configuration: flat ``key = value`` text files with ``#``
comments and dotted keys, mirrored one-to-one by CLI flags."""

from __future__ import annotations

import os
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


# key -> (attribute path, parser). Every key doubles as a CLI flag.
KEY_TABLE: dict[str, tuple[str, object]] = {
    "dataset.generator": ("generator", str),
    "dataset.classes": ("n_classes", int),
    "dataset.n_source": ("n_source", int),
    "dataset.n_target": ("n_target", int),
    "dataset.noise": ("noise", float),
    "dataset.radius": ("radius", float),
    "dataset.rotation_deg": ("rotation_deg", _parse_rotation),
    "dataset.translation": ("translation", _parse_pair),
    "dataset.class_angles": ("class_angles_deg", _parse_float_list),
    "dataset.class_scales": ("class_scales", _parse_float_list),
    "dataset.source_csv": ("source_csv", str),
    "dataset.target_csv": ("target_csv", str),
    "model.f_hidden": ("f_hidden", _parse_int_list),
    "model.d_hidden": ("d_hidden", _parse_int_list),
    "strategy": ("strategy", str),
    "entropy": ("entropy", _parse_bool),
    "conditioning.threshold": ("threshold", int),
    "conditioning.d": ("randomized_d", int),
    "conditioning.sampler": ("sampler", str),
    "conditioning.normalize_features": ("normalize_features", _parse_bool),
    "schedule.eta0": ("eta0", float),
    "schedule.alpha": ("alpha", float),
    "schedule.beta": ("beta", float),
    "schedule.delta": ("delta", float),
    "schedule.momentum": ("momentum", float),
    "schedule.lambda": ("lam", float),
    "lr_mult.f": ("lr_mult_f", float),
    "lr_mult.g": ("lr_mult_g", float),
    "lr_mult.d": ("lr_mult_d", float),
    "train.batch_size": ("batch_size", int),
    "train.total_steps": ("total_steps", int),
    "seeds": ("seeds", _parse_int_list),
}

_STRATEGY_CHOICES = ("auto",) + C.STRATEGY_TAGS


@dataclass
class ExperimentConfig:
    generator: str = "rotated_blobs"
    n_classes: int = 3
    n_source: int = 600
    n_target: int = 600
    noise: float | None = None
    radius: float = 4.0
    rotation_deg: float | tuple[float, ...] | None = None
    translation: tuple[float, float] = (0.0, 0.0)
    class_angles_deg: tuple[float, ...] | None = None
    class_scales: tuple[float, ...] | None = None
    source_csv: str | None = None
    target_csv: str | None = None
    f_hidden: tuple[int, ...] = (64, 64)
    d_hidden: tuple[int, ...] = (64, 64)
    strategy: str = "auto"
    entropy: bool = False
    threshold: int = C.DEFAULT_DIM_THRESHOLD
    randomized_d: int = C.DEFAULT_RANDOMIZED_DIM
    sampler: str = "gaussian"
    normalize_features: bool = False
    eta0: float = 0.01
    alpha: float = 10.0
    beta: float = 0.75
    delta: float = 10.0
    momentum: float = 0.9
    lam: float = 1.0
    lr_mult_f: float = 1.0
    lr_mult_g: float = 1.0
    lr_mult_d: float = 1.0
    batch_size: int = 64
    total_steps: int = 3000
    seeds: tuple[int, ...] = (0,)

    def validate(self) -> "ExperimentConfig":
        if self.strategy not in _STRATEGY_CHOICES:
            raise ConfigError(f"strategy must be one of {_STRATEGY_CHOICES}, got {self.strategy!r}")
        if self.sampler not in C.SAMPLERS:
            raise ConfigError(f"conditioning.sampler must be one of {C.SAMPLERS}, got {self.sampler!r}")
        if self.generator not in GENERATORS:
            raise ConfigError(f"dataset.generator must be one of {GENERATORS}, got {self.generator!r}")
        if (self.source_csv is None) != (self.target_csv is None):
            raise ConfigError("dataset.source_csv and dataset.target_csv must be given together")
        if self.batch_size < 1:
            raise ConfigError(f"train.batch_size must be >= 1, got {self.batch_size}")
        if self.total_steps < 1:
            raise ConfigError(f"train.total_steps must be >= 1, got {self.total_steps}")
        if self.threshold < 1:
            raise ConfigError(f"conditioning.threshold must be >= 1, got {self.threshold}")
        if self.randomized_d < 1:
            raise ConfigError(f"conditioning.d must be >= 1, got {self.randomized_d}")
        if not self.f_hidden:
            raise ConfigError("model.f_hidden must list at least one width")
        if not self.seeds:
            raise ConfigError("seeds must list at least one seed")
        if any(s < 0 for s in self.seeds):
            raise ConfigError(f"seeds must be nonnegative, got {self.seeds}")
        self.schedule()  # raises ConfigError on bad schedule fields
        return self

    def schedule(self) -> ScheduleParams:
        return ScheduleParams(eta0=self.eta0, alpha=self.alpha, beta=self.beta,
                              delta=self.delta, momentum=self.momentum, lam=self.lam)

    def make_dataset(self, seed: int) -> tuple[LabeledSet, LabeledSet]:
        if self.source_csv is not None:
            for path in (self.source_csv, self.target_csv):
                if not os.path.exists(path):
                    raise ConfigError(f"dataset path does not exist: {path}")
            src = load_csv(self.source_csv, domain="source", n_classes=self.n_classes)
            tgt = load_csv(self.target_csv, domain="target", n_classes=self.n_classes)
            if src.dim != tgt.dim:
                raise ConfigError(f"source and target feature widths differ: {src.dim} vs {tgt.dim}")
            return src, tgt
        spec = ShiftSpec(
            generator=self.generator,
            n_classes=self.n_classes,
            n_source=self.n_source,
            n_target=self.n_target,
            noise=self.noise,
            seed=seed,
            radius=self.radius,
            rotation_deg=self.rotation_deg,
            translation=self.translation,
            class_angles_deg=self.class_angles_deg,
            class_scales=self.class_scales,
        )
        return generate(spec)

    def model_specs(self, input_dim: int) -> tuple[MlpSpec, MlpSpec, MlpSpec]:
        d_f = self.f_hidden[-1]
        strategy = self.resolve_strategy()
        cond_dim = C.conditioned_dim(strategy, d_f, self.n_classes)
        spec_f = MlpSpec((input_dim,) + self.f_hidden)
        spec_g = MlpSpec((d_f, self.n_classes))
        spec_d = MlpSpec((cond_dim,) + self.d_hidden + (1,))
        return spec_f, spec_g, spec_d

    def resolve_strategy(self) -> C.ConditioningStrategy:
        tag = self.strategy
        if tag == "auto":
            tag = C.select_strategy(self.f_hidden[-1], self.n_classes, self.threshold)
        return C.ConditioningStrategy(
            tag=tag, d=self.randomized_d, sampler=self.sampler,
            normalize_features=self.normalize_features,
        )


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


def config_from_pairs(pairs: dict[str, str], origin: str = "<config>") -> ExperimentConfig:
    cfg = ExperimentConfig()
    valid_attrs = {f.name for f in fields(ExperimentConfig)}
    for key, raw in pairs.items():
        if key not in KEY_TABLE:
            raise ConfigError(f"{origin}: unknown config key {key!r}")
        attr, parser = KEY_TABLE[key]
        assert attr in valid_attrs
        try:
            setattr(cfg, attr, parser(raw))
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{origin}: bad value for {key}: {raw!r} ({exc})") from exc
    return cfg.validate()


def load_config(path) -> ExperimentConfig:
    if not os.path.exists(path):
        raise ConfigError(f"config file does not exist: {path}")
    with open(path) as fh:
        pairs = parse_config_lines(fh, origin=str(path))
    return config_from_pairs(pairs, origin=str(path))
