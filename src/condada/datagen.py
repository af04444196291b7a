"""Synthetic multimodal domain-shift tasks plus CSV ingestion.

Both generators produce a labeled source set and a target set whose inputs
are drawn from the same per-class law and then transformed (rotation +
translation), so the class-conditional components shift together and a
marginal-only alignment can pair the wrong modes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import serialize
from .errors import ConfigError

# Stream tags for per-seed rng derivation.
_STREAM_SOURCE, _STREAM_TARGET = 10, 11

_BLOBS_DEFAULT_ROTATION = 52.0
_MOONS_DEFAULT_ROTATION = 30.0
_BLOBS_DEFAULT_NOISE = 1.2
_MOONS_DEFAULT_NOISE = 0.1

# Default 3-class layout: unequal spacing keeps the wrongly-paired alignments
# geometrically distinguishable; equal spacing makes the adversarial game
# bistable and seed-lottery-prone at desk scale.
_BLOBS_DEFAULT_ANGLES_DEG = (0.0, 110.0, 250.0)

# Noiseless centroid of the two interleaved moons; the target rotation pivots
# here so a 180-degree turn maps each moon exactly onto the other.
_MOONS_PIVOT = np.array([0.5, 0.25])


@dataclass(frozen=True)
class LabeledSet:
    x: np.ndarray
    y: np.ndarray
    domain: str

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=np.float64))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=np.int64))
        if self.x.ndim != 2 or self.y.ndim != 1 or self.x.shape[0] != self.y.shape[0]:
            raise ValueError(f"inconsistent set shapes: x {self.x.shape}, y {self.y.shape}")
        if self.domain not in ("source", "target"):
            raise ValueError(f"domain must be 'source' or 'target', got {self.domain!r}")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class ShiftSpec:
    generator: str = "rotated_blobs"
    n_classes: int = 3
    n_source: int = 600
    n_target: int = 600
    noise: float | None = None  # per-generator default when None
    seed: int = 0
    radius: float = 4.0
    rotation_deg: float | tuple[float, ...] | None = None
    translation: tuple[float, float] = (0.0, 0.0)
    class_angles_deg: tuple[float, ...] | None = None  # blob positions on the circle
    class_scales: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.generator not in GENERATORS:
            raise ConfigError(f"unknown generator {self.generator!r}, expected one of {GENERATORS}")
        if self.n_classes < 2:
            raise ConfigError(f"n_classes must be >= 2, got {self.n_classes}")
        if self.n_source < self.n_classes or self.n_target < self.n_classes:
            raise ConfigError(
                f"set sizes must be >= n_classes={self.n_classes}, got n_source={self.n_source}, n_target={self.n_target}"
            )
        if self.n_source % self.n_classes or self.n_target % self.n_classes:
            raise ConfigError(
                f"set sizes must divide evenly by n_classes={self.n_classes} for equal class priors, "
                f"got n_source={self.n_source}, n_target={self.n_target}"
            )
        if self.class_angles_deg is not None and len(self.class_angles_deg) != self.n_classes:
            raise ConfigError(f"class_angles_deg needs {self.n_classes} entries, got {len(self.class_angles_deg)}")
        if self.class_scales is not None and len(self.class_scales) != self.n_classes:
            raise ConfigError(f"class_scales needs {self.n_classes} entries, got {len(self.class_scales)}")
        rot = self.rotation_deg
        if rot is not None and not np.isscalar(rot) and np.shape(rot) != (self.n_classes,):
            raise ConfigError(f"rotation_deg needs one angle or {self.n_classes} per-class angles, "
                              f"got shape {np.shape(rot)}")


def _rotations(spec: ShiftSpec, default_deg: float) -> np.ndarray:
    rot = spec.rotation_deg if spec.rotation_deg is not None else default_deg
    if np.isscalar(rot):
        return np.full(spec.n_classes, float(rot))
    return np.asarray(rot, dtype=np.float64)


def _rotate(points: np.ndarray, deg: float, pivot: np.ndarray | None = None) -> np.ndarray:
    theta = np.deg2rad(deg)
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    if pivot is None:
        return points @ rot.T
    return (points - pivot) @ rot.T + pivot


def _transform_target(x: np.ndarray, y: np.ndarray, rotations: np.ndarray,
                      translation: tuple[float, float], pivot: np.ndarray | None) -> np.ndarray:
    out = np.empty_like(x)
    for c in range(rotations.shape[0]):
        mask = y == c
        out[mask] = _rotate(x[mask], rotations[c], pivot) + np.asarray(translation)
    return out


def _blob_means(spec: ShiftSpec) -> np.ndarray:
    if spec.class_angles_deg is not None:
        angles = np.deg2rad(np.asarray(spec.class_angles_deg, dtype=np.float64))
    elif spec.n_classes == 3:
        angles = np.deg2rad(_BLOBS_DEFAULT_ANGLES_DEG)
    else:
        angles = 2.0 * np.pi * np.arange(spec.n_classes) / spec.n_classes
    return spec.radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)


def _sample_blobs(spec: ShiftSpec, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian blobs on a circle; the target draw is freshly sampled from the
    source law, then globally rotated. Rotations approaching the inter-class
    spacing land each target cluster nearest the *next* class's source
    cluster; the default stays below the smallest half-spacing so the shift is
    large but recoverable."""
    c = spec.n_classes
    noise = spec.noise if spec.noise is not None else _BLOBS_DEFAULT_NOISE
    means = _blob_means(spec)
    scales = np.asarray(spec.class_scales) if spec.class_scales is not None else np.ones(c)
    per_class = n // c
    y = np.repeat(np.arange(c), per_class)
    x = means[y] + (noise * scales[y])[:, None] * rng.standard_normal((n, 2))
    return x, y


def _sample_moons(spec: ShiftSpec, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Two interleaving moons; the target draw is rotated about the moons'
    centroid (default 30 degrees), so 180 degrees swaps the moons exactly."""
    if spec.n_classes != 2:
        raise ConfigError(f"twin_moons_shift is a 2-class problem, got n_classes={spec.n_classes}")
    noise = spec.noise if spec.noise is not None else _MOONS_DEFAULT_NOISE
    half = n // 2
    t0 = rng.uniform(0.0, np.pi, half)
    t1 = rng.uniform(0.0, np.pi, half)
    moon0 = np.stack([np.cos(t0), np.sin(t0)], axis=1)
    moon1 = np.stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)], axis=1)
    x = np.concatenate([moon0, moon1]) + noise * rng.standard_normal((n, 2))
    y = np.repeat(np.arange(2), half)
    return x, y


# generator -> (sampler, default target rotation in degrees, rotation pivot)
_GENERATOR_TABLE = {
    "rotated_blobs": (_sample_blobs, _BLOBS_DEFAULT_ROTATION, None),
    "twin_moons_shift": (_sample_moons, _MOONS_DEFAULT_ROTATION, _MOONS_PIVOT),
}
GENERATORS = tuple(_GENERATOR_TABLE)


def generate(spec: ShiftSpec) -> tuple[LabeledSet, LabeledSet]:
    """Source and target draws from one sampler, each from its own seeded
    stream; the target is then rotated per class and translated."""
    sample, default_rotation, pivot = _GENERATOR_TABLE[spec.generator]
    x_s, y_s = sample(spec, spec.n_source, np.random.default_rng([spec.seed, _STREAM_SOURCE]))
    x_t, y_t = sample(spec, spec.n_target, np.random.default_rng([spec.seed, _STREAM_TARGET]))
    x_t = _transform_target(x_t, y_t, _rotations(spec, default_rotation), spec.translation, pivot)
    return LabeledSet(x_s, y_s, "source"), LabeledSet(x_t, y_t, "target")


def save_csv(labeled: LabeledSet, path) -> None:
    """Feature columns then an integer label column; floats by repr, so
    ``load_csv`` reads them back exactly (``serialize.write_csv_rows``)."""
    with open(path, "wb") as fh:
        fh.write((",".join(f"x{i}" for i in range(labeled.dim)) + ",label\n").encode("ascii"))
        serialize.write_csv_rows(fh, labeled.x, labeled.y)


def _converts(token: str, dtype) -> bool:
    try:
        np.array(token, dtype=dtype)
        return True
    except (ValueError, OverflowError):
        return False


def _first(mask: np.ndarray) -> int:
    """Index of the first True in mask, or its length if there is none."""
    return int(np.append(mask, True).argmax())


def _cast(tokens: list[str], dtype) -> tuple[np.ndarray, int]:
    """The tokens by one numpy cast (str to float64 is ``float()``, str to int64
    is ``int()``) and their count, or, if one fails, those before it and its index."""
    try:
        return np.array(tokens, dtype=dtype), len(tokens)
    except (ValueError, OverflowError):
        bad = next(i for i, token in enumerate(tokens) if not _converts(token, dtype))
        return np.array(tokens[:bad], dtype=dtype), bad


def load_csv(path, domain: str = "source", n_classes: int | None = None) -> LabeledSet:
    """Feature columns then an integer label column; the first non-blank line,
    which alone may be a header, sets the width. One cast converts all feature
    fields, another all labels. The first line to fail a row check is named, by
    the first check it fails; then come the non-finite and missing-class checks."""
    with open(path) as fh:
        raw = fh.read().split("\n")
    lines = list(filter(str.strip, raw))  # the non-blank lines; the casts skip whitespace
    if lines and "," not in lines[0]:
        raise ValueError(f"{path}: need at least one feature column and a label column")
    # Header iff no field is numeric: a row with one corrupt field is a data error.
    header = bool(lines) and not any(_converts(token, np.float64) for token in lines[0].split(","))
    rows = lines[header:]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    width = lines[0].count(",") + 1

    def at(row: int) -> str:  # looked up only for a message
        return f"line {[i for i, line in enumerate(raw, start=1) if line.strip()][header + row]}"

    counts = np.fromiter(map(str.count, rows, itertools.repeat(",")), np.int64, len(rows))
    n = _first(counts != width - 1)  # rows before the first ragged one
    tokens = ",".join(rows[:n]).split(",")
    labels = tokens[width - 1::width]
    del tokens[width - 1::width]
    x, n_x = _cast(tokens, np.float64)
    y, n_y = _cast(labels, np.int64)
    row = min(n, n_x // (width - 1), n_y, _first(y < 0), _first(y >= n_classes) if n_classes is not None else n_y)
    if row < len(rows):
        raise ValueError(f"{path}: " + (
            f"ragged row at {at(row)} ({counts[row] + 1} fields, expected {width})" if row == n else
            f"non-numeric field at {at(row)}" if row == n_x // (width - 1) else
            f"non-integer label at {at(row)}: {labels[row].strip()!r}" if row == n_y else
            f"negative label at {at(row)}" if y[row] < 0 else
            f"label {y[row]} >= n_classes {n_classes} at {at(row)}"))
    labeled = LabeledSet(x.reshape(n, width - 1), y, domain)
    finite = np.isfinite(labeled.x).all(axis=1)
    if not finite.all():
        raise ValueError(f"{path}: non-finite feature at {at(finite.argmin())}")
    if domain == "source" and n_classes is not None:
        missing = np.flatnonzero(np.bincount(labeled.y, minlength=n_classes) == 0).tolist()
        if missing:
            raise ValueError(f"{path}: source set is missing classes {missing}")
    return labeled


def batch_iter(labeled: LabeledSet, batch_size: int, seed: int, epoch: int):
    """Deterministic shuffled batches for one epoch; the final short batch is kept."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    order = np.random.default_rng([seed, epoch]).permutation(labeled.n)
    for start in range(0, labeled.n, batch_size):
        idx = order[start : start + batch_size]
        yield labeled.x[idx], labeled.y[idx]
