"""Strategies for combining feature rows f and prediction rows g into the
discriminator input.

The multilinear map is the per-row flattened outer product f (x) g, whose
inner products factor exactly as <f,f'><g,g'>. When d_f * d_g exceeds the
dimension threshold, a randomized surrogate (1/sqrt(d)) (R_f f) .* (R_g g)
built from fixed unit-variance random matrices approximates those inner
products without bias. Feature-only / prediction-only / concatenation are the
ablation baselines.

Each map is one tape node, the randomized one with its optional row
normalization inside. Forward and backward repeat the numpy expressions of
the op chains they replace, in the chains' order (the chains are the
reference implementations in the tests), so the values and gradients are
those of the chains, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor

FEATURE_ONLY = "feature_only"
PREDICTION_ONLY = "prediction_only"
CONCAT = "concat"
MULTILINEAR = "multilinear"
RANDOMIZED_MULTILINEAR = "randomized_multilinear"

STRATEGY_TAGS = (FEATURE_ONLY, PREDICTION_ONLY, CONCAT, MULTILINEAR, RANDOMIZED_MULTILINEAR)
SAMPLERS = ("gaussian", "uniform")

DEFAULT_DIM_THRESHOLD = 4096

# Half-width of the zero-mean unit-variance uniform law.
_UNIFORM_HALF_WIDTH = float(np.sqrt(3.0))

_STREAM_PROJECTION = 12

# Added to each squared row norm before the square root when normalizing.
_NORM_EPS = 1e-24


@dataclass(frozen=True)
class ConditioningStrategy:
    tag: str
    # Default output width when the randomized map is forced at desk scale;
    # small enough to stay well below d_f * d_g for the default players.
    d: int = 64
    sampler: str = "gaussian"
    normalize_features: bool = False

    def __post_init__(self):
        if self.tag not in STRATEGY_TAGS:
            raise ValueError(f"unknown conditioning strategy {self.tag!r}, expected one of {STRATEGY_TAGS}")
        if self.sampler not in SAMPLERS:
            raise ValueError(f"unknown sampler {self.sampler!r}, expected one of {SAMPLERS}")
        if self.tag == RANDOMIZED_MULTILINEAR and self.d < 1:
            raise ValueError(f"randomized dimension must be >= 1, got {self.d}")


@dataclass(frozen=True)
class RandomProjection:
    """The fixed matrices of the randomized map, sampled once per experiment."""

    r_f: Tensor
    r_g: Tensor
    sampler: str
    seed: int

    @property
    def d(self) -> int:
        return self.r_f.shape[0]

    @property
    def d_f(self) -> int:
        return self.r_f.shape[1]

    @property
    def d_g(self) -> int:
        return self.r_g.shape[1]


def multilinear_map(f: Tensor, g: Tensor) -> Tensor:
    """Rows f (n, d_f) and g (n, d_g) -> flattened outer products (n, d_f*d_g):
    out[n, i*d_g + j] = f[n, i] * g[n, j]."""
    if f.data.ndim != 2 or g.data.ndim != 2 or f.shape[0] != g.shape[0]:
        raise ValueError(f"multilinear map shape mismatch: {f.shape} vs {g.shape}")
    n, d_f = f.shape
    d_g = g.shape[1]
    out_data = np.einsum("ni,nj->nij", f.data, g.data).reshape(n, d_f * d_g)

    def _bw(out):
        grad = out.grad.reshape(n, d_f, d_g)
        if f.requires_grad:
            T._accumulate(f, np.einsum("nij,nj->ni", grad, g.data))
        if g.requires_grad:
            T._accumulate(g, np.einsum("nij,ni->nj", grad, f.data))

    return T.node(out_data, (f, g), _bw)


def draw(rng: np.random.Generator, sampler: str, shape: tuple) -> np.ndarray:
    """I.i.d. draws of shape ``shape`` from a zero-mean unit-variance law:
    the standard normal ("gaussian") or uniform on [-sqrt(3), sqrt(3)].

    The values depend only on the generator's stream, so consecutive draws of
    k1 and k2 rows equal one draw of k1 + k2 rows, bit for bit.
    """
    if sampler == "gaussian":
        return rng.standard_normal(shape)
    if sampler == "uniform":
        return rng.uniform(-_UNIFORM_HALF_WIDTH, _UNIFORM_HALF_WIDTH, size=shape)
    raise ValueError(f"unknown sampler {sampler!r}, expected one of {SAMPLERS}")


def sample_projection(d: int, d_f: int, d_g: int, sampler: str, seed: int) -> RandomProjection:
    """Draw R_f (d, d_f) and R_g (d, d_g) i.i.d. from a symmetric unit-variance law."""
    if min(d, d_f, d_g) < 1:
        raise ValueError(f"projection dims must be >= 1, got d={d}, d_f={d_f}, d_g={d_g}")
    rng = np.random.default_rng([int(seed), _STREAM_PROJECTION])
    r_f = draw(rng, sampler, (d, d_f))
    r_g = draw(rng, sampler, (d, d_g))
    return RandomProjection(r_f=Tensor(r_f), r_g=Tensor(r_g), sampler=sampler, seed=int(seed))


def randomized_multilinear_map(f: Tensor, g: Tensor, proj: RandomProjection,
                               normalize: bool = False) -> Tensor:
    """(1/sqrt(d)) (R_f f) .* (R_g g) per row; gradients reach f and g only.

    With ``normalize``, each row of f is first divided by its Euclidean norm
    (``sqrt(|f|^2 + 1e-24)``: the eps keeps a zero row finite). The backward
    sums f's gradient terms in the order of the reference chain: the term
    through the division, then the two through the squared norm.
    """
    if f.shape[0] != g.shape[0] or f.shape[1] != proj.d_f or g.shape[1] != proj.d_g:
        raise ValueError(f"projection expects as many rows of f as of g, of widths ({proj.d_f}, {proj.d_g}); "
                         f"got shapes {f.shape} and {g.shape}")
    f_rows = f.data
    if normalize:
        norm = np.sqrt((f.data * f.data).sum(axis=1) + _NORM_EPS).reshape((f.shape[0], 1))
        f_rows = f.data / norm
    a = f_rows @ proj.r_f.data.T
    b = g.data @ proj.r_g.data.T
    c = float(1.0 / np.sqrt(proj.d))

    def _bw(out):
        grad = out.grad * c
        if f.requires_grad:
            grad_f = (grad * b) @ proj.r_f.data
            if normalize:
                # Not .sum(axis=1): at width 1 that would turn -0.0 into +0.0.
                grad_norm = T._unbroadcast(-grad_f * f.data / (norm * norm), norm.shape)
                grad_sq = grad_norm * 0.5 / np.maximum(norm, T.LOG_CLAMP)
                grad_f = grad_f / norm
                grad_f += grad_sq * f.data
                grad_f += grad_sq * f.data
            T._accumulate(f, grad_f)
        if g.requires_grad:
            T._accumulate(g, (grad * a) @ proj.r_g.data)

    return T.node(a * b * c, (f, g), _bw)


def select_strategy(d_f: int, d_g: int, threshold: int = DEFAULT_DIM_THRESHOLD) -> str:
    """Exact multilinear map iff d_f * d_g fits the threshold, else randomized."""
    if min(d_f, d_g) < 1:
        raise ValueError(f"dims must be >= 1, got d_f={d_f}, d_g={d_g}")
    return MULTILINEAR if d_f * d_g <= threshold else RANDOMIZED_MULTILINEAR


def conditioned_dim(strategy: ConditioningStrategy, d_f: int, d_g: int) -> int:
    """Width of the discriminator input as a pure function of the strategy."""
    if strategy.tag == FEATURE_ONLY:
        return d_f
    if strategy.tag == PREDICTION_ONLY:
        return d_g
    if strategy.tag == CONCAT:
        return d_f + d_g
    if strategy.tag == MULTILINEAR:
        return d_f * d_g
    return strategy.d


def condition(f: Tensor, g: Tensor, strategy: ConditioningStrategy,
              proj: RandomProjection | None = None) -> Tensor:
    """Dispatch rows (f, g) to the discriminator input for the given strategy."""
    if strategy.tag == FEATURE_ONLY:
        return f
    if strategy.tag == PREDICTION_ONLY:
        return g
    if strategy.tag == CONCAT:
        return T.concat(f, g, axis=1)
    if strategy.tag == MULTILINEAR:
        return multilinear_map(f, g)
    if proj is None:
        raise ValueError("randomized multilinear conditioning requires a sampled projection")
    return randomized_multilinear_map(f, g, proj, strategy.normalize_features)

