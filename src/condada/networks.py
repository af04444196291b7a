"""The three players: feature extractor F, classifier head G, domain discriminator D.

All three are plain MLPs over the tensor tape. G emits softmax probabilities
(the rows that enter both the conditioning map and the entropy weights); D
emits a per-row logit of "source", whose sigmoid head its loss applies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import serialize
from . import tensor as T
from .errors import ConfigError
from .tensor import Tensor

# Per-network init streams derived from the model seed.
_STREAM_F, _STREAM_G, _STREAM_D = 1, 2, 3


@dataclass(frozen=True)
class MlpSpec:
    """Layer widths, input first."""

    widths: tuple[int, ...]

    def __post_init__(self):
        if len(self.widths) < 2:
            raise ConfigError(f"MlpSpec needs at least one layer (>=2 widths), got {self.widths}")
        if any(w < 1 for w in self.widths):
            raise ConfigError(f"MlpSpec widths must all be >= 1, got {self.widths}")

    @property
    def input_dim(self) -> int:
        return self.widths[0]

    @property
    def output_dim(self) -> int:
        return self.widths[-1]


@dataclass
class ModelBundle:
    """The three players' (W, b) layers; every width is read off their shapes."""

    layers_f: list[tuple[Tensor, Tensor]] = field(repr=False)
    layers_g: list[tuple[Tensor, Tensor]] = field(repr=False)
    layers_d: list[tuple[Tensor, Tensor]] = field(repr=False)

    @property
    def d_f(self) -> int:
        return self.layers_f[-1][0].data.shape[1]

    @property
    def d_g(self) -> int:
        return self.layers_g[-1][0].data.shape[1]

    def specs(self) -> tuple[MlpSpec, MlpSpec, MlpSpec]:
        return tuple(MlpSpec((layers[0][0].data.shape[0],) + tuple(w.data.shape[1] for w, _ in layers))
                     for layers in (self.layers_f, self.layers_g, self.layers_d))

    def params_f(self) -> list[Tensor]:
        return [t for pair in self.layers_f for t in pair]

    def params_g(self) -> list[Tensor]:
        return [t for pair in self.layers_g for t in pair]

    def params_d(self) -> list[Tensor]:
        return [t for pair in self.layers_d for t in pair]

    def all_params(self) -> list[Tensor]:
        return self.params_f() + self.params_g() + self.params_d()


def init_layers(spec: MlpSpec, rng: np.random.Generator) -> list[tuple[Tensor, Tensor]]:
    layers = []
    for fan_in, fan_out in zip(spec.widths[:-1], spec.widths[1:]):
        a = np.sqrt(6.0 / (fan_in + fan_out))
        w = Tensor(rng.uniform(-a, a, size=(fan_in, fan_out)), requires_grad=True)
        b = Tensor(np.zeros(fan_out), requires_grad=True)
        layers.append((w, b))
    return layers


def init_model(spec_f: MlpSpec, spec_g: MlpSpec, spec_d: MlpSpec, seed: int) -> ModelBundle:
    """Glorot-uniform weights, zero biases, one derived stream per network."""
    if spec_g.input_dim != spec_f.output_dim:
        raise ConfigError(
            f"classifier input width {spec_g.input_dim} does not match feature width {spec_f.output_dim}"
        )
    if spec_d.output_dim != 1:
        raise ConfigError(f"discriminator must end in a single unit, got {spec_d.output_dim}")
    return ModelBundle(
        layers_f=init_layers(spec_f, np.random.default_rng([seed, _STREAM_F])),
        layers_g=init_layers(spec_g, np.random.default_rng([seed, _STREAM_G])),
        layers_d=init_layers(spec_d, np.random.default_rng([seed, _STREAM_D])),
    )


def forward_F(bundle: ModelBundle, x: Tensor) -> Tensor:
    """Batch of inputs -> batch of feature rows."""
    return T.mlp(x, bundle.layers_f)


def forward_G(bundle: ModelBundle, f: Tensor) -> tuple[Tensor, Tensor]:
    """Feature rows -> (logits, softmax probability rows)."""
    logits = T.mlp(f, bundle.layers_g)
    return logits, T.softmax_rows(logits)


def forward_D(bundle: ModelBundle, conditioned: Tensor) -> Tensor:
    """Conditioned rows -> per-row source logit, shape (n, 1), before the sigmoid head."""
    return T.mlp(conditioned, bundle.layers_d)


def save_model(bundle: ModelBundle, path, extra_arrays: dict[str, np.ndarray] | None = None,
               meta: dict[str, str] | None = None) -> None:
    arrays: dict[str, np.ndarray] = {}
    for tag, layers in (("F", bundle.layers_f), ("G", bundle.layers_g), ("D", bundle.layers_d)):
        for i, (w, b) in enumerate(layers):
            arrays[f"{tag}.{i}.W"] = w.data
            arrays[f"{tag}.{i}.b"] = b.data
    arrays.update(extra_arrays or {})
    # The heads of F, G and D (D's sigmoid is applied by its loss), as model.txt has always named them.
    full_meta = {"F.head": "linear", "G.head": "softmax", "D.head": "sigmoid"}
    full_meta.update(meta or {})
    serialize.write_arrays(path, arrays, meta=full_meta)


def load_model(path) -> tuple[ModelBundle, dict[str, np.ndarray], dict[str, str]]:
    """Rebuild a bundle from a saved file; extra (non-layer) arrays come back verbatim.
    Each network's layers are ``{tag}.0``, ``{tag}.1``, ..., read while either array of an index is present."""
    arrays, meta = serialize.read_arrays(path)
    bad = next((name for name, a in arrays.items() if not np.isfinite(a).all()), None)
    if bad is not None:
        raise ValueError(f"{path}: array {bad} holds a non-finite value")
    networks = []
    for tag in ("F", "G", "D"):
        layers = []
        while f"{tag}.{len(layers)}.W" in arrays or f"{tag}.{len(layers)}.b" in arrays:
            i = len(layers)
            w, b = arrays.pop(f"{tag}.{i}.W", None), arrays.pop(f"{tag}.{i}.b", None)
            if w is None or b is None:
                raise ValueError(f"{path}: layer {tag}.{i} needs both its W and its b array")
            rows = layers[-1][0].data.shape[1] if layers else None  # the previous layer's width
            if w.ndim != 2 or 0 in w.shape or b.shape != w.shape[1:] or rows not in (None, w.shape[0]):
                raise ValueError(f"{path}: layer {tag}.{i} has W of shape {w.shape} and b of shape {b.shape}, "
                                 f"expected ({rows or 'm'}, n) and (n,), each width >= 1")
            layers.append((Tensor(w, requires_grad=True), Tensor(b, requires_grad=True)))
        for name in arrays:  # the rest are extras, unless one is named like a layer of this network
            parts = name.split(".")
            if len(parts) == 3 and parts[0] == tag and parts[2] in ("W", "b"):
                raise ValueError(f"{path}: network {tag} lacks layer {tag}.{len(layers)} but holds {name}")
        if not layers:
            raise ValueError(f"{path}: no layers found for network {tag}")
        networks.append(layers)
    return ModelBundle(*networks), arrays, meta
