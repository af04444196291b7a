"""SGD with classical momentum plus the two annealing schedules.

Learning rate decays as eta_p = eta0 * (1 + alpha*p)^(-beta) and the
adversarial coefficient ramps as lambda * (1 - e^(-delta*p)) / (1 + e^(-delta*p)),
both over training progress p in [0, 1] (completed steps / total steps).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .tensor import Tensor


@dataclass(frozen=True)
class ScheduleParams:
    eta0: float = 0.01
    alpha: float = 10.0
    beta: float = 0.75
    delta: float = 10.0
    momentum: float = 0.9
    lam: float = 1.0

    def __post_init__(self):
        if self.eta0 <= 0:
            raise ConfigError(f"eta0 must be > 0, got {self.eta0}")
        if self.alpha < 0 or self.beta < 0:
            raise ConfigError(f"alpha and beta must be >= 0, got {self.alpha}, {self.beta}")
        if self.delta <= 0:
            raise ConfigError(f"delta must be > 0, got {self.delta}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.lam < 0:
            raise ConfigError(f"lam must be >= 0, got {self.lam}")


def _check_progress(p: float) -> float:
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"training progress must be in [0, 1], got {p}")
    return p


def lr_schedule(p: float, sp: ScheduleParams) -> float:
    p = _check_progress(p)
    return sp.eta0 * (1.0 + sp.alpha * p) ** (-sp.beta)


def lambda_schedule(p: float, delta: float) -> float:
    p = _check_progress(p)
    e = np.exp(-delta * p)
    return float((1.0 - e) / (1.0 + e))


class SgdMomentum:
    """Classical momentum, v <- momentum*v + grad; param <- param - lr*v, in
    place, with a learning-rate multiplier per parameter group.

    The groups' parameters are laid out flat, in group order, in three arrays,
    ``data``, ``grad`` and ``velocity``, and each parameter's ``data`` and
    ``grad`` become fixed views into the first two, so a backward accumulates
    into ``grad``. It starts, and step() leaves it, filled with -0.0, the
    additive identity: a parameter's first contribution lands as itself.
    """

    def __init__(self, groups: list[tuple[list[Tensor], float]], momentum: float):
        self.momentum = momentum
        self.data = np.concatenate([t.data.reshape(-1) for params, _ in groups for t in params])
        self.grad = np.full(self.data.size, -0.0)
        self.velocity = np.zeros(self.data.size)
        self.slices, at = [], 0
        for params, mult in groups:
            start = at
            for t in params:
                view = slice(at, at + t.data.size)
                t.data, t.grad = self.data[view].reshape(t.data.shape), self.grad[view].reshape(t.data.shape)
                at = view.stop
            self.slices.append((slice(start, at), mult))

    def step(self, eta: float) -> None:
        for s, mult in self.slices:
            v = self.velocity[s]
            v *= self.momentum
            v += self.grad[s]
            self.data[s] -= (eta * mult) * v
        self.grad.fill(-0.0)
