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

    Groups hold live parameter tensors; step() consumes and clears their grads.
    """

    def __init__(self, groups: list[tuple[list[Tensor], float]], momentum: float):
        self.groups = groups
        self.momentum = momentum
        self.velocity = [[np.zeros_like(t.data) for t in params] for params, _ in groups]

    def step(self, eta: float) -> None:
        for gi, (params, mult) in enumerate(self.groups):
            lr = eta * mult
            for t, v in zip(params, self.velocity[gi]):
                if t.grad is not None and t.grad.shape != v.shape:
                    raise ValueError(f"gradient shape {t.grad.shape} does not match parameter shape {v.shape}")
                v *= self.momentum
                if t.grad is not None:
                    v += t.grad
                t.data -= lr * v
                t.grad = None
