"""Shared test utilities: finite-difference oracles, relative error, and the
tape ops that only the tests use as reference chains (relu, exp, tmean)."""

from __future__ import annotations

import numpy as np

from condada import tensor as T

FD_STEP = 1e-5


def central_differences(fn, x: np.ndarray, step: float = FD_STEP) -> np.ndarray:
    """Gradient of scalar fn at x by central differences, one coordinate at a time."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = fn(x)
        flat[i] = orig - step
        lo = fn(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * step)
    return grad


def max_relative_error(analytic: np.ndarray, reference: np.ndarray, floor: float = 1e-6) -> float:
    """Elementwise |a - r| / max(|r|, floor), maximized."""
    analytic = np.asarray(analytic, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    denom = np.maximum(np.abs(reference), floor)
    return float(np.max(np.abs(analytic - reference) / denom))


def relu(a: T.Tensor) -> T.Tensor:
    mask = a.data > 0.0

    def _bw(out):
        if a.requires_grad:
            T._accumulate(a, out.grad * mask)

    return T.node(np.where(mask, a.data, 0.0), (a,), _bw)


def exp(a: T.Tensor) -> T.Tensor:
    out_data = np.exp(a.data)

    def _bw(out):
        if a.requires_grad:
            T._accumulate(a, out.grad * out_data)

    return T.node(out_data, (a,), _bw)


def tmean(a: T.Tensor, axis: int | None = None) -> T.Tensor:
    count = a.data.size if axis is None else a.shape[axis]
    return T.scale(T.tsum(a, axis=axis), 1.0 / count)
