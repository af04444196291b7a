"""Shared test utilities: finite-difference oracles, relative error, a
config from key/value pairs, the tape ops that only the tests use as
reference chains (the fused nodes of the package are checked, bit for bit,
against chains of these), and the fork recorder and open-descriptor check of
the forked-child hygiene tests."""

from __future__ import annotations

import os

import numpy as np
import pytest

from condada import config as cfgmod
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


def config_from_pairs(pairs: dict[str, str]) -> cfgmod.ExperimentConfig:
    """The defaults with ``key: text value`` pairs applied, validated."""
    return cfgmod._apply(cfgmod.ExperimentConfig(), pairs, "<config>").validate()


def matmul(a: T.Tensor, b: T.Tensor) -> T.Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")

    def _bw(out):
        g = out.grad
        if a.requires_grad:
            T._accumulate(a, g @ b.data.T)
        if b.requires_grad:
            T._accumulate(b, a.data.T @ g)

    return T.node(a.data @ b.data, (a, b), _bw)


def mul(a: T.Tensor, b: T.Tensor) -> T.Tensor:
    def _bw(out):
        g = out.grad
        if a.requires_grad:
            T._accumulate(a, T._unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            T._accumulate(b, T._unbroadcast(g * a.data, b.shape))

    return T.node(a.data * b.data, (a, b), _bw)


def div(a: T.Tensor, b: T.Tensor) -> T.Tensor:
    def _bw(out):
        g = out.grad
        if a.requires_grad:
            T._accumulate(a, T._unbroadcast(g / b.data, a.shape))
        if b.requires_grad:
            T._accumulate(b, T._unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return T.node(a.data / b.data, (a, b), _bw)


def scale(a: T.Tensor, c: float) -> T.Tensor:
    c = float(c)

    def _bw(out):
        if a.requires_grad:
            T._accumulate(a, out.grad * c)

    return T.node(a.data * c, (a,), _bw)


def log(a: T.Tensor) -> T.Tensor:
    """Natural log with the argument clamped to >= LOG_CLAMP; the derivative
    is zero below the clamp, where the function is constant."""
    clamped = np.maximum(a.data, T.LOG_CLAMP)
    mask = a.data > T.LOG_CLAMP

    def _bw(out):
        if a.requires_grad:
            T._accumulate(a, out.grad * mask / clamped)

    return T.node(np.log(clamped), (a,), _bw)


def sqrt(a: T.Tensor) -> T.Tensor:
    out_data = np.sqrt(a.data)

    def _bw(out):
        if a.requires_grad:
            T._accumulate(a, out.grad * 0.5 / np.maximum(out_data, T.LOG_CLAMP))

    return T.node(out_data, (a,), _bw)


def reshape(a: T.Tensor, shape: tuple) -> T.Tensor:
    def _bw(out):
        if a.requires_grad:
            T._accumulate(a, out.grad.reshape(a.shape).copy())

    return T.node(a.data.reshape(shape), (a,), _bw)


def tsum(a: T.Tensor, axis: int | None = None) -> T.Tensor:
    def _bw(out):
        if a.requires_grad:
            g = out.grad
            if axis is not None:
                g = np.expand_dims(g, axis=axis)
            T._accumulate(a, np.broadcast_to(g, a.shape).copy())

    return T.node(np.asarray(a.data.sum(axis=axis)), (a,), _bw)


def l2_normalize_rows(a: T.Tensor, eps: float = 1e-24) -> T.Tensor:
    """Divide each row by its Euclidean norm (eps keeps zero rows finite)."""
    sq = tsum(mul(a, a), axis=1)
    norm = sqrt(T.add(sq, T.Tensor(np.full(sq.shape, eps))))
    return div(a, reshape(norm, (a.shape[0], 1)))


def sigmoid_head(z: T.Tensor) -> T.Tensor:
    """``tensor.clipped_sigmoid`` of (n, 1) logits as a node of its own, the
    way D's and the probe's loss nodes apply it inside themselves."""
    p, dsig = T.clipped_sigmoid(z.data)
    return T.node(p, (z,), lambda out: T._accumulate(z, dsig(out.grad)))


def sigmoid(a: T.Tensor) -> T.Tensor:
    """Elementwise: the sigmoid head's reference chain, before its reshape to (n,)."""
    e = np.exp(-np.abs(a.data))
    out_data = np.where(a.data >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
    out_data = np.clip(out_data, T.LOG_CLAMP, 1.0 - T.LOG_CLAMP)

    def _bw(out):
        if a.requires_grad:
            T._accumulate(a, out.grad * out_data * (1.0 - out_data))

    return T.node(out_data, (a,), _bw)


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
    return scale(tsum(a, axis=axis), 1.0 / count)


def count_forks(monkeypatch) -> list[int]:
    """Patch os.fork to record the pid of every child it starts."""
    count = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            count.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return count


def open_fds() -> set[str]:
    """The file descriptors this process holds open: pipes, files, mappings."""
    return set(os.listdir("/dev/fd"))


def assert_no_child_and_no_new_fd(before: set[str]):
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    now = open_fds()
    assert now == before, f"descriptors left open: {sorted(now - before)}, closed: {sorted(before - now)}"
