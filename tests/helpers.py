"""Shared test utilities: finite-difference oracles, relative error, the
tape ops that only the tests use as reference chains (relu, exp, tmean), and
the fork and pipe recorders of the forked-child hygiene tests."""

from __future__ import annotations

import os

import numpy as np
import pytest

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


def record_pipes(monkeypatch) -> list[int]:
    """Patch os.pipe to record every fd it opens."""
    fds = []
    real_pipe = os.pipe

    def recording_pipe():
        r, w = real_pipe()
        fds.extend((r, w))
        return r, w

    monkeypatch.setattr(os, "pipe", recording_pipe)
    return fds


def assert_no_child_and_no_open_pipe(fds):
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    for fd in fds:
        with pytest.raises(OSError):
            os.fstat(fd)
