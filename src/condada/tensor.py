"""Dense float64 tensors with reverse-mode automatic differentiation.

Arrays are numpy-backed, row-major, rank <= 2 (a batch axis plus at most one
feature axis). An op records a backward closure on its output whenever a
parent requires a gradient, in evaluation forwards too; :func:`backward` on a
scalar loss walks the recorded tape once in reverse topological order and
accumulates gradients into every reachable node with ``requires_grad``.

A closure receives its node as an argument instead of capturing it, so a
graph holds no reference cycles: reference counting frees it as soon as the
last reference to its loss goes.

This module holds only the ops the package calls. Fused ops (:func:`mlp`, a
network pass, and the nodes that ``conditioning``, ``objectives`` and
``analysis`` build with :func:`node`; the two that read a sigmoid head take
its logits through :func:`clipped_sigmoid`) record one node where a chain of
elementary ops (matmul, mul, log, ...) would be, computing the chain's numpy
expressions in its order, bit for bit; the elementary ops live with the
tests, as the reference chains.

No higher-order gradients, no in-place graph mutation: build a fresh graph
per training step.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

# Floor applied to log arguments and sigmoid outputs so that saturated
# discriminator probabilities keep the adversarial losses finite.
LOG_CLAMP = 1e-12


def clamped_log(p: np.ndarray):
    """(log(max(p, LOG_CLAMP)), dlog): every loss takes its logs here.

    ``dlog(g) = g * (p > LOG_CLAMP) / max(p, LOG_CLAMP)`` maps an upstream
    gradient to the gradient with respect to ``p``; clamped entries get zero.
    The mask is computed only when ``dlog`` is called."""
    clamped = np.maximum(p, LOG_CLAMP)
    return np.log(clamped), lambda g: g * (p > LOG_CLAMP) / clamped


def clipped_sigmoid(z: np.ndarray):
    """(p, dsig): the sigmoid head of a one-unit network, (n, 1) logits to (n,)
    probabilities, numerically stable and clipped like the log clamp, so that a
    saturated head emits LOG_CLAMP or 1 - LOG_CLAMP rather than exactly 0 or 1.
    ``dsig(g) = g * p * (1 - p)`` maps an (n,) gradient with respect to ``p`` to
    the (n, 1) gradient with respect to ``z``. Not a tape op: the loss nodes of
    D and of the probe call it."""
    if z.ndim != 2 or z.shape[1] != 1:
        raise ValueError(f"sigmoid head expects (n, 1) logits, got shape {z.shape}")
    e = np.exp(-np.abs(z))
    p = np.where(z >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
    p = np.clip(p, LOG_CLAMP, 1.0 - LOG_CLAMP)
    return p.reshape(z.shape[0]), lambda g: g.reshape(z.shape) * p * (1.0 - p)


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_backward_done",
                 "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim > 2:
            raise ValueError(f"rank {arr.ndim} tensor not supported (max rank 2): shape {arr.shape}")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None
        self._parents: tuple = ()
        self._backward: Optional[Callable[[Tensor], None]] = None
        self._backward_done = False

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on non-scalar tensor of shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        # Stored as is: a backward that would pass on a view of out.grad copies it.
        t.grad = g
    elif t.grad.shape != g.shape:  # += would broadcast a (1,) gradient onto a (2,) one
        raise ValueError(f"gradient shape {g.shape} does not match shape {t.grad.shape}")
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def node(data: np.ndarray, parents: tuple, backward_fn: Callable[[Tensor], None]) -> Tensor:
    """Wrap ``data`` as the output of an op over ``parents``.

    ``backward_fn(out)`` reads ``out.grad`` and accumulates into the parents;
    it is recorded whenever some parent requires a gradient.
    """
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward_fn
    return out


def backward(loss: Tensor) -> None:
    """Accumulate gradients of a scalar loss into every reachable leaf.

    Interior nodes (those with a recorded backward) start the pass with no
    gradient; leaves keep accumulating across passes until zeroed. The tape
    is single-use: a second call on the same loss raises.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward() requires a scalar loss, got shape {loss.shape}")
    if loss._backward_done:
        raise RuntimeError("backward() already called on this graph; rebuild the graph before differentiating again")
    loss._backward_done = True

    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)] if loss._backward is not None else []
    while stack:
        t, expanded = stack.pop()
        if expanded:
            topo.append(t)
            continue
        if id(t) in visited:
            continue
        visited.add(id(t))
        stack.append((t, True))
        for parent in t._parents:
            if id(parent) not in visited and parent._backward is not None:
                stack.append((parent, False))

    # An interior node's grad belongs to one pass: a node shared with an
    # earlier loss would otherwise pass that loss's gradient on again.
    for t in topo:
        t.grad = None
    _accumulate(loss, np.ones_like(loss.data))
    for t in reversed(topo):
        t._backward(t)


# ---------------------------------------------------------------------------
# ops


def mlp(x: Tensor, layers) -> Tensor:
    """One network pass as one node: ``h @ w + b`` per ``(w, b)`` in ``layers``,
    ReLU after all but the last, in the matmul/add/ReLU chain's arithmetic. The
    ReLU (mask multiply, +0.0) is ``np.where(z > 0, z, 0.0)`` on finite ``z``,
    -0.0 included, but turns a NaN or -inf into NaN, which reaches the loss."""
    inputs, masks = [], []
    h = x.data
    for i, (w, b) in enumerate(layers):
        if h.ndim != 2 or w.data.ndim != 2 or h.shape[1] != w.shape[0]:
            raise ValueError(f"mlp layer {i} shape mismatch: {h.shape} @ {w.shape}")
        inputs.append(h)
        h = h @ w.data
        h += b.data
        if i < len(layers) - 1:
            masks.append(h > 0.0)
            h *= masks[i]
            h += 0.0

    def _bw(out):
        g = out.grad
        for i in reversed(range(len(layers))):
            w, b = layers[i]
            if b.requires_grad:
                _accumulate(b, _unbroadcast(g, b.shape))
            if w.requires_grad:
                _accumulate(w, inputs[i].T @ g)
            if i:
                g = g @ w.data.T
                g *= masks[i - 1]
            elif x.requires_grad:
                _accumulate(x, g @ w.data.T)

    return node(h, (x,) + tuple(t for pair in layers for t in pair), _bw)


def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data

    def _bw(out):
        g = out.grad
        for t in (a, b):
            if t.requires_grad:
                gt = _unbroadcast(g, t.shape)
                _accumulate(t, gt.copy() if gt is g else gt)

    return node(out_data, (a, b), _bw)


def softmax_rows(a: Tensor) -> Tensor:
    """Softmax over the last axis with max-subtraction for stability."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=-1, keepdims=True)

    def _bw(out):
        if a.requires_grad:
            g = out.grad
            inner = (g * out_data).sum(axis=-1, keepdims=True)
            _accumulate(a, out_data * (g - inner))

    return node(out_data, (a,), _bw)


def concat(a: Tensor, b: Tensor, axis: int) -> Tensor:
    if a.data.ndim != b.data.ndim:
        raise ValueError(f"concat rank mismatch: {a.shape} vs {b.shape}")
    out_data = np.concatenate([a.data, b.data], axis=axis)
    split = a.shape[axis]

    def _bw(out):
        g = out.grad
        ga, gb = np.split(g, [split], axis=axis)
        if a.requires_grad:
            _accumulate(a, ga.copy())
        if b.requires_grad:
            _accumulate(b, gb.copy())

    return node(out_data, (a, b), _bw)


def gradient_reversal(a: Tensor, coeff: float) -> Tensor:
    """Identity in the forward pass; backward multiplies the upstream gradient by -coeff."""
    coeff = float(coeff)
    if coeff < 0.0:
        raise ValueError(f"gradient reversal coefficient must be nonnegative, got {coeff}")

    def _bw(out):
        if a.requires_grad:
            _accumulate(a, out.grad * -coeff)

    return node(a.data, (a,), _bw)
