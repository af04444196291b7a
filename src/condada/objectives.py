"""Loss surface of the adversarial adaptation game.

A single training step builds one graph: source cross-entropy plus the
conditional discriminator's binary loss, with the discriminator's inputs
routed through gradient reversal scaled by the effective adversarial
coefficient. One backward pass then hands every player its own gradient:
D descends its loss while F and G ascend it, scaled by lambda, on top of
descending the classifier loss.

Entropy weights are per-example constants within a step: they prioritize
confident examples in the discriminator's loss (for both players) but carry
no gradient themselves. Letting the generator differentiate through the
weights opens a confidence-manipulation channel that destabilizes desk-scale
runs.

Target labels never enter any loss; they exist only for evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import conditioning as C
from . import networks as N
from . import tensor as T
from .tensor import Tensor


@dataclass
class LossBreakdown:
    classifier_loss: float
    discriminator_loss: float
    entropy_weights: np.ndarray | None  # source rows then target rows, when entropy conditioning is on
    objective: Tensor  # graph scalar whose backward drives all three players


def one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ValueError(f"label out of range [0, {n_classes}): found {labels.min()}..{labels.max()}")
    out = np.zeros((labels.shape[0], n_classes))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def cross_entropy(g_probs: Tensor, labels: np.ndarray) -> Tensor:
    """Mean over the batch of -log p[true label], with the clamped log.

    One node; forward and backward are the arithmetic of
    ``scale(tsum(tsum(mul(log(p), hot), axis=1)), -1/n)``.
    """
    hot = one_hot(labels, g_probs.shape[1])
    log_p, dlog = T.clamped_log(g_probs.data)
    c = float(-1.0 / g_probs.shape[0])
    value = (log_p * hot).sum(axis=1).sum() * c

    def _bw(out):
        if g_probs.requires_grad:
            T._accumulate(g_probs, dlog(np.broadcast_to(out.grad * c, hot.shape) * hot))

    return T.node(value, (g_probs,), _bw)


def entropy(g_probs: Tensor) -> Tensor:
    """Per-row prediction entropy H = -sum_c g_c log g_c, shape (n,), as a
    constant: no tape op records it.

    Zero probabilities contribute zero: the clamped log is finite there and
    the multiplication by g_c = 0 kills the term.
    """
    g = g_probs.data
    return Tensor(-(g * T.clamped_log(g)[0]).sum(axis=1))


def entropy_weight(h: Tensor) -> Tensor:
    """w = 1 + e^{-H}: strictly decreasing, range (1, 2] for H >= 0; a constant."""
    return Tensor(np.exp(-h.data) + 1.0)


def _neg_log_mean(probs: np.ndarray, weights: Tensor | None):
    """(-mean_w log probs, backward) with the clamped log; weighted means are
    normalized by the weight sum. The backward maps the upstream scalar
    gradient to the gradient with respect to ``probs``."""
    log_p, dlog = T.clamped_log(probs)
    neg = -log_p
    if weights is None:
        c = float(1.0 / neg.size)
        value = neg.sum() * c
        return value, lambda g: dlog(-np.broadcast_to(g * c, neg.shape))
    if weights.shape != neg.shape:
        raise ValueError(f"weight shape {weights.shape} does not match value shape {neg.shape}")
    w = weights.data
    w_sum = w.sum()
    value = (neg * w).sum() / w_sum
    return value, lambda g: dlog(-(np.broadcast_to(g / w_sum, neg.shape) * w))


def adversarial_losses(z_src: Tensor, z_tgt: Tensor,
                       weights_src: Tensor | None = None,
                       weights_tgt: Tensor | None = None) -> Tensor:
    """Weighted discriminator loss -mean_w log d_src - mean_w log(1 - d_tgt) of
    D's (n, 1) logits z, through its sigmoid head d = clipped_sigmoid(z).

    Weighted means are normalized by the batch weight sum, so rescaling all
    weights leaves the loss unchanged. The weights are constants. The one
    node is what D descends; when the discriminator inputs were routed
    through gradient reversal, it is also the adversarial quantity that F and
    G ascend.
    """
    d_src, dsig_src = T.clipped_sigmoid(z_src.data)
    d_tgt, dsig_tgt = T.clipped_sigmoid(z_tgt.data)
    src_value, src_bw = _neg_log_mean(d_src, weights_src)
    tgt_value, tgt_bw = _neg_log_mean(1.0 - d_tgt, weights_tgt)

    def _bw(out):
        if z_src.requires_grad:
            T._accumulate(z_src, dsig_src(src_bw(out.grad)))
        if z_tgt.requires_grad:
            T._accumulate(z_tgt, dsig_tgt(-tgt_bw(out.grad)))

    return T.node(src_value + tgt_value, (z_src, z_tgt), _bw)


def cdan_step_losses(x_src: np.ndarray, y_src: np.ndarray, x_tgt: np.ndarray,
                     bundle: N.ModelBundle, strategy: C.ConditioningStrategy,
                     proj: C.RandomProjection | None = None,
                     lambda_eff: float = 1.0, entropy_weighting: bool = False) -> LossBreakdown:
    """One simultaneous minimax step's losses over a source and a target batch."""
    if lambda_eff < 0.0:
        raise ValueError(f"lambda_eff must be >= 0, got {lambda_eff}")

    f_src = N.forward_F(bundle, Tensor(x_src))
    _, g_src = N.forward_G(bundle, f_src)
    f_tgt = N.forward_F(bundle, Tensor(x_tgt))
    _, g_tgt = N.forward_G(bundle, f_tgt)

    cls = cross_entropy(g_src, y_src)

    w_src = w_tgt = None
    if entropy_weighting:
        # Constants: weights prioritize, they do not backpropagate.
        w_src = entropy_weight(entropy(g_src))
        w_tgt = entropy_weight(entropy(g_tgt))

    h_src = C.condition(f_src, g_src, strategy, proj)
    h_tgt = C.condition(f_tgt, g_tgt, strategy, proj)
    z_src = N.forward_D(bundle, T.gradient_reversal(h_src, lambda_eff))
    z_tgt = N.forward_D(bundle, T.gradient_reversal(h_tgt, lambda_eff))

    loss_d = adversarial_losses(z_src, z_tgt, w_src, w_tgt)
    objective = T.add(cls, loss_d)

    weights = None
    if entropy_weighting:
        weights = np.concatenate([w_src.data, w_tgt.data])

    return LossBreakdown(
        classifier_loss=cls.item(),
        discriminator_loss=loss_d.item(),
        entropy_weights=weights,
        objective=objective,
    )
