"""Loss surface of the adversarial adaptation game.

A training step's graph has two halves, one per domain: the source half is
the cross-entropy plus the conditional discriminator's binary loss on source
rows, the target half that loss on target rows, with the discriminator's
inputs routed through gradient reversal scaled by the effective adversarial
coefficient. Their backward passes hand every player its own gradient: D
descends its loss while F and G ascend it, scaled by lambda, on top of
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
    classifier_loss: float | None  # None for a target half alone
    discriminator_loss: float  # D's loss over the rows of the halves built
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


def adversarial_losses(z: Tensor, source: bool, weights: Tensor | None = None) -> Tensor:
    """D's loss on one domain's (n, 1) logits z through its sigmoid head
    d = clipped_sigmoid(z): -mean_w log d on source rows, -mean_w log(1 - d)
    on target rows.

    A weighted mean is normalized by the batch weight sum, so rescaling all
    weights leaves the loss unchanged. The weights are constants. A step's
    discriminator loss is the source node's value plus the target node's; the
    two are what D descends, and when D's inputs were routed through gradient
    reversal, also the adversarial quantity that F and G ascend.
    """
    d, dsig = T.clipped_sigmoid(z.data)
    value, bw = _neg_log_mean(d if source else 1.0 - d, weights)

    def _bw(out):
        if z.requires_grad:
            g = bw(out.grad)
            T._accumulate(z, dsig(g if source else -g))

    return T.node(value, (z,), _bw)


def domain_half(x: np.ndarray, y: np.ndarray | None, bundle: N.ModelBundle,
                strategy: C.ConditioningStrategy, proj: C.RandomProjection | None = None,
                lambda_eff: float = 1.0, entropy_weighting: bool = False) -> LossBreakdown:
    """One domain's half of a step: F -> G -> condition -> gradient reversal
    -> D -> D's loss on these rows, plus G's cross-entropy when the source
    labels y are given; y is None for the target half.

    A half's backward gives each parameter at most one gradient contribution
    (``tests/test_objectives.py`` counts them). So two halves differentiated
    apart, even in two processes, and joined by one addition per parameter,
    which IEEE arithmetic makes commutative, give the bits of one graph.
    """
    if lambda_eff < 0.0:
        raise ValueError(f"lambda_eff must be >= 0, got {lambda_eff}")
    f = N.forward_F(bundle, Tensor(x))
    _, g = N.forward_G(bundle, f)
    # Constants: weights prioritize, they do not backpropagate.
    w = entropy_weight(entropy(g)) if entropy_weighting else None
    z = N.forward_D(bundle, T.gradient_reversal(C.condition(f, g, strategy, proj), lambda_eff))
    loss_d = adversarial_losses(z, y is not None, w)
    weights = None if w is None else w.data
    if y is None:
        return LossBreakdown(None, loss_d.item(), weights, loss_d)
    cls = cross_entropy(g, y)
    return LossBreakdown(cls.item(), loss_d.item(), weights, T.add(cls, loss_d))


def cdan_step_losses(x_src: np.ndarray, y_src: np.ndarray, x_tgt: np.ndarray | None,
                     bundle: N.ModelBundle, strategy: C.ConditioningStrategy,
                     proj: C.RandomProjection | None = None,
                     lambda_eff: float = 1.0, entropy_weighting: bool = False) -> LossBreakdown:
    """One simultaneous minimax step's losses over a source and a target batch:
    the two domain halves, their objectives joined by one add. With x_tgt
    None, only the source half is built, for a trainer whose worker process
    builds the target half."""
    src = domain_half(x_src, y_src, bundle, strategy, proj, lambda_eff, entropy_weighting)
    if x_tgt is None:
        return src
    tgt = domain_half(x_tgt, None, bundle, strategy, proj, lambda_eff, entropy_weighting)
    weights = None if src.entropy_weights is None else np.concatenate([src.entropy_weights, tgt.entropy_weights])
    return LossBreakdown(src.classifier_loss, src.discriminator_loss + tgt.discriminator_loss, weights,
                         T.add(src.objective, tgt.objective))
