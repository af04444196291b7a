"""Loss surface: entropy machinery, weighted adversarial losses, the minimax
sign structure, and the full-step gradient audit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import condada.conditioning as C
import condada.networks as N
import condada.objectives as O
from condada import tensor as T
from condada.tensor import Tensor

from helpers import central_differences, max_relative_error


def toy_bundle(seed=0, in_dim=2, d_f=5, classes=3):
    return N.init_model(
        N.MlpSpec((in_dim, 6, d_f)),
        N.MlpSpec((d_f, classes)),
        N.MlpSpec((d_f * classes, 6, 1)),
        seed=seed,
    )


def toy_batches(seed=0, n=8, in_dim=2, classes=3):
    rng = np.random.default_rng(seed)
    x_src = rng.standard_normal((n, in_dim))
    y_src = rng.integers(0, classes, n)
    x_tgt = rng.standard_normal((n, in_dim)) + 1.0
    return x_src, y_src, x_tgt


# --- cross entropy -----------------------------------------------------------


def test_cross_entropy_perfect_prediction_is_zero():
    probs = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert O.cross_entropy(probs, np.array([0, 1])).item() == 0.0


@pytest.mark.parametrize("classes,expected", [(2, math.log(2)), (10, math.log(10))])
def test_cross_entropy_uniform_prediction(classes, expected):
    probs = Tensor(np.full((4, classes), 1.0 / classes))
    assert O.cross_entropy(probs, np.zeros(4, dtype=int)).item() == pytest.approx(expected, abs=1e-12)


def test_cross_entropy_label_out_of_range():
    with pytest.raises(ValueError, match="label out of range"):
        O.cross_entropy(Tensor(np.full((2, 3), 1 / 3)), np.array([0, 3]))


# --- entropy and its weight --------------------------------------------------


def test_entropy_of_one_hot_is_zero():
    assert O.entropy(Tensor(np.array([[0.0, 1.0, 0.0]]))).data[0] == 0.0


def test_entropy_of_uniform_is_log_c():
    for c in (2, 5, 10):
        h = O.entropy(Tensor(np.full((1, c), 1.0 / c))).data[0]
        assert h == pytest.approx(math.log(c), abs=1e-12)


def test_entropy_of_two_point_support():
    h = O.entropy(Tensor(np.array([[0.5, 0.5, 0.0, 0.0]]))).data[0]
    assert h == pytest.approx(math.log(2), abs=1e-12)


def test_entropy_weight_pinned_values():
    assert O.entropy_weight(Tensor([0.0])).data[0] == 2.0
    w10 = O.entropy_weight(Tensor([math.log(10)])).data[0]
    assert w10 == pytest.approx(1.1, abs=1e-12)
    w2 = O.entropy_weight(Tensor([math.log(2)])).data[0]
    assert w2 == pytest.approx(1.5, abs=1e-12)


def test_entropy_weight_strictly_decreasing_on_grid():
    grid = np.linspace(0.0, math.log(10), 1000)
    w = O.entropy_weight(Tensor(grid)).data
    assert np.all(np.diff(w) < 0)
    assert np.all(w > 1.0) and np.all(w <= 2.0)


@given(st.lists(st.floats(1e-6, 1.0), min_size=2, max_size=8))
@settings(max_examples=200, deadline=None)
def test_entropy_weight_range_on_simplex_rows(raw):
    row = np.array(raw) / np.sum(raw)
    h = O.entropy(Tensor(row.reshape(1, -1)))
    w = O.entropy_weight(h).data[0]
    assert 1.0 < w <= 2.0


# --- adversarial losses ------------------------------------------------------


def test_adversarial_loss_at_half_is_2_log_2():
    z = Tensor(np.zeros((6, 1)))  # logit 0: d = 0.5
    loss = O.adversarial_losses(z, z)
    assert loss.item() == pytest.approx(2 * math.log(2), abs=1e-12)


def test_adversarial_loss_vanishes_for_perfect_discriminator():
    # Logits of +-40 put d on the clip: 1 - 1e-12 on source rows, 1e-12 on target rows.
    loss = O.adversarial_losses(Tensor(np.full((6, 1), 40.0)), Tensor(np.full((6, 1), -40.0)))
    assert 0.0 <= loss.item() < 1e-9


def test_weighted_mean_matches_brute_force_and_ignores_weight_scale():
    rng = np.random.default_rng(5)
    z_src = rng.uniform(-2.2, 2.2, (10, 1))
    z_tgt = rng.uniform(-2.2, 2.2, (10, 1))
    w_src = rng.uniform(1.0, 2.0, 10)
    w_tgt = rng.uniform(1.0, 2.0, 10)

    loss = O.adversarial_losses(Tensor(z_src), Tensor(z_tgt), Tensor(w_src), Tensor(w_tgt))
    d_src, d_tgt = 1.0 / (1.0 + np.exp(-z_src[:, 0])), 1.0 / (1.0 + np.exp(-z_tgt[:, 0]))
    brute = (-(w_src * np.log(d_src)).sum() / w_src.sum()
             - (w_tgt * np.log(1.0 - d_tgt)).sum() / w_tgt.sum())
    assert loss.item() == pytest.approx(brute, abs=1e-12)

    doubled = O.adversarial_losses(Tensor(z_src), Tensor(z_tgt), Tensor(2 * w_src), Tensor(2 * w_tgt))
    assert doubled.item() == loss.item()


def test_weight_length_mismatch():
    with pytest.raises(ValueError, match="weight shape"):
        O.adversarial_losses(Tensor(np.zeros((4, 1))), Tensor(np.zeros((4, 1))),
                             Tensor(np.ones(3)), None)


# --- full step ---------------------------------------------------------------


def test_lambda_zero_reduces_to_source_only():
    x_src, y_src, x_tgt = toy_batches()
    bundle = toy_bundle()
    out = O.cdan_step_losses(x_src, y_src, x_tgt, bundle,
                             C.ConditioningStrategy(C.MULTILINEAR), lambda_eff=0.0)
    T.backward(out.objective)
    # F and G see only the classifier loss: the same gradients as its own graph.
    reference = toy_bundle()
    f_src = N.forward_F(reference, Tensor(x_src))
    _, g_src = N.forward_G(reference, f_src)
    T.backward(O.cross_entropy(g_src, y_src))
    for p, q in zip(bundle.params_f() + bundle.params_g(), reference.params_f() + reference.params_g()):
        np.testing.assert_array_equal(p.grad, q.grad)


def test_negative_lambda_rejected():
    x_src, y_src, x_tgt = toy_batches()
    with pytest.raises(ValueError, match="lambda_eff"):
        O.cdan_step_losses(x_src, y_src, x_tgt, toy_bundle(),
                           C.ConditioningStrategy(C.MULTILINEAR), lambda_eff=-1.0)


def test_emitted_entropy_weights_are_in_range():
    x_src, y_src, x_tgt = toy_batches()
    out = O.cdan_step_losses(x_src, y_src, x_tgt, toy_bundle(),
                             C.ConditioningStrategy(C.MULTILINEAR),
                             lambda_eff=1.0, entropy_weighting=True)
    assert out.entropy_weights.shape == (16,)
    assert np.all(out.entropy_weights > 1.0) and np.all(out.entropy_weights <= 2.0)


def _collect_grads(bundle):
    return [None if p.grad is None else p.grad.copy() for p in bundle.all_params()]


def test_uniform_predictions_make_entropy_weighting_a_no_op():
    # With a zeroed classifier head every prediction is exactly uniform: the
    # equal weights cancel in the normalized weighted mean and the entropy
    # term is stationary, so gradients match the unweighted run exactly.
    x_src, y_src, x_tgt = toy_batches(seed=3)
    grads = {}
    for flag in (False, True):
        bundle = toy_bundle(seed=4)
        for w, b in bundle.layers_g:
            w.data = np.zeros_like(w.data)
            b.data = np.zeros_like(b.data)
        out = O.cdan_step_losses(x_src, y_src, x_tgt, bundle,
                                 C.ConditioningStrategy(C.MULTILINEAR),
                                 lambda_eff=0.8, entropy_weighting=flag)
        T.backward(out.objective)
        grads[flag] = _collect_grads(bundle)
    for g0, g1 in zip(grads[False], grads[True]):
        np.testing.assert_allclose(g1, g0, rtol=0, atol=1e-12)


def test_feature_only_strategy_reproduces_plain_domain_adversary():
    # The discriminator input degenerates to f itself.
    x_src, y_src, x_tgt = toy_batches(seed=6)
    d_f, classes = 5, 3
    bundle = N.init_model(
        N.MlpSpec((2, 6, d_f)),
        N.MlpSpec((d_f, classes)),
        N.MlpSpec((d_f, 6, 1)),
        seed=8,
    )
    out = O.cdan_step_losses(x_src, y_src, x_tgt, bundle,
                             C.ConditioningStrategy(C.FEATURE_ONLY), lambda_eff=1.0)

    f_src = N.forward_F(bundle, Tensor(x_src))
    f_tgt = N.forward_F(bundle, Tensor(x_tgt))
    d_src, _ = T.clipped_sigmoid(N.forward_D(bundle, f_src).data)
    d_tgt, _ = T.clipped_sigmoid(N.forward_D(bundle, f_tgt).data)
    expected = (-np.log(d_src).mean() - np.log(1.0 - d_tgt).mean())
    assert out.discriminator_loss == pytest.approx(expected, abs=1e-12)


def _flatten(arrays):
    return np.concatenate([a.reshape(-1) for a in arrays])


def _numpy_player_loss(x_src, y_src, x_tgt, w_src, w_tgt, lam, player, shapes):
    """Independent numpy evaluation of each player's objective for the toy
    architecture (2-layer F, softmax G, 2-layer sigmoid D, multilinear map).

    The entropy weights are per-step constants, so the audited objective holds
    them at the values captured from the graph's base point. The generator
    side (F and G jointly) minimizes cls - lam * adv; D minimizes adv.
    """

    def unpack(theta):
        out, off = [], 0
        for shape in shapes:
            size = int(np.prod(shape))
            out.append(theta[off : off + size].reshape(shape))
            off += size
        return out

    def forward(params):
        w1, b1, w2, b2, wg, bg, wd1, bd1, wd2, bd2 = params

        def body(x):
            f = np.maximum(x @ w1 + b1, 0.0) @ w2 + b2
            z = f @ wg + bg
            p = np.exp(z - z.max(axis=1, keepdims=True))
            p /= p.sum(axis=1, keepdims=True)
            h = np.einsum("ni,nj->nij", f, p).reshape(x.shape[0], -1)
            zd = np.maximum(h @ wd1 + bd1, 0.0) @ wd2 + bd2
            d = np.clip(1.0 / (1.0 + np.exp(-zd)), 1e-12, 1.0 - 1e-12).reshape(-1)
            return p, d

        p_src, d_src = body(x_src)
        _, d_tgt = body(x_tgt)
        cls = float(-np.log(np.maximum(p_src[np.arange(len(y_src)), y_src], 1e-12)).mean())
        bce = float(-(w_src * np.log(d_src)).sum() / w_src.sum()
                    - (w_tgt * np.log(1.0 - d_tgt)).sum() / w_tgt.sum())
        return cls, bce

    def fn(theta):
        cls, bce = forward(unpack(theta))
        return bce if player == "D" else cls - lam * bce

    return fn


def test_full_cdan_e_gradient_matches_finite_differences():
    x_src, y_src, x_tgt = toy_batches(seed=12, n=6)
    bundle = toy_bundle(seed=13)
    strategy = C.ConditioningStrategy(C.MULTILINEAR)
    lam = 0.7

    out = O.cdan_step_losses(x_src, y_src, x_tgt, bundle, strategy,
                             lambda_eff=lam, entropy_weighting=True)
    T.backward(out.objective)
    params = bundle.all_params()
    shapes = [p.data.shape for p in params]
    w_src, w_tgt = out.entropy_weights[:6], out.entropy_weights[6:]

    theta0 = _flatten([p.data for p in params])
    n_fg = sum(p.data.size for p in bundle.params_f() + bundle.params_g())

    fd_fg_full = central_differences(
        _numpy_player_loss(x_src, y_src, x_tgt, w_src, w_tgt, lam, "FG", shapes), theta0.copy())
    fd_d_full = central_differences(
        _numpy_player_loss(x_src, y_src, x_tgt, w_src, w_tgt, lam, "D", shapes), theta0.copy())

    analytic_fg = _flatten([p.grad for p in bundle.params_f() + bundle.params_g()])
    analytic_d = _flatten([p.grad for p in bundle.params_d()])
    assert max_relative_error(analytic_fg, fd_fg_full[:n_fg]) < 1e-4
    assert max_relative_error(analytic_d, fd_d_full[n_fg:]) < 1e-4


def test_minimax_sign_structure_via_directional_derivatives():
    x_src, y_src, x_tgt = toy_batches(seed=21, n=10)
    bundle = toy_bundle(seed=22)
    strategy = C.ConditioningStrategy(C.MULTILINEAR)
    lam = 1.0

    out = O.cdan_step_losses(x_src, y_src, x_tgt, bundle, strategy, lambda_eff=lam)
    T.backward(out.objective)
    d_grads = [p.grad.copy() for p in bundle.params_d()]
    f_grads = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in bundle.params_f()]

    def adv_value():
        fresh = O.cdan_step_losses(x_src, y_src, x_tgt, bundle, strategy, lambda_eff=lam)
        return fresh.discriminator_loss

    base = adv_value()
    eps = 1e-5

    # A small D step along its own descent direction decreases loss_D.
    for p, g in zip(bundle.params_d(), d_grads):
        p.data = p.data - eps * g
    assert adv_value() < base
    for p, g in zip(bundle.params_d(), d_grads):
        p.data = p.data + eps * g

    # A small F step along the total-objective descent direction does not
    # decrease the adversarial term (F ascends it through the reversal).
    for p, g in zip(bundle.params_f(), f_grads):
        p.data = p.data - eps * g
    assert adv_value() >= base


def test_target_labels_have_no_loss_parameter():
    # The loss surface has no way to receive target labels at all.
    import inspect

    params = inspect.signature(O.cdan_step_losses).parameters
    assert "y_src" in params
    assert not any("y_tgt" in name or name == "labels_tgt" for name in params)
