"""Schedules and momentum SGD."""

import numpy as np
import pytest

from condada import optim
from condada import tensor as T
from condada.errors import ConfigError
from condada.optim import ScheduleParams, lambda_schedule, lr_schedule
from condada.tensor import Tensor


def test_lr_schedule_at_zero_is_eta0_exactly():
    assert lr_schedule(0.0, ScheduleParams()) == 0.01


def test_lr_schedule_at_one_matches_direct_evaluation():
    # eta0 * (1 + alpha)^(-beta) with the stated constants.
    expected = 0.01 * (1.0 + 10.0) ** (-0.75)
    got = lr_schedule(1.0, ScheduleParams())
    assert got == pytest.approx(expected, abs=0)
    assert got == pytest.approx(1.656e-3, abs=5e-7)


def test_lr_schedule_constant_when_alpha_zero():
    sp = ScheduleParams(alpha=0.0)
    for p in (0.0, 0.3, 1.0):
        assert lr_schedule(p, sp) == 0.01


def test_lr_schedule_rejects_out_of_range_progress():
    with pytest.raises(ValueError, match="progress"):
        lr_schedule(1.5, ScheduleParams())
    with pytest.raises(ValueError, match="progress"):
        lr_schedule(-0.1, ScheduleParams())


def test_lambda_schedule_pinned_values():
    assert lambda_schedule(0.0, 10.0) == 0.0
    assert lambda_schedule(0.5, 10.0) == pytest.approx((1 - np.exp(-5)) / (1 + np.exp(-5)), abs=0)
    assert lambda_schedule(0.5, 10.0) == pytest.approx(0.98661, abs=5e-6)
    assert lambda_schedule(1.0, 10.0) == pytest.approx(0.99991, abs=5e-6)


def test_schedules_monotone_on_grid():
    sp = ScheduleParams()
    grid = np.linspace(0.0, 1.0, 1000)
    lrs = np.array([lr_schedule(p, sp) for p in grid])
    lams = np.array([lambda_schedule(p, sp.delta) for p in grid])
    assert np.all(np.diff(lrs) < 0)
    assert np.all(np.diff(lams) > 0)


def test_effective_adversarial_coefficient_stays_below_lambda():
    sp = ScheduleParams()
    for p in np.linspace(0.0, 1.0, 101):
        eff = sp.lam * lambda_schedule(p, sp.delta)
        assert 0.0 <= eff < 1.0


def test_schedule_params_validation():
    with pytest.raises(ConfigError):
        ScheduleParams(eta0=0.0)
    with pytest.raises(ConfigError):
        ScheduleParams(momentum=1.0)
    with pytest.raises(ConfigError):
        ScheduleParams(lam=-0.5)
    with pytest.raises(ConfigError):
        ScheduleParams(delta=0.0)


def sgd_momentum_step(params, grads, velocity, eta, momentum):
    """Oracle: classical momentum as fresh arrays, v' = momentum*v + g, p' = p - eta*v'."""
    new_velocity = [momentum * v + g for v, g in zip(velocity, grads)]
    return [p - eta * v for p, v in zip(params, new_velocity)], new_velocity


def test_zero_momentum_is_plain_sgd():
    t = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    sgd = optim.SgdMomentum([([t], 1.0)], momentum=0.0)
    t.grad[...] = [0.5, -0.5]
    sgd.step(0.1)
    np.testing.assert_allclose(t.data, [0.95, 2.05])
    np.testing.assert_allclose(sgd.velocity, [0.5, -0.5])
    assert t.grad.tobytes() == np.full(2, -0.0).tobytes()  # the additive identity, ready for the next backward


def test_zero_gradients_leave_params_fixed():
    t = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    sgd = optim.SgdMomentum([([t], 1.0)], momentum=0.9)
    for _ in range(5):
        t.grad[...] = 0.0
        sgd.step(0.1)
    np.testing.assert_array_equal(t.data, [1.0, 2.0])


def test_two_steps_with_constant_gradient_displace_by_2_9_g():
    # Hand-unrolled: v1 = g, v2 = 0.9 g + g = 1.9 g, total step = -(1 + 1.9) g.
    g = np.array([2.0, -1.0])
    t = Tensor(np.zeros(2), requires_grad=True)
    sgd = optim.SgdMomentum([([t], 1.0)], momentum=0.9)
    for _ in range(2):
        t.grad[...] = g
        sgd.step(1.0)
    np.testing.assert_allclose(t.data, -2.9 * g, rtol=0, atol=1e-15)


def test_sgd_shape_mismatch():
    # A (1,) gradient would broadcast onto the (2,) one and move both entries;
    # the tape rejects it where it accumulates, before any step.
    for grad in (np.zeros(3), np.array([1.0])):
        t = Tensor(np.zeros(2), requires_grad=True)
        optim.SgdMomentum([([t], 1.0)], momentum=0.9)
        with pytest.raises(ValueError, match=rf"gradient shape \({grad.size},\) does not match shape \(2,\)"):
            T._accumulate(t, grad)
        assert t.grad.tobytes() == np.full(2, -0.0).tobytes()


def test_every_parameter_is_a_view_of_the_flat_buffers():
    rng = np.random.default_rng(1)
    params = [Tensor(rng.standard_normal(shape), requires_grad=True) for shape in ((3, 2), (2,), (2, 1), (1,))]
    before = [t.data.copy() for t in params]
    sgd = optim.SgdMomentum([(params[:2], 1.0), (params[2:], 0.1)], momentum=0.9)
    for t, data in zip(params, before):
        assert np.shares_memory(t.data, sgd.data) and np.shares_memory(t.grad, sgd.grad)
        np.testing.assert_array_equal(t.data, data)
    assert sgd.data.size == sgd.grad.size == sgd.velocity.size == 6 + 2 + 2 + 1


def test_stateful_wrapper_matches_functional_core():
    # In place, v *= m; v += g; data -= lr*v computes the oracle's
    # expressions in the same order, so the results are equal bit for bit,
    # each group at its own multiplier.
    rng = np.random.default_rng(0)
    shapes, mults = ((3, 3), (3,), (3, 1), (1,)), (1.0, 1.0, 2.0, 2.0)
    data = [rng.standard_normal(shape) for shape in shapes]
    steps = [[rng.standard_normal(shape) for shape in shapes] for _ in range(3)]

    params = [Tensor(d.copy(), requires_grad=True) for d in data]
    sgd = optim.SgdMomentum([(params[:2], 1.0), (params[2:], 2.0)], momentum=0.9)
    p, v = [d.copy() for d in data], [np.zeros_like(d) for d in data]
    for grads in steps:
        for t, g in zip(params, grads):
            T._accumulate(t, g)
        sgd.step(0.05)
        stepped = [sgd_momentum_step([pi], [g], [vi], eta=0.05 * mult, momentum=0.9)
                   for pi, g, vi, mult in zip(p, grads, v, mults)]
        p, v = [s[0][0] for s in stepped], [s[1][0] for s in stepped]
    for t, expected in zip(params, p):
        assert t.data.tobytes() == expected.tobytes()
    assert sgd.velocity.tobytes() == np.concatenate([vi.reshape(-1) for vi in v]).tobytes()
