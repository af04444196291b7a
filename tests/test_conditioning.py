"""Conditioning maps: outer-product identities, the randomized surrogate's
law, unbiasedness and variance decay, and strategy dispatch."""

import numpy as np
import pytest

import condada.conditioning as C
from condada import serialize
from condada import tensor as T
from condada.tensor import Tensor

import helpers as H


def row(v):
    return Tensor(np.asarray(v, dtype=np.float64).reshape(1, -1))


def test_outer_product_definition():
    out = C.multilinear_map(row([1.0, 2.0]), row([3.0, 4.0]))
    np.testing.assert_array_equal(out.data, [[3.0, 4.0, 6.0, 8.0]])


def test_one_hot_places_feature_block():
    f = row([1.5, -2.0, 0.5])
    g = row([0.0, 1.0, 0.0, 0.0])
    out = C.multilinear_map(f, g).data.reshape(3, 4)
    np.testing.assert_array_equal(out[:, 1], [1.5, -2.0, 0.5])
    out[:, 1] = 0.0
    assert not out.any()


def test_inner_product_identity_on_100_random_quadruples():
    # <f (x) g, f' (x) g'> must equal <f,f'><g,g'> to float precision.
    rng = np.random.default_rng(2024)
    for _ in range(100):
        f, f2 = rng.standard_normal((2, 24))
        g, g2 = rng.standard_normal((2, 7))
        lhs = float((C.multilinear_map(row(f), row(g)).data @ C.multilinear_map(row(f2), row(g2)).data.T)[0, 0])
        rhs = float(np.dot(f, f2) * np.dot(g, g2))
        assert abs(lhs - rhs) < 1e-10


def test_mean_map_blocks_recover_class_conditional_means():
    # Sample mean of x (x) onehot(y): block c equals (n_c/n) * mean of class-c rows.
    rng = np.random.default_rng(77)
    n, dim, classes = 200, 5, 4
    x = rng.standard_normal((n, dim))
    y = rng.integers(0, classes, n)
    hot = np.zeros((n, classes))
    hot[np.arange(n), y] = 1.0

    mapped = C.multilinear_map(Tensor(x), Tensor(hot)).data
    blocks = mapped.mean(axis=0).reshape(dim, classes)
    for c in range(classes):
        mask = y == c
        expected = (mask.sum() / n) * x[mask].mean(axis=0)
        np.testing.assert_allclose(blocks[:, c], expected, rtol=0, atol=1e-12)


def test_uniform_sampler_is_bounded_by_unit_variance_half_width():
    proj = C.sample_projection(64, 32, 8, "uniform", seed=3)
    bound = np.sqrt(3.0)
    for r in (proj.r_f.data, proj.r_g.data):
        assert np.all(np.abs(r) <= bound)


def test_sampler_determinism():
    p1 = C.sample_projection(16, 8, 4, "gaussian", seed=11)
    p2 = C.sample_projection(16, 8, 4, "gaussian", seed=11)
    assert p1.r_f.data.tobytes() == p2.r_f.data.tobytes()
    assert p1.r_g.data.tobytes() == p2.r_g.data.tobytes()


@pytest.mark.parametrize("sampler", ["gaussian", "uniform"])
def test_sampler_law_has_zero_mean_unit_variance(sampler):
    proj = C.sample_projection(500, 200, 10, sampler, seed=5)
    entries = proj.r_f.data.reshape(-1)  # 1e5 draws
    assert abs(entries.mean()) < 0.02
    assert abs(entries.var() - 1.0) < 0.02


def test_unknown_sampler_rejected():
    with pytest.raises(ValueError, match="sampler"):
        C.sample_projection(8, 4, 2, "laplace", seed=0)


def test_randomized_map_zero_feature_gives_zero():
    proj = C.sample_projection(32, 6, 3, "gaussian", seed=1)
    out = C.randomized_multilinear_map(row(np.zeros(6)), row([0.2, 0.3, 0.5]), proj)
    assert not out.data.any()


def test_randomized_map_is_bilinear():
    rng = np.random.default_rng(9)
    proj = C.sample_projection(32, 6, 3, "uniform", seed=2)
    f = rng.standard_normal(6)
    g = rng.standard_normal(3)
    base = C.randomized_multilinear_map(row(f), row(g), proj).data
    doubled_f = C.randomized_multilinear_map(row(2 * f), row(g), proj).data
    doubled_g = C.randomized_multilinear_map(row(f), row(2 * g), proj).data
    np.testing.assert_allclose(doubled_f, 2 * base, rtol=1e-12)
    np.testing.assert_allclose(doubled_g, 2 * base, rtol=1e-12)


def test_randomized_map_dimension_mismatch():
    proj = C.sample_projection(32, 6, 3, "gaussian", seed=1)
    with pytest.raises(ValueError, match="widths"):
        C.randomized_multilinear_map(row(np.zeros(5)), row(np.zeros(3)), proj)
    with pytest.raises(ValueError, match="rows"):
        C.randomized_multilinear_map(Tensor(np.zeros((2, 6))), row(np.zeros(3)), proj)


def test_projection_matrices_receive_no_gradient():
    proj = C.sample_projection(16, 4, 3, "gaussian", seed=4)
    f = Tensor(np.random.default_rng(0).standard_normal((2, 4)), requires_grad=True)
    g = Tensor(np.random.default_rng(1).standard_normal((2, 3)), requires_grad=True)
    T.backward(H.tsum(C.randomized_multilinear_map(f, g, proj)))
    assert f.grad is not None and g.grad is not None
    assert proj.r_f.grad is None and proj.r_g.grad is None


def _resampled_inner_products(f, g, f2, g2, d, n, sampler):
    """Inner products of the randomized maps over n fresh projections."""
    out = np.empty(n)
    for i in range(n):
        proj = C.sample_projection(d, f.size, g.size, sampler, seed=i)
        t1 = C.randomized_multilinear_map(row(f), row(g), proj).data
        t2 = C.randomized_multilinear_map(row(f2), row(g2), proj).data
        out[i] = (t1 @ t2.T)[0, 0]
    return out


def _unit(rng, k):
    v = rng.standard_normal(k)
    return v / np.linalg.norm(v)


def test_unbiasedness_of_randomized_inner_product():
    rng = np.random.default_rng(31415)
    f, f2 = _unit(rng, 12), _unit(rng, 12)
    g, g2 = _unit(rng, 5), _unit(rng, 5)
    exact = np.dot(f, f2) * np.dot(g, g2)
    estimates = _resampled_inner_products(f, g, f2, g2, d=64, n=20000, sampler="gaussian")
    se = estimates.std(ddof=1) / np.sqrt(estimates.size)
    assert abs(estimates.mean() - exact) < 3 * se


def test_estimator_variance_strictly_shrinks_with_dimension():
    rng = np.random.default_rng(2718)
    f, f2 = _unit(rng, 12), _unit(rng, 12)
    g, g2 = _unit(rng, 5), _unit(rng, 5)
    variances = []
    for d in (64, 128, 256):
        est = _resampled_inner_products(f, g, f2, g2, d=d, n=5000, sampler="gaussian")
        variances.append(est.var(ddof=1))
    assert variances[0] > variances[1] > variances[2]


@pytest.mark.parametrize("d_f,d_g,expected", [
    (64, 10, C.MULTILINEAR),        # 640 <= 4096
    (256, 31, C.RANDOMIZED_MULTILINEAR),  # 7936 > 4096
    (4096, 1, C.MULTILINEAR),       # boundary is inclusive
])
def test_select_strategy_threshold_rule(d_f, d_g, expected):
    assert C.select_strategy(d_f, d_g) == expected


def test_select_strategy_custom_threshold():
    assert C.select_strategy(4, 4, threshold=1) == C.RANDOMIZED_MULTILINEAR


def test_condition_dispatch():
    f = row([1.0, 2.0])
    g = row([3.0])
    np.testing.assert_array_equal(
        C.condition(f, g, C.ConditioningStrategy(C.CONCAT)).data, [[1.0, 2.0, 3.0]])
    np.testing.assert_array_equal(
        C.condition(f, g, C.ConditioningStrategy(C.FEATURE_ONLY)).data, [[1.0, 2.0]])
    np.testing.assert_array_equal(
        C.condition(f, g, C.ConditioningStrategy(C.PREDICTION_ONLY)).data, [[3.0]])
    np.testing.assert_array_equal(
        C.condition(f, g, C.ConditioningStrategy(C.MULTILINEAR)).data,
        C.multilinear_map(f, g).data)


def test_condition_requires_projection_for_randomized():
    with pytest.raises(ValueError, match="projection"):
        C.condition(row([1.0]), row([1.0]), C.ConditioningStrategy(C.RANDOMIZED_MULTILINEAR, d=8))


def test_condition_width_is_pure_function_of_strategy():
    cases = [
        (C.ConditioningStrategy(C.FEATURE_ONLY), 6),
        (C.ConditioningStrategy(C.PREDICTION_ONLY), 3),
        (C.ConditioningStrategy(C.CONCAT), 9),
        (C.ConditioningStrategy(C.MULTILINEAR), 18),
        (C.ConditioningStrategy(C.RANDOMIZED_MULTILINEAR, d=13), 13),
    ]
    rng = np.random.default_rng(6)
    proj = C.sample_projection(13, 6, 3, "gaussian", seed=8)
    f = Tensor(rng.standard_normal((4, 6)))
    g = Tensor(rng.standard_normal((4, 3)))
    for strategy, width in cases:
        assert C.conditioned_dim(strategy, 6, 3) == width
        assert C.condition(f, g, strategy, proj).shape == (4, width)


def test_normalize_flag_normalizes_feature_rows_before_randomized_map():
    rng = np.random.default_rng(13)
    proj = C.sample_projection(16, 6, 3, "gaussian", seed=3)
    f = rng.standard_normal((4, 6)) * 3.0
    g = rng.standard_normal((4, 3))
    strategy = C.ConditioningStrategy(C.RANDOMIZED_MULTILINEAR, d=16, normalize_features=True)
    out = C.condition(Tensor(f), Tensor(g), strategy, proj).data
    f_unit = f / np.linalg.norm(f, axis=1, keepdims=True)
    expected = C.randomized_multilinear_map(Tensor(f_unit), Tensor(g), proj).data
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-9)


def test_projection_round_trip(tmp_path):
    proj = C.sample_projection(8, 4, 2, "uniform", seed=21)
    path = tmp_path / "proj.txt"
    serialize.write_arrays(path, {"proj.R_f": proj.r_f.data, "proj.R_g": proj.r_g.data},
                           meta={"proj.sampler": proj.sampler, "proj.seed": str(proj.seed)})
    arrays, meta = serialize.read_arrays(path)
    assert meta == {"proj.sampler": "uniform", "proj.seed": "21"}
    assert arrays["proj.R_f"].tobytes() == proj.r_f.data.tobytes()
    assert arrays["proj.R_g"].tobytes() == proj.r_g.data.tobytes()
