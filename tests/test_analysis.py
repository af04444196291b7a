"""Diagnostics: accuracy, proxy A-distance, Monte Carlo verifier, entropy report, export."""

import numpy as np
import pytest

import condada.analysis as A
import condada.networks as N
from condada.datagen import LabeledSet
from condada.tensor import Tensor


def test_accuracy_all_correct_and_all_wrong():
    probs = np.array([[0.9, 0.1], [0.2, 0.8]])
    assert A.accuracy(probs, np.array([0, 1])) == 1.0
    assert A.accuracy(probs, np.array([1, 0])) == 0.0


def test_accuracy_tie_breaks_to_lowest_index():
    probs = np.array([[0.5, 0.5]])
    assert A.accuracy(probs, np.array([0])) == 1.0
    assert A.accuracy(probs, np.array([1])) == 0.0


def test_accuracy_is_permutation_invariant():
    rng = np.random.default_rng(3)
    probs = rng.dirichlet(np.ones(4), size=50)
    labels = rng.integers(0, 4, 50)
    base = A.accuracy(probs, labels)
    perm = rng.permutation(50)
    assert A.accuracy(probs[perm], labels[perm]) == base


def test_a_distance_formula():
    assert A.a_distance_from_error(0.5) == 0.0
    assert A.a_distance_from_error(0.05) == pytest.approx(1.8, abs=1e-12)
    assert A.a_distance_from_error(0.9) == 0.0  # clamped at chance level


def test_a_distance_same_law_is_small():
    rng = np.random.default_rng(0)
    f_src = rng.standard_normal((300, 8))
    f_tgt = rng.standard_normal((300, 8))
    assert A.proxy_a_distance(f_src, f_tgt, seed=1) < 0.3


def test_a_distance_separated_laws_is_large():
    rng = np.random.default_rng(1)
    f_src = rng.standard_normal((300, 8))
    f_tgt = rng.standard_normal((300, 8)) + 4.0
    assert A.proxy_a_distance(f_src, f_tgt, seed=1) > 1.5


def test_a_distance_symmetric_under_domain_swap():
    rng = np.random.default_rng(2)
    f_a = rng.standard_normal((200, 6))
    f_b = rng.standard_normal((200, 6)) + 0.6
    assert A.proxy_a_distance(f_a, f_b, seed=5) == A.proxy_a_distance(f_b, f_a, seed=5)


def test_a_distance_deterministic_per_seed():
    rng = np.random.default_rng(4)
    f_a = rng.standard_normal((100, 4))
    f_b = rng.standard_normal((100, 4)) + 1.0
    assert A.proxy_a_distance(f_a, f_b, seed=7) == A.proxy_a_distance(f_a, f_b, seed=7)


def test_a_distance_requires_enough_rows():
    with pytest.raises(ValueError, match=">= 40"):
        A.proxy_a_distance(np.zeros((30, 3)), np.zeros((50, 3)), seed=0)


def _basis(k, i):
    v = np.zeros(k)
    v[i] = 1.0
    return v


def test_theorem1_identical_basis_vectors_center_on_one():
    e1f, e1g = _basis(8, 0), _basis(4, 0)
    res = A.theorem1_verify(e1f, e1g, e1f, e1g, d=64, n_resamples=4000, sampler="gaussian", seed=0)
    assert res.exact == 1.0
    assert res.unbiased_within(3.0)


def test_theorem1_orthogonal_inputs_center_on_zero():
    res = A.theorem1_verify(_basis(8, 0), _basis(4, 0), _basis(8, 1), _basis(4, 0),
                            d=64, n_resamples=4000, sampler="uniform", seed=1)
    assert res.exact == 0.0
    assert res.unbiased_within(3.0)


def test_theorem1_variance_decays_with_dimension():
    rng = np.random.default_rng(8)
    f, f2 = rng.standard_normal((2, 8))
    g, g2 = rng.standard_normal((2, 4))
    lo = A.theorem1_verify(f, g, f2, g2, d=64, n_resamples=4000, sampler="gaussian", seed=2)
    hi = A.theorem1_verify(f, g, f2, g2, d=128, n_resamples=4000, sampler="gaussian", seed=2)
    assert hi.mc_var < lo.mc_var


def test_theorem1_deterministic_per_seed():
    f = _basis(6, 1)
    g = _basis(3, 2)
    r1 = A.theorem1_verify(f, g, f, g, d=32, n_resamples=1500, sampler="gaussian", seed=9)
    r2 = A.theorem1_verify(f, g, f, g, d=32, n_resamples=1500, sampler="gaussian", seed=9)
    assert r1.mc_mean == r2.mc_mean and r1.mc_var == r2.mc_var


def test_theorem1_rejects_small_resample_counts():
    with pytest.raises(ValueError, match="1000"):
        A.theorem1_verify(_basis(4, 0), _basis(2, 0), _basis(4, 0), _basis(2, 0),
                          d=16, n_resamples=500, sampler="gaussian", seed=0)


def test_entropy_report_perfect_predictions():
    probs = np.eye(3)[np.array([0, 1, 2])]
    mean_correct, mean_incorrect = A.entropy_correctness_report(probs, np.array([0, 1, 2]))
    assert mean_correct == pytest.approx(1.0, abs=1e-12)
    assert mean_incorrect is None


def test_entropy_report_uniform_predictions_both_groups():
    probs = np.full((4, 10), 0.1)
    labels = np.array([0, 0, 1, 1])  # argmax ties to 0: two correct, two incorrect
    mean_correct, mean_incorrect = A.entropy_correctness_report(probs, labels)
    assert mean_correct == pytest.approx(0.1, abs=1e-12)
    assert mean_incorrect == pytest.approx(0.1, abs=1e-12)


def test_export_features_rows_and_determinism(tmp_path):
    bundle = N.init_model(N.MlpSpec((2, 4, 2)),
                          N.MlpSpec((2, 3)),
                          N.MlpSpec((6, 4, 1)), seed=0)
    rng = np.random.default_rng(0)
    src = LabeledSet(rng.standard_normal((12, 2)), rng.integers(0, 3, 12), "source")
    tgt = LabeledSet(rng.standard_normal((9, 2)), rng.integers(0, 3, 9), "target")

    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    A.export_features(bundle, [src, tgt], p1)
    A.export_features(bundle, [src, tgt], p2)
    assert p1.read_bytes() == p2.read_bytes()

    lines = p1.read_text().strip().split("\n")
    assert lines[0] == "f0,f1,label,domain"
    assert len(lines) == 1 + 12 + 9
    assert lines[1].endswith(",source") and lines[-1].endswith(",target")
