"""Players F/G/D: init law, forward contracts, batch/row equivalence, save/load."""

import numpy as np
import pytest

import condada.networks as N
from condada import tensor as T
from condada.errors import ConfigError
from condada.tensor import Tensor


def small_bundle(seed=0, in_dim=2, d_f=8, classes=3, cond_dim=24):
    return N.init_model(
        N.MlpSpec((in_dim, 16, d_f)),
        N.MlpSpec((d_f, classes)),
        N.MlpSpec((cond_dim, 16, 1)),
        seed=seed,
    )


def test_same_seed_gives_bit_identical_parameters():
    b1, b2 = small_bundle(seed=42), small_bundle(seed=42)
    for p1, p2 in zip(b1.all_params(), b2.all_params()):
        assert p1.data.tobytes() == p2.data.tobytes()


def test_different_seeds_differ():
    b1, b2 = small_bundle(seed=1), small_bundle(seed=2)
    assert b1.layers_f[0][0].data.tobytes() != b2.layers_f[0][0].data.tobytes()


def test_biases_are_zero():
    bundle = small_bundle()
    for layers in (bundle.layers_f, bundle.layers_g, bundle.layers_d):
        for _, b in layers:
            assert not b.data.any()


def test_weight_variance_matches_uniform_law():
    # U[-a, a] with a^2 = 6/(fan_in+fan_out) has variance 2/(fan_in+fan_out).
    spec = N.MlpSpec((256, 256))
    bundle = N.init_model(spec, N.MlpSpec((256, 4)),
                          N.MlpSpec((8, 1)), seed=5)
    w = bundle.layers_f[0][0].data
    expected = 2.0 / (256 + 256)
    assert abs(w.var() - expected) / expected < 0.2


def test_inconsistent_widths_raise_config_error():
    with pytest.raises(ConfigError, match="classifier input width"):
        N.init_model(N.MlpSpec((2, 8)), N.MlpSpec((9, 3)),
                     N.MlpSpec((4, 1)), seed=0)


def test_zero_weight_classifier_head_predicts_uniform():
    bundle = small_bundle(classes=4)
    for w, b in bundle.layers_g:
        w.data = np.zeros_like(w.data)
        b.data = np.zeros_like(b.data)
    f = N.forward_F(bundle, Tensor(np.random.default_rng(0).standard_normal((5, 2))))
    _, g = N.forward_G(bundle, f)
    np.testing.assert_allclose(g.data, 0.25, rtol=0, atol=1e-15)


def test_discriminator_output_strictly_inside_unit_interval():
    bundle = small_bundle()
    rows = np.random.default_rng(3).standard_normal((1000, 24)) * 5
    z = N.forward_D(bundle, Tensor(rows)).data
    assert z.shape == (1000, 1)
    d, _ = T.clipped_sigmoid(z)  # the head that D's loss applies
    assert d.shape == (1000,)
    assert np.all(d > 0.0) and np.all(d < 1.0)


def test_classifier_rows_are_probability_rows():
    bundle = small_bundle()
    f = N.forward_F(bundle, Tensor(np.random.default_rng(8).standard_normal((40, 2))))
    _, g = N.forward_G(bundle, f)
    assert np.all(g.data >= 0.0)
    np.testing.assert_allclose(g.data.sum(axis=1), 1.0, rtol=0, atol=1e-12)


def test_batch_forward_equals_row_by_row():
    bundle = small_bundle()
    rng = np.random.default_rng(4)
    x = rng.standard_normal((7, 2))
    cond = rng.standard_normal((7, 24))

    f_batch = N.forward_F(bundle, Tensor(x)).data
    _, g_batch = N.forward_G(bundle, Tensor(f_batch))
    d_batch = N.forward_D(bundle, Tensor(cond)).data

    for i in range(7):
        f_row = N.forward_F(bundle, Tensor(x[i : i + 1])).data
        np.testing.assert_allclose(f_batch[i], f_row[0], rtol=0, atol=1e-12)
        _, g_row = N.forward_G(bundle, Tensor(f_row))
        np.testing.assert_allclose(g_batch.data[i], g_row.data[0], rtol=0, atol=1e-12)
        d_row = N.forward_D(bundle, Tensor(cond[i : i + 1])).data
        np.testing.assert_allclose(d_batch[i], d_row[0], rtol=0, atol=1e-12)


def test_widths_are_read_off_the_weights():
    bundle = small_bundle()
    assert bundle.specs() == (N.MlpSpec((2, 16, 8)), N.MlpSpec((8, 3)), N.MlpSpec((24, 16, 1)))
    assert (bundle.d_f, bundle.d_g) == (8, 3)


def test_forward_shape_errors():
    bundle = small_bundle()
    with pytest.raises(ValueError, match="shape mismatch"):
        N.forward_F(bundle, Tensor(np.zeros((3, 5))))


def test_save_load_round_trip_is_bit_exact(tmp_path):
    bundle = small_bundle(seed=9)
    # Perturb away from the nice init values to exercise the hex encoding.
    for p in bundle.all_params():
        p.data = p.data + np.pi * 1e-3
    path = tmp_path / "model.txt"
    N.save_model(bundle, path, extra_arrays={"proj.R_f": np.array([[1.5, -2.25]])},
                 meta={"proj.sampler": "uniform"})
    loaded, extras, meta = N.load_model(path)
    for p, q in zip(bundle.all_params(), loaded.all_params()):
        assert p.data.tobytes() == q.data.tobytes()
    assert loaded.specs() == bundle.specs()
    assert extras["proj.R_f"].tobytes() == np.array([[1.5, -2.25]]).tobytes()
    assert meta["proj.sampler"] == "uniform"
    assert (meta["F.head"], meta["G.head"], meta["D.head"]) == ("linear", "softmax", "sigmoid")


def test_spec_validation():
    with pytest.raises(ConfigError, match="at least one layer"):
        N.MlpSpec((4,))
    with pytest.raises(ConfigError, match=">= 1"):
        N.MlpSpec((4, 0))


def saved_lines(tmp_path) -> list[str]:
    path = tmp_path / "model.txt"
    N.save_model(small_bundle(), path, extra_arrays={"proj.R_f": np.array([[1.5, -2.25]])})
    return path.read_text().splitlines(keepends=True)


def rewrite(lines: list[str], renames: dict[str, str | None]) -> str:
    """The saved lines with each named array renamed, or dropped where its new name is None."""
    out = []
    for line in lines:
        name, rest = line.split(" ", 1)
        new = renames.get(name, name)
        if new is not None:
            out.append(f"{new} {rest}")
    return "".join(out)


@pytest.mark.parametrize("renames, message", [
    ({"F.1.W": "F.x.W", "F.1.b": "F.x.b"}, "network F lacks layer F.1 but holds F.x.W"),
    ({"F.0.W": None, "F.0.b": None}, "network F lacks layer F.0 but holds F.1.W"),
    ({"G.0.W": None, "G.0.b": "G.00.b"}, "network G lacks layer G.0 but holds G.00.b"),
    ({"D.0.W": "D.-1.W", "D.0.b": "D.-1.b"}, "network D lacks layer D.0 but holds D.-1.W"),
], ids=["renamed-pair", "gap-at-0", "padded-index", "negative-index"])
def test_a_stray_layer_name_is_named(tmp_path, renames, message):
    path = tmp_path / "stray.txt"
    path.write_text(rewrite(saved_lines(tmp_path), renames))
    with pytest.raises(ValueError) as info:
        N.load_model(path)
    assert str(info.value) == f"{path}: {message}"


def test_a_network_with_no_layers_is_named(tmp_path):
    path = tmp_path / "no_g.txt"
    path.write_text(rewrite(saved_lines(tmp_path), {"G.0.W": None, "G.0.b": None}))
    with pytest.raises(ValueError) as info:
        N.load_model(path)
    assert str(info.value) == f"{path}: no layers found for network G"


@pytest.mark.parametrize("name", ["F.0.W", "D.1.b", "proj.R_f"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_a_non_finite_array_is_named(tmp_path, name, value):
    # read_arrays round-trips non-finite values; a model must not hold one.
    path = tmp_path / "bad.txt"
    path.write_text("".join(" ".join(line.split()[:-1] + [value]) + "\n" if line.startswith(f"{name} ") else line
                            for line in saved_lines(tmp_path)))
    with pytest.raises(ValueError) as info:
        N.load_model(path)
    assert str(info.value) == f"{path}: array {name} holds a non-finite value"


def test_names_beside_the_layers_come_back_as_extras(tmp_path):
    path = tmp_path / "extras.txt"
    path.write_text(rewrite(saved_lines(tmp_path), {"proj.R_f": "F.0.W.old"}))
    _, extras, _ = N.load_model(path)
    assert list(extras) == ["F.0.W.old"]
