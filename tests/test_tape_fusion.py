"""Fused tape ops against the op chains they replace, bit for bit, and the
tape's memory behaviour: no reference cycles, no graph kept after evaluation."""

import gc
import threading
import weakref

import numpy as np
import pytest

import condada.analysis as A
import condada.conditioning as C
import condada.networks as N
import condada.objectives as O
import condada.runner as R
from condada import tensor as T
from condada.datagen import LabeledSet
from condada.tensor import Tensor

import helpers as H


def assert_same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert np.array_equal(a, b)
    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()  # also tells -0.0 from 0.0


def run_both(fused, chain, inputs, aux_seed=0):
    """Evaluate both graphs on fresh copies of the inputs, backpropagate the
    same cotangent through each, and require equal values and gradients."""
    outs, grads = [], []
    for build in (fused, chain):
        leaves = [Tensor(x.copy(), requires_grad=True) for x in inputs]
        out = build(*leaves)
        if out.data.size == 1:
            loss = out
        else:
            aux = np.random.default_rng(aux_seed).standard_normal(out.shape)
            loss = H.tsum(H.mul(out, Tensor(aux)))
        T.backward(loss)
        outs.append(out.data)
        grads.append([leaf.grad for leaf in leaves])
    assert_same(outs[0], outs[1])
    for g_fused, g_chain in zip(*grads):
        assert g_fused is not None and g_chain is not None
        assert_same(g_fused, g_chain)


# --- mlp ---------------------------------------------------------------------


def layer_pairs(params):
    return list(zip(params[::2], params[1::2]))


def mlp_chain(x, *params):
    """The matmul/add/ReLU chain that one ``T.mlp`` node replaces."""
    layers = layer_pairs(params)
    h = x
    for i, (w, b) in enumerate(layers):
        h = T.add(H.matmul(h, w), b)
        if i < len(layers) - 1:
            h = H.relu(h)
    return h


def mlp_fused(x, *params):
    return T.mlp(x, layer_pairs(params))


def mlp_inputs(rng, widths, rows):
    inputs = [rng.standard_normal((rows, widths[0]))]
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        inputs += [rng.standard_normal((fan_in, fan_out)), rng.standard_normal(fan_out)]
    return inputs


# The four affine tests run one layer, or two when ``relu`` puts a ReLU between them.
@pytest.mark.parametrize("relu", [False, True])
@pytest.mark.parametrize("rows", [1, 7])
def test_affine_matches_matmul_add_relu(relu, rows):
    rng = np.random.default_rng(rows)
    run_both(mlp_fused, mlp_chain, mlp_inputs(rng, (5, 4, 3) if relu else (5, 4), rows))


@pytest.mark.parametrize("relu", [False, True])
def test_affine_with_exactly_zero_preactivations(relu):
    x = np.array([[1.0, -1.0], [2.0, 0.0], [0.0, 0.0]])
    w = np.array([[1.0, 2.0], [1.0, 0.0]])
    b = np.array([0.0, -2.0])
    assert np.count_nonzero(x @ w + b == 0.0) == 3
    second = [np.array([[0.5], [-1.5]]), np.array([0.25])] if relu else []
    run_both(mlp_fused, mlp_chain, [x, w, b, *second])


def test_affine_single_unit_output():
    rng = np.random.default_rng(3)
    run_both(mlp_fused, mlp_chain, mlp_inputs(rng, (4, 1), 6))


def test_affine_shape_error_names_both_shapes():
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 3\)"):
        T.mlp(Tensor(np.zeros((2, 3))), [(Tensor(np.zeros((2, 3))), Tensor(np.zeros(3)))])


@pytest.mark.parametrize("x_grad", [True, False], ids=["x_grad", "x_const"])
@pytest.mark.parametrize("rows", [1, 7])
@pytest.mark.parametrize("widths", [(3, 2), (3, 5, 2), (3, 6, 4, 1)], ids=["1layer", "2layer", "3layer"])
def test_mlp_matches_its_op_chain(widths, rows, x_grad):
    rng = np.random.default_rng([len(widths), rows])
    x, *params = mlp_inputs(rng, widths, rows)
    # Exactly-zero and -0.0 pre-activations in the first layer: a zero input
    # row gives x @ w = 0, and a zero or -0.0 bias keeps it there.
    x[0] = 0.0
    params[1][:2] = [0.0, -0.0]
    if x_grad:
        run_both(mlp_fused, mlp_chain, [x, *params])
    else:
        run_both(lambda *p: mlp_fused(Tensor(x), *p), lambda *p: mlp_chain(Tensor(x), *p), params)


SPECIAL_PREACTIVATIONS = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                   -2.2250738585072014e-308, np.inf, 1.5, -1.5, 1e308, -1e308])


def test_in_place_relu_equals_np_where_bit_for_bit():
    # mlp's ReLU: a multiply by the mask, then +0.0 turns the -0.0 of a
    # negative (or -0.0) pre-activation into the +0.0 that np.where writes.
    z = SPECIAL_PREACTIVATIONS.copy()
    expected = np.where(z > 0.0, z, 0.0)
    z *= z > 0.0
    z += 0.0
    assert_same(z, expected)


def test_mlp_relu_matches_the_chain_on_special_preactivations():
    # One row per value, through a 1-1-1 network of unit weights and zero biases.
    x = SPECIAL_PREACTIVATIONS.reshape(-1, 1)
    params = [Tensor(np.ones((1, 1))), Tensor(np.zeros(1))] * 2
    assert_same(T.mlp(Tensor(x), layer_pairs(params)).data, mlp_chain(Tensor(x), *params).data)


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_mlp_passes_a_non_finite_preactivation_on(bad):
    # np.where(z > 0, z, 0) would turn these into 0 and hide them from the loss.
    layers = [(Tensor(np.zeros((1, 1))), Tensor([bad])), (Tensor(np.ones((1, 1))), Tensor([0.0]))]
    with np.errstate(invalid="ignore"):
        out = T.mlp(Tensor(np.ones((2, 1))), layers)
    assert np.isnan(out.data).all()


# --- sigmoid head ------------------------------------------------------------


@pytest.mark.parametrize("z", [
    np.array([[-2.0], [0.0], [0.5], [3.0]]),
    np.array([[-1e3], [-40.0], [40.0], [1e3]]),  # saturated at the clamp
    np.array([[0.25]]),  # one-row batch
])
def test_sigmoid_head_matches_sigmoid_then_reshape(z):
    n = z.shape[0]
    run_both(H.sigmoid_head, lambda t: H.reshape(H.sigmoid(t), (n,)), [z])


def test_saturated_sigmoid_head_sits_on_the_clamp():
    p, _ = T.clipped_sigmoid(np.array([[-1e3], [1e3]]))
    np.testing.assert_array_equal(p, [T.LOG_CLAMP, 1.0 - T.LOG_CLAMP])


# --- conditioning maps -------------------------------------------------------


def randomized_chain(f, g, proj, normalize=False):
    """The op chain that one ``C.randomized_multilinear_map`` node replaces."""
    if normalize:
        f = H.l2_normalize_rows(f)
    a = H.matmul(f, Tensor(proj.r_f.data.T))
    b = H.matmul(g, Tensor(proj.r_g.data.T))
    return H.scale(H.mul(a, b), 1.0 / np.sqrt(proj.d))


@pytest.mark.parametrize("normalize", [False, True], ids=["raw", "normalized"])
@pytest.mark.parametrize("sampler", C.SAMPLERS)
@pytest.mark.parametrize("case", ["rows", "one_row", "zero_row", "one_feature"])
def test_randomized_map_matches_its_op_chain(case, sampler, normalize):
    rng = np.random.default_rng([len(case), len(sampler)])
    n = 1 if case == "one_row" else 7
    d_f = 1 if case == "one_feature" else 5
    f = rng.standard_normal((n, d_f))
    g = rng.dirichlet(np.ones(3), size=n)
    if case in ("zero_row", "one_feature"):
        f[2] = 0.0  # the norm is sqrt(eps): the eps path
    proj = C.sample_projection(8, d_f, 3, sampler, seed=3)
    run_both(lambda f, g: C.randomized_multilinear_map(f, g, proj, normalize),
             lambda f, g: randomized_chain(f, g, proj, normalize), [f, g])


def randomized_step(sampler, normalize, d=8):
    rng = np.random.default_rng(5)
    bundle = N.init_model(N.MlpSpec((2, 6, 5)), N.MlpSpec((5, 3)), N.MlpSpec((d, 6, 1)), seed=1)
    strategy = C.ConditioningStrategy(C.RANDOMIZED_MULTILINEAR, d=d, sampler=sampler, normalize_features=normalize)
    out = O.cdan_step_losses(rng.standard_normal((8, 2)), rng.integers(0, 3, 8), rng.standard_normal((8, 2)) + 1.0,
                             bundle, strategy, C.sample_projection(d, 5, 3, sampler, seed=2),
                             lambda_eff=0.5, entropy_weighting=True)
    return bundle, out.objective


@pytest.mark.parametrize("normalize", [False, True], ids=["raw", "normalized"])
@pytest.mark.parametrize("sampler", C.SAMPLERS)
def test_randomized_step_matches_the_chain_step(monkeypatch, sampler, normalize):
    # Here f also feeds G, so the order in which f's gradient terms are
    # summed matters: the node's terms must come first, in the chain's order.
    grads = []
    for chain in (False, True):
        if chain:
            monkeypatch.setattr(C, "randomized_multilinear_map", randomized_chain)
        bundle, objective = randomized_step(sampler, normalize)
        T.backward(objective)
        grads.append([p.grad for p in bundle.all_params()])
    for g_fused, g_chain in zip(*grads):
        assert_same(g_fused, g_chain)


def recorded_nodes(root):
    count, seen, stack = 0, set(), [root]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            count += t._backward is not None
            stack.extend(t._parents)
    return count


@pytest.mark.parametrize("normalize", [False, True], ids=["raw", "normalized"])
def test_randomized_cdan_e_step_records_17_nodes(normalize):
    # 8 in the source half, 7 in the target half, the source half's add of its
    # two losses and the add that joins the halves.
    assert recorded_nodes(randomized_step("gaussian", normalize)[1]) == 17


def test_multilinear_map_shape_error_names_both_shapes():
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(3, 2\)"):
        C.multilinear_map(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))


# --- loss heads --------------------------------------------------------------


def cross_entropy_chain(g_probs, labels):
    hot = Tensor(O.one_hot(labels, g_probs.shape[1]))
    picked = H.tsum(H.mul(H.log(g_probs), hot), axis=1)
    return H.scale(H.tsum(picked), -1.0 / g_probs.shape[0])


@pytest.mark.parametrize("probs,labels", [
    (np.array([[0.7, 0.2, 0.1], [0.1, 0.3, 0.6], [0.25, 0.5, 0.25]]), np.array([0, 2, 1])),
    (np.array([[1e-13, 1.0 - 1e-13, 0.0], [0.0, 0.0, 1.0]]), np.array([0, 1])),  # at the clamp
    (np.array([[0.4, 0.6]]), np.array([1])),  # one-row batch
])
def test_cross_entropy_matches_its_op_chain(probs, labels):
    run_both(lambda p: O.cross_entropy(p, labels), lambda p: cross_entropy_chain(p, labels), [probs])


def weighted_mean_chain(values, weights):
    if weights is None:
        return H.tmean(values)
    return H.div(H.tsum(H.mul(values, weights)), H.tsum(weights))


def adversarial_chain(z, source, w):
    """The op chain that one ``O.adversarial_losses`` node replaces, sigmoid
    head included."""
    d = H.reshape(H.sigmoid(z), (z.shape[0],))
    if not source:
        d = T.add(H.scale(d, -1.0), Tensor(np.ones(d.shape)))
    return weighted_mean_chain(H.scale(H.log(d), -1.0), w)


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("case", ["interior", "saturated", "one_row"])
def test_adversarial_losses_match_their_op_chain(weighted, case):
    rng = np.random.default_rng(len(case) + weighted)
    n = 1 if case == "one_row" else 9
    for source in (True, False):
        z = rng.uniform(-3.0, 3.0, (n, 1))
        if case == "saturated":  # beyond the clip: the head sits on LOG_CLAMP or 1 - LOG_CLAMP
            z[:3, 0] = [-40.0, -1e3, 40.0]
        w = Tensor(rng.uniform(1.0, 2.0, n)) if weighted else None
        run_both(lambda z: O.adversarial_losses(z, source, w), lambda z: adversarial_chain(z, source, w), [z])


def test_entropy_weights_match_their_op_chain():
    rng = np.random.default_rng(8)
    g = rng.dirichlet(np.full(4, 0.3), size=12)
    g[0] = [1.0, 0.0, 0.0, 0.0]
    g[1, :2] = [1e-14, 1.0 - 1e-14 - g[1, 2:].sum()]
    h_chain = H.scale(H.tsum(H.mul(Tensor(g), H.log(Tensor(g))), axis=1), -1.0)
    w_chain = T.add(H.exp(H.scale(h_chain, -1.0)), Tensor(np.ones(h_chain.shape)))
    h = O.entropy(Tensor(g))
    assert_same(h.data, h_chain.data)
    assert_same(O.entropy_weight(h).data, w_chain.data)


def probe_loss_chain(z, y):
    """The op chain that one ``A._probe_loss`` node replaces, sigmoid head included."""
    n = z.shape[0]
    p = H.reshape(H.sigmoid(z), (n,))
    one_minus_p = T.add(H.scale(p, -1.0), Tensor(np.ones(n)))
    ll = T.add(H.mul(Tensor(y), H.log(p)), H.mul(Tensor(1.0 - y), H.log(one_minus_p)))
    return H.scale(H.tsum(ll), -1.0 / n)


@pytest.mark.parametrize("case", ["interior", "clamped", "one_row"])
def test_probe_loss_matches_its_op_chain(case):
    rng = np.random.default_rng(len(case))
    n = 1 if case == "one_row" else 10
    z = rng.uniform(-3.0, 3.0, (n, 1))
    y = (np.arange(n) % 2).astype(np.float64)
    if case == "clamped":  # p = LOG_CLAMP, LOG_CLAMP, 1 - LOG_CLAMP, 1 - LOG_CLAMP against y = 0, 1, 0, 1
        z[:4, 0] = [-40.0, -1e3, 40.0, 1e3]
    run_both(lambda z: A._probe_loss(z, y, 1.0 - y), lambda z: probe_loss_chain(z, y), [z])


# --- tape memory behaviour -----------------------------------------------------


def toy_bundle(seed=0, d_f=5, classes=3):
    return N.init_model(
        N.MlpSpec((2, 6, d_f)),
        N.MlpSpec((d_f, classes)),
        N.MlpSpec((d_f * classes, 6, 1)),
        seed=seed,
    )


def toy_step(bundle, seed=0, n=8):
    rng = np.random.default_rng(seed)
    return O.cdan_step_losses(rng.standard_normal((n, 2)), rng.integers(0, 3, n),
                              rng.standard_normal((n, 2)) + 1.0, bundle,
                              C.ConditioningStrategy(C.MULTILINEAR), lambda_eff=0.5,
                              entropy_weighting=True)


def interior_node_refs(root, params):
    """Weak references to every recorded node below root that is not a parameter."""
    param_ids = {id(p) for p in params}
    refs, seen, stack = [], set(), [root]
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        if id(t) not in param_ids:
            refs.append(weakref.ref(t))
        stack.extend(t._parents)
    return refs


@pytest.fixture
def no_cycle_collector():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("differentiate", [True, False])
def test_step_graph_is_freed_by_reference_counting(no_cycle_collector, differentiate):
    bundle = toy_bundle()
    out = toy_step(bundle)
    if differentiate:
        T.backward(out.objective)
    refs = interior_node_refs(out.objective, bundle.all_params())
    assert len(refs) > 10
    del out
    assert [r for r in refs if r() is not None] == []


def test_a_shared_node_takes_part_in_every_backward():
    # Closures stay attached after backward, so a node shared by two losses
    # passes gradient through both passes.
    w = Tensor(np.array([[1.0, -2.0], [0.5, 3.0]]), requires_grad=True)
    layers = [(w, Tensor(np.zeros(2))), (Tensor(np.eye(2)), Tensor(np.zeros(2)))]
    h = T.mlp(Tensor(np.array([[1.0, 2.0]])), layers)
    T.backward(H.tsum(h))
    first = w.grad.copy()
    w.grad = None
    T.backward(H.scale(H.tsum(h), 2.0))
    np.testing.assert_array_equal(w.grad, 2.0 * first)


def recorded_outputs(monkeypatch, owner, name, keep=lambda t: t):
    """Patch owner.name to append keep(t) for each tensor it returns."""
    outputs = []
    original = getattr(owner, name)

    def recording(*args, **kwargs):
        result = original(*args, **kwargs)
        outputs.extend(map(keep, result if isinstance(result, tuple) else (result,)))
        return result

    monkeypatch.setattr(owner, name, recording)
    return outputs


def test_training_forwards_record_a_backward(monkeypatch):
    forwards = recorded_outputs(monkeypatch, N, "forward_F")
    toy_step(toy_bundle())
    assert len(forwards) == 2
    assert all(t._backward is not None and t.requires_grad for t in forwards)


def test_evaluation_forwards_leave_no_graph_and_no_gradient(monkeypatch, tmp_path, no_cycle_collector):
    # Evaluation forwards record their closures; reference counting frees
    # them with their outputs, and nothing is ever differentiated.
    bundle = toy_bundle()
    rng = np.random.default_rng(4)
    labeled = LabeledSet(rng.standard_normal((12, 2)), rng.integers(0, 3, 12), "target")
    features = recorded_outputs(monkeypatch, N, "forward_F", keep=weakref.ref)
    predictions = recorded_outputs(monkeypatch, N, "forward_G", keep=weakref.ref)  # (logits, probs) per call

    R._evaluate(bundle, labeled)
    A.export_features(bundle, [labeled], tmp_path / "features.csv")
    assert len(features) == 2 and len(predictions) == 2
    assert [r for r in features + predictions if r() is not None] == []
    assert all(p.grad is None for p in bundle.all_params())


def test_a_distance_probe_loss_records_2_nodes_per_epoch(monkeypatch):
    losses = recorded_outputs(monkeypatch, A, "_probe_loss")
    rng = np.random.default_rng(2)
    A.proxy_a_distance(rng.standard_normal((40, 3)), rng.standard_normal((40, 3)) + 1.0, seed=0)
    assert [recorded_nodes(loss) for loss in losses] == [2] * A._ADIST_EPOCHS  # the mlp and the loss


def test_a_tape_built_beside_an_export_records_its_backward(monkeypatch, tmp_path):
    # A thread held inside the export's forward must not stop the main
    # thread's graph from recording.
    bundle = toy_bundle(d_f=1)
    entered, release = threading.Event(), threading.Event()
    original = N.forward_F

    def held_forward(*args):
        entered.set()
        assert release.wait(60)
        return original(*args)

    monkeypatch.setattr(N, "forward_F", held_forward)
    rng = np.random.default_rng(5)
    labeled = LabeledSet(rng.standard_normal((6, 2)), rng.integers(0, 3, 6), "source")
    exporter = threading.Thread(target=A.export_features,
                                args=(bundle, [labeled], tmp_path / "features.csv"))
    exporter.start()
    try:
        assert entered.wait(60)
        y = np.array([1.0, 0.0, 1.0, 0.0])
        z = T.mlp(Tensor(rng.standard_normal((4, 2))), bundle.layers_f)
        T.backward(A._probe_loss(z, y, 1.0 - y))
        assert all(p.grad is not None for p in bundle.params_f())
    finally:
        release.set()
        exporter.join()
