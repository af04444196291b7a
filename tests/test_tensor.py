"""Tensor tape: forward values, exact backwards, and the finite-difference audit."""

import ast
import pathlib
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import condada.conditioning as C
from condada import tensor as T
from condada.tensor import Tensor

import helpers as H
from helpers import central_differences, max_relative_error


def test_matmul_identity():
    b = Tensor(np.arange(10.0).reshape(2, 5))
    out = H.matmul(Tensor(np.eye(2)), b)
    np.testing.assert_array_equal(out.data, b.data)


def test_matmul_hand_arithmetic():
    out = H.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
    np.testing.assert_array_equal(out.data, [[3.0], [7.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 3\)"):
        H.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_matmul_backward_matches_finite_differences():
    rng = np.random.default_rng(7)
    a0 = rng.standard_normal((5, 4))
    b0 = rng.standard_normal((4, 3))
    c0 = rng.standard_normal((5, 3))  # fixed cotangent via weighted sum

    a = Tensor(a0.copy(), requires_grad=True)
    b = Tensor(b0.copy(), requires_grad=True)
    loss = H.tsum(H.mul(H.matmul(a, b), Tensor(c0)))
    T.backward(loss)

    fd_a = central_differences(lambda x: float((x @ b0 * c0).sum()), a0.copy())
    fd_b = central_differences(lambda x: float((a0 @ x * c0).sum()), b0.copy())
    assert max_relative_error(a.grad, fd_a) < 1e-6
    assert max_relative_error(b.grad, fd_b) < 1e-6


def test_relu_definition():
    np.testing.assert_array_equal(H.relu(Tensor([-1.0, 2.0])).data, [0.0, 2.0])


def test_concat_definition():
    np.testing.assert_array_equal(T.concat(Tensor([1.0, 2.0]), Tensor([3.0]), axis=0).data, [1.0, 2.0, 3.0])


def test_softmax_uniform_on_equal_logits():
    np.testing.assert_allclose(T.softmax_rows(Tensor([0.0, 0.0, 0.0])).data, [1 / 3] * 3, rtol=0, atol=1e-15)


@given(st.lists(st.lists(st.floats(-50, 50), min_size=2, max_size=6), min_size=1, max_size=5).filter(
    lambda rows: len({len(r) for r in rows}) == 1))
@settings(max_examples=200, deadline=None)
def test_softmax_rows_are_simplex_points(rows):
    out = T.softmax_rows(Tensor(np.array(rows))).data
    assert np.all(out >= 0.0)
    np.testing.assert_allclose(out.sum(axis=-1), 1.0, rtol=0, atol=1e-12)


def test_log_clamps_instead_of_raising():
    out = H.log(Tensor([0.0, -1.0, 1.0]))
    np.testing.assert_array_equal(out.data[:2], np.log(1e-12))
    assert out.data[2] == 0.0


def test_gradient_reversal_forward_is_bit_identical():
    x = Tensor(np.array([1.0, -2.5, 3e-300]), requires_grad=True)
    out = T.gradient_reversal(x, 0.7)
    assert out.data.tobytes() == x.data.tobytes()


@pytest.mark.parametrize("coeff,upstream,expected", [
    (0.0, [5.0, -3.0], [0.0, 0.0]),
    (1.0, [5.0, -3.0], [-5.0, 3.0]),
    (0.5, [2.0, -4.0], [-1.0, 2.0]),
])
def test_gradient_reversal_backward(coeff, upstream, expected):
    x = Tensor(np.zeros(2), requires_grad=True)
    out = T.gradient_reversal(x, coeff)
    loss = H.tsum(H.mul(out, Tensor(upstream)))
    T.backward(loss)
    np.testing.assert_array_equal(x.grad, expected)


def test_gradient_reversal_rejects_negative_coeff():
    with pytest.raises(ValueError):
        T.gradient_reversal(Tensor([1.0]), -0.1)


def test_backward_of_sum_is_ones():
    w = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    T.backward(H.tsum(w))
    np.testing.assert_array_equal(w.grad, np.ones((2, 3)))


def test_leaf_outside_graph_keeps_zero_gradient():
    used = Tensor([1.0, 2.0], requires_grad=True)
    unused = Tensor([3.0], requires_grad=True)
    T.backward(H.tsum(used))
    assert unused.grad is None  # None encodes an exactly-zero gradient


def test_backward_on_a_leaf_loss_gives_it_ones():
    loss = Tensor(np.array(2.5), requires_grad=True)
    T.backward(loss)
    np.testing.assert_array_equal(loss.grad, 1.0)


@pytest.mark.parametrize("op", [
    lambda t: H.reshape(t, (6,)),
    lambda t: T.concat(t, Tensor(np.ones((1, 3))), axis=0),
    lambda t: T.add(t, Tensor(np.ones((2, 3)))),
], ids=["reshape", "concat", "same_shape_add"])
def test_backward_through_a_view_taking_op_leaves_no_aliased_gradient(op):
    # These backwards pass on (a view of) the upstream gradient. Each leaf's
    # grad must own its memory, or a later += into one leaf's gradient would
    # write into another node's.
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    y = op(x)
    T.backward(H.tsum(H.scale(y, 2.0)))
    assert x.grad.base is None and not np.shares_memory(x.grad, y.grad)
    x.grad += 1.0
    np.testing.assert_array_equal(y.grad, np.full(y.shape, 2.0))


def test_backward_requires_scalar():
    v = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        T.backward(v)


def test_backward_twice_is_an_error():
    w = Tensor([1.0], requires_grad=True)
    loss = H.tsum(w)
    T.backward(loss)
    with pytest.raises(RuntimeError, match="already"):
        T.backward(loss)


def test_fanout_gradients_accumulate():
    x = Tensor([2.0], requires_grad=True)
    loss = H.tsum(T.add(H.mul(x, x), x))  # d/dx (x^2 + x) = 2x + 1
    T.backward(loss)
    np.testing.assert_allclose(x.grad, [5.0])


@pytest.mark.parametrize("relu", [False, True])
def test_second_backward_through_a_shared_node_counts_it_once(relu):
    # Leaves accumulate across passes; the shared interior node h must not
    # carry the first pass's gradient into the second. With ``relu`` the
    # network has a second, identity layer, so a ReLU sits between the two.
    w = Tensor(np.array([[1.0, -2.0], [0.5, 3.0]]), requires_grad=True)
    layers = [(w, Tensor(np.zeros(2)))] + ([(Tensor(np.eye(2)), Tensor(np.zeros(2)))] if relu else [])
    h = T.mlp(Tensor(np.array([[1.0, 2.0]])), layers)
    T.backward(H.tsum(h))
    first = w.grad.copy()
    T.backward(H.scale(H.tsum(h), 2.0))
    np.testing.assert_array_equal(w.grad, 3.0 * first)


def _loss_through(op, x0, aux):
    """Build scalar loss sum(op(x) * aux) for the finite-difference audit."""

    def fn(x):
        out = op(Tensor(x))
        return float((out.data * aux).sum())

    return fn


UNARY_OPS = [
    ("scale", lambda t: H.scale(t, -1.7), lambda r: r.standard_normal((3, 4))),
    ("relu", H.relu, lambda r: r.standard_normal((3, 4)) + np.sign(r.standard_normal((3, 4))) * 0.2),
    ("log", H.log, lambda r: r.uniform(0.2, 3.0, (3, 4))),
    ("exp", H.exp, lambda r: r.standard_normal((3, 4))),
    ("sqrt", H.sqrt, lambda r: r.uniform(0.5, 4.0, (3, 4))),
    ("sigmoid", H.sigmoid_head, lambda r: r.standard_normal((12, 1)) * 3),
    ("softmax", T.softmax_rows, lambda r: r.standard_normal((3, 4)) * 2),
    ("reshape", lambda t: H.reshape(t, (4, 3)), lambda r: r.standard_normal((3, 4))),
    ("sum_all", lambda t: H.tsum(t), lambda r: r.standard_normal((3, 4))),
    ("sum_rows", lambda t: H.tsum(t, axis=1), lambda r: r.standard_normal((3, 4))),
    ("mean", lambda t: H.tmean(t), lambda r: r.standard_normal((3, 4))),
]


@pytest.mark.parametrize("name,op,sampler", UNARY_OPS, ids=[c[0] for c in UNARY_OPS])
def test_unary_op_gradients_match_finite_differences(name, op, sampler):
    for trial in range(20):
        rng = np.random.default_rng([trial, zlib.crc32(name.encode())])
        x0 = sampler(rng)
        out_shape = op(Tensor(x0)).data.shape
        aux = rng.standard_normal(out_shape)
        x = Tensor(x0.copy(), requires_grad=True)
        T.backward(H.tsum(H.mul(op(x), Tensor(aux))))
        fd = central_differences(_loss_through(op, x0, aux), x0.copy())
        assert max_relative_error(x.grad, fd) < 1e-4, f"{name} trial {trial}"


BINARY_OPS = [
    ("add", T.add, (3, 4), (3, 4)),
    ("add_bias", T.add, (3, 4), (4,)),
    ("mul", H.mul, (3, 4), (3, 4)),
    ("div", H.div, (3, 4), (3, 4)),
    ("concat_cols", lambda a, b: T.concat(a, b, axis=1), (3, 2), (3, 4)),
    ("rowwise_outer", C.multilinear_map, (3, 4), (3, 2)),
]


@pytest.mark.parametrize("name,op,sa,sb", BINARY_OPS, ids=[c[0] for c in BINARY_OPS])
def test_binary_op_gradients_match_finite_differences(name, op, sa, sb):
    for trial in range(20):
        rng = np.random.default_rng([trial, 1 + zlib.crc32(name.encode())])
        a0 = rng.standard_normal(sa)
        b0 = rng.standard_normal(sb) + (3.0 if name == "div" else 0.0)
        aux = rng.standard_normal(op(Tensor(a0), Tensor(b0)).data.shape)

        a = Tensor(a0.copy(), requires_grad=True)
        b = Tensor(b0.copy(), requires_grad=True)
        T.backward(H.tsum(H.mul(op(a, b), Tensor(aux))))

        fd_a = central_differences(lambda x: float((op(Tensor(x), Tensor(b0)).data * aux).sum()), a0.copy())
        fd_b = central_differences(lambda x: float((op(Tensor(a0), Tensor(x)).data * aux).sum()), b0.copy())
        assert max_relative_error(a.grad, fd_a) < 1e-4, f"{name} trial {trial} (left)"
        assert max_relative_error(b.grad, fd_b) < 1e-4, f"{name} trial {trial} (right)"


def test_composite_mlp_loss_matches_finite_differences():
    rng = np.random.default_rng(11)
    x0 = rng.standard_normal((6, 3))
    w1_0 = rng.standard_normal((3, 5)) * 0.5
    w2_0 = rng.standard_normal((5, 2)) * 0.5
    labels = np.array([0, 1, 0, 1, 1, 0])
    hot = np.zeros((6, 2))
    hot[np.arange(6), labels] = 1.0

    def loss_value(w1, w2):
        h = np.maximum(x0 @ w1, 0.0)
        z = h @ w2
        p = np.exp(z - z.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        return float(-(np.log(np.maximum(p, 1e-12)) * hot).sum() / 6)

    w1 = Tensor(w1_0.copy(), requires_grad=True)
    w2 = Tensor(w2_0.copy(), requires_grad=True)
    h = H.relu(H.matmul(Tensor(x0), w1))
    p = T.softmax_rows(H.matmul(h, w2))
    loss = H.scale(H.tsum(H.mul(H.log(p), Tensor(hot))), -1.0 / 6)
    T.backward(loss)

    fd_w1 = central_differences(lambda w: loss_value(w, w2_0), w1_0.copy())
    fd_w2 = central_differences(lambda w: loss_value(w1_0, w), w2_0.copy())
    assert max_relative_error(w1.grad, fd_w1) < 1e-4
    assert max_relative_error(w2.grad, fd_w2) < 1e-4


def test_identical_seeds_give_bit_identical_gradients():
    def build():
        rng = np.random.default_rng(123)
        w = Tensor(rng.standard_normal((4, 1)), requires_grad=True)
        x = Tensor(rng.standard_normal((2, 4)))
        T.backward(H.tsum(H.sigmoid_head(H.matmul(x, w))))
        return w

    w1, w2 = build(), build()
    assert w1.data.tobytes() == w2.data.tobytes()
    assert w1.grad.tobytes() == w2.grad.tobytes()


def test_rank_three_rejected():
    with pytest.raises(ValueError, match="rank"):
        Tensor(np.zeros((2, 2, 2)))


def test_sigmoid_head_rejects_all_but_one_unit_logits():
    for shape in [(3,), (3, 2)]:
        with pytest.raises(ValueError, match="sigmoid head"):
            T.clipped_sigmoid(np.zeros(shape))


SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "condada"


def tensor_references(tree: ast.Module, own_module: bool):
    """(name, enclosing top-level def) of each use of a condada.tensor name:
    ``T.name`` where T is the module's alias for it, or a bare name imported
    from it (every top-level name, inside the tensor module itself)."""
    aliases, names = set(), {}
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.level == 1:
            for alias in stmt.names:
                if stmt.module is None and alias.name == "tensor":
                    aliases.add(alias.asname or alias.name)
                elif stmt.module == "tensor":
                    names[alias.asname or alias.name] = alias.name
    for stmt in tree.body:
        owner = stmt.name if isinstance(stmt, ast.FunctionDef) else None
        for node in ast.walk(stmt):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
                yield node.attr, owner
            elif isinstance(node, ast.Name) and (own_module or node.id in names):
                yield names.get(node.id, node.id), owner


# Each floor lives in one place, so the saturation fix edits its rows there:
# every loss takes its logs through tensor.clamped_log, and D's and the
# probe's loss take their sigmoid head's clip through tensor.clipped_sigmoid.
# analysis.entropy_exp_neg keeps its own 1e-300 floor until the saturation fix
# merges it into objectives.entropy: the merge moves the mean_w_* columns of
# metrics.csv.
FLOOR_CALL_SITES = {
    "log": [("analysis.py", "entropy_exp_neg"), ("tensor.py", "clamped_log")],
    "clip": [("tensor.py", "clipped_sigmoid")],
}


@pytest.mark.parametrize("call", FLOOR_CALL_SITES, ids=[f"np.{c}" for c in FLOOR_CALL_SITES])
def test_floor_calls_are_taken_only_at_their_sites(call):
    sites = []
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            sites += [(path.name, getattr(stmt, "name", None)) for node in ast.walk(stmt)
                      if isinstance(node, ast.Attribute) and node.attr == call
                      and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")]
    assert sites == FLOOR_CALL_SITES[call]


def test_repr_is_taken_only_in_the_csv_fallback_and_the_metrics_cell():
    # CSV floats are formatted in one place, serialize's kernel, which repr's
    # only the lanes it does not take; metrics.csv cells stay runner._fmt's.
    sites = []
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            sites += [(path.name, getattr(stmt, "name", None)) for node in ast.walk(stmt)
                      if isinstance(node, ast.Name) and node.id == "repr"]
    assert sites == [("runner.py", "_fmt"), ("serialize.py", "_csv_block")]


def test_src_has_no_global_statement():
    # Module state that a function rebinds is shared by every thread; the
    # tape keeps none, and neither does the rest of the package.
    sites = []
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            sites += [(path.name, getattr(stmt, "name", None)) for node in ast.walk(stmt)
                      if isinstance(node, ast.Global)]
    assert sites == []


def test_every_public_tensor_function_has_a_caller_in_src():
    # An op that only the tests call belongs in tests/helpers.py.
    tensor = ast.parse((SRC / "tensor.py").read_text())
    public = {stmt.name for stmt in tensor.body
              if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_")}
    called = set()
    for path in SRC.glob("*.py"):
        refs = tensor_references(ast.parse(path.read_text()), path.name == "tensor.py")
        called |= {name for name, owner in refs if name != owner}
    assert public
    assert sorted(public - called) == []


def test_grad_is_bound_only_by_the_tape_and_the_optimizer():
    # SgdMomentum binds each parameter's grad to a view of its flat buffer
    # once; any other rebinding would leave the backward adding elsewhere.
    sites = set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    sites |= {(path.name, getattr(stmt, "name", None))
                              for target in getattr(node, "targets", None) or [node.target]
                              for leaf in ast.walk(target) if isinstance(leaf, ast.Attribute) and leaf.attr == "grad"}
    assert sorted(sites) == [("optim.py", "SgdMomentum"), ("tensor.py", "Tensor"),
                             ("tensor.py", "_accumulate"), ("tensor.py", "backward")]
