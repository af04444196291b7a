"""CSV rows by the shortest-digit kernel: the same bytes as the join-of-repr loop."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condada import serialize as S


def repr_rows(x, labels, tail=""):
    """The loop the kernel replaces: every float by repr."""
    return "".join(",".join(map(repr, row.tolist())) + f",{label}{tail}\n"
                   for row, label in zip(x, labels)).encode("ascii")


def kernel_rows(x, labels, tail=""):
    fh = io.BytesIO()
    S.write_csv_rows(fh, x, labels, tail)
    return fh.getvalue()


def assert_same_rows(x, labels, tail=""):
    got, want = kernel_rows(x, labels, tail), repr_rows(x, labels, tail)
    if got != want:  # name the first row that differs, not a megabyte of bytes
        got_rows, want_rows = got.split(b"\n"), want.split(b"\n")
        row = next(i for i, (g, w) in enumerate(zip(got_rows, want_rows)) if g != w)
        pytest.fail(f"row {row}: {got_rows[row]!r} != {want_rows[row]!r}")


def boundary_values() -> np.ndarray:
    """Where the kernel's lanes end, and its rounding and digit counts change,
    each value with its negative."""
    tiny, big = np.nextafter(0.0, 1.0), np.finfo(np.float64).max
    edges = [0.0, tiny, 2.2250738585072014e-308, np.nextafter(2.2250738585072014e-308, 0.0), big,
             np.inf, np.nan, 1e-4, 1e15, 1e16, 2.0**-14, 2.0**49, 2.0**50, 2.0**53]
    edges += [2.0**e for e in range(-1074, 1024)] + [10.0**e for e in range(-323, 309)]
    down = up = np.array(edges)
    around = [down]
    with np.errstate(over="ignore"):
        for _ in range(8):  # 8 ulps to each side
            down, up = np.nextafter(down, 0.0), np.nextafter(up, np.inf)
            around += [down, up]
    # Each exponent around the kernel's range, with 0 to 52 trailing zero bits.
    biased = np.arange(1000, 1081, dtype=np.uint64)[:, None]
    low = np.uint64(1) << np.arange(53, dtype=np.uint64)[None, :]
    mantissas = (biased << np.uint64(52) | low).reshape(-1).view(np.float64)
    values = np.concatenate([*around, mantissas, np.arange(-1000.0, 1000.0)])
    return np.concatenate([values, -values])


def test_boundary_values():
    values = boundary_values()
    values = np.concatenate([values, np.zeros(-values.size % 8)])
    assert_same_rows(values.reshape(-1, 8), np.arange(values.size // 8) % 10, ",source")
    assert_same_rows(values.reshape(-1, 1), np.arange(values.size) % 10)


def test_random_bit_patterns():
    rng = np.random.default_rng(0)
    x = rng.integers(0, 2**64, (2**20 // 64, 64), dtype=np.uint64, endpoint=False).view(np.float64)
    assert_same_rows(x, rng.integers(0, 10, x.shape[0]), ",target")


def test_feature_like_values_over_many_decades():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((3000, 64)) * 10.0 ** rng.integers(-6, 17, (3000, 1))
    x[::7] = np.round(x[::7], 3)  # short decimals: Ryu's trailing-zeros case, repr'd
    assert_same_rows(x, rng.integers(0, 10, 3000), ",source")


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), min_size=1, max_size=64),
       st.integers(0, 9))
def test_any_float(values, label):
    x = np.array(values, dtype=np.float64)
    assert_same_rows(x[None, :], [label])
    assert_same_rows(x[:, None], [label] * x.size, ",target")


@pytest.mark.parametrize("tail", ["", ",source"])
@pytest.mark.parametrize("d", [1, 64])
@pytest.mark.parametrize("offset", [None, -1, 0, 1])  # 0 rows, or a block's rows plus offset
def test_block_edges(d, offset, tail):
    rows = 0 if offset is None else S.CSV_BLOCK_FLOATS // d + offset
    rng = np.random.default_rng(d)
    pool = np.concatenate([boundary_values(), rng.standard_normal(4096)])
    x = rng.choice(pool, (rows, d))
    assert_same_rows(x, rng.integers(0, 10, rows), tail)
    assert_same_rows(x[:1], [7], tail)


@pytest.mark.parametrize("line, message", [
    ("F.0.b 1 two 0x1p+0\n", "malformed tensor line 2"),
    ("F.0.b\n", "malformed tensor line 2"),
    ("F.0.b 1 3 0x1p+0 0x1p+1\n", "line 2 declares shape (3,) but has 2 values"),
    ("F.0.W 2 2 2 0x1p+0\n", "line 2 declares shape (2, 2) but has 1 values"),
], ids=["bad-rank", "no-rank", "short-vector", "short-matrix"])
def test_a_bad_array_line_is_named(tmp_path, line, message):
    path = tmp_path / "arrays.txt"
    path.write_text("# F.head linear\n" + line)
    with pytest.raises(ValueError) as info:
        S.read_arrays(path)
    assert str(info.value) == f"{path}: {message}"
