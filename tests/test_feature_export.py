"""Feature export: the same bytes as the serial repr loop, with no fork."""

import numpy as np
import pytest

import condada.analysis as A
import condada.networks as N
import condada.serialize as S
import condada.tensor as T
from condada.datagen import LabeledSet
from condada.tensor import Tensor
from helpers import count_forks


def serial_reference(bundle, sets, path):
    """The export as a loop of reprs, one row at a time: the bytes that
    ``serialize.write_csv_rows`` must reproduce."""
    d_f = bundle.d_f
    with open(path, "w") as fh:
        fh.write(",".join(f"f{i}" for i in range(d_f)) + ",label,domain\n")
        for labeled in sets:
            with T.no_tape():
                feats = N.forward_F(bundle, Tensor(labeled.x)).data
            for row, label in zip(feats, labeled.y):
                fh.write(",".join(repr(v) for v in row.tolist()) + f",{label},{labeled.domain}\n")


def make_bundle(d_f=5):
    return N.init_model(N.MlpSpec((2, 8, d_f)),
                        N.MlpSpec((d_f, 3)),
                        N.MlpSpec((3 * d_f, 4, 1)), seed=0)


def make_sets(sizes, seed=0):
    rng = np.random.default_rng(seed)
    domains = ("source", "target")
    return [LabeledSet(rng.standard_normal((n, 2)), rng.integers(0, 3, n), domains[i % 2])
            for i, n in enumerate(sizes)]


def both_exports(tmp_path, bundle, sets):
    A.export_features(bundle, sets, tmp_path / "got.csv")
    serial_reference(bundle, sets, tmp_path / "want.csv")
    return (tmp_path / "got.csv").read_bytes(), (tmp_path / "want.csv").read_bytes()


@pytest.fixture
def forks(monkeypatch):
    return count_forks(monkeypatch)


BLOCK_ROWS = S.CSV_BLOCK_FLOATS // 5  # rows per formatted block at make_bundle's d_f


@pytest.mark.parametrize("cpus", [1, 2, 3, 8])
@pytest.mark.parametrize("sizes", [(17, 11), (1,), (9, 1), (1, 1), (BLOCK_ROWS - 1, BLOCK_ROWS), (BLOCK_ROWS + 1,)])
def test_forked_slices_match_the_serial_loop(tmp_path, monkeypatch, forks, cpus, sizes):
    # At any usable CPU count the parent formats every row itself.
    monkeypatch.setattr(A, "_usable_cpus", lambda: cpus)
    got, want = both_exports(tmp_path, make_bundle(), make_sets(sizes))
    assert got == want
    assert forks == []


def test_a_5000_row_set_is_exported_in_process_as_the_repr_loop(tmp_path, forks):
    got, want = both_exports(tmp_path, make_bundle(d_f=16), make_sets((5000,)))
    assert got == want
    assert forks == []
