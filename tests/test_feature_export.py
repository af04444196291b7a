"""Feature export on forked row slices: the same bytes as the serial loop."""

import os
import time

import numpy as np
import pytest

import condada.analysis as A
import condada.networks as N
import condada.tensor as T
from condada.datagen import LabeledSet
from condada.tensor import Tensor
from helpers import assert_no_child_and_no_open_pipe, count_forks, record_pipes


def serial_reference(bundle, sets, path):
    """The serial export loop that the forked slices replaced."""
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
    """Split down to 2 rows per worker and count the forks."""
    monkeypatch.setattr(A, "MIN_ROWS_PER_WORKER", 2)
    return count_forks(monkeypatch)


@pytest.mark.parametrize("cpus", [1, 2, 3, 8])
@pytest.mark.parametrize("sizes", [(17, 11), (1,), (9, 1), (1, 1)])
def test_forked_slices_match_the_serial_loop(tmp_path, monkeypatch, forks, cpus, sizes):
    monkeypatch.setattr(A, "_usable_cpus", lambda: cpus)
    got, want = both_exports(tmp_path, make_bundle(), make_sets(sizes))
    assert got == want
    assert len(forks) == sum(max(1, min(cpus, n // 2)) - 1 for n in sizes)


@pytest.mark.parametrize("cpus", [2, 3])
def test_slices_larger_than_a_pipe_buffer(tmp_path, monkeypatch, forks, cpus):
    # About 0.4 MB per set: each child blocks on its pipe until the parent reads it.
    monkeypatch.setattr(A, "_usable_cpus", lambda: cpus)
    got, want = both_exports(tmp_path, make_bundle(d_f=16), make_sets((1201, 1000)))
    assert len(got) > 6 * 2**16
    assert got == want
    assert len(forks) == 2 * (cpus - 1)


def test_sets_below_the_rows_per_worker_floor_stay_serial(tmp_path, monkeypatch):
    monkeypatch.setattr(A, "_usable_cpus", lambda: 8)

    def no_fork():
        raise AssertionError("a set below the floor forked")

    monkeypatch.setattr(os, "fork", no_fork)
    n = 2 * A.MIN_ROWS_PER_WORKER - 1  # one worker's share; 600-row training sets are far below
    got, want = both_exports(tmp_path, make_bundle(d_f=2), make_sets((n, 600)))
    assert got == want


def test_serial_path_without_fork(tmp_path, monkeypatch):
    monkeypatch.setattr(A, "MIN_ROWS_PER_WORKER", 2)
    monkeypatch.setattr(A, "_usable_cpus", lambda: 8)
    monkeypatch.delattr(os, "fork")
    got, want = both_exports(tmp_path, make_bundle(), make_sets((17, 11)))
    assert got == want


@pytest.fixture
def pipes(monkeypatch):
    """Record every pipe fd the export opens."""
    return record_pipes(monkeypatch)


def test_a_failing_worker_raises_oserror_and_leaves_nothing_behind(tmp_path, monkeypatch, forks, pipes):
    monkeypatch.setattr(A, "_usable_cpus", lambda: 3)
    parent = os.getpid()
    real_lines = A._csv_lines

    def lines_failing_in_children(feats, labels, domain):
        if os.getpid() != parent:
            raise RuntimeError("worker failure")
        return real_lines(feats, labels, domain)

    monkeypatch.setattr(A, "_csv_lines", lines_failing_in_children)
    with pytest.raises(OSError, match="feature export worker 1 of 3 failed"):
        A.export_features(make_bundle(), make_sets((30, 30)), tmp_path / "f.csv")
    assert len(forks) == 2 and len(pipes) == 4
    assert_no_child_and_no_open_pipe(pipes)


def test_an_interrupted_parent_kills_and_reaps_its_workers(tmp_path, monkeypatch, forks, pipes):
    # The workers sleep instead of writing, so no broken pipe ends them: only
    # the kill does, in time.
    monkeypatch.setattr(A, "_usable_cpus", lambda: 3)
    parent = os.getpid()

    def lines_interrupted_in_parent(feats, labels, domain):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)
        return []

    monkeypatch.setattr(A, "_csv_lines", lines_interrupted_in_parent)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        A.export_features(make_bundle(), make_sets((30,)), tmp_path / "f.csv")
    assert time.monotonic() - start < 30
    assert len(forks) == 2
    assert_no_child_and_no_open_pipe(pipes)
