"""Feature export: the same bytes as the serial repr loop, in one process
or, for ``export-features``, with the last set formatted in a forked child;
a failing or interrupted export leaves no child and no open descriptor."""

import os
import signal
import time

import numpy as np
import pytest

import condada.analysis as A
import condada.networks as N
import condada.serialize as S
from condada.cli import main
from condada.datagen import LabeledSet
from condada.tensor import Tensor
from helpers import assert_no_child_and_no_new_fd, count_forks, open_fds


def serial_reference(bundle, sets, path):
    """The export as a loop of reprs, one row at a time: the bytes that
    ``serialize.write_csv_rows`` must reproduce."""
    d_f = bundle.d_f
    with open(path, "w") as fh:
        fh.write(",".join(f"f{i}" for i in range(d_f)) + ",label,domain\n")
        for labeled in sets:
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


@pytest.mark.parametrize("sizes", [(17, 11), (1,), (9, 1), (1, 1), (BLOCK_ROWS - 1, BLOCK_ROWS), (BLOCK_ROWS + 1,)])
def test_the_in_process_export_is_the_repr_loop_and_forks_nothing(tmp_path, forks, sizes):
    got, want = both_exports(tmp_path, make_bundle(), make_sets(sizes))
    assert got == want
    assert forks == []


def test_a_5000_row_set_is_exported_in_process_as_the_repr_loop(tmp_path, forks):
    got, want = both_exports(tmp_path, make_bundle(d_f=16), make_sets((5000,)))
    assert got == want
    assert forks == []


def both_two_process_exports(tmp_path, bundle, sets):
    A.export_features(bundle, sets, tmp_path / "got.csv", fork_last=True)
    serial_reference(bundle, sets, tmp_path / "want.csv")
    return (tmp_path / "got.csv").read_bytes(), (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("sizes", [(BLOCK_ROWS + 1, BLOCK_ROWS + 1), (17, 11), (1, 300), (BLOCK_ROWS + 1,)])
@pytest.mark.parametrize("how", ["forked", "one_cpu", "no_fork"])
def test_the_two_process_export_is_the_repr_loop(tmp_path, monkeypatch, forks, sizes, how):
    monkeypatch.setattr(A, "_usable_cpus", lambda: 1 if how == "one_cpu" else 2)
    if how == "no_fork":
        monkeypatch.delattr(os, "fork")
    fds = open_fds()
    got, want = both_two_process_exports(tmp_path, make_bundle(), make_sets(sizes))
    assert got == want
    assert len(forks) == (how == "forked" and len(sizes) > 1)  # the child formats the last of two or more sets
    assert_no_child_and_no_new_fd(fds)


RUN_FLAGS = ["--dataset.n_source", "120", "--dataset.n_target", "120", "--train.total_steps", "20", "--seed", "2"]


def test_a_failing_export_child_exits_2_with_one_line_and_leaves_nothing_behind(tmp_path, monkeypatch, capsys, forks):
    monkeypatch.setattr(A, "_usable_cpus", lambda: 2)
    assert main(["run", *RUN_FLAGS, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    fds = open_fds()
    parent, csv_block = os.getpid(), S._csv_block

    def block_failing_in_child(x, labels, tail):
        if os.getpid() != parent:
            raise RuntimeError("export child failure")
        return csv_block(x, labels, tail)

    monkeypatch.setattr(S, "_csv_block", block_failing_in_child)
    assert main(["export-features", *RUN_FLAGS, "--out", str(tmp_path), "--output", str(tmp_path / "re.csv")]) == 2
    assert capsys.readouterr().err == "error: feature export failed with exit status 1\n"
    assert len(forks) == 3  # the run's training worker and probe, then the export's child
    assert_no_child_and_no_new_fd(fds)


def test_an_interrupted_parent_kills_and_reaps_the_export_child(tmp_path, monkeypatch, forks):
    monkeypatch.setattr(A, "_usable_cpus", lambda: 2)
    fds = open_fds()
    parent = os.getpid()

    def block_interrupting_parent(x, labels, tail):
        if os.getpid() == parent:
            os.kill(parent, signal.SIGINT)
        time.sleep(60)  # in the parent the interrupt ends it, in the child only the kill

    monkeypatch.setattr(S, "_csv_block", block_interrupting_parent)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        A.export_features(make_bundle(), make_sets((17, 11)), tmp_path / "got.csv", fork_last=True)
    assert time.monotonic() - start < 30
    assert len(forks) == 1
    assert_no_child_and_no_new_fd(fds)
