"""The proxy A-distance probe in a forked child, alongside the output writes:
the same value as inline, and no child or pipe left behind on any failure."""

import os
import time

import pytest

import condada.analysis as A
import condada.serialize as S
from condada.cli import main
from condada.config import ExperimentConfig
from condada.runner import run_experiment
from helpers import assert_no_child_and_no_open_pipe, count_forks, record_pipes

OUTPUTS = ("metrics.csv", "model.txt", "features.csv")
RUN_FLAGS = ["--dataset.n_source", "120", "--dataset.n_target", "120", "--train.total_steps", "20", "--seed", "2"]


def small_cfg():
    return ExperimentConfig(n_source=120, n_target=120, total_steps=40).validate()


@pytest.fixture
def forks(monkeypatch):
    return count_forks(monkeypatch)


@pytest.fixture
def pipes(monkeypatch):
    return record_pipes(monkeypatch)


def run_outputs(path, seed=3):
    record = run_experiment(small_cfg(), seed, path)
    return record.a_distance, [(path / name).read_bytes() for name in OUTPUTS]


def test_forked_probe_equals_the_inline_probe(tmp_path, monkeypatch, forks):
    forked = run_outputs(tmp_path / "forked")
    assert len(forks) == 1  # the probe; the export forks nothing

    monkeypatch.delattr(os, "fork")
    assert run_outputs(tmp_path / "no_fork") == forked
    assert len(forks) == 1


def test_a_failing_probe_raises_oserror_exits_2_and_leaves_nothing_behind(tmp_path, monkeypatch, capsys,
                                                                          forks, pipes):
    def failing_probe(f_src, f_tgt, seed):
        raise RuntimeError("probe failure")

    monkeypatch.setattr(A, "proxy_a_distance", failing_probe)
    with pytest.raises(OSError, match="A-distance probe failed with exit status 1"):
        run_experiment(small_cfg(), 3, tmp_path / "api")
    assert main(["run", *RUN_FLAGS, "--out", str(tmp_path / "cli")]) == 2
    assert capsys.readouterr().err.startswith("error: A-distance probe failed with exit status 1")
    assert len(forks) == 2 and pipes == []
    assert_no_child_and_no_open_pipe(pipes)


def test_an_interrupted_parent_kills_and_reaps_the_probe(tmp_path, monkeypatch, forks, pipes):
    monkeypatch.setattr(A, "_usable_cpus", lambda: 2)

    def probe_that_outlives_the_test(f_src, f_tgt, seed):
        time.sleep(60)  # only the kill ends it in time
        return 0.0

    def block_interrupted_in_parent(x, labels, tail):
        raise KeyboardInterrupt  # the export formats its rows in the parent

    monkeypatch.setattr(A, "proxy_a_distance", probe_that_outlives_the_test)
    monkeypatch.setattr(S, "_csv_block", block_interrupted_in_parent)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_experiment(small_cfg(), 3, tmp_path)
    assert time.monotonic() - start < 30
    assert (tmp_path / "model.txt").exists()  # interrupted during the export, after the other writes
    assert len(forks) == 1
    assert_no_child_and_no_open_pipe(pipes)
