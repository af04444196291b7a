"""The trainer's forked worker: each step's target half runs in a child
process on a replica of the model, and every output byte, the A-distance,
each failure's exit code and message, and the process's children and open
descriptors equal those of the inline trainer."""

import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import condada.analysis as A
import condada.objectives as O
import condada.optim as opt
from condada.cli import main
from condada.errors import NumericAbort
from condada.runner import run_experiment
from helpers import assert_no_child_and_no_new_fd, config_from_pairs, count_forks, open_fds

OUTPUTS = ("metrics.csv", "model.txt", "features.csv")
SMALL = {"dataset.n_source": "240", "dataset.n_target": "240", "train.total_steps": "40"}
RANDOMIZED = {"entropy": "true", "conditioning.threshold": "1"}
# name -> (seed, config pairs over SMALL)
CASES = {
    "cdan_e_seed_0": (0, {"entropy": "true"}),
    "cdan_e_seed_3": (3, {"entropy": "true"}),
    "cdan": (0, {}),
    "source_only": (0, {"strategy": "feature_only", "schedule.lambda": "0"}),
    "dann": (0, {"strategy": "feature_only"}),
    "dann_g": (0, {"strategy": "prediction_only"}),
    "dann_fg": (0, {"strategy": "concat"}),
    "randomized_gaussian": (1, RANDOMIZED),
    "randomized_uniform_normalized": (1, {**RANDOMIZED, "conditioning.sampler": "uniform",
                                          "conditioning.normalize_features": "true"}),
    "moons": (0, {"dataset.generator": "twin_moons_shift", "dataset.classes": "2", "entropy": "true"}),
    "batch_50_fewer_target_rows": (0, {"train.batch_size": "50", "dataset.n_target": "180", "entropy": "true"}),
}
DIVERGING = {"schedule.eta0": "1000000000", "train.total_steps": "50", "dataset.n_source": "120",
             "dataset.n_target": "120"}


@pytest.fixture
def forks(monkeypatch):
    return count_forks(monkeypatch)


@pytest.fixture
def fds():
    return open_fds()


def use_cpus(monkeypatch, n):
    """The trainer forks its worker when it may use two CPUs or more."""
    monkeypatch.setattr(A, "_usable_cpus", lambda: n)


def flags(pairs: dict) -> list[str]:
    return [text for key, value in pairs.items() for text in (f"--{key}", value)]


def run_outputs(path, seed, pairs):
    record = run_experiment(config_from_pairs({**SMALL, **pairs}), seed, path)
    return repr(record.a_distance), [(path / name).read_bytes() for name in OUTPUTS]


@pytest.mark.parametrize("case", CASES)
def test_the_worker_keeps_every_byte(tmp_path, monkeypatch, forks, fds, case):
    seed, pairs = CASES[case]
    use_cpus(monkeypatch, 2)
    forked = run_outputs(tmp_path / "forked", seed, pairs)
    assert len(forks) == 2  # the training worker, then the probe
    assert_no_child_and_no_new_fd(fds)

    use_cpus(monkeypatch, 1)
    assert run_outputs(tmp_path / "inline", seed, pairs) == forked
    assert len(forks) == 3  # only the probe forked


def test_the_gradient_handover_keeps_every_byte_on_an_oversubscribed_host(tmp_path, monkeypatch):
    # One row per step, and a busy process per core beside the trainer and its
    # worker: either side may be descheduled anywhere in a handover.
    pairs = {"train.batch_size": "1", "train.total_steps": "400"}
    use_cpus(monkeypatch, 2)
    spinners = [subprocess.Popen([sys.executable, "-c", "while True: pass"]) for _ in range(2)]
    try:
        start = time.monotonic()
        forked = run_outputs(tmp_path / "forked", 0, pairs)
        assert time.monotonic() - start < 60
    finally:
        for spinner in spinners:
            spinner.kill()
            spinner.wait(timeout=10)
    use_cpus(monkeypatch, 1)
    assert run_outputs(tmp_path / "inline", 0, pairs) == forked


def test_without_fork_the_trainer_runs_both_halves_inline(tmp_path, monkeypatch):
    seed, pairs = CASES["cdan_e_seed_0"]
    use_cpus(monkeypatch, 2)
    forked = run_outputs(tmp_path / "forked", seed, pairs)
    monkeypatch.delattr(os, "fork")
    assert run_outputs(tmp_path / "no_fork", seed, pairs) == forked


def test_a_failing_worker_raises_oserror_exits_2_and_leaves_nothing_behind(tmp_path, monkeypatch, capsys,
                                                                           forks, fds):
    domain_half = O.domain_half

    def failing_target_half(x, y, *args):
        if y is None:  # only the worker builds a target half alone
            raise RuntimeError("worker failure")
        return domain_half(x, y, *args)

    monkeypatch.setattr(O, "domain_half", failing_target_half)
    use_cpus(monkeypatch, 2)
    with pytest.raises(OSError, match="training worker failed with exit status 1"):
        run_experiment(config_from_pairs(SMALL), 3, tmp_path / "api")
    assert main(["run", *flags(SMALL), "--seed", "3", "--out", str(tmp_path / "cli")]) == 2
    assert capsys.readouterr().err.startswith("error: training worker failed with exit status 1")
    assert len(forks) == 2  # one worker per run; neither run reached the probe
    assert_no_child_and_no_new_fd(fds)


def test_an_interrupted_parent_kills_and_reaps_the_worker(tmp_path, monkeypatch, forks, fds):
    domain_half = O.domain_half

    def interrupting_target_half(x, y, *args):
        if y is None:  # in the worker: interrupt the training parent, then outlive the test
            os.kill(os.getppid(), signal.SIGINT)
            time.sleep(60)  # only the kill ends it in time
        return domain_half(x, y, *args)

    monkeypatch.setattr(O, "domain_half", interrupting_target_half)
    use_cpus(monkeypatch, 2)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_experiment(config_from_pairs(SMALL), 3, tmp_path)
    assert time.monotonic() - start < 30
    assert not (tmp_path / "metrics.csv").exists()
    assert len(forks) == 1
    assert_no_child_and_no_new_fd(fds)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_diverging_run_aborts_at_the_same_step_with_the_same_message(tmp_path, monkeypatch, capsys, forks):
    aborts, errors = [], []
    for cpus in (2, 1):
        use_cpus(monkeypatch, cpus)
        with np.errstate(all="ignore"):
            with pytest.raises(NumericAbort) as exc:
                run_experiment(config_from_pairs(DIVERGING), 0, tmp_path / f"api_{cpus}")
            assert main(["run", *flags(DIVERGING), "--seed", "0", "--out", str(tmp_path / f"cli_{cpus}")]) == 3
        aborts.append((exc.value.step, str(exc.value)))
        errors.append(capsys.readouterr().err)
    assert len(forks) == 2  # a worker per run on two CPUs, none on one
    assert aborts[0] == aborts[1]
    assert errors[0] == errors[1] == f"numeric abort: {aborts[0][1]}\n"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the last evaluation reads the inf
@pytest.mark.parametrize("cpus", [2, 1])
def test_a_non_finite_parameter_after_the_last_update_aborts_before_any_write(tmp_path, monkeypatch, capsys,
                                                                             forks, cpus):
    """The loss and gradient checks see an update only at the next step, so an
    overflow in the last update is caught by the check after the loop."""
    steps, parent, step = int(SMALL["train.total_steps"]), os.getpid(), opt.SgdMomentum.step
    calls = []

    def step_that_overflows_last(self, eta):
        step(self, eta)
        if os.getpid() == parent:  # the trainer's own optimizer, not the worker's replica
            calls.append(eta)
            if len(calls) % steps == 0:
                self.data[0] = np.inf

    monkeypatch.setattr(opt.SgdMomentum, "step", step_that_overflows_last)
    use_cpus(monkeypatch, cpus)
    with pytest.raises(NumericAbort) as exc:
        run_experiment(config_from_pairs(SMALL), 0, tmp_path / "api")
    assert exc.value.step == steps - 1
    assert str(exc.value).startswith(f"non-finite parameter at step {steps - 1}: 1 of ")
    assert main(["run", *flags(SMALL), "--seed", "0", "--out", str(tmp_path / "cli")]) == 3
    assert capsys.readouterr().err == f"numeric abort: {exc.value}\n"
    assert not (tmp_path / "api" / "model.txt").exists() and not (tmp_path / "cli" / "model.txt").exists()
    assert len(forks) == (2 if cpus == 2 else 0)  # a worker per run, and no probe
