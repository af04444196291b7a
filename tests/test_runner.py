"""Runner contracts: determinism, the source-only oracle, NaN policy, metrics
format, and compare output shape."""

import math
import os

import numpy as np
import pytest

import condada.analysis as A
import condada.datagen as D
import condada.networks as N
import condada.objectives as O
import condada.optim as opt
from condada import tensor as T
from condada.analysis import accuracy
from condada.cli import main
from condada.config import ExperimentConfig
from condada.errors import ConfigError, NumericAbort
from condada.runner import (_STREAM_SRC_BATCHES, METRICS_HEADER, apply_variant, compare, derived_seed,
                            run_experiment, train, verify_theorem1)
from condada.tensor import Tensor


def short_cfg(**kw):
    kw.setdefault("total_steps", 150)
    kw.setdefault("n_source", 120)
    kw.setdefault("n_target", 120)
    return ExperimentConfig(**kw).validate()


def test_identical_config_and_seed_reproduce_every_byte(tmp_path):
    cfg = apply_variant(short_cfg(), "cdan_e")
    d1, d2 = tmp_path / "a", tmp_path / "b"
    run_experiment(cfg, 3, d1)
    run_experiment(cfg, 3, d2)
    for name in ("metrics.csv", "model.txt", "features.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name


def test_different_seeds_differ(tmp_path):
    cfg = apply_variant(short_cfg(), "cdan")
    run_experiment(cfg, 0, tmp_path / "s0")
    run_experiment(cfg, 1, tmp_path / "s1")
    assert (tmp_path / "s0/metrics.csv").read_bytes() != (tmp_path / "s1/metrics.csv").read_bytes()


def _supervised_oracle(cfg: ExperimentConfig, seed: int):
    """Plain supervised pipeline sharing the run's init and batch streams but
    with no adversarial machinery at all."""
    src, tgt = cfg.make_dataset(seed)
    bundle = N.init_model(*cfg.model_specs(src.dim), seed)
    schedule = cfg.schedule()
    optimizer = opt.SgdMomentum(
        [(bundle.params_f(), cfg.lr_mult_f), (bundle.params_g(), cfg.lr_mult_g)],
        momentum=schedule.momentum,
    )
    seed_src = derived_seed(seed, _STREAM_SRC_BATCHES)
    epoch, batches = 0, iter(D.batch_iter(src, cfg.batch_size, seed_src, 0))
    for step in range(cfg.total_steps):
        try:
            x, y = next(batches)
        except StopIteration:
            epoch += 1
            batches = iter(D.batch_iter(src, cfg.batch_size, seed_src, epoch))
            x, y = next(batches)
        f = N.forward_F(bundle, Tensor(x))
        _, g = N.forward_G(bundle, f)
        loss = O.cross_entropy(g, y)
        T.backward(loss)
        optimizer.step(opt.lr_schedule(step / cfg.total_steps, schedule))
    f_t = N.forward_F(bundle, Tensor(tgt.x))
    _, g_t = N.forward_G(bundle, f_t)
    return bundle, accuracy(g_t.data, tgt.y)


def test_lambda_zero_run_equals_supervised_pipeline(tmp_path):
    cfg = apply_variant(short_cfg(total_steps=200), "source_only")
    record = run_experiment(cfg, 5, tmp_path / "run")
    oracle_bundle, oracle_acc = _supervised_oracle(cfg, 5)
    assert record.final_target_accuracy == oracle_acc
    trained, _, _ = __import__("condada.runner", fromlist=["train"]).train(cfg, 5, *cfg.make_dataset(5))
    for p, q in zip(trained.params_f() + trained.params_g(),
                    oracle_bundle.params_f() + oracle_bundle.params_g()):
        assert p.data.tobytes() == q.data.tobytes()


@pytest.fixture
def optimizers(monkeypatch):
    """(optimizer, its parameters) of every SgdMomentum made in this process."""
    made = []

    class Recording(opt.SgdMomentum):
        def __init__(self, groups, momentum):
            super().__init__(groups, momentum)
            made.append((self, [t for params, _ in groups for t in params]))

    monkeypatch.setattr(opt, "SgdMomentum", Recording)
    return made


def test_trainer_and_probe_parameters_are_views_of_their_optimizer(optimizers):
    cfg = apply_variant(short_cfg(total_steps=20), "cdan_e")
    src, tgt = cfg.make_dataset(0)
    bundle, _, _ = train(cfg, 0, src, tgt)
    A.proxy_a_distance(N.forward_F(bundle, Tensor(src.x)).data, N.forward_F(bundle, Tensor(tgt.x)).data, 0)
    (_, trained), (_, probed) = optimizers
    assert list(map(id, trained)) == list(map(id, bundle.all_params()))
    assert len(probed) == 4  # the probe's two layers
    for optimizer, params in optimizers:
        for t in params:
            assert np.shares_memory(t.data, optimizer.data) and np.shares_memory(t.grad, optimizer.grad)


def test_a_non_finite_summed_gradient_aborts_at_its_step(tmp_path, monkeypatch, capsys, optimizers):
    # A nan planted in the parent's gradient after the last step's backward
    # reaches the summed gradient on either path; the losses stay finite, so
    # only the gradient check can stop the run before it saves the nan.
    steps, parent, backward, calls = 20, os.getpid(), T.backward, []

    def planted(loss):
        backward(loss)
        if os.getpid() == parent:
            calls.append(None)
            if len(calls) == steps:
                optimizers[-1][0].grad[0] = np.nan

    monkeypatch.setattr(T, "backward", planted)
    errors = []
    for cpus in (2, 1):
        monkeypatch.setattr(A, "_usable_cpus", lambda: cpus)
        calls.clear()
        argv = ["run", "--train.total_steps", str(steps), "--dataset.n_source", "120",
                "--dataset.n_target", "120", "--seed", "0", "--out", str(tmp_path / f"cpus_{cpus}")]
        assert main(argv) == 3
        errors.append(capsys.readouterr().err)
    size = optimizers[-1][0].grad.size
    assert errors == [f"numeric abort: non-finite gradient at step {steps - 1}: 1 of {size} entries\n"] * 2
    assert not (tmp_path / "cpus_1" / "model.txt").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_policy_aborts_with_step_index(tmp_path):
    cfg = apply_variant(short_cfg(eta0=1e9, total_steps=50), "cdan")
    with pytest.raises(NumericAbort) as exc:
        run_experiment(cfg, 0, tmp_path / "nan")
    assert exc.value.step >= 0
    assert "step" in str(exc.value)


def test_a_nan_weight_aborts_at_step_0(tmp_path, monkeypatch):
    # The ReLU passes the NaN column on instead of zeroing it, so the first
    # loss is NaN; a ReLU that zeroed it would train on and save nan weights.
    init_model = N.init_model

    def planted(*args, **kwargs):
        bundle = init_model(*args, **kwargs)
        bundle.layers_f[0][0].data[0, 0] = np.nan
        return bundle

    monkeypatch.setattr(N, "init_model", planted)
    with pytest.raises(NumericAbort) as exc:
        run_experiment(short_cfg(total_steps=40), 0, tmp_path / "nan")
    assert exc.value.step == 0


def test_metrics_file_format_and_logged_schedules(tmp_path):
    cfg = apply_variant(short_cfg(total_steps=60, batch_size=32), "cdan_e")
    run_experiment(cfg, 2, tmp_path / "m")
    lines = (tmp_path / "m/metrics.csv").read_text().strip().split("\n")
    assert lines[0] == METRICS_HEADER

    schedule = cfg.schedule()
    steps_per_epoch = math.ceil(cfg.n_source / cfg.batch_size)
    for line in lines[1:]:
        fields = line.split(",")
        epoch, step = int(fields[0]), int(fields[1])
        assert epoch == step // steps_per_epoch
        p = step / cfg.total_steps
        assert float(fields[2]) == opt.lr_schedule(p, schedule)
        assert float(fields[3]) == schedule.lam * opt.lambda_schedule(p, schedule.delta)
        acc_src, acc_tgt = float(fields[6]), float(fields[7])
        assert 0.0 <= acc_src <= 1.0 and 0.0 <= acc_tgt <= 1.0
    # one row per completed epoch plus the final partial epoch if any
    assert len(lines) - 1 == math.ceil(cfg.total_steps / steps_per_epoch)


def test_compare_rows_and_summary(tmp_path):
    cfg = short_cfg(total_steps=80)
    rows = compare(cfg, ["source_only"], [0, 1, 2], tmp_path)
    assert len(rows) == 3
    lines = (tmp_path / "summary.csv").read_text().strip().split("\n")
    assert lines[0] == "variant,seed,acc_tgt,dist_a,acc_tgt_std,dist_a_std"
    assert len(lines) == 1 + 3 + 1  # header + runs + one summary row

    summary = lines[-1].split(",")
    assert summary[0] == "source_only" and summary[1] == "mean"
    accs = [float(l.split(",")[2]) for l in lines[1:4]]
    assert float(summary[2]) == pytest.approx(np.mean(accs), abs=1e-15)
    for sub in ("seed_0", "seed_1", "seed_2"):
        assert (tmp_path / "source_only" / sub / "metrics.csv").exists()


def test_empty_target_set_is_a_config_error():
    cfg = short_cfg()
    src, tgt = cfg.make_dataset(0)
    empty = D.LabeledSet(tgt.x[:0], tgt.y[:0], "target")
    with pytest.raises(ConfigError, match="target set is empty"):
        train(cfg, 0, src, empty)


def test_compare_requires_multiple_axes(tmp_path):
    with pytest.raises(Exception, match="at least two"):
        compare(short_cfg(), ["cdan"], [0], tmp_path)


def test_verify_theorem1_report_and_gate():
    results, ok = verify_theorem1([32, 64], 2000, ["gaussian"], seed=0, d_f=8, d_g=4)
    assert len(results) == 2
    assert ok
    assert results[0].d == 32 and results[1].d == 64
    assert results[1].mc_var < results[0].mc_var


def test_verify_theorem1_three_dim_sweep_variance_monotone():
    results, ok = verify_theorem1([64, 128, 256], 2000, ["gaussian"], seed=3, d_f=8, d_g=4)
    assert ok and len(results) == 3
    variances = [r.mc_var for r in results]
    assert variances[0] > variances[1] > variances[2]


def test_verify_theorem1_fixed_seed_identical_report():
    r1, _ = verify_theorem1([32], 1500, ["uniform"], seed=11, d_f=6, d_g=3)
    r2, _ = verify_theorem1([32], 1500, ["uniform"], seed=11, d_f=6, d_g=3)
    assert r1[0] == r2[0]


def test_export_with_two_dim_features_is_directly_plottable(tmp_path):
    cfg = apply_variant(short_cfg(total_steps=60, f_hidden=(16, 2)), "cdan")
    run_experiment(cfg, 0, tmp_path)
    header = (tmp_path / "features.csv").read_text().split("\n", 1)[0]
    assert header == "f0,f1,label,domain"


def test_verify_theorem1_rejects_low_resamples():
    with pytest.raises(ValueError, match="1000"):
        verify_theorem1([32], 500, ["gaussian"], seed=0)
