"""CLI verbs, flag/file overrides, exit codes, and the process's BLAS threads."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import condada.analysis
from condada.cli import main
from condada.datagen import LabeledSet, save_csv


def test_run_writes_outputs_and_is_deterministic(tmp_path, capsys):
    args = ["run", "--dataset.n_source", "120", "--dataset.n_target", "120",
            "--train.total_steps", "80", "--seed", "1"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a/metrics.csv").read_bytes() == (tmp_path / "b/metrics.csv").read_bytes()
    out = capsys.readouterr().out
    assert "acc_tgt" in out


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("train.total_steps = 40\ndataset.n_source = 120\ndataset.n_target = 120\n")
    out_dir = tmp_path / "out"
    code = main(["run", "--config", str(cfg), "--train.total_steps", "60",
                 "--seed", "0", "--out", str(out_dir)])
    assert code == 0
    last = (out_dir / "metrics.csv").read_text().strip().split("\n")[-1]
    assert int(last.split(",")[1]) == 59  # final step index reflects the flag value


def test_config_error_exit_code(tmp_path):
    assert main(["run", "--strategy", "bogus", "--seed", "0", "--out", str(tmp_path)]) == 2
    assert main(["run", "--config", "/missing.cfg", "--seed", "0", "--out", str(tmp_path)]) == 2
    assert main(["run", "--model.f_hidden", "", "--seed", "0", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("flag,value", [
    ("dataset.n_source", "61"),  # not divisible by the 3 classes
    ("model.f_hidden", "0"),
    ("model.d_hidden", "64,0"),
    ("dataset.rotation_deg", "1,2"),  # per-class angles for 2 of the 3 classes
])
def test_bad_dataset_or_width_names_the_key_and_writes_nothing(tmp_path, capsys, flag, value):
    out_dir = tmp_path / "out"
    assert main(["run", f"--{flag}", value, "--train.total_steps", "5", "--seed", "0", "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and flag in err and len(err.strip().splitlines()) == 1
    assert not out_dir.exists()


@pytest.mark.parametrize("flag", ["dataset.n_source", "dataset.n_target"])
def test_a_domain_below_the_probe_rows_fails_before_training(tmp_path, capsys, monkeypatch, flag):
    def no_training(*args):
        raise AssertionError("trained on a set the A-distance probe cannot use")

    monkeypatch.setattr("condada.runner.train", no_training)
    out_dir = tmp_path / "out"
    assert main(["run", "--dataset.n_source", "60", "--dataset.n_target", "60", f"--{flag}", "30",
                 "--train.total_steps", "5", "--seed", "0", "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {flag}: 30 rows") and len(err.strip().splitlines()) == 1
    assert not out_dir.exists()


def test_a_csv_domain_below_the_probe_rows_names_the_file(tmp_path, capsys):
    rng = np.random.default_rng(0)
    paths = {}
    for domain, n in (("source", 60), ("target", 39)):
        paths[domain] = tmp_path / f"{domain}.csv"
        save_csv(LabeledSet(rng.standard_normal((n, 2)), np.arange(n) % 3, domain), paths[domain])
    out_dir = tmp_path / "out"
    assert main(["run", "--dataset.source_csv", str(paths["source"]), "--dataset.target_csv", str(paths["target"]),
                 "--train.total_steps", "5", "--seed", "0", "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {paths['target']}: 39 rows")
    assert not out_dir.exists()


@pytest.mark.parametrize("line", ["dataset.clases = 3", "schedule.eta0 = abc"])
def test_config_file_error_names_the_file(tmp_path, capsys, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    assert main(["run", "--config", str(cfg), "--seed", "0", "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {cfg}: ") and len(err.strip().splitlines()) == 1


def test_config_flag_error_names_the_flag(tmp_path, capsys):
    cfg = tmp_path / "good.cfg"
    cfg.write_text("schedule.eta0 = 0.02\n")
    code = main(["run", "--config", str(cfg), "--schedule.eta0", "abc", "--seed", "0", "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --schedule.eta0: ") and len(err.strip().splitlines()) == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numeric_abort_exit_code(tmp_path, capsys):
    with np.errstate(all="ignore"):
        code = main(["run", "--schedule.eta0", "1000000000", "--train.total_steps", "50",
                     "--dataset.n_source", "120", "--dataset.n_target", "120",
                     "--seed", "0", "--out", str(tmp_path)])
    assert code == 3
    assert "step" in capsys.readouterr().err


def test_compare_verb(tmp_path, capsys):
    code = main(["compare", "--variants", "source_only,dann", "--seeds", "0",
                 "--dataset.n_source", "120", "--dataset.n_target", "120",
                 "--train.total_steps", "60", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "summary.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 2 + 2  # header, 2 runs, 2 summary rows


@pytest.mark.parametrize("argv, named", [
    (["run", "--seed", "-1"], "--seed: must be >= 0, got -1"),
    (["export-features", "--seed", "-1"], "--seed: must be >= 0, got -1"),
    (["verify-theorem1", "--seed", "-1"], "--seed: must be >= 0, got -1"),
    (["compare", "--variants", "source_only,dann", "--seeds", "-1"], "seeds must be >= 0"),
    (["compare", "--variants", "source_only,dann", "--seeds", "1,a"], "--seeds: bad value for seeds: '1,a'"),
])
def test_a_bad_seed_is_named_before_any_work(tmp_path, monkeypatch, capsys, argv, named):
    def no_work(*args, **kwargs):
        raise AssertionError("work started with a bad seed")

    monkeypatch.setattr("condada.runner.train", no_work)
    monkeypatch.setattr("condada.conditioning.draw", no_work)
    out_dir = tmp_path / "out"
    outs = [] if argv[0] == "verify-theorem1" else ["--out", str(out_dir)]
    assert main(argv + outs) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {named}") and len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    assert not out_dir.exists()


def test_verify_theorem1_verb(capsys):
    code = main(["verify-theorem1", "--dims", "32,64", "--resamples", "2000",
                 "--samplers", "gaussian", "--seed", "0", "--df", "8", "--dg", "4"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 2


def test_verify_theorem1_low_resamples_is_argument_error():
    assert main(["verify-theorem1", "--resamples", "100"]) == 2


@pytest.mark.parametrize("flags", [["--dims", "0"], ["--df", "0"], ["--dg", "0"]])
def test_verify_theorem1_zero_width_is_argument_error(flags, capsys):
    assert main(["verify-theorem1", "--resamples", "1000", "--samplers", "gaussian", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize("flag, value", [
    ("--samplers", "gaussian,nope"), ("--dims", "abc"), ("--dims", "64,,128"), ("--dims", "64,0"),
    ("--resamples", "999"), ("--df", "0"),
])
def test_verify_theorem1_bad_flag_is_named_before_any_draw(monkeypatch, capsys, flag, value):
    def no_draw(rng, sampler, shape):
        raise AssertionError("a projection was drawn")

    monkeypatch.setattr("condada.conditioning.draw", no_draw)
    assert main(["verify-theorem1", "--resamples", "1000", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: {flag}: ") and len(captured.err.strip().splitlines()) == 1
    assert "Traceback" not in captured.err


def test_verify_theorem1_gate_failure_exit_code(monkeypatch, capsys):
    from condada.analysis import Theorem1Result

    def fake_verify(f, g, f2, g2, d, n_resamples, sampler, seed):
        return Theorem1Result(exact=1.0, mc_mean=5.0, mc_var=1.0,
                              standard_error=0.01, d=d, n_resamples=n_resamples, sampler=sampler)

    monkeypatch.setattr("condada.runner.A.theorem1_verify", fake_verify)
    code = main(["verify-theorem1", "--dims", "32", "--resamples", "1000", "--samplers", "gaussian"])
    assert code == 4
    assert "FAIL" in capsys.readouterr().out


def test_export_features_reproduces_run_export(tmp_path):
    run_dir = tmp_path / "run"
    base = ["--dataset.n_source", "120", "--dataset.n_target", "120",
            "--train.total_steps", "60"]
    assert main(["run", *base, "--seed", "2", "--out", str(run_dir)]) == 0
    original = (run_dir / "features.csv").read_bytes()

    out_csv = tmp_path / "re_export.csv"
    code = main(["export-features", *base, "--seed", "2", "--out", str(run_dir),
                 "--output", str(out_csv)])
    assert code == 0
    assert out_csv.read_bytes() == original


def test_export_features_missing_model(tmp_path):
    assert main(["export-features", "--seed", "0", "--out", str(tmp_path)]) == 2


def test_export_features_into_a_missing_directory_is_exit_2(tmp_path, capsys):
    run_dir = tmp_path / "run"
    base = ["--dataset.n_source", "120", "--dataset.n_target", "120", "--train.total_steps", "20"]
    assert main(["run", *base, "--seed", "0", "--out", str(run_dir)]) == 0
    capsys.readouterr()
    code = main(["export-features", *base, "--seed", "0", "--out", str(run_dir),
                 "--output", str(tmp_path / "missing" / "f.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


def test_run_into_an_existing_file_is_exit_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    code = main(["run", "--dataset.n_source", "120", "--dataset.n_target", "120",
                 "--train.total_steps", "20", "--seed", "0", "--out", str(taken)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


def test_export_features_from_a_truncated_model_is_exit_2(tmp_path, capsys):
    run_dir = tmp_path / "run"
    base = ["--dataset.n_source", "120", "--dataset.n_target", "120", "--train.total_steps", "20"]
    assert main(["run", *base, "--seed", "0", "--out", str(run_dir)]) == 0
    capsys.readouterr()
    truncated = tmp_path / "truncated.txt"
    lines = (run_dir / "model.txt").read_text().splitlines(keepends=True)
    truncated.write_text("".join(line for line in lines if not line.startswith("F.0.b ")))
    code = main(["export-features", *base, "--seed", "0", "--out", str(run_dir),
                 "--model", str(truncated), "--output", str(tmp_path / "f.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert str(truncated) in err and "F.0" in err


@pytest.mark.parametrize("layer", ["F.0", "F.1", "D.2"])
def test_export_features_from_a_model_missing_a_layer_is_exit_2(tmp_path, capsys, layer):
    run_dir = tmp_path / "run"
    base = ["--dataset.n_source", "120", "--dataset.n_target", "120", "--train.total_steps", "20"]
    assert main(["run", *base, "--seed", "0", "--out", str(run_dir)]) == 0
    capsys.readouterr()
    cut = tmp_path / "cut.txt"
    lines = (run_dir / "model.txt").read_text().splitlines(keepends=True)
    cut.write_text("".join(line for line in lines if not line.startswith((f"{layer}.W ", f"{layer}.b "))))
    code = main(["export-features", *base, "--seed", "0", "--out", str(run_dir),
                 "--model", str(cut), "--output", str(tmp_path / "f.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert str(cut) in err and f"network {layer[0]}" in err and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "f.csv").exists()


@pytest.mark.parametrize("layer,fields", [
    ("F.0.b", lambda t: ["1", "1", t[3]]),  # one value where 64 belong
    ("F.1.W", lambda t: ["1", "4096", *t[4:]]),  # rank 1
    ("F.1.W", lambda t: ["2", "32", "64", *t[4:4 + 32 * 64]]),  # 32 rows after a 64-wide layer
], ids=["short-b", "rank-1-W", "unchained-W"])
def test_export_features_from_a_model_with_a_malformed_layer_is_exit_2(tmp_path, capsys, layer, fields):
    run_dir = tmp_path / "run"
    base = ["--dataset.n_source", "120", "--dataset.n_target", "120", "--train.total_steps", "20"]
    assert main(["run", *base, "--seed", "0", "--out", str(run_dir)]) == 0
    capsys.readouterr()
    bad = tmp_path / "bad.txt"
    lines = (run_dir / "model.txt").read_text().splitlines(keepends=True)
    bad.write_text("".join(" ".join([layer, *fields(line.split())]) + "\n" if line.startswith(f"{layer} ") else line
                           for line in lines))
    code = main(["export-features", *base, "--seed", "0", "--out", str(run_dir),
                 "--model", str(bad), "--output", str(tmp_path / "f.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert str(bad) in err and f"layer {layer[:3]} " in err
    assert not (tmp_path / "f.csv").exists()


BLAS_THREADS = """
import ctypes, glob, os, sys, numpy as np
if sys.argv[1] == "condada":
    import condada
libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas64_*"))
print(ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_() if libs else -1)
"""


def blas_threads(importing: str, **env) -> int:
    """OpenBLAS's thread count in a fresh process that imports numpy, then ``importing``."""
    base = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, base.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", BLAS_THREADS, importing], env={**base, **env},
                         capture_output=True, text=True, check=True, timeout=60).stdout
    return int(out)


def test_importing_condada_sets_one_blas_thread_unless_the_user_set_a_count():
    if blas_threads("numpy") == -1:
        pytest.skip("numpy has no bundled scipy-openblas64 here")
    assert blas_threads("condada") == 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        assert blas_threads("condada", **{var: "2"}) == blas_threads("numpy", **{var: "2"})
