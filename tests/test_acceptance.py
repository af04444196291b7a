"""Acceptance gate: one test per criterion, each printing a PASS line.

The training-based criteria (5-8) share one module-scoped comparison over the
default task so the suite stays within desk-scale runtimes.
"""

import math
import time

import numpy as np
import pytest

import condada.analysis as A
import condada.conditioning as C
import condada.networks as N
import condada.objectives as O
import condada.optim as opt
from condada import tensor as T
from condada.cli import main
from condada.config import ExperimentConfig
from condada.runner import apply_variant, compare, run_experiment
from condada.tensor import Tensor

from helpers import central_differences, max_relative_error

SEEDS = [0, 1, 2, 3, 4]
ACCEPTANCE_MASTER_SEED = 2027


def _report(name: str, detail: str = ""):
    print(f"PASS {name}" + (f" ({detail})" if detail else ""))


# --- criterion 1: multilinear inner-product identity --------------------------


def test_criterion_1_inner_product_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(ACCEPTANCE_MASTER_SEED)
    worst = 0.0
    for _ in range(100):
        f, f2 = rng.standard_normal((2, 32))
        g, g2 = rng.standard_normal((2, 9))
        t1 = C.multilinear_map(Tensor(f.reshape(1, -1)), Tensor(g.reshape(1, -1))).data
        t2 = C.multilinear_map(Tensor(f2.reshape(1, -1)), Tensor(g2.reshape(1, -1))).data
        lhs = float(t1.reshape(-1) @ t2.reshape(-1))
        rhs = float(np.dot(f, f2) * np.dot(g, g2))
        worst = max(worst, abs(lhs - rhs))
    elapsed = time.perf_counter() - start
    assert worst < 1e-10
    assert elapsed < 1.0
    _report("criterion 1: inner-product identity", f"max |lhs-rhs| = {worst:.2e}, {elapsed:.2f}s")


# --- criterion 2: unbiasedness + variance decay of the randomized map ---------


def test_criterion_2_randomized_map_unbiasedness():
    start = time.perf_counter()
    rng = np.random.default_rng(ACCEPTANCE_MASTER_SEED + 1)

    def unit(k):
        v = rng.standard_normal(k)
        return v / np.linalg.norm(v)

    worst_se_ratio = 0.0
    for q in range(10):
        f, f2, g, g2 = unit(8), unit(8), unit(4), unit(4)
        for sampler in ("gaussian", "uniform"):
            res = A.theorem1_verify(f, g, f2, g2, d=128, n_resamples=20000,
                                    sampler=sampler, seed=ACCEPTANCE_MASTER_SEED + q)
            worst_se_ratio = max(worst_se_ratio, res.err_in_se)
            assert res.unbiased_within(3.0), (q, sampler, res)
            lo = A.theorem1_verify(f, g, f2, g2, d=64, n_resamples=5000,
                                   sampler=sampler, seed=ACCEPTANCE_MASTER_SEED + q)
            hi = A.theorem1_verify(f, g, f2, g2, d=256, n_resamples=5000,
                                   sampler=sampler, seed=ACCEPTANCE_MASTER_SEED + q)
            assert hi.mc_var < lo.mc_var, (q, sampler)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report("criterion 2: unbiasedness within 3 SE + variance decay",
            f"worst |err|/SE = {worst_se_ratio:.2f}, {elapsed:.1f}s")


# --- criterion 3: gradient audit ----------------------------------------------


def test_criterion_3_full_loss_gradient_audit():
    # Entropy weights are per-step constants, so the audited objective holds
    # them at the graph's base-point values while the parameters move.
    from test_objectives import _flatten, _numpy_player_loss

    start = time.perf_counter()
    rng = np.random.default_rng(ACCEPTANCE_MASTER_SEED + 2)
    x_src = rng.standard_normal((6, 2))
    y_src = rng.integers(0, 3, 6)
    x_tgt = rng.standard_normal((6, 2)) + 0.5
    bundle = N.init_model(
        N.MlpSpec((2, 6, 5)),
        N.MlpSpec((5, 3)),
        N.MlpSpec((15, 6, 1)),
        seed=ACCEPTANCE_MASTER_SEED,
    )
    strategy = C.ConditioningStrategy(C.MULTILINEAR)
    lam = 0.9

    out = O.cdan_step_losses(x_src, y_src, x_tgt, bundle, strategy,
                             lambda_eff=lam, entropy_weighting=True)
    T.backward(out.objective)
    params = bundle.all_params()
    shapes = [p.data.shape for p in params]
    w_src, w_tgt = out.entropy_weights[:6], out.entropy_weights[6:]
    theta0 = _flatten([p.data for p in params])
    n_fg = sum(p.data.size for p in bundle.params_f() + bundle.params_g())

    fd_fg = central_differences(
        _numpy_player_loss(x_src, y_src, x_tgt, w_src, w_tgt, lam, "FG", shapes), theta0.copy())
    fd_d = central_differences(
        _numpy_player_loss(x_src, y_src, x_tgt, w_src, w_tgt, lam, "D", shapes), theta0.copy())

    analytic_fg = _flatten([p.grad for p in bundle.params_f() + bundle.params_g()])
    analytic_d = _flatten([p.grad for p in bundle.params_d()])
    worst = max(max_relative_error(analytic_fg, fd_fg[:n_fg]),
                max_relative_error(analytic_d, fd_d[n_fg:]))
    elapsed = time.perf_counter() - start
    assert worst < 1e-4
    assert elapsed < 10.0
    _report("criterion 3: gradient audit vs central differences",
            f"max rel err = {worst:.2e}, {elapsed:.1f}s")


# --- criterion 4: schedules ----------------------------------------------------


def test_criterion_4_schedules():
    start = time.perf_counter()
    sp = opt.ScheduleParams()
    assert opt.lr_schedule(0.0, sp) == 0.01
    assert opt.lambda_schedule(0.0, sp.delta) == 0.0
    grid = np.linspace(0.0, 1.0, 1000)
    lrs = np.array([opt.lr_schedule(p, sp) for p in grid])
    lams = np.array([opt.lambda_schedule(p, sp.delta) for p in grid])
    assert np.all(np.diff(lrs) < 0)
    assert np.all(np.diff(lams) > 0)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("criterion 4: schedule anchors and monotonicity", f"{elapsed:.2f}s")


# --- criteria 5-7: desk-scale adaptation runs ----------------------------------


@pytest.fixture(scope="module")
def ordering_runs(tmp_path_factory):
    """compare() over the default task: 4 variants x 5 seeds, plus per-run records."""
    out = tmp_path_factory.mktemp("ordering")
    cfg = ExperimentConfig()
    t0 = time.perf_counter()
    rows = compare(cfg, ["source_only", "dann", "cdan", "cdan_e"], SEEDS, out)
    wall = time.perf_counter() - t0
    return {"rows": rows, "out": out, "wall": wall, "n_runs": len(rows)}


def _mean_acc(rows, variant):
    return float(np.mean([r.acc_tgt for r in rows if r.variant == variant]))


def test_criterion_5_adaptation_ordering(ordering_runs):
    rows = ordering_runs["rows"]
    means = {v: _mean_acc(rows, v) for v in ("source_only", "dann", "cdan", "cdan_e")}
    per_run = ordering_runs["wall"] / ordering_runs["n_runs"]
    assert means["cdan_e"] >= means["cdan"] >= means["dann"]
    assert means["cdan"] >= means["source_only"] + 0.05
    assert per_run < 60.0
    _report("criterion 5: adaptation ordering over 5 seeds",
            "mean acc: " + ", ".join(f"{k}={v:.3f}" for k, v in means.items())
            + f"; {per_run:.1f}s/run")


def test_criterion_6_a_distance_reduction(ordering_runs):
    rows = ordering_runs["rows"]
    wins = 0
    for seed in SEEDS:
        cdan = next(r for r in rows if r.variant == "cdan" and r.seed == seed)
        src_only = next(r for r in rows if r.variant == "source_only" and r.seed == seed)
        wins += cdan.dist_a < src_only.dist_a
    assert wins >= 3
    _report("criterion 6: A-distance reduction", f"{wins}/5 seeds")


def test_criterion_7_entropy_correctness_correlation(ordering_runs):
    out = ordering_runs["out"]
    wins = 0
    for seed in SEEDS:
        final = (out / "cdan_e" / f"seed_{seed}" / "metrics.csv").read_text().strip().split("\n")[-1]
        fields = final.split(",")
        mean_correct = float(fields[8]) if fields[8] else None
        mean_incorrect = float(fields[9]) if fields[9] else None
        if mean_incorrect is None:  # no incorrect predictions left: maximal separation
            wins += mean_correct is not None
        else:
            wins += mean_correct is not None and mean_correct > mean_incorrect
    assert wins >= 3
    _report("criterion 7: entropy weight tracks correctness", f"{wins}/5 seeds")


# --- criterion 8: sampler ablation ---------------------------------------------


def test_criterion_8_sampler_ablation(tmp_path):
    cfg = ExperimentConfig(threshold=1)  # force the randomized map
    means = {}
    for sampler in ("gaussian", "uniform"):
        accs = []
        for seed in SEEDS:
            vcfg = apply_variant(cfg, f"cdan_e@{sampler}")
            record = run_experiment(vcfg, seed, tmp_path / sampler / f"seed_{seed}")
            accs.append(record.final_target_accuracy)
        means[sampler] = float(np.mean(accs))
    gap = abs(means["gaussian"] - means["uniform"])
    assert gap < 0.03
    _report("criterion 8: sampler near-parity",
            f"gaussian={means['gaussian']:.3f}, uniform={means['uniform']:.3f}, gap={gap:.3f}")


# --- criterion 9: byte determinism ----------------------------------------------


def test_criterion_9_metrics_determinism(tmp_path):
    args = ["run", "--train.total_steps", "600", "--seed", "7"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    b1 = (tmp_path / "a/metrics.csv").read_bytes()
    b2 = (tmp_path / "b/metrics.csv").read_bytes()
    assert b1 == b2
    _report("criterion 9: byte-identical metrics.csv", f"{len(b1)} bytes")


# --- criterion 10: mean-map block property ---------------------------------------


def test_criterion_10_mean_map_blocks():
    rng = np.random.default_rng(ACCEPTANCE_MASTER_SEED + 3)
    n, dim, classes = 200, 6, 4
    x = rng.standard_normal((n, dim))
    y = rng.integers(0, classes, n)
    hot = np.zeros((n, classes))
    hot[np.arange(n), y] = 1.0
    blocks = C.multilinear_map(Tensor(x), Tensor(hot)).data.mean(axis=0).reshape(dim, classes)
    worst = 0.0
    for c in range(classes):
        mask = y == c
        expected = (mask.sum() / n) * x[mask].mean(axis=0)
        worst = max(worst, float(np.max(np.abs(blocks[:, c] - expected))))
    assert worst < 1e-12
    _report("criterion 10: mean-map block property", f"max abs dev = {worst:.2e}")
