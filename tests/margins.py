"""The margins of acceptance criteria 5-8 on two float paths, as tracked numbers.

Reruns the 30 training runs behind criteria 5-8 of ``tests/test_acceptance.py``
(its seeds and configs: the 4-variant ``compare`` of criteria 5-7 and the 10
``cdan_e@<sampler>`` runs of criterion 8) once per float path, each path in a
process of its own, side by side: the machine's default OpenBLAS kernels, and
``OPENBLAS_CORETYPE=Haswell``. It writes ``ACCEPT_<label>.json`` at the repo
root. Per path it holds the fingerprint (as ``tests/test_golden.py`` takes it),
and per criterion the value, the bound and the margin, which is >= 0 (> 0 for
criterion 8's strict bound) exactly when the criterion passes; plus each run's
``acc_tgt`` and ``dist_a``. The numbers are tracked, not gated. Pytest does not
collect this file. Run it as

    PYTHONPATH=src python tests/margins.py --label 0

It takes about 3 min wall on 2 cores (170 s on a 2-vCPU Xeon VM).
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
PATHS = {"default": {}, "haswell": {"OPENBLAS_CORETYPE": "Haswell"}}
ORDERING = ["source_only", "dann", "cdan", "cdan_e"]  # criteria 5-7's compare, on the default config
SAMPLERS = ["gaussian", "uniform"]  # criterion 8's cdan_e@<sampler>, on the randomized map


def entropy_wins(run_dir: pathlib.Path) -> bool:
    """Criterion 7 on one cdan_e run: the final epoch's mean entropy weight of
    correct target predictions exceeds that of incorrect ones (or none is left)."""
    fields = (run_dir / "metrics.csv").read_text().strip().split("\n")[-1].split(",")
    correct, incorrect = (float(v) if v else None for v in fields[8:10])
    return correct is not None and (incorrect is None or correct > incorrect)


def measure(work: pathlib.Path) -> dict:
    """Criteria 5-8's values, bounds and margins, and their runs, on this process's float path."""
    from test_acceptance import SEEDS, _mean_acc
    from test_golden import fingerprint

    from condada.config import ExperimentConfig
    from condada.runner import apply_variant, compare, run_experiment

    rows = compare(ExperimentConfig(), ORDERING, SEEDS, work / "ordering")
    runs = [{"criterion": "5-7", "variant": r.variant, "seed": r.seed, "acc_tgt": r.acc_tgt, "dist_a": r.dist_a}
            for r in rows]
    means = {v: _mean_acc(rows, v) for v in ORDERING}
    gaps = {"cdan_e - cdan": means["cdan_e"] - means["cdan"],
            "cdan - dann": means["cdan"] - means["dann"],
            "cdan - (source_only + 0.05)": means["cdan"] - means["source_only"] - 0.05}
    by = {(r.variant, r.seed): r for r in rows}
    a_wins = sum(by["cdan", s].dist_a < by["source_only", s].dist_a for s in SEEDS)
    e_wins = sum(entropy_wins(work / "ordering" / "cdan_e" / f"seed_{s}") for s in SEEDS)

    accs = {}
    for sampler in SAMPLERS:
        variant = f"cdan_e@{sampler}"
        cfg = apply_variant(ExperimentConfig(threshold=1), variant)
        for seed in SEEDS:
            record = run_experiment(cfg, seed, work / sampler / f"seed_{seed}")
            accs.setdefault(sampler, []).append(record.final_target_accuracy)
            runs.append({"criterion": "8", "variant": variant, "seed": seed,
                         "acc_tgt": record.final_target_accuracy, "dist_a": record.a_distance})
    sampler_means = {s: sum(a) / len(a) for s, a in accs.items()}
    gap = abs(sampler_means["gaussian"] - sampler_means["uniform"])

    criteria = {
        "5": {"value": means, "bound": "cdan_e >= cdan >= dann, cdan >= source_only + 0.05",
              "margin": min(gaps.values()), "margins": gaps},
        "6": {"value": a_wins, "bound": ">= 3 seeds with cdan's dist_a below source_only's", "margin": a_wins - 3},
        "7": {"value": e_wins, "bound": ">= 3 seeds with correct predictions weighted above incorrect",
              "margin": e_wins - 3},
        "8": {"value": gap, "bound": "< 0.03 between the samplers' mean acc_tgt", "margin": 0.03 - gap,
              "means": sampler_means},
    }
    for name, entry in criteria.items():
        entry["pass"] = entry["margin"] > 0 if name == "8" else entry["margin"] >= 0
    return {"fingerprint": fingerprint(), "criteria": criteria, "runs": runs}


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--path":  # one path's process: measure, write argv[2]
        with tempfile.TemporaryDirectory() as work:
            result = {"env": PATHS[argv[1]], **measure(pathlib.Path(work))}
        pathlib.Path(argv[2]).write_text(json.dumps(result))
        return 0
    if len(argv) != 2 or argv[0] != "--label":
        print(f"usage: PYTHONPATH=src python {sys.argv[0]} --label LABEL", file=sys.stderr)
        return 2
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [str(HERE.parent / "src"), base.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as tmp:
        outs = {name: pathlib.Path(tmp) / f"{name}.json" for name in PATHS}
        procs = {name: subprocess.Popen([sys.executable, __file__, "--path", name, str(outs[name])],
                                        env={**base, **env}, stdout=subprocess.DEVNULL)
                 for name, env in PATHS.items()}
        failed = [name for name, proc in procs.items() if proc.wait() != 0]
        if failed:
            print(f"float path(s) {', '.join(failed)} failed", file=sys.stderr)
            return 1
        paths = {name: json.loads(out.read_text()) for name, out in outs.items()}
    target = HERE.parent / f"ACCEPT_{argv[1]}.json"
    target.write_text(json.dumps({"paths": paths}, indent=1) + "\n")
    for name, path in paths.items():
        print(f"{name}: " + ", ".join(f"criterion {c} margin {e['margin']:.4g} ({'pass' if e['pass'] else 'FAIL'})"
                                      for c, e in path["criteria"].items()))
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
