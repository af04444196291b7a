"""One fresh process per measurement: set up a workload, run it once, check it.

Usage (called by run.py, not by hand):

    python3 perfbench/worker.py --workload NAME --seed N --dir DIR --mode setup|run --trace 0|1

Set-up is importing ``condada`` from the checkout's own ``src/``, resolving
the workload's config and writing its input files. In ``run`` mode the
workload runs once, timed, and its outputs are then checked untimed. The
result goes to ``DIR/result.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402  (benchmark-local; imports nothing from condada)

OPTIONAL_COLUMNS = ("mean_w_correct", "mean_w_incorrect")  # empty when the group is empty
GATE_SE = 3.0


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def write_config(path: str, pairs: dict) -> None:
    with open(path, "w") as fh:
        for key, value in pairs.items():
            fh.write(f"{key} = {value}\n")


def setup(condada, spec: dict, seed: int, workdir: str) -> dict:
    """Resolve the config and write the input files; returns what run() needs."""
    if spec["kind"] == "verify":
        return {}
    pairs = dict(spec["config"])
    if spec.get("csv_rows"):
        src, tgt = condada.datagen.generate(condada.ShiftSpec(
            generator="rotated_blobs", n_classes=int(pairs["dataset.classes"]),
            n_source=spec["csv_rows"], n_target=spec["csv_rows"], seed=seed))
        pairs["dataset.source_csv"] = os.path.join(workdir, "source.csv")
        pairs["dataset.target_csv"] = os.path.join(workdir, "target.csv")
        condada.save_csv(src, pairs["dataset.source_csv"])
        condada.save_csv(tgt, pairs["dataset.target_csv"])
    config_path = os.path.join(workdir, "config.txt")
    write_config(config_path, pairs)
    return {"config_path": config_path, "cfg": condada.load_config(config_path)}


def run(condada, spec: dict, seed: int, workdir: str, prepared: dict) -> dict:
    """The timed workload. Returns the figures the checks and metrics need."""
    if spec["kind"] == "verify":
        results, _ = condada.verify_theorem1(spec["dims"], spec["resamples"], spec["samplers"], seed)
        return {"results": results}
    out_dir = os.path.join(workdir, "out")
    record = condada.run_experiment(prepared["cfg"], seed, out_dir)
    reexport_rc = None
    if spec.get("reexport"):
        from condada import cli

        reexport_rc = cli.main(["export-features", "--config", prepared["config_path"], "--seed", str(seed),
                                "--out", out_dir, "--output", os.path.join(out_dir, "features_reexport.csv")])
    return {"record": record, "out_dir": out_dir, "reexport_rc": reexport_rc}


def documented_header() -> str:
    """The metrics.csv header as the checkout's README documents it."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        match = re.search(r"`metrics\.csv` — header `([^`]+)`", fh.read())
    if match is None:
        raise ValueError("README.md documents no metrics.csv header")
    return match.group(1)


def check_metrics_csv(path: str, n_source: int, batch_size: int, total_steps: int) -> str | None:
    header = documented_header()
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != header:
        return f"header {lines[0] if lines else ''!r} differs from the README's {header!r}"
    steps_per_epoch = math.ceil(n_source / batch_size)
    expected_rows = math.ceil(total_steps / steps_per_epoch)
    rows = lines[1:]
    if len(rows) != expected_rows:
        return f"{len(rows)} rows, expected one per epoch ({expected_rows})"
    columns = header.split(",")
    for i, line in enumerate(rows):
        cells = line.split(",")
        if len(cells) != len(columns):
            return f"row {i} has {len(cells)} cells"
        if int(cells[0]) != i:
            return f"row {i} is epoch {cells[0]}"
        for column, cell in zip(columns, cells):
            if cell == "" and column in OPTIONAL_COLUMNS:
                continue
            if not math.isfinite(float(cell)):
                return f"row {i} column {column} is {cell}"
    return None


def check_model(condada, path: str, cfg) -> str | None:
    import numpy as np

    bundle, extras, meta = condada.load_model(path)
    arrays = [t.data for t in bundle.all_params()] + list(extras.values())
    if not all(bool(np.isfinite(a).all()) for a in arrays):
        return "non-finite value in model.txt"
    if cfg.resolve_strategy().tag == "randomized_multilinear":
        d, d_f, d_g = cfg.randomized_d, cfg.f_hidden[-1], cfg.n_classes
        shapes = {k: tuple(v.shape) for k, v in extras.items()}
        if shapes.get("proj.R_f") != (d, d_f) or shapes.get("proj.R_g") != (d, d_g):
            return f"projection extras missing or misshapen: {shapes}"
        if meta.get("proj.sampler") != cfg.sampler:
            return f"projection sampler {meta.get('proj.sampler')!r}, expected {cfg.sampler!r}"
    return None


def check(condada, spec: dict, prepared: dict, outcome: dict) -> tuple[list, dict]:
    """Untimed output checks: (list of [name, failure message or None], hashes)."""
    checks = []
    if spec["kind"] == "verify":
        rows = []
        for r in outcome["results"]:
            ok = r.unbiased_within(GATE_SE)
            checks.append([f"gate {r.sampler} d={r.d}",
                           None if ok else f"|err| = {r.err_in_se:.3f} SE >= {GATE_SE} SE"])
            rows.append(repr((r.sampler, r.d, r.exact, r.mc_mean, r.mc_var)))
        return checks, {"results": hashlib.sha256("\n".join(rows).encode()).hexdigest()}

    cfg, out_dir = prepared["cfg"], outcome["out_dir"]
    paths = {name: os.path.join(out_dir, name) for name in ("metrics.csv", "model.txt", "features.csv")}
    for name, fn in (("metrics.csv", lambda: check_metrics_csv(
                         paths["metrics.csv"], spec.get("csv_rows") or cfg.n_source, cfg.batch_size, cfg.total_steps)),
                     ("model.txt", lambda: check_model(condada, paths["model.txt"], cfg))):
        try:
            checks.append([name, fn()])
        except (OSError, ValueError, KeyError) as exc:
            checks.append([name, f"{type(exc).__name__}: {exc}"])
    if spec.get("reexport"):
        reexport = os.path.join(out_dir, "features_reexport.csv")
        if outcome["reexport_rc"] != 0:
            message = f"export-features exited {outcome['reexport_rc']}"
        elif not os.path.exists(reexport) or sha256(reexport) != sha256(paths["features.csv"]):
            message = "re-exported features.csv differs from the run's own"
        else:
            message = None
        checks.append(["re-export", message])
    hashes = {name: sha256(path) for name, path in paths.items() if os.path.exists(path)}
    return checks, hashes


def speed_probe(numpy, kind: str) -> float:
    """Seconds for a fixed kernel of benchmark code shaped like the workload's
    work, so that a change to the program cannot move it. "tape": many
    tape-op-sized numpy calls plus 12k-row matmuls; "monte_carlo": bulk normal
    draws contracted with short vectors, as the verifier does. One untimed
    pass of each part first pays for first-touch memory."""
    rng = numpy.random.default_rng(0)
    x, w = rng.standard_normal((64, 64)), rng.standard_normal((64, 64))
    rows = rng.standard_normal((12000, 64))
    draws = numpy.random.default_rng(1)

    def tape(n: int):
        for _ in range(150 * n):
            numpy.maximum(x @ w, 0.0).sum()
        for _ in range(n):
            (rows @ w).sum()

    def monte_carlo(n: int):
        for _ in range(n):
            block = draws.standard_normal((128, 128, 24))
            ((block[:, :, :16] @ w[:16, 0]) * (block[:, :, 16:] @ w[:8, 1])).sum(axis=1)

    kernel = monte_carlo if kind == "monte_carlo" else tape
    kernel(1)
    start = time.perf_counter()
    kernel(10)
    return time.perf_counter() - start


def blas_build(numpy) -> str:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = workloads.WORKLOADS[args.workload]
    os.makedirs(args.dir, exist_ok=True)
    result: dict = {}

    t0 = time.perf_counter()
    import condada
    import_s = time.perf_counter() - t0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    t1 = time.perf_counter()
    prepared = setup(condada, spec, args.seed, args.dir)
    result["setup_s"] = import_s + (time.perf_counter() - t1)

    import numpy

    result["env"] = {"python": sys.version.split()[0], "numpy": numpy.__version__, "blas": blas_build(numpy)}
    result["probe_s"] = [speed_probe(numpy, spec["probe"])]
    if args.mode == "run":
        try:
            t2, c2 = time.perf_counter(), time.process_time()
            outcome = run(condada, spec, args.seed, args.dir, prepared)
            result["wall_s"] = time.perf_counter() - t2
            result["cpu_s"] = time.process_time() - c2
            # Peak RSS so far: the workload's, before the checks read files back.
            result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        except Exception:  # any failure of the program is a failed operation, reported not raised
            result["error"] = traceback.format_exc()
            outcome = None
        if tracer is not None:
            tracer.uninstall()
            result["trace"] = tracer.to_dict()
        result["probe_s"].append(speed_probe(numpy, spec["probe"]))
        if outcome is not None:
            result["checks"], result["hashes"] = check(condada, spec, prepared, outcome)
            if spec["kind"] == "verify":
                result["units"] = spec["resamples"] * len(outcome["results"])
                result["quality"] = sum(c[1] is None for c in result["checks"]) / len(result["checks"])
            else:
                final = outcome["record"].epochs[-1]
                result["units"] = prepared["cfg"].total_steps
                result["acc_tgt"] = final.acc_tgt
                result["acc_src"] = final.acc_src
                result["quality"] = final.acc_src
                result["io_bytes"] = sum(os.path.getsize(os.path.join(outcome["out_dir"], f))
                                         for f in os.listdir(outcome["out_dir"]))
    with open(os.path.join(args.dir, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
