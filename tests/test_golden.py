"""The byte contract as a table: each case below runs the program as a user
would, and the sha256 of every output file, ``repr(dist_a)`` and the
verifier's rows must equal the committed ``tests/golden.json``. One ulp moved
anywhere in a case's arithmetic fails here.

The bytes depend on the numpy and BLAS builds and on the CPU's kernels, so the
table stores the fingerprint it was made on, and on any other fingerprint the
test skips with a message that names the difference. They do not depend on
the BLAS thread count.

A change that moves bytes on purpose regenerates the table, and lists the
moved cases in CHANGES.md; the table's diff is the record:

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import glob
import hashlib
import io
import json
import os
import pathlib
import platform
import sys
import tempfile

import numpy as np
import pytest

from condada.cli import main
from condada.config import load_config
from condada.datagen import ShiftSpec, generate, save_csv
from condada.runner import run_experiment, verify_theorem1

TABLE = pathlib.Path(__file__).resolve().parent / "golden.json"
RUN_FILES = ("metrics.csv", "model.txt", "features.csv")

# name -> (seed, config key/value pairs) of a `condada run`
STEPS = {"train.total_steps": "200"}
RANDOMIZED = {**STEPS, "entropy": "true", "conditioning.threshold": "1"}
RUNS = {
    "source_only": (0, {**STEPS, "strategy": "feature_only", "schedule.lambda": "0"}),
    "dann": (0, {**STEPS, "strategy": "feature_only"}),
    "dann_g": (0, {**STEPS, "strategy": "prediction_only"}),
    "dann_fg": (0, {**STEPS, "strategy": "concat"}),
    "cdan": (0, STEPS),
    "cdan_e": (0, {**STEPS, "entropy": "true"}),
    "cdan_e_randomized_gaussian": (1, RANDOMIZED),
    "cdan_e_randomized_uniform": (1, {**RANDOMIZED, "conditioning.sampler": "uniform"}),
    "cdan_e_randomized_normalized": (1, {**RANDOMIZED, "conditioning.normalize_features": "true"}),
    "batch_size_1": (0, {"train.total_steps": "30", "train.batch_size": "1"}),
    # Both the classifier's and D's losses read probabilities below LOG_CLAMP.
    "log_clamp": (0, {"train.total_steps": "150", "schedule.eta0": "0.3"}),
}
REEXPORTED = "cdan_e_randomized_uniform"  # its model.txt carries the projection
COMPARE = ["--variants", "source_only,cdan_e@uniform", "--seeds", "0,2",
           "--train.total_steps", "60", "--conditioning.threshold", "1"]
SAVED_SET = {"generator": "twin_moons_shift", "n_classes": 2, "seed": 5}  # a ShiftSpec
VERIFIER = ([64, 256], 1000, ["gaussian", "uniform"], 3)
CASES = (*RUNS, "export_features", "compare", "save_csv", "verify_theorem1")


def flags(pairs: dict) -> list[str]:
    return [text for key, value in pairs.items() for text in (f"--{key}", value)]


def cli(argv: list[str]) -> None:
    if main(argv) != 0:
        raise RuntimeError(f"condada {' '.join(argv)} failed")


def sha256(path) -> str:
    return hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()


def fingerprint() -> dict:
    """What the bytes depend on: numpy and the SIMD kernels it dispatches to,
    the BLAS build and the core kernels it picked at run time, and the CPU."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    blas = blas.get("openblas configuration", f"{blas['name']} {blas['version']}")
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas64_*")):
        get_config = getattr(ctypes.CDLL(path), "scipy_openblas_get_config64_", None)
        if get_config is not None:
            get_config.argtypes, get_config.restype = [], ctypes.c_char_p
            blas = get_config().decode()
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    return {"numpy": np.__version__, "simd": " ".join(config["SIMD Extensions"]["found"]), "blas": blas, "cpu": cpu}


def produce(work: pathlib.Path) -> dict:
    """Run every case under ``work`` and return its entry of the table."""
    got = {}
    with contextlib.redirect_stdout(io.StringIO()):
        for name, (seed, pairs) in RUNS.items():
            out = work / name
            record = run_experiment(load_config(None, pairs), seed, out)
            got[name] = {"argv": " ".join(["run", "--seed", str(seed), *flags(pairs)]),
                         **{f: sha256(out / f) for f in RUN_FILES}, "dist_a": repr(record.a_distance)}

        seed, pairs = RUNS[REEXPORTED]
        argv = ["export-features", "--seed", str(seed), *flags(pairs)]
        cli([*argv, "--out", str(work / REEXPORTED), "--output", str(work / "reexport.csv")])
        got["export_features"] = {"argv": " ".join(argv), "features.csv": sha256(work / "reexport.csv")}

        argv = ["compare", *COMPARE]
        cli([*argv, "--out", str(work / "compare")])
        got["compare"] = {"argv": " ".join(argv), "summary.csv": sha256(work / "compare" / "summary.csv")}

    save_csv(generate(ShiftSpec(**SAVED_SET))[0], work / "saved.csv")
    got["save_csv"] = {"argv": f"save_csv of the source set of ShiftSpec(**{SAVED_SET!r})",
                       "saved.csv": sha256(work / "saved.csv")}

    results, _ = verify_theorem1(*VERIFIER)
    got["verify_theorem1"] = {"argv": f"verify_theorem1{VERIFIER!r}",
                              "rows": [repr(dataclasses.astuple(r)) for r in results]}
    return got


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    table = json.loads(TABLE.read_text())
    here = fingerprint()
    moved = {key: (table["fingerprint"].get(key), value) for key, value in here.items()
             if table["fingerprint"].get(key) != value}
    if moved:
        pytest.skip("golden table made on another build or machine: " + "; ".join(
            f"{key} {was!r} there, {now!r} here" for key, (was, now) in moved.items()))
    return table["cases"], produce(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("case", CASES)
def test_every_byte_equals_the_golden_table(produced, case):
    table, got = produced
    assert got[case] == table[case]


def test_the_table_holds_exactly_the_cases():
    assert sorted(json.loads(TABLE.read_text())["cases"]) == sorted(CASES)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: PYTHONPATH=src python {sys.argv[0]} --write")
    with tempfile.TemporaryDirectory() as work:
        cases = produce(pathlib.Path(work))
    TABLE.write_text(json.dumps({"fingerprint": fingerprint(), "cases": cases}, indent=1) + "\n")
    print(f"wrote {len(cases)} cases to {TABLE}")
