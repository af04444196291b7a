"""Conditional adversarial domain adaptation at desk scale: a small autodiff
tape, MLP players, multilinear/randomized conditioning, entropy reweighting,
the annealed minimax trainer, and the accompanying diagnostics.

The modules are the API (README, Layout); the top level holds only the six
names that ``perfbench/worker.py`` calls, and a test keeps the two equal."""

import ctypes
import glob
import os

import numpy as np

from .config import load_config
from .datagen import ShiftSpec, save_csv
from .networks import load_model
from .runner import run_experiment, verify_theorem1

__all__ = ["ShiftSpec", "load_config", "load_model", "run_experiment", "save_csv", "verify_theorem1"]


def _one_blas_thread() -> None:
    """Set numpy's bundled OpenBLAS to one thread: its threads spin between a
    step's small matmuls. A no-op where the library or its setter is missing."""
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas64_*")):
        set_threads = getattr(ctypes.CDLL(path), "scipy_openblas_set_num_threads64_", None)
        if set_threads is not None:
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            set_threads(1)


if "OPENBLAS_NUM_THREADS" not in os.environ and "OMP_NUM_THREADS" not in os.environ:
    _one_blas_thread()  # an explicit thread count from the user wins
