"""Per-layer spans and tensor-op counts, recorded from outside the package.

``Tracer.install`` rebinds each boundary function of ``condada`` to a wrapper
that records a span per call, in every ``condada`` module namespace that holds
a reference to it (callers reach these through ``T.``/``N.``/``C.``/``O.``/``A.``
lookups or through ``from .x import f`` copies, so both kinds are rebound).
Public tensor ops get a cheaper wrapper that only counts calls. ``uninstall``
puts every original back. A boundary that no longer exists is skipped and
reported as absent, so a refactor that deletes a layer shows in the report
instead of crashing the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

# (module, attribute) of each traced boundary; "Class.method" for methods.
BOUNDARIES = (
    ("condada.tensor", "backward"),
    ("condada.networks", "forward_F"),
    ("condada.networks", "forward_G"),
    ("condada.networks", "forward_D"),
    ("condada.networks", "save_model"),
    ("condada.networks", "load_model"),
    ("condada.conditioning", "condition"),
    ("condada.conditioning", "sample_projection"),
    ("condada.objectives", "cdan_step_losses"),
    ("condada.objectives", "cross_entropy"),
    ("condada.objectives", "entropy_weight"),
    ("condada.objectives", "adversarial_losses"),
    ("condada.optim", "SgdMomentum.step"),
    ("condada.runner", "run_experiment"),
    ("condada.runner", "train"),
    ("condada.runner", "verify_theorem1"),
    ("condada.analysis", "proxy_a_distance"),
    ("condada.analysis", "export_features"),
    ("condada.analysis", "theorem1_verify"),
    ("condada.serialize", "write_arrays"),
    ("condada.serialize", "read_arrays"),
    ("condada.datagen", "generate"),
    ("condada.datagen", "load_csv"),
    ("condada.datagen", "save_csv"),
    ("condada.datagen", "batch_iter"),
    ("condada.cli", "main"),
)

# Tensor-op calls are counted per region: the region of the innermost open
# span, inherited from its parent unless the span opens a region of its own.
REGIONS = {
    "objectives.cdan_step_losses": "step",
    "analysis.proxy_a_distance": "adist",
    "analysis.export_features": "export",
    "analysis.theorem1_verify": "verify",
}
EVAL_PARENT = "runner.train"  # forwards called directly by the trainer are its evaluation
STEP_FIRST = "objectives.cdan_step_losses"
STEP_LAST = "optim.step"


def span_name(module: str, attr: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    """Spans aggregated by (name, parent name) into [calls, total_s, self_s]."""

    def __init__(self):
        self.spans: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.ops: dict[str, int] = defaultdict(int)
        self.step_ms: list[float] = []
        self.wrapped: list[str] = []
        self.absent: list[str] = []
        self._stack: list[list] = []  # open spans: [name, child_s, region]
        self._step_start: float | None = None
        self._op_depth = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for module_name, attr in BOUNDARIES:
            name = span_name(module_name, attr)
            try:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self._span(name, original)
            if inspect.isclass(owner):
                self._patch(owner, leaf, wrapper)
            else:
                self._rebind(original, wrapper)
            self.wrapped.append(name)

        tensor = importlib.import_module("condada.tensor")
        for attr, fn in list(vars(tensor).items()):
            if (inspect.isfunction(fn) and fn.__module__ == tensor.__name__
                    and not attr.startswith("_") and attr != "backward"):
                self._rebind(fn, self._counter(fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _rebind(self, original, replacement) -> None:
        for module_name, module in list(sys.modules.items()):
            if module is None or (module_name != "condada" and not module_name.startswith("condada.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, key, replacement)

    # -- wrappers -----------------------------------------------------------

    def _open(self, name: str) -> tuple[list, str]:
        parent = self._stack[-1] if self._stack else None
        parent_name = parent[0] if parent else ""
        region = REGIONS.get(name)
        if region is None:
            if parent_name == EVAL_PARENT and name.startswith("networks.forward_"):
                region = "eval"
            else:
                region = parent[2] if parent else "other"
        frame = [name, 0.0, region]
        self._stack.append(frame)
        return frame, parent_name

    def _close(self, frame: list, parent_name: str, start: float, end: float) -> None:
        self._stack.pop()
        total = end - start
        record = self.spans[(frame[0], parent_name)]
        record[0] += 1
        record[1] += total
        record[2] += total - frame[1]
        if self._stack:
            self._stack[-1][1] += total

    def _span(self, name: str, fn):
        clock = time.perf_counter

        if inspect.isgeneratorfunction(fn):
            # A generator does its work on each resume, so each resume is a span.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    frame, parent_name = self._open(name)
                    start = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(frame, parent_name, start, clock())
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame, parent_name = self._open(name)
            start = clock()
            if name == STEP_FIRST:
                self._step_start = start
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                self._close(frame, parent_name, start, end)
                if name == STEP_LAST and self._step_start is not None:
                    self.step_ms.append((end - self._step_start) * 1e3)
                    self._step_start = None

        return wrapper

    def _counter(self, fn):
        # Only the outermost public op counts: tmean calling tsum is one call.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op_depth:
                return fn(*args, **kwargs)
            self._op_depth = 1
            self.ops[self._stack[-1][2] if self._stack else "other"] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._op_depth = 0

        return wrapper

    # -- results ------------------------------------------------------------

    def zero_call_boundaries(self) -> list[str]:
        seen = {name for name, _ in self.spans}
        return [name for name in self.wrapped if name not in seen]

    def to_dict(self) -> dict:
        return {
            "spans": [[name, parent, *rec] for (name, parent), rec in sorted(self.spans.items())],
            "ops": dict(self.ops),
            "step_ms": self.step_ms,
            "absent": self.absent,
            "zero_calls": self.zero_call_boundaries(),
        }
