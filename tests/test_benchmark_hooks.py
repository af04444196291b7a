"""The names the benchmark reaches into: every boundary that
perfbench/tracing.py rebinds exists, and the package's top level exports
exactly the names perfbench calls on it, so a deletion that removes a traced
layer or a called name, or leaves a stale export, fails here."""

import ast
import importlib.util
import pathlib
import pkgutil

import condada
import condada.networks as N

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_boundary_exists_and_uninstall_restores_it():
    tracing = load_tracing()
    original = N.forward_F
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
        assert N.forward_F is not original
    finally:
        tracer.uninstall()
    assert N.forward_F is original
    assert len(tracer.wrapped) == len(tracing.BOUNDARIES)


def test_every_exported_name_resolves():
    missing = [name for name in condada.__all__ if not hasattr(condada, name)]
    assert missing == []


def test_the_top_level_exports_exactly_what_perfbench_calls():
    submodules = {module.name for module in pkgutil.iter_modules(condada.__path__)}
    called = set()
    for path in PERFBENCH.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "condada":
                called.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module == "condada":
                called.update(alias.name for alias in node.names)
    assert called - submodules == set(condada.__all__)
