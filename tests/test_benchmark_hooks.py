"""The names the benchmark reaches into: every boundary that
perfbench/tracing.py rebinds exists, and every exported name resolves, so a
deletion that removes a traced layer or leaves a stale export fails here."""

import importlib.util
import pathlib

import condada
import condada.networks as N

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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
