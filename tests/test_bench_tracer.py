"""Smoke test of the benchmark's tracer: `bench/run.py --trace 1` wraps
magpi's module attributes by name, so every name it wraps must exist, and
`restore` must put the originals back."""
import importlib.util
import sys

import magpi.context
import magpi.lts

from tests.test_golden import ROOT

BENCH = ROOT / "bench"


def _load(monkeypatch, name):
    """Import bench/<name>.py for the length of one test."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    run, tracer = _load(monkeypatch, "run"), _load(monkeypatch, "tracer").Tracer()
    before = {(m, a): getattr(m, a) for m, a in
              ((magpi.lts, "context_key"), (magpi.lts, "canonical_context"),
               (magpi.lts, "context_transitions"), (magpi.context, "canonical_context"))}
    run.install(tracer)
    try:
        assert all(getattr(m, a) is not fn for (m, a), fn in before.items())
    finally:
        tracer.restore()
    assert all(getattr(m, a) is fn for (m, a), fn in before.items())
