"""Smoke test of the benchmark's tracer: `bench/run.py --trace 1` wraps
magpi's module attributes by name, so every name it wraps must exist,
`restore` must put the originals back, and the wrapped functions must be
looked up when they are called.  Also smoke tests of
`scripts/ab_verify.py` and `scripts/ab_sim.py`, which read the verify and
simulate benchmarks' op mixes off `bench/`."""
import importlib.util
import io
import subprocess
import sys

import magpi.cli
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


def test_tracer_sees_every_check_and_exploration(monkeypatch):
    # The verify command must resolve the checks and `explore` on their
    # modules at call time, or the tracer's wrappers would miss them.  The
    # six-property op explores in verify and the safety-only op, settled
    # statically, explores for its stats in cli.
    monkeypatch.syspath_prepend(str(BENCH))
    run, tracer = _load(monkeypatch, "run"), _load(monkeypatch, "tracer").Tracer()
    mesh = str(ROOT / "tests" / "golden" / "mesh.magpi")
    run.install(tracer)
    try:
        for props in ("safety,comm-rf,deadlock,terminating,live,bounded", "safety"):
            magpi.cli.main(["verify", mesh, "--props", props, "--json"],
                           out=io.StringIO())
    finally:
        tracer.restore()
    calls = tracer.totals()[2]
    for name in [f"verify.{c}" for c in run.CHECKS] + ["verify.explore",
                                                         "cli.stats_explore"]:
        assert calls[name] > 0, name


def test_ab_verify_runs_one_round():
    # The A/B script against itself: it finds the op mix in bench/ and
    # every output of the two sides is the same.
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "ab_verify.py"),
                           "src", "src", "--rounds", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "outputs identical" in done.stdout


def test_ab_sim_runs_one_round():
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "ab_sim.py"),
                           "src", "src", "--rounds", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "traces and monitors identical" in done.stdout
    assert "steps/s" in done.stdout
