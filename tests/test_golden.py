"""Golden `magpi check`, `magpi verify` and `magpi simulate` outputs: every
command below must print exactly the bytes (and exit with the code) recorded
in `golden/check.json`, `golden/verify.json` or `golden/simulate.json`, a
`--dot` run must write
exactly the recorded graph, a scenario run exactly the recorded output and
JSONL trace, and the `lts-export` JSON of each input must be the recorded
text (graphs, scenario runs and traces are recorded by SHA-256).  The
verify records were made with the verifier that explored a fresh graph for
every property, so they pin the verdicts, witnesses, `minimalK` and stats
of the shared-graph verifier to the old ones, but for the witnesses that
a verifier exploring each linked component alone gives by design: the
golden mesh's `never`, one path per component joined, and mesh_loop's
`terminating`, the looping component's own lasso, which were regenerated
then.  The `explored_safety`
records, the one input whose static safety fails so that the typecheck gate
explores, were made while the gate still explored its own graph, so they
pin the gate and `verify` sharing one graph to that.  The simulate records were
made with the simulator that rewrote the process tree for every enabled
step, so they pin the seeded runs of the one that rewrites only the step
it takes.  The check records were made with the typechecker that routed an
unused endpoint to the side of a `|` that is not buffers only and checked a
buffer's leftovers by a loop of its own, so they pin each accepted input's
verdict and rule trace under the one leftover rule.

Regenerate (only when a change of output is intended) with
`PYTHONPATH=src python3 tests/test_golden.py`.
"""
import hashlib
import io
import json
import os
import pathlib
import tempfile

import pytest

from magpi import parse
from magpi.cli import initial_context, main
from magpi.lts import ExploreLimits, explore, export_lts

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "verify.json"
GOLDEN_SIM = ROOT / "tests" / "golden" / "simulate.json"
GOLDEN_CHECK = ROOT / "tests" / "golden" / "check.json"

ALL = "safety,comm-rf,deadlock,terminating,live,never,tcp,bounded"
NO_BOUNDED = "safety,comm-rf,deadlock,terminating,live,never,tcp"
FILES = ("fixtures/ping.magpi", "fixtures/dns.magpi",
         "tests/golden/mesh.magpi", "tests/golden/mesh_loop.magpi",
         "tests/golden/explored_safety.magpi")
SIM_FILES = ("fixtures/ping.magpi", "fixtures/dns.magpi",
             "fixtures/leader.magpi", "tests/golden/mesh.magpi",
             "tests/golden/mesh_loop.magpi")
SIM_STEPS = "150"
CHECK_FILES = SIM_FILES + ("tests/golden/explored_safety.magpi",)
# a `check --json` output longer than this is recorded by its digest
CHECK_VERBATIM = 8192


def _commands() -> list:
    out = []
    for f in FILES:
        out += [
            ("verify", f, "--json"),
            ("verify", f, "--props", ALL, "--json"),
            ("verify", f, "--props", ALL, "--mode", "tcp", "--json"),
            ("verify", f, "--props", NO_BOUNDED, "--bound", "1", "--json"),
            ("verify", f, "--props", "deadlock,live", "--mode", "tcp",
             "--bound", "1", "--json"),
            ("verify", f, "--props", "bounded", "--bound", "2", "--json"),
            ("verify", f, "--props", "safety", "--json"),
            ("verify", f, "--props", "comm-rf,tcp", "--mode", "tcp", "--json"),
            ("verify", f, "--props", ALL),
        ]
        out += [("verify", f, "--props", NO_BOUNDED, "--bound", k, "--mode", m,
                 "--json") for k in ("2", "3") for m in ("total", "tcp")]
    return out


# The criterion-10 simulate commands, with and without --json.
SIM_COMMANDS = [
    ("simulate", "fixtures/ping.magpi", "--seed", "7", "--json"),
    ("simulate", "fixtures/dns.magpi", "--seed", "3", "--steps", "400", "--json"),
    ("simulate", "fixtures/ping.magpi", "--seed", "7"),
    ("simulate", "fixtures/dns.magpi", "--seed", "3", "--steps", "400"),
]


def scenario(kind: str, roles: list, reorder: str) -> dict:
    """A drop/crash/link/partition scenario over a protocol's sorted roles."""
    a, b = roles[0], roles[1]
    doc = {
        "drop": {"drop": {f"{x}->{y}": 0.3 for x in roles for y in roles
                          if x != y}, "delayBias": 0.3},
        "crash": {"drop": {f"{a}->{b}": 0.2}, "crash": [{"role": a, "at": 3}]},
        "link": {"drop": {f"{b}->{a}": 0.3}, "links": [{"a": a, "b": b, "at": 2}]},
        "partition": {"partition": [{"a": roles[:1], "b": roles[1:], "at": 4}]},
    }[kind]
    return dict(doc, reorder=reorder)


def _sim_grid() -> list:
    """(file, kind, reorder, policy, seed) of each scenario run."""
    grid = [(f, kind, reorder, policy)
            for f in SIM_FILES for reorder in ("total", "tcp")
            for kind in ("drop", "crash", "link", "partition")
            for policy in ("reliable", "unrestricted")]
    return [cell + (seed,) for seed, cell in enumerate(grid)]


def sim_key(cell) -> str:
    return " ".join(map(str, cell))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run(argv) -> dict:
    """Exit code and stdout of one command."""
    argv = list(argv)
    argv[1] = str(ROOT / argv[1])
    out = io.StringIO()
    code = main(argv, out=out)
    return {"exit": code, "stdout": out.getvalue()}


def run_check(f: str) -> dict:
    """Exit code and stdout of `check --json`; a long stdout (`leader`'s
    rule trace) by its digest."""
    got = run(("check", f, "--json"))
    if len(got["stdout"]) > CHECK_VERBATIM:
        got["stdout"] = digest(got["stdout"])
    return got


def run_dot(f: str) -> dict:
    """Exit code and stdout of a `--dot` run, and the digest of the graph
    it writes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "lts.dot")
        out = io.StringIO()
        code = main(["verify", str(ROOT / f), "--dot", path, "--json"], out=out)
        with open(path, encoding="utf-8") as fh:
            dot = fh.read()
    return {"exit": code, "stdout": out.getvalue(), "dot": digest(dot)}


def run_scenario(cell) -> dict:
    """Exit code of `simulate --json --trace` under one scenario, and the
    digests of its stdout and of the trace it writes (a `leader` terminal
    renders to about 240 kB)."""
    f, kind, reorder, policy, seed = cell
    roles = sorted(parse((ROOT / f).read_text(encoding="utf-8")).roles)
    with tempfile.TemporaryDirectory() as tmp:
        spath = os.path.join(tmp, "scenario.json")
        tpath = os.path.join(tmp, "trace.jsonl")
        with open(spath, "w", encoding="utf-8") as fh:
            json.dump(scenario(kind, roles, reorder), fh)
        out = io.StringIO()
        code = main(["simulate", str(ROOT / f), "--scenario", spath,
                     "--policy", policy, "--seed", str(seed),
                     "--steps", SIM_STEPS, "--json", "--trace", tpath], out=out)
        with open(tpath, encoding="utf-8") as fh:
            trace = fh.read()
    return {"exit": code, "stdout": digest(out.getvalue()),
            "trace": digest(trace)}


def lts_export_text(f: str) -> str:
    pf = parse((ROOT / f).read_text(encoding="utf-8"))
    g0, session = initial_context(pf)
    return export_lts(explore(g0, {session}, pf.reliability, ExploreLimits()),
                      "json")


def record() -> dict:
    doc = {" ".join(argv): run(argv) for argv in _commands()}
    doc.update({f"dot {f}": run_dot(f) for f in FILES})
    doc.update({f"lts-export {f}": digest(lts_export_text(f)) for f in FILES})
    return doc


def record_simulate() -> dict:
    doc = {" ".join(argv): run(argv) for argv in SIM_COMMANDS}
    doc.update({sim_key(cell): run_scenario(cell) for cell in _sim_grid()})
    return doc


def record_check() -> dict:
    return {f"check {f} --json": run_check(f) for f in CHECK_FILES}


@pytest.fixture(scope="module")
def golden_check():
    with open(GOLDEN_CHECK, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def golden_sim():
    with open(GOLDEN_SIM, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("f", CHECK_FILES)
def test_check_output_is_byte_identical(golden_check, f):
    assert run_check(f) == golden_check[f"check {f} --json"]


@pytest.mark.parametrize("argv", _commands(), ids=" ".join)
def test_verify_output_is_byte_identical(golden, argv):
    assert run(argv) == golden[" ".join(argv)]


@pytest.mark.parametrize("f", FILES)
def test_dot_export_is_byte_identical(golden, f):
    assert run_dot(f) == golden[f"dot {f}"]


@pytest.mark.parametrize("f", FILES)
def test_lts_export_is_byte_identical(golden, f):
    assert digest(lts_export_text(f)) == golden[f"lts-export {f}"]


@pytest.mark.parametrize("argv", SIM_COMMANDS, ids=" ".join)
def test_simulate_output_is_byte_identical(golden_sim, argv):
    assert run(argv) == golden_sim[" ".join(argv)]


@pytest.mark.parametrize("cell", _sim_grid(), ids=sim_key)
def test_simulate_scenario_run_is_byte_identical(golden_sim, cell):
    assert run_scenario(cell) == golden_sim[sim_key(cell)]


if __name__ == "__main__":
    for path, doc in ((GOLDEN_CHECK, record_check()), (GOLDEN, record()),
                      (GOLDEN_SIM, record_simulate())):
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
        print(f"wrote {path}")
