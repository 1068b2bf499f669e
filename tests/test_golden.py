"""Golden `magpi verify` outputs: every command below must print exactly the
bytes (and exit with the code) recorded in `golden/verify.json`, a `--dot`
run must write exactly the recorded graph, and the `lts-export` JSON of
each input must be the recorded text (graphs are recorded by SHA-256).  The records were made
with the verifier that explored a fresh graph for every property, so they
pin the verdicts, witnesses, `minimalK` and stats of the shared-graph
verifier to the old ones.

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

ALL = "safety,comm-rf,deadlock,terminating,live,never,tcp,bounded"
NO_BOUNDED = "safety,comm-rf,deadlock,terminating,live,never,tcp"
FILES = ("fixtures/ping.magpi", "fixtures/dns.magpi",
         "tests/golden/mesh.magpi", "tests/golden/mesh_loop.magpi")


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
    return out


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run(argv) -> dict:
    """Exit code and stdout of one command."""
    argv = list(argv)
    argv[1] = str(ROOT / argv[1])
    out = io.StringIO()
    code = main(argv, out=out)
    return {"exit": code, "stdout": out.getvalue()}


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


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("argv", _commands(), ids=" ".join)
def test_verify_output_is_byte_identical(golden, argv):
    assert run(argv) == golden[" ".join(argv)]


@pytest.mark.parametrize("f", FILES)
def test_dot_export_is_byte_identical(golden, f):
    assert run_dot(f) == golden[f"dot {f}"]


@pytest.mark.parametrize("f", FILES)
def test_lts_export_is_byte_identical(golden, f):
    assert digest(lts_export_text(f)) == golden[f"lts-export {f}"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {GOLDEN}")
