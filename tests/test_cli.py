"""Command-line usage errors: out-of-range numbers, scenarios that name
undeclared roles, unreadable inputs, unwritable output paths and unknown
properties are refused with exit code 3 and an error message, without a
traceback."""
import io
import json
import os
import subprocess
import sys

import pytest

from magpi.cli import EXIT_OK, EXIT_USAGE, build_parser, main
from tests.conftest import fixture_file
from tests.test_golden import ROOT


@pytest.mark.parametrize("argv", [
    ["verify", "--max-states", "0"],
    ["check", "--max-states", "0"],
    ["verify", "--bound", "-1"],
    ["simulate", "--steps", "-1"],
])
def test_out_of_range_number_is_a_usage_error(argv, capsys):
    code = main([argv[0], fixture_file("ping"), *argv[1:]], out=io.StringIO())
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"argument {argv[1]}: must be at least" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["verify", "--max-states", "1", "--props", "safety"],
    ["verify", "--bound", "0", "--props", "safety"],
    ["simulate", "--steps", "0"],
])
def test_lowest_allowed_number_runs(argv):
    assert main([argv[0], fixture_file("ping"), *argv[1:]],
                out=io.StringIO()) != EXIT_USAGE


@pytest.mark.parametrize("doc,unknown", [
    ({"crash": [{"role": "qq", "at": 0}], "drop": {"p->zz": 1.0}}, "'qq', 'zz'"),
    ({"links": [{"a": "p", "b": "x", "at": 2}]}, "'x'"),
    ({"partition": [{"a": ["p"], "b": ["q", "y"], "at": 0}]}, "'y'"),
], ids=["crash-and-drop", "links", "partition"])
def test_scenario_naming_undeclared_roles_is_refused(tmp_path, doc, unknown):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = io.StringIO()
    code = main(["simulate", fixture_file("ping"), "--scenario", str(path)],
                out=out)
    assert code == EXIT_USAGE
    assert out.getvalue() == f"error: bad scenario file: undeclared role(s) {unknown}\n"


def _refused(argv, capsys) -> str:
    """The one line a refused command prints; it must exit 3 without a
    traceback."""
    out = io.StringIO()
    assert main(argv, out=out) == EXIT_USAGE
    assert "Traceback" not in capsys.readouterr().err
    lines = out.getvalue().splitlines()
    assert len(lines) == 1
    return lines[0]


def test_non_utf8_input_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "binary.magpi"
    path.write_bytes(bytes(range(56, 256)))
    line = _refused(["check", str(path)], capsys)
    assert line.startswith(f"error [Usage] at 0:0: cannot read {path}: not UTF-8")


@pytest.mark.parametrize("argv,runs", [
    (["verify", "--props", "safety", "--dot"], ("magpi.cli.explore", "magpi.verify.explore")),
    (["simulate", "--steps", "5", "--trace"], ("magpi.cli.run",)),
], ids=["verify-dot", "simulate-trace"])
def test_unwritable_output_path_is_a_usage_error(tmp_path, capsys, monkeypatch,
                                                 argv, runs):
    # The path is refused before anything is explored or simulated.
    calls = []
    for name in runs:
        monkeypatch.setattr(name, lambda *args, **kwargs: calls.append(name))
    path = tmp_path / "missing" / "out"
    line = _refused([argv[0], fixture_file("ping"), *argv[1:], str(path)], capsys)
    assert line == f"error [Usage] at 0:0: cannot write {path}: No such file or directory"
    assert calls == []


def test_unknown_property_is_refused_before_any_check(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr("magpi.verify.check_safety", fail)
    line = _refused(["verify", fixture_file("ping"), "--props", "safety,bogus"],
                    capsys)
    assert line == ("error: unknown property 'bogus' (expected one of safety, "
                    "comm-rf, deadlock, terminating, live, never, tcp, bounded)")


def test_dot_skipped_on_exceeded_graph_says_so(tmp_path, capsys):
    # stdout and the exit code are those of a run without --dot; one line
    # on stderr names the path and the limit, and no file is left behind.
    path = tmp_path / "lts.dot"
    argv = ["verify", fixture_file("leader"), "--max-states", "50"]
    plain, with_dot = io.StringIO(), io.StringIO()
    code = main(argv, out=plain)
    capsys.readouterr()
    assert main(argv + ["--dot", str(path)], out=with_dot) == code == 2
    assert with_dot.getvalue() == plain.getvalue()
    assert capsys.readouterr().err == (f"warning: {path} not written: exploration "
                                       "stopped at the maxStates limit 50\n")
    assert not path.exists()


def test_output_path_check_leaves_existing_file_and_no_new_one(tmp_path):
    old = tmp_path / "old.dot"
    old.write_text("kept", encoding="utf-8")
    fresh = tmp_path / "fresh.dot"
    for path in (old, fresh):
        main(["verify", fixture_file("leader"), "--max-states", "50",
              "--dot", str(path)], out=io.StringIO())
    assert old.read_text(encoding="utf-8") == "kept"
    assert not fresh.exists()


def test_parser_is_shared_without_carrying_options_over(monkeypatch):
    # The argument parser is built once per process; each call must still
    # start from the defaults.
    seen = []
    monkeypatch.setattr("magpi.cli.cmd_verify",
                        lambda args, out: seen.append(vars(args)) or 0)
    path = fixture_file("ping")
    assert main(["verify", path, "--bound", "2", "--mode", "tcp"]) == 0
    assert main(["verify", path]) == 0
    assert (seen[0]["bound"], seen[0]["mode"]) == (2, "tcp")
    assert seen[1] == vars(build_parser().parse_args(["verify", path]))
    assert (seen[1]["bound"], seen[1]["mode"]) == (0, "total")
    assert main(["--help"]) == EXIT_OK
    assert main(["verify", path, "--no-such-option"]) == EXIT_USAGE
    assert main(["verify", path]) == 0
    assert seen[2] == seen[1]


def test_unguarded_payload_type_is_refused_at_once(tmp_path):
    # `resolve` never returns on an unguarded type, so a `rec t. t` payload
    # that reached the typechecker would hang it; the parser refuses it.
    path = tmp_path / "payload.magpi"
    path.write_text("protocol t\nroles p, q\nreliability { p: {q}, q: {p} }\n"
                    "type Sp @ p = q!a(rec t. t).end\n"
                    "type Sq @ q = p?a(rec t. t).end\n"
                    "system = new s:{ p: Sp, q: Sq } in\n"
                    "  ( s[p]!q:a(s[q]).0 | s[q]&{ p?a(y: rec t. t).0 } | s:[] )\n",
                    encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "magpi.cli", "check", str(path)],
                          env=env, capture_output=True, text=True, timeout=10)
    assert done.returncode == EXIT_USAGE, done.stdout + done.stderr
    assert done.stdout.count("[UnguardedRecursion]") == 3
