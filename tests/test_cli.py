"""Command-line usage errors: out-of-range numbers and scenarios that name
undeclared roles are refused with exit code 3, before any work is done."""
import io
import json

import pytest

from magpi.cli import EXIT_USAGE, main
from tests.conftest import fixture_file


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
