"""Every JSON document the command line writes validates against its schema
in `docs/schema/`: typing reports (`check --json`), property results
(`verify --json`), simulation results (`simulate --json`) and trace events
(`simulate --trace`), and the `lts-export` JSON of explored graphs."""
import io
import json
import os
import tempfile

import jsonschema
import pytest

from magpi.cli import main
from tests.test_golden import FILES, ROOT, _commands, lts_export_text

FIXTURES = ("ping", "dns", "leader")


def validator(name: str):
    with open(ROOT / "docs" / "schema" / name, encoding="utf-8") as fh:
        schema = json.load(fh)
    jsonschema.Draft202012Validator.check_schema(schema)
    return jsonschema.Draft202012Validator(schema)


def cli_json(*argv) -> dict:
    out = io.StringIO()
    main([*argv, "--json"], out=out)
    return json.loads(out.getvalue())


def errors(schema: str, doc) -> list:
    return [e.message for e in validator(schema).iter_errors(doc)]


@pytest.mark.parametrize("name", FIXTURES)
def test_check_report_validates(name):
    doc = cli_json("check", str(ROOT / "fixtures" / f"{name}.magpi"))
    assert errors("typing-report.json", doc) == []


VERIFY = [
    ("verify", "fixtures/ping.magpi",
     "--props", "safety,comm-rf,terminating,live", "--bound", "4"),
    ("verify", "fixtures/ping.magpi",
     "--props", "safety,comm-rf,terminating,live", "--bound", "1"),
    ("verify", "fixtures/dns.magpi"),
    ("verify", "fixtures/leader.magpi", "--props", "safety"),
] + [argv[:-1] for argv in _commands() if argv[-1] == "--json"]


@pytest.mark.parametrize("argv", VERIFY, ids=" ".join)
def test_verify_result_validates(argv):
    doc = cli_json(argv[0], str(ROOT / argv[1]), *argv[2:])
    assert errors("properties-result.json", doc) == []


@pytest.mark.parametrize("name,argv", [
    ("ping", ("--seed", "7")),
    ("dns", ("--seed", "3", "--steps", "400")),
])
def test_simulate_result_validates(name, argv):
    # the `simulate --json` commands of acceptance criterion 10
    doc = cli_json("simulate", str(ROOT / "fixtures" / f"{name}.magpi"), *argv)
    assert errors("simulate-result.json", doc) == []


@pytest.mark.parametrize("name,argv", [
    ("ping", ("--seed", "7")),
    ("dns", ("--seed", "3", "--steps", "400")),
])
def test_simulate_trace_events_validate(name, argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.jsonl")
        cli_json("simulate", str(ROOT / "fixtures" / f"{name}.magpi"),
                 *argv, "--trace", path)
        with open(path, encoding="utf-8") as fh:
            events = [json.loads(line) for line in fh]
    assert events
    v = validator("trace-event.json")
    assert [e.message for ev in events for e in v.iter_errors(ev)] == []


@pytest.mark.parametrize("f", FILES)
def test_lts_export_validates(f):
    assert errors("lts-export.json", json.loads(lts_export_text(f))) == []
