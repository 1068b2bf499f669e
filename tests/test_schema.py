"""Every JSON document the command line writes validates against its schema
in `docs/schema/`: typing reports (`check --json`), property results
(`verify --json`), simulation results (`simulate --json`) and trace events
(`simulate --trace`), and the `lts-export` JSON of explored graphs.  The one
document it reads, a failure scenario, is refused unless it validates."""
import importlib.util
import io
import json
import os
import random
import tempfile

import jsonschema
import pytest

from magpi import parse
from magpi.cli import main
from magpi.sim import FailureScenario
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


# -- scenario files ------------------------------------------------------------

SCHEMA_INVALID_SCENARIOS = [
    {"drop": {"p->q": 7}},
    {"drop": {"p->q": -0.1}},
    {"drop": {"p->q": "0.5"}},
    {"drop": {"p->q": True}},
    {"drop": [["p->q", 0.5]]},
    {"reorder": "fifo"},
    {"partitions": [{"a": ["p"], "b": ["q"], "at": 0}]},
    {"crash": [{"role": "q"}]},
    {"crash": [{"role": "q", "at": "3"}]},
    {"crash": [{"role": "q", "at": 1.5}]},
    {"crash": [{"role": "q", "at": False}]},
    {"crash": {"role": "q", "at": 0}},
    {"links": [{"a": "p", "at": 0}]},
    {"links": [{"a": "p", "b": 2, "at": 0}]},
    {"partition": [{"a": "p", "b": ["q"], "at": 0}]},
    {"partition": [{"a": ["p"], "b": [1], "at": 0}]},
    {"delayBias": -1},
    {"delayBias": "0.5"},
    {"freezeCrashed": "yes"},
    {"freezeCrashed": 1},
    [],
    "drop",
]
# The schema leaves the form of a drop key to its description ('from->to').
MALFORMED_DROP_KEYS = [{"drop": {"pq": 0.5}}, {"drop": {"p->q->r": 0.5}},
                       {"drop": {"->q": 0.5}}]
# Numbers that JSON can spell but a float cannot hold: `1e400` reads as inf,
# which makes every weighted choice pick the last step.
NON_FINITE = [{"delayBias": 1e400}, {"delayBias": 10 ** 400},
              {"crash": [{"role": "q", "at": 10 ** 400}]}]


def _bench_scenarios() -> list:
    """The failure scenarios the benchmark generates, in both reorder modes."""
    spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    rng = random.Random(0)
    docs = []
    for name in FIXTURES:
        roles = list(parse((ROOT / "fixtures" / f"{name}.magpi")
                           .read_text(encoding="utf-8")).roles)
        for reorder in ("total", "tcp"):
            for _ in range(10):
                docs.append(dict(gen.fault_scenario(rng, roles), reorder=reorder))
    return docs


@pytest.mark.parametrize("doc,schema_valid,loads", [
    *((doc, False, False) for doc in SCHEMA_INVALID_SCENARIOS),
    *((doc, True, False) for doc in MALFORMED_DROP_KEYS),
    *((doc, True, True) for doc in _bench_scenarios()),
    *((doc, True, False) for doc in NON_FINITE),
])
def test_scenario_file_loads_only_if_it_validates(tmp_path, doc, schema_valid, loads):
    assert (errors("scenario.json", doc) == []) == schema_valid
    if loads:
        FailureScenario.from_json(doc)
        return
    with pytest.raises(ValueError):
        FailureScenario.from_json(doc)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = io.StringIO()
    code = main(["simulate", str(ROOT / "fixtures" / "ping.magpi"),
                 "--scenario", str(path), "--steps", "5"], out=out)
    assert (code, out.getvalue().startswith("error: bad scenario file")) == (3, True)
