"""Simulator: determinism, failure policies, buffer discipline, the
exhaustive oracle, and the runtime monitors."""
import io
import json
import random

from magpi import parse
from magpi.cli import main
from magpi.proc import (Branch, Buffer, Endpoint, Inaction, Par, Process,
                        RecvArm, Restriction, canonical_process, is_inactive,
                        render_process)
from magpi.sim import (Config, FailureScenario, RELIABLE, Trace, TraceEvent,
                       UNRESTRICTED, enabled_steps,
                       exhaustive_small_step_oracle, mirror_on_context,
                       monitor_corollaries, run)
from magpi.types import END, Reliability, UNIT
from tests.conftest import fixture_text

CALM = FailureScenario()


def cfg(pf):
    return Config(pf.system_with_defs(), 0)


def ping_pf():
    return parse(fixture_text("ping"))


# -- determinism ----------------------------------------------------------------


def test_same_seed_same_trace():
    pf = ping_pf()
    t1 = run(cfg(pf), pf.reliability, RELIABLE, CALM, seed=11, max_steps=500)
    t2 = run(cfg(pf), pf.reliability, RELIABLE, CALM, seed=11, max_steps=500)
    assert [e.to_json() for e in t1.events] == [e.to_json() for e in t2.events]


def test_seeds_explore_different_schedules():
    pf = ping_pf()
    seen = {tuple(e.rule for e in run(cfg(pf), pf.reliability, RELIABLE, CALM,
                                      seed=s, max_steps=500).events)
            for s in range(20)}
    assert len(seen) > 1


# -- policy and scenario --------------------------------------------------------


def test_reliable_policy_never_drops_on_reliable_channel():
    # [DERIVED] p->r is reliable in the ping fixture: no R-drop event may
    # carry that channel even under a hostile drop table.
    pf = ping_pf()
    hostile = FailureScenario.from_json(
        {"drop": {"p->q": 0.9, "p->r": 0.9, "q->p": 0.9}})
    for seed in range(50):
        tr = run(cfg(pf), pf.reliability, RELIABLE, hostile, seed, 500)
        for e in tr.events:
            if e.rule == "R-drop":
                d = e.detail_dict()
                assert (d["from"], d["to"]) != ("p", "r"), seed


def test_unrestricted_policy_may_drop_anywhere():
    pf = ping_pf()
    hostile = FailureScenario.from_json({"drop": {"p->r": 1.0}})
    dropped = set()
    for seed in range(50):
        tr = run(cfg(pf), pf.reliability, UNRESTRICTED, hostile, seed, 500)
        for e in tr.events:
            if e.rule == "R-drop":
                d = e.detail_dict()
                dropped.add((d["from"], d["to"]))
    assert ("p", "r") in dropped


def test_crash_freezes_role():
    # After q crashes at step 0, q performs no further send/receive.
    pf = ping_pf()
    scen = FailureScenario.from_json({"crash": [{"role": "q", "at": 0}]})
    for seed in range(20):
        tr = run(cfg(pf), pf.reliability, RELIABLE, scen, seed, 500)
        for e in tr.events:
            if e.rule in ("R-send", "R-recv"):
                d = e.detail_dict()
                actor = d["from"] if e.rule == "R-send" else d["to"]
                assert actor != "q", (seed, e.to_json())


def test_crashed_ping_reaches_ko():
    # [PAPER] with q silent, p must time out three times and report ko.
    pf = ping_pf()
    scen = FailureScenario.from_json({"crash": [{"role": "q", "at": 0}]})
    for seed in range(10):
        tr = run(cfg(pf), pf.reliability, RELIABLE, scen, seed, 500)
        labels = [e.detail_dict().get("label") for e in tr.events]
        assert "ko" in labels and "ok" not in labels


# -- buffer discipline ----------------------------------------------------------


def _count_buffered(p: Process) -> int:
    if isinstance(p, Buffer):
        return len(p.entries)
    if isinstance(p, Par):
        return _count_buffered(p.left) + _count_buffered(p.right)
    if isinstance(p, Restriction):
        return _count_buffered(p.body)
    return 0


def test_buffer_count_matches_event_kind():
    # [DERIVED] sends grow a buffer by one; receives and drops shrink it;
    # every other rule leaves buffers unchanged.
    pf = ping_pf()
    scen = FailureScenario.from_json({"drop": {"p->q": 0.4}})
    delta = {"R-send": 1, "R-recv": -1, "R-drop": -1,
             "R-timeout": 0, "R-choice": 0, "R-call": 0}
    for seed in range(30):
        tr = run(cfg(pf), pf.reliability, RELIABLE, scen, seed, 500)
        for i, e in enumerate(tr.events):
            before = _count_buffered(tr.configs[i].process)
            after = _count_buffered(tr.configs[i + 1].process)
            assert after - before == delta[e.rule], e.to_json()


# -- exhaustive oracle ----------------------------------------------------------


def test_sampled_terminal_is_reachable_by_oracle():
    # [DERIVED] any terminal the sampler reaches must appear in the
    # exhaustive expansion.
    pf = ping_pf()
    c0 = cfg(pf)
    terminals = exhaustive_small_step_oracle(c0, pf.reliability, RELIABLE,
                                             CALM, depth=40)
    for seed in range(20):
        tr = run(c0, pf.reliability, RELIABLE, CALM, seed, 500)
        key = render_process(canonical_process(tr.terminal.process,
                                               CALM.reorder))
        assert key in terminals


def test_oracle_terminals_all_inactive_without_failures():
    # [DERIVED] independent breadth-first expansion over enabled_steps:
    # every quiescent process must be inactive and its canonical rendering
    # must be one of the oracle's terminals.
    pf = ping_pf()
    c0 = cfg(pf)
    oracle = exhaustive_small_step_oracle(c0, pf.reliability, RELIABLE,
                                          CALM, depth=40)
    assert oracle
    seen, frontier = set(), [c0.process]
    while frontier:
        proc = frontier.pop()
        key = render_process(canonical_process(proc, CALM.reorder))
        if key in seen:
            continue
        seen.add(key)
        steps = [s for s in enabled_steps(Config(proc, 0), pf.reliability,
                                          RELIABLE, CALM) if s.weight > 0]
        if not steps:
            assert is_inactive(proc), key
            assert key in oracle
        frontier.extend(s.process for s in steps)


# -- monitors -------------------------------------------------------------------


def test_monitors_quiet_on_well_typed_fixture():
    pf = ping_pf()
    scen = FailureScenario.from_json({"drop": {"p->q": 0.5}})
    for seed in range(30):
        tr = run(cfg(pf), pf.reliability, RELIABLE, scen, seed, 500)
        assert monitor_corollaries(tr, pf.reliability) == []


def _one_config_trace(proc: Process) -> Trace:
    c = Config(proc, 0)
    return Trace((), (c,), c, False)


def test_monitor_flags_unreliable_wait_without_timeout():
    # An ill-typed process: waiting on an unreliable peer with no timeout.
    proc = Restriction("s", (("p", END), ("q", END)), Par(
        Branch(Endpoint("s", "q"), (RecvArm("p", "a", "_", UNIT, Inaction()),),
               None),
        Buffer("s", ())))
    r = Reliability.of({"p": set(), "q": set()})
    violations = monitor_corollaries(_one_config_trace(proc), r)
    assert len(violations) == 1 and violations[0].kind == "Cor1"


def test_monitor_flags_timeout_on_reliable_wait():
    proc = Restriction("s", (("p", END), ("q", END)), Par(
        Branch(Endpoint("s", "q"), (RecvArm("p", "a", "_", UNIT, Inaction()),),
               Inaction()),
        Buffer("s", ())))
    r = Reliability.of({"p": set(), "q": {"p"}})
    violations = monitor_corollaries(_one_config_trace(proc), r)
    assert len(violations) == 1 and violations[0].kind == "Cor2"


# -- trace serialization ----------------------------------------------------------


def test_trace_json_lines_stable():
    pf = ping_pf()
    tr = run(cfg(pf), pf.reliability, RELIABLE, CALM, seed=4, max_steps=500)
    lines = tr.to_json_lines()
    assert lines == tr.to_json_lines()
    for line in lines.splitlines():
        doc = json.loads(line)
        assert {"step", "rule", "detail", "buffers"} <= set(doc)


# -- finished runs ------------------------------------------------------------------

_FINISHED_HEAD = """
protocol handoff
roles p, q
reliability { p: {q}, q: {p} }
type Sp @ p = q!a().end
type Sq @ q = p?a().end
"""


def _simulate_json(tmp_path, text):
    path = tmp_path / "handoff.magpi"
    path.write_text(text, encoding="utf-8")
    out = io.StringIO()
    assert main(["simulate", str(path), "--seed", "0", "--json"], out=out) == 0
    return json.loads(out.getvalue())


def test_finished_run_is_inactive_with_or_without_definitions(tmp_path):
    # A top-level `def` wraps the system in a definition; once the run is
    # over, the residue under it is inactive like that of its def-free twin.
    with_def = _FINISHED_HEAD + """
def P(c: Sp) = c!q:a().0
system = new s:{ p: Sp, q: Sq } in ( P(s[p]) | s[q]&{ p?a(). 0 } | s:[] )
"""
    inline = _FINISHED_HEAD + """
system = new s:{ p: Sp, q: Sq } in ( s[p]!q:a().0 | s[q]&{ p?a(). 0 } | s:[] )
"""
    for text in (with_def, inline):
        doc = _simulate_json(tmp_path, text)
        assert (doc["stuck"], doc["inactive"]) == (False, True), doc
