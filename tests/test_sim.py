"""Simulator: determinism, failure policies, buffer discipline, the
exhaustive oracle, and the runtime monitors."""
import importlib.util
import io
import itertools
import json
import pathlib
import random
import re
import sys
from dataclasses import replace
from functools import cached_property

import pytest

import magpi.proc as P
from magpi import parse, sim, typecheck_file
from magpi.cli import initial_context, main
from magpi.lts import ExploreLimits
from magpi.proc import (Branch, Buffer, Endpoint, Inaction, Par, Process,
                        RecvArm, Restriction, canonical_process, render_process)
from magpi.sim import (Config, FailureScenario, RELIABLE, Trace, TraceEvent,
                       UNRESTRICTED, enabled_steps, monitor_corollaries, run)
from magpi.types import END, Reliability, UNIT, buffer_heads
from magpi.verify import HOLDS, check_deadlock_free
from tests.conftest import fixture_file, fixture_text
from tests.oracles import (copying_subst, detail_dict, exhaustive_small_step_oracle,
                           free_vars, is_inactive, node_values, subterms)
from tests.test_golden import scenario as golden_scenario

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
                d = detail_dict(e)
                assert (d["from"], d["to"]) != ("p", "r"), seed


def test_unrestricted_policy_may_drop_anywhere():
    pf = ping_pf()
    hostile = FailureScenario.from_json({"drop": {"p->r": 1.0}})
    dropped = set()
    for seed in range(50):
        tr = run(cfg(pf), pf.reliability, UNRESTRICTED, hostile, seed, 500)
        for e in tr.events:
            if e.rule == "R-drop":
                d = detail_dict(e)
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
                d = detail_dict(e)
                actor = d["from"] if e.rule == "R-send" else d["to"]
                assert actor != "q", (seed, e.to_json())


def test_crashed_ping_reaches_ko():
    # [PAPER] with q silent, p must time out three times and report ko.
    pf = ping_pf()
    scen = FailureScenario.from_json({"crash": [{"role": "q", "at": 0}]})
    for seed in range(10):
        tr = run(cfg(pf), pf.reliability, RELIABLE, scen, seed, 500)
        labels = [detail_dict(e).get("label") for e in tr.events]
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
        c = Config(proc, 0)
        steps = [s for s in enabled_steps(c, pf.reliability, RELIABLE, CALM)
                 if s.weight > 0]
        if not steps:
            assert c.inactive and is_inactive(proc), key
            assert key in oracle
        frontier.extend(s.process for s in steps)


@pytest.mark.parametrize("name", ["ping", "dns", "leader"])
def test_inactive_is_the_structural_walk(name):
    # [DERIVED] `Config.inactive` reads the running thread heads; the
    # structural walk it replaced must agree on every configuration a
    # faulty run passes through, under both policies.
    pf = parse(fixture_text(name))
    doc = golden_scenario("crash", sorted(pf.roles), "tcp")
    seen = 0
    for policy in (RELIABLE, UNRESTRICTED):
        for seed in range(10):
            tr = run(cfg(pf), pf.reliability, policy,
                     FailureScenario.from_json(doc), seed, 200)
            for c in tr.configs + [tr.terminal]:
                assert c.inactive == is_inactive(c.process), render_process(c.process)
                seen += 1
    assert seen > 100


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


# The monitors judge the threads that wait now.  A branching that would
# violate Cor1 if it were a head, placed anywhere below a thread head, is not
# flagged: it is checked once a step makes it a head (the tests above flag
# it at a head).

_R_UNRELIABLE = Reliability.of({"p": set(), "q": set()})


def _cor1_branch() -> Branch:
    return Branch(Endpoint("s", "q"), (RecvArm("p", "a", "_", UNIT, Inaction()),),
                  None)


def _in_session(thread: Process) -> Process:
    return Restriction("s", (("p", END), ("q", END)),
                       Par(thread, Buffer("s", ())))


def _waiting(arm_cont, timeout):
    # A well-placed wait: q awaits an unreliable p and has a timeout.
    return Branch(Endpoint("s", "q"), (RecvArm("p", "b", "_", UNIT, arm_cont),),
                  timeout)


@pytest.mark.parametrize("place", [
    lambda b: _waiting(b, Inaction()),
    lambda b: _waiting(Inaction(), b),
    lambda b: P.Choice(b, Inaction()),
    lambda b: P.Send(Endpoint("s", "p"), "q", "a", P.UNIT_VAL, b),
    lambda b: P.Def("D", (), b, Inaction()),
], ids=["arm", "timeout", "choice", "send", "def-body"])
def test_monitors_skip_branchings_below_thread_heads(place):
    proc = _in_session(place(_cor1_branch()))
    assert monitor_corollaries(_one_config_trace(proc), _R_UNRELIABLE) == []


_UNTAKEN_ARM = """
protocol probe
roles p, q, r
reliability { p: {q}, q: {p} }
type Sp @ p = q!a().end
type Sq @ q = &{ p?a(). end, p?b(). &{ r?c(). end } }
type Sr @ r = end
system = new s:{ p: Sp, q: Sq, r: Sr } in
  ( s[p]!q:a().0 | s[q]&{ p?a(). 0, p?b(). s[q]&{ r?c(). 0 } } | 0 | s:[] )
"""


def test_untaken_arm_is_not_monitored(tmp_path):
    # q would wait on the unreliable r without a timeout only after `b`,
    # which p never sends: the run is clean.
    doc = _simulate_json(tmp_path, _UNTAKEN_ARM)
    assert (doc["monitors"], doc["inactive"]) == ([], True)


# -- trace serialization ----------------------------------------------------------


def test_trace_json_lines_stable():
    pf = ping_pf()
    tr = run(cfg(pf), pf.reliability, RELIABLE, CALM, seed=4, max_steps=500)
    lines = tr.to_json_lines()
    assert lines == tr.to_json_lines()
    for line in lines.splitlines():
        doc = json.loads(line)
        assert {"step", "rule", "detail", "buffers"} <= set(doc)


def _channels(entries) -> dict:
    """(sender, recipient) -> the rendered entries of that channel, in order."""
    out = {}
    for e in entries:
        out.setdefault((e.frm, e.to), []).append(
            f"{e.label}({P.render_value(e.value)})")
    return out


def test_tcp_terminal_keeps_each_channel_in_order(tmp_path):
    # Under TcpFifo a channel's order is observable, so `simulate` prints
    # the terminal's buffers in that order.  The golden crash scenario of
    # leader, at seed 42, leaves q->p holding rv and hb interleaved.
    pf = parse(fixture_text("leader"))
    doc = golden_scenario("crash", sorted(pf.roles), "tcp")
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = io.StringIO()
    main(["simulate", fixture_file("leader"), "--scenario", str(path),
          "--policy", "reliable", "--seed", "42", "--steps", "300", "--json"],
         out=out)
    printed = json.loads(out.getvalue())["terminal"]
    trace = run(cfg(pf), pf.reliability, RELIABLE, FailureScenario.from_json(doc),
                seed=42, max_steps=300)
    buffers = [q for q in subterms(trace.terminal.process) if isinstance(q, Buffer)]
    assert len(buffers) == 1
    text = printed[printed.index(f"{buffers[0].session}:[") + 3:]
    shown = {}
    for entry in text[:text.index("]")].split(", "):  # leader sends only ()
        frm, to, message = re.fullmatch(r"\((\w+),(\w+)\)!(.*)", entry).groups()
        shown.setdefault((frm, to), []).append(message)
    kept = _channels(buffers[0].entries)
    assert shown == kept
    assert kept[("q", "p")] != sorted(kept[("q", "p")])  # the order matters


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


# -- failures the reliability map allows ------------------------------------------
#
# [PAPER] A well-typed system whose typing context is deadlock-free does not
# get stuck under the failures its reliability map allows: a role may only
# wait forever on a role that crashed.  A scenario is map-consistent when it
# crashes only roles that no role trusts, fails links only between two roles
# that trust neither way and partitions only where no trusting pair crosses
# the cut; drops may hit any pair, and the reliable policy discards those on
# trusted pairs.  A run is judged by the threads of
# its terminal configuration, not by `stuck`, which also counts a crashed
# role's frozen thread.  The runs that end before their step budget end
# within 20 steps; the others (mesh_loop's) are not judged.


def _scenarios(pf, consistent: bool) -> list:
    """The map-consistent scenarios over pf's roles: drops on every pair,
    alone, with each untrusted role crashing at steps 0, 1, 3 and 6, with
    each link between two roles that trust neither way failing, and with
    each partition that no trusting pair crosses.  Or the inconsistent
    ones: drops on every pair with each trusted role crashing at step 3,
    or with each link of a trusting pair failing."""
    r, roles = pf.reliability, sorted(pf.roles)
    trusted = {x for y in roles for x in r.get(y)}
    drops = {"drop": {f"{a}->{b}": 0.3 for a in roles for b in roles if a != b}}
    pairs = [(a, b) for i, a in enumerate(roles) for b in roles[i + 1:]]
    trusting = [(a, b) for a, b in pairs if r.reliable(a, b) or r.reliable(b, a)]
    if consistent:
        crashes = [(x, at) for x in roles if x not in trusted for at in (0, 1, 3, 6)]
        links = [ab for ab in pairs if ab not in trusting]
        cuts = [side for n in range(1, len(roles))
                for side in itertools.combinations(roles, n) if roles[0] in side
                and not any((a in side) != (b in side) for a, b in trusting)]
        docs = [drops] + [dict(drops, partition=[
            {"a": list(side), "b": [x for x in roles if x not in side], "at": 1}])
            for side in cuts]
    else:
        crashes = [(x, 3) for x in sorted(trusted)]
        links, docs = trusting, []
    docs += [dict(drops, crash=[{"role": x, "at": at}]) for x, at in crashes]
    docs += [dict(drops, links=[{"a": a, "b": b, "at": 1}]) for a, b in links]
    return [FailureScenario.from_json(d) for d in docs]


def _left_waiting(pf, scenario, tr) -> list:
    """The roles that have not crashed and still hold a thread when the run
    ended with no step to take; [] if it ended on its step budget."""
    end = tr.terminal
    if any(s.weight > 0.0 for s in enabled_steps(end, pf.reliability, RELIABLE, scenario)):
        return []
    return [q.ch.role for _, q, _ in end.running[0] if not isinstance(q, Inaction)
            and not scenario.crashed(q.ch.role, end.step_count)]


def test_only_a_crashed_role_is_waited_on_forever():
    judged, control = [], {}
    for name in ("ping", "dns", "leader", "mesh", "mesh_loop", "explored_safety"):
        pf = parse(protocol_text(name))
        g0, session = initial_context(pf)
        if not (typecheck_file(pf).accepted and check_deadlock_free(
                g0, {session}, pf.reliability, ExploreLimits()).status == HOLDS):
            continue
        judged.append(name)
        for scen in _scenarios(pf, consistent=True):
            for seed in range(20):
                tr = run(cfg(pf), pf.reliability, RELIABLE, scen, seed, 100)
                assert _left_waiting(pf, scen, tr) == [], (name, scen, seed)
        control[name] = sum(
            bool(_left_waiting(pf, scen, run(cfg(pf), pf.reliability, RELIABLE,
                                             scen, seed, 100)))
            for scen in _scenarios(pf, consistent=False) for seed in range(5))
    # leader's deadlock freedom is inconclusive within the default limits
    assert judged == ["ping", "dns", "mesh", "mesh_loop", "explored_safety"]
    # Failures the map rules out do leave live roles waiting.  mesh_loop's
    # looping role can always time out, so its runs end on the step budget.
    del control["mesh_loop"]
    assert all(control.values()), control


# -- enabled steps against the eager rewrite ------------------------------------
#
# `_reference_steps` is the simulator that built the rewritten process of
# every enabled step up front (two rewrites for a send or a receive: the
# thread, then the buffer, read back out of the rewritten tree).  The
# simulator now describes each step by its edits and builds the process only
# when a step is taken; both must list the same steps, in the same order,
# leading to the same processes.


def _ref_rebuild(p, path, new):
    if not path:
        return new
    i, rest = path[0], path[1:]
    if isinstance(p, P.Send):
        return replace(p, cont=_ref_rebuild(p.cont, rest, new))
    if isinstance(p, P.Branch):
        if i < len(p.arms):
            arms = list(p.arms)
            arms[i] = replace(arms[i], cont=_ref_rebuild(arms[i].cont, rest, new))
            return replace(p, arms=tuple(arms))
        return replace(p, timeout=_ref_rebuild(p.timeout, rest, new))
    if isinstance(p, (P.Choice, P.Par)):
        if i == 0:
            return replace(p, left=_ref_rebuild(p.left, rest, new))
        return replace(p, right=_ref_rebuild(p.right, rest, new))
    if isinstance(p, P.Restriction):
        return replace(p, body=_ref_rebuild(p.body, rest, new))
    if i == 0:
        return replace(p, body=_ref_rebuild(p.body, rest, new))
    return replace(p, cont=_ref_rebuild(p.cont, rest, new))


def _ref_get(p, path):
    for i in path:
        p = P.children(p)[i]
    return p


def _ref_sites(root):
    sites, buffers = [], {}

    def walk(p, path, env):
        if isinstance(p, P.Buffer):
            buffers[p.session] = path
            sites.append((path, p, env))
        elif isinstance(p, P.Def):
            walk(p.cont, path + (1,), {**env, p.name: (p.params, p.body)})
        else:
            sites.append((path, p, env))
            if isinstance(p, (P.Par, P.Restriction)):
                for i, c in enumerate(P.children(p)):
                    walk(c, path + (i,), env)

    walk(root, (), {})
    return sites, buffers


def _ref_detail(e, session):
    return (("from", e.frm), ("label", e.label), ("session", session),
            ("to", e.to), ("value", P.render_value(e.value)))


def _reference_steps(c, r, policy, scenario):
    """[(rule, detail, weight, process)] of every enabled step."""
    root, step = c.process, c.step_count
    sites, buffers = _ref_sites(root)
    heads = {path: buffer_heads(P.buffer_keys(node.entries), scenario.reorder)
             for path, node, _ in sites if isinstance(node, P.Buffer)}
    frozen = scenario.freeze_crashed
    out = []
    for path, node, env in sites:
        if isinstance(node, P.Send) and isinstance(node.ch, P.Endpoint):
            s, role = node.ch.session, node.ch.role
            if (scenario.crashed(role, step) and frozen) or s not in buffers:
                continue
            new = _ref_rebuild(root, path, node.cont)
            buf = _ref_get(new, buffers[s])
            e = P.BufMsg(role, node.to, node.label, node.value)
            new = _ref_rebuild(new, buffers[s],
                               replace(buf, entries=buf.entries + (e,)))
            out.append(("R-send", _ref_detail(e, s), 1.0, new))
        elif isinstance(node, P.Branch) and isinstance(node.ch, P.Endpoint):
            s, role = node.ch.session, node.ch.role
            if scenario.crashed(role, step) and frozen:
                continue
            bpath = buffers.get(s)
            entries = () if bpath is None else _ref_get(root, bpath).entries
            matched = False
            for i in heads.get(bpath, ()):
                e = entries[i]
                if e.to != role:
                    continue
                for arm in node.arms:
                    if arm.frm != e.frm or arm.label != e.label:
                        continue
                    matched = True
                    new = _ref_rebuild(root, path,
                                       P.subst(arm.cont, {arm.var: e.value}))
                    buf = _ref_get(new, bpath)
                    new = _ref_rebuild(new, bpath, replace(
                        buf, entries=buf.entries[:i] + buf.entries[i + 1:]))
                    out.append(("R-recv", _ref_detail(e, s), 1.0, new))
            if node.timeout is not None and (policy == UNRESTRICTED
                                             or r.needs_timeout(role, node.arms)):
                out.append(("R-timeout", (("role", role), ("session", s)),
                            scenario.delay_bias if matched else 1.0,
                            _ref_rebuild(root, path, node.timeout)))
        elif isinstance(node, P.Choice):
            out.append(("R-choice", (("side", "left"),), 1.0,
                        _ref_rebuild(root, path, node.left)))
            out.append(("R-choice", (("side", "right"),), 1.0,
                        _ref_rebuild(root, path, node.right)))
        elif isinstance(node, P.Call) and node.name in env:
            params, body = env[node.name]
            sub = {v: a for (v, _), a in zip(params, node.args)}
            out.append(("R-call", (("name", node.name),), 1.0,
                        _ref_rebuild(root, path, P.subst(body, sub))))
        elif isinstance(node, P.Buffer):
            for i in heads[path]:
                e = node.entries[i]
                forced = (scenario.crashed(e.frm, step)
                          or scenario.link_failed(e.frm, e.to, step))
                if policy == RELIABLE and r.reliable(e.frm, e.to) and not forced:
                    continue
                w = 1.0 if forced else scenario.drop_prob(e.frm, e.to)
                out.append(("R-drop", _ref_detail(e, node.session), w,
                            _ref_rebuild(root, path, replace(
                                node, entries=node.entries[:i] + node.entries[i + 1:]))))
    out.sort(key=lambda s: (s[0], s[1]))
    return out


GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"


def protocol_text(name: str) -> str:
    """A fixture, or one of the golden meshes."""
    golden = GOLDEN_DIR / f"{name}.magpi"
    if golden.exists():
        return golden.read_text(encoding="utf-8")
    return fixture_text(name)


@pytest.mark.parametrize("reorder", ["total", "tcp"])
@pytest.mark.parametrize("name", ["dns", "leader", "mesh", "mesh_loop", "ping"])
def test_enabled_steps_match_the_eager_reference(name, reorder):
    pf = parse(protocol_text(name))
    roles = sorted(pf.roles)
    drops = {f"{a}->{b}": 0.3 for a in roles for b in roles if a != b}
    scenarios = [
        FailureScenario.from_json({"drop": drops, "reorder": reorder}),
        FailureScenario.from_json({"drop": drops, "reorder": reorder,
                                   "crash": [{"role": roles[0], "at": 4}]}),
    ]
    steps = 40 if name == "leader" else 120
    checked = 0
    for scen in scenarios:
        for seed in range(3):
            policy = (RELIABLE, UNRESTRICTED)[seed % 2]
            tr = run(cfg(pf), pf.reliability, policy, scen, seed, steps)
            for c in tr.configs:
                got = [(s.rule, s.detail, s.weight, s.process)
                       for s in enabled_steps(c, pf.reliability, policy, scen)]
                assert got == _reference_steps(c, pf.reliability, policy, scen)
                checked += len(got)
    assert checked > 0


def test_run_rewrites_only_the_step_it_takes(monkeypatch):
    # One `_rebuild` descent per step taken, whatever the step's edits (a
    # send or a receive edits the thread and the buffer), and none for the
    # steps only enabled.
    pf = parse(fixture_text("dns"))
    rewrites = 0
    rebuild = sim._rebuild

    def counting(root, edits):
        nonlocal rewrites
        rewrites += 1
        return rebuild(root, edits)

    monkeypatch.setattr(sim, "_rebuild", counting)
    scen = FailureScenario.from_json({"drop": {"c->dns": 0.3, "dns->c": 0.3}})
    for seed in range(5):
        rewrites = 0
        tr = run(cfg(pf), pf.reliability, UNRESTRICTED, scen, seed, 300)
        assert tr.events
        assert {"R-send", "R-recv"} <= {e.rule for e in tr.events}, seed
        assert rewrites == len(tr.events), seed


def test_only_the_taken_step_substitutes(monkeypatch):
    pf = parse(fixture_text("leader"))
    calls, substitutions, depth = 0, 0, 0
    subst = P.subst

    def counting(p, sub):
        nonlocal calls, substitutions, depth
        calls += depth == 0
        substitutions += depth == 0 and bool(sub)
        depth += 1
        try:
            return subst(p, sub)
        finally:
            depth -= 1

    monkeypatch.setattr(P, "subst", counting)
    traces, taken = [], 0
    for policy in (RELIABLE, UNRESTRICTED):
        for seed in range(6):
            tr = run(cfg(pf), pf.reliability, policy, CALM, seed, 300)
            traces.append((policy, tr))
            taken += sum(e.rule in ("R-recv", "R-call") for e in tr.events)
    # One substitution per R-recv or R-call taken; the other edits' maps
    # are empty.
    assert substitutions == taken == 2108
    calls = 0
    for policy, tr in traces:
        for c in tr.configs:
            enabled_steps(c, pf.reliability, policy, CALM)
    assert calls == 0


def _variables(p: Process) -> set:
    """Every variable name p binds or uses."""
    names = set()
    for q in subterms(p):
        names |= {v.name for v in node_values(q) if isinstance(v, P.Var)}
        if isinstance(q, P.Branch):
            names |= {a.var for a in q.arms}
        elif isinstance(q, P.Def):
            names |= {v for v, _ in q.params}
    return names


def test_subst_copies_only_what_it_changes():
    # `subst` against the substitution that copies every node: the same
    # result, and the very same object wherever no substituted variable
    # occurs free, on every subterm of the fixtures and golden inputs, under
    # a substitution of each of their variables, of all of them at once and
    # of a variable they never name.
    shared = changed = 0
    for name in ("ping", "dns", "leader", "mesh", "mesh_loop", "explored_safety"):
        pf = parse(protocol_text(name))
        for top in [d.body for d in pf.proc_defs] + [pf.system]:
            names = sorted(_variables(top))
            value = Endpoint("fresh", "p")
            subs = [{x: value} for x in names + ["unnamed"]]
            subs.append({x: P.Lit("int", i) for i, x in enumerate(names)})
            for q in subterms(top):
                free = free_vars(q)
                for sub in subs:
                    got = P.subst(q, sub)
                    assert got == copying_subst(q, sub), (name, sub)
                    if free.isdisjoint(sub):
                        assert got is q, (name, sub)
                        shared += 1
                    else:
                        assert got != q, (name, sub)
                        changed += 1
    assert shared > 1000 and changed > 100, (shared, changed)


def test_each_configuration_is_walked_once(monkeypatch):
    # The steps, the buffer digest and the monitors share one walk of each
    # stored configuration.
    walked = []
    walk = Config.running.func

    def counting(c):
        walked.append(c)
        return walk(c)

    running = cached_property(counting)
    running.__set_name__(Config, "running")
    monkeypatch.setattr(Config, "running", running)
    for name in ("ping", "dns", "leader", "mesh", "mesh_loop"):
        pf = parse(protocol_text(name))
        roles = sorted(pf.roles)
        drops = FailureScenario.from_json(
            {"drop": {f"{a}->{b}": 0.3 for a in roles for b in roles if a != b}})
        for policy in (RELIABLE, UNRESTRICTED):
            for scen in (CALM, drops):
                walked.clear()
                tr = run(cfg(pf), pf.reliability, policy, scen, 3, 60)
                monitor_corollaries(tr, pf.reliability)
                assert len(walked) == len(tr.configs) > 1, (name, policy)
                assert {id(c) for c in walked} == {id(c) for c in tr.configs}


SIM_DIGEST = "04f1df4944f4a6c15153cab269fc9b174b1168237e4e8aa520c07029ac383aef"


def test_simulator_digest_is_pinned(monkeypatch):
    # Every trace, verdict, terminal and monitor output of the 720 runs of
    # `scripts/sim_digest.py` is the same as when the digest was pinned.
    root = pathlib.Path(__file__).resolve().parent.parent
    monkeypatch.setattr(sys, "path", sys.path[:])  # the script prepends to it
    spec = importlib.util.spec_from_file_location("sim_digest",
                                                  root / "scripts" / "sim_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.digest() == (SIM_DIGEST, 720)
