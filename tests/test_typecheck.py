"""Typechecker: fixture acceptance, targeted rejections, linearity, and
verdicts that do not depend on how a protocol is written."""
import itertools
import sys
from dataclasses import replace

import pytest

from magpi import parse, parse_process_text, parse_session_text, typecheck_file
from magpi import proc as P
from magpi.cli import initial_context
from magpi.context import TypeContext
from magpi.lts import ExploreLimits
from magpi.sim import RELIABLE, Config, FailureScenario, run
from magpi.typecheck import Checker, typecheck
from magpi.types import (Basic, BufEntry, Reliability, SessionBufferType,
                         UNIT)
from magpi.verify import HOLDS, check_deadlock_free
from tests import oracles
from tests.conftest import fixture_text, mesh_sources
from tests.test_golden import FILES, ROOT


def check_text(source: str):
    return typecheck_file(parse(source))


def codes(report):
    return {d.code for d in report.failures}


HEADER = "protocol t\nroles p, q, r\nreliability { p: {q}, q: {p} }\n"

SIMPLE = HEADER + """
type Sp @ p = q!a(int).end
type Sq @ q = p?a(int).end
system =
  new s:{ p: Sp, q: Sq } in
  ( s[p]!q:a(7).0 | s[q]&{ p?a(x:int).0 } | s:[] )
"""


def test_package_attribute_typecheck_is_the_submodule():
    # The package re-exports no function named `typecheck`, which would
    # shadow the submodule of that name.
    import magpi
    import magpi.typecheck as tc
    assert tc is sys.modules["magpi.typecheck"] is magpi.typecheck
    assert tc.typecheck_file is typecheck_file and tc.typecheck is typecheck


@pytest.mark.parametrize("name", ["ping", "dns", "leader"])
def test_fixtures_accepted(name):
    # [PAPER] the worked examples are well-typed.
    report = typecheck_file(parse(fixture_text(name)))
    assert report.verdict == "accepted", [d.render() for d in report.failures]


def test_simple_exchange_accepted():
    assert check_text(SIMPLE).verdict == "accepted"


def test_payload_mismatch_rejected():
    bad = SIMPLE.replace("s[p]!q:a(7).0", "s[p]!q:a(true).0")
    report = check_text(bad)
    assert report.verdict == "rejected"
    assert "PayloadMismatch" in codes(report)


def test_wrong_label_rejected():
    bad = SIMPLE.replace("s[p]!q:a(7).0", "s[p]!q:b(7).0")
    report = check_text(bad)
    assert report.verdict == "rejected"
    assert "MissingSelectArm" in codes(report)


def test_arm_set_must_match_exactly():
    bad = SIMPLE.replace("s[q]&{ p?a(x:int).0 }",
                         "s[q]&{ p?a(x:int).0, p?b(y:int).0 }")
    report = check_text(bad)
    assert report.verdict == "rejected"
    assert "ArmMismatch" in codes(report)


def test_missing_timeout_arm_rejected():
    # The type requires a timeout continuation on an unreliable wait.
    src = HEADER + """
type Sp @ p = r!a().end
type Sr @ r = &{ p?a().end, timeout. end }
system =
  new s:{ p: Sp, r: Sr } in
  ( s[p]!r:a().0 | s[r]&{ p?a().0 } | s:[] )
"""
    report = check_text(src)
    assert report.verdict == "rejected"
    assert "MissingTimeoutArm" in codes(report)


def test_unexpected_timeout_arm_rejected():
    src = SIMPLE.replace("s[q]&{ p?a(x:int).0 }",
                         "s[q]&{ p?a(x:int).0, timeout. 0 }")
    report = check_text(src)
    assert report.verdict == "rejected"
    assert "UnexpectedTimeoutArm" in codes(report)


def test_unfinished_endpoint_rejected():
    bad = SIMPLE.replace("s[p]!q:a(7).0 | s[q]&{ p?a(x:int).0 }",
                         "0 | s[q]&{ p?a(x:int).0 }")
    report = check_text(bad)
    assert report.verdict == "rejected"


def test_endpoint_used_twice_rejected():
    bad = SIMPLE.replace("s[q]&{ p?a(x:int).0 }",
                         "s[q]&{ p?a(x:int).0 } | s[p]!q:a(8).0")
    report = check_text(bad)
    assert report.verdict == "rejected"
    assert "LinearityViolation" in codes(report)


def test_a_linearity_fault_does_not_cascade():
    # A binding used on both sides of `|` is reported there once, and each
    # side is handed it, so no use of it is reported as an unknown channel.
    endpoint = SIMPLE.replace("s[q]&{ p?a(x:int).0 }",
                              "s[q]&{ p?a(x:int).0 } | s[q]&{ p?a(y:int).0 }")
    variable = SIMPLE.replace("system =", "def X(c: Sp) = ( c!q:a(1).0 | c!q:a(2).0 )\n"
                              "system =").replace("s[p]!q:a(7).0", "X(s[p])")
    for source, (line, col) in ((endpoint, (9, 43)), (variable, (7, 29))):
        report = check_text(source)
        assert [(d.code, d.span.line, d.span.col) for d in report.failures] == [
            ("LinearityViolation", line, col)], [d.render() for d in report.failures]


def test_safety_gate_on_restriction():
    # [DERIVED] deleting the timeout arm from an unreliable wait makes the
    # restriction's context unsafe (a wait that a drop can strand), which
    # the restriction rule must surface as a safety failure.
    src = HEADER + """
type Sp @ p = r!a().end
type Sr @ r = &{ p?a().end }
system =
  new s:{ p: Sp, r: Sr } in
  ( s[p]!r:a().0 | s[r]&{ p?a().0 } | s:[] )
"""
    report = check_text(src)
    assert report.verdict == "rejected"
    assert any(c.startswith("SafetyUndetermined") for c in codes(report))


def test_initial_buffer_typed():
    src = HEADER + """
type Sq @ q = p?a(int).end
system =
  new s:{ q: Sq } in
  ( s[q]&{ p?a(x:int).0 } | s:[ (p,q)!a(3) ] )
"""
    assert check_text(src).verdict == "accepted"


def test_initial_buffer_payload_mismatch():
    src = HEADER + """
type Sq @ q = p?a(int).end
system =
  new s:{ q: Sq } in
  ( s[q]&{ p?a(x:int).0 } | s:[ (p,q)!a(true) ] )
"""
    report = check_text(src)
    assert report.verdict == "rejected"


def test_delegation_accepted():
    # Sending an endpoint as a payload transfers the linear binding.
    # r waits without a timeout, so r must treat p as reliable.
    src = "protocol t\nroles p, q, r\nreliability { p: {q}, q: {p}, r: {p} }\n" + """
type Sp @ p = q!deleg(r!go().end).end
type Sq @ q = p?deleg(r!go().end).end
type Tr @ r = p?go().end
system =
  new t:{ p: r!go().end, r: Tr } in
  new s:{ p: Sp, q: Sq } in
  ( s[p]!q:deleg(t[p]).0
  | s[q]&{ p?deleg(c: r!go().end). c!r:go().0 }
  | t[r]&{ p?go().0 }
  | s:[] | t:[] )
"""
    report = check_text(src)
    assert report.verdict == "accepted", [d.render() for d in report.failures]


def test_report_json_shape():
    report = check_text(SIMPLE)
    doc = report.to_json()
    assert doc["verdict"] == "accepted"
    assert doc["failures"] == []
    assert all({"rule", "span"} <= set(e) for e in doc["trace"])


# -- demands of a parallel composition -----------------------------------------

# A restriction and a definition under a Par: the restricted session's buffer
# and the definition's parameters are bound there, and must not show in the
# demands of the Pars above them.
NESTED_BINDERS = HEADER + """
type Sp @ p = q!a(int).end
type Sq @ q = p?a(int).end
system =
  new s:{ p: Sp, q: Sq } in
  ( (new u:{ p: Sp, q: Sq } in ( u[p]!q:a(1).0 | u[q]&{ p?a(x:int).0 } | u:[] ))
  | (def X(c: Sp, n: int) = c!q:a(n).0 in X(s[p], 5))
  | s[q]&{ p?a(y:int).0 }
  | s:[] )
"""


def _typechecked_sources(monkeypatch) -> list:
    """The sources the other tests of this module typecheck, rejected ones
    included, recorded while running them."""
    seen = []

    def recording(source):
        seen.append(source)
        return typecheck_file(parse(source))

    module = sys.modules[__name__]
    monkeypatch.setattr(module, "check_text", recording)
    for name, test in vars(module).copy().items():
        if name.startswith("test_") and test.__code__.co_argcount == 0:
            test()
    return seen


def _demand_sets(q: P.Process) -> tuple:
    eps, bufs, free = P.demands(q)
    return set(eps), {b.session for b in bufs}, set(free)


def test_par_demands_are_the_union_of_their_sides(monkeypatch):
    sources = [(ROOT / f).read_text(encoding="utf-8") for f in FILES]
    sources += [fixture_text("leader"), NESTED_BINDERS]
    sources += [text for _, text in mesh_sources()]
    sources += _typechecked_sources(monkeypatch)
    pars = defs = 0
    for source in sources:
        pf = parse(source)
        checker = Checker(pf.reliability)
        for top in [d.body for d in pf.proc_defs] + [pf.system]:
            for q in oracles.subterms(top):
                # each list of `demands` is that of the walker it replaced
                eps, bufs, free = P.demands(q)
                assert eps == oracles.endpoints(q), source
                assert [b.session for b in bufs] == oracles.buffer_sessions(q), source
                assert set(free) == oracles.free_vars(q), source
                if isinstance(q, P.Def) and (oracles.endpoints(q.body)
                                             or oracles.buffer_sessions(q.body)):
                    defs += 1
                if isinstance(q, P.Par):
                    assert checker.demands(q) == _demand_sets(q), source
                    assert Checker(pf.reliability).demands(q) == _demand_sets(q), source
                    pars += 1
    assert pars > 50
    assert defs >= 2  # `def` bodies holding an enclosing session's endpoint or buffer
    _, bufs, free = _demand_sets(parse(NESTED_BINDERS).system.body)
    assert bufs == {"s"}
    assert not free & {"c", "n", "x", "y"}


def _channel_case(var=None, endpoint=None):
    """A context binding x to `var` and s[p] to `endpoint`, each a session
    type text, a Basic or a SessionBufferType."""
    def bind(v):
        return parse_session_text(v, roles={"p", "q"}) if isinstance(v, str) else v
    return TypeContext.of({} if var is None else {"x": bind(var)},
                          {} if endpoint is None else {("s", "p"): endpoint})


_BUFFER_ONLY = SessionBufferType((BufEntry("q", "a", UNIT),), None)
_AT_BRANCH = SessionBufferType((), parse_session_text("&{ q?a().end }", roles={"p", "q"}))
_AT_SELECT = SessionBufferType((), parse_session_text("q!a().end", roles={"p", "q"}))
_SEND, _RECV = "x!q:a().0", "x&{ q?a().0 }"


@pytest.mark.parametrize("source, g, diagnostic", [
    (_SEND, _channel_case(), "[UnknownChannel] at 1:1: channel x has no session type"),
    (_SEND, _channel_case(var=Basic("int")),
     "[UnknownChannel] at 1:1: channel x has no session type"),
    (_SEND.replace("x", "s[p]"), _channel_case(),
     "[UnknownChannel] at 1:1: channel s[p] has no session type"),
    (_SEND.replace("x", "s[p]"), _channel_case(endpoint=_BUFFER_ONLY),
     "[UnknownChannel] at 1:1: channel s[p] has no session type"),
    (_SEND.replace("x", "s[p]"), _channel_case(endpoint=_AT_BRANCH),
     "[ChannelTypeMismatch] at 1:1: channel s[p] is not at a selection "
     "(type &{ q?a(unit). end })"),
    (_SEND, _channel_case(var="&{ q?a().end }"),
     "[ChannelTypeMismatch] at 1:1: channel x is not at a selection "
     "(type &{ q?a(unit). end })"),
    (_RECV, _channel_case(), "[UnknownChannel] at 1:1: channel x has no session type"),
    (_RECV, _channel_case(var="q!a().end"),
     "[ChannelTypeMismatch] at 1:1: channel x is not at a branching "
     "(type q!a(unit). end)"),
    (_RECV.replace("x", "s[p]"), _channel_case(endpoint=_AT_SELECT),
     "[ChannelTypeMismatch] at 1:1: channel s[p] is not at a branching "
     "(type q!a(unit). end)"),
    (_RECV.replace("x", "s[p]"), _channel_case(var=Basic("int")),
     "[UnknownChannel] at 1:1: channel s[p] has no session type"),
])
def test_channel_head_diagnostics(source, g, diagnostic):
    # Selection and branching report a channel without a session type, or
    # at the other kind of node, with the same two diagnostics.
    checker = Checker(Reliability.of({"p": {"q"}, "q": {"p"}}))
    assert not checker.check({}, g, set(), parse_process_text(source, roles={"p", "q"}))
    assert [d.render() for d in checker.failures] == ["error " + diagnostic]


# -- leftovers: one rule whatever the order of `|` or the names bound -----------

PROBE_HEADER = "protocol t\nroles p, q\nreliability { q: {p}, p: {q} }\n"

# X hands its live parameter c to nothing: the process beside the buffer
# neither uses it nor sends on t[p], so t[q] waits forever.
LEFTOVER_BESIDE_BUFFER = PROBE_HEADER + """
def X(c: q!m().end) = new s:{ p: end, q: end } in ( s:[] | 0 )
system =
  new t:{ p: q!m().end, q: &{ p?m().end } } in
  ( X(t[p]) | t[q]&{ p?m().0 } | t:[] )
"""

# The received c overwrites the live parameter c, which is then never used.
SHADOWED_BY_RECEIVE = PROBE_HEADER + """
def Y(c: q!n().end) =
  new u:{ p: q!k(unit).end, q: &{ p?k(unit).end } } in
  ( u[q]&{ p?k(c: unit).0 } | u[p]!q:k().0 | u:[] )
system =
  new t:{ p: q!n().end, q: &{ p?n().end } } in
  ( Y(t[p]) | t[q]&{ p?n().0 } | t:[] )
"""

PROBES = {
    "leftover beside a buffer": LEFTOVER_BESIDE_BUFFER,
    "leftover beside a buffer, swapped":
        LEFTOVER_BESIDE_BUFFER.replace("( s:[] | 0 )", "( 0 | s:[] )"),
    "leftover at a buffer": LEFTOVER_BESIDE_BUFFER.replace("( s:[] | 0 )", "s:[]"),
    "shadowed by a receive": SHADOWED_BY_RECEIVE,
    "not shadowed": SHADOWED_BY_RECEIVE.replace("p?k(c: unit)", "p?k(d: unit)"),
}


@pytest.mark.parametrize("name, code", [
    ("leftover beside a buffer", "LeftoverLinearBinding"),
    ("leftover beside a buffer, swapped", "EndPredicateFails"),
    ("leftover at a buffer", "LeftoverLinearBinding"),
    ("shadowed by a receive", "LinearityViolation"),
    ("not shadowed", "EndPredicateFails"),
])
def test_a_dropped_linear_binding_is_rejected(name, code):
    # Each probe deadlocks: its live binding is never used.  Where the
    # binding is dropped decides the diagnostic, not the verdict.
    report = typecheck_file(parse(PROBES[name]))
    assert report.verdict == "rejected"
    assert codes(report) == {code}, [d.render() for d in report.failures]


# -- a `def` body holds what it names --------------------------------------------
#
# A local definition's body is typed under its parameters alone, yet `|`
# hands an enclosing session's endpoint or buffer that the body names to the
# side holding the definition.  Each probe is rejected; the diagnostics pin
# where.

DEF_BODY_HEADER = PROBE_HEADER + """type Sp @ p = q!a(int).end
type Sq @ q = p?a(int).end
system = new s:{ p: Sp, q: Sq } in
"""

DEF_BODY_PROBES = [
    # the endpoint on both sides: reported once and handed to both, so the
    # send on the left types, and the right side reports what the next
    # probe, which has the endpoint only in the body, reports
    ("  ( s[p]!q:a(1).0 | (def F() = s[p]!q:a(2).0 in F()) | s[q]&{ p?a(x:int).0 } "
     "| s:[] )", [("LinearityViolation", 19), ("UnknownChannel", 32),
                  ("LeftoverLinearBinding", 49)]),
    # the endpoint only in the body: the call is handed it and leaves it
    ("  ( s[q]&{ p?a(x:int).0 } | (def F() = s[p]!q:a(2).0 in F()) | s:[] )",
     [("UnknownChannel", 40), ("LeftoverLinearBinding", 57)]),
    # the buffer only in the body, on the right and on the left
    ("  ( s[p]!q:a(1).0 | s[q]&{ p?a(x:int).0 } | (def F() = s:[] in F()) )",
     [("DuplicateSessionBuffer", 56), ("DanglingBufferTracker", 64)]),
    ("  ( (def F() = s:[] in F()) | s[p]!q:a(1).0 | s[q]&{ p?a(x:int).0 } )",
     [("DuplicateSessionBuffer", 16), ("DanglingBufferTracker", 24)]),
]


def test_a_def_body_holds_the_endpoints_and_buffers_it_names():
    for system, expected in DEF_BODY_PROBES:
        report = check_text(DEF_BODY_HEADER + system + "\n")
        assert [(d.code, d.span.line, d.span.col) for d in report.failures] \
            == [(code, 7, col) for code, col in expected], system


# A `def` body is parsed in no session's scope, so it may open a session
# under an enclosing session's name.  What that restriction binds is its
# own: the enclosing s[p] and s[q] stay with the side that names them, and
# the inner endpoints answer to the inner annotation alone.
REOPENED = ("(def F() = new s:{ {roles} } in ( s[{a}]!q:a(2).0 "
            "| s[q]&{ {a}?a(y:int).0 } | s:[] ) in F())")


def test_a_def_body_may_reopen_an_enclosing_session():
    same = REOPENED.replace("{roles}", "p: Sp, q: Sq").replace("{a}", "p")
    outer = "s[p]!q:a(1).0 | s[q]&{ p?a(x:int).0 } | s:[]"
    for system in (f"  ( {outer} | {same} )", f"  ( {same} | {outer} )"):
        report = check_text(DEF_BODY_HEADER + system + "\n")
        assert report.verdict == "accepted", [d.render() for d in report.failures]
    other = REOPENED.replace("{roles}", "r: Sr, q: Sqr").replace("{a}", "r")
    header = DEF_BODY_HEADER.replace("roles p, q\n", "roles p, q, r\n").replace(
        "{ q: {p}, p: {q} }", "{ q: {p, r}, p: {q}, r: {q} }").replace(
        "system =", "type Sr @ r = q!a(int).end\ntype Sqr @ q = r?a(int).end\nsystem =")
    report = check_text(header + f"  ( {outer} | {other} )\n")
    assert report.verdict == "accepted", [d.render() for d in report.failures]


def _subprocesses(p: P.Process, f) -> P.Process:
    """p with f applied to each of its immediate subprocesses."""
    if isinstance(p, P.Send):
        return replace(p, cont=f(p.cont))
    if isinstance(p, P.Branch):
        return replace(p, arms=tuple(replace(a, cont=f(a.cont)) for a in p.arms),
                       timeout=None if p.timeout is None else f(p.timeout))
    if isinstance(p, (P.Choice, P.Par)):
        return replace(p, left=f(p.left), right=f(p.right))
    if isinstance(p, P.Restriction):
        return replace(p, body=f(p.body))
    if isinstance(p, P.Def):
        return replace(p, body=f(p.body), cont=f(p.cont))
    return p


def swap_pars(p: P.Process) -> P.Process:
    """p with the two sides of every parallel composition swapped."""
    p = _subprocesses(p, swap_pars)
    return replace(p, left=p.right, right=p.left) if isinstance(p, P.Par) else p


def rename_received(p: P.Process, fresh=None) -> P.Process:
    """p with every received variable renamed to a name bound nowhere else
    (a prime cannot be written in a source)."""
    fresh = fresh if fresh is not None else itertools.count()
    if isinstance(p, P.Branch):
        names = [f"{a.var}'{next(fresh)}" for a in p.arms]
        p = replace(p, arms=tuple(
            replace(a, var=n, cont=P.subst(a.cont, {a.var: P.Var(n)}))
            for a, n in zip(p.arms, names)))
    return _subprocesses(p, lambda q: rename_received(q, fresh))


def _invariance_sources(monkeypatch) -> list:
    sources = [fixture_text(n) for n in ("ping", "dns", "leader")]
    sources += [(ROOT / f).read_text(encoding="utf-8") for f in FILES]
    sources += [text for _, text in mesh_sources()]
    sources += list(PROBES.values()) + [NESTED_BINDERS]
    return sources + _typechecked_sources(monkeypatch)


def _verdict_after(source: str, rewrite) -> tuple:
    """(verdict of the source, verdict after rewriting its every process)."""
    pf = parse(source)
    rewritten = replace(pf, system=rewrite(pf.system), proc_defs=tuple(
        replace(d, body=rewrite(d.body)) for d in pf.proc_defs))
    return typecheck_file(pf).verdict, typecheck_file(rewritten).verdict


@pytest.mark.parametrize("rewrite", [swap_pars, rename_received])
def test_verdict_does_not_depend_on_how_the_process_is_written(monkeypatch, rewrite):
    sources = _invariance_sources(monkeypatch)
    changed = [s for s in sources
               if len(set(_verdict_after(s, rewrite))) > 1]
    assert changed == []
    # the rewrite changes the processes it is given
    probe = parse(LEFTOVER_BESIDE_BUFFER).system
    assert rewrite(probe) != probe


CROSS_CHECKED = dict({f: (ROOT / f).read_text(encoding="utf-8") for f in FILES},
                     **PROBES)


@pytest.mark.parametrize("name", list(CROSS_CHECKED))
def test_accepted_deadlock_free_protocols_do_not_get_stuck(name):
    # [PAPER] a well-typed system whose typing context is deadlock-free
    # does not get stuck: no zero-fault run under the reliable policy ends
    # with a process that can take no step.
    pf = parse(CROSS_CHECKED[name])
    if not typecheck_file(pf).accepted:
        return
    g0, session = initial_context(pf)
    verdict = check_deadlock_free(g0, {session}, pf.reliability, ExploreLimits())
    if verdict.status != HOLDS:
        return
    for seed in range(8):
        trace = run(Config(pf.system_with_defs()), pf.reliability, RELIABLE,
                    FailureScenario(), seed, 400)
        assert not trace.stuck, (seed, P.render_process(trace.terminal.process))
