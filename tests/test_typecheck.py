"""Typechecker: fixture acceptance, targeted rejections, linearity."""
import sys

import pytest

from magpi import parse, typecheck, typecheck_file
from magpi import proc as P
from magpi.context import TypeContext
from magpi.typecheck import Checker, _demands
from magpi.types import Reliability
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


def test_par_demands_are_the_union_of_their_sides(monkeypatch):
    sources = [(ROOT / f).read_text(encoding="utf-8") for f in FILES]
    sources += [fixture_text("leader"), NESTED_BINDERS]
    sources += [text for _, text in mesh_sources()]
    sources += _typechecked_sources(monkeypatch)
    pars = 0
    for source in sources:
        pf = parse(source)
        checker = Checker(pf.reliability)
        for top in [d.body for d in pf.proc_defs] + [pf.system]:
            for q in P.subterms(top):
                if isinstance(q, P.Par):
                    pars += 1
                    assert checker.demands(q) == _demands(q), source
                    assert Checker(pf.reliability).demands(q) == _demands(q), source
    assert pars > 50
    _, bufs, free = _demands(parse(NESTED_BINDERS).system.body)
    assert bufs == {"s"}
    assert not free & {"c", "n", "x", "y"}
