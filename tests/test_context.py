"""Typing contexts: the end predicate, the end/gc split, state keys."""
from magpi.context import TypeContext, context_key, end_predicate, split_end_gc
from magpi.types import (Basic, BufEntry, CongruenceMode, END,
                         SessionBufferType, UNIT)
from magpi import parse_session_text

ROLES = {"p", "q", "r"}


def S(text):
    return parse_session_text(text, roles=ROLES)


def ctx(vars=None, eps=None):
    return TypeContext.of(vars or {}, eps or {})


def sbt(session=None, *entries):
    return SessionBufferType(tuple(entries), session)


# -- end predicate ------------------------------------------------------------


def test_end_accepts_basics_and_ended_sessions():
    # [TRIVIAL]
    g = ctx({"x": Basic("int")}, {("s", "p"): sbt(END)})
    assert end_predicate(g)


def test_end_rejects_live_session():
    g = ctx({}, {("s", "p"): sbt(S("q!a().end"))})
    assert not end_predicate(g)


def test_end_rejects_nonempty_buffer():
    g = ctx({}, {("s", "p"): sbt(END, BufEntry("q", "a", UNIT))})
    assert not end_predicate(g)


def test_end_rejects_session_typed_variable():
    g = ctx({"x": S("q!a().end")}, {})
    assert not end_predicate(g)


# -- gc part of the split -----------------------------------------------------


def test_gc_accepts_orphan_basic_messages():
    # [DERIVED] undelivered basic-payload messages are discardable.
    g = ctx({}, {("s", "p"): sbt(None, BufEntry("q", "a", UNIT),
                                 BufEntry("r", "b", Basic("int")))})
    ok, reason = split_end_gc(g)
    assert ok, reason


def test_gc_rejects_session_component():
    # Collectable messages do not excuse the live session beside them.
    g = ctx({}, {("s", "p"): sbt(S("q!a().end"), BufEntry("q", "a", UNIT))})
    ok, reason = split_end_gc(g)
    assert not ok and "non-end" in reason


def test_gc_rejects_undelivered_delegation():
    # An in-flight endpoint would lose linearity if dropped.
    g = ctx({}, {("s", "p"): sbt(None, BufEntry("q", "a", S("r!b().end")))})
    ok, reason = split_end_gc(g)
    assert not ok and "uncollectable" in reason


def test_split_accepts_delegation_typed_elsewhere():
    # A delegated session payload is collectable while the context still
    # tracks the delegated endpoint's (finished) type.
    g = ctx({}, {("s", "p"): sbt(None, BufEntry("q", "a", END)),
                 ("t", "p"): sbt(END)})
    ok, reason = split_end_gc(g)
    assert ok, reason


def test_split_accepts_delegation_typed_elsewhere_up_to_unfolding():
    # The buffered payload and the tracked endpoint's type need only be
    # bisimilar: rec t. end is end.
    g = ctx({}, {("s", "p"): sbt(None, BufEntry("q", "a", S("rec t. end"))),
                 ("t", "p"): sbt(END)})
    ok, reason = split_end_gc(g)
    assert ok, reason


def test_split_rejects_delegation_of_a_live_session():
    # A delegated payload that no tracked endpoint's type equals cannot be
    # collected, although a finished endpoint is tracked.
    g = ctx({}, {("s", "p"): sbt(None, BufEntry("q", "a", S("r!b().end"))),
                 ("t", "p"): sbt(END)})
    ok, reason = split_end_gc(g)
    assert not ok and "uncollectable" in reason


# -- split_end_gc -------------------------------------------------------------


def test_split_covers_mixed_leftovers():
    g = ctx({"x": Basic("bool")},
            {("s", "p"): sbt(END),
             ("s", "q"): sbt(None, BufEntry("p", "a", UNIT))})
    ok, reason = split_end_gc(g)
    assert ok, reason


def test_split_rejects_live_leftover():
    g = ctx({}, {("s", "p"): sbt(S("q!a().end"))})
    ok, reason = split_end_gc(g)
    assert not ok and reason


# -- deterministic state identity --------------------------------------------


def test_context_key_is_stable_and_identity_free():
    t = S("rec t. q!a().t")
    g1 = ctx({}, {("s", "p"): sbt(t)})
    g2 = ctx({}, {("s", "p"): sbt(S("rec t. q!a().t"))})
    mode = CongruenceMode.TOTAL_REORDER
    assert context_key(g1, mode) == context_key(g2, mode)
    assert "0x" not in repr(context_key(g1, mode))
