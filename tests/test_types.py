"""Session types: validation, equality up to unfolding, buffer congruence."""
import itertools

from hypothesis import given, settings, strategies as st

from magpi.context import canonical_binding
from magpi.types import (BranchArm, BufEntry, CongruenceMode, END, Basic, Rec,
                         RecRef, Select, SelectArm, Branch, UNIT,
                         SessionBufferType, buffer_type_congruent,
                         format_session, type_classes, type_equal,
                         validate_session)
from tests.oracles import session_iso

ROLES = ("p", "q", "r")
LABELS = ("a", "b")


def sel(to, label, cont):
    return Select((SelectArm(to, label, UNIT, cont),))


def bra(frm, label, cont, timeout=None):
    return Branch((BranchArm(frm, label, UNIT, cont),), timeout)


def rec(build):
    node = Rec("t")
    node.body = build(RecRef("t", node))
    return node


# -- validation -------------------------------------------------------------


def test_validate_accepts_guarded_recursion():
    # [TRIVIAL] rec t. q!a().t is contractive.
    assert validate_session(rec(lambda t: sel("q", "a", t))) == []


def test_validate_rejects_unguarded_recursion():
    # [TRIVIAL] rec t. t has no action before the back-edge.
    diags = validate_session(rec(lambda t: t))
    assert any(d.code == "UnguardedRecursion" for d in diags)


def test_validate_rejects_empty_arms():
    diags = validate_session(Select(()))
    assert any(d.code == "EmptyArms" for d in diags)


def test_validate_rejects_duplicate_arms():
    t = Select((SelectArm("q", "a", UNIT, END), SelectArm("q", "a", UNIT, END)))
    assert any(d.code == "DuplicateArm" for d in validate_session(t))


def test_validate_names_a_duplicate_receive_arm_with_a_query():
    t = Branch((BranchArm("q", "a", UNIT, END), BranchArm("q", "a", UNIT, END)))
    assert [(d.code, d.message) for d in validate_session(t)] == [
        ("DuplicateArm", "duplicate (role, label) arm q?a")]


# -- equality up to unfolding -------------------------------------------------


def test_unfolding_is_equal():
    # [DERIVED] rec t. q!a().t equals its one-step unfolding
    # q!a().rec t. q!a().t: both denote the same infinite tree.
    t1 = rec(lambda t: sel("q", "a", t))
    t2 = sel("q", "a", rec(lambda t: sel("q", "a", t)))
    assert type_equal(t1, t2)
    assert not session_iso(t1, t2)  # but they are not the same shape


def test_distinct_labels_not_equal():
    t1 = rec(lambda t: sel("q", "a", t))
    t2 = rec(lambda t: sel("q", "b", t))
    assert not type_equal(t1, t2)


def test_arm_order_irrelevant():
    x = Select((SelectArm("q", "a", UNIT, END), SelectArm("q", "b", UNIT, END)))
    y = Select((SelectArm("q", "b", UNIT, END), SelectArm("q", "a", UNIT, END)))
    assert type_equal(x, y)


def test_type_equal_decides_basic_payloads():
    # One name for both kinds of payload: a Basic equals only the same
    # Basic, never a session type.
    assert type_equal(Basic("int"), Basic("int"))
    assert not type_equal(Basic("int"), Basic("bool"))
    assert not type_equal(Basic("unit"), END)
    assert not type_equal(END, Basic("unit"))


def test_type_equal_compares_session_payloads_up_to_unfolding():
    # A delegated payload is compared by bisimilarity too: sending
    # rec t. r!a().t equals sending its unfolding, not a finite prefix.
    def carrying(payload):
        return Select((SelectArm("q", "a", payload, END),))
    loop = rec(lambda t: sel("r", "a", t))
    assert type_equal(carrying(loop), carrying(sel("r", "a", loop)))
    assert not type_equal(carrying(loop), carrying(sel("r", "a", END)))
    assert not type_equal(carrying(loop), carrying(Basic("int")))


def _type_strategy():
    basic = st.sampled_from([END])
    def extend(children):
        return st.one_of(
            st.builds(lambda to, l, c: sel(to, l, c),
                      st.sampled_from(ROLES), st.sampled_from(LABELS), children),
            st.builds(lambda frm, l, c, to: bra(frm, l, c, to),
                      st.sampled_from(ROLES), st.sampled_from(LABELS),
                      children, st.one_of(st.none(), children)))
    return st.recursive(basic, extend, max_leaves=6)


@settings(max_examples=200, deadline=None)
@given(_type_strategy(), _type_strategy(), _type_strategy())
def test_type_equal_is_an_equivalence(x, y, z):
    # [DERIVED] reflexive, symmetric, and transitive on random finite types.
    assert type_equal(x, x)
    assert type_equal(x, y) == type_equal(y, x)
    if type_equal(x, y) and type_equal(y, z):
        assert type_equal(x, z)


@settings(max_examples=200, deadline=None)
@given(_type_strategy(), _type_strategy())
def test_render_is_sound_for_equality(x, y):
    # [DERIVED] rendering is a complete invariant on the recursion-free
    # fragment: two finite types render identically iff they are bisimilar
    # (arms are rendered in sorted order, so ordering cannot distinguish).
    assert (format_session(x) == format_session(y)) == type_equal(x, y)


# -- buffer congruence --------------------------------------------------------


def _entries(n):
    """All buffer-type sequences of length n over 2 recipients x 2 labels."""
    alphabet = [BufEntry(to, lab, UNIT)
                for to in ("q", "r") for lab in ("a", "b")]
    return itertools.product(alphabet, repeat=n)


def test_total_reorder_congruence_matches_multiset_equality():
    # [DERIVED] oracle: under full reordering two buffers are congruent iff
    # they are equal as multisets.
    for n in range(0, 4):
        for m1 in _entries(n):
            for m2 in _entries(n):
                expected = sorted(map(repr, m1)) == sorted(map(repr, m2))
                got = buffer_type_congruent(m1, m2, CongruenceMode.TOTAL_REORDER)
                assert got == expected, (m1, m2)


def test_tcp_congruence_matches_per_channel_subsequences():
    # [DERIVED] oracle: under per-pair FIFO two buffers are congruent iff
    # every recipient's subsequence is preserved exactly.
    def chan(entries, to):
        return [(e.label,) for e in entries if e.to == to]

    for n in range(0, 4):
        for m1 in _entries(n):
            for m2 in _entries(n):
                expected = all(chan(m1, to) == chan(m2, to) for to in ("q", "r"))
                got = buffer_type_congruent(m1, m2, CongruenceMode.TCP_FIFO)
                assert got == expected, (m1, m2)


def test_canonical_buffer_is_idempotent_and_congruent():
    def canonical(m, mode):
        classes = type_classes(e.payload for e in m)
        return canonical_binding(SessionBufferType(m), mode, classes)[0].buffer

    for mode in CongruenceMode:
        for n in range(0, 4):
            for m in _entries(n):
                c = canonical(m, mode)
                assert canonical(c, mode) == c
                assert buffer_type_congruent(m, c, mode)


def test_tcp_is_finer_than_total_reorder():
    # [DERIVED] FIFO congruence implies multiset congruence, never the
    # other way around on a witness pair.
    for n in range(0, 4):
        for m1 in _entries(n):
            for m2 in _entries(n):
                if buffer_type_congruent(m1, m2, CongruenceMode.TCP_FIFO):
                    assert buffer_type_congruent(m1, m2,
                                                 CongruenceMode.TOTAL_REORDER)
    same_channel = (BufEntry("q", "a", UNIT), BufEntry("q", "b", UNIT))
    flipped = (same_channel[1], same_channel[0])
    assert buffer_type_congruent(same_channel, flipped,
                                 CongruenceMode.TOTAL_REORDER)
    assert not buffer_type_congruent(same_channel, flipped,
                                     CongruenceMode.TCP_FIFO)
