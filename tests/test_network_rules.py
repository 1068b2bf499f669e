"""The two network rules, checked at every level that applies them: the
buffer congruence (heads and canonical order, for type-level `BufEntry` and
process-level `BufMsg` buffers) and the reliability side-condition (static
safety, the transition relation, the simulator and its monitors)."""
import pytest
from hypothesis import given, settings, strategies as st

from magpi import proc as P
from magpi.context import TypeContext, canonical_context
from magpi.lts import ExploreLimits, TimeoutAct, context_transitions
from magpi.parser import parse_session_text
from magpi.sim import (Config, FailureScenario, RELIABLE, Trace, enabled_steps,
                       monitor_corollaries)
from magpi.types import (END, UNIT, Basic, BufEntry, CongruenceMode,
                         Reliability, SessionBufferType, buffer_heads,
                         buffer_keys, buffer_order)
from magpi import verify as V

TOTAL, FIFO = CongruenceMode.TOTAL_REORDER, CongruenceMode.TCP_FIFO

# -- buffer congruence ----------------------------------------------------------
#
# Each level is (entry strategy, canonical order, heads, channel, message).
# Distinct payloads (and values) of the alphabets are never bisimilar (never
# render alike), so equality of the raw fields is the oracle's notion of
# "same message".

TYPE_ENTRY = st.builds(BufEntry, st.sampled_from("qr"), st.sampled_from("ab"),
                       st.sampled_from((UNIT, Basic("int"), END)))
PROC_ENTRY = st.builds(P.BufMsg, st.sampled_from("pq"), st.sampled_from("qr"),
                       st.sampled_from("ab"),
                       st.sampled_from((P.UNIT_VAL, P.Lit("int", 1),
                                        P.Lit("int", 2), P.Endpoint("s", "p"))))


def _canonical_buffer(es, mode):
    """The type-level buffer es in the order `canonical_context` gives an
    endpoint's buffer."""
    g = TypeContext.of({}, {("s", "p"): SessionBufferType(es)})
    return canonical_context(g, mode).endpoints[0][1].buffer


LEVELS = {
    "type": (TYPE_ENTRY, _canonical_buffer,
             lambda es, mode: buffer_heads(buffer_keys(es), mode),
             lambda e: e.to,
             lambda e: (e.label, e.payload)),
    "process": (PROC_ENTRY,
                lambda es, mode: tuple(es[i] for i in buffer_order(P.buffer_keys(es), mode)),
                lambda es, mode: buffer_heads(P.buffer_keys(es), mode),
                lambda e: (e.frm, e.to),
                lambda e: (e.label, e.value)),
}


def buffers(level):
    return st.lists(LEVELS[level][0], max_size=7).map(tuple)


def _fifo_swaps(entries, positions, chan):
    """entries after swapping adjacent entries on different channels at the
    given positions, in turn: each swap keeps the FIFO congruence class."""
    es = list(entries)
    for i in positions:
        if i + 1 < len(es) and chan(es[i]) != chan(es[i + 1]):
            es[i], es[i + 1] = es[i + 1], es[i]
    return tuple(es)


@pytest.mark.parametrize("level", sorted(LEVELS))
@pytest.mark.parametrize("mode", list(CongruenceMode))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_canonical_order_is_an_idempotent_congruent_permutation(level, mode, data):
    _, canon, _, chan, _ = LEVELS[level]
    es = data.draw(buffers(level))
    c = canon(es, mode)
    assert canon(c, mode) == c
    assert sorted(map(repr, c)) == sorted(map(repr, es))
    if mode is FIFO:
        for k in {chan(e) for e in es}:
            assert [e for e in c if chan(e) == k] == [e for e in es if chan(e) == k]


@pytest.mark.parametrize("level", sorted(LEVELS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_canonical_order_ignores_any_shuffle_under_total_reordering(level, data):
    canon = LEVELS[level][1]
    es = data.draw(buffers(level))
    shuffled = tuple(data.draw(st.permutations(es)))
    assert canon(shuffled, TOTAL) == canon(es, TOTAL)


@pytest.mark.parametrize("level", sorted(LEVELS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_canonical_order_ignores_cross_channel_swaps_under_fifo(level, data):
    _, canon, _, chan, _ = LEVELS[level]
    es = data.draw(buffers(level))
    swapped = _fifo_swaps(es, data.draw(st.lists(st.integers(0, 6), max_size=12)), chan)
    assert canon(swapped, FIFO) == canon(es, FIFO)


@pytest.mark.parametrize("level", sorted(LEVELS))
@pytest.mark.parametrize("mode", list(CongruenceMode))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_heads_are_the_first_of_each_channel_or_message(level, mode, data):
    _, _, heads, chan, msg = LEVELS[level]
    es = data.draw(buffers(level))
    same = ((lambda a, b: chan(a) == chan(b)) if mode is FIFO
            else (lambda a, b: chan(a) == chan(b) and msg(a) == msg(b)))
    assert heads(es, mode) == [i for i, e in enumerate(es)
                               if not any(same(d, e) for d in es[:i])]


# -- reliability side-condition -------------------------------------------------
#
# q waits on p, with or without a timeout arm, and trusts p or not.  A wait
# needs a timeout exactly when it hears from an untrusted peer; every layer
# must read the four cases alike.


@pytest.mark.parametrize("timeout", [False, True])
@pytest.mark.parametrize("trusted", [False, True])
def test_every_layer_applies_one_reliability_rule(timeout, trusted):
    r = Reliability.of({"p": set(), "q": {"p"} if trusted else set()})
    wait = "&{ p?a().end" + (", timeout. end" if timeout else "") + " }"
    g = TypeContext.of({}, {
        ("s", "p"): SessionBufferType((), parse_session_text("q!a().end", roles={"p", "q"})),
        ("s", "q"): SessionBufferType((), parse_session_text(wait, roles={"p", "q"}))})
    proc = P.Restriction("s", (("p", END), ("q", END)), P.Par(
        P.Branch(P.Endpoint("s", "q"),
                 (P.RecvArm("p", "a", "_", UNIT, P.Inaction()),),
                 P.Inaction() if timeout else None),
        P.Buffer("s", ())))
    expected = (None if timeout != trusted
                else "SP2" if timeout else "SP1")

    safety = V.check_safety(g, {"s"}, r, ExploreLimits())
    assert (safety.reason if safety.status == V.VIOLATED else None) == expected
    c = Config(proc, 0)
    monitors = [v.kind for v in monitor_corollaries(Trace((), (c,), c, False), r)]
    assert monitors == ([] if expected is None else ["Cor" + expected[-1]])
    may_time_out = timeout and not trusted
    assert may_time_out == any(
        isinstance(a, TimeoutAct)
        for a, _ in context_transitions(g, {"s"}, r, ExploreLimits()))
    assert may_time_out == any(s.rule == "R-timeout" for s in enabled_steps(
        c, r, RELIABLE, FailureScenario()))
