"""One identity for type positions: the bisimilarity classes of
`types.type_classes` agree with `type_equal`, do not depend on object
identity or on how a type is spelled, and so the verifier's verdicts and
graph sizes do not change when recursion variables or roles are renamed or
arms are reordered."""
import functools
import random

from hypothesis import given, settings, strategies as st

from magpi import parse, parse_session_text
from magpi.cli import initial_context
from magpi.context import TypeContext, canonical_context, split_end_gc
from magpi.lts import ExploreLimits, action_to_json, context_transitions
from magpi.types import (Basic, Branch, BranchArm, BufEntry, END, End, Rec,
                         RecRef, Reliability, Select, SelectArm,
                         SessionBufferType, resolve, type_classes,
                         type_equal)
from magpi import verify as V
from tests.test_golden import FILES, ROOT

ROLES = ("p", "q")
LABELS = ("a", "b")
BASICS = (Basic("unit"), Basic("int"))


# -- random recursive graphs -------------------------------------------------


@st.composite
def graphs(draw, max_nodes=6):
    """The nodes of one random type graph with cycles.  Every head is an End,
    a Select or a Branch.  An arm's continuation or timeout points at any
    head, directly, through its Rec binder or through a back-edge to that
    binder; a payload is basic or, now and then, a session type."""
    n = draw(st.integers(1, max_nodes))
    kinds = [draw(st.sampled_from(("end", "sel", "bra"))) for _ in range(n)]
    heads = [END if k == "end" else (Select(()) if k == "sel" else Branch(()))
             for k in kinds]
    recs = [Rec(draw(st.sampled_from(("X", "Y")))) for _ in range(n)]
    for head, rec in zip(heads, recs):
        rec.body = head
    pointer = st.tuples(st.integers(0, n - 1), st.integers(0, 2)).map(
        lambda p: (heads[p[0]], recs[p[0]],
                   RecRef(recs[p[0]].var, recs[p[0]]))[p[1]])
    for head in heads:
        if isinstance(head, End):
            continue
        keys = draw(st.lists(st.tuples(st.sampled_from(ROLES), st.sampled_from(LABELS)),
                             min_size=1, max_size=3, unique=True))
        arm = SelectArm if isinstance(head, Select) else BranchArm
        head.arms = tuple(arm(role, label, draw(st.one_of(st.sampled_from(BASICS), pointer)),
                              draw(pointer)) for role, label in keys)
        if isinstance(head, Branch):
            head.timeout = draw(st.one_of(st.none(), pointer))
    return heads + recs


def _copy(t, roles: dict, rng: random.Random, shuffle: bool = True, memo=None):
    """A fresh copy of a type graph with roles renamed, every binder renamed
    to X or Y at random and, with `shuffle`, every node's arms reordered."""
    memo = {} if memo is None else memo
    if isinstance(t, (Basic, End)):
        return t
    if id(t) in memo:
        return memo[id(t)]
    if isinstance(t, Rec):
        out = memo[id(t)] = Rec(rng.choice("XY"))
        out.body = _copy(t.body, roles, rng, shuffle, memo)
        return out
    if isinstance(t, RecRef):
        target = _copy(t.target, roles, rng, shuffle, memo)
        return RecRef(target.var, target)
    out = memo[id(t)] = type(t)(())
    arms = list(t.arms)
    if shuffle:
        rng.shuffle(arms)
    if isinstance(t, Select):
        out.arms = tuple(SelectArm(roles[a.to], a.label,
                                   _copy(a.payload, roles, rng, shuffle, memo),
                                   _copy(a.cont, roles, rng, shuffle, memo)) for a in arms)
    else:
        out.arms = tuple(BranchArm(roles[a.frm], a.label,
                                   _copy(a.payload, roles, rng, shuffle, memo),
                                   _copy(a.cont, roles, rng, shuffle, memo)) for a in arms)
        out.timeout = (None if t.timeout is None
                       else _copy(t.timeout, roles, rng, shuffle, memo))
    return out


@settings(max_examples=200, deadline=None)
@given(graphs())
def test_classes_are_bisimilarity(nodes):
    classes = type_classes(nodes)
    for x in nodes:
        for y in nodes:
            assert (classes.of[x] == classes.of[y]) == type_equal(x, y)


@settings(max_examples=100, deadline=None)
@given(graphs(), graphs())
def test_classes_across_graphs_are_bisimilarity(xs, ys):
    classes = type_classes(xs + ys)
    for x in xs:
        for y in ys:
            assert (classes.of[x] == classes.of[y]) == type_equal(x, y)


@settings(max_examples=100, deadline=None)
@given(graphs(), st.integers(0, 2**32), st.booleans())
def test_classes_do_not_depend_on_identity_or_spelling(nodes, seed, shuffle):
    # A separately built copy, with binders renamed and perhaps arms
    # reordered, gets the same class ints and the same quotient.
    memo: dict = {}
    rng = random.Random(seed)
    copies = [_copy(x, {r: r for r in ROLES}, rng, shuffle, memo) for x in nodes]
    mine, theirs = type_classes(nodes), type_classes(copies)
    assert mine.quotient == theirs.quotient
    assert [mine.of[x] for x in nodes] == [theirs.of[y] for y in copies]


# -- Open item 1: a back-edge to a binder of the same name -------------------


def _probe(second: str):
    """Two loops of q return to different binders; the second binder is
    spelled `second`.  After c, q takes c and b, answers k and waits for x or
    y; p takes k and sends x; q takes x, answers k and loops back to its
    second binder, which waits for b.  p then sends x or y, which q can never
    take: the context is stuck short of end and q's timeout-less wait is
    never served."""
    types = {
        "p": "+{ q!a(). rec X. +{ q!x(). q?k(). X, q!y(). end }, "
             "q!c(). q!b(). q?k(). rec X. +{ q!x(). q?k(). X, q!y(). end } }",
        "q": "&{ p?a(). rec Y. &{ p?x(). p!k(). Y, p?y(). end }, "
             f"p?c(). rec {second}. p?b(). p!k(). "
             f"&{{ p?x(). p!k(). {second}, p?y(). end }} }}",
    }
    return TypeContext.of({}, {("s", role): SessionBufferType(
        (), parse_session_text(text, roles=ROLES)) for role, text in types.items()})


def _replay(g0, sigma, r, witness):
    """The context a witness leads to, following it through the transition
    relation from the canonical initial context."""
    limits = ExploreLimits()
    g = canonical_context(g0, limits.mode)
    for act in witness:
        nxt = [n for a, n in context_transitions(g, sigma, r, limits)
               if action_to_json(a) == action_to_json(act)]
        assert nxt, f"witness action {act.render()} is not enabled"
        g = canonical_context(nxt[0], limits.mode)
    return g


def test_open_item_1_both_spellings_violate_deadlock_and_live():
    r = Reliability.fully_reliable(ROLES)
    for second in ("Y", "W"):
        g0 = _probe(second)
        dl = V.check_deadlock_free(g0, {"s"}, r, ExploreLimits())
        live = V.check_live(g0, {"s"}, r, ExploreLimits())
        assert dl.status == V.VIOLATED, second
        assert live.status == V.VIOLATED, second
        end = _replay(g0, {"s"}, r, dl.witness)
        assert context_transitions(end, {"s"}, r, ExploreLimits()) == []
        assert not split_end_gc(end)[0]
        end = _replay(g0, {"s"}, r, live.witness)
        head = resolve(end.endpoint(("s", "q")).session)
        assert [a.label for a in head.arms] == ["b"]  # q waits for b


def test_open_item_1_spellings_explore_the_same_graph():
    r = Reliability.fully_reliable(ROLES)
    # each probe is one linked component: one graph
    graphs_ = [g for s in "YW" for g in V.Graphs(_probe(s), {"s"}, ExploreLimits()).get(r)]
    assert [len(g.states) for g in graphs_] == [24, 24]
    assert len(graphs_[0].edges) == len(graphs_[1].edges)


# -- metamorphic: renaming and reordering leave verdicts alone ----------------


PROPS = ("safety", "comm-rf", "deadlock", "terminating", "live", "never")


def _verdicts(g0, sigma, r) -> tuple:
    limits = ExploreLimits()
    graphs_ = V.Graphs(g0, sigma, limits)
    statuses = (
        V.check_safety(g0, sigma, r, limits, graphs_).status,
        V.check_comm_safe_RF(g0, sigma, limits, graphs_).status,
        V.check_deadlock_free(g0, sigma, r, limits, graphs_).status,
        V.check_terminating(g0, sigma, r, limits, graphs_).status,
        V.check_live(g0, sigma, r, limits, graphs_).status,
        V.check_never_terminating(g0, sigma, r, limits, graphs_).status,
    )
    bounded = V.check_bounded(g0, sigma, r, 16, limits, graphs_)
    return (dict(zip(PROPS, statuses)), (bounded.status, bounded.minimal_k),
            V.product_stats(graphs_.get(r)))


@functools.lru_cache(maxsize=None)
def _input(name: str):
    if name == "probe":
        return _probe("Y"), {"s"}, Reliability.fully_reliable(ROLES)
    pf = parse((ROOT / name).read_text(encoding="utf-8"))
    g0, session = initial_context(pf)
    return g0, {session}, pf.reliability


@functools.lru_cache(maxsize=None)
def _expected(name: str):
    return _verdicts(*_input(name))


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(FILES + ("probe",)), st.integers(0, 2**32), st.booleans())
def test_verdicts_survive_renaming_and_reordering(name, seed, rename_roles):
    g0, sigma, r = _input(name)
    rng = random.Random(seed)
    roles = sorted({k[1] for k, _ in g0.endpoints} | set(r.roles))
    renamed = rng.sample(roles, len(roles)) if rename_roles else roles
    rmap = dict(zip(roles, renamed))
    memo: dict = {}
    g1 = TypeContext.of({}, {
        (s, rmap[role]): SessionBufferType(
            tuple(BufEntry(rmap[e.to], e.label, _copy(e.payload, rmap, rng, True, memo))
                  for e in sbt.buffer),
            None if sbt.session is None else _copy(sbt.session, rmap, rng, True, memo))
        for (s, role), sbt in g0.endpoints})
    r1 = Reliability.of({rmap[a]: {rmap[b] for b in peers} for a, peers in r.sets})
    assert _verdicts(g1, sigma, r1) == _expected(name)
