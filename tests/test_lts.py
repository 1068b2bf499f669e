"""Context transition system: single-rule examples, exploration invariants,
export round-trips."""
import itertools
import json
import random
from collections import Counter, deque

import pytest
from hypothesis import given, settings, strategies as st

from magpi import lts, parse, parse_session_text
from magpi.cli import initial_context
from magpi.context import (TypeContext, canonical_binding, canonical_context,
                           context_classes, context_key, render_context)
from magpi.lts import (ComAct, ExploreLimits, Exceeded, LtsGraph, SendAct,
                       TimeoutAct, context_transitions, explore, export_lts,
                       without_timeouts)
from magpi.types import (BufEntry, CongruenceMode, Reliability,
                         SessionBufferType, UNIT, format_type)
from tests.conftest import fixture_text, mesh_sources
from tests.test_golden import FILES, ROOT
from tests.test_type_classes import ROLES as PROBE_ROLES, _probe
from tests.test_verify import _random_context

ROLES = {"p", "q", "r"}


def S(text):
    return parse_session_text(text, roles=ROLES)


def ctx(eps):
    return TypeContext.of({}, eps)


def sbt(session=None, *entries):
    return SessionBufferType(tuple(entries), session)


R0 = Reliability.of({"p": set(), "q": set(), "r": set()})
RF = Reliability.fully_reliable(ROLES)


# -- single transitions -------------------------------------------------------


def test_send_appends_to_own_buffer():
    # [DERIVED] a selection step adds the typed message to the sender's
    # buffer component and advances the session.
    g = ctx({("s", "p"): sbt(S("q!a(int).end"))})
    steps = context_transitions(g, {"s"}, RF, ExploreLimits(mode=CongruenceMode.TOTAL_REORDER))
    assert len(steps) == 1
    act, g2 = steps[0]
    assert isinstance(act, SendAct)
    got = g2.endpoint(("s", "p"))
    assert [e.label for e in got.buffer] == ["a"]


def test_com_consumes_matching_head():
    g = ctx({("s", "p"): sbt(None, BufEntry("q", "a", UNIT)),
             ("s", "q"): sbt(S("p?a().end"))})
    steps = context_transitions(g, {"s"}, RF, ExploreLimits(mode=CongruenceMode.TOTAL_REORDER))
    assert len(steps) == 1
    act, g2 = steps[0]
    assert isinstance(act, ComAct)
    assert g2.endpoint(("s", "p")) is None or not g2.endpoint(("s", "p")).buffer


def test_com_requires_type_match():
    g = ctx({("s", "p"): sbt(None, BufEntry("q", "a", UNIT)),
             ("s", "q"): sbt(S("p?a(int).end"))})
    steps = context_transitions(g, {"s"}, RF, ExploreLimits(mode=CongruenceMode.TOTAL_REORDER))
    assert steps == []


def test_com_requires_tracked_session():
    g = ctx({("s", "p"): sbt(None, BufEntry("q", "a", UNIT)),
             ("s", "q"): sbt(S("p?a().end"))})
    assert context_transitions(g, set(), RF, ExploreLimits()) == []


def test_timeout_needs_unreliable_source():
    g = ctx({("s", "q"): sbt(S("&{ p?a().end, timeout. end }"))})
    # Unreliable source: the timeout fires.
    steps = context_transitions(g, {"s"}, R0, ExploreLimits(mode=CongruenceMode.TOTAL_REORDER))
    assert any(isinstance(a, TimeoutAct) for a, _ in steps)
    # Fully reliable: it must not.
    steps = context_transitions(g, {"s"}, RF, ExploreLimits(mode=CongruenceMode.TOTAL_REORDER))
    assert steps == []


def test_total_reorder_reaches_deeper_entries():
    # [DERIVED] with reordering, a branch can consume a matching entry that
    # sits behind a message for another recipient; FIFO only exposes the
    # per-recipient head.
    g = ctx({("s", "p"): sbt(None, BufEntry("q", "b", UNIT),
                             BufEntry("q", "a", UNIT)),
             ("s", "q"): sbt(S("p?a().p?b().end"))})
    total = context_transitions(g, {"s"}, RF, ExploreLimits(mode=CongruenceMode.TOTAL_REORDER))
    fifo = context_transitions(g, {"s"}, RF, ExploreLimits(mode=CongruenceMode.TCP_FIFO))
    assert any(isinstance(a, ComAct) and a.label == "a" for a, _ in total)
    assert not any(isinstance(a, ComAct) and a.label == "a" for a, _ in fifo)


# -- exploration --------------------------------------------------------------


def _recount(graph):
    """Oracle: recompute the reachable set by a fresh traversal of edges."""
    seen, todo = {graph.initial}, [graph.initial]
    succ = {}
    for f, _, t in graph.edges:
        succ.setdefault(f, []).append(t)
    while todo:
        n = todo.pop()
        for m in succ.get(n, ()):
            if m not in seen:
                seen.add(m)
                todo.append(m)
    return seen


def _fixture_graph(name):
    pf = parse(fixture_text(name))
    g0, sess = initial_context(pf)
    return explore(g0, {sess}, pf.reliability, ExploreLimits())


def test_explored_states_are_reachable_and_deduplicated():
    for name in ("ping", "dns"):
        graph = _fixture_graph(name)
        assert _recount(graph) == set(range(len(graph.states)))
        keys = [context_key(s, CongruenceMode.TOTAL_REORDER)
                for s in graph.states]
        assert len(keys) == len(set(keys))


def test_bfs_and_dfs_agree_on_state_set():
    pf = parse(fixture_text("ping"))
    g0, sess = initial_context(pf)
    bfs = explore(g0, {sess}, pf.reliability, ExploreLimits(), order="bfs")
    dfs = explore(g0, {sess}, pf.reliability, ExploreLimits(), order="dfs")
    key = lambda s: context_key(s, CongruenceMode.TOTAL_REORDER)
    assert {key(s) for s in bfs.states} == {key(s) for s in dfs.states}


def test_max_states_limit_trips_with_witness_path():
    g = ctx({("s", "p"): sbt(S("rec t. q!a().t"))})
    out = explore(g, {"s"}, RF, ExploreLimits(max_states=5))
    assert isinstance(out, Exceeded) and out.kind == "maxStates"
    assert out.limit == 5


def test_buffer_limit_trips_with_witness():
    g = ctx({("s", "p"): sbt(S("rec t. q!a().t"))})
    out = explore(g, {"s"}, RF, ExploreLimits(max_buffer_len=3))
    assert isinstance(out, Exceeded) and out.kind == "bufferLen"
    assert len(out.witness) == 3  # three sends reach the bound


def _occupancy(g):
    """Reference: the largest number of messages any sender buffer of g
    holds for one recipient, recounted from the context."""
    return max((n for _, b in g.endpoints
                for n in Counter(e.to for e in b.buffer).values()), default=0)


@pytest.mark.parametrize("mode", list(CongruenceMode))
def test_explore_records_each_state_occupancy(mode):
    for f in FILES:
        pf = parse((ROOT / f).read_text(encoding="utf-8"))
        g0, sess = initial_context(pf)
        graph = explore(g0, {sess}, pf.reliability, ExploreLimits(mode=mode))
        assert len(graph.occupancy) == len(graph.states), f
        for sid, state in enumerate(graph.states):
            assert graph.occupancy[sid] == _occupancy(state), (f, sid)


def _path(parents, sid):
    acts = []
    while sid in parents:
        sid, a = parents[sid]
        acts.append(a)
    return tuple(reversed(acts))


def _reference_run(g0, sigma, r, limits, order):
    """Exploration that canonicalises and keys every successor from scratch:
    (states, edges, parents, None), or, at the first limit it trips, the
    states, edges and parents so far and the Exceeded."""
    classes = context_classes(g0)
    g0 = canonical_context(g0, limits.mode, classes)
    states, edges, parents = [g0], [], {}

    def full(g):  # a buffer holds `limits.max_buffer_len` messages for one recipient
        return limits.max_buffer_len is not None and any(
            max(Counter(e.to for e in sbt.buffer).values(), default=0)
            >= limits.max_buffer_len for _, sbt in g.endpoints)

    if full(g0):
        return states, edges, parents, Exceeded("bufferLen", limits.max_buffer_len, (), g0)
    ids = {context_key(g0, limits.mode, classes): 0}
    frontier = deque([0])
    take = frontier.popleft if order == "bfs" else frontier.pop
    while frontier:
        sid = take()
        for action, nxt in context_transitions(states[sid], sigma, r, limits, classes):
            nxt = canonical_context(nxt, limits.mode, classes)
            key = context_key(nxt, limits.mode, classes)
            if key not in ids:
                if len(states) >= limits.max_states:
                    return states, edges, parents, Exceeded(
                        "maxStates", limits.max_states, _path(parents, sid) + (action,), nxt)
                ids[key] = len(states)
                states.append(nxt)
                parents[ids[key]] = (sid, action)
                if full(nxt):
                    return states, edges, parents, Exceeded(
                        "bufferLen", limits.max_buffer_len, _path(parents, ids[key]), nxt)
                frontier.append(ids[key])
            edges.append((sid, action, ids[key]))
    return states, edges, parents, None


def _reference_explore(g0, sigma, r, limits, order):
    """(states, edges, parents) of a reference run that trips no limit."""
    states, edges, parents, exceeded = _reference_run(g0, sigma, r, limits, order)
    assert exceeded is None, exceeded
    return states, edges, parents


def test_bindings_are_interned_by_content_not_by_class():
    # p's buffer holds a(S1) on one path and a(S2) on the other, with S1 and
    # S2 bisimilar but written differently.  The two bindings share a key
    # part, but the states holding them differ in q, so both are states and
    # each keeps the payload it was sent with.
    p = S("+{ q!a(rec t. q!m().t).end, q!b(). q!a(q!m(). rec t. q!m().t).end }")
    s1, s2 = p.arms[0].payload, p.arms[1].cont.arms[0].payload
    g = ctx({("s", "p"): sbt(p), ("s", "q"): sbt(S("p?b().end"))})
    graph = explore(g, {"s"}, RF, ExploreLimits())
    assert graph.classes.key(s1) == graph.classes.key(s2)
    assert format_type(s1) != format_type(s2)
    sent = [e.payload for st in graph.states for e in st.endpoint(("s", "p")).buffer
            if e.label == "a"]
    assert any(x is s1 for x in sent) and any(x is s2 for x in sent)
    assert _outcome(graph) == _outcome(_reference_explore(g, {"s"}, RF, ExploreLimits(), "bfs"))


def test_explore_builds_a_state_only_when_it_is_read(monkeypatch):
    # The graph keeps each state's binding ids and builds its context when
    # the state is read, so exploring builds at most one context; each read
    # gives the state the from-scratch reference finds.
    built = []

    def counting(*args, **kwargs):
        built.append(args)
        return TypeContext(*args, **kwargs)

    pf = parse((ROOT / "tests" / "golden" / "mesh.magpi").read_text(encoding="utf-8"))
    g0, sess = initial_context(pf)
    limits = ExploreLimits()
    monkeypatch.setattr(lts, "TypeContext", counting)
    graph = explore(g0, {sess}, pf.reliability, limits)
    assert len(built) <= 1
    states, _, _ = _reference_explore(g0, {sess}, pf.reliability, limits, "bfs")
    assert len(graph.states) == len(states) > 100
    for sid, state in enumerate(states):
        assert graph.states[sid] == state, sid


def _reference_cases():
    for f in FILES:
        pf = parse((ROOT / f).read_text(encoding="utf-8"))
        g0, sess = initial_context(pf)
        yield f, g0, {sess}, pf.reliability
    for second in ("Y", "W"):
        yield f"open item 1 ({second})", _probe(second), {"s"}, \
            Reliability.fully_reliable(PROBE_ROLES)


def _assert_matches_reference(graph, reference, mode, name):
    states, edges, parents = reference
    assert [render_context(s) for s in graph.states] == \
        [render_context(s) for s in states], name
    assert [(f, a.render(), t) for f, a, t in graph.edges] == \
        [(f, a.render(), t) for f, a, t in edges], name
    assert {n: (p, a.render()) for n, (p, a) in graph.parents.items()} == \
        {n: (p, a.render()) for n, (p, a) in parents.items()}, name
    key = lambda s: context_key(s, mode, graph.classes)
    assert [key(s) for s in graph.states] == [key(s) for s in states], name
    assert _adjacency(graph) == _reference_adjacency(states, edges), name


@pytest.mark.parametrize("mode", list(CongruenceMode))
@pytest.mark.parametrize("order", ("bfs", "dfs"))
def test_explore_matches_from_scratch_reference(mode, order):
    # Keying only the bindings a transition changed must give the graph that
    # canonicalising and keying every successor in full gives: the same
    # states in the same order, the same edges and the same parents, and
    # the same successors, predecessors, stuck states and occupancies.
    limits = ExploreLimits(mode=mode)
    for name, g0, sigma, r in list(_reference_cases()) + list(_mesh_cases()):
        graph = explore(g0, sigma, r, limits, order=order)
        _assert_matches_reference(
            graph, _reference_explore(g0, sigma, r, limits, order), mode, name)


def _adjacency(graph):
    """An explored graph's successors, edges, stuck ids, predecessors,
    occupancies and largest occupancy in comparable form.  Each must equal
    what a graph over the same states and `succ` derives on first read, so
    what `explore` writes and sets is checked against the derivations."""
    def form(g):
        return ([[(_act(a), t) for a, t in out] for out in g.succ],
                [(f, _act(a), t) for f, a, t in g.edges],
                g.stuck_ids, g.pred, g.occupancy, g.max_occupancy)
    got = form(graph)
    assert got == form(LtsGraph(graph.states, graph.succ, order=graph.order))
    return got


def _reference_adjacency(states, edges):
    """The same, recounted from a reference run's states and edge list."""
    succ, pred = [[] for _ in states], [[] for _ in states]
    for f, a, t in edges:
        succ[f].append((_act(a), t))
        pred[t].append(f)
    occupancy = [_occupancy(s) for s in states]
    return (succ, [(f, _act(a), t) for f, a, t in edges],
            [sid for sid, out in enumerate(succ) if not out], pred,
            occupancy, max(occupancy, default=0))


def _capped(run, cap):
    """What _reference_run gives under the state cap `cap`, read off `run`,
    the same reference run without that cap: a capped run is the uncapped
    one stopped where it finds its state number `cap`, counting from 0."""
    states, edges, parents, exceeded = run
    if cap < len(states):
        sid, action = parents[cap]
        return Exceeded("maxStates", cap, _path(parents, sid) + (action,), states[cap])
    return exceeded or (states, edges, parents)


def _act(a):
    return type(a).__name__, a.render()


def _outcome(out):
    """An explore outcome or a reference one, in comparable form."""
    if isinstance(out, Exceeded):
        return out.kind, out.limit, [_act(a) for a in out.witness], out.state
    if isinstance(out, LtsGraph):
        states, edges, parents = out.states, out.edges, out.parents
        adjacency = _adjacency(out)
    else:
        states, edges, parents = out
        adjacency = _reference_adjacency(states, edges)
    return (states, [(f, _act(a), t) for f, a, t in edges],
            {n: (p, _act(a)) for n, (p, a) in parents.items()}, adjacency)


def test_explore_matches_reference_under_every_limit():
    # Every state cap from 1 to the full size, with and without a buffer
    # bound, under the input's map and the fully reliable one, BFS and DFS:
    # the same graph, or the same Exceeded (kind, limit, witness and state).
    # The limits act alike under both congruences, and the sweep is
    # quadratic in the graph size, so it runs under the default one; the
    # test above compares the complete graphs under both.
    mode = CongruenceMode.TOTAL_REORDER
    for name, g0, sigma, r in _reference_cases():
        rf = Reliability.fully_reliable({k[1] for k, _ in g0.endpoints})
        for rel, bound, order in itertools.product((r, rf), (None, 1, 2, 3), ("bfs", "dfs")):
            run = _reference_run(g0, sigma, rel, ExploreLimits(
                10 ** 9, bound, mode), order)
            for cap in range(1, len(run[0]) + 1):
                got = explore(g0, sigma, rel, ExploreLimits(cap, bound, mode), order)
                assert _outcome(got) == _outcome(_capped(run, cap)), \
                    (name, rel is rf, bound, order, cap)


def test_explore_keeps_a_self_reception_as_the_reference_does():
    # A role that takes a message from its own buffer: the receiver's new
    # binding is applied last, so the message stays, as under
    # context_transitions.  p ends with a in its buffer on both of q's
    # choices, so the two paths meet in one state.
    g = ctx({("s", "p"): sbt(S("&{ q?go(). p!a(). end, q?no(). p!a(). p?a(). end }")),
             ("s", "q"): sbt(S("+{ p!go(). end, p!no(). end }"))})
    for mode in CongruenceMode:
        limits = ExploreLimits(mode=mode)
        assert _outcome(explore(g, {"s"}, RF, limits)) == \
            _outcome(_reference_explore(g, {"s"}, RF, limits, "bfs"))


# -- the timeout-free view ----------------------------------------------------


def _mesh_cases():
    for name, text in mesh_sources():
        pf = parse(text)
        g0, sess = initial_context(pf)
        yield name, g0, {sess}, pf.reliability


def _view_form(graph, mode):
    """A complete graph in comparable form: per-state key parts, edges with
    rendered actions, parents, occupancy and stuck ids."""
    bindings = graph.states.bindings
    parts = [tuple(canonical_binding(bindings[b][1], mode, graph.classes)[1] for b in ids)
             for ids in graph.states.ids]
    return (parts, [(f, _act(a), t) for f, a, t in graph.edges],
            {n: (p, _act(a)) for n, (p, a) in graph.parents.items()},
            graph.occupancy, graph.stuck_ids)


def _assert_view_is_exploration(g0, sigma, r, mode, name, max_states=100000):
    """Assert that without_timeouts of the graph under r is the graph
    explored under the fully reliable map, and return the graph under r;
    None when it exceeds max_states."""
    limits = ExploreLimits(max_states, None, mode)
    full = explore(g0, sigma, r, limits)
    if isinstance(full, Exceeded):
        return None
    rf = Reliability.fully_reliable({k[1] for k, _ in g0.endpoints})
    assert _view_form(without_timeouts(full), mode) == \
        _view_form(explore(g0, sigma, rf, limits), mode), (name, mode)
    return full


@pytest.mark.parametrize("mode", list(CongruenceMode))
def test_timeout_free_view_is_the_fully_reliable_exploration(mode):
    with_timeouts = 0
    for name, g0, sigma, r in list(_reference_cases()) + list(_mesh_cases()):
        full = _assert_view_is_exploration(g0, sigma, r, mode, name)
        assert full is not None, name
        with_timeouts += any(isinstance(a, TimeoutAct) for _, a, _ in full.edges)
    # every case but the two Open item 1 probes, which are fully reliable
    assert with_timeouts == 7


def _random_timeout_context(rng: random.Random):
    """A small three-role context whose branchings may carry a timeout,
    possibly recursive, with a random reliability map."""
    roles = ("p", "q", "r")

    def chain(role, depth, loop):
        if depth == 0:
            return "t" if loop and rng.random() < 0.5 else "end"
        peer = rng.choice([x for x in roles if x != role])
        lab = rng.choice("ab")
        cont = chain(role, depth - 1, loop)
        if rng.random() < 0.5:
            return f"{peer}!{lab}(). {cont}"
        if rng.random() < 0.3:
            return f"{peer}?{lab}(). {cont}"
        return f"&{{ {peer}?{lab}(). {cont}, timeout. {chain(role, depth - 1, loop)} }}"

    eps = {}
    for role in roles:
        loop = rng.random() < 0.5
        body = chain(role, rng.randint(1, 3), loop)
        eps[("s", role)] = sbt(S(f"rec t. {body}" if loop else body))
    r = Reliability.of({role: {x for x in roles if x != role and rng.random() < 0.4}
                        for role in roles})
    return ctx(eps), r


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from(list(CongruenceMode)))
def test_timeout_free_view_matches_on_random_contexts(seed, mode):
    rng = random.Random(seed)
    g0, r = _random_timeout_context(rng)
    _assert_view_is_exploration(g0, {"s"}, r, mode, seed, max_states=300)
    g0 = _random_context(rng)
    assert _assert_view_is_exploration(g0, {"s"}, R0, mode, seed) is not None


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from(list(CongruenceMode)),
       st.sampled_from(("bfs", "dfs")))
def test_explore_matches_reference_on_random_contexts(seed, mode, order):
    rng = random.Random(seed)
    g0, r = _random_timeout_context(rng)
    for g0, r in ((g0, r), (_random_context(rng), R0)):
        limits = ExploreLimits(300, None, mode)
        run = _reference_run(g0, {"s"}, r, limits, order)
        got = explore(g0, {"s"}, r, limits, order)
        if run[3] is not None:
            assert _outcome(got) == _outcome(run[3]), seed
        else:
            _assert_matches_reference(got, run[:3], mode, seed)


# -- export -------------------------------------------------------------------


def test_export_json_round_trip():
    graph = _fixture_graph("ping")
    doc = json.loads(export_lts(graph, "json"))
    assert doc["initial"] == 0
    assert len(doc["states"]) == len(graph.states)
    assert len(doc["edges"]) == len(graph.edges)
    assert export_lts(graph, "json") == export_lts(graph, "json")


def test_export_dot_mentions_stuck_states():
    graph = _fixture_graph("ping")
    dot = export_lts(graph, "dot")
    assert dot.startswith("digraph")
    assert "doublecircle" in dot
