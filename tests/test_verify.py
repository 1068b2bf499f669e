"""Property verdicts: positive fixtures, engineered violations, witness
replay, and the containment between the FIFO and reordering safety notions."""
import io
import json
import random
import sys
import time

import pytest

import magpi.cli
from magpi import parse, parse_session_text
from magpi.cli import initial_context, main
from magpi.context import TypeContext
from magpi.lts import (ComAct, Exceeded, ExploreLimits, LtsGraph, SendAct,
                       TimeoutAct, context_transitions, explore)
from magpi.types import (Basic, BranchArm, BufEntry, CongruenceMode, END,
                         Reliability, Select, SelectArm, SessionBufferType,
                         Branch, UNIT)
from magpi import verify as V
from tests.conftest import bench_gen, fixture_file, fixture_text, mesh_sources
from tests.test_golden import ROOT
from tests.test_type_classes import ROLES as PROBE_ROLES, _probe

ROLES = {"p", "q", "r"}
LIM = ExploreLimits()


def S(text):
    return parse_session_text(text, roles=ROLES)


def ctx(eps):
    return TypeContext.of({}, eps)


def sbt(session=None, *entries):
    return SessionBufferType(tuple(entries), session)


def rel(**kw):
    m = {x: set() for x in ROLES}
    for k, v in kw.items():
        m[k] = set(v)
    return Reliability.of(m)


# -- safety -------------------------------------------------------------------


def test_safety_violated_sp1():
    # A wait without timeout on an unreliable source.
    g = ctx({("s", "q"): sbt(S("&{ p?a().end }"))})
    v = V.check_safety(g, {"s"}, rel(), LIM)
    assert v.status == V.VIOLATED and v.reason == "SP1"
    assert v.witness == ()  # violated at the initial state


def test_safety_violated_sp2():
    # A timeout on a wait whose only source is reliable.
    g = ctx({("s", "q"): sbt(S("&{ p?a().end, timeout. end }"))})
    v = V.check_safety(g, {"s"}, rel(q={"p"}), LIM)
    assert v.status == V.VIOLATED and v.reason == "SP2"


def test_safety_violated_sp_com():
    # Payload disagreement between a send and the matching wait.
    g = ctx({("s", "p"): sbt(S("q!a(int).end")),
             ("s", "q"): sbt(S("p?a(bool).end"))})
    v = V.check_safety(g, {"s"}, rel(p={"q"}, q={"p"}), LIM)
    assert v.status == V.VIOLATED and v.reason == "SP-Com"


def test_safety_witness_replays():
    # [DERIVED] the reported witness must be a genuine enabled path.
    g0 = ctx({("s", "p"): sbt(S("q!a(int).end")),
              ("s", "q"): sbt(S("p?a(bool).end"))})
    r = rel(p={"q"}, q={"p"})
    v = V.check_safety(g0, {"s"}, r, LIM)
    assert v.status == V.VIOLATED
    g = g0
    for act in v.witness:
        matches = [g2 for a, g2 in context_transitions(g, {"s"}, r, LIM)
                   if a.render() == act.render()]
        assert matches, f"witness action {act.render()} not enabled"
        g = matches[0]


def test_fixture_safety_holds():
    for name in ("ping", "dns", "leader"):
        pf = parse(fixture_text(name))
        g0, sess = initial_context(pf)
        assert V.check_safety(g0, {sess}, pf.reliability, LIM).holds, name


# -- deadlock / termination ---------------------------------------------------


def test_mutual_wait_deadlocks_immediately():
    # Two roles each waiting for the other, no messages in flight.
    g = ctx({("s", "p"): sbt(S("q?a().end")),
             ("s", "q"): sbt(S("p?b().end"))})
    v = V.check_deadlock_free(g, {"s"}, rel(p={"q"}, q={"p"}), LIM)
    assert v.status == V.VIOLATED
    assert v.witness == ()  # stuck at the initial state


def test_fixtures_deadlock_free_and_terminating():
    for name in ("ping", "dns"):
        pf = parse(fixture_text(name))
        g0, sess = initial_context(pf)
        assert V.check_deadlock_free(g0, {sess}, pf.reliability, LIM).holds
        assert V.check_terminating(g0, {sess}, pf.reliability, LIM).holds


def test_terminating_violated_by_loop():
    g = ctx({("s", "p"): sbt(S("rec t. &{ q?a().t, timeout. t }"))})
    v = V.check_terminating(g, {"s"}, rel(), LIM)
    assert v.status == V.VIOLATED
    assert v.witness  # a lasso back into the cycle


def test_never_terminating_on_pure_loop():
    g = ctx({("s", "p"): sbt(S("rec t. &{ q?a().t, timeout. t }"))})
    assert V.check_never_terminating(g, {"s"}, rel(), LIM).holds


def test_terminating_and_never_terminating_exclusive():
    # [DERIVED] the two verdicts can never both hold on the same system.
    cases = [
        ctx({("s", "p"): sbt(S("q!a().end")),
             ("s", "q"): sbt(S("p?a().end"))}),
        ctx({("s", "p"): sbt(S("rec t. &{ q?a().t, timeout. t }"))}),
    ]
    for g in cases:
        t = V.check_terminating(g, {"s"}, rel(p={"q"}, q={"p"}), LIM)
        n = V.check_never_terminating(g, {"s"}, rel(p={"q"}, q={"p"}), LIM)
        assert not (t.holds and n.holds)


# -- liveness -----------------------------------------------------------------


def test_live_violated_when_message_never_arrives():
    # q waits forever on a timeout-less branch, but p never sends.
    g = ctx({("s", "p"): sbt(END),
             ("s", "q"): sbt(S("p?a().end"))})
    v = V.check_live(g, {"s"}, rel(p={"q"}, q={"p"}), LIM)
    assert v.status == V.VIOLATED


def test_fixtures_live():
    for name in ("ping", "dns"):
        pf = parse(fixture_text(name))
        g0, sess = initial_context(pf)
        assert V.check_live(g0, {sess}, pf.reliability, LIM).holds, name


# -- boundedness --------------------------------------------------------------


def test_unbounded_producer_violates_every_bound():
    g = ctx({("s", "p"): sbt(S("rec t. q!m().t"))})
    for k in (1, 2, 3):
        v = V.check_bound_k(g, {"s"}, rel(), k, CongruenceMode.TOTAL_REORDER)
        assert v.status == V.VIOLATED
        assert len(v.witness) == k  # k sends reach the bound


def test_bound_is_monotone():
    # [DERIVED] if bound_k holds then bound_{k+1} holds.
    pf = parse(fixture_text("ping"))
    g0, sess = initial_context(pf)
    held = False
    for k in range(1, 8):
        v = V.check_bound_k(g0, {sess}, pf.reliability, k,
                            CongruenceMode.TOTAL_REORDER)
        if held:
            assert v.holds, f"bound_{k} regressed after a smaller bound held"
        held = held or v.holds
    assert held


def test_bounded_reports_minimal_k(ping):
    g0, sess = initial_context(ping)
    v, k = V.check_bounded(g0, {sess}, ping.reliability, 8,
                           CongruenceMode.TOTAL_REORDER)
    assert v.holds and k == 4
    prev = V.check_bound_k(g0, {sess}, ping.reliability, k - 1,
                           CongruenceMode.TOTAL_REORDER)
    assert prev.status == V.VIOLATED


# -- communication safety under full reliability --------------------------------


def test_fixtures_comm_safe_rf():
    for name in ("ping", "dns"):
        pf = parse(fixture_text(name))
        g0, sess = initial_context(pf)
        assert V.check_comm_safe_RF(g0, {sess}, LIM).holds, name


def test_comm_safe_rf_violated_by_stranded_message():
    # Under R_F the label mismatch leaves an undeliverable message.
    g = ctx({("s", "p"): sbt(S("q!a().end")),
             ("s", "q"): sbt(S("p?b().end"))})
    v = V.check_comm_safe_RF(g, {"s"}, LIM)
    assert v.status == V.VIOLATED


# -- FIFO safety contains reordering safety -------------------------------------


def _random_context(rng: random.Random):
    """Small two-role contexts with possibly mismatched labels/payloads."""
    labels = ["a", "b"]
    payloads = [UNIT, Basic("int"), Basic("bool")]

    def chain(role, other, depth, sending):
        if depth == 0:
            return END
        lab = rng.choice(labels)
        pay = rng.choice(payloads)
        cont = chain(role, other, depth - 1, sending)
        if sending:
            return Select((SelectArm(other, lab, pay, cont),))
        return Branch((BranchArm(other, lab, pay, cont),), None)

    depth = rng.randint(1, 3)
    eps = {("s", "p"): sbt(chain("p", "q", depth, True)),
           ("s", "q"): sbt(chain("q", "p", depth, False))}
    return ctx(eps)


def test_tcp_safety_contained_in_base_safety():
    # [DERIVED] on 500 random contexts, whenever the FIFO property holds
    # under full reliability the base safety property holds as well (both
    # evaluated on the FIFO network the stronger property describes).
    rng = random.Random(20260826)
    rf = Reliability.fully_reliable({"p", "q"})
    fifo = ExploreLimits(mode=CongruenceMode.TCP_FIFO)
    checked = 0
    produced = 0
    while checked < 500 and produced < 20000:
        produced += 1
        g = _random_context(rng)
        tcp = V.check_tcp_safety(g, {"s"}, LIM)
        if not tcp.holds:
            continue
        checked += 1
        assert V.check_safety(g, {"s"}, rf, fifo).holds, g
    assert checked == 500


def _bound_sweep(g0, sigma, r, k_max, mode):
    """Reference: the smallest k <= k_max whose bound holds, by one
    buffer-bounded exploration per k."""
    for k in range(1, k_max + 1):
        if V.check_bound_k(g0, sigma, r, k, mode).holds:
            return k
    return None


@pytest.mark.parametrize("name", ["ping", "dns"])
@pytest.mark.parametrize("mode", list(CongruenceMode))
def test_bounded_single_exploration_matches_sweep(name, mode):
    pf = parse(fixture_text(name))
    g0, sess = initial_context(pf)
    r = pf.reliability
    graphs = V.Graphs(g0, {sess}, ExploreLimits(mode=mode))
    graphs.get(r)  # the graph a property of the run would have built
    for k_max in range(1, 6):
        want = _bound_sweep(g0, {sess}, r, k_max, mode)
        status = V.HOLDS if want is not None else V.INCONCLUSIVE
        for shared in (None, graphs):
            v, k = V.check_bounded(g0, {sess}, r, k_max, mode, graphs=shared)
            assert (v.status, k) == (status, want), (k_max, shared)
        # bound_k read off the shared graph gives the BFS witness
        assert (V.check_bound_k(g0, {sess}, r, k_max, mode, graphs=graphs)
                == V.check_bound_k(g0, {sess}, r, k_max, mode))


def test_bounded_inconclusive_on_unbounded_producer():
    g = ctx({("s", "p"): sbt(S("rec t. q!m().t"))})
    v, k = V.check_bounded(g, {"s"}, rel(), 4)
    assert (v.status, v.limit, k) == (V.INCONCLUSIVE, 4, None)


# -- one graph per run ------------------------------------------------------------


def test_run_explores_each_distinct_graph_once(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[3])
        return explore(*args, **kwargs)

    monkeypatch.setattr(V, "explore", counted)
    pf = parse(fixture_text("ping"))
    g0, sess = initial_context(pf)
    r = pf.reliability
    tcp = ExploreLimits(mode=CongruenceMode.TCP_FIFO)
    graphs = V.Graphs(g0, {sess}, tcp)
    for check in (V.check_deadlock_free, V.check_terminating, V.check_live,
                  V.check_never_terminating, V.check_safety):
        check(g0, {sess}, r, tcp, graphs)
    V.check_bounded(g0, {sess}, r, 8, tcp.mode, graphs=graphs)
    V.check_bound_k(g0, {sess}, r, 2, tcp.mode, graphs=graphs)
    # no timeout fires under the fully reliable map, so comm-rf and tcp
    # read the same timeout-free graph, read off the complete graph under r
    V.check_comm_safe_RF(g0, {sess}, tcp, graphs)
    V.check_tcp_safety(g0, {sess}, tcp, graphs)
    assert len(calls) == 1
    assert graphs.built(r) is not None


def _count_explores(monkeypatch) -> dict:
    """Count the explorations of the verify checks and of the stats pass."""
    calls = {}
    for name, module in (("verify", V), ("cli", magpi.cli)):
        calls[name] = 0

        def counted(*args, _real=module.explore, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, "explore", counted)
    return calls


@pytest.mark.parametrize("mode", ("total", "tcp"))
def test_mesh_run_explores_once(monkeypatch, tmp_path, mode):
    # The verify benchmark's op: comm-rf reads its graph off the complete
    # graph under the declared map, and the stats read that graph.
    props = ",".join(bench_gen().MESH_PROPS)
    for name, text in mesh_sources():
        path = tmp_path / "mesh.magpi"
        path.write_text(text, encoding="utf-8")
        calls = _count_explores(monkeypatch)
        main(["verify", str(path), "--props", props, "--mode", mode, "--json"],
             io.StringIO())
        assert calls == {"verify": 1, "cli": 0}, name


def test_comm_rf_explores_when_the_graph_under_r_is_incomplete(monkeypatch):
    # leader's graph under R stops at 400 states, so comm-rf explores its
    # own graph, and the run reads as the two properties run alone.
    def run(props):
        out = io.StringIO()
        main(["verify", fixture_file("leader"), "--props", props,
              "--max-states", "400", "--json"], out)
        return json.loads(out.getvalue())

    alone = {p: run(p) for p in ("deadlock", "comm-rf")}
    calls = _count_explores(monkeypatch)
    both = run("deadlock,comm-rf")
    assert calls == {"verify": 2, "cli": 0}
    assert both == {"properties": {**alone["deadlock"]["properties"],
                                   **alone["comm-rf"]["properties"]},
                    "stats": alone["deadlock"]["stats"]}
    assert both["properties"]["comm-rf"] == {"verdict": "holds"}
    assert both["stats"] == {"exceeded": "maxStates", "limit": 400}


# -- liveness ---------------------------------------------------------------------


def _check_live_reference(g0, sigma, r, limits):
    """Reference: liveness with its obligations found per (state, binding)
    and each backward closure run to the end."""
    graph = explore(g0, sigma, r, limits)
    if isinstance(graph, Exceeded):
        return V._inconclusive(graph)
    waiting = [key if V._waits(sbt) else None for key, sbt in graph.states.bindings]
    obligations: dict = {}
    for sid, ids in enumerate(graph.states.ids):
        for b in ids:
            key = waiting[b]
            if key is not None:
                obligations.setdefault(key, []).append(sid)
    receives: dict = {}
    for f, a, _ in graph.edges:
        if isinstance(a, ComAct):
            receives.setdefault((a.session, a.to), set()).add(f)
    for key in sorted(obligations):
        session, role = key
        closed = set(receives.get(key, ()))
        work = list(closed)
        while work:
            u = work.pop()
            for v in graph.pred[u]:
                if v not in closed:
                    closed.add(v)
                    work.append(v)
        for sid in obligations[key]:
            if sid not in closed:
                return V.Verdict(V.VIOLATED,
                                 reason=f"Live: {session}[{role}] can never receive",
                                 witness=graph.path_to(sid))
    return V.Verdict(V.HOLDS)


def _live_cases():
    for name in ("ping", "dns", "leader"):
        pf = parse(fixture_text(name))
        g0, sess = initial_context(pf)
        yield name, g0, {sess}, pf.reliability
    for name, text in mesh_sources() + [
            (f, (ROOT / "tests" / "golden" / f).read_text(encoding="utf-8"))
            for f in ("mesh.magpi", "mesh_loop.magpi")]:
        pf = parse(text)
        g0, sess = initial_context(pf)
        yield name, g0, {sess}, pf.reliability
    for second in ("Y", "W"):
        yield f"open item 1 ({second})", _probe(second), {"s"}, \
            Reliability.fully_reliable(PROBE_ROLES)
    rng = random.Random(20261018)
    for i in range(300):
        for g in (_random_context(rng), _random_branching_context(rng)):
            yield f"random {i}", g, {"s"}, Reliability.fully_reliable({"p", "q"})


def _random_branching_context(rng: random.Random):
    """Two-role contexts whose receiver branches on one or two labels, so a
    state may enable two receptions for it at once."""
    def send(depth):
        return "end" if depth == 0 else f"q!{rng.choice('abc')}(). {send(depth - 1)}"

    def receive(depth):
        if depth == 0:
            return "end"
        return "&{ " + ", ".join(f"p?{label}(). {receive(depth - 1)}"
                                 for label in rng.sample("abc", rng.randint(1, 2))) + " }"
    return ctx({("s", "p"): sbt(S(send(rng.randint(1, 4)))),
                ("s", "q"): sbt(S(receive(rng.randint(1, 3))))})


@pytest.mark.parametrize("mode", list(CongruenceMode))
def test_live_matches_reference(mode):
    limits = ExploreLimits(max_states=3000, mode=mode)
    verdicts = set()
    for name, g0, sigma, r in _live_cases():
        got = V.check_live(g0, sigma, r, limits)
        assert got == _check_live_reference(g0, sigma, r, limits), name
        verdicts.add(got.status)
    assert verdicts == {V.HOLDS, V.VIOLATED, V.INCONCLUSIVE}


# -- termination at depth -----------------------------------------------------------


def _lasso_recursive(graph):
    """Reference: the recursive depth-first search the iterative one
    replaces (fine on small graphs)."""
    color = {}

    def dfs(u):
        color[u] = 1
        for a, v in graph.succ[u]:
            if color.get(v, 0) == 1:
                return graph.path_to(u) + (a,)
            if color.get(v, 0) == 0:
                w = dfs(v)
                if w is not None:
                    return w
        color[u] = 2
        return None

    return dfs(graph.initial)


def _edge_graph(n, edges, parents):
    """An LtsGraph over n placeholder states from an edge list."""
    succ = [[] for _ in range(n)]
    for f, a, t in edges:
        succ[f].append((a, t))
    return LtsGraph([None] * n, succ, parents=parents)


def _bfs_graph(n, edges):
    """An LtsGraph over n placeholder states with BFS parents from 0."""
    parents, seen, order = {}, {0}, [0]
    for u in order:
        for f, a, t in edges:
            if f == u and t not in seen:
                seen.add(t)
                parents[t] = (u, a)
                order.append(t)
    return _edge_graph(n, edges, parents)


def test_lasso_visits_in_recursive_order():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(1, 9)
        edges = [(rng.randrange(n), f"a{i}", rng.randrange(n))
                 for i in range(rng.randint(0, 2 * n))]
        graph = _bfs_graph(n, edges)
        assert V._lasso(graph) == _lasso_recursive(graph), edges


def test_terminating_on_deep_chain_at_default_recursion_limit(monkeypatch):
    def forbidden(limit):
        raise AssertionError("the recursion limit must not be raised")

    n = 25000
    assert sys.getrecursionlimit() < n
    monkeypatch.setattr(sys, "setrecursionlimit", forbidden)
    # 0 -> 1 -> ... -> n-1, which closes a cycle back to n-10
    edges = [(i, f"a{i}", i + 1) for i in range(n - 1)] + [(n - 1, "back", n - 10)]
    graph = _edge_graph(n, edges, {i + 1: (i, f"a{i}") for i in range(n - 1)})
    monkeypatch.setattr(V, "explore", lambda *args, **kwargs: graph)
    v = V.check_terminating(ctx({}), {"s"}, rel(), LIM)
    assert v.status == V.VIOLATED and v.reason == "Cycle"
    assert v.witness == tuple(f"a{i}" for i in range(n - 1)) + ("back",)


# -- the buffer-bounded fallback stays within the run's state limit -----------


def test_bound_fallback_trips_the_state_limit_as_inconclusive():
    # An unbounded producer with a buffer bound beyond the state limit: the
    # one buffer-bounded exploration stops at the limit, which decides
    # nothing either way.
    g = ctx({("s", "p"): sbt(S("rec t. q!m().t"))})
    graphs = V.Graphs(g, {"s"}, ExploreLimits(max_states=3))
    v = V.check_bound_k(g, {"s"}, rel(), 5, graphs=graphs)
    assert (v.status, v.reason, v.limit) == (V.INCONCLUSIVE, "maxStates", 3)
    v, k = V.check_bounded(g, {"s"}, rel(), 5, graphs=graphs)
    assert (v.status, v.reason, v.limit, k) == (V.INCONCLUSIVE, "maxStates", 3, None)
    # within the limit the bound is still found violated
    v = V.check_bound_k(g, {"s"}, rel(), 2, graphs=graphs)
    assert v.status == V.VIOLATED and len(v.witness) == 2


def test_leader_bounded_only_honours_max_states():
    for extra in (("--props", "bounded"), ("--props", "safety", "--bound", "3")):
        out = io.StringIO()
        start = time.perf_counter()
        rc = main(["verify", fixture_file("leader"), *extra,
                   "--max-states", "400", "--json"], out=out)
        assert time.perf_counter() - start < 30
        assert rc == 2
        props = json.loads(out.getvalue())["properties"]
        name = "bounded" if "bounded" in extra else "bound_3"
        assert props[name] == {"verdict": "inconclusive", "reason": "maxStates",
                               "limit": 400}
