"""Property verdicts: positive fixtures, engineered violations, witness
replay, and the containment between the FIFO and reordering safety notions."""
import io
import itertools
import json
import random
import sys
import time
from functools import cached_property

import pytest

import magpi.cli
from magpi import parse, parse_session_text
from magpi.cli import initial_context, main
from magpi.context import TypeContext
from magpi.lts import (ComAct, Exceeded, ExploreLimits, LtsGraph, SendAct,
                       TimeoutAct, context_transitions, explore)
from magpi.types import (Basic, BranchArm, BufEntry, CongruenceMode, END,
                         Rec, RecRef, Reliability, Select, SelectArm,
                         SessionBufferType, Branch, UNIT, session_nodes,
                         type_equal)
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


def test_terminating_holds_when_the_cycle_search_finds_none():
    # q's type recurses, so the search runs, but each turn of q's loop
    # takes a message p sends once: the 7-state graph has no cycle.
    g = ctx({("s", "p"): sbt(S("q!a().q!b().end")),
             ("s", "q"): sbt(S("rec X. &{ p?a().X, p?b().end }"))})
    r, graphs = rel(p={"q"}, q={"p"}), V.Graphs(g, {"s"}, LIM)
    assert not graphs.static.acyclic
    assert V.check_terminating(g, {"s"}, r, LIM, graphs) == V.Verdict(V.HOLDS)
    (graph,) = graphs.get(r)
    assert len(graph.states) == 7 and V._lasso(graph) is None


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


def test_recursion_free_deadlock_with_a_waiting_receiver():
    # No type recurses, so the graph is acyclic, but its stuck state has p
    # waiting: live may skip its closure only on a deadlock-free graph.
    g = ctx({("s", "p"): sbt(S("&{ q?a().end }")),
             ("s", "q"): sbt(END)})
    assert V._StaticFacts(g).acyclic
    graphs = V.Graphs(g, {"s"}, LIM)
    for check in (V.check_terminating, V.check_deadlock_free, V.check_live):
        v = check(g, {"s"}, rel(), LIM, graphs)
        assert v.status == V.VIOLATED and v.witness == (), check
    assert V.check_live(g, {"s"}, rel(), LIM).status == V.VIOLATED


def test_fixtures_live():
    for name in ("ping", "dns"):
        pf = parse(fixture_text(name))
        g0, sess = initial_context(pf)
        assert V.check_live(g0, {sess}, pf.reliability, LIM).holds, name


# -- boundedness --------------------------------------------------------------


def test_unbounded_producer_violates_every_bound():
    g = ctx({("s", "p"): sbt(S("rec t. q!m().t"))})
    for k in (1, 2, 3):
        v = V.check_bound_k(g, {"s"}, rel(), k, LIM)
        assert v.status == V.VIOLATED
        assert len(v.witness) == k  # k sends reach the bound


def test_bound_is_monotone():
    # [DERIVED] if bound_k holds then bound_{k+1} holds.
    pf = parse(fixture_text("ping"))
    g0, sess = initial_context(pf)
    held = False
    for k in range(1, 8):
        v = V.check_bound_k(g0, {sess}, pf.reliability, k, LIM)
        if held:
            assert v.holds, f"bound_{k} regressed after a smaller bound held"
        held = held or v.holds
    assert held


def test_bounded_reports_minimal_k(ping):
    g0, sess = initial_context(ping)
    v = V.check_bounded(g0, {sess}, ping.reliability, 8, LIM)
    assert v.holds and v.minimal_k == 4
    assert v.to_json() == {"verdict": "holds", "minimalK": 4}
    prev = V.check_bound_k(g0, {sess}, ping.reliability, v.minimal_k - 1, LIM)
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


# -- the static checks' one walk ---------------------------------------------------


def _static_safety_reference(g0, r):
    """Reference: the nested scan (sender x receiver x node x arm x source)
    that `_StaticFacts.safety_holds` replaces with one index."""
    graphs = {key: session_nodes(sbt.session)
              for key, sbt in g0.endpoints if sbt.session is not None}
    for (session, role), nodes in graphs.items():
        for node in nodes:
            if (isinstance(node, Branch)
                    and (node.timeout is not None) != r.needs_timeout(role, node.arms)):
                return False
    for key, sbt in g0.endpoints:
        session, sender = key
        sources = [a for n in graphs.get(key, ())
                   if isinstance(n, Select) for a in n.arms] + list(sbt.buffer)
        for (s2, recv), nodes in graphs.items():
            if s2 != session or recv == sender:
                continue
            for node in nodes:
                if not isinstance(node, Branch):
                    continue
                for arm in node.arms:
                    if arm.frm != sender:
                        continue
                    for e in sources:
                        if (e.to == recv and e.label == arm.label
                                and not type_equal(e.payload, arm.payload)):
                            return False
    return True


def _nodes(g0):
    return [(role, n) for (_, role), sbt in g0.endpoints if sbt.session is not None
            for n in session_nodes(sbt.session)]


def _random_entries(rng: random.Random, roles="pqr"):
    return tuple(BufEntry(rng.choice(roles), rng.choice("ab"),
                          rng.choice([UNIT, Basic("int"), END]))
                 for _ in range(rng.randint(0, 2)))


def _random_static_context(rng: random.Random):
    """Three-role contexts mixing sends and receptions to any role, the
    role itself too, with timeouts, recursion, initial buffer entries and
    maybe a buffer-only binding."""
    def chain(top, depth):
        if depth == 0:
            return RecRef("t", top) if rng.random() < 0.3 else END
        peer, label = rng.choice("pqr"), rng.choice("ab")
        payload = rng.choice([UNIT, Basic("int"), END])
        cont = chain(top, depth - 1)
        if rng.random() < 0.5:
            return Select((SelectArm(peer, label, payload, cont),))
        return Branch((BranchArm(peer, label, payload, cont),),
                      chain(top, depth - 1) if rng.random() < 0.4 else None)

    def session():
        top = Rec("t")
        top.body = chain(top, rng.randint(1, 3))
        return top

    eps = {("s", role): sbt(session(), *_random_entries(rng)) for role in "pq"}
    if rng.random() < 0.5:
        eps[("s", "r")] = sbt(None, *_random_entries(rng))
    return ctx(eps)


def _random_map(rng: random.Random, roles):
    return Reliability.of({x: {y for y in roles if y != x and rng.random() < 0.5}
                           for x in roles})


def test_static_facts_match_the_nested_scans():
    # [DERIVED] the one walk answers static safety, the timeout question
    # and acyclicity exactly as one scan each did before.
    cases = []
    for text in [fixture_text(n) for n in ("ping", "dns", "leader")] + [
            t for _, t in mesh_sources() + mesh_sources(3)] + [
            (ROOT / "tests" / "golden" / f).read_text(encoding="utf-8")
            for f in ("mesh.magpi", "mesh_loop.magpi")]:
        pf = parse(text)
        g0, _ = initial_context(pf)
        roles = {k[1] for k, _ in g0.endpoints}
        cases += [(g0, r) for r in (pf.reliability, Reliability.fully_reliable(roles),
                                    Reliability.of({x: () for x in roles}))]
    rng = random.Random(20261019)
    for _ in range(300):
        g = _random_context(rng)
        g = ctx({key: sbt(b.session, *_random_entries(rng, "pq")) for key, b in g.endpoints}
                | ({("s", "r"): sbt(None, *_random_entries(rng))} if rng.random() < 0.5 else {}))
        cases.append((g, _random_map(rng, "pqr")))
        cases.append((_random_static_context(rng), _random_map(rng, "pqr")))
    outcomes = set()
    for g0, r in cases:
        facts = V._StaticFacts(g0)
        nodes = _nodes(g0)
        safe = _static_safety_reference(g0, r)
        assert facts.safety_holds(r) == safe, g0
        assert facts.may_time_out(r) == any(
            isinstance(n, Branch) and n.timeout is not None
            and r.needs_timeout(role, n.arms) for role, n in nodes), g0
        assert facts.acyclic == (not any(isinstance(n, RecRef) for _, n in nodes)), g0
        outcomes.add((safe, facts.acyclic))
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


def _bound_sweep(g0, sigma, r, k_max, limits):
    """Reference: the smallest k <= k_max whose bound holds, by one
    buffer-bounded exploration per k."""
    for k in range(1, k_max + 1):
        if V.check_bound_k(g0, sigma, r, k, limits).holds:
            return k
    return None


@pytest.mark.parametrize("name", ["ping", "dns"])
@pytest.mark.parametrize("mode", list(CongruenceMode))
def test_bounded_single_exploration_matches_sweep(name, mode):
    pf = parse(fixture_text(name))
    g0, sess = initial_context(pf)
    r = pf.reliability
    limits = ExploreLimits(mode=mode)
    graphs = V.Graphs(g0, {sess}, limits)
    graphs.get(r)  # the graph a property of the run would have built
    for k_max in range(1, 6):
        want = _bound_sweep(g0, {sess}, r, k_max, limits)
        status = V.HOLDS if want is not None else V.INCONCLUSIVE
        for shared in (None, graphs):
            v = V.check_bounded(g0, {sess}, r, k_max, limits, graphs=shared)
            assert (v.status, v.minimal_k) == (status, want), (k_max, shared)
        # bound_k read off the shared graph gives the BFS witness
        assert (V.check_bound_k(g0, {sess}, r, k_max, limits, graphs=graphs)
                == V.check_bound_k(g0, {sess}, r, k_max, limits))


def _prefix_cases():
    """(name, g0, sigma, r, caps): ping, dns, both golden meshes and the Open
    item 1 probes under every state cap up to their full size, and leader
    under two caps its graph exceeds."""
    for name, text in [(n, fixture_text(n)) for n in ("ping", "dns", "leader")] + [
            (f, (ROOT / "tests" / "golden" / f).read_text(encoding="utf-8"))
            for f in ("mesh.magpi", "mesh_loop.magpi")]:
        pf = parse(text)
        g0, sess = initial_context(pf)
        caps = (400, 5000) if name == "leader" else range(1, len(
            explore(g0, {sess}, pf.reliability, LIM).states) + 1)
        yield name, g0, {sess}, pf.reliability, caps
    for second in ("Y", "W"):
        yield f"open item 1 ({second})", _probe(second), {"s"}, \
            Reliability.fully_reliable(PROBE_ROLES), range(1, 25)


def test_bound_checks_read_the_stopped_graph_as_a_bounded_exploration(monkeypatch):
    # [DERIVED] a buffer-bounded BFS visits the states in the run's order
    # and stops at the first that reaches its bound, so both bound checks
    # read off the run's graphs, stopped at any state cap or complete, give
    # the verdict of a fresh exploration with the bound k of each linked
    # component (graphs=None), and make none of their own.  The limits act
    # alike under both congruences, so the sweep over every cap runs under
    # the default one, and leader's two caps run under both.
    for name, g0, sigma, r, caps in _prefix_cases():
        modes = list(CongruenceMode) if name == "leader" else [CongruenceMode.TOTAL_REORDER]
        fresh = {}  # (component, limits, k) -> the fresh bounded exploration both checks read
        bounds = []  # the buffer bound of each fresh exploration

        def explore_once(g0_, sigma_, r_, lim, max_buffer_len):
            bounds.append(max_buffer_len)
            if (g0_, lim, max_buffer_len) not in fresh:
                fresh[g0_, lim, max_buffer_len] = explore(g0_, sigma_, r_, lim,
                                                          max_buffer_len=max_buffer_len)
            return fresh[g0_, lim, max_buffer_len]
        for cap, mode in itertools.product(caps, modes):
            limits = ExploreLimits(cap, mode)
            graphs = V.Graphs(g0, sigma, limits)
            graphs.get(r)
            for k in range(1, 6):
                with monkeypatch.context() as patch:
                    calls = _count_explores(patch)
                    shared = (V.check_bound_k(g0, sigma, r, k, limits, graphs),
                              V.check_bounded(g0, sigma, r, k, limits, graphs))
                assert calls["verify"] == 0, (name, cap, k)
                bounds.clear()
                with monkeypatch.context() as patch:
                    patch.setattr(V, "explore", explore_once)
                    assert shared == (V.check_bound_k(g0, sigma, r, k, limits),
                                      V.check_bounded(g0, sigma, r, k, limits)), \
                        (name, cap, k)
                assert bounds == [k] * (2 * len(graphs.parts)), (name, cap, k)


@pytest.mark.parametrize("mode", ["total", "tcp"])
def test_bounded_and_terminating_explore_once(monkeypatch, mode):
    # leader's graph stops at 400 states; bounded reads that prefix
    calls = _count_explores(monkeypatch)
    out = io.StringIO()
    main(["verify", fixture_file("leader"), "--max-states", "400", "--props",
          "bounded,terminating", "--mode", mode, "--json"], out)
    assert calls == {"verify": 1, "cli": 0}
    assert json.loads(out.getvalue())["stats"] == {"exceeded": "maxStates", "limit": 400}


# The linked components of the inputs with more than one: each golden mesh
# is two groups that never address each other.
PARTS = {"tests/golden/mesh.magpi": 2, "tests/golden/mesh_loop.magpi": 2}


@pytest.mark.parametrize("path, extra, stats", [
    ("fixtures/ping.magpi", [], 0), ("fixtures/dns.magpi", [], 0),
    ("tests/golden/mesh.magpi", [], 0), ("tests/golden/mesh_loop.magpi", [], 0),
    ("fixtures/leader.magpi", ["--max-states", "5000"], 0),
    ("fixtures/ping.magpi", ["--bound", "2"], 1)])
@pytest.mark.parametrize("mode", ["total", "tcp"])
def test_bounded_alone_explores_once(monkeypatch, path, extra, stats, mode):
    # No other property builds the graph, so `bounded` explores with its
    # bound, once per linked component.  An exploration that completes or
    # stops at the state limit is the run's graph, and the stats read it.
    # ping's buffers reach 2, so with the bound 2 it stops at the bound, a
    # shorter prefix, and the stats explore the run's graph.
    calls = _count_explores(monkeypatch)
    main(["verify", str(ROOT / path), "--props", "bounded", "--mode", mode, "--json",
          *extra], io.StringIO())
    parts = PARTS.get(path, 1)
    assert calls == {"verify": parts, "cli": stats * parts}


def test_bounded_inconclusive_on_unbounded_producer():
    g = ctx({("s", "p"): sbt(S("rec t. q!m().t"))})
    v = V.check_bounded(g, {"s"}, rel(), 4, LIM)
    assert (v.status, v.limit, v.minimal_k) == (V.INCONCLUSIVE, 4, None)


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
    V.check_bounded(g0, {sess}, r, 8, tcp, graphs=graphs)
    V.check_bound_k(g0, {sess}, r, 2, tcp, graphs=graphs)
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


def _count_work(monkeypatch) -> dict:
    """Count the deadlock scans (the scans `Graphs.verdict` runs with the
    deadlock rule), the cycle searches and the predecessor lists derived
    (which only live's closure reads)."""
    calls = {"deadlock": 0, "lasso": 0, "pred": 0}

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    def scan(graph, rule, *args, _real=V._scan):
        calls["deadlock"] += rule is V._deadlock_failure
        return _real(graph, rule, *args)
    monkeypatch.setattr(V, "_scan", scan)
    monkeypatch.setattr(V, "_lasso", counted("lasso", V._lasso))
    pred = cached_property(counted("pred", LtsGraph.pred.func))
    pred.__set_name__(LtsGraph, "pred")
    monkeypatch.setattr(LtsGraph, "pred", pred)
    return calls


@pytest.mark.parametrize("mode", ("total", "tcp"))
def test_mesh_run_explores_once(monkeypatch, tmp_path, mode):
    # The verify benchmark's op on its 2-fold meshes, whose two groups are
    # two linked components, each explored once: comm-rf reads its graphs
    # off the complete graphs under the declared map, and the stats read
    # those graphs.  The deadlock scan runs once per component.  Where no
    # endpoint type recurses, neither the cycle search nor live's closure
    # runs; with a looping q_0 each observer's closure derives its
    # component's predecessors, and the cycle search stops at the first
    # component with a cycle.
    props = ",".join(bench_gen().MESH_PROPS)
    for name, text in mesh_sources():
        path = tmp_path / "mesh.magpi"
        path.write_text(text, encoding="utf-8")
        with monkeypatch.context() as patch:
            calls = _count_explores(patch)
            work = _count_work(patch)
            main(["verify", str(path), "--props", props, "--mode", mode, "--json"],
                 io.StringIO())
        looping = "loop=True" in name
        assert calls == {"verify": 2, "cli": 0}, name
        assert work["lasso"] in ((1, 2) if looping else (0,)), name
        assert work == {"deadlock": 2, "lasso": work["lasso"], "pred": 2 * looping}, name


@pytest.mark.parametrize("mode", ("total", "tcp"))
def test_mesh_run_walks_each_type_graph_three_times(monkeypatch, tmp_path, mode):
    # Each of the six endpoint type graphs is walked once by the parser's
    # validation, once by the run's static facts, which the typecheck
    # gate's static safety check reads too, and once by `type_classes` in
    # explore.
    props = ",".join(bench_gen().MESH_PROPS)
    modules = [m for name, m in sys.modules.items()
               if (name == "magpi" or name.startswith("magpi."))
               and hasattr(m, "session_nodes")]
    for name, text in mesh_sources():
        path = tmp_path / "mesh.magpi"
        path.write_text(text, encoding="utf-8")
        walks = []
        with monkeypatch.context() as patch:
            def counted(*args, _real=session_nodes, **kwargs):
                walks.append(args[0])
                return _real(*args, **kwargs)
            for module in modules:
                patch.setattr(module, "session_nodes", counted)
            main(["verify", str(path), "--props", props, "--mode", mode, "--json"],
                 io.StringIO())
        assert len(walks) <= 18, name


PROBE_SAFETY = "safety: holds\nstates: 3 edges: 2\n"
PROBE_DEFAULT = ("comm-rf: holds\ndeadlock: holds\nlive: holds\nsafety: holds\n"
                 "terminating: holds\nstates: 3 edges: 2\n")


# (argv, explorations, calls of the per-state safety rule, stdout)
PROBE_RUNS = [
    (["verify", "--props", "safety"], 1, 3, PROBE_SAFETY),
    (["verify"], 1, 3, PROBE_DEFAULT),
    (["verify", "--mode", "tcp", "--props", "safety"], 2, 6, PROBE_SAFETY),
    (["verify", "--mode", "tcp", "--props", "safety,tcp"], 2, 9,
     "safety: holds\ntcp: holds\nstates: 3 edges: 2\n"),
    (["verify", "--unsafe-skip-typecheck"], 1, 3, PROBE_DEFAULT),
    (["check"], 1, 3, "typecheck: accepted\n"),
]


@pytest.mark.parametrize("argv, explores, rule_calls, stdout", PROBE_RUNS,
                         ids=[" ".join(argv) for argv, *_ in PROBE_RUNS])
def test_gate_and_verify_share_the_explored_safety_graph(monkeypatch, argv, explores,
                                                         rule_calls, stdout):
    # The probe's static safety fails (an unreachable branching breaks
    # SP2), so the typecheck gate explores.  `verify` reads the gate's
    # graph for its own safety and every other property of the mode; a tcp
    # run explores its FIFO graph as well.  The gate's premise and
    # `verify`'s safety read one kept verdict, so the safety rule runs once
    # per state of each 3-state graph scanned: a tcp run scans the gate's,
    # the FIFO graph under the declared map and, for `tcp`, the FIFO graph
    # under the fully reliable map.
    calls = _count_explores(monkeypatch)
    rule = []

    def counted(*args, _real=V._state_safety_failure):
        rule.append(args[0])
        return _real(*args)
    monkeypatch.setattr(V, "_state_safety_failure", counted)
    out = io.StringIO()
    code = main([argv[0], str(ROOT / "tests" / "golden" / "explored_safety.magpi"),
                 *argv[1:]], out)
    assert (code, out.getvalue()) == (0, stdout)
    assert (calls, len(rule)) == ({"verify": explores, "cli": 0}, rule_calls)



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
        return V.Verdict(V.INCONCLUSIVE, reason=graph.kind, limit=graph.limit)
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


@pytest.mark.parametrize("mode", list(CongruenceMode))
def test_termination_and_liveness_shortcuts_match_the_searches(mode):
    # [DERIVED] on every complete graph of the liveness cases: a context
    # whose endpoint types do not recurse has an acyclic graph, and a
    # terminating graph is live.  So terminating and live, which skip the
    # cycle search and the liveness closure where these facts decide them,
    # agree with both searches run in full, alone and in one run in
    # verify's order.  The product graph has a cycle exactly when a linked
    # component's graph does, and the lasso is the first such component's.
    limits = ExploreLimits(max_states=3000, mode=mode)
    static = 0
    for name, g0, sigma, r in _live_cases():
        graph = explore(g0, sigma, r, limits)
        if isinstance(graph, Exceeded):
            continue
        lasso = next(filter(None, (_lasso_recursive(explore(part, sigma, r, limits))
                                   for part in V.Graphs(g0, sigma, limits).parts)), None)
        assert (lasso is None) == (_lasso_recursive(graph) is None), name
        if V._StaticFacts(g0).acyclic:
            assert lasso is None, name
            static += 1
        terminating = V.check_deadlock_free(g0, sigma, r, limits)
        if terminating.holds and lasso is not None:
            terminating = V.Verdict(V.VIOLATED, reason="Cycle", witness=lasso)
        live = _check_live_reference(g0, sigma, r, limits)
        assert live.holds or not terminating.holds, name
        graphs = V.Graphs(g0, sigma, limits)
        assert V.check_terminating(g0, sigma, r, limits, graphs) == terminating, name
        assert V.check_live(g0, sigma, r, limits, graphs) == live, name
        assert V.check_terminating(g0, sigma, r, limits) == terminating, name
        assert V.check_live(g0, sigma, r, limits) == live, name
    assert static > 600


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

    return dfs(0)


def _edge_graph(n, edges, parents):
    """An LtsGraph over n placeholder states from an edge list."""
    succ = [[] for _ in range(n)]
    for f, a, t in edges:
        succ[f].append((a, t))
    return LtsGraph([None] * n, succ, parents, None)


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
    # a recursive endpoint type, so the cycle search decides termination
    looping = ctx({("s", "p"): sbt(S("rec t. q!m().t"))})
    v = V.check_terminating(looping, {"s"}, rel(), LIM)
    assert v.status == V.VIOLATED and v.reason == "Cycle"
    assert v.witness == tuple(f"a{i}" for i in range(n - 1)) + ("back",)


PRELOADED = """
protocol preloaded
roles p, q
reliability { p: {q}, q: {p} }
type Sq @ q = &{ p?a().end }
system = new s:{ p: end, q: Sq } in ( s[q]&{ p?a().0 } | s:[(p,q)!a()] )
"""


def test_bound_probe_stops_at_a_preloaded_initial_state(tmp_path):
    # The initial buffer already holds a message, so the exploration with
    # the buffer bound 1 stops at state 0 and the probe decides nothing.
    pf = parse(PRELOADED)
    g0, session = initial_context(pf)
    (graph,) = V.Graphs(g0, {session}, LIM).bounded(pf.reliability, 1)
    assert isinstance(graph, Exceeded) and graph.kind == "bufferLen"
    assert len(graph.states) == 1 and graph.expanded == 0
    path = tmp_path / "preloaded.magpi"
    path.write_text(PRELOADED, encoding="utf-8")
    out = io.StringIO()
    assert main(["verify", str(path), "--props", "bounded", "--bound", "1", "--json"],
                out) == 2
    assert json.loads(out.getvalue())["properties"] == {"bounded": {
        "limit": 1, "reason": "unbounded up to probe", "verdict": "inconclusive"}}


# -- the buffer-bounded fallback stays within the run's state limit -----------


def test_bound_fallback_trips_the_state_limit_as_inconclusive():
    # An unbounded producer with a buffer bound beyond the state limit: the
    # one buffer-bounded exploration stops at the limit, which decides
    # nothing either way.
    g = ctx({("s", "p"): sbt(S("rec t. q!m().t"))})
    limits = ExploreLimits(max_states=3)
    graphs = V.Graphs(g, {"s"}, limits)
    v = V.check_bound_k(g, {"s"}, rel(), 5, limits, graphs=graphs)
    assert (v.status, v.reason, v.limit) == (V.INCONCLUSIVE, "maxStates", 3)
    v = V.check_bounded(g, {"s"}, rel(), 5, limits, graphs=graphs)
    assert (v.status, v.reason, v.limit, v.minimal_k) == (V.INCONCLUSIVE, "maxStates", 3, None)
    # within the limit the bound is still found violated
    v = V.check_bound_k(g, {"s"}, rel(), 2, limits, graphs=graphs)
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
