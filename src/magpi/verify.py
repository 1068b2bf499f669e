"""Decision procedures for type-level properties over the context LTS:
safety, per-pair-FIFO safety, deadlock-freedom, termination,
never-termination, liveness, communication-safety under full reliability,
and buffer boundedness."""
from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .context import TypeContext, split_end_gc
from .lts import (ComAct, Exceeded, ExploreLimits, LtsGraph, action_to_json,
                  explore, without_timeouts)
from .types import (Branch, CongruenceMode, Reliability, Select, TypeClasses,
                    buffer_heads, buffer_keys, resolve, session_nodes,
                    type_equal)

HOLDS = "holds"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Verdict:
    status: str
    reason: str = ""
    witness: tuple = ()  # replayable action path from the initial context
    limit: int | None = None

    @property
    def holds(self) -> bool:
        return self.status == HOLDS

    def to_json(self) -> dict:
        out = {"verdict": self.status}
        if self.reason:
            out["reason"] = self.reason
        if self.status == VIOLATED:
            out["witness"] = [action_to_json(a) for a in self.witness]
        if self.limit is not None:
            out["limit"] = self.limit
        return out


def _inconclusive(exc: Exceeded) -> Verdict:
    return Verdict(INCONCLUSIVE, reason=exc.kind, limit=exc.limit)


def _scan(graph, reason, stuck_only: bool = False) -> Verdict:
    """The verdict of a per-state property on `graph` (or Exceeded):
    violated at the lowest state id, among the stuck ones when `stuck_only`,
    for which `reason(sid)` gives a reason, with the path to that state;
    holds when no id does."""
    if isinstance(graph, Exceeded):
        return _inconclusive(graph)
    for sid in graph.stuck_ids if stuck_only else range(len(graph.states)):
        fail = reason(sid)
        if fail is not None:
            return Verdict(VIOLATED, reason=fail, witness=graph.path_to(sid))
    return Verdict(HOLDS)


# ---------------------------------------------------------------------------
# the graphs of one run


def _may_time_out(g0: TypeContext, r: Reliability) -> bool:
    """Whether some branching with a timeout in g0's type graphs waits on a
    peer outside its reliability set, i.e. could ever time out under r."""
    return any(isinstance(n, Branch) and n.timeout is not None
               and r.needs_timeout(role, n.arms)
               for (_, role), sbt in g0.endpoints if sbt.session is not None
               for n in session_nodes(sbt.session))


class Graphs:
    """The explored graphs of one verify run, each built at most once and
    shared by every property that reads it.

    A graph is fixed by its reliability map and congruence mode.  The map
    only decides which timeouts are enabled, so when no timeout can fire
    under the map, the graph is the timeout-free graph of that mode whatever
    the map: under the fully reliable map, comm-rf and tcp read one graph.
    When a complete graph of the mode is already built, the timeout-free
    graph is read off it (`lts.without_timeouts`) instead of explored, so a
    run that asks for the declared map first explores once per mode."""

    def __init__(self, g0: TypeContext, sigma, limits: ExploreLimits):
        self.g0, self.sigma, self.limits = g0, sigma, limits
        self._built: dict = {}
        self._times_out: dict = {}  # map -> _may_time_out(g0, map)

    def _key(self, r: Reliability, mode) -> tuple:
        if r not in self._times_out:
            self._times_out[r] = _may_time_out(self.g0, r)
        return (self.limits.mode if mode is None else mode,
                r if self._times_out[r] else None)

    def get(self, r: Reliability, mode: CongruenceMode | None = None):
        """The LtsGraph (or Exceeded) under r; mode defaults to the run's."""
        key = self._key(r, mode)
        if key not in self._built:
            full = None if key[1] is not None else next(
                (g for (m, _), g in self._built.items()
                 if m == key[0] and isinstance(g, LtsGraph)), None)
            self._built[key] = without_timeouts(full) if full is not None else \
                explore(self.g0, self.sigma, r, ExploreLimits(
                    self.limits.max_states, self.limits.max_buffer_len, key[0]))
        return self._built[key]

    def built(self, r: Reliability, mode: CongruenceMode | None = None):
        """The graph under r if a property has already built it, else None."""
        return self._built.get(self._key(r, mode))


def _graphs(graphs: Graphs | None, g0, sigma, limits) -> Graphs:
    return Graphs(g0, sigma, limits) if graphs is None else graphs


def _fully_reliable(g0: TypeContext) -> Reliability:
    return Reliability.fully_reliable({k[1] for k, _ in g0.endpoints})


# ---------------------------------------------------------------------------
# safety


def _branch_endpoints(g: TypeContext):
    for key, sbt in g.endpoints:
        if sbt.session is None:
            continue
        head = resolve(sbt.session)
        if isinstance(head, Branch):
            yield key, sbt, head


def _receivable(entries: tuple, recipient: str, mode: CongruenceMode,
                classes: TypeClasses) -> list:
    """The entries recipient may consume next: the buffer congruence's heads
    addressed to it."""
    return [entries[i] for i in buffer_heads(buffer_keys(entries, classes), mode)
            if entries[i].to == recipient]


def _state_safety_failure(g: TypeContext, r: Reliability, mode: CongruenceMode,
                          classes: TypeClasses | None) -> str | None:
    """SP1/SP2/SP-Com on a single context; None when satisfied.  SP-Com is
    relative to the congruence mode because it constrains exactly the
    messages a reception could observe next."""
    for (session, role), sbt, head in _branch_endpoints(g):
        if (head.timeout is not None) != r.needs_timeout(role, head.arms):
            return "SP1" if head.timeout is None else "SP2"
        for arm in head.arms:
            sender = g.endpoint((session, arm.frm))
            if sender is None:
                continue
            for e in _receivable(sender.buffer, role, mode, classes):
                if (e.label == arm.label
                        and not type_equal(e.payload, arm.payload)):
                    return "SP-Com"
    return None


def _fifo_head_failure(g: TypeContext, classes: TypeClasses | None) -> str | None:
    """FIFO head safety on one context: "TCP" when a receiver branching on
    messages from p has a (p, receiver)-channel head that matches no arm
    from p on both label and payload type; None when satisfied."""
    for (session, role), _, head in _branch_endpoints(g):
        for frm in {a.frm for a in head.arms}:
            sender = g.endpoint((session, frm))
            if sender is None:
                continue
            for hd in _receivable(sender.buffer, role, CongruenceMode.TCP_FIFO,
                                  classes):
                if not any(a.frm == frm and a.label == hd.label
                           and type_equal(a.payload, hd.payload)
                           for a in head.arms):
                    return "TCP"
    return None


def _static_safety_holds(g0: TypeContext, r: Reliability) -> bool:
    """Sound over-approximation used when exploration trips a limit: every
    branching node anywhere in any endpoint's type graph must satisfy
    SP1/SP2, and every (selection arm, matching branch arm) pair across
    endpoint graphs — plus initial buffer entries — must agree on payload
    types.  Passing certifies safety of all reachable contexts."""
    # each endpoint's type graph, walked once
    graphs = {key: session_nodes(sbt.session)
              for key, sbt in g0.endpoints if sbt.session is not None}
    for (session, role), nodes in graphs.items():
        for node in nodes:
            if (isinstance(node, Branch)
                    and (node.timeout is not None) != r.needs_timeout(role, node.arms)):
                return False
    # all message sources a receiver may observe, per (sender, recipient):
    # selection arms anywhere in the sender's type graph plus any initial
    # in-transit entries (the sender binding may be buffer-only).
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


def check_safety(g0: TypeContext, sigma, r: Reliability,
                 limits: ExploreLimits, graphs: Graphs | None = None) -> Verdict:
    """`graphs`, when given, holds the run's shared graphs, built from the
    same g0, sigma and limits; the same holds for every check below."""
    # Cheap sound over-approximation first: if every branch node in every
    # endpoint's type graph satisfies the reliability side conditions and
    # all label-compatible send/receive pairs agree on payload types, the
    # property holds in every reachable state without exploring any.
    if _static_safety_holds(g0, r):
        return Verdict(HOLDS, reason="static")
    graph = _graphs(graphs, g0, sigma, limits).get(r)
    return _scan(graph, lambda sid: _state_safety_failure(
        graph.states[sid], r, limits.mode, graph.classes))


def check_tcp_safety(g0: TypeContext, sigma, limits: ExploreLimits,
                     graphs: Graphs | None = None) -> Verdict:
    """Per-pair FIFO safety under the fully reliable map: whenever a
    receiver branches on messages from p, the (p, receiver)-channel head (if
    any) must match some arm from p on both label and payload type.  The
    base safety conditions are included, evaluated under the FIFO congruence,
    so this property is strictly stronger than the reordering one."""
    r = _fully_reliable(g0)
    graph = _graphs(graphs, g0, sigma, limits).get(r, CongruenceMode.TCP_FIFO)

    def failure(sid):
        state = graph.states[sid]
        return (_state_safety_failure(state, r, CongruenceMode.TCP_FIFO, graph.classes)
                or _fifo_head_failure(state, graph.classes))
    return _scan(graph, failure)


# ---------------------------------------------------------------------------
# progress properties


def check_deadlock_free(g0: TypeContext, sigma, r: Reliability,
                        limits: ExploreLimits,
                        graphs: Graphs | None = None) -> Verdict:
    graph = _graphs(graphs, g0, sigma, limits).get(r)

    def failure(sid):
        ok, reason = split_end_gc(graph.states[sid])
        return None if ok else f"Deadlock: {reason}"
    return _scan(graph, failure, stuck_only=True)


def _lasso(graph: LtsGraph) -> tuple | None:
    """The first back edge met by a depth-first search from the initial
    state, as the path to its source plus the edge; None when acyclic.
    Iterative, so the depth of the search is not bounded by the stack."""
    succ = graph.succ
    color = bytearray(len(succ))  # 0 unseen, 1 on the path, 2 done
    color[graph.initial] = 1
    path, todo = [graph.initial], [iter(succ[graph.initial])]
    while todo:
        for a, v in todo[-1]:
            seen = color[v]
            if seen == 1:
                return graph.path_to(path[-1]) + (a,)
            if not seen:
                color[v] = 1
                path.append(v)
                todo.append(iter(succ[v]))
                break
        else:
            color[path.pop()] = 2
            todo.pop()
    return None


def check_terminating(g0: TypeContext, sigma, r: Reliability,
                      limits: ExploreLimits,
                      graphs: Graphs | None = None) -> Verdict:
    graphs = _graphs(graphs, g0, sigma, limits)
    df = check_deadlock_free(g0, sigma, r, limits, graphs)
    if not df.holds:
        return df
    # a reachable cycle is a non-terminating lasso
    lasso = _lasso(graphs.get(r))
    if lasso is not None:
        return Verdict(VIOLATED, reason="Cycle", witness=lasso)
    return Verdict(HOLDS)


def check_never_terminating(g0: TypeContext, sigma, r: Reliability,
                            limits: ExploreLimits,
                            graphs: Graphs | None = None) -> Verdict:
    graph = _graphs(graphs, g0, sigma, limits).get(r)
    return _scan(graph, lambda sid: "Terminal", stuck_only=True)


def _waits(sbt) -> bool:
    """Whether a binding waits on a branching without a timeout."""
    if sbt.session is None:
        return False
    head = resolve(sbt.session)
    return isinstance(head, Branch) and head.timeout is None


def check_live(g0: TypeContext, sigma, r: Reliability,
               limits: ExploreLimits, graphs: Graphs | None = None) -> Verdict:
    """A timeout-less branching endpoint must always be able to eventually
    take one of its arms: from every state where it waits, some state with
    an enabled communication for that endpoint is reachable.  Branches with
    timeouts are exempt (their timeout arm is always available)."""
    graph = _graphs(graphs, g0, sigma, limits).get(r)
    if isinstance(graph, Exceeded):
        return _inconclusive(graph)
    ids, bindings = graph.states.ids, graph.states.bindings
    # the binding ids that wait without a timeout, per endpoint key, each
    # binding id decided once
    waiting: dict = {}
    for b, (key, sbt) in enumerate(bindings):
        if _waits(sbt):
            waiting.setdefault(key, set()).add(b)
    if not waiting:
        return Verdict(HOLDS)
    slot = {bindings[b][0]: i for i, b in enumerate(ids[graph.initial])}
    # states with an enabled communication, per waiting receiver
    receives: dict = {}
    for f, out in enumerate(graph.succ):
        for a, _ in out:
            if type(a) is ComAct and (a.session, a.to) in waiting:
                receives.setdefault((a.session, a.to), []).append(f)
    pred = graph.pred
    for key in sorted(waiting):
        session, role = key
        # the states where key waits, and a backward closure from the
        # states that can take a communication for key, stopped once it
        # holds all of them
        waits = bytearray(map(waiting[key].__contains__, map(itemgetter(slot[key]), ids)))
        closed = bytearray(len(ids))
        left = sum(waits)
        work = []
        for u in receives.get(key, ()):
            if not closed[u]:
                closed[u] = 1
                left -= waits[u]
                work.append(u)
        while work and left:
            for v in pred[work.pop()]:
                if not closed[v]:
                    closed[v] = 1
                    left -= waits[v]
                    work.append(v)
        if left:
            sid = next(sid for sid, w in enumerate(waits) if w and not closed[sid])
            return Verdict(VIOLATED,
                           reason=f"Live: {session}[{role}] can never receive",
                           witness=graph.path_to(sid))
    return Verdict(HOLDS)


def check_comm_safe_RF(g0: TypeContext, sigma, limits: ExploreLimits,
                       graphs: Graphs | None = None) -> Verdict:
    """Under the fully reliable map (no timeout is ever enabled), every
    stuck state must have all buffers drained."""
    graph = _graphs(graphs, g0, sigma, limits).get(_fully_reliable(g0))
    return _scan(graph, lambda sid: next(
        (f"CommRF: orphan message in {session}[{role}]"
         for (session, role), sbt in graph.states[sid].endpoints if sbt.buffer),
        None), stuck_only=True)


# ---------------------------------------------------------------------------
# boundedness
#
# Both checks read their answer off the run's graph under r when a property
# has built it completely: a complete graph holds every reachable context.
# Otherwise they explore once with the buffer bound.  Bounded buffers over
# finitely many type positions leave finitely many contexts, but maybe more
# than the run's state limit: a trip of that limit is inconclusive.


def _bound_graph(g0, sigma, r, k, mode, graphs: Graphs | None):
    """The run's graph under r and mode if a property has built it
    completely, else one exploration with the buffer bound k."""
    graph = None if graphs is None else graphs.built(r, mode)
    if isinstance(graph, LtsGraph):
        return graph
    limits = ExploreLimits() if graphs is None else graphs.limits
    return explore(g0, sigma, r, ExploreLimits(limits.max_states, k, mode))


def check_bound_k(g0: TypeContext, sigma, r: Reliability, k: int,
                  mode: CongruenceMode = CongruenceMode.TOTAL_REORDER,
                  graphs: Graphs | None = None) -> Verdict:
    """All reachable per-recipient channel buffers stay strictly below k.
    The witness leads to the first context, in BFS order, that reaches k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    graph = _bound_graph(g0, sigma, r, k, mode, graphs)
    if isinstance(graph, Exceeded) and graph.kind == "bufferLen":
        return Verdict(VIOLATED, reason=f"bound_{k}", witness=graph.witness)
    # state ids are BFS discovery order, so on the shared graph the lowest id
    # reaching k is the context a buffer-bounded BFS stops at; a
    # buffer-bounded graph that did not stop has none
    return _scan(graph, lambda sid:
                 f"bound_{k}" if graph.occupancy[sid] >= k else None)


def check_bounded(g0: TypeContext, sigma, r: Reliability, k_max: int,
                  mode: CongruenceMode = CongruenceMode.TOTAL_REORDER,
                  graphs: Graphs | None = None):
    """Holds with the minimal k (largest channel occupancy + 1) when that k
    is at most k_max, else Inconclusive."""
    graph = _bound_graph(g0, sigma, r, k_max, mode, graphs)
    if isinstance(graph, LtsGraph):
        k = graph.max_occupancy + 1
        if k <= k_max:
            return Verdict(HOLDS), k
    elif graph.kind == "maxStates":
        return _inconclusive(graph), None
    return Verdict(INCONCLUSIVE, reason="unbounded up to probe", limit=k_max), None
