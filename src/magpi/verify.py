"""Decision procedures for type-level properties over the context LTS:
safety, per-pair-FIFO safety, deadlock-freedom, termination,
never-termination, liveness, communication-safety under full reliability,
and buffer boundedness."""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod
from operator import itemgetter

from .context import TypeContext, split_end_gc
from .lts import (ComAct, Exceeded, ExploreLimits, LtsGraph, action_to_json,
                  explore, without_timeouts)
from .types import (Branch, CongruenceMode, RecRef, Reliability, Select,
                    TypeClasses, buffer_heads, buffer_keys, is_basic,
                    resolve, session_nodes, type_equal)

HOLDS = "holds"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Verdict:
    status: str
    reason: str = ""
    witness: tuple = ()  # replayable action path from the initial context
    limit: int | None = None
    minimal_k: int | None = None  # boundedness: largest channel occupancy + 1

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
        if self.minimal_k is not None:
            out["minimalK"] = self.minimal_k
        return out


def _stopped(graphs: tuple) -> Verdict | None:
    """The inconclusive verdict of the first stopped exploration among
    graphs; None if every one is complete."""
    stop = next((g for g in graphs if isinstance(g, Exceeded)), None)
    return None if stop is None else Verdict(INCONCLUSIVE, reason=stop.kind, limit=stop.limit)


def _scan(graph: LtsGraph, rule, stuck_only: bool = False) -> int | None:
    """The lowest state id, among the stuck ones when `stuck_only`, for
    which `rule(state, classes)` gives a reason; None when no id does."""
    for sid in graph.stuck_ids if stuck_only else range(len(graph.states)):
        if rule(graph.states[sid], graph.classes) is not None:
            return sid
    return None


def _first(path: tuple) -> tuple:
    """The order in which the product's BFS meets the ends of component
    paths, the other components idle: by the path's length, then by its
    first action's rendering, since ids at one depth follow their parents'
    ids and each state's successors are sorted by rendering."""
    return len(path), path[0].render() if path else ""


def _join(g0: TypeContext, graphs: tuple, picks: list) -> TypeContext:
    """The product state made of state picks[i] of each component graph."""
    return TypeContext(g0.vars, tuple(sorted(
        (b for g, sid in zip(graphs, picks) for b in g.states[sid].endpoints),
        key=itemgetter(0))))


def _compose(g0: TypeContext, graphs: tuple, rule, stuck_only: bool) -> Verdict:
    """The verdict of a per-state property on the product of complete
    component graphs (`Graphs.parts`), from one scan of each: violated at
    the first state found by `_scan` on the product, holds when none.

    A rule reads only the bindings of roles that address each other, so a
    product state fails exactly when one of its parts does.  Per state, the
    product's first failing state is one component's first, the others
    idle (`_first`).  Among stuck states, which are the product states made
    of stuck parts only, the property fails exactly when every component
    has a stuck state and one of them fails; the witness joins the paths
    to the failing state and to each other component's first stuck state.
    The reason is the rule's on the joined state."""
    hits = [(i, sid) for i, sid in enumerate(_scan(g, rule, stuck_only) for g in graphs)
            if sid is not None]
    if not hits or stuck_only and not all(g.stuck_ids for g in graphs):
        return Verdict(HOLDS)
    if stuck_only:
        i, sid = hits[0]
        picks = [g.stuck_ids[0] for g in graphs]
        picks[i] = sid
        witness = sum((g.path_to(sid) for g, sid in zip(graphs, picks)), ())
    else:
        i, sid = min(hits, key=lambda h: _first(graphs[h[0]].path_to(h[1])))
        picks = [0] * len(graphs)
        picks[i] = sid
        witness = graphs[i].path_to(sid)
    return Verdict(VIOLATED, reason=rule(_join(g0, graphs, picks), None), witness=witness)


# ---------------------------------------------------------------------------
# the graphs of one run


class _StaticFacts:
    """What the static checks read of g0's endpoint type graphs, each
    walked once: every branching node (its role, arms and whether it has a
    timeout), whether every selection arm or initial buffer entry agrees on
    its payload type with each branch arm that may receive it, whether
    every graph explored from g0 is acyclic, and g0's linked components.

    `acyclic` is a sound check: no endpoint type graph holds a `RecRef`,
    its only back edge.  Each step then moves one endpoint from a type node
    to a strict descendant in a finite DAG (a send or a timeout moves the
    sender, a reception the receiver, and a sender's buffer change keeps
    its type), so the longest run left from each endpoint's node, which
    bisimilar nodes share, falls at every step.

    Two endpoints are linked when one's type graph selects to the other or
    branches on it, or when one's initial buffer holds a message for the
    other.  A step changes only the bindings of the endpoints it names
    (`lts._own_moves`, `lts._taken`), which are linked, so the graph
    explored from g0 is the interleaving product of its components' graphs
    (`parts`, endpoint indices of g0, in order).  A session-typed payload
    is collected at a stuck state by any endpoint of its type, whichever
    component holds it, so an input that sends one stays whole."""

    def __init__(self, g0: TypeContext):
        self.branches = []  # (role, arms, has a timeout) per branching node
        # (session, sender, recipient, label) -> the payloads the sender's
        # selection arms and initial entries carry (a binding may be
        # buffer-only); and each reception a branch arm waits for from a peer
        sent, receptions = {}, []
        self.acyclic = True
        slot = {key: i for i, (key, _) in enumerate(g0.endpoints)}
        root = list(range(len(slot)))  # union-find over the endpoints

        def find(i: int) -> int:
            while root[i] != i:
                i = root[i]
            return i

        def link(i: int, peer: tuple) -> None:
            if peer in slot:
                root[find(i)] = find(slot[peer])

        for i, ((session, role), sbt) in enumerate(g0.endpoints):
            for e in sbt.buffer:
                sent.setdefault((session, role, e.to, e.label), []).append(e.payload)
                link(i, (session, e.to))
            for n in () if sbt.session is None else session_nodes(sbt.session):
                if isinstance(n, Branch):
                    self.branches.append((role, n.arms, n.timeout is not None))
                    receptions += [((session, a.frm, role, a.label), a.payload)
                                   for a in n.arms if a.frm != role]
                    for a in n.arms:
                        link(i, (session, a.frm))
                elif isinstance(n, Select):
                    for a in n.arms:
                        sent.setdefault((session, role, a.to, a.label), []).append(a.payload)
                        link(i, (session, a.to))
                elif isinstance(n, RecRef):
                    self.acyclic = False
        self.payloads_agree = all(type_equal(p, payload) for key, payload in receptions
                                  for p in sent.get(key, ()))
        parts: dict = {}
        for i in range(len(root)):
            parts.setdefault(find(i), []).append(i)
        delegates = not all(map(is_basic, (p for ps in sent.values() for p in ps)))
        # a g0 with no endpoints is one empty component
        self.parts = [list(range(len(root)))] if delegates else list(parts.values()) or [[]]

    def safety_holds(self, r: Reliability) -> bool:
        """Sound over-approximation of safety: every branching node
        satisfies SP1/SP2 under r, and payloads agree.  Passing certifies
        safety of all reachable contexts."""
        return self.payloads_agree and all(
            timed == r.needs_timeout(role, arms) for role, arms, timed in self.branches)

    def may_time_out(self, r: Reliability) -> bool:
        """Whether some branching with a timeout waits on a peer outside its
        reliability set, i.e. could ever time out under r."""
        return any(timed and r.needs_timeout(role, arms)
                   for role, arms, timed in self.branches)


class Graphs:
    """The explored graphs of one verify run, each built at most once and
    shared by every property that reads it.  A graph of the run is one
    graph per linked component of g0 (`parts`), each explored on its own
    and capped by the state limit alone; an input with one component has
    one graph, g0's.  The checks compose the components' verdicts.

    A graph is fixed by its reliability map and congruence mode.  The map
    only decides which timeouts are enabled, so when no timeout can fire
    under the map, the graph is the timeout-free graph of that mode whatever
    the map: under the fully reliable map, comm-rf and tcp read one graph.
    When a complete graph of the mode is already built, the timeout-free
    graph is read off it (`lts.without_timeouts`) instead of explored, so a
    run that asks for the declared map first explores once per mode.

    It also keeps the verdict of each per-state property it has scanned
    (`verdict`), so the typecheck gate's safety premise and `verify`'s
    `safety` are one scan, and `deadlock`, `terminating` and `live` read
    one deadlock verdict.  g0's endpoint type graphs are walked once per
    run, on first need (`static`): the timeout question of each map,
    static safety, acyclicity and the components all read that walk."""

    def __init__(self, g0: TypeContext, sigma, limits: ExploreLimits):
        self.g0, self.sigma, self.limits = g0, sigma, limits
        self._built: dict = {}
        self._verdicts: dict = {}  # (property, map, graph key) -> Verdict

    def _key(self, r: Reliability, mode: CongruenceMode | None = None) -> tuple:
        return (self.limits.mode if mode is None else mode,
                r if self.static.may_time_out(r) else None)

    @cached_property
    def parts(self) -> tuple:
        """The contexts of g0's linked components."""
        es = self.g0.endpoints
        return tuple(TypeContext(self.g0.vars, tuple(es[i] for i in group))
                     for group in self.static.parts)

    def get(self, r: Reliability, mode: CongruenceMode | None = None) -> tuple:
        """The component graphs under r (each Exceeded if it stopped); mode
        defaults to the run's."""
        key = self._key(r, mode)
        if key not in self._built:
            limits = ExploreLimits(self.limits.max_states, key[0])
            built = [gs for (m, _), gs in self._built.items() if m == key[0]] \
                if key[1] is None else []
            out = []
            for i, part in enumerate(self.parts):
                full = next((gs[i] for gs in built if not isinstance(gs[i], Exceeded)), None)
                out.append(explore(part, self.sigma, r, limits) if full is None
                           else without_timeouts(full))
            self._built[key] = tuple(out)
        return self._built[key]

    def built(self, r: Reliability):
        """The graphs under r if a property has already built them, else None."""
        return self._built.get(self._key(r))

    def bounded(self, r: Reliability, k: int) -> tuple:
        """The graphs under r if a property has built them, else one
        exploration per component with the buffer bound k, kept as those
        graphs unless the bound stopped one, which leaves a shorter prefix."""
        graphs = self.built(r)
        if graphs is None:
            graphs = tuple(explore(part, self.sigma, r, self.limits, max_buffer_len=k)
                           for part in self.parts)
            if not any(isinstance(g, Exceeded) and g.kind == "bufferLen" for g in graphs):
                self._built[self._key(r)] = graphs
        return graphs

    def verdict(self, prop: str, r: Reliability, mode: CongruenceMode | None,
                rule, stuck_only: bool = False) -> Verdict:
        """The verdict of the per-state property `prop` on the graphs under
        r and mode, decided by a stop or `rule` (see `_compose`) on first
        need.  The key holds the map as well as the graph's: a rule may
        read the map where the graph does not (SP1/SP2 on a timeout-free
        graph)."""
        key = (prop, r, self._key(r, mode))
        if key not in self._verdicts:
            graphs = self.get(r, mode)
            self._verdicts[key] = _stopped(graphs) or _compose(self.g0, graphs, rule,
                                                               stuck_only)
        return self._verdicts[key]

    @cached_property
    def static(self) -> _StaticFacts:
        """The static facts of g0's endpoint type graphs."""
        return _StaticFacts(self.g0)


def product_stats(graphs: tuple) -> dict:
    """`verify`'s stats of the product of component graphs: its states, the
    product of theirs, and its edges, each component's edges once per
    state of the others; or the first stop."""
    stop = _stopped(graphs)
    if stop is not None:
        return {"exceeded": stop.reason, "limit": stop.limit}
    sizes = [len(g.states) for g in graphs]
    states = prod(sizes)
    return {"states": states, "edges": sum(sum(map(len, g.succ)) * (states // n)
                                           for g, n in zip(graphs, sizes))}


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


def check_safety(g0: TypeContext, sigma, r: Reliability,
                 limits: ExploreLimits, graphs: Graphs | None = None) -> Verdict:
    """`graphs`, when given, holds the run's shared graphs, built from the
    same g0, sigma and limits; the same holds for every check below.  Here
    the mode may differ: the typecheck gate decides on a FIFO run's graphs."""
    # Cheap sound over-approximation first: if every branch node in every
    # endpoint's type graph satisfies the reliability side conditions and
    # all label-compatible send/receive pairs agree on payload types, the
    # property holds in every reachable state without exploring any.
    graphs = graphs or Graphs(g0, sigma, limits)
    if graphs.static.safety_holds(r):
        return Verdict(HOLDS, reason="static")
    return graphs.verdict("safety", r, limits.mode, lambda state, classes: _state_safety_failure(
        state, r, limits.mode, classes))


def check_tcp_safety(g0: TypeContext, sigma, limits: ExploreLimits,
                     graphs: Graphs | None = None) -> Verdict:
    """Per-pair FIFO safety under the fully reliable map: whenever a
    receiver branches on messages from p, the (p, receiver)-channel head (if
    any) must match some arm from p on both label and payload type.  The
    base safety conditions are included, evaluated under the FIFO congruence,
    so this property is strictly stronger than the reordering one."""
    r = _fully_reliable(g0)

    def failure(state, classes):
        return (_state_safety_failure(state, r, CongruenceMode.TCP_FIFO, classes)
                or _fifo_head_failure(state, classes))
    return (graphs or Graphs(g0, sigma, limits)).verdict(
        "tcp", r, CongruenceMode.TCP_FIFO, failure)


# ---------------------------------------------------------------------------
# progress properties


def _deadlock_failure(state: TypeContext, classes) -> str | None:
    """Deadlock at a stuck state that does not split into end-typed
    sessions and collectable buffers; None when it does."""
    ok, reason = split_end_gc(state)
    return None if ok else f"Deadlock: {reason}"


def _deadlock(graphs: Graphs, r: Reliability) -> Verdict:
    """The deadlock verdict of the graph under r, which `deadlock`,
    `terminating` and `live` all read, never by calling another check."""
    return graphs.verdict("deadlock", r, None, _deadlock_failure, stuck_only=True)


def check_deadlock_free(g0: TypeContext, sigma, r: Reliability,
                        limits: ExploreLimits,
                        graphs: Graphs | None = None) -> Verdict:
    return _deadlock(graphs or Graphs(g0, sigma, limits), r)


def _lasso(graph: LtsGraph) -> tuple | None:
    """The first back edge met by a depth-first search from the initial
    state (id 0), as the path to its source plus the edge; None when acyclic.
    Iterative, so the depth of the search is not bounded by the stack."""
    succ = graph.succ
    color = bytearray(len(succ))  # 0 unseen, 1 on the path, 2 done
    color[0] = 1
    path, todo = [0], [iter(succ[0])]
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
    """Deadlock-free, and no reachable cycle: the deadlock verdict when it
    does not hold, else a lasso to the first back edge a depth-first search
    meets, in the first component graph that has one, the others idle.
    When no endpoint type recurses (`_StaticFacts.acyclic`) no graph has a
    cycle, and the search is skipped."""
    graphs = graphs or Graphs(g0, sigma, limits)
    df = _deadlock(graphs, r)
    if not df.holds or graphs.static.acyclic:
        return df
    # a reachable cycle is a non-terminating lasso
    lasso = next(filter(None, map(_lasso, graphs.get(r))), None)
    if lasso is not None:
        return Verdict(VIOLATED, reason="Cycle", witness=lasso)
    return Verdict(HOLDS)


def check_never_terminating(g0: TypeContext, sigma, r: Reliability,
                            limits: ExploreLimits,
                            graphs: Graphs | None = None) -> Verdict:
    return (graphs or Graphs(g0, sigma, limits)).verdict(
        "never", r, None, lambda state, classes: "Terminal", stuck_only=True)


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
    timeouts are exempt (their timeout arm is always available).

    Holds without a search on complete graphs that are deadlock-free when
    no endpoint type recurses (`_StaticFacts.acyclic`): the graph then has no
    cycle, so every run from a waiting state ends in a stuck state, where
    every session is at `end`, and only a communication to the waiting
    endpoint moves it off its branching.
    Otherwise one backward closure per waiting endpoint decides it, in its
    own component's graph: the product reaches a communication for the
    endpoint from a state exactly when its component does."""
    graphs = graphs or Graphs(g0, sigma, limits)
    parts = graphs.get(r)
    stopped = _stopped(parts)
    if stopped is not None or graphs.static.acyclic and _deadlock(graphs, r).holds:
        return stopped or Verdict(HOLDS)
    fails = [fail for fail in map(_unserved, parts) if fail is not None]
    return min(fails, key=itemgetter(0))[1] if fails else Verdict(HOLDS)


def _unserved(graph: LtsGraph) -> tuple | None:
    """(endpoint key, violated verdict) of the first waiting endpoint, in
    key order, that some state of a complete graph leaves unable to ever
    receive; None when there is none."""
    ids, bindings = graph.states.ids, graph.states.bindings
    # the binding ids that wait without a timeout, per endpoint key, each
    # binding id decided once
    waiting: dict = {}
    for b, (key, sbt) in enumerate(bindings):
        if _waits(sbt):
            waiting.setdefault(key, set()).add(b)
    if not waiting:
        return None
    slot = {bindings[b][0]: i for i, b in enumerate(ids[0])}
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
            return key, Verdict(VIOLATED,
                                reason=f"Live: {session}[{role}] can never receive",
                                witness=graph.path_to(sid))
    return None


def check_comm_safe_RF(g0: TypeContext, sigma, limits: ExploreLimits,
                       graphs: Graphs | None = None) -> Verdict:
    """Under the fully reliable map (no timeout is ever enabled), every
    stuck state must have all buffers drained."""
    return (graphs or Graphs(g0, sigma, limits)).verdict(
        "comm-rf", _fully_reliable(g0), None, lambda state, classes: next(
            (f"CommRF: orphan message in {session}[{role}]"
             for (session, role), sbt in state.endpoints if sbt.buffer),
            None), stuck_only=True)


# ---------------------------------------------------------------------------
# boundedness
#
# Both checks read the run's graphs under r, stopped or not, or one
# exploration per component with the buffer bound k (`Graphs.bounded`).
# Both searches visit states in one BFS order, and the bounded one stops at
# the first state that reaches k: the run's lowest such id.  With none,
# both give the same graph, complete or stopped at the state limit
# (inconclusive).  A state's occupancy is its bindings' largest, so the
# product's is its parts'.


def check_bound_k(g0: TypeContext, sigma, r: Reliability, k: int,
                  limits: ExploreLimits, graphs: Graphs | None = None) -> Verdict:
    """All reachable per-recipient channel buffers stay strictly below k.
    The witness leads to the first context, in BFS order, that reaches k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    parts = (graphs or Graphs(g0, sigma, limits)).bounded(r, k)
    hits = [g.path_to(sid) for g in parts
            for sid in [next((sid for sid, n in enumerate(g.occupancy) if n >= k), None)]
            if sid is not None]
    if hits:
        return Verdict(VIOLATED, reason=f"bound_{k}", witness=min(hits, key=_first))
    return _stopped(parts) or Verdict(HOLDS)


def check_bounded(g0: TypeContext, sigma, r: Reliability, k_max: int,
                  limits: ExploreLimits, graphs: Graphs | None = None) -> Verdict:
    """Holds with the minimal k (largest channel occupancy + 1) when that k
    is at most k_max, else Inconclusive."""
    parts = (graphs or Graphs(g0, sigma, limits)).bounded(r, k_max)
    top = max(g.max_occupancy for g in parts)
    if top >= k_max:
        return Verdict(INCONCLUSIVE, reason="unbounded up to probe", limit=k_max)
    return _stopped(parts) or Verdict(HOLDS, minimal_k=top + 1)
