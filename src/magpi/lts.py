"""Context reduction and the reachable labelled transition system over
canonical typing contexts.

Transitions per endpoint: a selection enqueues one typed message onto the
sender's buffer (one Send per arm); a branching consumes a congruence-
head-reachable matching entry from the arm source's buffer (Com); a
branching with a timeout and at least one unreliable arm source may time
out.  Recursion nodes are unfolded transparently before matching.

`explore` works over interned endpoint bindings.  Each distinct canonical
binding gets an id, and is canonicalised, keyed and expanded by the rules
once per exploration, however many states hold it: its expansion record,
built once, holds its sends and timeout as ready successors and its branch
arms grouped by the slot they read, with the receptions memoised per
sender binding id.  A state is the tuple of its bindings' ids, a successor
is its parent's tuple with one or two ids replaced, and the graph keeps
those tuples: a state is built as a TypeContext only when it is read.  A
state's key is one int, and a successor's key is its parent's plus the
precomputed change of each replaced binding.  The graph is its successor
lists, written once as states are expanded; its edges, predecessors and
occupancies are derived when read, and a buffer bound is checked on the
bindings a step changes only.  A stop at a limit keeps the graph so far.

`without_timeouts` reads the graph under a map where no timeout fires off
a complete graph under any map: a map only enables timeouts.
"""
from __future__ import annotations

import json
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, partial
from operator import itemgetter

from .context import (TypeContext, canonical_binding, context_classes,
                      render_context)
# Unused here, but kept importable from this module: the public state
# identity and canonical form that explore's keys and states agree with, for
# tools that wrap them here.
from .context import canonical_context, context_key  # noqa: F401
from .types import (Branch, BufEntry, CongruenceMode, Reliability, Select,
                    SessionBufferType, Type, TypeClasses, buffer_heads,
                    buffer_keys, format_type, resolve, type_equal)


# ---------------------------------------------------------------------------
# actions


@dataclass(frozen=True)
class SendAct:
    session: str
    frm: str
    to: str
    label: str
    payload: Type

    def render(self) -> str:
        return f"{self.session}:{self.frm}!{self.to}:{self.label}({format_type(self.payload)})"


@dataclass(frozen=True)
class ComAct:
    session: str
    frm: str
    to: str
    label: str

    def render(self) -> str:
        return f"{self.session}:{self.frm},{self.to}:{self.label}"


@dataclass(frozen=True)
class TimeoutAct:
    session: str
    role: str

    def render(self) -> str:
        return f"{self.session}:{self.role}:timeout"


Action = object


@dataclass(frozen=True)
class ExploreLimits:
    max_states: int = 100000
    mode: CongruenceMode = CongruenceMode.TOTAL_REORDER

    def __post_init__(self):
        if self.max_states < 1:
            raise ValueError("max_states must be >= 1")


# ---------------------------------------------------------------------------
# single-state transitions
#
# The rules are stated per endpoint binding: what a binding can do on its own
# (`_own_moves`), and what a sender's binding becomes when a receiver takes a
# message from its buffer (`_taken`).  `context_transitions` applies them to
# one context; `explore` applies the same two functions once per distinct
# binding and reuses the result in every state that holds it.


def _own_moves(key: tuple, sbt: SessionBufferType, r: Reliability) -> tuple:
    """(sends, arms, timeout) of one tracked endpoint binding with a session:
    `sends` holds (SendAct, new binding) per selection arm; `arms` holds
    (arm, ComAct, receiver's new binding) per branch arm, enabled when the
    arm's source buffer has a matching head; `timeout` is (TimeoutAct, new
    binding) or None."""
    session, role = key
    head = resolve(sbt.session)
    if isinstance(head, Select):
        return ([(SendAct(session, role, a.to, a.label, a.payload),
                  SessionBufferType(sbt.buffer + (BufEntry(a.to, a.label, a.payload),),
                                    a.cont))
                 for a in head.arms], [], None)
    if not isinstance(head, Branch):
        return [], [], None
    arms = [(a, ComAct(session, a.frm, role, a.label), SessionBufferType(sbt.buffer, a.cont))
            for a in head.arms]
    timeout = None
    if head.timeout is not None and r.needs_timeout(role, head.arms):
        timeout = (TimeoutAct(session, role), SessionBufferType(sbt.buffer, head.timeout))
    return [], arms, timeout


def _taken(sender: SessionBufferType, want: tuple, mode: CongruenceMode,
           classes: TypeClasses | None) -> list:
    """The sender's bindings after a receiver takes the message `want`
    (recipient, label, payload) from its buffer: one per congruence head
    that matches."""
    buf = sender.buffer
    if not buf:
        return []
    to, label, payload = want
    return [SessionBufferType(buf[:i] + buf[i + 1:], sender.session)
            for i in buffer_heads(buffer_keys(buf, classes), mode)
            if buf[i].to == to and buf[i].label == label
            and type_equal(buf[i].payload, payload)]


def context_transitions(g: TypeContext, sigma, r: Reliability,
                        limits: ExploreLimits,
                        classes: TypeClasses | None = None) -> list:
    """The complete enabled set of (Action, successor) pairs, sorted by
    action rendering for deterministic exploration.  `classes`, when given,
    covers g's type positions."""
    out = []
    sigma = set(sigma)
    for key, sbt in g.endpoints:
        session, role = key
        if session not in sigma or sbt.session is None:
            continue
        sends, arms, timeout = _own_moves(key, sbt, r)
        out += [(act, g.with_endpoint(key, nsbt)) for act, nsbt in sends]
        for arm, act, nsbt in arms:
            skey = (session, arm.frm)
            ssbt = g.endpoint(skey)
            if ssbt is not None:
                out += [(act, g.with_endpoint(skey, rest).with_endpoint(key, nsbt))
                        for rest in _taken(ssbt, (role, arm.label, arm.payload),
                                           limits.mode, classes)]
        if timeout is not None:
            out.append((timeout[0], g.with_endpoint(key, timeout[1])))
    out.sort(key=lambda p: p[0].render())
    return out


# ---------------------------------------------------------------------------
# graph exploration


class States(Sequence):
    """The states of an explored graph, state id -> TypeContext, each
    built from the state's binding ids when it is read.  `ids` holds the
    binding-id tuple of every state, and `bindings` the (endpoint key,
    canonical binding) pair of every binding id."""

    __slots__ = ("vars", "ids", "bindings")

    def __init__(self, vars_: tuple, ids: list, bindings: list):
        self.vars, self.ids, self.bindings = vars_, ids, bindings

    def context(self, ids: tuple) -> TypeContext:
        return TypeContext(self.vars, tuple(map(self.bindings.__getitem__, ids)))

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, sid: int) -> TypeContext:
        return self.context(self.ids[sid])

    def __iter__(self):
        return map(self.context, self.ids)

    def __eq__(self, other):
        if isinstance(other, (States, list)):
            return list(self) == list(other)
        return NotImplemented


@dataclass
class LtsGraph:
    """An explored LTS, kept as its successor adjacency: `explore` writes
    each state's successors into `succ` as it expands the state.  The
    edges, the stuck states, the predecessors, each state's occupancy and
    their maximum are derived when first read; `explore` sets a complete
    graph's maximum as it places states.  A state's occupancy is the
    largest number of messages any sender buffer of it holds for one
    recipient.  Only `verify.check_live`'s backward closure reads `pred`,
    and only on a graph that may have a cycle."""

    states: Sequence        # state id -> TypeContext (canonical), 0 initial; States from explore
    succ: list              # id -> [(Action, to id)]
    parents: dict           # id -> (parent id, Action)
    classes: TypeClasses | None  # the type classes every state is keyed by

    @cached_property
    def edges(self) -> list:
        """(from id, Action, to id), in id order."""
        return [(f, a, t) for f, out in enumerate(self.succ) for a, t in out]

    @cached_property
    def stuck_ids(self) -> list:
        """The ids without successors, ascending."""
        return [sid for sid, out in enumerate(self.succ) if not out]

    @cached_property
    def pred(self) -> list:
        """id -> [from id], one per edge, in id order."""
        pred = [[] for _ in self.succ]
        for f, out in enumerate(self.succ):
            for _, t in out:
                pred[t].append(f)
        return pred

    @cached_property
    def occupancy(self) -> list:
        """id -> buffer occupancy, from each binding's; reads States."""
        occ = [_buffer_occupancy(sbt.buffer) for _, sbt in self.states.bindings]
        return [max(map(occ.__getitem__, ids), default=0) for ids in self.states.ids]

    @cached_property
    def max_occupancy(self) -> int:
        return max(self.occupancy, default=0)

    def path_to(self, sid: int) -> tuple:
        return _path(self.parents, sid)


@dataclass
class Exceeded(LtsGraph):
    """An exploration stopped at a limit, a value, not an error: the graph
    so far, whose first `expanded` ids are fully expanded.  A bufferLen
    stop's last state is the first to reach the bound."""

    kind: str  # "maxStates" | "bufferLen"
    limit: int
    expanded: int

    @cached_property
    def stuck_ids(self) -> list:
        """The expanded ids without successors: the others are not stuck."""
        return [sid for sid, out in enumerate(self.succ[:self.expanded]) if not out]


def _path(parents: dict, sid: int) -> tuple:
    acts = []
    while sid in parents:
        sid, a = parents[sid]
        acts.append(a)
    return tuple(reversed(acts))


def _buffer_occupancy(buffer: tuple) -> int:
    """Largest number of messages the buffer holds for one recipient."""
    best, counts = 0, {}
    for e in buffer:
        n = counts[e.to] = counts.get(e.to, 0) + 1
        if n > best:
            best = n
    return best


_NO_MOVES = ((), ())

# The bit width of one binding's field in a state key.  A key part id counts
# the distinct parts found so far, so it is below sys.maxsize and fits.
_FIELD = sys.maxsize.bit_length()


def explore(g0: TypeContext, sigma, r: Reliability, limits: ExploreLimits,
            max_buffer_len: int | None = None):
    """Closure of context_transitions from g0 with canonical-state
    deduplication: the LtsGraph, or the Exceeded prefix at the state limit
    or the buffer bound `max_buffer_len`, if given.  A state is known by one
    int key, its bindings' key parts packed one field per endpoint slot.
    The search is breadth-first, so state ids and the paths to them are
    minimal-length.  Ids are given in discovery order, so the frontier is
    the state list itself, walked by index.

    Each binding id gets one expansion record, on first need: its sends and
    timeout as ready successor entries, and its branch arms grouped by the
    slot they read, each group with a memo from the sender's binding id to
    its ready receptions.  A state is expanded by one `extend` per binding
    and one lookup per group, and each edge is written once, into the
    graph's `succ`.  Only a step's changed bindings can bring a state to
    the buffer cap, its parent being below it, so only they are checked,
    and the largest occupancy is kept as states are placed."""
    # Every successor reuses nodes of g0's type graphs, so g0's table of
    # classes covers every reachable state.
    classes, mode, sigma = context_classes(g0), limits.mode, set(sigma)
    # Endpoint bindings are interned: a binding id stands for one endpoint
    # slot and one canonical binding, compared by content, so bisimilar
    # bindings written differently keep their own ids and spellings.  Per id
    # are kept the (endpoint key, binding) pair every state holding it
    # shares, its key part, interned as an int, its occupancy and its
    # expansion record.  A state is a tuple of binding ids, and its key the
    # int holding the part id of slot i in bits [i * _FIELD, (i + 1) * _FIELD).
    keys = [k for k, _ in g0.endpoints]
    slot = {k: i for i, k in enumerate(keys)}
    shift = [i * _FIELD for i in range(len(keys))]
    interned: dict = {}  # (slot, canonical binding) -> binding id
    pairs, part, occ, table = [], [], [], []
    part_ids: dict = {}

    def intern(i: int, sbt: SessionBufferType) -> int:
        sbt, p = canonical_binding(sbt, mode, classes)
        b = interned.setdefault((i, sbt), len(pairs))
        if b == len(pairs):
            pairs.append((keys[i], sbt))
            part.append(part_ids.setdefault(p, len(part_ids)))
            occ.append(_buffer_occupancy(sbt.buffer))
            table.append(None)
        return b

    def change(i: int, b: int, nb: int) -> tuple:
        """(slot, new binding id) and the key change of replacing b by nb."""
        return (i, nb), (part[nb] - part[b]) << shift[i]

    # A successor entry is (rendered action, action, key change, changes),
    # the changes being (slot, new binding id) pairs.  An arm keeps the
    # receiver's half of both, and the sender's half comes from `taken`,
    # run once per (sender id, wanted message).  An arm's wanted message
    # (recipient, label, payload) is interned as an int, cheaper to hash.
    coms: dict = {}   # sender id -> {wanted message id: sender halves}
    wants: dict = {}  # wanted message -> id

    def record(b: int) -> tuple:
        """(fixed entries, [(source slot, arms, memo)]) of binding b."""
        key, sbt = pairs[b]
        if key[0] not in sigma or sbt.session is None:
            return _NO_MOVES
        i = slot[key]
        sends, arms, timeout = _own_moves(key, sbt, r)

        def move(a, n):
            c, d = change(i, b, intern(i, n))
            return a.render(), a, d, (c,)
        fixed = [move(a, n) for a, n in sends]
        if timeout is not None:
            fixed.append(move(*timeout))
        groups: dict = {}  # source slot -> [(rendered, action, want id, want, change, key change)]
        for arm, a, n in arms:
            j = slot.get((key[0], arm.frm))
            if j is not None:
                want = (key[1], arm.label, arm.payload)
                groups.setdefault(j, []).append(
                    (a.render(), a, wants.setdefault(want, len(wants)), want,
                     *change(i, b, intern(i, n))))
        return fixed, [(j, group, {}) for j, group in groups.items()]

    def taken(sb: int, w: int, want: tuple) -> tuple:
        skey, sender = pairs[sb]
        j = slot[skey]
        out = tuple(change(j, sb, intern(j, n))
                    for n in _taken(sender, want, mode, classes))
        if want[0] == skey[1]:
            # A role taking from its own buffer: the receiver's half is
            # applied last and overwrites this one, so it changes no key.
            out = tuple((c, 0) for c, _ in out)
        coms[sb][w] = out
        return out

    def receptions(group: list, sb: int) -> list:
        """The successor entries of a group's arms while sb holds their slot."""
        got = coms.setdefault(sb, {})
        return [(text, action, d + ds, (theirs, mine))
                for text, action, w, want, mine, d in group
                for theirs, ds in (got[w] if w in got else taken(sb, w, want))]

    bids = [tuple(intern(i, sbt) for i, (_, sbt) in enumerate(g0.endpoints))]
    skeys = [sum(part[b] << shift[i] for i, b in enumerate(bids[0]))]
    states, succ, parents = States(g0.vars, bids, pairs), [[]], {}
    top = max(map(occ.__getitem__, bids[0]), default=0)
    ids = {skeys[0]: 0}
    cap = max_buffer_len
    stop = partial(Exceeded, states, succ, parents, classes)
    if cap is not None and top >= cap:
        return stop("bufferLen", cap, 0)
    for sid, state in enumerate(bids):  # bids grows as states are found
        out = []
        for b in state:
            rec = table[b]
            if rec is None:
                rec = table[b] = record(b)
            fixed, groups = rec
            out += fixed
            for j, group, memo in groups:
                sb = state[j]
                got = memo.get(sb)
                if got is None:
                    got = memo[sb] = receptions(group, sb)
                out += got
        out.sort(key=itemgetter(0))
        known, mine = skeys[sid], succ[sid]
        for _, action, d, changes in out:
            key = known + d
            nid = ids.get(key)
            if nid is None:
                nxt = list(state)
                for j, nb in changes:
                    nxt[j] = nb
                    if occ[nb] > top:
                        top = occ[nb]
                nxt = tuple(nxt)
                nid = len(bids)
                if nid >= limits.max_states:
                    return stop("maxStates", limits.max_states, sid)
                ids[key] = nid
                bids.append(nxt)
                skeys.append(key)
                succ.append([])
                parents[nid] = (sid, action)
                if cap is not None and top >= cap:
                    mine.append((action, nid))
                    return stop("bufferLen", cap, sid)
            mine.append((action, nid))
    graph = LtsGraph(states, succ, parents, classes)
    graph.max_occupancy = top
    return graph


def without_timeouts(graph: LtsGraph) -> LtsGraph:
    """The part of a complete graph reachable without timeouts, its states
    numbered in BFS visit order: the graph `explore` builds from the same
    initial state under a map where no timeout fires.  A map only enables
    timeouts, and each state's successors are in explore's order, so the
    states, edges, parents and witnesses are explore's.  Its occupancy is
    left to be read off its states."""
    old = [0]  # new id -> old id
    new = {0: 0}
    succ, parents = [], {}
    for f, sid in enumerate(old):  # old grows as states are found
        out = []
        for a, t in graph.succ[sid]:
            if isinstance(a, TimeoutAct):
                continue
            nid = new.get(t)
            if nid is None:
                nid = new[t] = len(old)
                old.append(t)
                parents[nid] = (f, a)
            out.append((a, nid))
        succ.append(out)
    ids = graph.states.ids
    states = States(graph.states.vars, [ids[o] for o in old], graph.states.bindings)
    return LtsGraph(states, succ, parents, graph.classes)


# ---------------------------------------------------------------------------
# export


def action_to_json(a: Action) -> dict:
    if isinstance(a, SendAct):
        return {"kind": "send", "session": a.session, "from": a.frm, "to": a.to,
                "label": a.label, "payload": format_type(a.payload)}
    if isinstance(a, ComAct):
        return {"kind": "com", "session": a.session, "from": a.frm, "to": a.to,
                "label": a.label}
    return {"kind": "timeout", "session": a.session, "role": a.role}


def export_lts(g: LtsGraph, fmt: str = "json") -> str:
    if fmt == "json":
        doc = {
            "initial": 0,
            "states": [{"id": i, "ctx": render_context(s), "stuck": not g.succ[i]}
                       for i, s in enumerate(g.states)],
            "edges": [{"from": f, "action": action_to_json(a), "to": t}
                      for f, a, t in g.edges],
        }
        return json.dumps(doc, indent=2, sort_keys=True)
    if fmt == "dot":
        lines = ["digraph lts {"]
        for i, s in enumerate(g.states):
            shape = "circle" if g.succ[i] else "doublecircle"
            label = render_context(s).replace('"', '\\"')
            lines.append(f'  n{i} [shape={shape}, label="{i}: {label}"];')
        for f, a, t in g.edges:
            lines.append(f'  n{f} -> n{t} [label="{a.render()}"];')
        lines.append("}")
        return "\n".join(lines)
    raise ValueError(f"unknown export format {fmt!r}")
