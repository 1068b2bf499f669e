"""Context reduction and the reachable labelled transition system over
canonical typing contexts.

Transitions per endpoint: a selection enqueues one typed message onto the
sender's buffer (one Send per arm); a branching consumes a congruence-
head-reachable matching entry from the arm source's buffer (Com); a
branching with a timeout and at least one unreliable arm source may time
out.  Recursion nodes are unfolded transparently before matching.
"""
from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field

from .context import (TypeContext, canonical_binding, canonical_context,
                      context_classes, render_context)
# Unused here, but kept importable from this module: the public state
# identity that explore's keys agree with, for tools that wrap it here.
from .context import context_key  # noqa: F401
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

FULL = "full"
SEND_COM_ONLY = "sendcom"


@dataclass(frozen=True)
class ExploreLimits:
    max_states: int = 100000
    max_buffer_len: int | None = None
    mode: CongruenceMode = CongruenceMode.TOTAL_REORDER
    relation: str = FULL

    def __post_init__(self):
        if self.max_states < 1:
            raise ValueError("max_states must be >= 1")


@dataclass(frozen=True)
class Exceeded:
    """Limit outcome of exploration; a value, not an error."""

    kind: str  # "maxStates" | "bufferLen"
    limit: int
    witness: tuple = ()  # action path from the initial context
    state: TypeContext | None = None


# ---------------------------------------------------------------------------
# single-state transitions


def context_transitions(g: TypeContext, sigma, r: Reliability,
                        limits: ExploreLimits,
                        classes: TypeClasses | None = None) -> list:
    """The complete enabled set of (Action, successor) pairs, sorted by
    action rendering for deterministic exploration.  `classes`, when given,
    covers g's type positions."""
    out = []
    sigma = set(sigma)
    heads: dict = {}  # sender key -> the heads of its buffer, made on first use
    for key, sbt in g.endpoints:
        session, role = key
        if session not in sigma or sbt.session is None:
            continue
        head = resolve(sbt.session)
        if isinstance(head, Select):
            for arm in head.arms:
                entry = BufEntry(arm.to, arm.label, arm.payload)
                nsbt = SessionBufferType(sbt.buffer + (entry,), arm.cont)
                out.append((SendAct(session, role, arm.to, arm.label, arm.payload),
                            g.with_endpoint(key, nsbt)))
        elif isinstance(head, Branch):
            for arm in head.arms:
                skey = (session, arm.frm)
                ssbt = g.endpoint(skey)
                if ssbt is None or not ssbt.buffer:
                    continue
                if skey not in heads:
                    heads[skey] = buffer_heads(buffer_keys(ssbt.buffer, classes),
                                               limits.mode)
                for i in heads[skey]:
                    e = ssbt.buffer[i]
                    if (e.to != role or e.label != arm.label
                            or not type_equal(e.payload, arm.payload)):
                        continue
                    ng = g.with_endpoint(skey, SessionBufferType(
                        ssbt.buffer[:i] + ssbt.buffer[i + 1:], ssbt.session))
                    ng = ng.with_endpoint(key, SessionBufferType(sbt.buffer, arm.cont))
                    out.append((ComAct(session, arm.frm, role, arm.label), ng))
            if (limits.relation == FULL and head.timeout is not None
                    and r.needs_timeout(role, head.arms)):
                out.append((TimeoutAct(session, role),
                            g.with_endpoint(key, SessionBufferType(sbt.buffer,
                                                                   head.timeout))))
    out.sort(key=lambda p: p[0].render())
    return out


# ---------------------------------------------------------------------------
# graph exploration


@dataclass
class LtsGraph:
    """An explored LTS.  The successor and predecessor adjacency and the
    stuck states are derived from `edges` once, when the graph is made."""

    states: list            # state id -> TypeContext (canonical)
    edges: list             # (from id, Action, to id)
    initial: int = 0
    parents: dict = field(default_factory=dict)  # id -> (parent id, Action)
    classes: TypeClasses | None = None  # the type classes every state is keyed by
    succ: list = field(init=False, repr=False)   # id -> [(Action, to id)]
    pred: list = field(init=False, repr=False)   # id -> [from id]
    stuck_ids: list = field(init=False, repr=False)  # ids without successors, ascending

    def __post_init__(self):
        self.succ = [[] for _ in self.states]
        self.pred = [[] for _ in self.states]
        for f, a, t in self.edges:
            self.succ[f].append((a, t))
            self.pred[t].append(f)
        self.stuck_ids = [sid for sid, out in enumerate(self.succ) if not out]

    def successors(self, sid: int) -> list:
        return self.succ[sid]

    def stuck(self, sid: int) -> bool:
        return not self.succ[sid]

    def path_to(self, sid: int) -> tuple:
        return _path(self.parents, sid)


def _path(parents: dict, sid: int) -> tuple:
    acts = []
    while sid in parents:
        sid, a = parents[sid]
        acts.append(a)
    return tuple(reversed(acts))


def occupancy(g: TypeContext) -> int:
    """Largest number of messages any sender buffer holds for one recipient."""
    best = 0
    for _, sbt in g.endpoints:
        counts: dict = {}
        for e in sbt.buffer:
            n = counts[e.to] = counts.get(e.to, 0) + 1
            if n > best:
                best = n
    return best


def explore(g0: TypeContext, sigma, r: Reliability, limits: ExploreLimits,
            order: str = "bfs"):
    """Closure of context_transitions from g0 with canonical-state
    deduplication; returns LtsGraph or Exceeded.  BFS by default, so state
    ids and Exceeded witnesses are minimal-length; a DFS order is available
    for order-independence checks."""
    # Every successor reuses nodes of g0's type graphs, so g0's table of
    # classes covers every reachable state.
    classes, mode = context_classes(g0), limits.mode
    g0 = canonical_context(g0, mode, classes)
    # A state is keyed by its bindings' key parts, each part interned as an
    # int.  context_transitions builds a successor with with_endpoint, which
    # neither adds nor drops an endpoint and keeps every binding it does not
    # change as the parent's own, already canonical object.  So only the
    # bindings that are not the parent's are canonicalised and keyed; the
    # parent's parts stand for the rest.
    part_ids: dict = {}
    parts = [tuple(part_ids.setdefault(canonical_binding(sbt, mode, classes)[1], len(part_ids))
                   for _, sbt in g0.endpoints)]
    states, edges, parents = [g0], [], {}
    ids = {parts[0]: 0}
    cap = limits.max_buffer_len
    if cap is not None and occupancy(g0) >= cap:
        return Exceeded("bufferLen", cap, (), g0)
    frontier = deque([0])
    take = frontier.popleft if order == "bfs" else frontier.pop
    while frontier:
        sid = take()
        g = states[sid]
        for action, nxt in context_transitions(g, sigma, r, limits, classes):
            es, key = list(nxt.endpoints), list(parts[sid])
            for i, ((k, sbt), (_, old)) in enumerate(zip(nxt.endpoints, g.endpoints)):
                if sbt is not old:
                    sbt, part = canonical_binding(sbt, mode, classes)
                    es[i], key[i] = (k, sbt), part_ids.setdefault(part, len(part_ids))
            key = tuple(key)
            if key in ids:
                edges.append((sid, action, ids[key]))
                continue
            nxt = TypeContext(nxt.vars, tuple(es))
            if len(states) >= limits.max_states:
                return Exceeded("maxStates", limits.max_states,
                                _path(parents, sid) + (action,), nxt)
            nid = len(states)
            ids[key] = nid
            states.append(nxt)
            parts.append(key)
            parents[nid] = (sid, action)
            edges.append((sid, action, nid))
            if cap is not None and occupancy(nxt) >= cap:
                return Exceeded("bufferLen", cap, _path(parents, nid), nxt)
            frontier.append(nid)
    return LtsGraph(states, edges, parents=parents, classes=classes)


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
            "initial": g.initial,
            "states": [{"id": i, "ctx": render_context(s), "stuck": g.stuck(i)}
                       for i, s in enumerate(g.states)],
            "edges": [{"from": f, "action": action_to_json(a), "to": t}
                      for f, a, t in g.edges],
        }
        return json.dumps(doc, indent=2, sort_keys=True)
    if fmt == "dot":
        lines = ["digraph lts {"]
        for i, s in enumerate(g.states):
            shape = "doublecircle" if g.stuck(i) else "circle"
            label = render_context(s).replace('"', '\\"')
            lines.append(f'  n{i} [shape={shape}, label="{i}: {label}"];')
        for f, a, t in g.edges:
            lines.append(f'  n{f} -> n{t} [label="{a.render()}"];')
        lines.append("}")
        return "\n".join(lines)
    raise ValueError(f"unknown export format {fmt!r}")
