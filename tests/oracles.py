"""Reference oracles for the tests: exhaustive small-step expansion of a
process, the type-level image of a process step (the subject-reduction
harness) and a trace event's detail as a dict, the separate process walks
that `proc.demands` merges, the structural inactivity test that
`Config.inactive` replaced, the substitution that copies every node, and
exact graph-shape equality of types, processes and protocol files (the
round-trip law of the printer).  No command runs them."""
from collections import deque
from dataclasses import replace

from magpi import proc as P
from magpi.context import TypeContext
from magpi.parser import ProtocolFile
from magpi.sim import (Config, FailureScenario, RULE_DROP, RULE_RECV,
                       RULE_SEND, RULE_TIMEOUT, TraceEvent, enabled_steps)
from magpi.types import (Basic, BufEntry, Branch, End, Rec, RecRef,
                         Reliability, Select, SessionBufferType, SessionType,
                         Type, resolve)


# ---------------------------------------------------------------------------
# process-level expansion


def exhaustive_small_step_oracle(c0: Config, r: Reliability, policy: str,
                                 scenario: FailureScenario, depth: int) -> set:
    """Full nondeterministic expansion of positive-weight steps to a bounded
    depth; returns the rendered canonical terminal processes."""
    seen = set()
    terminals = set()
    frontier = deque([(c0.process, 0)])
    while frontier:
        proc, d = frontier.popleft()  # breadth-first: first visit is shallowest
        key = P.render_process(proc, scenario.reorder)
        if key in seen:
            continue
        seen.add(key)
        steps = [s for s in enabled_steps(Config(proc, d), r, policy, scenario)
                 if s.weight > 0.0]
        if not steps:
            terminals.add(key)
            continue
        if d >= depth:
            continue
        for s in steps:
            frontier.append((s.process, d + 1))
    return terminals


# ---------------------------------------------------------------------------
# mirroring process steps onto a typing context (subject-reduction harness)


def detail_dict(event: TraceEvent) -> dict:
    """A trace event's detail as a dict."""
    return dict(event.detail)


def mirror_on_context(g: TypeContext, event: TraceEvent) -> TypeContext:
    """Apply the type-level image of one process reduction to a context."""
    d = detail_dict(event)
    rule = event.rule
    if rule == RULE_SEND:
        key = (d["session"], d["from"])
        sbt = g.endpoint(key)
        head = resolve(sbt.session)
        arm = next(a for a in head.arms
                   if a.to == d["to"] and a.label == d["label"])
        return g.with_endpoint(key, SessionBufferType(
            sbt.buffer + (BufEntry(arm.to, arm.label, arm.payload),), arm.cont))
    if rule == RULE_RECV:
        skey = (d["session"], d["from"])
        rkey = (d["session"], d["to"])
        ssbt, rsbt = g.endpoint(skey), g.endpoint(rkey)
        idx = next(i for i, e in enumerate(ssbt.buffer)
                   if e.to == d["to"] and e.label == d["label"])
        head = resolve(rsbt.session)
        arm = next(a for a in head.arms
                   if a.frm == d["from"] and a.label == d["label"])
        g = g.with_endpoint(skey, SessionBufferType(
            ssbt.buffer[:idx] + ssbt.buffer[idx + 1:], ssbt.session))
        return g.with_endpoint(rkey, SessionBufferType(rsbt.buffer, arm.cont))
    if rule == RULE_TIMEOUT:
        key = (d["session"], d["role"])
        sbt = g.endpoint(key)
        head = resolve(sbt.session)
        return g.with_endpoint(key, SessionBufferType(sbt.buffer, head.timeout))
    if rule == RULE_DROP:
        key = (d["session"], d["from"])
        sbt = g.endpoint(key)
        idx = next(i for i, e in enumerate(sbt.buffer)
                   if e.to == d["to"] and e.label == d["label"])
        return g.with_endpoint(key, SessionBufferType(
            sbt.buffer[:idx] + sbt.buffer[idx + 1:], sbt.session))
    return g  # choice and call leave the context unchanged


# ---------------------------------------------------------------------------
# process walks, one per question `proc.demands` answers


def subterms(p: P.Process) -> list:
    """Every subterm of p, p included, in pre-order with children left to
    right."""
    out: list = []
    _preorder(p, out)
    return out


def _preorder(p: P.Process, out: list) -> None:
    out.append(p)
    for c in P.children(p):
        _preorder(c, out)


def node_values(p: P.Process) -> tuple:
    """The values the node p itself carries, in source order; its
    subterms' values are not included."""
    if isinstance(p, P.Send):
        return (p.ch, p.value)
    if isinstance(p, P.Branch):
        return (p.ch,)
    if isinstance(p, P.Call):
        return p.args
    if isinstance(p, P.Buffer):
        return tuple(e.value for e in p.entries)
    return ()


def endpoints(p: P.Process) -> list:
    """The (session, role) of every endpoint p names of a session that no
    restriction in p binds, in pre-order."""
    if isinstance(p, P.Restriction):
        return [e for e in endpoints(p.body) if e[0] != p.session]
    return ([(v.session, v.role) for v in node_values(p) if isinstance(v, P.Endpoint)]
            + [e for c in P.children(p) for e in endpoints(c)])


def buffer_sessions(p: P.Process) -> list:
    """The session of every buffer in p that no restriction in p binds, in
    pre-order."""
    if isinstance(p, P.Buffer):
        return [p.session]
    if isinstance(p, P.Restriction):
        return [s for s in buffer_sessions(p.body) if s != p.session]
    return [s for c in P.children(p) for s in buffer_sessions(c)]


def free_vars(p: P.Process) -> frozenset:
    """Free value variables of a process."""

    def vv(v: P.Value) -> frozenset:
        return frozenset([v.name]) if isinstance(v, P.Var) else frozenset()

    if isinstance(p, P.Send):
        return vv(p.ch) | vv(p.value) | free_vars(p.cont)
    if isinstance(p, P.Branch):
        out = vv(p.ch)
        for a in p.arms:
            out |= free_vars(a.cont) - {a.var}
        if p.timeout is not None:
            out |= free_vars(p.timeout)
        return out
    if isinstance(p, (P.Choice, P.Par)):
        return free_vars(p.left) | free_vars(p.right)
    if isinstance(p, P.Restriction):
        return free_vars(p.body)
    if isinstance(p, P.Def):
        bound = {v for v, _ in p.params}
        return (free_vars(p.body) - bound) | free_vars(p.cont)
    if isinstance(p, (P.Call, P.Buffer)):
        return frozenset().union(*map(vv, node_values(p)))
    return frozenset()


def copying_subst(p: P.Process, sub: dict) -> P.Process:
    """Capture-avoiding substitution that copies every node it passes,
    changed or not.  The reference for `proc.subst`, which shares what it
    leaves unchanged."""
    if not sub:
        return p

    def sv(v: P.Value) -> P.Value:
        if isinstance(v, P.Var) and v.name in sub:
            return sub[v.name]
        return v

    if isinstance(p, P.Inaction):
        return p
    if isinstance(p, P.Send):
        return replace(p, ch=sv(p.ch), value=sv(p.value), cont=copying_subst(p.cont, sub))
    if isinstance(p, P.Branch):
        arms = tuple(
            replace(a, cont=copying_subst(a.cont, {k: v for k, v in sub.items()
                                                   if k != a.var}))
            for a in p.arms)
        to = copying_subst(p.timeout, sub) if p.timeout is not None else None
        return replace(p, ch=sv(p.ch), arms=arms, timeout=to)
    if isinstance(p, (P.Choice, P.Par)):
        return replace(p, left=copying_subst(p.left, sub),
                       right=copying_subst(p.right, sub))
    if isinstance(p, P.Restriction):
        return replace(p, body=copying_subst(p.body, sub))
    if isinstance(p, P.Def):
        inner = {k: v for k, v in sub.items() if k not in {v0 for v0, _ in p.params}}
        return replace(p, body=copying_subst(p.body, inner),
                       cont=copying_subst(p.cont, sub))
    if isinstance(p, P.Call):
        return replace(p, args=tuple(sv(a) for a in p.args))
    if isinstance(p, P.Buffer):
        return replace(p, entries=tuple(replace(e, value=sv(e.value)) for e in p.entries))
    raise TypeError(f"unexpected process {p!r}")


def is_inactive(p: P.Process) -> bool:
    """Whether a process is structurally congruent to inaction: only
    inaction and buffers under restrictions, parallel compositions and
    `def` continuations.  The reference for `Config.inactive`."""
    if isinstance(p, P.Restriction):
        return is_inactive(p.body)
    if isinstance(p, P.Def):
        return is_inactive(p.cont)
    if isinstance(p, P.Par):
        return is_inactive(p.left) and is_inactive(p.right)
    return isinstance(p, (P.Inaction, P.Buffer))


# ---------------------------------------------------------------------------
# graph-shape equality across reparsing (type annotations compared by graph
# shape, not node identity)


def session_iso(a: SessionType, b: SessionType) -> bool:
    """Exact graph-shape equality: same constructors, same arm order, the
    same back-edge structure, ignoring recursion variable names.  Stricter
    than bisimilarity; this is the round-trip notion of equality."""
    pairs: dict[int, int] = {}

    def go(x, y) -> bool:
        if isinstance(x, RecRef) or isinstance(y, RecRef):
            if not (isinstance(x, RecRef) and isinstance(y, RecRef)):
                return False
            # a matched back-edge must point to already-paired binders
            return pairs.get(id(x.target)) == id(y.target)
        if isinstance(x, Rec) and isinstance(y, Rec):
            pairs[id(x)] = id(y)
            return go(x.body, y.body)
        if isinstance(x, End) and isinstance(y, End):
            return True
        if isinstance(x, Select) and isinstance(y, Select):
            return len(x.arms) == len(y.arms) and all(
                p.to == q.to and p.label == q.label
                and type_iso(p.payload, q.payload) and go(p.cont, q.cont)
                for p, q in zip(x.arms, y.arms))
        if isinstance(x, Branch) and isinstance(y, Branch):
            if (x.timeout is None) != (y.timeout is None):
                return False
            if x.timeout is not None and not go(x.timeout, y.timeout):
                return False
            return len(x.arms) == len(y.arms) and all(
                p.frm == q.frm and p.label == q.label
                and type_iso(p.payload, q.payload) and go(p.cont, q.cont)
                for p, q in zip(x.arms, y.arms))
        return False

    return go(a, b)


def type_iso(a: Type, b: Type) -> bool:
    if isinstance(a, Basic) or isinstance(b, Basic):
        return a == b
    return session_iso(a, b)


def ast_equal(a: P.Process, b: P.Process) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, P.Inaction):
        return True
    if isinstance(a, P.Send):
        return (a.ch == b.ch and a.to == b.to and a.label == b.label
                and a.value == b.value and ast_equal(a.cont, b.cont))
    if isinstance(a, P.Branch):
        if a.ch != b.ch or len(a.arms) != len(b.arms):
            return False
        if (a.timeout is None) != (b.timeout is None):
            return False
        if a.timeout is not None and not ast_equal(a.timeout, b.timeout):
            return False
        return all(x.frm == y.frm and x.label == y.label and x.var == y.var
                   and type_iso(x.var_type, y.var_type) and ast_equal(x.cont, y.cont)
                   for x, y in zip(a.arms, b.arms))
    if isinstance(a, (P.Choice, P.Par)):
        return ast_equal(a.left, b.left) and ast_equal(a.right, b.right)
    if isinstance(a, P.Restriction):
        return (a.session == b.session and len(a.annotations) == len(b.annotations)
                and all(r1 == r2 and session_iso(t1, t2)
                        for (r1, t1), (r2, t2) in zip(a.annotations, b.annotations))
                and ast_equal(a.body, b.body))
    if isinstance(a, P.Def):
        return (a.name == b.name and len(a.params) == len(b.params)
                and all(v1 == v2 and type_iso(t1, t2)
                        for (v1, t1), (v2, t2) in zip(a.params, b.params))
                and ast_equal(a.body, b.body) and ast_equal(a.cont, b.cont))
    if isinstance(a, P.Call):
        return a.name == b.name and a.args == b.args
    if isinstance(a, P.Buffer):
        return a.session == b.session and a.entries == b.entries
    return False


def protocol_equal(a: ProtocolFile, b: ProtocolFile) -> bool:
    if (a.name, a.roles, a.reliability) != (b.name, b.roles, b.reliability):
        return False
    if set(a.type_defs) != set(b.type_defs):
        return False
    for k in a.type_defs:
        (r1, t1), (r2, t2) = a.type_defs[k], b.type_defs[k]
        if r1 != r2 or not session_iso(t1, t2):
            return False
    if len(a.proc_defs) != len(b.proc_defs):
        return False
    for d1, d2 in zip(a.proc_defs, b.proc_defs):
        if d1.name != d2.name or len(d1.params) != len(d2.params):
            return False
        if not all(v1 == v2 and type_iso(t1, t2)
                   for (v1, t1), (v2, t2) in zip(d1.params, d2.params)):
            return False
        if not ast_equal(d1.body, d2.body):
            return False
    return ast_equal(a.system, b.system)
