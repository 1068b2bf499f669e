"""Process syntax: values, processes, what a term holds, substitution,
well-formedness and structural congruence.

`demands` is the one walk that answers what a term holds: the endpoints
and buffers of the sessions it does not bind, and its free variables.
Typing splits Γ at `|` by it and well-formedness reads it.  `subst` is
the other walk that tracks binders.

Processes are immutable and hashable so explored states can be deduplicated.
Source spans ride along as non-comparing fields; two processes that differ
only in where they were written are equal.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .diagnostics import Diagnostic, Span
from .types import BASIC_KINDS, CongruenceMode, Type, buffer_order, format_type

# ---------------------------------------------------------------------------
# values


class Value:
    __slots__ = ()


@dataclass(frozen=True)
class Lit(Value):
    """Basic literal; ``value`` is None for unit."""

    kind: str
    value: object = None

    def __post_init__(self):
        if self.kind not in BASIC_KINDS:
            raise ValueError(f"unknown literal kind {self.kind!r}")


UNIT_VAL = Lit("unit")


@dataclass(frozen=True)
class Endpoint(Value):
    session: str
    role: str


@dataclass(frozen=True)
class Var(Value):
    name: str


def render_value(v: Value) -> str:
    if isinstance(v, Lit):
        if v.kind == "unit":
            return "()"
        if v.kind == "bool":
            return "true" if v.value else "false"
        if v.kind == "string":
            return '"' + str(v.value).replace("\\", "\\\\").replace('"', '\\"') + '"'
        return repr(v.value)
    if isinstance(v, Endpoint):
        return f"{v.session}[{v.role}]"
    return v.name


# ---------------------------------------------------------------------------
# processes


class Process:
    __slots__ = ()


@dataclass(frozen=True)
class Inaction(Process):
    span: Span = field(default=Span(), compare=False)


@dataclass(frozen=True)
class Send(Process):
    """Single selection prefix ch!to:label(value).cont."""

    ch: Value
    to: str
    label: str
    value: Value
    cont: Process
    span: Span = field(default=Span(), compare=False)


@dataclass(frozen=True)
class RecvArm:
    frm: str
    label: str
    var: str
    var_type: Type
    cont: Process
    span: Span = field(default=Span(), compare=False)


@dataclass(frozen=True)
class Branch(Process):
    """External branching ch&{p?l(x:T).P, ..., timeout.Q}."""

    ch: Value
    arms: tuple  # tuple[RecvArm, ...]
    timeout: Process | None = None
    span: Span = field(default=Span(), compare=False)


@dataclass(frozen=True)
class Choice(Process):
    left: Process
    right: Process
    span: Span = field(default=Span(), compare=False)


@dataclass(frozen=True)
class Par(Process):
    left: Process
    right: Process
    span: Span = field(default=Span(), compare=False)


@dataclass(frozen=True)
class Restriction(Process):
    """new s:{p: S_p, ...} in body  (annotations sorted by role)."""

    session: str
    annotations: tuple  # tuple[(role, SessionType), ...]
    body: Process
    span: Span = field(default=Span(), compare=False)


@dataclass(frozen=True)
class Def(Process):
    name: str
    params: tuple  # tuple[(var, Type), ...]
    body: Process
    cont: Process
    span: Span = field(default=Span(), compare=False)


@dataclass(frozen=True)
class Call(Process):
    name: str
    args: tuple  # tuple[Value, ...]
    span: Span = field(default=Span(), compare=False)


@dataclass(frozen=True)
class BufMsg:
    frm: str
    to: str
    label: str
    value: Value


@dataclass(frozen=True)
class Buffer(Process):
    """Runtime session buffer s:[(p,q)!l(v), ...] (oldest first)."""

    session: str
    entries: tuple  # tuple[BufMsg, ...]
    span: Span = field(default=Span(), compare=False)


# ---------------------------------------------------------------------------
# traversal helpers


def children(p: Process) -> tuple:
    if isinstance(p, Send):
        return (p.cont,)
    if isinstance(p, Branch):
        kids = tuple(a.cont for a in p.arms)
        return kids + ((p.timeout,) if p.timeout is not None else ())
    if isinstance(p, (Choice, Par)):
        return (p.left, p.right)
    if isinstance(p, Restriction):
        return (p.body,)
    if isinstance(p, Def):
        return (p.body, p.cont)
    return ()


def demands(p: Process) -> tuple:
    """What p holds, found by one pre-order walk with children left to
    right: the (session, role) of each endpoint and the buffer of each
    session that no restriction in p binds, and each variable that no
    receive arm or `def` parameter in p binds, each list in walk order and
    with repeats.  `def` bodies count."""
    endpoints, buffers, free = [], [], []
    todo = [(p, frozenset(), frozenset())]  # (term, bound sessions, bound vars)
    while todo:
        q, sessions, names = todo.pop()
        values = ()
        if isinstance(q, Send):
            values = (q.ch, q.value)
            todo.append((q.cont, sessions, names))
        elif isinstance(q, Branch):
            values = (q.ch,)
            if q.timeout is not None:
                todo.append((q.timeout, sessions, names))
            todo += [(a.cont, sessions, names | {a.var}) for a in reversed(q.arms)]
        elif isinstance(q, (Choice, Par)):
            todo += [(q.right, sessions, names), (q.left, sessions, names)]
        elif isinstance(q, Restriction):
            todo.append((q.body, sessions | {q.session}, names))
        elif isinstance(q, Def):
            todo += [(q.cont, sessions, names),
                     (q.body, sessions, names | {v for v, _ in q.params})]
        elif isinstance(q, Call):
            values = q.args
        elif isinstance(q, Buffer):
            if q.session not in sessions:
                buffers.append(q)
            values = tuple(e.value for e in q.entries)
        for v in values:
            if isinstance(v, Endpoint):
                if v.session not in sessions:
                    endpoints.append((v.session, v.role))
            elif isinstance(v, Var) and v.name not in names:
                free.append(v.name)
    return endpoints, buffers, free


def _shared(new: tuple, old: tuple) -> tuple:
    """old if new holds the very same objects, else new."""
    return old if all(x is y for x, y in zip(new, old)) else new


def subst(p: Process, sub: dict) -> Process:
    """Capture-avoiding substitution of values for free variables, by path
    copying: a node is copied only when something in it changes, so every
    subterm in which no substituted variable occurs free comes back as the
    very same object, shared by the result."""
    if not sub or isinstance(p, Inaction):
        return p

    def sv(v: Value) -> Value:
        return sub.get(v.name, v) if isinstance(v, Var) else v

    if isinstance(p, Send):
        ch, value, cont = sv(p.ch), sv(p.value), subst(p.cont, sub)
        if ch is p.ch and value is p.value and cont is p.cont:
            return p
        return Send(ch, p.to, p.label, value, cont, p.span)
    if isinstance(p, Branch):
        arms = []
        for a in p.arms:
            inner = {k: v for k, v in sub.items() if k != a.var} if a.var in sub else sub
            cont = subst(a.cont, inner)
            arms.append(a if cont is a.cont else
                        RecvArm(a.frm, a.label, a.var, a.var_type, cont, a.span))
        ch, arms = sv(p.ch), _shared(tuple(arms), p.arms)
        to = subst(p.timeout, sub) if p.timeout is not None else None
        if ch is p.ch and arms is p.arms and to is p.timeout:
            return p
        return Branch(ch, arms, to, p.span)
    if isinstance(p, (Choice, Par)):
        left, right = subst(p.left, sub), subst(p.right, sub)
        return p if left is p.left and right is p.right else type(p)(left, right, p.span)
    if isinstance(p, Restriction):
        body = subst(p.body, sub)
        return p if body is p.body else Restriction(p.session, p.annotations, body, p.span)
    if isinstance(p, Def):
        inner = {k: v for k, v in sub.items() if k not in {v0 for v0, _ in p.params}}
        body, cont = subst(p.body, inner), subst(p.cont, sub)
        if body is p.body and cont is p.cont:
            return p
        return Def(p.name, p.params, body, cont, p.span)
    if isinstance(p, Call):
        args = _shared(tuple(sv(a) for a in p.args), p.args)
        return p if args is p.args else Call(p.name, args, p.span)
    if isinstance(p, Buffer):
        entries = _shared(tuple(BufMsg(e.frm, e.to, e.label, sub[e.value.name])
                                if isinstance(e.value, Var) and e.value.name in sub
                                else e for e in p.entries), p.entries)
        return p if entries is p.entries else Buffer(p.session, entries, p.span)
    raise TypeError(f"unexpected process {p!r}")


# ---------------------------------------------------------------------------
# well-formedness


def well_formed(p: Process, defs: dict | None = None) -> list[Diagnostic]:
    """Static sanity of a closed system: buffers appear exactly once per
    restricted session, endpoint roles are annotated, branch arms are
    pairwise distinct, calls are in scope with matching arity.  ``defs``
    pre-seeds visible process definitions (name -> arity) so top-level
    declarations may be mutually recursive."""
    diags: list[Diagnostic] = []

    def walk(q: Process, defs: dict):
        if isinstance(q, Restriction):
            roles = [r for r, _ in q.annotations]
            for r in sorted({r for r in roles if roles.count(r) > 1}):
                diags.append(Diagnostic("error", "DuplicateRole",
                                        f"role {r} annotated twice on session {q.session}",
                                        q.span))
            eps, bufs, _ = demands(q.body)
            n = sum(1 for b in bufs if b.session == q.session)
            if n == 0:
                diags.append(Diagnostic("error", "MissingBuffer",
                                        f"session {q.session} has no buffer process",
                                        q.span))
            elif n > 1:
                diags.append(Diagnostic("error", "DuplicateBuffer",
                                        f"session {q.session} has {n} buffer processes",
                                        q.span))
            annotated = set(roles)
            for s, r in dict.fromkeys(eps):  # each endpoint once
                if s == q.session and r not in annotated:
                    diags.append(Diagnostic("error", "UnknownRole",
                                            f"endpoint {s}[{r}] uses a role "
                                            "missing from the session annotation", q.span))
            walk(q.body, defs)
        elif isinstance(q, Branch):
            keys = [(a.frm, a.label) for a in q.arms]
            for k in sorted({k for k in keys if keys.count(k) > 1}):
                diags.append(Diagnostic("error", "DuplicateArm",
                                        f"duplicate receive arm {k[0]}?{k[1]}", q.span))
            if not q.arms:
                diags.append(Diagnostic("error", "EmptyArms",
                                        "branching requires at least one receive arm",
                                        q.span))
            for c in children(q):
                walk(c, defs)
        elif isinstance(q, Def):
            inner = dict(defs)
            inner[q.name] = len(q.params)
            walk(q.body, inner)
            walk(q.cont, inner)
        elif isinstance(q, Call):
            if q.name not in defs:
                diags.append(Diagnostic("error", "UnknownDef",
                                        f"call to undefined process {q.name}", q.span))
            elif defs[q.name] != len(q.args):
                diags.append(Diagnostic("error", "ArityMismatch",
                                        f"{q.name} expects {defs[q.name]} argument(s), "
                                        f"got {len(q.args)}", q.span))
        else:
            for c in children(q):
                walk(c, defs)

    walk(p, dict(defs) if defs else {})
    for v in sorted(set(demands(p)[2])):
        diags.append(Diagnostic("error", "UnboundVar",
                                f"unbound variable {v} in system"))
    return diags


# ---------------------------------------------------------------------------
# structural congruence and rendering (the normal form is printed, for
# terminal configurations and their comparison, and the term as written for
# digests; the surface printer in pretty.py round-trips through the parser)


def buffer_keys(entries: tuple) -> list:
    """Each runtime entry's (channel, message) for the buffer congruence:
    its (sender, recipient) pair, and its label and rendered value."""
    return [((e.frm, e.to), (e.label, render_value(e.value))) for e in entries]


def render_process(p: Process, mode: CongruenceMode | None = None) -> str:
    """p as written, or with a mode its normal form under structural
    congruence: `|` and `+` operands flattened and sorted by their own
    normal forms, inaction dropped from parallels, receive arms sorted by
    (sender, label), annotations by role, and buffer entries in the mode's
    canonical order (`types.buffer_order`)."""
    if isinstance(p, Inaction):
        return "0"
    if isinstance(p, Send):
        return (f"{render_value(p.ch)}!{p.to}:{p.label}({render_value(p.value)})."
                f"{render_process(p.cont, mode)}")
    if isinstance(p, Branch):
        arms = p.arms if mode is None else sorted(p.arms, key=lambda a: (a.frm, a.label))
        parts = [f"{a.frm}?{a.label}({a.var}:{format_type(a.var_type)})."
                 f"{render_process(a.cont, mode)}" for a in arms]
        if p.timeout is not None:
            parts.append(f"timeout.{render_process(p.timeout, mode)}")
        return f"{render_value(p.ch)}&{{{', '.join(parts)}}}"
    if isinstance(p, (Choice, Par)):
        op = " + " if isinstance(p, Choice) else " | "
        if mode is None:
            return f"({render_process(p.left)}{op}{render_process(p.right)})"
        parts, todo = [], [p]
        while todo:
            q = todo.pop()
            if isinstance(q, type(p)):
                todo += (q.left, q.right)
            elif isinstance(p, Choice) or not isinstance(q, Inaction):
                parts.append(render_process(q, mode))
        parts.sort()
        out = parts[0] if parts else "0"
        for q in parts[1:]:
            out = f"({out}{op}{q})"
        return out
    if isinstance(p, Restriction):
        anns = p.annotations if mode is None else sorted(p.annotations, key=lambda a: a[0])
        anns = ", ".join(f"{r}: {format_type(t)}" for r, t in anns)
        return f"new {p.session}:{{{anns}}} in ({render_process(p.body, mode)})"
    if isinstance(p, Def):
        ps = ", ".join(f"{v}: {format_type(t)}" for v, t in p.params)
        return (f"def {p.name}({ps}) = {render_process(p.body, mode)} in "
                f"({render_process(p.cont, mode)})")
    if isinstance(p, Call):
        return f"{p.name}({', '.join(render_value(a) for a in p.args)})"
    if isinstance(p, Buffer):
        es = p.entries if mode is None else [
            p.entries[i] for i in buffer_order(buffer_keys(p.entries), mode)]
        es = ", ".join(f"({e.frm},{e.to})!{e.label}({render_value(e.value)})" for e in es)
        return f"{p.session}:[{es}]"
    raise TypeError(f"unexpected process {p!r}")
