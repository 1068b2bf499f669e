"""Type-level domain: local session types (as graphs), buffer types,
session-buffer types, reliability maps and the congruences over them.

Recursive types are stored as graphs with explicit back-edges: a ``Rec``
node owns a body and every ``RecRef`` points at its binding ``Rec`` node.
Unfolding is therefore a pointer move and repeated unfolding only ever
visits finitely many nodes.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

from .diagnostics import Diagnostic, Span

BASIC_KINDS = ("unit", "int", "bool", "real", "string")


class CongruenceMode(str, enum.Enum):
    TOTAL_REORDER = "total"
    TCP_FIFO = "tcp"


# ---------------------------------------------------------------------------
# session types


class SessionType:
    """Base class for session type graph nodes (identity semantics)."""

    __slots__ = ()


@dataclass(eq=False)
class End(SessionType):
    pass


END = End()


@dataclass(frozen=True)
class Basic:
    kind: str

    def __post_init__(self):
        if self.kind not in BASIC_KINDS:
            raise ValueError(f"unknown basic kind {self.kind!r}")


# A payload / variable type is either a Basic or a SessionType node.
Type = object

UNIT = Basic("unit")


@dataclass(frozen=True)
class SelectArm:
    to: str
    label: str
    payload: Type
    cont: SessionType


@dataclass(frozen=True)
class BranchArm:
    frm: str
    label: str
    payload: Type
    cont: SessionType


@dataclass(eq=False)
class Select(SessionType):
    arms: tuple[SelectArm, ...]


@dataclass(eq=False)
class Branch(SessionType):
    arms: tuple[BranchArm, ...]
    timeout: SessionType | None = None


@dataclass(eq=False)
class Rec(SessionType):
    var: str
    body: SessionType | None = None  # assigned once after construction


@dataclass(eq=False)
class RecRef(SessionType):
    var: str
    target: Rec | None = None  # back-edge, assigned at resolution


def is_basic(t: Type) -> bool:
    return isinstance(t, Basic)


def resolve(s: SessionType) -> SessionType:
    """Structural head of a type: unfold Rec nodes and back-edges until a
    Branch, Select or End node is reached (terminates by guardedness)."""
    while True:
        if isinstance(s, RecRef):
            s = s.target
        elif isinstance(s, Rec):
            s = s.body
        else:
            return s


def session_nodes(root: SessionType, skip=frozenset()) -> list[SessionType]:
    """All graph nodes reachable from root without entering a node of
    `skip`, in deterministic DFS order."""
    seen: set = set()
    stack = [root]
    order = []
    while stack:
        n = stack.pop()
        if n in seen or n in skip:
            continue
        seen.add(n)
        order.append(n)
        if isinstance(n, Rec):
            stack.append(n.body)
        elif isinstance(n, RecRef):
            stack.append(n.target)
        elif isinstance(n, Select):
            stack.extend(a.cont for a in reversed(n.arms))
        elif isinstance(n, Branch):
            if n.timeout is not None:
                stack.append(n.timeout)
            stack.extend(a.cont for a in reversed(n.arms))
    return order


def validate_session(root: SessionType, span: Span = Span(),
                     skip=frozenset()) -> list[Diagnostic]:
    """Construction-time checks on the nodes `session_nodes(root, skip)`
    walks, and on those of each session-typed arm payload met on the way:
    nonempty and pairwise-distinct arms, unguarded recursion, unresolved
    back-edges."""
    diags: list[Diagnostic] = []
    skip, todo = set(skip), [root]
    for top in todo:  # grows by the payloads met
        nodes = session_nodes(top, skip)
        skip.update(nodes)
        for node in nodes:
            if isinstance(node, (Select, Branch)):
                arms = node.arms
                todo += [a.payload for a in arms if not is_basic(a.payload)]
                if not arms:
                    diags.append(Diagnostic("error", "EmptyArms", "branching/selection "
                                            "requires at least one arm", span))
                select = isinstance(node, Select)
                keys = [(a.to if select else a.frm, a.label) for a in arms]
                for k in sorted(set(k for k in keys if keys.count(k) > 1)):
                    diags.append(Diagnostic("error", "DuplicateArm",
                                            f"duplicate (role, label) arm "
                                            f"{k[0]}{'!' if select else '?'}{k[1]}", span))
            elif isinstance(node, RecRef) and node.target is None:
                diags.append(Diagnostic("error", "UnboundRecVar",
                                        f"unbound recursion variable {node.var!r}", span))
            elif isinstance(node, Rec):
                if node.body is None:
                    diags.append(Diagnostic("error", "UnboundRecVar",
                                            f"recursion {node.var!r} has no body", span))
                elif _unguarded_ref(node):
                    diags.append(Diagnostic("error", "UnguardedRecursion",
                                            f"recursion variable {node.var!r} is not "
                                            "guarded by a branching or selection", span))
    return diags


def _unguarded_ref(rec: Rec) -> bool:
    # A back-edge to `rec` reachable from its body without crossing a
    # Branch/Select node makes the recursion unguarded.
    stack = [rec.body]
    seen: set[int] = set()
    while stack:
        n = stack.pop()
        if n is None or id(n) in seen:
            continue
        seen.add(id(n))
        if isinstance(n, RecRef):
            if n.target is rec:
                return True
            stack.append(n.target)
        elif isinstance(n, Rec):
            stack.append(n.body)
        # Branch / Select guard their continuations; End terminates.
    return False


# ---------------------------------------------------------------------------
# equality

def type_equal(a: Type, b: Type) -> bool:
    """Bisimilarity of two payload or variable types: the same Basic kind,
    or session type graphs equal up to unfolding of recursion.

    This is the pairwise check, for one-off comparisons (a buffered payload
    against an arm's, a variable's type against the expected one).  The
    identity of a type position in a state key is its class in one
    `type_classes` table instead.  A table costs more than the few pairs a
    front end compares: typechecking `fixtures/leader.magpi` makes about
    800 calls here, 162 of them on session types, 1.5 ms in all, while one
    table over the file's types takes about 30 ms, more than the whole
    `magpi check` of that file (20 ms on a 2-vCPU x86 machine)."""
    if isinstance(a, Basic) or isinstance(b, Basic):
        return a == b
    memo: set[tuple[int, int]] = set()

    def go(x, y) -> bool:
        # Payloads are compared here too, sharing the memo: a payload may
        # refer back to its own type.
        if isinstance(x, Basic) or isinstance(y, Basic):
            return x == y
        x, y = resolve(x), resolve(y)
        if x is y:
            return True
        key = (id(x), id(y))
        if key in memo:
            return True
        memo.add(key)
        if isinstance(x, End) and isinstance(y, End):
            return True
        if isinstance(x, Select) and isinstance(y, Select):
            xa = sorted(x.arms, key=lambda a: (a.to, a.label))
            ya = sorted(y.arms, key=lambda a: (a.to, a.label))
            return len(xa) == len(ya) and all(
                p.to == q.to and p.label == q.label
                and go(p.payload, q.payload) and go(p.cont, q.cont)
                for p, q in zip(xa, ya))
        if isinstance(x, Branch) and isinstance(y, Branch):
            if (x.timeout is None) != (y.timeout is None):
                return False
            if x.timeout is not None and not go(x.timeout, y.timeout):
                return False
            xa = sorted(x.arms, key=lambda a: (a.frm, a.label))
            ya = sorted(y.arms, key=lambda a: (a.frm, a.label))
            return len(xa) == len(ya) and all(
                p.frm == q.frm and p.label == q.label
                and go(p.payload, q.payload) and go(p.cont, q.cont)
                for p, q in zip(xa, ya))
        return False

    return go(a, b)


@dataclass(frozen=True)
class TypeClasses:
    """Bisimilarity classes of the type positions reachable from some roots:
    `of` maps every reachable node to the class of its structural head, and
    `quotient` lists each class's signature, describing the minimised graphs."""

    of: dict
    quotient: tuple

    def key(self, t: Type) -> tuple:
        """Identity and sort key of a payload or variable type: basic kinds
        first, by kind, then session types by class."""
        return (0, t.kind) if isinstance(t, Basic) else (1, self.of[t])


def type_classes(roots) -> TypeClasses:
    """The one notion of "same type position": partition refinement of the
    nodes reachable from roots, payload types included, down to bisimilarity
    (Paige & Tarjan, SIAM J. Comput. 1987).  A node's signature is its
    structural head's kind, sorted (role, label, payload key, continuation
    class) arms and timeout class.  Each round ranks the sorted distinct
    signatures, so class ints depend only on the behaviours reachable from
    the roots, never on object identity or on how a type is spelled."""
    seen: dict = {}
    todo = [t for t in roots if not isinstance(t, Basic)]
    while todo:
        new = [n for n in session_nodes(todo.pop()) if n not in seen]
        seen.update(dict.fromkeys(new, 0))
        todo += [a.payload for n in new if isinstance(n, (Select, Branch))
                 for a in n.arms if not isinstance(a.payload, Basic)]
    cls, count = seen, 0

    def c(t) -> tuple:
        return (0, t.kind) if isinstance(t, Basic) else (1, cls[t])

    def signature(n) -> tuple:
        n = resolve(n)
        if isinstance(n, End):
            return (0,)
        arms = tuple(sorted((a.to if isinstance(n, Select) else a.frm, a.label,
                             c(a.payload), c(a.cont)) for a in n.arms))
        return (1, arms) if isinstance(n, Select) else (
            2, arms, () if n.timeout is None else c(n.timeout))

    while True:
        sigs = {n: signature(n) for n in cls}
        rank = {s: k for k, s in enumerate(sorted(set(sigs.values())))}
        if len(rank) == count:  # each round refines the last, so it is stable
            break
        cls, count = {n: rank[s] for n, s in sigs.items()}, len(rank)
    quotient = dict(zip(cls.values(), sigs.values()))
    return TypeClasses(cls, tuple(quotient[k] for k in range(count)))


def format_session(s: SessionType) -> str:
    """Deterministic rendering; recursion variables are renamed by binding
    depth so the text is independent of source naming."""
    names: dict[int, str] = {}

    def go(n: SessionType, depth: int) -> str:
        if isinstance(n, RecRef):
            return names.get(id(n.target), n.var)
        if isinstance(n, Rec):
            name = f"t{depth}"
            names[id(n)] = name
            body = go(n.body, depth + 1)
            return f"rec {name}. {body}"
        if isinstance(n, End):
            return "end"
        if isinstance(n, Select):
            parts = [f"{a.to}!{a.label}({format_type_in(a.payload, depth)}). {go(a.cont, depth)}"
                     for a in n.arms]
            if len(parts) == 1:
                return parts[0]
            return "+{ " + ", ".join(parts) + " }"
        if isinstance(n, Branch):
            parts = [f"{a.frm}?{a.label}({format_type_in(a.payload, depth)}). {go(a.cont, depth)}"
                     for a in n.arms]
            if n.timeout is not None:
                parts.append(f"timeout. {go(n.timeout, depth)}")
            return "&{ " + ", ".join(parts) + " }"
        raise TypeError(f"unexpected node {n!r}")

    def format_type_in(t: Type, depth: int) -> str:
        if isinstance(t, Basic):
            return t.kind
        return go(t, depth)

    return go(s, 0)


def format_type(t: Type) -> str:
    if isinstance(t, Basic):
        return t.kind
    return format_session(t)


# ---------------------------------------------------------------------------
# buffer types


@dataclass(frozen=True)
class BufEntry:
    """One type-level in-transit message of a sender endpoint buffer."""

    to: str
    label: str
    payload: Type


BufferType = tuple  # tuple[BufEntry, ...]


def buffer_heads(keys, mode: CongruenceMode) -> list:
    """The buffer congruence's heads: indices of the entries a receiver may
    take next.  `keys` holds each entry's (channel, message) in buffer order.
    Under TcpFifo each channel's first entry is a head; under TotalReorder
    the first entry of each (channel, message), one per equal message."""
    if mode is CongruenceMode.TCP_FIFO:
        keys = [k[0] for k in keys]
    first: dict = {}
    for i, k in enumerate(keys):
        first.setdefault(k, i)
    return list(first.values())


def buffer_order(keys, mode: CongruenceMode) -> list:
    """The buffer congruence's canonical order, as the entries' indices:
    a stable sort by channel under TcpFifo, since each channel's order is
    observable, else a sort by (channel, message)."""
    if mode is CongruenceMode.TCP_FIFO:
        keys = [k[0] for k in keys]
    return sorted(range(len(keys)), key=keys.__getitem__)


def buffer_keys(entries: tuple, classes: TypeClasses | None = None) -> list:
    """Each type-level entry's (channel, message): its recipient, and its
    label and payload key in `classes` (by default the entries' own)."""
    if classes is None:
        classes = type_classes(e.payload for e in entries)
    key = classes.key
    return [(e.to, (e.label, key(e.payload))) for e in entries]


def buffer_type_congruent(a: tuple, b: tuple, mode: CongruenceMode) -> bool:
    # Under one table of both buffers' payloads, equal class keys mean
    # bisimilar payloads.
    classes = type_classes(e.payload for e in a + b)
    ka, kb = buffer_keys(a, classes), buffer_keys(b, classes)
    return ([ka[i] for i in buffer_order(ka, mode)]
            == [kb[i] for i in buffer_order(kb, mode)])


# ---------------------------------------------------------------------------
# session-buffer types


@dataclass(frozen=True)
class SessionBufferType:
    """tau ::= M | S | <M; S>.  An empty buffer component is identified with
    an absent one; at least one component must be meaningful."""

    buffer: tuple = ()
    session: SessionType | None = None

    def __post_init__(self):
        if self.session is None and self.buffer is None:
            raise ValueError("session-buffer type needs a component")


# ---------------------------------------------------------------------------
# reliability


@dataclass(frozen=True)
class Reliability:
    """Total map from each role to the set of roles it trusts not to fail."""

    sets: tuple  # tuple[(role, frozenset[str]), ...] sorted by role

    @staticmethod
    def of(mapping: dict) -> "Reliability":
        items = tuple(sorted((r, frozenset(v)) for r, v in mapping.items()))
        for role, rs in items:
            if role in rs:
                raise ValueError(f"role {role} cannot be in its own reliability set")
        return Reliability(items)

    @staticmethod
    def fully_reliable(roles) -> "Reliability":
        roles = sorted(roles)
        return Reliability.of({r: frozenset(x for x in roles if x != r) for r in roles})

    def needs_timeout(self, role: str, arms) -> bool:
        """Whether `role`, waiting on branch `arms`, hears from a peer it
        does not trust.  Such a wait needs a timeout arm, and any other wait
        must have none (SP1/SP2 statically, Cor1/Cor2 at run time)."""
        trusted = self.get(role)
        return any(a.frm not in trusted for a in arms)

    def get(self, role: str) -> frozenset:
        for r, s in self.sets:
            if r == role:
                return s
        return frozenset()

    @property
    def roles(self) -> tuple:
        return tuple(r for r, _ in self.sets)
