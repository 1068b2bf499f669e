"""Typing contexts: variable and endpoint bindings, the end predicate and
the end/gc split, and the canonical form and state key of a context."""
from __future__ import annotations

from dataclasses import dataclass

from .types import (CongruenceMode, End, SessionBufferType, Type, TypeClasses,
                    buffer_keys, buffer_order, format_session, format_type,
                    is_basic, resolve, type_classes, type_equal)


@dataclass(frozen=True)
class TypeContext:
    """Γ: sorted, immutable bindings.  Endpoint keys are (session, role)."""

    vars: tuple = ()       # tuple[(name, Type), ...] sorted by name
    endpoints: tuple = ()  # tuple[((session, role), SessionBufferType), ...] sorted

    @staticmethod
    def of(var_bindings: dict | None = None,
           endpoint_bindings: dict | None = None) -> "TypeContext":
        vs = tuple(sorted((var_bindings or {}).items(), key=lambda kv: kv[0]))
        es = tuple(sorted((endpoint_bindings or {}).items(), key=lambda kv: kv[0]))
        return TypeContext(vs, es)

    def var(self, name: str):
        for n, t in self.vars:
            if n == name:
                return t
        return None

    def endpoint(self, key: tuple):
        for k, sbt in self.endpoints:
            if k == key:
                return sbt
        return None

    def with_endpoint(self, key: tuple, sbt: SessionBufferType) -> "TypeContext":
        """Γ with key bound to sbt; every other binding is kept as it is."""
        es = self.endpoints
        for i, (k, _) in enumerate(es):
            if k == key:
                return TypeContext(self.vars, es[:i] + ((key, sbt),) + es[i + 1:])
        return TypeContext(self.vars, tuple(sorted(es + ((key, sbt),),
                                                   key=lambda kv: kv[0])))

    def without_endpoint(self, key: tuple) -> "TypeContext":
        return TypeContext(self.vars,
                           tuple((k, v) for k, v in self.endpoints if k != key))

    def with_var(self, name: str, t: Type) -> "TypeContext":
        vs = {k: v for k, v in self.vars}
        vs[name] = t
        return TypeContext(tuple(sorted(vs.items(), key=lambda kv: kv[0])),
                           self.endpoints)

    def without_var(self, name: str) -> "TypeContext":
        return TypeContext(tuple((k, v) for k, v in self.vars if k != name),
                           self.endpoints)


def end_predicate(g: TypeContext) -> bool:
    """Every variable binding basic or end-typed; every endpoint binding an
    end session with no buffered messages: the end/gc split of a context
    with no buffer halves and no buffer-only bindings."""
    return (all(sbt.buffer == () and sbt.session is not None for _, sbt in g.endpoints)
            and split_end_gc(g)[0])


def _gc_entries(entries: tuple, g: TypeContext) -> bool:
    """Collectable buffer entries: basic payloads, or session payloads whose
    delegated endpoint is typed in g."""
    for e in entries:
        if is_basic(e.payload):
            continue
        if not any(o.session is not None and type_equal(o.session, e.payload)
                   for _, o in g.endpoints):
            return False
    return True


def split_end_gc(g: TypeContext):
    """Greedy Γ = Γ0, Γ'' decomposition with end(Γ0) and gc(Γ''):
    session components must be end-typed, buffer components must be
    collectable.  Returns (ok, reason)."""
    buffers = {}
    for n, t in g.vars:
        if not is_basic(t) and not isinstance(resolve(t), End):
            return False, f"variable {n} is not basic or end-typed"
    for k, sbt in g.endpoints:
        if sbt.session is not None and not isinstance(resolve(sbt.session), End):
            return False, f"{k[0]}[{k[1]}] stuck at a non-end session type"
        if sbt.buffer:
            buffers[k] = sbt.buffer
    for k, entries in buffers.items():
        if not _gc_entries(entries, g):
            return False, f"{k[0]}[{k[1]}] holds an uncollectable buffer entry"
    return True, ""


# ---------------------------------------------------------------------------
# canonicalization and rendering


def context_classes(g: TypeContext) -> TypeClasses:
    """The classes of every type position in g: variable types, endpoint
    sessions and buffered payloads."""
    return type_classes([t for _, t in g.vars]
                        + [sbt.session for _, sbt in g.endpoints if sbt.session is not None]
                        + [e.payload for _, sbt in g.endpoints for e in sbt.buffer])


def canonical_context(g: TypeContext, mode: CongruenceMode,
                      classes: TypeClasses | None = None) -> TypeContext:
    """g with every buffer canonical per mode; `classes` must cover g and
    defaults to g's own."""
    if classes is None:
        classes = context_classes(g)
    return TypeContext(g.vars, tuple((k, canonical_binding(sbt, mode, classes)[0])
                                     for k, sbt in g.endpoints))


def canonical_binding(sbt: SessionBufferType, mode: CongruenceMode,
                      classes: TypeClasses) -> tuple:
    """(canonical sbt, key part) of one endpoint binding: sbt with its
    buffer in the mode's canonical order, and that binding's part of the
    state key, the buffer entries in that order and the session position,
    every type by its class in `classes`."""
    buf = sbt.buffer
    keys = buffer_keys(buf, classes)
    if len(buf) > 1:  # a shorter buffer is its own canonical order
        order = buffer_order(keys, mode)
        buf, keys = tuple([buf[i] for i in order]), [keys[i] for i in order]
    return (SessionBufferType(buf, sbt.session),
            (tuple(keys), None if sbt.session is None else classes.key(sbt.session)))


def render_sbt(sbt: SessionBufferType) -> str:
    buf = "·".join(f"{e.to}!{e.label}({format_type(e.payload)})" for e in sbt.buffer)
    if sbt.session is None:
        return buf or "ε"
    s = format_session(sbt.session)
    return f"<{buf}; {s}>" if buf else s


def render_context(g: TypeContext) -> str:
    parts = [f"{n}: {format_type(t)}" for n, t in g.vars]
    parts += [f"{k[0]}[{k[1]}]: {render_sbt(sbt)}" for k, sbt in g.endpoints]
    return "{" + ", ".join(parts) + "}"


def context_key(g: TypeContext, mode: CongruenceMode,
                classes: TypeClasses | None = None) -> tuple:
    """Deterministic state identity: per endpoint, the buffer entries in
    canonical order and the session position, every type by its bisimilarity
    class.  Keys built with one table of classes compare by class alone.
    Without a table, g's own is built and its quotient joins the key, so that
    such keys compare with each other whatever contexts they come from."""
    own = classes is None
    if own:
        classes = context_classes(g)
    parts = tuple((k,) + canonical_binding(sbt, mode, classes)[1] for k, sbt in g.endpoints)
    out = (parts, tuple((n, classes.key(t)) for n, t in g.vars))
    return out + (classes.quotient,) if own else out
