"""Syntax-directed typechecking of processes against typing contexts.

Context splitting at parallel composition is demand-driven: each side
receives exactly the bindings of its free variables and endpoints; a
session-buffer binding splits component-wise (the buffer half follows the
side holding the session's buffer process, the session half follows the
side using the endpoint).  Leftover bindings must be end-typed or
collectable.  Restrictions are accepted only when their annotation
satisfies the safety property for the restricted session.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import proc as P
from .context import TypeContext, end_predicate, gc_predicate, render_context
from .diagnostics import Diagnostic, Span
from .lts import ExploreLimits
from .types import (Basic, Branch as TBranch, End, Select, SessionBufferType,
                    SessionType, Reliability, buffer_type_congruent, BufEntry,
                    CongruenceMode, format_type, is_basic, resolve,
                    type_equal)
from .verify import HOLDS, INCONCLUSIVE, Verdict, VIOLATED, check_safety


@dataclass
class TypingReport:
    verdict: str  # "accepted" | "rejected"
    failures: list
    trace: list  # list[(rule name, Span)]

    @property
    def accepted(self) -> bool:
        return self.verdict == "accepted"

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "failures": [d.to_json() for d in self.failures],
            "trace": [{"rule": r, "span": {"line": s.line, "col": s.col}}
                      for r, s in self.trace],
        }


def check_restriction_safety(session: str, binding: dict, r: Reliability,
                             limits: ExploreLimits | None = None) -> Verdict:
    """The restriction premise: the annotated context for one session must
    satisfy the safety property under the protocol's reliability map."""
    eps = {}
    for role, ty in binding.items():
        sbt = ty if isinstance(ty, SessionBufferType) else SessionBufferType((), ty)
        eps[(session, role)] = sbt
    g = TypeContext.of({}, eps)
    return check_safety(g, {session}, r, limits or ExploreLimits())


# ---------------------------------------------------------------------------
# demand analysis


def _demands(p: P.Process):
    """(channels, buffer sessions, vars) a process requires from the context."""

    chans: set = set()
    bufs: set = set()

    def val(v):
        if isinstance(v, P.Endpoint):
            chans.add((v.session, v.role))

    def walk(q, bound_sessions):
        if isinstance(q, P.Send):
            val(q.ch)
            val(q.value)
            walk(q.cont, bound_sessions)
        elif isinstance(q, P.Branch):
            val(q.ch)
            for a in q.arms:
                walk(a.cont, bound_sessions)
            if q.timeout is not None:
                walk(q.timeout, bound_sessions)
        elif isinstance(q, (P.Choice, P.Par)):
            walk(q.left, bound_sessions)
            walk(q.right, bound_sessions)
        elif isinstance(q, P.Restriction):
            walk(q.body, bound_sessions | {q.session})
        elif isinstance(q, P.Def):
            walk(q.cont, bound_sessions)
        elif isinstance(q, P.Call):
            for a in q.args:
                val(a)
        elif isinstance(q, P.Buffer):
            if q.session not in bound_sessions:
                bufs.add(q.session)
            for e in q.entries:
                val(e.value)

    walk(p, set())
    return chans, bufs, set(P.free_vars(p))


def restriction_context(rest: P.Restriction, g: TypeContext) -> TypeContext:
    """g with the restricted session's annotated endpoints, seeded with the
    types of its initial in-transit messages.  Only literal payloads can seed
    a buffer type; other values are left for the buffer rule to reject."""
    for role, ty in rest.annotations:
        g = g.with_endpoint((rest.session, role), SessionBufferType((), ty))
    for q in P.subterms(rest.body):
        if isinstance(q, P.Buffer) and q.session == rest.session:
            for e in q.entries:
                if isinstance(e.value, P.Lit):
                    cur = g.endpoint((rest.session, e.frm)) or SessionBufferType((), None)
                    entry = BufEntry(e.to, e.label, Basic(e.value.kind))
                    g = g.with_endpoint((rest.session, e.frm), SessionBufferType(
                        cur.buffer + (entry,), cur.session))
    return g


def _buffer_only(p: P.Process) -> bool:
    if isinstance(p, P.Buffer):
        return True
    if isinstance(p, P.Par):
        return _buffer_only(p.left) and _buffer_only(p.right)
    return False


class Checker:
    def __init__(self, r: Reliability, limits: ExploreLimits | None = None):
        self.r = r
        self.limits = limits or ExploreLimits()
        self.failures: list = []
        self.trace: list = []
        self._demanded: dict = {}  # id(process) -> (process, its demands)

    def fail(self, code: str, msg: str, span: Span = Span()) -> bool:
        self.failures.append(Diagnostic("error", code, msg, span))
        return False

    # -- value typing

    def value_type(self, v: P.Value, g: TypeContext):
        if isinstance(v, P.Lit):
            return Basic(v.kind)
        if isinstance(v, P.Var):
            return g.var(v.name)
        sbt = g.endpoint((v.session, v.role))
        return sbt.session if sbt is not None else None

    def channel_binding(self, ch: P.Value, g: TypeContext):
        """(session type, rebind function) for a channel value."""
        if isinstance(ch, P.Var):
            t = g.var(ch.name)
            if t is None or is_basic(t):
                return None, None
            return t, lambda g2, s2: g2.with_var(ch.name, s2)
        if isinstance(ch, P.Endpoint):
            key = (ch.session, ch.role)
            sbt = g.endpoint(key)
            if sbt is None or sbt.session is None:
                return None, None
            return sbt.session, (lambda g2, s2, key=key, sbt=sbt:
                                 g2.with_endpoint(key, SessionBufferType(sbt.buffer, s2)))
        return None, None

    def consume_payload(self, v: P.Value, expected, g: TypeContext, span: Span):
        """Typecheck a sent value and consume it if linear; None on failure."""
        vt = self.value_type(v, g)
        if vt is None:
            self.fail("UnboundVar", f"value {P.render_value(v)} is not in scope", span)
            return None
        if not type_equal(vt, expected):
            self.fail("PayloadMismatch",
                      f"payload {P.render_value(v)} has type {format_type(vt)}, "
                      f"expected {format_type(expected)}", span)
            return None
        if isinstance(v, P.Endpoint):
            return g.without_endpoint((v.session, v.role))
        if isinstance(v, P.Var) and not is_basic(vt):
            return g.without_var(v.name)
        return g

    # -- main recursion

    def check(self, theta: dict, g: TypeContext, sigma: set, p: P.Process) -> bool:
        if isinstance(p, P.Inaction):
            self.trace.append(("inaction", p.span))
            if sigma:
                return self.fail("DanglingBufferTracker",
                                 f"tracked session(s) {sorted(sigma)} have no buffer",
                                 p.span)
            if not end_predicate(g):
                return self.fail("EndPredicateFails",
                                 "terminated process leaves non-end bindings: "
                                 + render_context(g), p.span)
            return True

        if isinstance(p, P.Send):
            self.trace.append(("selection", p.span))
            s, rebind = self.channel_binding(p.ch, g)
            if s is None:
                return self.fail("UnknownChannel",
                                 f"channel {P.render_value(p.ch)} has no session type",
                                 p.span)
            head = resolve(s)
            if not isinstance(head, Select):
                return self.fail("ChannelTypeMismatch",
                                 f"channel {P.render_value(p.ch)} is not at a selection "
                                 f"(type {format_type(head)})", p.span)
            arm = next((a for a in head.arms
                        if a.to == p.to and a.label == p.label), None)
            if arm is None:
                return self.fail("MissingSelectArm",
                                 f"selection {p.to}!{p.label} is not offered by the "
                                 "channel type", p.span)
            g2 = self.consume_payload(p.value, arm.payload, g, p.span)
            if g2 is None:
                return False
            return self.check(theta, rebind(g2, arm.cont), sigma, p.cont)

        if isinstance(p, P.Branch):
            self.trace.append(("branching", p.span))
            s, rebind = self.channel_binding(p.ch, g)
            if s is None:
                return self.fail("UnknownChannel",
                                 f"channel {P.render_value(p.ch)} has no session type",
                                 p.span)
            head = resolve(s)
            if not isinstance(head, TBranch):
                return self.fail("ChannelTypeMismatch",
                                 f"channel {P.render_value(p.ch)} is not at a branching "
                                 f"(type {format_type(head)})", p.span)
            tarms = {(a.frm, a.label): a for a in head.arms}
            parms = {(a.frm, a.label): a for a in p.arms}
            if set(tarms) != set(parms):
                return self.fail("ArmMismatch",
                                 f"process arms {sorted(parms)} do not match type arms "
                                 f"{sorted(tarms)}", p.span)
            if head.timeout is not None and p.timeout is None:
                return self.fail("MissingTimeoutArm",
                                 "channel type defines a timeout arm the process "
                                 "does not handle", p.span)
            if head.timeout is None and p.timeout is not None:
                return self.fail("UnexpectedTimeoutArm",
                                 "process defines a timeout arm the channel type "
                                 "does not allow", p.span)
            ok = True
            for key in sorted(parms):
                pa, ta = parms[key], tarms[key]
                if not type_equal(pa.var_type, ta.payload):
                    ok = self.fail("PayloadMismatch",
                                   f"arm {key[0]}?{key[1]} binds {pa.var} at type "
                                   f"{format_type(pa.var_type)}, expected "
                                   f"{format_type(ta.payload)}", pa.span)
                    continue
                g2 = rebind(g, ta.cont).with_var(pa.var, ta.payload)
                ok = self.check(theta, g2, sigma, pa.cont) and ok
            if p.timeout is not None:
                ok = self.check(theta, rebind(g, head.timeout), sigma, p.timeout) and ok
            return ok

        if isinstance(p, P.Choice):
            self.trace.append(("choice", p.span))
            okl = self.check(theta, g, sigma, p.left)
            return self.check(theta, g, sigma, p.right) and okl

        if isinstance(p, P.Par):
            self.trace.append(("parallel", p.span))
            return self.check_par(theta, g, sigma, p)

        if isinstance(p, P.Restriction):
            self.trace.append(("restriction", p.span))
            # Seed the context with the session's initial in-transit
            # messages so both the safety premise and the buffer rule see
            # the matching buffer components.
            g2 = restriction_context(p, g)
            binding = {k[1]: sbt for k, sbt in g2.endpoints if k[0] == p.session}
            verdict = check_restriction_safety(p.session, binding, self.r, self.limits)
            if verdict.status == VIOLATED:
                return self.fail(f"SafetyUndetermined-{verdict.reason}",
                                 f"session {p.session} annotation violates the safety "
                                 f"property ({verdict.reason})", p.span)
            if verdict.status == INCONCLUSIVE:
                return self.fail("SafetyUndetermined",
                                 f"safety of session {p.session} could not be decided "
                                 "within exploration limits", p.span)
            return self.check(theta, g2, sigma | {p.session}, p.body)

        if isinstance(p, P.Def):
            self.trace.append(("definition", p.span))
            theta2 = dict(theta)
            theta2[p.name] = [t for _, t in p.params]
            gbody = TypeContext.of({v: t for v, t in p.params}, {})
            okb = self.check(theta2, gbody, set(), p.body)
            return self.check(theta2, g, sigma, p.cont) and okb

        if isinstance(p, P.Call):
            self.trace.append(("call", p.span))
            if p.name not in theta:
                return self.fail("UnknownDef", f"undefined process {p.name}", p.span)
            params = theta[p.name]
            if len(params) != len(p.args):
                return self.fail("ArityMismatch",
                                 f"{p.name} expects {len(params)} argument(s)", p.span)
            g2 = g
            for arg, expected in zip(p.args, params):
                g2 = self.consume_payload(arg, expected, g2, p.span)
                if g2 is None:
                    return False
            if sigma:
                return self.fail("DanglingBufferTracker",
                                 f"tracked session(s) {sorted(sigma)} have no buffer",
                                 p.span)
            if not end_predicate(g2):
                return self.fail("LeftoverLinearBinding",
                                 "call discards non-end bindings: "
                                 + render_context(g2), p.span)
            return True

        if isinstance(p, P.Buffer):
            self.trace.append(("buffer", p.span))
            return self.check_buffer(g, sigma, p)

        raise TypeError(f"unexpected process {p!r}")

    # -- parallel splitting

    def demands(self, p: P.Process) -> tuple:
        """`_demands(p)`, computed once per subtree in a run: a Par's are
        the union of its two sides', so each thread of a parallel
        composition is walked once however many Pars enclose it."""
        got = self._demanded.get(id(p))
        if got is None:
            if isinstance(p, P.Par):
                left, right = self.demands(p.left), self.demands(p.right)
                d = tuple(a | b for a, b in zip(left, right))
            else:
                d = _demands(p)
            # the process is kept with its demands, so its id stays its own
            got = self._demanded[id(p)] = (p, d)
        return got[1]

    def check_par(self, theta: dict, g: TypeContext, sigma: set, p: P.Par) -> bool:
        dl, dr = self.demands(p.left), self.demands(p.right)
        gl_vars, gr_vars = {}, {}
        gl_eps, gr_eps = {}, {}
        ok = True
        for name, t in g.vars:
            linear = not is_basic(t)
            if linear and name in dl[2] and name in dr[2]:
                ok = self.fail("LinearityViolation",
                               f"session variable {name} used in both parallel "
                               "components", p.span)
                continue
            if name in dl[2]:
                gl_vars[name] = t
            if name in dr[2] and not (linear and name in dl[2]):
                gr_vars[name] = t
            if name not in dl[2] and name not in dr[2]:
                gl_vars[name] = t  # leftover; end-typed vars are harmless
        prefer_right = _buffer_only(p.left) and not _buffer_only(p.right)
        for key, sbt in g.endpoints:
            session = key[0]
            buf_side = ("l" if session in dl[1] else
                        "r" if session in dr[1] else None)
            if key in dl[0] and key in dr[0]:
                ok = self.fail("LinearityViolation",
                               f"endpoint {key[0]}[{key[1]}] used in both parallel "
                               "components", p.span)
                continue
            ses_side = ("l" if key in dl[0] else
                        "r" if key in dr[0] else
                        ("r" if prefer_right else "l"))
            if sbt.session is not None:
                d = gl_eps if ses_side == "l" else gr_eps
                d[key] = SessionBufferType((), sbt.session)
            if sbt.buffer or sbt.session is None:
                side = buf_side or ses_side
                d = gl_eps if side == "l" else gr_eps
                cur = d.get(key)
                if cur is not None:
                    d[key] = SessionBufferType(sbt.buffer, cur.session)
                else:
                    d[key] = SessionBufferType(sbt.buffer, None)
        sl = {s for s in sigma if s in dl[1]}
        sr = {s for s in sigma if s in dr[1]}
        rest = sigma - sl - sr
        sl |= rest  # untracked leftovers surface as a failure on the left
        okl = self.check(theta, TypeContext.of(gl_vars, gl_eps), sl, p.left)
        okr = self.check(theta, TypeContext.of(gr_vars, gr_eps), sr, p.right)
        return ok and okl and okr

    # -- buffer typing

    def check_buffer(self, g: TypeContext, sigma: set, p: P.Buffer) -> bool:
        if p.session not in sigma:
            return self.fail("DuplicateSessionBuffer",
                             f"buffer for session {p.session} is not tracked here "
                             "(another buffer already claims it)", p.span)
        extra = sigma - {p.session}
        if extra:
            return self.fail("DanglingBufferTracker",
                             f"tracked session(s) {sorted(extra)} have no buffer",
                             p.span)
        # expected buffer types per sender, consuming delegated endpoints
        expected: dict = {}
        g2 = g
        ok = True
        for e in p.entries:
            vt = self.value_type(e.value, g2)
            if vt is None:
                ok = self.fail("UnboundVar",
                               f"buffered value {P.render_value(e.value)} untyped",
                               p.span)
                continue
            if isinstance(e.value, P.Endpoint):
                g2 = g2.without_endpoint((e.value.session, e.value.role))
            expected.setdefault(e.frm, []).append(BufEntry(e.to, e.label, vt))
        if not ok:
            return False
        for frm in sorted(expected):
            key = (p.session, frm)
            sbt = g2.endpoint(key)
            have = sbt.buffer if sbt is not None else ()
            if sbt is not None and sbt.session is not None:
                return self.fail("BufferTypeMismatch",
                                 f"{p.session}[{frm}] carries a session component on "
                                 "the buffer side", p.span)
            if not buffer_type_congruent(have, tuple(expected[frm]),
                                         CongruenceMode.TOTAL_REORDER):
                return self.fail("BufferTypeMismatch",
                                 f"buffer content of {p.session}[{frm}] does not match "
                                 "its buffer type", p.span)
            g2 = g2.without_endpoint(key)
        # leftovers: empty/collectable buffer bindings or end-typed residue
        leftover_eps = {}
        for key, sbt in g2.endpoints:
            if sbt.session is not None:
                if not isinstance(resolve(sbt.session), End) or sbt.buffer:
                    return self.fail("LeftoverLinearBinding",
                                     f"buffer discards live binding "
                                     f"{key[0]}[{key[1]}]", p.span)
            else:
                leftover_eps[key] = sbt
        gcg = TypeContext.of({}, leftover_eps)
        if not gc_predicate(gcg):
            return self.fail("BufferTypeMismatch",
                             "leftover buffer bindings are not collectable", p.span)
        return True


def typecheck(theta: dict, g: TypeContext, sigma, p: P.Process,
              r: Reliability, limits: ExploreLimits | None = None) -> TypingReport:
    """Decide whether p is well-typed under the given contexts and buffer
    tracker, for the protocol's reliability map."""
    diags = P.well_formed(p) if not sigma else []
    c = Checker(r, limits)
    c.failures.extend(diags)
    ok = c.check(dict(theta), g, set(sigma), p) and not diags
    return TypingReport("accepted" if ok else "rejected", c.failures, c.trace)


def typecheck_file(pf, limits: ExploreLimits | None = None) -> TypingReport:
    """Typecheck a parsed protocol file's system under empty contexts.
    Top-level definitions are mutually recursive, so every definition body
    is checked under an environment containing all of them."""
    theta = {d.name: [t for _, t in d.params] for d in pf.proc_defs}
    c = Checker(pf.reliability, limits)
    ok = True
    for d in pf.proc_defs:
        c.trace.append(("definition", d.span))
        gbody = TypeContext.of({v: t for v, t in d.params}, {})
        ok = c.check(dict(theta), gbody, set(), d.body) and ok
    ok = c.check(dict(theta), TypeContext.of(), set(), pf.system) and ok
    return TypingReport("accepted" if ok else "rejected", c.failures, c.trace)
