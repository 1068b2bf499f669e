"""Syntax-directed typechecking of processes against typing contexts.

Context splitting at parallel composition is by demand alone: each side
receives the bindings of the free variables and endpoints it holds
(`proc.demands`, local `def` bodies included).  A session-buffer binding
splits component-wise: the session half goes to the side using the
endpoint, the buffer half to the side holding the session's buffer
process.  A binding neither side demands goes to the left, whatever
the sides are.  Every leaf discharges what it is handed by one rule: an
inaction or a call requires end(Γ) of what is left after its arguments,
and a buffer consumes each sender's buffer half and requires the rest to
split as end(Γ0), gc(Γ'') (`context.split_end_gc`), the decomposition the
deadlock rule of `verify` reads.  Restrictions are accepted only when
their annotation satisfies the safety property for the restricted session.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import proc as P
from .context import TypeContext, end_predicate, render_context, split_end_gc
from .diagnostics import Diagnostic, Span
from .lts import ExploreLimits
from .types import (Basic, Branch as TBranch, Select, SessionBufferType,
                    Reliability, buffer_type_congruent, BufEntry,
                    CongruenceMode, format_type, is_basic, resolve,
                    type_equal)
from .verify import INCONCLUSIVE, VIOLATED, Graphs, check_safety


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


def restriction_context(rest: P.Restriction, g: TypeContext) -> TypeContext:
    """g with the restricted session's annotated endpoints, seeded with the
    types of its initial in-transit messages.  Only literal payloads can seed
    a buffer type; other values are left for the buffer rule to reject."""
    for role, ty in rest.annotations:
        g = g.with_endpoint((rest.session, role), SessionBufferType((), ty))
    for buf in P.demands(rest.body)[1]:
        for e in buf.entries:
            if buf.session == rest.session and isinstance(e.value, P.Lit):
                cur = g.endpoint((rest.session, e.frm)) or SessionBufferType((), None)
                entry = BufEntry(e.to, e.label, Basic(e.value.kind))
                g = g.with_endpoint((rest.session, e.frm), SessionBufferType(
                    cur.buffer + (entry,), cur.session))
    return g


def _consume(v: P.Value, vt, g: TypeContext) -> TypeContext:
    """g without the binding of v, a value of type vt, when v is linear."""
    if isinstance(v, P.Endpoint):
        return g.without_endpoint((v.session, v.role))
    if isinstance(v, P.Var) and not is_basic(vt):
        return g.without_var(v.name)
    return g


class Checker:
    def __init__(self, r: Reliability, limits: ExploreLimits | None = None,
                 graphs: Graphs | None = None):
        self.r = r
        self.limits = limits or ExploreLimits()
        self.graphs = graphs
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

    def channel_head(self, p, g: TypeContext, kind, what: str):
        """(head, rebind function) of p's channel when its session type is
        at a `kind` node; (None, None) after reporting why it is not."""
        s = self.value_type(p.ch, g)
        head = None if s is None or is_basic(s) else resolve(s)
        if head is None:
            self.fail("UnknownChannel",
                      f"channel {P.render_value(p.ch)} has no session type", p.span)
        elif not isinstance(head, kind):
            self.fail("ChannelTypeMismatch",
                      f"channel {P.render_value(p.ch)} is not at a {what} "
                      f"(type {format_type(head)})", p.span)
        elif isinstance(p.ch, P.Var):
            return head, lambda g2, s2: g2.with_var(p.ch.name, s2)
        else:
            key = (p.ch.session, p.ch.role)
            buf = g.endpoint(key).buffer
            return head, lambda g2, s2: g2.with_endpoint(key, SessionBufferType(buf, s2))
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
        return _consume(v, vt, g)

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
            head, rebind = self.channel_head(p, g, Select, "selection")
            if head is None:
                return False
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
            head, rebind = self.channel_head(p, g, TBranch, "branching")
            if head is None:
                return False
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
                g2 = rebind(g, ta.cont)
                # the binding pa.var overwrites is dropped, so it must be end
                shadowed = TypeContext(tuple(b for b in g2.vars if b[0] == pa.var))
                if not end_predicate(shadowed):
                    ok = self.fail("LinearityViolation",
                                   f"arm {key[0]}?{key[1]} binds {pa.var} over the "
                                   "live binding " + render_context(shadowed), pa.span)
                    continue
                ok = self.check(theta, g2.with_var(pa.var, ta.payload), sigma,
                                pa.cont) and ok
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
            gs = TypeContext((), tuple(e for e in g2.endpoints if e[0][0] == p.session))
            graphs = self.graphs if self.graphs is not None and gs == self.graphs.g0 else None
            verdict = check_safety(gs, {p.session}, self.r, self.limits, graphs)
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
        """The sets of endpoints, buffer sessions and free variables of
        `P.demands(p)`, computed once per subtree in a run: a Par's are the
        union of its two sides', so each thread of a parallel composition
        is walked once however many Pars enclose it."""
        got = self._demanded.get(id(p))
        if got is None:
            if isinstance(p, P.Par):
                left, right = self.demands(p.left), self.demands(p.right)
                d = tuple(a | b for a, b in zip(left, right))
            else:
                eps, bufs, free = P.demands(p)
                d = (set(eps), {b.session for b in bufs}, set(free))
            # the process is kept with its demands, so its id stays its own
            got = self._demanded[id(p)] = (p, d)
        return got[1]

    def check_par(self, theta: dict, g: TypeContext, sigma: set, p: P.Par) -> bool:
        dl, dr = self.demands(p.left), self.demands(p.right)
        gl_vars, gr_vars = {}, {}
        gl_eps, gr_eps = {}, {}
        ok = True
        # A linear binding both sides use is reported once, then handed to
        # both sides, so that neither reports its uses as unknown.
        for name, t in g.vars:
            if not is_basic(t) and name in dl[2] and name in dr[2]:
                ok = self.fail("LinearityViolation",
                               f"session variable {name} used in both parallel "
                               "components", p.span)
            if name in dr[2]:
                gr_vars[name] = t
            if name in dl[2] or name not in dr[2]:
                gl_vars[name] = t  # a binding neither side uses goes left
        for key, sbt in g.endpoints:
            if key in dl[0] and key in dr[0]:
                ok = self.fail("LinearityViolation",
                               f"endpoint {key[0]}[{key[1]}] used in both parallel "
                               "components", p.span)
                if sbt.session is not None:
                    gl_eps[key] = SessionBufferType((), sbt.session)
            ses_side = gr_eps if key in dr[0] else gl_eps
            buf_side = (gl_eps if key[0] in dl[1] else
                        gr_eps if key[0] in dr[1] else ses_side)
            if sbt.session is not None:
                ses_side[key] = SessionBufferType((), sbt.session)
            if sbt.buffer or sbt.session is None:
                cur = buf_side.get(key)
                buf_side[key] = SessionBufferType(sbt.buffer,
                                                  cur.session if cur else None)
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
        # expected buffer types per sender, consuming delegated values
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
            g2 = _consume(e.value, vt, g2)
            expected.setdefault(e.frm, []).append(BufEntry(e.to, e.label, vt))
        if not ok:
            return False
        # each sender's buffer half is consumed, its session half kept
        for frm in sorted(expected):
            key = (p.session, frm)
            sbt = g2.endpoint(key) or SessionBufferType((), None)
            if not buffer_type_congruent(sbt.buffer, tuple(expected[frm]),
                                         CongruenceMode.TOTAL_REORDER):
                return self.fail("BufferTypeMismatch",
                                 f"buffer content of {p.session}[{frm}] does not match "
                                 "its buffer type", p.span)
            g2 = g2.with_endpoint(key, SessionBufferType((), sbt.session))
        ok, reason = split_end_gc(g2)
        if not ok:
            return self.fail("LeftoverLinearBinding",
                             f"buffer leaves a residue that is not end or "
                             f"collectable: {reason}", p.span)
        return True


def typecheck(theta: dict, g: TypeContext, sigma, p: P.Process,
              r: Reliability, limits: ExploreLimits | None = None,
              graphs: Graphs | None = None) -> TypingReport:
    """Decide whether p is well-typed under the given contexts and buffer
    tracker, for the protocol's reliability map.  `graphs`, when given,
    holds a verify run's graphs: a restriction whose safety context is
    their g0 decides safety on them, and the run reads that decision."""
    c = Checker(r, limits, graphs)
    ok = c.check(dict(theta), g, set(sigma), p)
    return TypingReport("accepted" if ok else "rejected", c.failures, c.trace)


def typecheck_file(pf, limits: ExploreLimits | None = None,
                   graphs: Graphs | None = None) -> TypingReport:
    """Typecheck a parsed protocol file's system, with its top-level
    definitions in scope, under empty contexts.  Top-level definitions are
    mutually recursive, so the `Def` rule checks every definition body under
    an environment containing all of them."""
    theta = {d.name: [t for _, t in d.params] for d in pf.proc_defs}
    return typecheck(theta, TypeContext(), (), pf.system_with_defs(),
                     pf.reliability, limits, graphs)
