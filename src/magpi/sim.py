"""Seeded execution of the process-level operational semantics with
scripted fault injection and runtime branch monitors.

Asynchrony lives entirely in session buffers: a run is a sequential loop
that repeatedly samples one enabled reduction.  Failure scenarios weight the
failure rules (message drop, premature timeout) and can force them (crashed
roles, failed links, partitions); the Reliable policy restricts timeouts and
drops to unreliable pairs regardless of the scenario.
"""
from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass
from functools import cached_property

try:
    # hashlib loads OpenSSL's libcrypto, about 3.5 MB resident, for this
    # one digest; the built-in module is the same function.
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256

from . import proc as P
from .types import CongruenceMode, Reliability, buffer_heads

RELIABLE = "reliable"
UNRESTRICTED = "unrestricted"

RULE_SEND = "R-send"
RULE_RECV = "R-recv"
RULE_TIMEOUT = "R-timeout"
RULE_CHOICE = "R-choice"
RULE_CALL = "R-call"
RULE_DROP = "R-drop"


@dataclass(frozen=True)
class FailureScenario:
    drop: tuple = ()        # tuple[((frm, to), prob), ...]
    crash: tuple = ()       # tuple[(role, activation step), ...]
    # tuple[((roles...), (roles...), activation step), ...]: a failed link
    # a-b is the partition ((a,), (b,))
    partitions: tuple = ()
    delay_bias: float = 0.0
    reorder: CongruenceMode = CongruenceMode.TOTAL_REORDER
    freeze_crashed: bool = True

    @staticmethod
    def from_json(doc: dict) -> "FailureScenario":
        """Read a `docs/schema/scenario.json` document (drop keys must be
        'from->to'); raise ValueError on anything else."""
        if not isinstance(doc, dict):
            raise ValueError("a scenario is a JSON object")
        for k, v in doc.items():
            if k not in _SCENARIO_FIELDS:
                raise ValueError(f"unknown scenario field {k!r}")
            if not _SCENARIO_FIELDS[k](v):
                raise ValueError(f"scenario field {k!r} is invalid: {v!r} "
                                 "(see docs/schema/scenario.json)")
        drop = tuple(sorted((tuple(k.split("->")), float(v))
                            for k, v in doc.get("drop", {}).items()))
        crash = tuple(sorted((c["role"], int(c["at"]))
                             for c in doc.get("crash", [])))
        parts = tuple(((l["a"],), (l["b"],), int(l["at"])) for l in doc.get("links", []))
        parts += tuple((tuple(sorted(p["a"])), tuple(sorted(p["b"])), int(p["at"]))
                       for p in doc.get("partition", []))
        mode = (CongruenceMode.TCP_FIFO if doc.get("reorder") == "tcp"
                else CongruenceMode.TOTAL_REORDER)
        return FailureScenario(drop, crash, parts,
                               float(doc.get("delayBias", 0.0)), mode,
                               doc.get("freezeCrashed", True))

    def roles(self) -> set:
        """Every role the scenario names."""
        return ({x for (f, t), _ in self.drop for x in (f, t)}
                | {x for x, _ in self.crash}
                | {x for left, right, _ in self.partitions for x in left + right})

    def drop_prob(self, frm: str, to: str) -> float:
        for (f, t), p in self.drop:
            if f == frm and t == to:
                return p
        return 0.0

    def crashed(self, role: str, step: int) -> bool:
        return any(r == role and step >= at for r, at in self.crash)

    def link_failed(self, a: str, b: str, step: int) -> bool:
        return any(step >= at and ((a in left and b in right) or (a in right and b in left))
                   for left, right, at in self.partitions)


def _number(v) -> bool:
    """A finite JSON number (`1e400` reads as inf; a bool is not a number)."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def _objects(**fields):
    """Check for a list of objects, each holding every named field with a
    value of its kind: str (a role), list (of roles) or int (a step)."""
    kinds = {str: lambda v: isinstance(v, str),
             list: lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
             int: lambda v: _number(v) and float(v).is_integer()}
    return lambda v: isinstance(v, list) and all(
        isinstance(e, dict) and all(f in e and kinds[k](e[f]) for f, k in fields.items())
        for e in v)


# What `docs/schema/scenario.json` accepts for each field.
_SCENARIO_FIELDS = {
    "drop": lambda v: isinstance(v, dict) and all(
        len(k.split("->")) == 2 and all(k.split("->")) and _number(p) and 0 <= p <= 1
        for k, p in v.items()),
    "crash": _objects(role=str, at=int),
    "links": _objects(a=str, b=str, at=int),
    "partition": _objects(a=list, b=list, at=int),
    "delayBias": lambda v: _number(v) and v >= 0,
    "reorder": lambda v: v in ("total", "tcp"),
    "freezeCrashed": lambda v: isinstance(v, bool),
}


@dataclass(frozen=True)
class Config:
    process: P.Process
    step_count: int = 0

    @cached_property
    def running(self) -> tuple:
        """The running configuration, walked on first read: the thread heads
        as (path, node, def environment) in pre-order through `Par`,
        `Restriction` and a `Def`'s continuation, and the session buffers
        as {session: (path, buffer)}.  Nothing below a head (continuations,
        arms, timeouts, choice sides, `def` bodies) is visited."""
        threads, buffers = [], {}

        def walk(p, path, env):
            if isinstance(p, P.Def):
                walk(p.cont, path + (1,), {**env, p.name: (p.params, p.body)})
            elif isinstance(p, (P.Par, P.Restriction)):
                for i, c in enumerate(P.children(p)):
                    walk(c, path + (i,), env)
            elif isinstance(p, P.Buffer):
                buffers[p.session] = (path, p)
            else:
                threads.append((path, p, env))

        walk(self.process, (), {})
        return threads, buffers

    @cached_property
    def inactive(self) -> bool:
        """Whether every running thread head is inaction: a finished process,
        whatever restrictions, buffers and definitions it leaves around it."""
        return all(isinstance(q, P.Inaction) for _, q, _ in self.running[0])


@dataclass(frozen=True)
class Step:
    """One enabled reduction.  Its edits, (path, term, substitution) triples
    for `root`, are the thread's continuation (substituted for R-recv and
    R-call) plus, for R-send and R-recv, the buffer's new entries."""
    rule: str
    detail: tuple  # sorted (key, value) pairs describing the redex
    weight: float
    root: P.Process
    edits: tuple

    @cached_property
    def process(self) -> P.Process:
        """The process after this step, substituted and path-copied on first read."""
        return _rebuild(self.root, [(path, P.subst(term, sub))
                                    for path, term, sub in self.edits])


@dataclass(frozen=True)
class TraceEvent:
    step: int
    rule: str
    detail: tuple
    buffers: str  # digest of the running session buffers after the step

    def to_json(self) -> dict:
        return {"step": self.step, "rule": self.rule,
                "detail": dict(self.detail), "buffers": self.buffers}


@dataclass
class Trace:
    events: list
    configs: list  # Config per step, index 0 = initial
    terminal: Config
    stuck: bool

    def to_json_lines(self) -> str:
        return "\n".join(json.dumps(e.to_json(), sort_keys=True)
                         for e in self.events)


# ---------------------------------------------------------------------------
# tree addressing


def _rebuild(root: P.Process, edits: list) -> P.Process:
    """root with each edit's term put at its path (a path of `Config.running`),
    by path copying: one descent copies the `Par`, `Restriction` and `Def`
    nodes on the way, splitting the edits at each `Par`, and shares the rest."""
    def put(p, edits, d):
        if len(edits[0][0]) == d:  # no path of a thread or buffer is another's prefix
            return edits[0][1]
        if type(p) is P.Par:
            left, right = ([e for e in edits if e[0][d] == i] for i in (0, 1))
            return P.Par(put(p.left, left, d + 1) if left else p.left,
                         put(p.right, right, d + 1) if right else p.right, p.span)
        if type(p) is P.Restriction:
            return P.Restriction(p.session, p.annotations, put(p.body, edits, d + 1), p.span)
        if type(p) is P.Def:
            return P.Def(p.name, p.params, p.body, put(p.cont, edits, d + 1), p.span)
        raise ValueError("path outside the running threads")

    return put(root, edits, 0)


# ---------------------------------------------------------------------------
# enabled steps


def _message_detail(e: P.BufMsg, session: str) -> tuple:
    return (("from", e.frm), ("label", e.label), ("session", session),
            ("to", e.to), ("value", P.render_value(e.value)))


def _droppable(e: P.BufMsg, r: Reliability, policy: str,
               scenario: FailureScenario, step: int):
    """(allowed, weight) of dropping one in-transit message.  The reliable
    policy keeps a message whose recipient trusts its sender, as that
    recipient may wait on it without a timeout."""
    forced = (scenario.crashed(e.frm, step)
              or scenario.link_failed(e.frm, e.to, step))
    if policy == RELIABLE and e.frm in r.get(e.to) and not forced:
        return False, 0.0
    w = 1.0 if forced else scenario.drop_prob(e.frm, e.to)
    return True, w


def enabled_steps(c: Config, r: Reliability, policy: str,
                  scenario: FailureScenario) -> list:
    """All enabled reductions with their scenario weights, deterministically
    ordered.  Weight 0 marks a step the sampler will never take.  No step's
    process is built here: see `Step.process`."""
    root, step = c.process, c.step_count
    threads, buffers = c.running
    heads = {s: buffer_heads(P.buffer_keys(buf.entries), scenario.reorder)
             for s, (_, buf) in buffers.items()}
    out = []
    for path, node, env in threads:
        if isinstance(node, P.Send) and isinstance(node.ch, P.Endpoint):
            s, role = node.ch.session, node.ch.role
            if scenario.crashed(role, step) and scenario.freeze_crashed:
                continue
            if s not in buffers:
                continue
            bpath, buf = buffers[s]
            entry = P.BufMsg(role, node.to, node.label, node.value)
            out.append(Step(RULE_SEND, _message_detail(entry, s), 1.0, root, (
                (path, node.cont, {}),
                (bpath, P.Buffer(s, buf.entries + (entry,), buf.span), {}))))
        elif isinstance(node, P.Branch) and isinstance(node.ch, P.Endpoint):
            s, role = node.ch.session, node.ch.role
            if scenario.crashed(role, step) and scenario.freeze_crashed:
                continue
            bpath, buf = buffers.get(s, (None, None))
            matched = False
            for i in heads.get(s, ()):
                e = buf.entries[i]
                if e.to != role:
                    continue
                for arm in node.arms:
                    if arm.frm != e.frm or arm.label != e.label:
                        continue
                    matched = True
                    rest = buf.entries[:i] + buf.entries[i + 1:]
                    out.append(Step(RULE_RECV, _message_detail(e, s), 1.0, root, (
                        (path, arm.cont, {arm.var: e.value}),
                        (bpath, P.Buffer(s, rest, buf.span), {}))))
            if node.timeout is not None and (policy == UNRESTRICTED
                                             or r.needs_timeout(role, node.arms)):
                w = scenario.delay_bias if matched else 1.0
                out.append(Step(RULE_TIMEOUT, (("role", role), ("session", s)),
                                w, root, ((path, node.timeout, {}),)))
        elif isinstance(node, P.Choice):
            out.append(Step(RULE_CHOICE, (("side", "left"),), 1.0, root,
                            ((path, node.left, {}),)))
            out.append(Step(RULE_CHOICE, (("side", "right"),), 1.0, root,
                            ((path, node.right, {}),)))
        elif isinstance(node, P.Call):
            if node.name in env:
                params, body = env[node.name]
                sub = {v: a for (v, _), a in zip(params, node.args)}
                out.append(Step(RULE_CALL, (("name", node.name),), 1.0, root,
                                ((path, body, sub),)))
    for s, (path, buf) in buffers.items():
        for i in heads[s]:
            e = buf.entries[i]
            allowed, w = _droppable(e, r, policy, scenario, step)
            if not allowed:
                continue
            rest = buf.entries[:i] + buf.entries[i + 1:]
            out.append(Step(RULE_DROP, _message_detail(e, s), w,
                            root, ((path, P.Buffer(s, rest, buf.span), {}),)))
    out.sort(key=lambda s: (s.rule, s.detail))
    return out


# ---------------------------------------------------------------------------
# runs


def _buffer_digest(c: Config) -> str:
    """Hash of the running configuration's session buffers, each rendered."""
    parts = sorted(P.render_process(buf) for _, buf in c.running[1].values())
    return sha256("|".join(parts).encode()).hexdigest()[:12]


def run(c0: Config, r: Reliability, policy: str, scenario: FailureScenario,
        seed: int, max_steps: int) -> Trace:
    """Seeded scheduler: repeatedly samples one positive-weight enabled step
    until quiescence or the step budget; deterministic in (c0, scenario,
    seed)."""
    rng = random.Random(seed)
    cfg = c0
    events, configs = [], [c0]
    stuck = False
    for _ in range(max_steps):
        steps = enabled_steps(cfg, r, policy, scenario)
        live = [s for s in steps if s.weight > 0.0]
        if not live:
            # Zero-weight steps can only be drops of orphaned messages whose
            # receiver already finished; those do not make the run stuck.
            stuck = not cfg.inactive
            break
        total = sum(s.weight for s in live)
        pick = rng.random() * total
        acc = 0.0
        chosen = live[-1]
        for s in live:
            acc += s.weight
            if pick < acc:
                chosen = s
                break
        cfg = Config(chosen.process, cfg.step_count + 1)
        events.append(TraceEvent(cfg.step_count, chosen.rule, chosen.detail,
                                 _buffer_digest(cfg)))
        configs.append(cfg)
    return Trace(events, configs, cfg, stuck)


# ---------------------------------------------------------------------------
# monitors


@dataclass(frozen=True)
class MonitorViolation:
    kind: str  # "Cor1" | "Cor2"
    session: str
    role: str
    step: int

    def to_json(self) -> dict:
        return {"kind": self.kind, "session": self.session,
                "role": self.role, "step": self.step}


def monitor_corollaries(t: Trace, r: Reliability) -> list:
    """Check every thread that waits on a branching in a stored configuration:
    a timeout-less branching must only await reliable sources, and a
    timeout-bearing branching must await at least one unreliable source.  A
    branching below a thread head is checked once it becomes a head."""
    return [MonitorViolation("Cor1" if q.timeout is None else "Cor2",
                             q.ch.session, q.ch.role, i)
            for i, cfg in enumerate(t.configs)
            for _, q, _ in cfg.running[0]
            if isinstance(q, P.Branch) and isinstance(q.ch, P.Endpoint)
            and (q.timeout is not None) != r.needs_timeout(q.ch.role, q.arms)]
