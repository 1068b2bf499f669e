"""The three workloads: inputs made from the seed, a fixed cycle of ops, and
a check of every op's output against hand-derived answers.

An op of a verify workload is one in-process `magpi.cli.main([..., "--json"])`
call; an op of `simulate-faults` is one `magpi.sim.run` followed by
`magpi.sim.monitor_corollaries`.  Each op is called through its module
attribute, so the tracer's wrappers see it; the checks use the functions
bound at import, so they are never traced.
"""
from __future__ import annotations

import importlib
import io
import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field

import jsonschema

import magpi.cli
import magpi.parser
import magpi.sim
import magpi.verify
from magpi.context import TypeContext, canonical_context
from magpi.lts import ExploreLimits, action_to_json, context_transitions
from magpi.parser import parse_session_text
from magpi.sim import Config, FailureScenario, RELIABLE, UNRESTRICTED
from magpi.types import CongruenceMode, Reliability, SessionBufferType

import gen

# The package re-exports a function called `typecheck`, which shadows the
# submodule as a package attribute.
typecheck_module = importlib.import_module("magpi.typecheck")

DECIDED = ("holds", "violated")


@dataclass
class Outcome:
    """What the check of one op found."""

    problems: list = field(default_factory=list)
    verdicts: list = field(default_factory=list)  # statuses of requested properties
    decided: int = 0
    requested: int = 0
    anchors: dict = field(default_factory=dict)


def _validator(root, name):
    with open(root / "docs" / "schema" / name, encoding="utf-8") as fh:
        return jsonschema.Draft202012Validator(json.load(fh))


def _mode(name: str) -> CongruenceMode:
    return CongruenceMode.TCP_FIFO if name == "tcp" else CongruenceMode.TOTAL_REORDER


def replay(g0, sigma, r, mode, witness) -> tuple:
    """Follow a JSON witness through `context_transitions` from the
    canonical initial context: (problem or None, last context)."""
    limits = ExploreLimits(mode=mode)
    g = canonical_context(g0, mode)
    for i, act in enumerate(witness):
        nxt = [n for a, n in context_transitions(g, sigma, r, limits)
               if action_to_json(a) == act]
        if not nxt:
            return f"witness step {i} ({act}) is not enabled", g
        g = canonical_context(nxt[0], mode)
    return None, g


def _roles(g0) -> set:
    return {k[1] for k, _ in g0.endpoints}


# ---------------------------------------------------------------------------
# verify workloads


@dataclass
class VerifySpec:
    kind: str
    argv: list
    props: tuple
    accept: dict        # property -> acceptable verdicts
    reasons: dict       # property -> expected reason prefix when violated
    minimal_k: int | None
    g0: TypeContext
    sigma: set
    reliability: Reliability
    mode: CongruenceMode


class VerifyWorkload:
    setup_files: list = []
    rerun_period = 8  # rerun one op every this many cycles

    def __init__(self, root, seed, workdir):
        self.root, self.seed, self.workdir = root, seed, workdir
        self.schema = _validator(root, "properties-result.json")

    def _spec(self, kind, text, props, accept, reasons=None, minimal_k=None,
              mode="total", extra=()) -> VerifySpec:
        path = self.workdir / f"{kind}.magpi"
        path.write_text(text, encoding="utf-8")
        pf = magpi.parser.parse(text)
        g0, session = magpi.cli.initial_context(pf)
        argv = ["verify", str(path), "--props", ",".join(props), "--mode", mode,
                *extra, "--json"]
        return VerifySpec(kind, argv, tuple(props), accept, reasons or {},
                          minimal_k, g0, {session}, pf.reliability, _mode(mode))

    def ops(self, c: int) -> list:
        """The ops of cycle c: the same fixed mix every cycle."""
        return self.cycle

    def execute(self, spec: VerifySpec):
        out = io.StringIO()
        rc = magpi.cli.main(spec.argv, out)
        return rc, out.getvalue()

    @staticmethod
    def fingerprint(result):
        return result

    def check(self, spec: VerifySpec, result) -> Outcome:
        rc, text = result
        o = Outcome(requested=len(spec.props))
        try:
            doc = json.loads(text)
        except ValueError:
            o.problems.append(f"output is not JSON: {text[:200]!r}")
            return o
        o.problems += [f"schema: {e.message}" for e in self.schema.iter_errors(doc)]
        got = doc.get("properties", {}) if isinstance(doc, dict) else {}
        for p in spec.props:
            entry = got.get(p, {})
            v = entry.get("verdict")
            o.verdicts.append(v)
            o.decided += v in DECIDED
            if v not in spec.accept[p]:
                o.problems.append(f"{p}: {v}, expected one of {sorted(spec.accept[p])}")
            if v == "violated":
                if not entry.get("reason", "").startswith(spec.reasons.get(p, "")):
                    o.problems.append(f"{p}: reason {entry.get('reason')!r}")
                o.problems += self._replay(spec, p, entry.get("witness", []))
        if "bounded" in spec.props and got.get("bounded", {}).get("minimalK") != spec.minimal_k:
            o.problems.append(f"bounded: minimalK {got.get('bounded', {}).get('minimalK')}, "
                              f"expected {spec.minimal_k}")
        statuses = set(o.verdicts)
        want_rc = 1 if "violated" in statuses else 2 if "inconclusive" in statuses else 0
        if rc != want_rc:
            o.problems.append(f"exit code {rc}, expected {want_rc}")
        o.anchors = {"stats": doc.get("stats") if isinstance(doc, dict) else None,
                     "verdicts": dict(zip(spec.props, o.verdicts))}
        return o

    def _replay(self, spec: VerifySpec, prop: str, witness) -> list:
        r = (Reliability.fully_reliable(_roles(spec.g0)) if prop == "comm-rf"
             else spec.reliability)
        problem, last = replay(spec.g0, spec.sigma, r, spec.mode, witness)
        if problem:
            return [f"{prop}: {problem}"]
        if prop == "deadlock" and context_transitions(last, spec.sigma, r,
                                                      ExploreLimits(mode=spec.mode)):
            return [f"{prop}: witness ends in a context that can still move"]
        return []

    def probe(self) -> list:
        return []

    def anchors(self, records: list) -> dict:
        """Stats and verdicts of the first op of each kind."""
        first: dict = {}
        for r in records:
            first.setdefault(r.kind, r.outcome.anchors)
        return first


class MeshWorkload(VerifyWorkload):
    """`verify` with six properties over 2-fold ping meshes."""

    # (kind, m, loop, mode): one input file per kind, each drawn from the seed
    CYCLE = (("m1-total", 1, False, "total"), ("m1-tcp", 1, False, "tcp"),
             ("m1-loop", 1, True, "total"), ("m1-loop-tcp", 1, True, "tcp"),
             ("m2-total", 2, False, "total"))
    K = 2
    # (states, edges) of each kind's stats pass when the benchmark was
    # defined; a change is reported, not failed (a canonical state key may
    # legitimately merge states).
    REFERENCE = {"m1-total": (441, 1260), "m1-tcp": (441, 1260),
                 "m1-loop": (336, 1173), "m1-loop-tcp": (336, 1173),
                 "m2-total": (1521, 5148)}

    def __init__(self, root, seed, workdir):
        super().__init__(root, seed, workdir)
        self.cycle = []
        for kind, m, loop, mode in self.CYCLE:
            rng = random.Random(f"{seed}/{kind}")
            exp = gen.expected_mesh(m, loop)
            self.cycle.append(self._spec(
                kind, gen.mesh_source(rng, self.K, m, loop), gen.MESH_PROPS,
                {p: {v} for p, v in exp["verdicts"].items()}, exp["reasons"],
                exp["minimalK"], mode))
        # One-group inputs: the mesh's state count is the product of theirs.
        # Their stats are taken here, before any timing.
        self.groups = {}
        for m, loop, mode in sorted({(m, loop, mode) for _, m, loop, mode in self.CYCLE}
                                    | {(m, False, mode) for _, m, _, mode in self.CYCLE}):
            kind = f"group-m{m}-{'loop' if loop else 'ping'}-{mode}"
            spec = self._spec(kind, gen.mesh_source(random.Random(f"{seed}/{kind}"), 1, m, loop),
                              ("safety",), {"safety": {"holds"}}, mode=mode)
            rc, text = self.execute(spec)
            self.groups[(m, loop, mode)] = (kind, json.loads(text)["stats"])

    def probe(self) -> list:
        """Open item 1: deadlock and live on both spellings of the
        renamed-binder context; both must be violated.  Returns one
        (name, Outcome) per spelling."""
        out = []
        for rename in (False, True):
            types = gen.probe_types(rename)
            g0 = TypeContext.of({}, {("s", role): SessionBufferType(
                (), parse_session_text(t, roles=("p", "q"))) for role, t in types.items()})
            r = Reliability.fully_reliable({"p", "q"})
            limits = ExploreLimits()
            o = Outcome(requested=2)
            for prop, fn in (("deadlock", magpi.verify.check_deadlock_free),
                             ("live", magpi.verify.check_live)):
                v = fn(g0, {"s"}, r, limits)
                o.verdicts.append(v.status)
                o.decided += v.status in DECIDED
                if v.status != gen.PROBE_EXPECTED[prop]:
                    o.problems.append(f"probe {'W' if rename else 'Y'}: {prop} "
                                      f"{v.status}, expected {gen.PROBE_EXPECTED[prop]}")
                if v.status == "violated":
                    w = [action_to_json(a) for a in v.witness]
                    problem, _ = replay(g0, {"s"}, r, limits.mode, w)
                    if problem:
                        o.problems.append(f"probe {prop}: {problem}")
            out.append((f"probe-{'W' if rename else 'Y'}", o))
        return out

    def anchors(self, records: list) -> dict:
        """Per kind: stats and verdicts; per one-group input: stats; and
        whether each mesh has exactly the product of its groups' states and
        edges (a mismatch is flagged, not failed)."""
        first = super().anchors(records)
        groups = {key: stats for key, (_, stats) in self.groups.items()}
        out = {"groups": {kind: stats for kind, stats in self.groups.values()},
               "notes": []}
        for kind, m, loop, mode in self.CYCLE:
            a = dict(first[kind])
            parts = [groups[(m, loop and i == 0, mode)] for i in range(self.K)]
            # states multiply; each group's edges pair with every state of the others
            states = math.prod(g["states"] for g in parts)
            edges = sum(g["edges"] * states // g["states"] for g in parts)
            a["product"] = {"states": states, "edges": edges}
            a["product_matches"] = a.get("stats") == {"states": states, "edges": edges}
            out[kind] = a
            got = a.get("stats") or {}
            note = f"{kind}: {got.get('states')} states, {got.get('edges')} edges"
            if not a["product_matches"]:
                note += f"; MISMATCH with the product of its groups {a['product']}"
            if (got.get("states"), got.get("edges")) != self.REFERENCE[kind]:
                note += f"; changed from {self.REFERENCE[kind]}"
            out["notes"].append(note)
        return out


class LeaderWorkload(VerifyWorkload):
    """`verify` on the leader election with renamed roles, under a state cap."""

    MAX_STATES = 400

    def __init__(self, root, seed, workdir):
        super().__init__(root, seed, workdir)
        text = gen.leader_source(
            (root / "fixtures" / "leader.magpi").read_text(encoding="utf-8"),
            random.Random(f"{seed}/leader"))
        accept = {p: {v, "inconclusive"} for p, v in gen.LEADER_EXPECTED.items()}
        cap = ("--max-states", str(self.MAX_STATES))
        safety = self._spec("safety", text, ("safety",), accept,
                            {"terminating": "Cycle"}, extra=cap)
        full = self._spec("default", text, gen.LEADER_DEFAULT, accept,
                          {"terminating": "Cycle"}, extra=cap)
        # two safety-only ops per full op keep the median inside one kind
        self.cycle = [safety, full, safety]


# ---------------------------------------------------------------------------
# simulate-faults


@dataclass
class SimSpec:
    kind: str
    protocol: str
    policy: str
    scenario: FailureScenario
    doc: dict
    seed: int
    steps: int


class SimWorkload:
    """Seeded fault sweeps over ping, dns, leader and a 2-fold mesh."""

    PROTOCOLS = ("ping", "dns", "mesh", "ping", "dns", "mesh", "leader")
    STEPS = {"leader": 40}
    DEFAULT_STEPS = 120
    rerun_period = 1

    def __init__(self, root, seed, workdir):
        self.root, self.seed, self.workdir = root, seed, workdir
        self.schema = _validator(root, "trace-event.json")
        texts = {n: (root / "fixtures" / f"{n}.magpi").read_text(encoding="utf-8")
                 for n in ("ping", "dns", "leader")}
        texts["mesh"] = gen.mesh_source(random.Random(f"{seed}/mesh"), 2, 2)
        self.setup_files = []
        for name, text in texts.items():
            path = workdir / f"{name}.magpi"
            path.write_text(text, encoding="utf-8")
            self.setup_files.append(str(path))
        self.texts = texts
        self.load()

    def ops(self, c: int) -> list:
        """The ops of cycle c: every protocol under both policies and both
        reorder modes, each with a fresh scenario and run seed drawn from
        (seed, c), so a run covers many scenarios and one seed's draws do
        not set its timings."""
        rng = random.Random(f"{self.seed}/cycle{c}")
        out = []
        for policy in (RELIABLE, UNRESTRICTED):
            for reorder in ("total", "tcp"):
                for name in self.PROTOCOLS:
                    doc = gen.fault_scenario(rng, list(self.pfs[name].roles))
                    if reorder == "tcp":
                        doc["reorder"] = "tcp"
                    out.append(SimSpec(
                        f"{name}-{policy}-{reorder}", name, policy,
                        FailureScenario.from_json(doc), doc,
                        rng.randrange(2 ** 31), self.STEPS.get(name, self.DEFAULT_STEPS)))
        return out

    def load(self) -> None:
        """Parse and typecheck every protocol: the one-off work of set-up."""
        self.pfs, self.c0 = {}, {}
        for name, text in self.texts.items():
            pf = magpi.parser.parse(text)
            if not typecheck_module.typecheck_file(pf).accepted:
                raise RuntimeError(f"{name}: typecheck rejected a benchmark input")
            self.pfs[name] = pf
            self.c0[name] = Config(pf.system_with_defs(), 0)

    def execute(self, spec: SimSpec):
        r = self.pfs[spec.protocol].reliability
        trace = magpi.sim.run(self.c0[spec.protocol], r, spec.policy,
                              spec.scenario, spec.seed, spec.steps)
        return trace, magpi.sim.monitor_corollaries(trace, r)

    @staticmethod
    def fingerprint(result):
        trace, violations = result
        return (trace.to_json_lines(), trace.stuck,
                json.dumps([v.to_json() for v in violations]))

    def check(self, spec: SimSpec, result) -> Outcome:
        trace, violations = result
        o = Outcome(requested=1)
        r = self.pfs[spec.protocol].reliability
        rules = Counter()
        for i, line in enumerate(trace.to_json_lines().splitlines()):
            ev = json.loads(line)
            if not self.schema.is_valid(ev):
                o.problems += [f"event {i + 1}: schema: {e.message}"
                               for e in self.schema.iter_errors(ev)]
            if ev.get("step") != i + 1:
                o.problems.append(f"event {i + 1}: step {ev.get('step')}")
            rules[ev["rule"]] += 1
            if spec.policy == RELIABLE and ev["rule"] == "R-drop":
                d = ev["detail"]
                if d["to"] in r.get(d["from"]) and not _forced(spec.doc, d["from"],
                                                               d["to"], ev["step"] - 1):
                    o.problems.append(f"event {i + 1}: unforced drop on reliable "
                                      f"channel {d['from']}->{d['to']}")
        if violations:
            o.problems.append(f"{len(violations)} monitor violations on a "
                              f"well-typed protocol")
        # a run decides when it ends (finished or stuck) within its budget
        o.decided = int(len(trace.events) < spec.steps)
        o.verdicts.append("ended" if o.decided else "budget")
        o.anchors = {"rules": dict(rules), "stuck": trace.stuck}
        return o

    def probe(self) -> list:
        return []

    def anchors(self, records: list) -> dict:
        """Steps per rule and stuck runs over the whole run."""
        rules = Counter()
        for r in records:
            rules.update(r.outcome.anchors.get("rules", {}))
        return {"rules": dict(sorted(rules.items())), "runs": len(records),
                "stuck": sum(r.outcome.anchors.get("stuck", False) for r in records)}


def _forced(doc: dict, frm: str, to: str, step: int) -> bool:
    """Whether the scenario forces messages from frm to to off the wire at a
    given step: either end crashed, their link failed, or a partition
    separates them.  Read from the scenario document, not the simulator."""
    if any(c["role"] in (frm, to) and step >= int(c.get("at", 0))
           for c in doc.get("crash", [])):
        return True
    if any({l["a"], l["b"]} == {frm, to} and step >= int(l.get("at", 0))
           for l in doc.get("links", [])):
        return True
    return any(step >= int(p.get("at", 0))
               and ((frm in p["a"] and to in p["b"]) or (frm in p["b"] and to in p["a"]))
               for p in doc.get("partition", []))


WORKLOADS = {"verify-mesh": MeshWorkload, "verify-leader": LeaderWorkload,
             "simulate-faults": SimWorkload}
