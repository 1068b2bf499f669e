"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Each test exercises the toolchain the way a user would (CLI exit codes and
JSON output, plus the library API where replay or bulk generation is
needed) and prints a single summary line.
"""
import io
import json
import os
import random
import tempfile
import time

import magpi.verify as V
from magpi import parse, parse_session_text
from magpi import proc as P
from magpi.cli import initial_context, main
from magpi.context import TypeContext
from magpi.lts import ExploreLimits, context_transitions
from magpi.sim import (Config, FailureScenario, RELIABLE, Trace,
                       enabled_steps, monitor_corollaries, run)
from magpi.typecheck import typecheck
from magpi.types import (CongruenceMode, END, Reliability,
                         SessionBufferType, UNIT)
from tests.conftest import FIXTURES, fixture_text
from tests.oracles import (exhaustive_small_step_oracle, is_inactive,
                            mirror_on_context)
from tests.test_verify import _random_context

CALM = FailureScenario()


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURES, f"{name}.magpi")


def cli(*argv) -> tuple:
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def cli_json(*argv) -> tuple:
    code, text = cli(*argv, "--json")
    return code, json.loads(text)


def check_mutant(text: str) -> tuple:
    with tempfile.NamedTemporaryFile("w", suffix=".magpi",
                                     delete=False) as fh:
        fh.write(text)
        path = fh.name
    try:
        return cli("check", path)
    finally:
        os.unlink(path)


def report(n: int, name: str, ok: bool):
    print(f"criterion {n} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {n} ({name}) failed"


# -- 1: typechecking the ping fixture and its mutants ---------------------------


def test_criterion_1_ping_check_and_mutants():
    t0 = time.monotonic()
    code, _ = cli("check", fixture_path("ping"))
    elapsed = time.monotonic() - t0
    ok = code == 0 and elapsed < 1.0

    src = fixture_text("ping")
    # Mutating any payload must be rejected as a payload mismatch.
    payload_mutants = [
        src.replace("s[p]!q:ping().\n    s[p]&",
                    "s[p]!q:ping(true).\n    s[p]&", 1),
        src.replace("s[q]!p:pong().0,\n           timeout",
                    "s[q]!p:pong(1).0,\n           timeout", 1),
        src.replace("timeout. s[p]!r:ko().0", "timeout. s[p]!r:ko(false).0"),
    ]
    for m in payload_mutants:
        assert m != src
        mcode, mout = check_mutant(m)
        ok = ok and mcode == 1 and "PayloadMismatch" in mout

    # Deleting the timeout arm of a wait on an unreliable peer must be
    # rejected because the annotation no longer satisfies the safety
    # property (first condition).
    m = src.replace("&{ p?ping(). p!pong().end,\n               timeout. end }",
                    "&{ p?ping(). p!pong().end }")
    m = m.replace("s[q]&{ p?ping(). s[q]!p:pong().0,\n"
                  "                             timeout. 0 }",
                  "s[q]&{ p?ping(). s[q]!p:pong().0 }")
    assert m != src
    mcode, mout = check_mutant(m)
    ok = ok and mcode == 1 and "SafetyUndetermined-SP1" in mout
    report(1, "ping typecheck and mutants", ok)


# -- 2: ping property verification and bound witness ---------------------------


def test_criterion_2_ping_verify_and_bound_witness():
    t0 = time.monotonic()
    code, doc = cli_json("verify", fixture_path("ping"),
                         "--props", "safety,comm-rf,terminating,live",
                         "--bound", "4")
    ok = code == 0
    ok = ok and all(doc["properties"][p]["verdict"] == "holds"
                    for p in ("safety", "comm-rf", "terminating", "live",
                              "bound_4"))
    ok = ok and doc["stats"]["states"] < 10000

    code1, doc1 = cli_json("verify", fixture_path("ping"),
                           "--props", "safety,comm-rf,terminating,live",
                           "--bound", "1")
    b1 = doc1["properties"]["bound_1"]
    ok = ok and code1 == 1 and b1["verdict"] == "violated"
    ok = ok and b1["reason"] == "bound_1" and b1["witness"]

    # Replay the witness path against the transition relation.
    pf = parse(fixture_text("ping"))
    g0, sess = initial_context(pf)
    v = V.check_bound_k(g0, {sess}, pf.reliability, 1, ExploreLimits())
    assert v.status == V.VIOLATED
    g = g0
    lim = ExploreLimits()
    for act in v.witness:
        nxt = [g2 for a, g2 in context_transitions(g, {sess}, pf.reliability,
                                                   lim)
               if a.render() == act.render()]
        ok = ok and bool(nxt)
        g = nxt[0]
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 5.0
    report(2, "ping verify with bound witness", ok)


# -- 3: full verification of the resolver fixture -------------------------------


def test_criterion_3_dns_all_properties_hold():
    t0 = time.monotonic()
    code, doc = cli_json("verify", fixture_path("dns"))
    elapsed = time.monotonic() - t0
    props = doc["properties"]
    ok = (code == 0
          and set(props) == {"safety", "comm-rf", "deadlock", "terminating",
                             "live"}
          and all(v["verdict"] == "holds" for v in props.values())
          and doc["stats"]["states"] < 100000
          and elapsed < 30.0)
    report(3, "resolver verify all five properties", ok)


# -- 4: FIFO safety contained in reordering safety -------------------------------


def test_criterion_4_fifo_safety_containment():
    rf2 = Reliability.fully_reliable({"p", "q"})
    lim = ExploreLimits()
    fifo = ExploreLimits(mode=CongruenceMode.TCP_FIFO)
    counterexamples = 0

    # Every fixture first.
    for name in ("ping", "dns", "leader"):
        pf = parse(fixture_text(name))
        g0, sess = initial_context(pf)
        rf = Reliability.fully_reliable(set(pf.roles))
        if V.check_tcp_safety(g0, {sess}, lim).holds:
            if not V.check_safety(g0, {sess}, rf, fifo).holds:
                counterexamples += 1

    # Then 500 generated contexts on which the FIFO property holds.
    rng = random.Random(20260826)
    checked = 0
    produced = 0
    while checked < 500 and produced < 20000:
        produced += 1
        g = _random_context(rng)
        if not V.check_tcp_safety(g, {"s"}, lim).holds:
            continue
        checked += 1
        if not V.check_safety(g, {"s"}, rf2, fifo).holds:
            counterexamples += 1
    report(4, "FIFO safety containment",
           checked == 500 and counterexamples == 0)


# -- 5: trace prefixes stay typable ----------------------------------------------


def _prefixes_retypecheck(pf, scen, seed, steps) -> bool:
    g0, sess = initial_context(pf)
    theta = {d.name: [t for _, t in d.params] for d in pf.proc_defs}
    tr = run(Config(pf.system_with_defs(), 0), pf.reliability, RELIABLE,
             scen, seed, steps)
    g = g0
    for i, ev in enumerate(tr.events):
        g = mirror_on_context(g, ev)
        proc = tr.configs[i + 1].process
        while isinstance(proc, P.Def):
            proc = proc.cont
        rep = typecheck(theta, g, {sess}, proc.body, pf.reliability)
        if rep.verdict != "accepted":
            return False
    return True


def test_criterion_5_subject_reduction_over_traces():
    plans = [
        ("ping", {"drop": {"p->q": 0.3, "q->p": 0.3}}, 200, 450),
        ("dns", {"drop": {"c->dns": 0.3, "dns->c": 0.3, "w1->dns": 0.2,
                          "w2->dns": 0.2}}, 200, 450),
        ("leader", {"drop": {"p->q": 0.2, "q->r": 0.2, "r->p": 0.2}}, 30,
         100),
    ]
    failures = 0
    total = 0
    for name, doc, steps, n in plans:
        pf = parse(fixture_text(name))
        scen = FailureScenario.from_json(doc)
        for seed in range(n):
            total += 1
            if not _prefixes_retypecheck(pf, scen, seed, steps):
                failures += 1
    report(5, "trace prefixes re-typecheck",
           total == 1000 and failures == 0)


# -- 6: runtime monitors ---------------------------------------------------------


def _random_scenario(rng, roles):
    doc = {"drop": {f"{a}->{b}": rng.choice([0.0, 0.1, 0.3, 0.6, 0.9])
                    for a in roles for b in roles if a != b}}
    if rng.random() < 0.3:
        doc["crash"] = [{"role": rng.choice(roles),
                         "at": rng.randrange(0, 10)}]
    if rng.random() < 0.2:
        a, b = rng.sample(roles, 2)
        doc["links"] = [{"a": a, "b": b, "at": rng.randrange(0, 10)}]
    return FailureScenario.from_json(doc)


def test_criterion_6_monitors_over_randomized_failures():
    pfs = {n: parse(fixture_text(n)) for n in ("ping", "dns", "leader")}
    rng = random.Random(6)
    violations = 0
    for i in range(10000):
        name = "leader" if i % 20 == 0 else ("ping" if i % 2 else "dns")
        pf = pfs[name]
        steps = 40 if name == "leader" else 120
        scen = _random_scenario(rng, list(pf.roles))
        tr = run(Config(pf.system_with_defs(), 0), pf.reliability, RELIABLE,
                 scen, i, steps)
        violations += len(monitor_corollaries(tr, pf.reliability))
    ok = violations == 0

    # Two hand-built ill-typed witnesses, one per monitor kind.
    def one_config(proc):
        c = Config(proc, 0)
        return Trace((), (c,), c, False)

    wait_no_timeout = P.Restriction("s", (("p", END), ("q", END)), P.Par(
        P.Branch(P.Endpoint("s", "q"),
                 (P.RecvArm("p", "a", "_", UNIT, P.Inaction()),), None),
        P.Buffer("s", ())))
    r1 = Reliability.of({"p": set(), "q": set()})
    v1 = monitor_corollaries(one_config(wait_no_timeout), r1)
    ok = ok and len(v1) == 1 and v1[0].kind == "Cor1"

    reliable_timeout = P.Restriction("s", (("p", END), ("q", END)), P.Par(
        P.Branch(P.Endpoint("s", "q"),
                 (P.RecvArm("p", "a", "_", UNIT, P.Inaction()),),
                 P.Inaction()),
        P.Buffer("s", ())))
    r2 = Reliability.of({"p": set(), "q": {"p"}})
    v2 = monitor_corollaries(one_config(reliable_timeout), r2)
    ok = ok and len(v2) == 1 and v2[0].kind == "Cor2"
    report(6, "monitors on randomized failures", ok)


# -- 7: exhaustive execution agrees with the termination verdict ------------------


def test_criterion_7_exhaustive_oracle_matches_termination():
    pf = parse(fixture_text("ping"))
    c0 = Config(pf.system_with_defs(), 0)
    oracle = exhaustive_small_step_oracle(c0, pf.reliability, RELIABLE,
                                          CALM, depth=30)
    ok = bool(oracle)

    # Independent expansion: every quiescent process must be inactive and
    # must appear in the oracle's terminal set.
    seen, frontier = set(), [c0.process]
    while frontier:
        proc = frontier.pop()
        key = P.render_process(P.canonical_process(proc, CALM.reorder))
        if key in seen:
            continue
        seen.add(key)
        c = Config(proc, 0)
        steps = [s for s in enabled_steps(c, pf.reliability, RELIABLE, CALM)
                 if s.weight > 0]
        if not steps:
            ok = ok and c.inactive and is_inactive(proc) and key in oracle
        frontier.extend(s.process for s in steps)

    g0, sess = initial_context(pf)
    term = V.check_terminating(g0, {sess}, pf.reliability, ExploreLimits())
    report(7, "exhaustive oracle vs termination verdict", ok and term.holds)


# -- 8: deadlock negative control --------------------------------------------------


def test_criterion_8_mutual_wait_deadlock():
    roles = ("p", "q")
    g = TypeContext.of({}, {
        ("s", "p"): SessionBufferType(
            (), parse_session_text("q?a().end", roles=roles)),
        ("s", "q"): SessionBufferType(
            (), parse_session_text("p?b().end", roles=roles)),
    })
    r = Reliability.fully_reliable(set(roles))
    v = V.check_deadlock_free(g, {"s"}, r, ExploreLimits())
    report(8, "mutual wait detected as deadlock",
           v.status == V.VIOLATED and v.witness == ())


# -- 9: leader-election fixture ----------------------------------------------------


def test_criterion_9_leader_check_and_safety_snapshot():
    code, _ = cli("check", fixture_path("leader"))
    ok = code == 0
    vcode, doc = cli_json("verify", fixture_path("leader"),
                          "--props", "safety")
    # Deterministic snapshot of the safety verdict for this fixture.
    ok = ok and vcode == 0
    ok = ok and doc["properties"] == {
        "safety": {"verdict": "holds", "reason": "static"}}
    report(9, "leader election check and safety", ok)


# -- 10: determinism of every JSON-producing run -----------------------------------


def test_criterion_10_byte_identical_reruns():
    commands = [
        ("check", fixture_path("ping")),
        ("check", fixture_path("dns")),
        ("check", fixture_path("leader")),
        ("verify", fixture_path("ping"),
         "--props", "safety,comm-rf,terminating,live", "--bound", "4"),
        ("verify", fixture_path("ping"),
         "--props", "safety,comm-rf,terminating,live", "--bound", "1"),
        ("verify", fixture_path("dns")),
        ("verify", fixture_path("leader"), "--props", "safety"),
        ("simulate", fixture_path("ping"), "--seed", "7"),
        ("simulate", fixture_path("dns"), "--seed", "3", "--steps", "400"),
    ]
    ok = True
    for argv in commands:
        c1, t1 = cli(*argv, "--json")
        c2, t2 = cli(*argv, "--json")
        ok = ok and c1 == c2 and t1.encode() == t2.encode()
    report(10, "byte-identical repeated runs", ok)
