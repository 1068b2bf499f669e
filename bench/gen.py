"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its arguments and a `random.Random`,
so one seed always yields the same protocol text.  The expected verdicts are
derived by hand (`expected_mesh`, `LEADER_EXPECTED`, `PROBE_EXPECTED`);
nothing here runs magpi.
"""
from __future__ import annotations

import random
import re
import string

# Words the surface language reserves, plus the names the generated text
# itself uses for sessions, parameters and defs.
RESERVED = frozenset({
    "protocol", "roles", "reliability", "type", "def", "system", "new", "in",
    "rec", "end", "timeout", "unit", "int", "bool", "real", "string", "true",
    "false", "s", "c",
})


def role_names(rng: random.Random, n: int, length: int = 3) -> list:
    """n distinct lowercase names of equal length, in ascending order.

    Equal length and ascending order keep every rendered action and context
    in the same relative order as the single-letter originals, so a renamed
    protocol explores in the same order whatever the seed."""
    names: set = set()
    while len(names) < n:
        name = "".join(rng.choice(string.ascii_lowercase) for _ in range(length))
        if name not in RESERVED:
            names.add(name)
    return sorted(names)


# ---------------------------------------------------------------------------
# k-fold ping mesh


def _ping_p(q: str, r: str, m: int) -> str:
    """Type of the pinger: up to m attempts, then report ok/ko to r."""
    tail = f"{r}!ko().end"
    for _ in range(m):
        tail = f"{q}!ping(). &{{ {q}?pong(). {r}!ok().end, timeout. {tail} }}"
    return tail


def _ping_p_proc(p: str, q: str, r: str, m: int) -> str:
    tail = f"s[{p}]!{r}:ko().0"
    for _ in range(m):
        tail = (f"s[{p}]!{q}:ping(). s[{p}]&{{ {q}?pong(). s[{p}]!{r}:ok().0, "
                f"timeout. {tail} }}")
    return tail


def _ping_q(p: str, m: int) -> str:
    tail = "end"
    for _ in range(m):
        tail = f"&{{ {p}?ping(). {p}!pong().end, timeout. {tail} }}"
    return tail


def _ping_q_proc(p: str, q: str, m: int) -> str:
    tail = "0"
    for _ in range(m):
        tail = f"s[{q}]&{{ {p}?ping(). s[{q}]!{p}:pong().0, timeout. {tail} }}"
    return tail


def _observer(p: str, r: str, order: list) -> tuple:
    arms_t = ", ".join(f"{p}?{lbl}().end" for lbl in order)
    arms_p = ", ".join(f"{p}?{lbl}().0" for lbl in order)
    return f"&{{ {arms_t} }}", f"s[{r}]&{{ {arms_p} }}"


def mesh_source(rng: random.Random, k: int, m: int, loop: bool = False) -> str:
    """k independent copies of the ping triple (p_i, q_i, r_i) in one
    session.  Each p_i pings q_i up to m times and reports ok/ko to r_i;
    p_i and r_i trust each other, nobody trusts q_i.  With `loop`, the first
    pinged role q_0 becomes `rec X. &{ p_0?ping(). p_0!pong(). X,
    timeout. X }`.  The seed picks the role names, the order of the role
    list and of the parallel components, and the order of the observer's
    arms."""
    names = role_names(rng, 3 * k)
    rng.shuffle(names)
    groups = [tuple(names[3 * i:3 * i + 3]) for i in range(k)]
    roles = list(names)
    rng.shuffle(roles)
    rel = ", ".join(f"{p}: {{{r}}}, {r}: {{{p}}}" for p, _, r in groups)
    types, defs, annots, comps = [], [], [], []
    for i, (p, q, r) in enumerate(groups):
        order = ["ok", "ko"]
        rng.shuffle(order)
        obs_t, obs_p = _observer(p, r, order)
        types.append(f"type Sp{i} @ {p} =\n  {_ping_p(q, r, m)}")
        types.append(f"type Sr{i} @ {r} =\n  {obs_t}")
        if loop and i == 0:
            types.append(f"type Sq{i} @ {q} =\n  "
                         f"rec X. &{{ {p}?ping(). {p}!pong(). X, timeout. X }}")
            defs.append(f"def Loop{i}(c: Sq{i}) =\n  "
                        f"c&{{ {p}?ping(). c!{p}:pong(). Loop{i}(c), "
                        f"timeout. Loop{i}(c) }}")
            comps.append(f"Loop{i}(s[{q}])")
        else:
            types.append(f"type Sq{i} @ {q} =\n  {_ping_q(p, m)}")
            comps.append(_ping_q_proc(p, q, m))
        annots += [f"{p}: Sp{i}", f"{q}: Sq{i}", f"{r}: Sr{i}"]
        comps.append(_ping_p_proc(p, q, r, m))
        comps.append(obs_p)
    rng.shuffle(comps)
    body = "\n  | ".join(comps + ["s:[]"])
    return (f"protocol mesh\n\nroles {', '.join(roles)}\n\n"
            f"reliability {{ {rel} }}\n\n"
            + "\n\n".join(types + defs)
            + f"\n\nsystem =\n  new s:{{ {', '.join(annots)} }} in\n  ( {body} )\n")


MESH_PROPS = ("safety", "comm-rf", "deadlock", "terminating", "live", "bounded")


def expected_mesh(m: int, loop: bool) -> dict:
    """Hand-derived verdicts for `verify --props <MESH_PROPS>`.

    - safety: every wait on q_i carries a timeout (q_i is trusted by
      nobody), r_i waits on the trusted p_i without one, and every label has
      one payload type (unit).
    - comm-rf: with every role reliable no timeout fires, so each p_i gets
      its pong on the first attempt and every sent message is received.
    - deadlock, live: p_i's waits all time out eventually, so r_i always
      hears ok or ko; a stuck context has every role at end, and pings or
      pongs left over by a timeout are unit-typed garbage that the end/gc
      split collects.  The looping q_0 never gets stuck (its timeout is
      always enabled).
    - terminating: the groups are finite trees, so every run ends; the
      looping q_0 can time out forever, a cycle.
    - bounded: p_i sends at most m pings, all of which q_i may ignore by
      timing out, so the p_i->q_i channel reaches m and the least strict
      bound is m + 1; the pong and ok/ko channels carry at most m and 1.
    """
    verdicts = {p: "holds" for p in MESH_PROPS}
    if loop:
        verdicts["terminating"] = "violated"
    return {"verdicts": verdicts, "reasons": {"terminating": "Cycle"} if loop else {},
            "minimalK": m + 1}


# ---------------------------------------------------------------------------
# leader election with renamed roles


LEADER_ROLES = ("p", "q", "r")


def leader_source(text: str, rng: random.Random) -> str:
    """fixtures/leader.magpi with its three roles renamed (order-preserving,
    equal-length names, see `role_names`) and comments removed."""
    text = re.sub(r"//[^\n]*", "", text)
    mapping = dict(zip(LEADER_ROLES, role_names(rng, len(LEADER_ROLES))))
    return re.sub(r"\b[pqr]\b", lambda mo: mapping[mo.group(0)], text)


LEADER_DEFAULT = ("safety", "comm-rf", "deadlock", "terminating", "live")

# Hand-derived answers for the leader election.  No role trusts any other,
# every wait carries a timeout and every payload is unit, so safety holds.
# With every role reliable no timeout may fire and all three roles start
# waiting on empty buffers, so the initial context is the only state and
# comm-rf holds.  Every waiting role can always time out, so no reachable
# context is stuck (deadlock holds) and there is no timeout-less wait to
# serve (live holds); the timeout loops make every run infinite
# (terminating is violated, by a cycle).  Exploration under a state cap
# may answer `inconclusive` instead of the three exploration-based
# verdicts, but never the opposite one.
LEADER_EXPECTED = {"safety": "holds", "comm-rf": "holds", "deadlock": "holds",
                   "terminating": "violated", "live": "holds"}


# ---------------------------------------------------------------------------
# Open item 1 probe: two spellings of one context


def probe_types(rename: bool) -> dict:
    """Session types of roles p and q in the renamed-binder reproduction,
    to be checked under the fully reliable map.

    q's two loops both return to a binder spelled Y; with `rename` the
    second is spelled W.  The spellings are alpha-equivalent, so a correct
    checker gives both the same verdicts.  By hand, after c: q takes c and
    b, answers k and waits for x or y; p takes k and sends x; q takes x,
    answers k and loops back to its second binder, which waits for b.  p
    takes k and sends x or y, which q, waiting for b, can never take.  The
    context gets stuck with q short of end, so deadlock is violated, and
    q's timeout-less wait for b is never served, so live is violated."""
    second = "W" if rename else "Y"
    p = ("+{ q!a(). rec X. +{ q!x(). q?k(). X, q!y(). end }, "
         "q!c(). q!b(). q?k(). rec X. +{ q!x(). q?k(). X, q!y(). end } }")
    q = ("&{ p?a(). rec Y. &{ p?x(). p!k(). Y, p?y(). end }, "
         f"p?c(). rec {second}. p?b(). p!k(). &{{ p?x(). p!k(). {second}, p?y(). end }} }}")
    return {"p": p, "q": q}


PROBE_EXPECTED = {"deadlock": "violated", "live": "violated"}


# ---------------------------------------------------------------------------
# fault scenarios for the simulator


def fault_scenario(rng: random.Random, roles: list) -> dict:
    """One drop/crash/link/partition scenario in the `scenario.json` shape,
    with the reorder mode left to the caller."""
    kind = rng.choice(("drop", "crash", "link", "partition"))
    doc: dict = {"drop": {}}
    for _ in range(rng.randint(1, 3)):
        a, b = rng.sample(roles, 2)
        doc["drop"][f"{a}->{b}"] = round(rng.uniform(0.05, 0.6), 2)
    if kind == "crash":
        doc["crash"] = [{"role": rng.choice(roles), "at": rng.randint(0, 12)}]
    elif kind == "link":
        a, b = rng.sample(roles, 2)
        doc["links"] = [{"a": a, "b": b, "at": rng.randint(0, 12)}]
    elif kind == "partition":
        shuffled = list(roles)
        rng.shuffle(shuffled)
        cut = rng.randint(1, len(roles) - 1)
        doc["partition"] = [{"a": shuffled[:cut], "b": shuffled[cut:],
                             "at": rng.randint(0, 12)}]
    doc["delayBias"] = round(rng.uniform(0.0, 0.5), 2)
    return doc
