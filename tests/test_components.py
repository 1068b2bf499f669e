"""Linked components: `verify` explores each group of roles that address
each other on its own and composes the verdicts (`verify.Graphs.parts`,
`verify._compose`).  Every composed verdict, `minimalK` and `stats` must be
the product exploration's, and every composed witness must replay through
`context_transitions` to a context that shows the violation."""
import io
import json
import random
import time

from hypothesis import HealthCheck, given, settings, strategies as st

from magpi import parse, parse_session_text
from magpi.cli import initial_context, main
from magpi.context import TypeContext, canonical_context, context_key
from magpi.lts import Exceeded, ExploreLimits, context_transitions
from magpi.types import (BufEntry, CongruenceMode, Reliability, SessionBufferType,
                         UNIT)
from magpi import verify as V
from tests.conftest import bench_gen, fixture_text
from tests.test_golden import ROOT

MAX_STATES = 4000


# -- random contexts of 2-3 components ---------------------------------------------


@st.composite
def _session(draw, peers: tuple, depth: int) -> str:
    """A session type over `peers`: sends, selections and branchings (with
    or without a timeout), unit or int payloads, at most `depth` deep."""
    kind = draw(st.sampled_from(("end", "send", "select", "branch") if depth else ("end",)))
    if kind == "end":
        return "end"
    arms = draw(st.lists(st.tuples(st.sampled_from(peers), st.sampled_from("ab")),
                         min_size=1, max_size=1 if kind == "send" else 2, unique=True))
    conts = [draw(_session(peers, depth - 1)) for _ in arms]
    payload = [draw(st.sampled_from(("", "int"))) for _ in arms]
    if kind == "branch":
        text = [f"{p}?{lbl}({t}). {c}" for (p, lbl), t, c in zip(arms, payload, conts)]
        if draw(st.booleans()):
            text.append(f"timeout. {draw(_session(peers, depth - 1))}")
        return "&{ " + ", ".join(text) + " }"
    text = [f"{p}!{lbl}({t}). {c}" for (p, lbl), t, c in zip(arms, payload, conts)]
    return text[0] if kind == "send" else "+{ " + ", ".join(text) + " }"


@st.composite
def _component(draw, i: int, depth: int) -> dict:
    """The endpoints of two roles x{i} and y{i} that address only each
    other: random types, the first role sometimes a receiving loop that
    never stops while its timeout may fire, and sometimes a unit message
    already buffered for the other."""
    x, y = f"x{i}", f"y{i}"
    out = {}
    for me, peer in ((x, y), (y, x)):
        if me == x and draw(st.integers(0, 3)) == 0:
            pong = draw(st.sampled_from(("", f"{peer}!b(). ")))
            text = f"rec X. &{{ {peer}?a(). {pong}X, timeout. X }}"
        else:
            text = draw(_session((peer,), depth))
        buf = (BufEntry(peer, draw(st.sampled_from("ab")), UNIT),) \
            if draw(st.integers(0, 4)) == 0 else ()
        out[("s", me)] = SessionBufferType(buf, parse_session_text(text, roles=(x, y)))
    return out


@st.composite
def _case(draw):
    n = draw(st.integers(2, 3))
    eps = {}
    for i in range(n):
        eps.update(draw(_component(i, 3 if n == 2 else 2)))
    roles = sorted({role for _, role in eps})
    r = Reliability.of({role: set(draw(st.lists(st.sampled_from(roles), max_size=2)))
                        - {role} for role in roles})
    return TypeContext.of({}, eps), r


# -- the checks, on the composed graphs and on the product --------------------------


def _verdicts(graphs: V.Graphs, r: Reliability) -> dict:
    """Every property of one run, in `verify`'s order, and the stats."""
    g0, sigma, limits = graphs.g0, graphs.sigma, graphs.limits
    out = {
        "safety": V.check_safety(g0, sigma, r, limits, graphs),
        "deadlock": V.check_deadlock_free(g0, sigma, r, limits, graphs),
        "terminating": V.check_terminating(g0, sigma, r, limits, graphs),
        "live": V.check_live(g0, sigma, r, limits, graphs),
        "never": V.check_never_terminating(g0, sigma, r, limits, graphs),
        "comm-rf": V.check_comm_safe_RF(g0, sigma, limits, graphs),
        "tcp": V.check_tcp_safety(g0, sigma, limits, graphs),
        "bounded": V.check_bounded(g0, sigma, r, 3, limits, graphs),
    }
    out.update({f"bound_{k}": V.check_bound_k(g0, sigma, r, k, limits, graphs)
                for k in (1, 2)})
    out["stats"] = V.product_stats(graphs.get(r))
    return out


def _product(g0, sigma, limits) -> V.Graphs:
    """The run's graphs with g0 taken as one component: the product."""
    graphs = V.Graphs(g0, sigma, limits)
    graphs.parts = (g0,)
    return graphs


# Per-state properties and live pick the product's own first failing state;
# at a stuck state the composed witness joins one path per component.
EXACT = {"safety", "tcp", "live", "bounded", "bound_1", "bound_2"}


def _replay(g0, sigma, r, mode, witness) -> list:
    """The canonical contexts along the witness, each step taken by
    `context_transitions`."""
    limits = ExploreLimits(mode=mode)
    path = [canonical_context(g0, mode)]
    for act in witness:
        nxt = [n for a, n in context_transitions(path[-1], sigma, r, limits) if a == act]
        assert nxt, f"{act} is not enabled"
        path.append(canonical_context(nxt[0], mode))
    return path


def _check_witness(prop, v, g0, sigma, r, mode):
    if prop in ("comm-rf", "tcp"):
        r = Reliability.fully_reliable({role for (_, role), _ in g0.endpoints})
    if prop == "tcp":  # FIFO safety, whatever the run's mode
        mode = CongruenceMode.TCP_FIFO
    path = _replay(g0, sigma, r, mode, v.witness)
    end = path[-1]
    stuck = not context_transitions(end, sigma, r, ExploreLimits(mode=mode))
    if prop == "safety":
        assert V._state_safety_failure(end, r, mode, None) == v.reason
    elif prop == "tcp":
        assert (V._state_safety_failure(end, r, mode, None)
                or V._fifo_head_failure(end, None)) == v.reason
    elif prop == "never":
        assert stuck
    elif prop in ("deadlock", "comm-rf") or v.reason.startswith("Deadlock"):
        rule = V._deadlock_failure if prop != "comm-rf" else None
        assert stuck
        if rule is not None:
            assert rule(end, None) == v.reason
        else:
            assert v.reason.startswith("CommRF: orphan message in ")
            key = tuple(v.reason.rsplit(" ", 1)[1].rstrip("]").split("["))
            assert end.endpoint(key).buffer
    elif prop == "terminating":
        keys = [context_key(g, mode) for g in path]
        assert v.reason == "Cycle" and keys[-1] in keys[:-1]


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_case(), st.sampled_from(list(CongruenceMode)), st.booleans())
def test_composed_verdicts_are_the_products(case, mode, reliable):
    g0, r = case
    if reliable:
        r = Reliability.fully_reliable({role for (_, role), _ in g0.endpoints})
    sigma, limits = {"s"}, ExploreLimits(MAX_STATES, mode)
    graphs = V.Graphs(g0, sigma, limits)
    assert len(graphs.parts) >= 2
    product = _product(g0, sigma, limits)
    want = _verdicts(product, r)
    if any(isinstance(g, Exceeded) for g in product.get(r)):
        return
    got = _verdicts(graphs, r)
    assert got["stats"] == want["stats"]
    for prop, v in got.items():
        if prop == "stats":
            continue
        w = want[prop]
        assert (v.status, v.limit, v.minimal_k) == (w.status, w.limit, w.minimal_k), prop
        if prop in EXACT:
            assert v == w, prop
        else:
            assert v.reason.split(":")[0] == w.reason.split(":")[0], prop
        if v.status == V.VIOLATED:
            _check_witness(prop, v, g0, sigma, r, mode)


# -- which inputs split ----------------------------------------------------------


def _parts(text: str) -> int:
    g0, session = initial_context(parse(text))
    return len(V.Graphs(g0, {session}, ExploreLimits()).parts)


def test_fixtures_are_one_component_and_meshes_one_per_group():
    for name in ("ping", "dns", "leader"):
        assert _parts(fixture_text(name)) == 1, name
    golden = ROOT / "tests" / "golden"
    assert _parts((golden / "explored_safety.magpi").read_text(encoding="utf-8")) == 1
    for name in ("mesh.magpi", "mesh_loop.magpi"):
        assert _parts((golden / name).read_text(encoding="utf-8")) == 2, name
    gen = bench_gen()
    for k in range(1, 5):
        assert _parts(gen.mesh_source(random.Random(k), k, 1)) == k


def test_a_buffered_message_links_its_sender_to_its_recipient():
    s = parse_session_text
    g0 = TypeContext.of({}, {("s", "p"): SessionBufferType((BufEntry("q", "m", UNIT),), None),
                             ("s", "q"): SessionBufferType((), s("end", roles=("p", "q"))),
                             ("s", "r"): SessionBufferType((), s("end", roles=("p", "q")))})
    assert V._StaticFacts(g0).parts == [[0, 1], [2]]


def test_a_session_typed_payload_keeps_the_input_whole():
    # Whether a delegated session in a stuck buffer is collectable depends
    # on every endpoint of the stuck state, in whatever component.
    def parts(types: dict) -> list:
        return V._StaticFacts(TypeContext.of({}, {
            ("s", role): SessionBufferType((), parse_session_text(t, roles=tuple(types)))
            for role, t in types.items()})).parts

    whole = {"p": "q!d(&{ r?a().end }).end", "q": "end", "r": "t!a().end",
             "t": "&{ r?a().end }"}
    assert parts(whole) == [[0, 1, 2, 3]]
    assert parts({**whole, "p": "q!d().end"}) == [[0, 1], [2, 3]]


# -- wide meshes ---------------------------------------------------------------------


def test_a_four_group_mesh_is_decided_at_default_limits(tmp_path):
    # A product of four 21-state groups has 194 481 states, past the
    # default limit; its four groups are explored alone.
    gen = bench_gen()
    path = tmp_path / "mesh.magpi"
    path.write_text(gen.mesh_source(random.Random(4), 4, 1), encoding="utf-8")
    out = io.StringIO()
    start = time.perf_counter()
    code = main(["verify", str(path), "--props", ",".join(gen.MESH_PROPS), "--json"], out)
    assert time.perf_counter() - start < 5
    doc = json.loads(out.getvalue())
    expected = gen.expected_mesh(1, False)
    assert code == 0
    assert {p: v["verdict"] for p, v in doc["properties"].items()} == expected["verdicts"]
    assert doc["properties"]["bounded"]["minimalK"] == expected["minimalK"]
    assert doc["stats"] == {"states": 21 ** 4, "edges": 4 * 30 * 21 ** 3}


def test_golden_mesh_witnesses_replay():
    # The witnesses that differ from a product exploration's by design: the
    # golden mesh's `never`, which joins one path per group, and
    # mesh_loop's `terminating`, the looping group's own lasso.
    for name, prop in (("mesh.magpi", "never"), ("mesh_loop.magpi", "terminating")):
        pf = parse((ROOT / "tests" / "golden" / name).read_text(encoding="utf-8"))
        g0, session = initial_context(pf)
        for mode in CongruenceMode:
            limits = ExploreLimits(mode=mode)
            graphs = V.Graphs(g0, {session}, limits)
            check = (V.check_never_terminating if prop == "never" else V.check_terminating)
            v = check(g0, {session}, pf.reliability, limits, graphs)
            assert v.status == V.VIOLATED and v.witness, (name, mode)
            _check_witness(prop, v, g0, {session}, pf.reliability, mode)
