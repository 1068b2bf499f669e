"""Surface syntax: tokens, round-trips, spans, and rejection of ill-formed
files."""
import importlib.util
import itertools
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from magpi import (MagpiError, parse, parse_process_text, parse_session_text,
                   pretty, protocol_equal)
from magpi.diagnostics import Diagnostic, Span
from magpi.parser import KEYWORDS, tokenize
from magpi.pretty import ast_equal
from magpi.types import session_equal, type_iso
from tests.conftest import FIXTURES, fixture_text
from tests.test_golden import ROOT

GOLDEN = ROOT / "tests" / "golden"
BENCH = ROOT / "bench"

ROLES = ("p", "q", "r")
LABELS = ("a", "b", "msg")


# -- fixture round-trips ------------------------------------------------------


@pytest.mark.parametrize("name", ["ping", "dns", "leader"])
def test_fixture_round_trip(name):
    # [DERIVED] parse . pretty . parse is identity up to structure.
    pf1 = parse(fixture_text(name))
    pf2 = parse(pretty(pf1))
    assert protocol_equal(pf1, pf2)


# -- generated round-trips ----------------------------------------------------


def _sessions():
    payload = st.sampled_from(["", "int", "bool", "string", "unit"])
    base = st.just("end")

    def extend(children):
        arm = st.tuples(st.sampled_from(ROLES), st.sampled_from(LABELS),
                        payload, children)
        by_channel = {"unique_by": lambda a: (a[0], a[1])}
        sel_arms = st.lists(arm, min_size=1, max_size=3, **by_channel).map(
            lambda arms: [f"{a[0]}!{a[1]}({a[2]}).{a[3]}" for a in arms])
        bra_arms = st.lists(arm, min_size=1, max_size=3, **by_channel).map(
            lambda arms: [f"{a[0]}?{a[1]}({a[2]}).{a[3]}" for a in arms])
        return st.one_of(
            sel_arms.map(lambda arms: arms[0] if len(arms) == 1
                         else "+{" + ", ".join(arms) + "}"),
            st.tuples(bra_arms, st.one_of(st.none(), children)).map(
                lambda t: "&{" + ", ".join(
                    t[0] + ([f"timeout.{t[1]}"] if t[1] is not None else []))
                + "}"))

    return st.recursive(base, extend, max_leaves=8)


@settings(max_examples=150, deadline=None)
@given(_sessions())
def test_session_round_trip(text):
    # [DERIVED] rendering a parsed session and reparsing yields a type
    # equal up to unfolding (and identical in shape after one rendering).
    t1 = parse_session_text(text, roles=set(ROLES))
    rendered = pretty(t1)
    t2 = parse_session_text(rendered, roles=set(ROLES))
    assert session_equal(t1, t2)
    assert type_iso(t1, t2)
    assert pretty(t2) == rendered  # rendering is a normal form


def test_recursive_session_round_trip_examples():
    texts = [
        "rec t. q!a().t",
        "rec t. &{ q?a(). t, q?b(int). end, timeout. rec u. r!b().u }",
        "rec t. q!a(). rec u. &{ q?b().u, timeout. t }",
    ]
    for text in texts:
        t1 = parse_session_text(text, roles=set(ROLES))
        rendered = pretty(t1)
        t2 = parse_session_text(rendered, roles=set(ROLES))
        assert session_equal(t1, t2), text
        assert pretty(t2) == rendered, text


def test_process_round_trip_examples():
    texts = [
        "0",
        "s[p]!q:a(5). 0",
        "s[p]!q:a(). (s[p]!q:b(true).0 + s[p]!r:a(\"hi\").0)",
        "s[p]&{ q?a(x:int). 0, q?b(). 0, timeout. 0 }",
        "x&{ q?a(y:string). w!r:b(y). 0 }",
        "s:[ (p,q)!a(3), (q,r)!b() ]",
        "new s:{ p: q!a().end, q: p?a().end } in "
        "( s[p]!q:a().0 | s[q]&{ p?a().0 } | s:[] )",
        "def X(c: q!a().end) = c!q:a().0 in new s:{ p: q!a().end, "
        "q: p?a().end } in ( X(s[p]) | s[q]&{ p?a().0 } | s:[] )",
    ]
    for text in texts:
        p1 = parse_process_text(text, roles=set(ROLES))
        p2 = parse_process_text(pretty(p1), roles=set(ROLES))
        assert ast_equal(p1, p2), text


# -- rejections ---------------------------------------------------------------


def _expect_code(source: str, code: str):
    with pytest.raises(MagpiError) as err:
        parse(source)
    assert any(d.code == code for d in err.value.diagnostics), \
        [d.code for d in err.value.diagnostics]


HEADER = "protocol t\nroles p, q\n"


def test_reject_unguarded_recursion():
    _expect_code(HEADER + "type T @ p = rec t. t\nsystem = 0\n",
                 "UnguardedRecursion")


def test_reject_self_reliance():
    _expect_code("protocol t\nroles p, q\nreliability { p: {p} }\nsystem = 0\n",
                 "SelfReliance")


def test_reject_unbound_recursion_variable():
    _expect_code(HEADER + "type T @ p = q!a().t\nsystem = 0\n",
                 "UnboundRecVar")


def test_reject_duplicate_roles():
    _expect_code("protocol t\nroles p, p\nsystem = 0\n", "DuplicateRole")


def test_reject_missing_system():
    _expect_code("protocol t\nroles p, q\n", "MissingSystem")


def test_reject_missing_buffer():
    _expect_code(HEADER + "system = new s:{ p: end, q: end } in ( 0 | 0 )\n",
                 "MissingBuffer")


def test_reject_duplicate_buffer():
    _expect_code(HEADER + "system = new s:{ p: end, q: end } in ( s:[] | s:[] )\n",
                 "DuplicateBuffer")


def test_reject_unknown_role_in_type():
    _expect_code(HEADER + "type T @ p = z!a().end\nsystem = 0\n", "UnknownRole")


def test_reject_unknown_call():
    _expect_code(HEADER + "system = X()\n", "UnknownDef")


def test_reject_call_arity():
    _expect_code(HEADER + "def X(x: int) = 0\nsystem = X()\n", "ArityMismatch")


def test_reject_duplicate_receive_arm():
    _expect_code(
        HEADER + "system = new s:{ p: end, q: end } in "
        "( s[p]&{ q?a().0, q?a().0 } | s:[] )\n",
        "DuplicateArm")


def test_syntax_error_has_position():
    with pytest.raises(MagpiError) as err:
        parse("protocol t\nroles p q\nsystem = 0\n")
    d = err.value.diagnostics[0]
    assert d.span.line == 2 and d.code == "SyntaxError"


# -- the tokenizer against a reference ----------------------------------------
#
# `_reference_tokenize` is a copy of the tokenizer as it was when tokens
# were frozen dataclasses, matched one position at a time: the current one
# must give the same (kind, text, line, col) tokens, and refuse the same
# input at the same span.

_REFERENCE_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<lcomment>//[^\n]*)
  | (?P<bcomment>/\*.*?\*/)
  | (?P<real>\d+\.\d+)
  | (?P<int>\d+)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
  | (?P<punct>[{}()\[\]:,.!?&+|=@-])
""", re.VERBOSE | re.DOTALL)


def _reference_tokenize(source):
    toks = []
    pos, line, col = 0, 1, 1
    while pos < len(source):
        m = _REFERENCE_RE.match(source, pos)
        if m is None:
            raise MagpiError([Diagnostic("error", "LexError",
                                         f"unexpected character {source[pos]!r}",
                                         Span(line, col, line, col + 1))])
        text, kind = m.group(0), m.lastgroup
        if kind == "ident":
            toks.append(("KW" if text in KEYWORDS else "IDENT", text, line, col))
        elif kind in ("int", "real", "string"):
            toks.append((kind.upper(), text, line, col))
        elif kind == "punct":
            toks.append((text, text, line, col))
        nl = text.count("\n")
        if nl:
            line += nl
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    toks.append(("EOF", "", line, col))
    return toks


def _tokens(source):
    return [(t.kind, t.text, t.line, t.col) for t in tokenize(source)]


def _lexed(tokenizer, source):
    """The tokens as (kind, text, line, col) tuples, or the LexError."""
    try:
        return tokenizer(source)
    except MagpiError as err:
        return [d.to_json() for d in err.diagnostics]


# Inputs at the edges of the token rules, each with what the tokenizer must
# give: the EOF token's (line, col), or the LexError's (line, col).
_EDGE_CASES = {
    "unterminated string": ('x "ab\n  c', ("LexError", 1, 3)),
    "unterminated string at the end": ('x\n"', ("LexError", 2, 1)),
    "unterminated block comment": ("x\n /* a\n b", ("LexError", 2, 2)),
    "block comment closed at once": ("/*/ x */ y", ("EOF", 1, 11)),
    "string spanning lines": ('a "one\ntwo\n  three" b', ("EOF", 3, 11)),
    "escaped newline in a string": ('"a\\\nb" c', ("EOF", 2, 5)),
    "CRLF line ends": ("protocol p\r\nroles p, q\r\n", ("EOF", 3, 1)),
    "tabs": ("\tx\t\ty\n\t", ("EOF", 2, 2)),
    "non-ASCII letter": ("x\n  y\u00e9z", ("LexError", 2, 4)),
    "non-ASCII letter first": ("\u00e9", ("LexError", 1, 1)),
    "non-ASCII digit": ("x \u0663", ("EOF", 1, 4)),
    "ends in whitespace": ("x y \n\t ", ("EOF", 2, 3)),
    "ends in a line comment": ("x // done", ("EOF", 1, 10)),
    "ends in a line comment and newline": ("x // done\n", ("EOF", 2, 1)),
    "ends in a block comment": ("x /* a\n done */", ("EOF", 2, 9)),
    "only skipped text": (" /* a */ // b", ("EOF", 1, 14)),
    "empty": ("", ("EOF", 1, 1)),
}


def _inputs():
    for name, (source, _) in _EDGE_CASES.items():
        yield name, source
    for path in sorted(FIXTURES.glob("*.magpi")) + sorted(GOLDEN.glob("mesh*.magpi")):
        yield path.name, path.read_text(encoding="utf-8")
    spec = importlib.util.spec_from_file_location("bench_gen", BENCH / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    for seed, (m, loop) in itertools.product(range(3), ((1, False), (2, True))):
        yield f"mesh {seed} {m} {loop}", gen.mesh_source(random.Random(seed), 2, m, loop)


def test_tokenize_matches_reference_on_every_input():
    names = []
    for name, source in _inputs():
        names.append(name)
        assert _lexed(_tokens, source) == _lexed(_reference_tokenize, source), name
    assert {"leader.magpi", "mesh.magpi", "mesh_loop.magpi"} <= set(names)


@pytest.mark.parametrize("name", list(_EDGE_CASES))
def test_tokenize_edge_case(name):
    source, (kind, line, col) = _EDGE_CASES[name]
    try:
        toks = tokenize(source)
    except MagpiError as err:
        span = err.diagnostics[0].span
        got = (err.diagnostics[0].code, span.line, span.col)
        assert (span.end_line, span.end_col) == (span.line, span.col + 1)
    else:
        got = (toks[-1].kind, toks[-1].line, toks[-1].col)
    assert got == (kind, line, col)


_LEX_PIECES = st.sampled_from([
    "//", "/*", "*/", "\n", "\r\n", '"', "\\", "\\\"", " ", "\t", "#", "$",
    "~", "é", "`", "1", "25", "2.5", "3.", "x", "_y'", "rec", "end", "{", "}",
    ".", "!", "?", ":", "-", "'", "*", "/",
])


@settings(max_examples=400, deadline=None)
@given(st.lists(st.one_of(_LEX_PIECES, st.text(max_size=3)), max_size=25))
def test_tokenize_matches_reference_on_mixed_text(pieces):
    source = "".join(pieces)
    assert _lexed(_tokens, source) == _lexed(_reference_tokenize, source)


def test_stray_character_is_a_lex_error_with_its_span():
    with pytest.raises(MagpiError) as err:
        tokenize('x /* a\nb */ "s\ntr"\n  y # z')
    d = err.value.diagnostics[0]
    assert (d.code, d.message) == ("LexError", "unexpected character '#'")
    assert (d.span.line, d.span.col, d.span.end_line, d.span.end_col) == (4, 5, 4, 6)
