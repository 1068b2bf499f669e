"""Surface syntax: tokens, round-trips, spans, and rejection of ill-formed
files."""
import importlib.util
import itertools
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from magpi import (MagpiError, parse, parse_process_text, parse_session_text,
                   pretty)
from magpi.diagnostics import Diagnostic, Span
from magpi.parser import KEYWORDS, tokenize
from magpi.types import type_equal
from tests.conftest import FIXTURES, fixture_text
from tests.oracles import ast_equal, protocol_equal, type_iso
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
    assert type_equal(t1, t2)
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
        assert type_equal(t1, t2), text
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


@pytest.mark.parametrize("source", [
    HEADER + "def Y(c: q!n().end, c: int) = 0\nsystem = 0\n",
    HEADER + "system = def Y(c: q!n().end, c: int) = 0 in 0\n",
])
def test_duplicate_def_parameter_is_reported_at_its_second_name(source):
    # Binding both would keep only the last: the linear `c` would vanish.
    with pytest.raises(MagpiError) as err:
        parse(source)
    line = source.count("\n", 0, source.index(", c:")) + 1
    assert [(d.code, d.span.line, d.message) for d in err.value.diagnostics] == [
        ("DuplicateParam", line, "parameter c of Y declared twice")]
    with pytest.raises(MagpiError):
        parse_process_text("def Y(c: int, c: int) = 0 in 0")


def test_reject_duplicate_receive_arm():
    _expect_code(
        HEADER + "system = new s:{ p: end, q: end } in "
        "( s[p]&{ q?a().0, q?a().0 } | s:[] )\n",
        "DuplicateArm")


def test_named_type_fault_is_reported_once_at_its_definition():
    # S is validated where it is defined, not again where the annotation
    # names it, and its fault is placed at its name, not at the next token.
    source = (HEADER
              + "type S @ p = &{ q?b().end, q?b().end }\n"
              + "type T @ q = p!b().end\n"
              + "system = new s:{ p: S, q: T } in ( s[q]!p:b().0 | s:[] )\n")
    with pytest.raises(MagpiError) as err:
        parse(source)
    dups = [d for d in err.value.diagnostics if d.code == "DuplicateArm"]
    assert [(d.span.line, d.span.col, d.message) for d in dups] == [
        (3, 6, "duplicate (role, label) arm q?b")]


def test_duplicate_type_definition_is_reported_at_its_name():
    with pytest.raises(MagpiError) as err:
        parse(HEADER + "type S @ p = end\ntype S @ q = end\ntype T @ p = end\n"
              "system = 0\n")
    assert [(d.code, d.span.line, d.span.col) for d in err.value.diagnostics] == [
        ("DuplicateTypeDef", 4, 6)]


@pytest.mark.parametrize("payload, code", [("rec t. t", "UnguardedRecursion"),
                                           ("+{ }", "EmptyArms")])
def test_session_payload_is_validated_where_it_is_written(payload, code):
    # A session type written as a payload, a received variable's type or a
    # def parameter's type is validated like any other type.
    with pytest.raises(MagpiError) as err:
        parse_session_text(f"q!a({payload}).end", roles=ROLES)
    assert [d.code for d in err.value.diagnostics] == [code]
    cases = [
        (f"type T @ p = q!a({payload}).end\nsystem = 0\n", (3, 6)),
        (f"type T @ q = p?a({payload}).end\nsystem = 0\n", (3, 6)),
        (f"system = new s:{{ p: q!a({payload}).end, q: end }} in s:[]\n", (3, 14)),
        (f"system = new s:{{ p: end, q: end }} in\n"
         f"  ( s[q]&{{ p?a(y: {payload}).0 }} | s:[] )\n", (4, 19)),
        (f"def X(x: {payload}) = 0\nsystem = 0\n", (3, 10)),
    ]
    for source, (line, col) in cases:
        with pytest.raises(MagpiError) as err:
            parse(HEADER + source)
        assert [(d.code, d.span.line, d.span.col) for d in err.value.diagnostics] \
            == [(code, line, col)], source


def test_second_timeout_arm_is_reported_at_its_keyword():
    # A later timeout arm used to replace the earlier one, and with it the
    # q!bye() continuation.
    ty = "&{ q?a(). end, timeout. q!bye(). end, timeout. end }"
    proc = "s[p]&{ q?a().0, timeout. s[p]!q:bye().0, timeout. 0 }"
    for parse_text, text in ((parse_session_text, ty), (parse_process_text, proc)):
        with pytest.raises(MagpiError) as err:
            parse_text(text, roles=ROLES)
        col = text.rindex("timeout") + 1
        assert [(d.code, d.span.line, d.span.col) for d in err.value.diagnostics] \
            == [("DuplicateTimeout", 1, col)], text
    source = (HEADER + f"type S @ p = {ty}\n"
              "system = new s:{ p: S, q: &{ p?bye().end } } in\n"
              f"  ( {proc} | s[q]&{{ p?bye().0 }} | s:[] )\n")
    with pytest.raises(MagpiError) as err:
        parse(source)
    assert [(d.code, d.span.line) for d in err.value.diagnostics] == [
        ("DuplicateTimeout", 3), ("DuplicateTimeout", 5)]


def test_timeout_arm_before_a_receive_arm_is_reported_at_the_receive_arm():
    # The grammar puts the timeout arm last; both used to parse.
    for parse_text, text in ((parse_session_text, "&{ timeout. end, q?a().end }"),
                             (parse_process_text, "s[p]&{ timeout. 0, q?a().0 }")):
        with pytest.raises(MagpiError) as err:
            parse_text(text, roles=ROLES)
        assert [(d.code, d.span.line, d.span.col) for d in err.value.diagnostics] \
            == [("MisplacedTimeout", 1, text.index("q?") + 1)], text


def test_restriction_without_an_annotation_is_reported_at_its_brace():
    # The grammar asks for at least one annotation; `new s:{}` used to parse.
    text = "new s:{} in s:[]"
    for parse_it, line, col in ((lambda: parse_process_text(text, roles=ROLES), 1, 8),
                                (lambda: parse(HEADER + f"system = {text}\n"), 3, 17)):
        with pytest.raises(MagpiError) as err:
            parse_it()
        assert [(d.code, d.span.line, d.span.col) for d in err.value.diagnostics] \
            == [("SyntaxError", line, col)]


# Each bracketed list of the grammar: a file with "%s" where the list's
# entries go, and two entries.
_LISTS = {
    "reliability entries": ("reliability {%s}\nsystem = 0\n", ["p: {q}", "q: {p}"]),
    "reliability set": ("reliability { p: {%s} }\nsystem = 0\n", ["q", "r"]),
    "branching type arms": ("type T @ p = &{%s}\nsystem = 0\n",
                            ["q?a().end", "timeout. end"]),
    "selection type arms": ("type T @ p = +{%s}\nsystem = 0\n", ["q!a().end", "q!b().end"]),
    "new annotations": ("system = new s:{%s} in s:[]\n", ["p: end", "q: end"]),
    "def parameters": ("def X(%s) = 0\nsystem = 0\n", ["x: int", "y: int"]),
    "call arguments": ("def X(x: int, y: int) = 0\nsystem = X(%s)\n", ["1", "2"]),
    "receive arms": ("system = new s:{ p: &{ q?a().end, timeout. end }, q: end } in\n"
                     "  ( s[p]&{%s} | s:[] )\n", ["q?a().0", "timeout. 0"]),
    "buffer entries": ("system = new s:{ p: end, q: end } in s:[%s]\n",
                       ["(p,q)!a()", "(q,p)!b(1)"]),
}


@pytest.mark.parametrize("kind", list(_LISTS))
def test_list_entries_need_a_comma_between_them_and_none_after(kind):
    # `{q r}` used to read as `{q, r}`, and `{q, r,}` as `{q, r}`.
    template, entries = _LISTS[kind]
    header = "protocol t\nroles p, q, r\n"
    parse(header + template % ", ".join(entries))
    start = len(header) + template.index("%s")
    missing = template % " ".join(entries)
    trailing = template % (", ".join(entries) + ",")
    for text, offset in ((missing, start + len(entries[0]) + 1),
                         (trailing, start + len(", ".join(entries)) + 1)):
        source = header + text
        with pytest.raises(MagpiError) as err:
            parse(source)
        line = source.count("\n", 0, offset) + 1
        col = offset - source.rfind("\n", 0, offset)
        assert [(d.code, d.span.line, d.span.col) for d in err.value.diagnostics] \
            == [("SyntaxError", line, col)], source


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
