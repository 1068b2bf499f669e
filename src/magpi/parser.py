"""Concrete syntax for .magpi protocol files.

A file declares a protocol name, its roles, an (optional, partial)
reliability map — omitted roles default to the empty set — named session
types annotated with the role they type, optional process definitions, and
the system process.  See docs/grammar.ebnf for the grammar.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple

from .diagnostics import Diagnostic, MagpiError, Span
from .proc import (Branch, BufMsg, Buffer, Call, Choice, Def, Endpoint,
                   Inaction, Lit, Par, Process, Restriction, RecvArm, Send,
                   UNIT_VAL, Value, Var, well_formed)
from .types import (BASIC_KINDS, Basic, BranchArm, END, Rec, RecRef,
                    Reliability, Select, SelectArm, SessionType, Branch as TBranch,
                    Type, UNIT, is_basic, validate_session)

KEYWORDS = {"protocol", "roles", "reliability", "type", "def", "system",
            "new", "in", "rec", "end", "timeout", "true", "false"}

# One match per token: the skipped text before it (whitespace and comments),
# then the token.  The token's last alternatives take any character no token
# starts with, and the empty text at the end, so the matches tile the source
# and the last one holds the trailing skipped text.
_PUNCT = "{}()[]:,.!?&+|=@-"
_TOKEN_RE = re.compile(r"""
    ((?:\s+|//[^\n]*|/\*.*?\*/)*)
    (\d+\.\d+|\d+|"(?:[^"\\]|\\.)*"|[A-Za-z_][A-Za-z0-9_']*|[%s]|.|\Z)
""" % re.escape(_PUNCT), re.VERBOSE | re.DOTALL)


class Token(NamedTuple):
    kind: str  # IDENT, KW, INT, REAL, STRING, EOF, or the punctuation itself
    text: str
    line: int
    col: int

    @property
    def span(self) -> Span:
        return Span(self.line, self.col, self.line, self.col + len(self.text))


def _kind(text: str) -> str | None:
    """The kind of a token's text; None for a character no token starts
    with.  A lone '"' is an unterminated string."""
    c = text[0]
    if c.isdecimal():  # what \d matches
        return "REAL" if "." in text else "INT"
    if c == '"':
        return "STRING" if len(text) > 1 else None
    if c == "_" or (c.isascii() and c.isalpha()):
        return "KW" if text in KEYWORDS else "IDENT"
    return None


def tokenize(source: str) -> list[Token]:
    """The tokens of `source`, ending in an EOF token.  A token's line and
    column are those of its first character, both counted from 1; a line
    ends at each "\\n" (a "\\r" before it is a character of the line), and
    each character, a tab too, is one column.  The EOF token sits after the
    last character.  A character no token starts with is a LexError
    spanning that one character."""
    new, toks = tuple.__new__, []
    kinds = {p: p for p in _PUNCT}  # token text -> kind, filled as texts are met
    pos, line, line_start = 0, 1, 0  # line_start: the offset of the line's first character
    for skip, text in _TOKEN_RE.findall(source):
        if skip:
            if "\n" in skip:
                line += skip.count("\n")
                line_start = pos + skip.rindex("\n") + 1
            pos += len(skip)
        kind = kinds.get(text)
        if kind is None:
            if not text:  # the end
                break
            kind = kinds[text] = _kind(text)
            if kind is None:
                col = pos - line_start + 1
                raise MagpiError([Diagnostic("error", "LexError",
                                             f"unexpected character {text!r}",
                                             Span(line, col, line, col + 1))])
        toks.append(new(Token, (kind, text, line, pos - line_start + 1)))
        if "\n" in text:
            line += text.count("\n")
            line_start = pos + text.rindex("\n") + 1
        pos += len(text)
    toks.append(new(Token, ("EOF", "", line, len(source) - line_start + 1)))
    return toks


# ---------------------------------------------------------------------------
# protocol file AST


@dataclass(frozen=True)
class ProcDecl:
    name: str
    params: tuple  # tuple[(identifier, Type), ...]
    body: Process
    span: Span = field(default=Span(), compare=False)


@dataclass
class ProtocolFile:
    name: str
    roles: tuple
    reliability: Reliability
    type_defs: dict  # name -> (role, SessionType)
    proc_defs: tuple  # tuple[ProcDecl, ...]
    system: Process

    def system_with_defs(self) -> Process:
        """The system with top-level definitions in scope."""
        out = self.system
        for d in reversed(self.proc_defs):
            out = Def(d.name, d.params, d.body, out, d.span)
        return out


def _syntax(message: str, span: Span) -> MagpiError:
    return MagpiError([Diagnostic("error", "SyntaxError", message, span)])


class Parser:
    def __init__(self, source: str):
        self.toks = tokenize(source)
        self.pos = 0
        self.diags: list[Diagnostic] = []
        self.roles: tuple = ()
        self.type_defs: dict = {}
        self.named: set = set()  # the root node of every named type

    # -- token plumbing
    #
    # `pos` never passes the EOF token, so only a look ahead can run off
    # the end of `toks`.

    def peek(self, ahead: int = 0) -> Token:
        try:
            return self.toks[self.pos + ahead]
        except IndexError:
            return self.toks[-1]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "EOF":
            self.pos += 1
        return t

    def at(self, kind: str, text: str | None = None, ahead: int = 0) -> bool:
        t = self.peek(ahead) if ahead else self.toks[self.pos]
        return t.kind == kind and (text is None or t.text == text)

    def expect(self, kind: str, text: str | None = None) -> Token:
        t = self.toks[self.pos]
        if t.kind != kind or (text is not None and t.text != text):
            raise _syntax(f"expected {text or kind!r}, "
                          f"found {t.text or 'end of input'!r}", t.span)
        return self.next()

    def items(self, opening: str, closing: str, item, empty: bool = True) -> list:
        """What `item()` parses for each entry of a comma-separated list
        between the `opening` and `closing` tokens.  The list may be empty
        when `empty` says so; a comma ends no list."""
        self.expect(opening)
        out = [] if empty and self.at(closing) else [item()]
        while self.at(","):
            self.next()
            out.append(item())
        self.expect(closing)
        return out

    def branch_arms(self, arm, timeout) -> tuple:
        """The arms of a braced branching, and its timeout arm's
        continuation or None; a second timeout arm, or a receive arm after
        the timeout arm, is an error."""
        arms, timeouts = [], []

        def entry():
            if self.at("KW", "timeout"):
                t = self.next()
                if timeouts:
                    self.error("DuplicateTimeout", "branching has a second timeout arm",
                               t.span)
                self.expect(".")
                timeouts.append(timeout())
            else:
                if timeouts:
                    self.error("MisplacedTimeout", "a receive arm follows the timeout arm",
                               self.peek().span)
                arms.append(arm())

        self.items("{", "}", entry)
        return tuple(arms), timeouts[0] if timeouts else None

    def error(self, code: str, msg: str, span: Span):
        self.diags.append(Diagnostic("error", code, msg, span))

    def validate(self, ty: SessionType, span: Span):
        """Validates ty's graph up to the named types in it: each of those
        was validated, and its faults reported, at its definition."""
        if ty not in self.named:
            self.diags.extend(validate_session(ty, span, self.named))

    def message(self, payload, empty) -> tuple:
        """`IDENT "(" [payload] ")"`, the label and payload of an arm type,
        a send, a receive arm or a buffered message: (label, what
        `payload()` parses, or `empty` for an empty payload)."""
        label = self.expect("IDENT").text
        self.expect("(")
        out = empty if self.at(")") else payload()
        self.expect(")")
        return label, out

    def check_role(self, tok: Token) -> str:
        if self.roles and tok.text not in self.roles:
            self.error("UnknownRole", f"role {tok.text!r} is not declared", tok.span)
        return tok.text

    # -- file structure

    def parse_file(self) -> ProtocolFile:
        self.expect("KW", "protocol")
        name = self.expect("IDENT").text
        self.expect("KW", "roles")
        roles = [self.expect("IDENT").text]
        while self.at(","):
            self.next()
            roles.append(self.expect("IDENT").text)
        for r in sorted({r for r in roles if roles.count(r) > 1}):
            self.error("DuplicateRole", f"role {r} declared twice", self.peek().span)
        self.roles = tuple(roles)

        rel = {r: set() for r in roles}
        if self.at("KW", "reliability"):
            self.next()

            def entry():
                role = self.check_role(self.expect("IDENT"))
                self.expect(":")
                for ot in self.items("{", "}", lambda: self.expect("IDENT")):
                    if self.check_role(ot) != role:
                        rel.setdefault(role, set()).add(ot.text)
                    else:
                        self.error("SelfReliance", f"role {role} cannot appear in "
                                   "its own reliability set", ot.span)

            self.items("{", "}", entry)
        rel = {r: s for r, s in rel.items() if r in self.roles}

        proc_defs: list[ProcDecl] = []
        system: Process | None = None
        while not self.at("EOF"):
            if self.at("KW", "type"):
                self.next()
                nt = self.expect("IDENT")
                self.expect("@")
                trole = self.check_role(self.expect("IDENT"))
                self.expect("=")
                ty = self.parse_type({})
                if nt.text in self.type_defs:
                    self.error("DuplicateTypeDef", f"type {nt.text} defined twice",
                               nt.span)
                self.validate(ty, nt.span)
                self.named.add(ty)
                self.type_defs[nt.text] = (trole, ty)
            elif self.at("KW", "def"):
                proc_defs.append(self.parse_proc_decl())
            elif self.at("KW", "system"):
                self.next()
                self.expect("=")
                system = self.parse_par(set())
            else:
                t = self.peek()
                raise _syntax(f"expected declaration, found {t.text or 'end of input'!r}",
                              t.span)
        if system is None:
            self.error("MissingSystem", "file declares no system process", self.peek().span)
            system = Inaction()

        pf = ProtocolFile(name, self.roles, Reliability.of(rel),
                          self.type_defs, tuple(proc_defs), system)
        # Top-level definitions are mutually recursive: pre-seed their
        # arities when checking each body and the system itself.
        arities = {d.name: len(d.params) for d in proc_defs}
        for d in proc_defs:
            self.diags.extend(well_formed(
                Def(d.name, d.params, d.body, Inaction(), d.span), arities))
        self.diags.extend(well_formed(system, arities))
        if self.diags:
            raise MagpiError(self.diags)
        return pf

    def parse_proc_decl(self) -> ProcDecl:
        start = self.expect("KW", "def")
        name = self.expect("IDENT").text
        params = []

        def param():
            pt = self.expect("IDENT")
            if any(pt.text == n for n, _ in params):
                self.error("DuplicateParam",
                           f"parameter {pt.text} of {name} declared twice", pt.span)
            self.expect(":")
            params.append((pt.text, self.parse_binder_type()))

        self.items("(", ")", param)
        self.expect("=")
        body = self.parse_par(set())
        return ProcDecl(name, tuple(params), body, start.span)

    # -- types

    def parse_type(self, recs: dict) -> SessionType:
        t = self.peek()
        if self.at("KW", "end"):
            self.next()
            return END
        if self.at("KW", "rec"):
            self.next()
            vt = self.expect("IDENT")
            if vt.text in recs:
                self.error("DuplicateRecVar",
                           f"recursion variable {vt.text!r} shadows an enclosing one",
                           vt.span)
            self.expect(".")
            node = Rec(vt.text)
            inner = dict(recs)
            inner[vt.text] = node
            node.body = self.parse_type(inner)
            return node
        if self.at("&") or self.at("+"):
            if self.next().text == "+":
                return Select(tuple(self.items(
                    "{", "}", lambda: self.parse_arm_type(recs, "!"))))
            return TBranch(*self.branch_arms(lambda: self.parse_arm_type(recs, "?"),
                                      lambda: self.parse_type(recs)))
        if t.kind == "IDENT":
            if self.at("!", ahead=1):
                return Select((self.parse_arm_type(recs, "!"),))
            if self.at("?", ahead=1):
                return TBranch((self.parse_arm_type(recs, "?"),), None)
            self.next()
            if t.text in recs:
                return RecRef(t.text, recs[t.text])
            if t.text in self.type_defs:
                return self.type_defs[t.text][1]
            raise MagpiError([Diagnostic("error", "UnboundRecVar",
                                         f"unknown type name {t.text!r}", t.span)])
        raise _syntax(f"expected a session type, found {t.text!r}", t.span)

    def parse_arm_type(self, recs: dict, sep: str) -> SelectArm | BranchArm:
        """A selection arm `q!l(T).S` (sep "!") or a branching arm
        `q?l(T).S` (sep "?")."""
        role = self.check_role(self.expect("IDENT"))
        self.expect(sep)
        label, payload = self.message(lambda: self.parse_payload_type(recs), UNIT)
        self.expect(".")
        arm = SelectArm if sep == "!" else BranchArm
        return arm(role, label, payload, self.parse_type(recs))

    def parse_payload_type(self, recs: dict) -> Type:
        t = self.peek()
        if t.kind == "IDENT" and t.text in BASIC_KINDS and not (
                self.at("!", ahead=1) or self.at("?", ahead=1)):
            self.next()
            return Basic(t.text)
        return self.parse_type(recs)

    def parse_binder_type(self) -> Type:
        """A `def` parameter's or a received variable's type, validated."""
        t, ty = self.peek(), self.parse_payload_type({})
        if not is_basic(ty):
            self.validate(ty, t.span)
        return ty

    # -- values

    def parse_value(self) -> Value:
        t = self.peek()
        if self.at("("):
            self.next()
            self.expect(")")
            return UNIT_VAL
        if self.at("-") or t.kind in ("INT", "REAL"):
            neg = False
            if self.at("-"):
                neg = True
                self.next()
                t = self.peek()
            if t.kind == "INT":
                self.next()
                return Lit("int", -int(t.text) if neg else int(t.text))
            if t.kind == "REAL":
                self.next()
                return Lit("real", -float(t.text) if neg else float(t.text))
            raise _syntax("expected a number after '-'", t.span)
        if t.kind == "STRING":
            self.next()
            body = t.text[1:-1]
            return Lit("string", re.sub(r'\\(.)', r'\1', body))
        if self.at("KW", "true") or self.at("KW", "false"):
            self.next()
            return Lit("bool", t.text == "true")
        if t.kind == "IDENT":
            self.next()
            if self.at("["):
                self.next()
                role = self.check_role(self.expect("IDENT"))
                self.expect("]")
                return Endpoint(t.text, role)
            return Var(t.text)
        raise _syntax(f"expected a value, found {t.text!r}", t.span)

    # -- processes

    def parse_par(self, sessions: set) -> Process:
        left = self.parse_choice(sessions)
        while self.at("|"):
            sp = self.next().span
            left = Par(left, self.parse_choice(sessions), sp)
        return left

    def parse_choice(self, sessions: set) -> Process:
        left = self.parse_prefix(sessions)
        while self.at("+"):
            sp = self.next().span
            left = Choice(left, self.parse_prefix(sessions), sp)
        return left

    def parse_prefix(self, sessions: set) -> Process:
        t = self.peek()
        if t.kind == "INT" and t.text == "0":
            self.next()
            return Inaction(t.span)
        if self.at("("):
            self.next()
            inner = self.parse_par(sessions)
            self.expect(")")
            return inner
        if self.at("KW", "new"):
            self.next()
            st = self.expect("IDENT")
            if st.text in sessions:
                self.error("ShadowedSession",
                           f"session {st.text!r} shadows an enclosing session", st.span)
            self.expect(":")

            def annotation():
                role = self.check_role(self.expect("IDENT"))
                self.expect(":")
                ty = self.parse_type({})
                self.validate(ty, st.span)
                return role, ty

            anns = self.items("{", "}", annotation, empty=False)
            self.expect("KW", "in")
            body = self.parse_par(sessions | {st.text})
            return Restriction(st.text, tuple(sorted(anns, key=lambda a: a[0])),
                               body, st.span)
        if self.at("KW", "def"):
            decl = self.parse_proc_decl()
            self.expect("KW", "in")
            cont = self.parse_par(sessions)
            return Def(decl.name, decl.params, decl.body, cont, decl.span)
        if t.kind == "IDENT":
            # buffer: s:[ ... ]
            if self.at(":", ahead=1) and self.at("[", ahead=2):
                self.next()
                self.next()
                return self.parse_buffer(t)
            # call: X( ... )
            if self.at("(", ahead=1):
                self.next()
                return Call(t.text, tuple(self.items("(", ")", self.parse_value)), t.span)
            ch = self.parse_value()
            if not isinstance(ch, (Var, Endpoint)):
                raise _syntax("channel must be a variable or endpoint", t.span)
            if self.at("!"):
                self.next()
                to = self.check_role(self.expect("IDENT"))
                self.expect(":")
                label, value = self.message(self.parse_value, UNIT_VAL)
                self.expect(".")
                return Send(ch, to, label, value, self.parse_prefix(sessions), t.span)
            if self.at("&"):
                self.next()

                def binder():
                    var = self.expect("IDENT").text
                    self.expect(":")
                    return var, self.parse_binder_type()

                def arm():
                    at = self.peek()
                    frm = self.check_role(self.expect("IDENT"))
                    self.expect("?")
                    label, (var, vty) = self.message(binder, ("_", UNIT))
                    self.expect(".")
                    return RecvArm(frm, label, var, vty, self.parse_prefix(sessions),
                                   at.span)

                arms, timeout = self.branch_arms(arm, lambda: self.parse_prefix(sessions))
                return Branch(ch, arms, timeout, t.span)
            raise _syntax(f"expected '!', '&', ':' or '(' after {t.text!r}",
                          self.peek().span)
        raise _syntax(f"expected a process, found {t.text or 'end of input'!r}", t.span)

    def parse_buffer(self, name: Token) -> Process:
        def entry():
            self.expect("(")
            frm = self.check_role(self.expect("IDENT"))
            self.expect(",")
            to = self.check_role(self.expect("IDENT"))
            self.expect(")")
            self.expect("!")
            return BufMsg(frm, to, *self.message(self.parse_value, UNIT_VAL))

        return Buffer(name.text, tuple(self.items("[", "]", entry)), name.span)


def parse(source: str) -> ProtocolFile:
    """Parse a protocol file; raises MagpiError carrying diagnostics."""
    return Parser(source).parse_file()


def _parse_text(source: str, roles, item, check=lambda out: []):
    """What `item(parser)` parses of the whole of `source`, declaring
    `roles`; `check(out)` lists its further faults."""
    p = Parser(source)
    p.roles = tuple(roles)
    out = item(p)
    p.expect("EOF")
    diags = p.diags + check(out)
    if diags:
        raise MagpiError(diags)
    return out


def parse_session_text(source: str, roles=()) -> SessionType:
    """Parse a standalone session type (tests and tooling)."""
    return _parse_text(source, roles, lambda p: p.parse_type({}), validate_session)


def parse_process_text(source: str, roles=()) -> Process:
    """Parse a standalone process (tests and tooling)."""
    return _parse_text(source, roles, lambda p: p.parse_par(set()))
