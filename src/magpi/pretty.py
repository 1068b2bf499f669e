"""Deterministic pretty-printing with the round-trip law:
``parse(pretty(x))`` is structurally equal to ``x``."""
from __future__ import annotations

from . import proc as P
from . import types as T
from .parser import ProcDecl, ProtocolFile


def pretty(x) -> str:
    if isinstance(x, ProtocolFile):
        return pretty_file(x)
    if isinstance(x, P.Process):
        return P.render_process(x)
    if isinstance(x, (T.SessionType, T.Basic)):
        return T.format_type(x)
    raise TypeError(f"cannot pretty-print {type(x).__name__}")


def pretty_file(pf: ProtocolFile) -> str:
    lines = [f"protocol {pf.name}", "", "roles " + ", ".join(pf.roles)]
    rel = [(r, sorted(pf.reliability.get(r))) for r in pf.roles if pf.reliability.get(r)]
    if rel:
        lines.append("")
        lines.append("reliability {")
        for i, (r, s) in enumerate(rel):
            comma = "," if i + 1 < len(rel) else ""
            lines.append(f"  {r}: {{{', '.join(s)}}}{comma}")
        lines.append("}")
    for name, (role, ty) in pf.type_defs.items():
        lines.append("")
        lines.append(f"type {name} @ {role} =")
        lines.append("  " + T.format_session(ty))
    for d in pf.proc_defs:
        params = ", ".join(f"{v}: {T.format_type(t)}" for v, t in d.params)
        lines.append("")
        lines.append(f"def {d.name}({params}) =")
        lines.append("  " + P.render_process(d.body))
    lines.append("")
    lines.append("system =")
    lines.append("  " + P.render_process(pf.system))
    lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# structural equality across reparsing (type annotations compared by graph
# shape, not node identity)


def ast_equal(a: P.Process, b: P.Process) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, P.Inaction):
        return True
    if isinstance(a, P.Send):
        return (a.ch == b.ch and a.to == b.to and a.label == b.label
                and a.value == b.value and ast_equal(a.cont, b.cont))
    if isinstance(a, P.Branch):
        if a.ch != b.ch or len(a.arms) != len(b.arms):
            return False
        if (a.timeout is None) != (b.timeout is None):
            return False
        if a.timeout is not None and not ast_equal(a.timeout, b.timeout):
            return False
        return all(x.frm == y.frm and x.label == y.label and x.var == y.var
                   and T.type_iso(x.var_type, y.var_type) and ast_equal(x.cont, y.cont)
                   for x, y in zip(a.arms, b.arms))
    if isinstance(a, (P.Choice, P.Par)):
        return ast_equal(a.left, b.left) and ast_equal(a.right, b.right)
    if isinstance(a, P.Restriction):
        return (a.session == b.session and len(a.annotations) == len(b.annotations)
                and all(r1 == r2 and T.session_iso(t1, t2)
                        for (r1, t1), (r2, t2) in zip(a.annotations, b.annotations))
                and ast_equal(a.body, b.body))
    if isinstance(a, P.Def):
        return (a.name == b.name and len(a.params) == len(b.params)
                and all(v1 == v2 and T.type_iso(t1, t2)
                        for (v1, t1), (v2, t2) in zip(a.params, b.params))
                and ast_equal(a.body, b.body) and ast_equal(a.cont, b.cont))
    if isinstance(a, P.Call):
        return a.name == b.name and a.args == b.args
    if isinstance(a, P.Buffer):
        return a.session == b.session and a.entries == b.entries
    return False


def protocol_equal(a: ProtocolFile, b: ProtocolFile) -> bool:
    if (a.name, a.roles, a.reliability) != (b.name, b.roles, b.reliability):
        return False
    if set(a.type_defs) != set(b.type_defs):
        return False
    for k in a.type_defs:
        (r1, t1), (r2, t2) = a.type_defs[k], b.type_defs[k]
        if r1 != r2 or not T.session_iso(t1, t2):
            return False
    if len(a.proc_defs) != len(b.proc_defs):
        return False
    for d1, d2 in zip(a.proc_defs, b.proc_defs):
        if d1.name != d2.name or len(d1.params) != len(d2.params):
            return False
        if not all(v1 == v2 and T.type_iso(t1, t2)
                   for (v1, t1), (v2, t2) in zip(d1.params, d2.params)):
            return False
        if not ast_equal(d1.body, d2.body):
            return False
    return ast_equal(a.system, b.system)
