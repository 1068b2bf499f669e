"""Deterministic pretty-printing with the round-trip law:
``parse(pretty(x))`` is structurally equal to ``x`` (checked by the tests
with the graph-shape equality of `tests/oracles.py`)."""
from __future__ import annotations

from . import proc as P
from . import types as T
from .parser import ProtocolFile


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
