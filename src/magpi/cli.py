"""Command-line entry point: check (typechecking), verify (type-level
properties over the context LTS) and simulate (seeded fault-injection runs
with monitors).

Exit codes: 0 all checks hold, 1 violation or typecheck failure,
2 inconclusive within limits, 3 usage or parse error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import proc as P
from .context import TypeContext
from .diagnostics import MagpiError
from .lts import Exceeded, ExploreLimits, explore, export_lts
from .parser import ProtocolFile, parse
from .sim import (Config, FailureScenario, RELIABLE, UNRESTRICTED,
                  monitor_corollaries, run)
from .typecheck import restriction_context, typecheck_file
from .types import CongruenceMode
from . import verify as V

EXIT_OK, EXIT_VIOLATION, EXIT_INCONCLUSIVE, EXIT_USAGE = 0, 1, 2, 3

DEFAULT_MAX_STATES = 100000
DEFAULT_BOUND_PROBE = 16
STATS_STATE_CAP = 10000


def _load(path: str) -> ProtocolFile:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh.read())
    except OSError as exc:
        raise MagpiError.usage(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise MagpiError.usage(f"cannot read {path}: not UTF-8 ({exc.reason})")


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise MagpiError.usage(f"cannot write {path}: {exc.strerror}")


def _check_writable(path: str) -> None:
    """Refuse an output path that cannot be written, before the run that
    fills it.  A file made by the check is removed again, so a run that
    ends without writing leaves none behind."""
    existed = os.path.lexists(path)
    try:
        with open(path, "a", encoding="utf-8"):
            pass
    except OSError as exc:
        raise MagpiError.usage(f"cannot write {path}: {exc.strerror}")
    if not existed:
        os.remove(path)


def initial_context(pf: ProtocolFile):
    """(Γ, session) from the system's top-level restriction annotation plus
    any initial buffer content."""
    p = pf.system_with_defs()
    while isinstance(p, P.Def):
        p = p.cont
    if not isinstance(p, P.Restriction):
        return None, None
    return restriction_context(p, TypeContext()), p.session


def _gate_typecheck(pf: ProtocolFile, args, out) -> int | None:
    if getattr(args, "unsafe_skip_typecheck", False):
        return None
    report = typecheck_file(pf, ExploreLimits(max_states=args.max_states))
    if not report.accepted:
        for d in report.failures:
            print(d.render(), file=out)
        print("typecheck: rejected", file=out)
        return EXIT_VIOLATION
    return None


# ---------------------------------------------------------------------------
# commands


def cmd_check(args, out) -> int:
    pf = _load(args.file)
    report = typecheck_file(pf, ExploreLimits(max_states=args.max_states))
    if args.json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True), file=out)
    else:
        for d in report.failures:
            print(d.render(), file=out)
        print(f"typecheck: {report.verdict}", file=out)
    return EXIT_OK if report.accepted else EXIT_VIOLATION


def cmd_verify(args, out) -> int:
    pf = _load(args.file)
    if args.dot:
        _check_writable(args.dot)
    gate = _gate_typecheck(pf, args, out)
    if gate is not None:
        return gate
    g0, session = initial_context(pf)
    if g0 is None:
        print("error: system has no top-level session restriction", file=out)
        return EXIT_USAGE
    sigma = {session}
    r = pf.reliability
    mode = (CongruenceMode.TCP_FIFO if args.mode == "tcp"
            else CongruenceMode.TOTAL_REORDER)
    limits = ExploreLimits(max_states=args.max_states, mode=mode)
    props = [p.strip() for p in args.props.split(",")] if args.props else \
        ["safety", "comm-rf", "deadlock", "terminating", "live"]
    graphs = V.Graphs(g0, sigma, limits)
    # The checks are looked up when called, so that wrappers installed on
    # the verify module see every call.
    checks = {
        "safety": lambda: V.check_safety(g0, sigma, r, limits, graphs=graphs),
        "comm-rf": lambda: V.check_comm_safe_RF(g0, sigma, limits, graphs=graphs),
        "deadlock": lambda: V.check_deadlock_free(g0, sigma, r, limits, graphs=graphs),
        "terminating": lambda: V.check_terminating(g0, sigma, r, limits, graphs=graphs),
        "live": lambda: V.check_live(g0, sigma, r, limits, graphs=graphs),
        "never": lambda: V.check_never_terminating(g0, sigma, r, limits, graphs=graphs),
        "tcp": lambda: V.check_tcp_safety(g0, sigma, limits, graphs=graphs),
        "bounded": lambda: V.check_bounded(g0, sigma, r, args.bound or DEFAULT_BOUND_PROBE,
                                           mode, graphs=graphs),
    }
    unknown = [name for name in props if name not in checks]
    if unknown:
        print(f"error: unknown property {unknown[0]!r} "
              f"(expected one of {', '.join(checks)})", file=out)
        return EXIT_USAGE
    # comm-rf and tcp read their timeout-free graph off the graph under the
    # declared map when it is complete, so they run after the properties
    # that build it; boundedness reads its answer off the graph the others
    # have built, so it runs last.
    late = {"comm-rf": 1, "tcp": 1, "bounded": 2}
    results = {name: checks[name]()
               for name in sorted(props, key=lambda name: late.get(name, 0))}
    minimal_k = None
    if "bounded" in results:
        results["bounded"], minimal_k = results["bounded"]
    if args.bound and "bounded" not in props:
        results[f"bound_{args.bound}"] = V.check_bound_k(
            g0, sigma, r, args.bound, mode, graphs=graphs)
    # Stats describe the graph under the reliability map that the verdicts
    # used.  When no property built it (a safety check that settled
    # statically, say), it is counted under a small cap so that unbounded
    # systems stay fast.
    graph = graphs.built(r)
    if graph is None:
        stats_limits = ExploreLimits(min(limits.max_states, STATS_STATE_CAP),
                                     limits.max_buffer_len, limits.mode)
        graph = explore(g0, sigma, r, stats_limits)
    stats = ({"states": len(graph.states), "edges": sum(map(len, graph.succ))}
             if not isinstance(graph, Exceeded)
             else {"exceeded": graph.kind, "limit": graph.limit})
    if args.dot:
        if isinstance(graph, Exceeded):
            print(f"warning: {args.dot} not written: exploration stopped at the "
                  f"{graph.kind} limit {graph.limit}", file=sys.stderr)
        else:
            _write(args.dot, export_lts(graph, "dot"))
    doc = {"properties": {k: v.to_json() for k, v in results.items()},
           "stats": stats}
    if minimal_k is not None:
        doc["properties"]["bounded"]["minimalK"] = minimal_k
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True), file=out)
    else:
        for k in sorted(results):
            v = results[k]
            extra = f" ({v.reason})" if v.reason else ""
            print(f"{k}: {v.status}{extra}", file=out)
        print(f"states: {stats.get('states', '>limit')} "
              f"edges: {stats.get('edges', '-')}", file=out)
    statuses = {v.status for v in results.values()}
    if V.VIOLATED in statuses:
        return EXIT_VIOLATION
    if V.INCONCLUSIVE in statuses:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def cmd_simulate(args, out) -> int:
    pf = _load(args.file)
    if args.trace:
        _check_writable(args.trace)
    gate = _gate_typecheck(pf, args, out)
    if gate is not None:
        return gate
    scenario = FailureScenario()
    if args.scenario:
        try:
            with open(args.scenario, encoding="utf-8") as fh:
                scenario = FailureScenario.from_json(json.load(fh))
            unknown = scenario.roles() - set(pf.roles)
            if unknown:
                raise ValueError("undeclared role(s) "
                                 + ", ".join(map(repr, sorted(unknown))))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"error: bad scenario file: {exc}", file=out)
            return EXIT_USAGE
    policy = RELIABLE if args.policy == "reliable" else UNRESTRICTED
    trace = run(Config(pf.system_with_defs()), pf.reliability, policy,
                scenario, args.seed, args.steps)
    lines = trace.to_json_lines()
    if args.trace:
        _write(args.trace, lines + ("\n" if lines else ""))
    violations = monitor_corollaries(trace, pf.reliability)
    doc = {
        "events": len(trace.events),
        "stuck": trace.stuck,
        "inactive": P.is_inactive(trace.terminal.process),
        "terminal": P.render_process(P.canonical_process(trace.terminal.process)),
        "monitors": [v.to_json() for v in violations],
    }
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True), file=out)
    else:
        if not args.trace and lines:
            print(lines, file=out)
        print(f"steps: {doc['events']} stuck: {doc['stuck']} "
              f"inactive: {doc['inactive']}", file=out)
        for v in violations:
            print(f"monitor violation: {v.kind} at step {v.step} "
                  f"({v.session}[{v.role}])", file=out)
    return EXIT_VIOLATION if violations else EXIT_OK


# ---------------------------------------------------------------------------


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than low."""
    def parse_int(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if n < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {n}")
        return n
    return parse_int


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="magpi",
                                 description="protocol typechecker, verifier "
                                             "and fault-injection simulator")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("file")
        sp.add_argument("--json", action="store_true")
        sp.add_argument("--max-states", type=_int_at_least(1),
                        default=DEFAULT_MAX_STATES)

    c = sub.add_parser("check", help="typecheck a protocol file")
    common(c)

    v = sub.add_parser("verify", help="verify type-level properties")
    common(v)
    v.add_argument("--props", default="")
    v.add_argument("--bound", type=_int_at_least(0), default=0)
    v.add_argument("--mode", choices=("total", "tcp"), default="total")
    v.add_argument("--dot", default="")
    v.add_argument("--unsafe-skip-typecheck", action="store_true")

    s = sub.add_parser("simulate", help="run a seeded fault-injection simulation")
    common(s)
    s.add_argument("--scenario", default="")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--steps", type=_int_at_least(0), default=1000)
    s.add_argument("--policy", choices=("reliable", "unrestricted"),
                   default="reliable")
    s.add_argument("--trace", default="")
    s.add_argument("--unsafe-skip-typecheck", action="store_true")
    return ap


# Built once: parsing leaves the parser as it was, and every call gets a
# fresh namespace of defaults.
_PARSER = build_parser()


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        if args.command == "check":
            return cmd_check(args, out)
        if args.command == "verify":
            return cmd_verify(args, out)
        return cmd_simulate(args, out)
    except MagpiError as exc:
        for d in exc.diagnostics:
            print(d.render(), file=out)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
