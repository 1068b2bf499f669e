#!/usr/bin/env python3
"""Compare two versions of magpi on the simulate-faults op mix, in one
interpreter, cycle by cycle.

Both source trees (each a directory holding the `magpi` package, such as a
checkout's `src`) are loaded under their own package names, with the loader
of `scripts/ab_verify.py`; its cycle loop and report serve both scripts.
Each cycle runs the ops that `SimWorkload.ops` in bench/workloads.py draws
for the seed and the cycle: every protocol (read off `SimWorkload`, with
its step budgets) under both policies and both reorder modes, each with a
fault scenario drawn by bench/gen.py.  An op is one `sim.run` followed by
`sim.monitor_corollaries`, as in the benchmark; the side that goes first
alternates from cycle to cycle.  Every op's trace JSONL, `stuck` flag and
monitor output must be byte-identical on both sides.

Prints the median milliseconds per protocol and per cycle on each side,
each side's simulator steps per second (the steps of every timed op over
their summed run time), the median speed-up and the cycles the change
won.  Exits 1 when an output differs, else 0.  Nothing under `bench/` is
written.

Usage: python3 scripts/ab_sim.py PARENT_SRC CHANGE_SRC [--seed N] [--rounds R]
"""
from __future__ import annotations

import argparse
import ast
import json
import pathlib
import random
import sys
from time import perf_counter

from ab_verify import BENCH, _load_module, ab_cycles, load_module


def sim_workload() -> dict:
    """PROTOCOLS, STEPS and DEFAULT_STEPS of `SimWorkload` in
    bench/workloads.py."""
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    wl = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "SimWorkload")
    return {t.id: ast.literal_eval(n.value) for n in wl.body if isinstance(n, ast.Assign)
            for t in n.targets if isinstance(t, ast.Name)
            and t.id in ("PROTOCOLS", "STEPS", "DEFAULT_STEPS")}


def texts(seed: int, gen) -> dict:
    """The protocol sources of the workload: the fixtures and its mesh."""
    out = {n: (BENCH.parent / "fixtures" / f"{n}.magpi").read_text(encoding="utf-8")
           for n in ("ping", "dns", "leader")}
    out["mesh"] = gen.mesh_source(random.Random(f"{seed}/mesh"), 2, 2)
    return out


def cycle_ops(seed: int, c: int, gen, wl: dict, roles: dict) -> list:
    """(protocol, policy, scenario document, run seed, steps) of cycle c, in
    the order and with the draws of `SimWorkload.ops`."""
    rng = random.Random(f"{seed}/cycle{c}")
    out = []
    for policy in ("reliable", "unrestricted"):
        for reorder in ("total", "tcp"):
            for name in wl["PROTOCOLS"]:
                doc = gen.fault_scenario(rng, list(roles[name]))
                if reorder == "tcp":
                    doc["reorder"] = "tcp"
                out.append((name, policy, doc, rng.randrange(2 ** 31),
                            wl["STEPS"].get(name, wl["DEFAULT_STEPS"])))
    return out


class Side:
    """One version of the simulator with the workload's protocols parsed."""

    def __init__(self, src: pathlib.Path, name: str, sources: dict):
        self.sim = load_module(src, name, "sim")
        parser = load_module(src, name, "parser")
        self.pfs = {n: parser.parse(text) for n, text in sources.items()}
        self.c0 = {n: self.sim.Config(pf.system_with_defs(), 0) for n, pf in self.pfs.items()}

    def run_op(self, op: tuple) -> tuple:
        """(seconds, output) of one op: run and monitors timed, as in the
        benchmark; the output is the step count, trace JSONL, stuck flag
        and monitors."""
        name, policy, doc, seed, steps = op
        r = self.pfs[name].reliability
        scenario = self.sim.FailureScenario.from_json(doc)
        t0 = perf_counter()
        trace = self.sim.run(self.c0[name], r, policy, scenario, seed, steps)
        violations = self.sim.monitor_corollaries(trace, r)
        seconds = perf_counter() - t0
        return seconds, (len(trace.events), trace.to_json_lines(), trace.stuck,
                         json.dumps([v.to_json() for v in violations]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_src", type=pathlib.Path)
    ap.add_argument("change_src", type=pathlib.Path)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--rounds", type=int, default=100, help="timed cycles")
    args = ap.parse_args(argv)
    gen = _load_module("ab_bench_gen", BENCH / "gen.py")
    wl, sources = sim_workload(), texts(args.seed, gen)
    sides = {"parent": Side(args.parent_src.resolve(), "ab_parent_magpi", sources),
             "change": Side(args.change_src.resolve(), "ab_change_magpi", sources)}
    roles = {n: pf.roles for n, pf in sides["parent"].pfs.items()}
    return ab_cycles({side: sides[side].run_op for side in sides},
                     lambda c: [(op[0], op) for op in cycle_ops(args.seed, c, gen, wl, roles)],
                     args.rounds, "protocol", "traces and monitors identical",
                     ("steps", lambda output: output[0]))


if __name__ == "__main__":
    sys.exit(main())
