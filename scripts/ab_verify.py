#!/usr/bin/env python3
"""Compare two versions of magpi on the verify-mesh op mix, in one
interpreter, cycle by cycle.

Both source trees (each a directory holding the `magpi` package, such as a
checkout's `src`) are loaded under their own package names.  Each cycle runs
the five verify-mesh inputs that `bench/workloads.py` draws from
`bench/gen.py` for the seed, as in-process `verify ... --json` calls, on both
sides; the side that goes first alternates from cycle to cycle.  Every output
(exit code and text) must be the same on both sides.  Before the cycles,
`check ... --json` runs once per input on both sides, and its output (the
typecheck verdict and rule trace) must be the same too.  So must `check`
and seven `verify` runs on each of `EXTRA`'s inputs, which cover the
typecheck gate's explored safety decision, every property and `--bound`,
and the fixtures.

Prints the median milliseconds per op kind and per cycle on each side, the
median speed-up and the cycles the change won.  Exits 1 when an output
differs, else 0.  Nothing under `bench/` is written.

Usage: python3 scripts/ab_verify.py PARENT_SRC CHANGE_SRC [--seed N] [--rounds R]
"""
from __future__ import annotations

import argparse
import ast
import importlib.util
import io
import pathlib
import random
import statistics
import sys
import tempfile
from time import perf_counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
WARMUP = 2
# Inputs outside the mesh mix, with their extra options: the probe whose
# static safety fails, so that the typecheck gate explores, the fixtures,
# and leader under a state limit that its graph exceeds.
EXTRA = [("tests/golden/explored_safety.magpi", []), ("fixtures/ping.magpi", []),
         ("fixtures/dns.magpi", []), ("fixtures/leader.magpi", ["--max-states", "400"])]
EXTRA_RUNS = (["--json"], ["--props", "safety", "--json"],
              ["--props", "safety,deadlock", "--mode", "tcp", "--json"],
              ["--props", "never,tcp,bounded", "--json"],
              ["--props", "comm-rf", "--bound", "2", "--mode", "tcp", "--json"],
              ["--props", "terminating,bounded", "--bound", "3", "--json"],
              ["--props", "bounded", "--json"])


def _load_module(name: str, path: pathlib.Path, package: pathlib.Path | None = None):
    spec = importlib.util.spec_from_file_location(
        name, path, submodule_search_locations=None if package is None else [str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_module(src: pathlib.Path, name: str, module: str):
    """`magpi.<module>` of the package under `src`, the package imported as
    `name`."""
    package = src / "magpi"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no magpi package under {src}")
    if name not in sys.modules:
        _load_module(name, package / "__init__.py", package)
    return importlib.import_module(f"{name}.{module}")


def mesh_cycle(seed: int) -> list:
    """(kind, source, argv tail) of the verify-mesh cycle for the seed,
    read off `MeshWorkload` in bench/workloads.py and drawn by bench/gen.py."""
    gen = _load_module("ab_bench_gen", BENCH / "gen.py")
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    mesh = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "MeshWorkload")
    consts = {t.id: ast.literal_eval(n.value) for n in mesh.body if isinstance(n, ast.Assign)
              for t in n.targets if isinstance(t, ast.Name) and t.id in ("CYCLE", "K")}
    return [(kind, gen.mesh_source(random.Random(f"{seed}/{kind}"), consts["K"], m, loop),
             ["--props", ",".join(gen.MESH_PROPS), "--mode", mode, "--json"])
            for kind, m, loop, mode in consts["CYCLE"]]


def run_op(cli, argv: list) -> tuple:
    out = io.StringIO()
    t0 = perf_counter()
    rc = cli.main(argv, out)
    return perf_counter() - t0, (rc, out.getvalue())


def same_output(sides: dict, argv: list) -> bool:
    """Whether one untimed run of argv prints the same on both sides."""
    outs = [run_op(cli, argv)[1] for cli in sides.values()]
    return outs[0] == outs[1]


def ab_cycles(sides: dict, cycle_ops, rounds: int, column: str, identical: str,
              unit: tuple | None = None) -> int:
    """Time `WARMUP + rounds` cycles on both sides and print the report.
    `sides` maps "parent" and "change" to a function from an op to
    (seconds, output); `cycle_ops(c)` lists cycle c's (group, op) pairs.
    The side that goes first alternates from cycle to cycle.  Prints the
    median milliseconds per group (headed `column`) and per cycle on each
    side, the median speed-up and the cycles the change won, then
    `identical`.  With `unit`, a (name, count) pair where `count(output)`
    is the units of work an op did, also prints each side's units per
    second over the timed cycles: total units over summed op time.
    Returns 1 as soon as an op's outputs differ, else 0."""
    times = {side: {} for side in sides}   # side -> group -> [s]
    cycles = {side: [] for side in sides}  # side -> [s per cycle]
    units = 0  # work done in the timed cycles, the same on both sides
    for c in range(WARMUP + rounds):
        order = list(sides) if c % 2 == 0 else list(reversed(sides))
        total = dict.fromkeys(sides, 0.0)
        for group, op in cycle_ops(c):
            results = {}
            for side in order:
                s, results[side] = sides[side](op)
                total[side] += s
                if c >= WARMUP:
                    times[side].setdefault(group, []).append(s)
            if results["parent"] != results["change"]:
                print(f"output differs: {group}, cycle {c}: {op}")
                return 1
            if unit and c >= WARMUP:
                units += unit[1](results["parent"])
        if c >= WARMUP:
            for side in sides:
                cycles[side].append(total[side])
    med = {side: {group: statistics.median(ts) for group, ts in times[side].items()}
           for side in sides}
    print(f"{column:<12} {'parent ms':>10} {'change ms':>10} {'speed-up':>9}")
    for group in med["parent"]:
        p, ch = med["parent"][group], med["change"][group]
        print(f"{group:<12} {p * 1e3:>10.2f} {ch * 1e3:>10.2f} {p / ch:>8.3f}x")
    p, ch = statistics.median(cycles["parent"]), statistics.median(cycles["change"])
    won = sum(a > b for a, b in zip(cycles["parent"], cycles["change"]))
    print(f"{'cycle':<12} {p * 1e3:>10.2f} {ch * 1e3:>10.2f} {p / ch:>8.3f}x")
    if unit:
        p, ch = (units / sum(cycles[side]) for side in ("parent", "change"))
        print(f"{unit[0] + '/s':<12} {p:>10.0f} {ch:>10.0f} {ch / p:>8.3f}x")
    print(f"change faster in {won}/{rounds} cycles; {identical}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_src", type=pathlib.Path)
    ap.add_argument("change_src", type=pathlib.Path)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--rounds", type=int, default=40, help="timed cycles")
    args = ap.parse_args(argv)
    sides = {"parent": load_module(args.parent_src.resolve(), "ab_parent_magpi", "cli"),
             "change": load_module(args.change_src.resolve(), "ab_change_magpi", "cli")}
    with tempfile.TemporaryDirectory() as tmp:
        ops = []
        for kind, text, tail in mesh_cycle(args.seed):
            path = pathlib.Path(tmp) / f"{kind}.magpi"
            path.write_text(text, encoding="utf-8")
            ops.append((kind, ["verify", str(path), *tail]))
            if not same_output(sides, ["check", str(path), "--json"]):
                print(f"check output differs: {kind}")
                return 1
        for name, tail in EXTRA:
            path = str(ROOT / name)
            for argv in (["check", path, "--json", *tail],
                         *(["verify", path, *run, *tail] for run in EXTRA_RUNS)):
                if not same_output(sides, argv):
                    print(f"output differs: {' '.join(argv)}")
                    return 1
        runs = {side: lambda argv, cli=cli: run_op(cli, argv) for side, cli in sides.items()}
        return ab_cycles(runs, lambda c: ops, args.rounds, "kind",
                         "check and verify outputs identical")


if __name__ == "__main__":
    sys.exit(main())
