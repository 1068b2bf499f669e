#!/usr/bin/env python3
"""Compare two versions of magpi on the verify-mesh op mix, in one
interpreter, cycle by cycle.

Both source trees (each a directory holding the `magpi` package, such as a
checkout's `src`) are loaded under their own package names.  Each cycle runs
the five verify-mesh inputs that `bench/workloads.py` draws from
`bench/gen.py` for the seed, as in-process `verify ... --json` calls, on both
sides; the side that goes first alternates from cycle to cycle.  Every output
(exit code and text) must be the same on both sides.

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


def _load_module(name: str, path: pathlib.Path, package: pathlib.Path | None = None):
    spec = importlib.util.spec_from_file_location(
        name, path, submodule_search_locations=None if package is None else [str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_cli(src: pathlib.Path, name: str):
    """`magpi.cli` of the package under `src`, imported as `name`."""
    package = src / "magpi"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no magpi package under {src}")
    _load_module(name, package / "__init__.py", package)
    return importlib.import_module(f"{name}.cli")


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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_src", type=pathlib.Path)
    ap.add_argument("change_src", type=pathlib.Path)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--rounds", type=int, default=40, help="timed cycles")
    args = ap.parse_args(argv)
    sides = {"parent": load_cli(args.parent_src.resolve(), "ab_parent_magpi"),
             "change": load_cli(args.change_src.resolve(), "ab_change_magpi")}
    times = {side: {} for side in sides}   # side -> kind -> [s]
    cycles = {side: [] for side in sides}  # side -> [s per cycle]
    with tempfile.TemporaryDirectory() as tmp:
        ops = []
        for kind, text, tail in mesh_cycle(args.seed):
            path = pathlib.Path(tmp) / f"{kind}.magpi"
            path.write_text(text, encoding="utf-8")
            ops.append((kind, ["verify", str(path), *tail]))
        for c in range(WARMUP + args.rounds):
            order = list(sides) if c % 2 == 0 else list(reversed(sides))
            total = dict.fromkeys(sides, 0.0)
            for kind, op in ops:
                results = {}
                for side in order:
                    s, results[side] = run_op(sides[side], op)
                    total[side] += s
                    if c >= WARMUP:
                        times[side].setdefault(kind, []).append(s)
                if results["parent"] != results["change"]:
                    print(f"output differs: {kind}, cycle {c}")
                    return 1
            if c >= WARMUP:
                for side in sides:
                    cycles[side].append(total[side])
    med = {side: {kind: statistics.median(ts) for kind, ts in times[side].items()}
           for side in sides}
    print(f"{'kind':<12} {'parent ms':>10} {'change ms':>10} {'speed-up':>9}")
    for kind, _ in ops:
        p, ch = med["parent"][kind], med["change"][kind]
        print(f"{kind:<12} {p * 1e3:>10.2f} {ch * 1e3:>10.2f} {p / ch:>8.3f}x")
    p, ch = statistics.median(cycles["parent"]), statistics.median(cycles["change"])
    won = sum(a > b for a, b in zip(cycles["parent"], cycles["change"]))
    print(f"{'cycle':<12} {p * 1e3:>10.2f} {ch * 1e3:>10.2f} {p / ch:>8.3f}x")
    print(f"change faster in {won}/{args.rounds} cycles; outputs identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
