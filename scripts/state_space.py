#!/usr/bin/env python3
"""Measure how the typing-context transition system of a protocol grows as
the per-channel buffer bound increases, under both message-reordering
congruences.  Useful for picking a bound before running `magpi verify`.
Each row gives the states, edges and stuck states found, also when the
exploration stopped at a limit, which the row then names, and its wall time
and states found per second.  The header gives the input's parse time, the
front end's share of a `verify`.
Per mode, it then gives the wall time to read the fully reliable graph off
the complete graph under the protocol's map (what `verify` does for
comm-rf and tcp) next to the time to explore that graph.  Last come the
unbounded graph's states and edges, and those of each linked component
that `verify` explores on its own, with their product, which `verify`
reports as its stats.

Usage: state_space.py [FILE] [--max-bound K] [--dot OUT.dot]
"""
from __future__ import annotations

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from magpi import Exceeded, ExploreLimits, explore, export_lts, parse
from magpi.cli import initial_context
from magpi.lts import without_timeouts
from magpi.verify import Graphs, product_stats
from magpi.types import CongruenceMode, Reliability


def timed_explore(ctx, sigma, r, limits, bound=None):
    """(outcome, wall time in s, states/s) of one exploration, with the
    buffer bound `bound` when given.  The rate counts the states found, on
    a trip of either limit too: a stopped exploration keeps the graph it
    built."""
    t = time.perf_counter()
    g = explore(ctx, sigma, r, limits, max_buffer_len=bound)
    wall = time.perf_counter() - t
    return g, wall, len(g.states) / wall if wall else None


def timing(wall, rate) -> str:
    return f"{wall:>8.3f} {'-' if rate is None else f'{rate:.0f}':>9}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("file", nargs="?",
                    default=str(pathlib.Path(__file__).resolve().parent.parent
                                / "fixtures" / "dns.magpi"))
    ap.add_argument("--max-bound", type=int, default=6)
    ap.add_argument("--max-states", type=int, default=200000)
    ap.add_argument("--dot", help="write the unbounded LTS in graphviz form")
    args = ap.parse_args()

    with open(args.file, encoding="utf-8") as fh:
        text = fh.read()
    t = time.perf_counter()
    pf = parse(text)
    parse_s = time.perf_counter() - t
    ctx, sess = initial_context(pf)
    if ctx is None:
        print("no session restriction found in system", file=sys.stderr)
        return 1

    print(f"protocol {pf.name}: {len(text)} bytes parsed in {parse_s * 1e3:.1f} ms")
    print(f"{'bound':>6} {'mode':>6} {'states':>8} {'edges':>8} {'stuck':>6} "
          f"{'wall_s':>8} {'states/s':>9}")
    for k in range(1, args.max_bound + 1):
        for mode in (CongruenceMode.TOTAL_REORDER, CongruenceMode.TCP_FIFO):
            lim = ExploreLimits(args.max_states, mode)
            g, wall, rate = timed_explore(ctx, {sess}, pf.reliability, lim, k)
            stop = f"  exceeded {g.kind}" if isinstance(g, Exceeded) else ""
            print(f"{k:>6} {mode.value:>6} {len(g.states):>8} {len(g.edges):>8} "
                  f"{len(g.stuck_ids):>6} {timing(wall, rate)}{stop}")

    rf = Reliability.fully_reliable(set(pf.roles))
    print(f"{'fully reliable':>14} {'mode':>6} {'states':>8} {'edges':>8} "
          f"{'view_s':>9} {'explore_s':>9}")
    for mode in (CongruenceMode.TOTAL_REORDER, CongruenceMode.TCP_FIFO):
        lim = ExploreLimits(args.max_states, mode)
        full = explore(ctx, {sess}, pf.reliability, lim)
        rel, explore_s, _ = timed_explore(ctx, {sess}, rf, lim)
        if isinstance(full, Exceeded) or isinstance(rel, Exceeded):
            print(f"{'':>14} {mode.value:>6} {'-':>8} {'-':>8} {'-':>9} "
                  f"{explore_s:>9.4f}  exceeded")
            continue
        t = time.perf_counter()
        view = without_timeouts(full)
        view_s = time.perf_counter() - t
        print(f"{'':>14} {mode.value:>6} {len(view.states):>8} {len(view.edges):>8} "
              f"{view_s:>9.4f} {explore_s:>9.4f}")

    lim = ExploreLimits(args.max_states)
    g, wall, rate = timed_explore(ctx, {sess}, pf.reliability, lim)
    if isinstance(g, Exceeded):
        print(f"unbounded: exceeded {g.kind} at {g.limit}, {wall:.3f} s, "
              f"{rate:.0f} states/s")
    else:
        print(f"unbounded: {len(g.states)} states, {len(g.edges)} edges, "
              f"{wall:.3f} s, {rate:.0f} states/s")
        if args.dot:
            pathlib.Path(args.dot).write_text(export_lts(g, "dot"))
            print(f"wrote {args.dot}")
    graphs = Graphs(ctx, {sess}, lim)
    t = time.perf_counter()
    parts = graphs.get(pf.reliability)
    wall = time.perf_counter() - t
    print(f"{'component':>9} {'roles':<24} {'states':>8} {'edges':>8}")
    for i, (part, g) in enumerate(zip(graphs.parts, parts)):
        roles = ",".join(role for (_, role), _ in part.endpoints)
        stop = f"  exceeded {g.kind}" if isinstance(g, Exceeded) else ""
        print(f"{i:>9} {roles:<24} {len(g.states):>8} {len(g.edges):>8}{stop}")
    stats = product_stats(parts)
    print(f"{'product':>9} {'':<24} {stats.get('states', '-'):>8} "
          f"{stats.get('edges', '-'):>8}  {wall:.3f} s for {len(parts)} explorations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
