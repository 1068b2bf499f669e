#!/usr/bin/env python3
"""Sweep per-channel drop probabilities over a protocol and report, for each
probability, how many seeded runs finish, get stuck, or exhaust the step
budget, plus any runtime monitor violations.  Deterministic for a fixed
seed base.

Usage: fault_sweep.py [FILE] [--channel p->q] [--runs N] [--seed-base S]
"""
from __future__ import annotations

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from magpi import (Config, FailureScenario, monitor_corollaries, parse, run)
from magpi.sim import RELIABLE


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("file", nargs="?",
                    default=str(pathlib.Path(__file__).resolve().parent.parent
                                / "fixtures" / "ping.magpi"))
    ap.add_argument("--channel", default="p->q")
    ap.add_argument("--runs", type=int, default=200)
    ap.add_argument("--seed-base", type=int, default=0)
    ap.add_argument("--steps", type=int, default=400)
    args = ap.parse_args()

    pf = parse(open(args.file, encoding="utf-8").read())
    c0 = Config(pf.system_with_defs(), 0)
    print(f"protocol {pf.name}: {args.runs} runs per point, "
          f"dropping on {args.channel}")
    print(f"{'p(drop)':>8} {'finished':>9} {'stuck':>6} {'budget':>7} {'monitor':>8}")
    for i in range(0, 11):
        prob = i / 10
        scenario = FailureScenario.from_json({"drop": {args.channel: prob}})
        finished = stuck = budget = violations = 0
        for k in range(args.runs):
            tr = run(c0, pf.reliability, RELIABLE, scenario,
                     args.seed_base + k, args.steps)
            if tr.stuck:
                stuck += 1
            elif tr.terminal.inactive:
                finished += 1
            else:
                budget += 1
            violations += len(monitor_corollaries(tr, pf.reliability))
        print(f"{prob:>8.1f} {finished:>9} {stuck:>6} {budget:>7} {violations:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
