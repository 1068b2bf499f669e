#!/usr/bin/env python3
"""Print one SHA-256 over the simulator's outputs on a fixed grid of seeded
runs, so that two versions of the simulator can be compared byte for byte.

The grid is the protocols and drop/crash/link/partition scenarios of the
golden simulate runs (`tests/test_golden.py`: ping, dns, leader and both
golden meshes) plus two more scenarios (heavy drops with delay bias, and a
late crash that does not freeze) × total/tcp reordering × reliable/
unrestricted policy × six seeds, 300 steps each: 720 runs.  Each run
contributes the fields of `magpi simulate --json` (events, stuck, inactive,
terminal, monitors) and its trace JSONL; with --configs, also the rendering
of every configuration the run stored (much slower: a `leader`
configuration renders to hundreds of kilobytes).

Usage: python3 scripts/sim_digest.py [--configs]
"""
from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from magpi import parse  # noqa: E402
from magpi.proc import canonical_process, render_process  # noqa: E402
from magpi.sim import (Config, FailureScenario, RELIABLE, UNRESTRICTED,  # noqa: E402
                       monitor_corollaries, run)
from test_golden import SIM_FILES, scenario  # noqa: E402

STEPS = 300
SEEDS = 6


def scenarios(roles: list, reorder: str) -> list:
    """The golden scenarios over a protocol's sorted roles, and two more."""
    a, b, last = roles[0], roles[1], roles[-1]
    extra = [
        {"drop": {f"{a}->{b}": 0.9, f"{b}->{a}": 0.9}, "delayBias": 0.5},
        {"crash": [{"role": last, "at": 10}], "freezeCrashed": False},
    ]
    return ([scenario(kind, roles, reorder)
             for kind in ("drop", "crash", "link", "partition")]
            + [dict(doc, reorder=reorder) for doc in extra])


def run_record(pf, doc: dict, policy: str, seed: int, configs: bool) -> bytes:
    """The bytes one run contributes to the digest."""
    scen = FailureScenario.from_json(doc)
    trace = run(Config(pf.system_with_defs()), pf.reliability, policy, scen,
                seed, STEPS)
    fields = {
        "events": len(trace.events),
        "stuck": trace.stuck,
        "inactive": trace.terminal.inactive,
        "terminal": render_process(canonical_process(trace.terminal.process,
                                                     scen.reorder)),
        "monitors": [v.to_json()
                     for v in monitor_corollaries(trace, pf.reliability)],
    }
    parts = [json.dumps(fields, sort_keys=True), trace.to_json_lines()]
    if configs:
        parts += [render_process(c.process) for c in trace.configs]
    return "\n".join(parts + [""]).encode()


def digest(configs: bool = False) -> tuple:
    """(SHA-256 hex digest, number of runs) over the whole grid."""
    h = hashlib.sha256()
    runs = 0
    for f in SIM_FILES:
        pf = parse((ROOT / f).read_text(encoding="utf-8"))
        for reorder in ("total", "tcp"):
            for doc in scenarios(sorted(pf.roles), reorder):
                for policy in (RELIABLE, UNRESTRICTED):
                    for seed in range(SEEDS):
                        h.update(run_record(pf, doc, policy, seed, configs))
                        runs += 1
    return h.hexdigest(), runs


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--configs", action="store_true",
                    help="also hash every stored configuration's rendering")
    args = ap.parse_args()
    hexdigest, runs = digest(args.configs)
    print(f"{hexdigest}  ({runs} runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
