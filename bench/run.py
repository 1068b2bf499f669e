#!/usr/bin/env python3
"""magpi benchmark: time to verdict and fault-sweep throughput.

Usage, from the root of a magpi checkout:

    python3 bench/run.py --workload verify-mesh --seed 1 --seconds 30 --trace 0

Workloads: verify-mesh, verify-leader, simulate-faults (see README.md).
Each is a closed loop with one client: one process, one thread, each op
issued when the previous one has returned.  Ops run in whole cycles of a
fixed mix until the next cycle would pass --seconds, and every op's output
is checked.  With --trace 0 the last line of stdout is a JSON object with
the end-to-end metrics; with --trace 1 the same ops run once untraced and
once traced, and the JSON object holds the per-layer metrics.  Inputs,
anchors and spans go to .bench_out/ in the checkout.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
SETUP_REPS = 7
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 70.0, 50.0)
CHECKS = ("check_safety", "check_comm_safe_RF", "check_deadlock_free",
          "check_terminating", "check_live", "check_bounded")
RULES = ("R-send", "R-recv", "R-timeout", "R-choice", "R-call", "R-drop")

END_TO_END = {
    "ops_per_s": "1/s", "op_s.p50": "s", "op_s.tail": "s",
    "passed_share": "fraction", "decided_share": "fraction",
    "peak_rss_mb": "MB", "setup_s": "s",
}


@dataclass
class Record:
    kind: str
    seconds: float
    outcome: object
    props: tuple = ()
    cycle: int = -1


# ---------------------------------------------------------------------------
# measuring


def measure_setup(root: Path, files: list) -> list:
    """Seconds from spawning a fresh interpreter to its `ready` line."""
    times = []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        with subprocess.Popen([sys.executable, str(BENCH / "setup_child.py"), *files],
                              cwd=root, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            seconds = perf_counter() - t0
            child.stdout.read()
            rc = child.wait(timeout=120)
        if rc != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up child failed (exit {rc}, said {line!r})")
        times.append(seconds)
    return times


def run_one(wl, spec, rerun: bool, tracer=None, op_id: int = -1,
            cycle: int = -1) -> Record:
    """Time one op, then check its output untimed.  An op that raises or
    fails a check is a failed op, not a crash of the benchmark."""
    from workloads import Outcome
    props = getattr(spec, "props", ())
    outcome = None
    if tracer is not None:
        tracer.op = op_id
    t0 = perf_counter()
    try:
        result = wl.execute(spec)
    except Exception:
        outcome = Outcome(problems=[f"raised: {traceback.format_exc(limit=4)}"])
    seconds = perf_counter() - t0
    if tracer is not None:
        tracer.op = -1
    if outcome is None:
        try:
            outcome = wl.check(spec, result)
            if rerun and wl.fingerprint(wl.execute(spec)) != wl.fingerprint(result):
                outcome.problems.append("rerun output is not byte-identical")
        except Exception:
            outcome = Outcome(problems=[f"check raised: {traceback.format_exc(limit=4)}"])
    outcome.requested = outcome.requested or len(props) or 1
    return Record(spec.kind, seconds, outcome, props, cycle)


def run_cycle(wl, c: int, seed: int, rerun: bool = False, tracer=None,
              first_id: int = 0) -> list:
    """One cycle of the workload's ops.  With `rerun`, one op every
    `wl.rerun_period` cycles runs twice to check that its output repeats."""
    gc.collect()
    specs = wl.ops(c)
    return [run_one(wl, spec, rerun and c % wl.rerun_period == 0
                    and i == (seed + c) % len(specs), tracer, first_id + i, c)
            for i, spec in enumerate(specs)]


def run_for(seconds: float, step) -> None:
    """step(0), step(1), ... until the next call would end after `seconds`
    (at least one call), so every run is made of whole cycles."""
    start = perf_counter()
    c = 0
    while True:
        t_step = perf_counter()
        step(c)
        c += 1
        now = perf_counter()
        if (now - start) + (now - t_step) > seconds:
            return


def percentile(values: list, p: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least ten samples beyond it
    (the median when even that has fewer)."""
    return next((p for p in TAIL_LADDER if n * (1 - p / 100.0) >= 10), 50.0)


# ---------------------------------------------------------------------------
# end-to-end metrics


def end_to_end(records: list, setup_times: list) -> tuple:
    """Metrics of the timed ops, plus side facts for anchors.json."""
    times = [r.seconds for r in records]
    n = len(times)
    tail_p = tail_percentile(n)
    tail = percentile(times, tail_p)
    failed = sum(bool(r.outcome.problems) for r in records)
    values = {
        "ops_per_s": n / sum(times),
        "op_s.p50": percentile(times, 50.0),
        "op_s.tail": tail,
        "passed_share": 1.0 - failed / n,
        "decided_share": (sum(r.outcome.decided for r in records)
                          / sum(r.outcome.requested for r in records)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup_times),
    }
    side = {"op_s.tail": {"percentile": tail_p, "samples": n,
                          "samples_beyond": sum(t > tail for t in times)},
            "failed_share": failed / n,
            "setup_s": {"runs": setup_times}}
    return {k: (v, END_TO_END[k]) for k, v in values.items()}, side


# ---------------------------------------------------------------------------
# per-layer metrics


def install(tracer) -> None:
    """Wrap the module attributes each caller resolves at call time."""
    import magpi.cli
    import magpi.context
    import magpi.lts
    import magpi.parser
    import magpi.sim
    import magpi.verify
    from magpi.lts import Exceeded
    from workloads import typecheck_module

    def on_parse(c, args, result, s):
        c["parse.bytes"] += len(args[0])

    def on_explore(c, args, result, s):
        succ = c["lts.successors"] - c["explore.successors_mark"]
        c["explore.successors_mark"] = c["lts.successors"]
        if isinstance(result, Exceeded):
            c["lts.exceeded"] += 1
            if result.kind != "maxStates":
                return  # states reached before a buffer overflow are not visible
            states = new = result.limit
        else:
            states, new = len(result.states), len(result.states) - 1
        c["lts.states"] += states
        c["lts.new_states"] += new
        c["lts.known_successors"] += succ
        c["lts.known_s"] += s

    def on_transitions(c, args, result, s):
        c["lts.successors"] += len(result)

    def on_steps(c, args, result, s):
        c["sim.candidates"] += len(result)

    def on_run(c, args, trace, s):
        c["sim.steps"] += len(trace.events)
        c["sim.configs"] += len(trace.configs)
        c["sim.stuck"] += trace.stuck
        for ev in trace.events:
            c[f"sim.rule.{ev.rule}"] += 1

    def on_monitor(c, args, result, s):
        c["sim.violations"] += len(result)

    w = tracer.wrap
    w(magpi.cli, "main", "cli.main")
    w(magpi.cli, "parse", "parser.parse", on_result=on_parse)
    w(magpi.parser, "parse", "parser.parse", on_result=on_parse)
    w(magpi.cli, "typecheck_file", "typecheck.typecheck_file")
    w(typecheck_module, "typecheck_file", "typecheck.typecheck_file")
    w(magpi.cli, "explore", "cli.stats_explore", on_result=on_explore)
    w(magpi.verify, "explore", "verify.explore", on_result=on_explore)
    for name in CHECKS:
        w(magpi.verify, name, f"verify.{name}")
    w(magpi.lts, "context_transitions", "lts.context_transitions", leaf=True,
      on_result=on_transitions)
    w(magpi.lts, "context_key", "context.context_key", leaf=True)
    w(magpi.lts, "canonical_context", "context.canonical_context", leaf=True)
    w(magpi.context, "canonical_context", "context.canonical_context", leaf=True)
    w(magpi.sim, "run", "sim.run", on_result=on_run)
    w(magpi.sim, "monitor_corollaries", "sim.monitor_corollaries", on_result=on_monitor)
    w(magpi.sim, "enabled_steps", "sim.enabled_steps", leaf=True, on_result=on_steps)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


PER_LAYER_UNITS = {
    "cli.main.s": "s", "cli.stats_explore.s": "s", "cli.self_s": "s",
    "cli.stats_explore.share_safety_ops": "fraction",
    **{f"verify.{c}.s": "s" for c in CHECKS},
    "verify.explore.calls": "count", "verify.explore.s": "s",
    "verify.verdict.holds": "count", "verify.verdict.violated": "count",
    "verify.verdict.inconclusive": "count",
    "lts.explores_per_op": "count", "lts.explore.self_s": "s",
    "lts.context_transitions.s": "s", "lts.context_transitions.calls": "count",
    "lts.states": "count", "lts.edges": "count", "lts.states_per_s": "1/s",
    "lts.new_state_ratio": "ratio", "lts.exceeded.count": "count",
    "context.context_key.s": "s", "context.context_key.calls": "count",
    "context.canonical_context.s": "s", "context.canonical_context.calls": "count",
    "context.key_share": "fraction",
    "parser.parse.s": "s", "parser.parse.calls": "count", "parser.kb_per_s": "KiB/s",
    "typecheck.typecheck_file.s": "s", "typecheck.typecheck_file.calls": "count",
    "sim.run.s": "s", "sim.run.calls": "count", "sim.run.self_s": "s",
    "sim.steps": "count", "sim.steps_per_s": "1/s",
    "sim.enabled_steps.s": "s", "sim.enabled_steps.calls": "count",
    "sim.candidates_per_call": "count", "sim.step_use_ratio": "ratio",
    "sim.monitor_corollaries.s": "s", "sim.configs_stored": "count",
    "sim.stuck_runs": "count", "sim.monitor_violations": "count",
    **{f"sim.rule.{r}": "count" for r in RULES},
    "probe.open_item_1.failed_spellings": "count",
    "trace.overhead_s": "s", "trace.overhead_share": "fraction",
}


def per_layer(tracer, records: list, untraced_s: float, traced_s: float,
              probe_failed: int) -> dict:
    """Extensive figures (.s, .calls, counts) are per op of the traced
    pass; shares and rates are over the whole pass."""
    incl, self_s, calls = tracer.totals()
    c = tracer.counts
    n = len(records)

    def per(x):
        return x / n

    explore_s = incl["verify.explore"] + incl["cli.stats_explore"]
    safety_ops = [i for i, r in enumerate(records) if r.props == ("safety",)]
    verdicts = Counter(v for r in records for v in r.outcome.verdicts)
    m = {
        "cli.main.s": per(incl["cli.main"]),
        "cli.stats_explore.s": per(incl["cli.stats_explore"]),
        "cli.self_s": per(self_s["cli.main"]),
        "cli.stats_explore.share_safety_ops": _ratio(
            tracer.op_time("cli.stats_explore", safety_ops),
            tracer.op_time("cli.main", safety_ops)),
        **{f"verify.{ch}.s": per(incl[f"verify.{ch}"]) for ch in CHECKS},
        "verify.explore.calls": per(calls["verify.explore"]),
        "verify.explore.s": per(incl["verify.explore"]),
        **{f"verify.verdict.{v}": per(verdicts[v])
           for v in ("holds", "violated", "inconclusive")},
        "lts.explores_per_op": per(calls["verify.explore"] + calls["cli.stats_explore"]),
        "lts.explore.self_s": per(self_s["verify.explore"] + self_s["cli.stats_explore"]),
        "lts.context_transitions.s": per(incl["lts.context_transitions"]),
        "lts.context_transitions.calls": per(calls["lts.context_transitions"]),
        "lts.states": per(c["lts.states"]),
        "lts.edges": per(c["lts.successors"]),
        "lts.states_per_s": _ratio(c["lts.states"], c["lts.known_s"]),
        "lts.new_state_ratio": _ratio(c["lts.new_states"], c["lts.known_successors"]),
        "lts.exceeded.count": per(c["lts.exceeded"]),
        "context.context_key.s": per(incl["context.context_key"]),
        "context.context_key.calls": per(calls["context.context_key"]),
        "context.canonical_context.s": per(incl["context.canonical_context"]),
        "context.canonical_context.calls": per(calls["context.canonical_context"]),
        "context.key_share": _ratio(incl["context.context_key"], explore_s),
        "parser.parse.s": per(incl["parser.parse"]),
        "parser.parse.calls": per(calls["parser.parse"]),
        "parser.kb_per_s": _ratio(c["parse.bytes"] / 1024.0, incl["parser.parse"]),
        "typecheck.typecheck_file.s": per(incl["typecheck.typecheck_file"]),
        "typecheck.typecheck_file.calls": per(calls["typecheck.typecheck_file"]),
        "sim.run.s": per(incl["sim.run"]),
        "sim.run.calls": per(calls["sim.run"]),
        "sim.run.self_s": per(self_s["sim.run"]),
        "sim.steps": per(c["sim.steps"]),
        "sim.steps_per_s": _ratio(c["sim.steps"], incl["sim.run"]),
        "sim.enabled_steps.s": per(incl["sim.enabled_steps"]),
        "sim.enabled_steps.calls": per(calls["sim.enabled_steps"]),
        "sim.candidates_per_call": _ratio(c["sim.candidates"], calls["sim.enabled_steps"]),
        "sim.step_use_ratio": _ratio(c["sim.steps"], c["sim.candidates"]),
        "sim.monitor_corollaries.s": per(incl["sim.monitor_corollaries"]),
        "sim.configs_stored": per(c["sim.configs"]),
        "sim.stuck_runs": per(c["sim.stuck"]),
        "sim.monitor_violations": per(c["sim.violations"]),
        **{f"sim.rule.{r}": per(c[f"sim.rule.{r}"]) for r in RULES},
        "probe.open_item_1.failed_spellings": float(probe_failed),
        "trace.overhead_s": per(traced_s - untraced_s),
        "trace.overhead_share": _ratio(traced_s - untraced_s, untraced_s),
    }
    return {k: (v, PER_LAYER_UNITS[k]) for k, v in m.items()}


# ---------------------------------------------------------------------------


def platform_info() -> dict:
    """Python version, CPU model (from /proc/cpuinfo where it exists) and
    the CPUs this process may run on."""
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "cpu": cpu,
            "nproc": len(os.sched_getaffinity(0))}


def problems_summary(records: list) -> list:
    seen, out = set(), []
    for r in records:
        for p in r.outcome.problems:
            key = (r.kind, p.splitlines()[0] if p else p)
            if key not in seen:
                seen.add(key)
                out.append(f"{r.kind}: {p}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("verify-mesh", "verify-leader", "simulate-faults"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    needed = [root / "src" / "magpi" / "cli.py", root / "docs" / "schema",
              root / "fixtures" / "leader.magpi"]
    missing = [str(p.relative_to(root)) for p in needed if not p.exists()]
    if missing:
        print(f"error: run from the root of a magpi checkout; missing {missing}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(BENCH)]
    import workloads
    from tracer import Tracer

    workdir = root / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](root, args.seed, workdir)
    setup_times = measure_setup(root, wl.setup_files) if args.trace == 0 else []

    # The one-off probe, and one untimed op so that lazy set-up in the
    # interpreter is done before timing starts.
    probe = [Record(kind, 0.0, o) for kind, o in wl.probe()]
    probe_failed = sum(bool(r.outcome.problems) for r in probe)
    warm = run_one(wl, wl.ops(0)[0], rerun=False)

    records: list = []
    if args.trace == 0:
        run_for(args.seconds, lambda c: records.extend(
            run_cycle(wl, c, args.seed, rerun=True)))
        metrics, side = end_to_end(records, setup_times)
    else:
        # Each cycle runs untraced, then traced; interleaving exposes both
        # passes to the same machine conditions, so their difference is the
        # tracing overhead.  No reruns, so both passes do the same work.
        tracer, traced = Tracer(), []

        def pair(c):
            records.extend(run_cycle(wl, c, args.seed))
            install(tracer)
            try:
                traced.extend(run_cycle(wl, c, args.seed, tracer=tracer,
                                        first_id=len(traced)))
            finally:
                tracer.restore()

        if hasattr(wl, "load"):
            install(tracer)
            try:
                wl.load()  # one-off parse and typecheck, traced as op -1
            finally:
                tracer.restore()
        run_for(args.seconds, pair)
        metrics = per_layer(tracer, traced, sum(r.seconds for r in records),
                            sum(r.seconds for r in traced), probe_failed)
        tracer.write(workdir / "spans.jsonl")
    anchors = {"workload": args.workload, "seed": args.seed, "platform": platform_info(),
               "probe": {r.kind: {"verdicts": r.outcome.verdicts,
                                  "problems": r.outcome.problems} for r in probe},
               "kinds": wl.anchors(records)}
    if args.trace == 0:
        anchors["end_to_end"] = side
    everything = [warm] + records + (traced if args.trace else [])
    failed = sum(bool(r.outcome.problems) for r in everything)
    with open(workdir / "anchors.json", "w", encoding="utf-8") as fh:
        json.dump(anchors, fh, indent=2, sort_keys=True, default=str)
    with open(workdir / "ops.jsonl", "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps({"kind": r.kind, "cycle": r.cycle, "seconds": r.seconds,
                                 "failed": bool(r.outcome.problems)}) + "\n")

    print(f"{args.workload} seed={args.seed} trace={args.trace} ops={len(records)} "
          f"cycles={records[-1].cycle + 1} failed={failed}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    if args.trace == 0:
        t = anchors["end_to_end"]["op_s.tail"]
        print(f"  op_s.tail is p{t['percentile']:g} of {t['samples']} ops "
              f"({t['samples_beyond']} beyond); failed_share "
              f"{anchors['end_to_end']['failed_share']:g}")
    for note in anchors["kinds"].get("notes", []):
        print(f"  anchor: {note}")
    for r in probe:
        state = "FAILED (known defect, ROADMAP Open item 1)" if r.outcome.problems else "ok"
        print(f"  {r.kind}: verdicts {r.outcome.verdicts} {state}")
    for line in problems_summary(everything)[:20]:
        print(f"  problem: {line}")
    print(f"  anchors: {(workdir / 'anchors.json').relative_to(root)}")
    print(json.dumps({
        "correct": failed == 0, "attempted": len(everything), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
