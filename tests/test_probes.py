"""The probes of `tests/probes/`, programs with more than one session.
`nested` and `two_dead` open an
inner session that deadlocks on its own; in `cross` each session is
deadlock-free on its own but the two threads wait on each other across
sessions, and `cross_ok` is `cross` with one thread's actions reordered so
that it is not stuck.  These tests pin what holds today.  No `verify`
verdict is pinned: `verify` reads only the outermost session, so its
`holds` on the first three is a known wrong verdict."""
import io
import json
import pathlib

import pytest

from magpi.cli import EXIT_OK, main

PROBES = pathlib.Path(__file__).resolve().parent / "probes"
STUCK = ("nested", "two_dead", "cross")


@pytest.mark.parametrize("name", STUCK + ("cross_ok",))
def test_every_probe_is_accepted(name):
    out = io.StringIO()
    assert main(["check", str(PROBES / f"{name}.magpi")], out=out) == EXIT_OK
    assert out.getvalue() == "typecheck: accepted\n"


@pytest.mark.parametrize("name", STUCK + ("cross_ok",))
def test_a_fault_free_run_gets_stuck_on_the_stuck_probes_only(name):
    for seed in range(3):
        out = io.StringIO()
        assert main(["simulate", str(PROBES / f"{name}.magpi"), "--seed", str(seed),
                     "--json"], out=out) == EXIT_OK
        doc = json.loads(out.getvalue())
        assert (doc["stuck"], doc["inactive"]) == \
            ((True, False) if name in STUCK else (False, True)), seed
