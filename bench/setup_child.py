"""Set-up as a user pays it: a fresh interpreter imports `magpi.cli`, then
parses and typechecks each protocol file named on the command line, and
prints `ready`.  Run from the root of a checkout by `run.py`, which times
it from spawn to that line."""
import sys

sys.path.insert(0, "src")

import magpi.cli  # noqa: E402

for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as fh:
        pf = magpi.cli.parse(fh.read())
    if not magpi.cli.typecheck_file(pf).accepted:
        sys.exit(f"typecheck rejected {path}")
print("ready", flush=True)
