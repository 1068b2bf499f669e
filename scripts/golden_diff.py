#!/usr/bin/env python3
"""Show which records of `tests/golden/verify.json` moved against a git
revision, and whether only witnesses did.

Each record that differs is printed with, per property, the fields that
changed; `--dot` graph digests, exit codes, stats and `lts-export` digests
are compared too.  Exits 1 when anything but a witness moved (or a record
was added or dropped), else 0.

Usage: python3 scripts/golden_diff.py [REV]   (default HEAD)
"""
from __future__ import annotations

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = "tests/golden/verify.json"


def moved_fields(old, new) -> list:
    """The fields of one record that differ: `property.field` for each
    verdict field, else the record's own keys."""
    if not (isinstance(old, dict) and isinstance(new, dict)):
        return ["digest"]
    out = [k for k in sorted(set(old) | set(new)) if k != "stdout" and old.get(k) != new.get(k)]
    if old.get("stdout") != new.get("stdout"):
        try:
            a, b = json.loads(old["stdout"]), json.loads(new["stdout"])
        except ValueError:
            return out + ["stdout"]
        out += [k for k in sorted(set(a) | set(b)) if k != "properties" and a.get(k) != b.get(k)]
        pa, pb = a.get("properties", {}), b.get("properties", {})
        for p in sorted(set(pa) | set(pb)):
            x, y = pa.get(p, {}), pb.get(p, {})
            out += [f"{p}.{f}" for f in sorted(set(x) | set(y)) if x.get(f) != y.get(f)]
    return out


def main(argv=None) -> int:
    rev = (argv if argv is not None else sys.argv[1:] or ["HEAD"])[0]
    old = json.loads(subprocess.run(["git", "show", f"{rev}:{GOLDEN}"], cwd=ROOT, check=True,
                                    capture_output=True, text=True).stdout)
    new = json.loads((ROOT / GOLDEN).read_text(encoding="utf-8"))
    ok = set(old) == set(new)
    for key in sorted(set(old) - set(new)):
        print(f"dropped: {key}")
    for key in sorted(set(new) - set(old)):
        print(f"added: {key}")
    moved = [key for key in sorted(set(old) & set(new)) if old[key] != new[key]]
    for key in moved:
        fields = moved_fields(old[key], new[key])
        ok = ok and all(f.endswith(".witness") for f in fields)
        print(f"{key}: {', '.join(fields)}")
    print(f"{len(moved)} of {len(new)} records moved"
          + ("; only witnesses" if ok else "; NOT only witnesses"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
