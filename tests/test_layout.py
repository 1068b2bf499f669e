"""What ships in `src/magpi` is what the commands, the benchmark and the
scripts run: every public module-level function and class there is used by
the package itself, by `bench/` or by `scripts/`.  Reference oracles that
only tests use live in `tests/oracles.py`."""
import ast
import dataclasses
import importlib
import inspect
import pathlib

import magpi
from magpi.lts import LtsGraph, explore

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "magpi"

# Public definitions kept although nothing above uses them, each with why.
ALLOWED = {
    "parse_process_text": "entry point: parses one process term without a file",
    "pretty": "entry point: the printer whose round trip the tests check",
    "typecheck": "entry point: checks one process against a context",
}


def _uses(tree_or_node) -> set:
    """The names a syntax tree refers to: names, attributes and the names
    an import brings in."""
    out = set()
    for node in ast.walk(tree_or_node):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
    return out


def _strings(tree) -> set:
    """The string constants of a tree: `bench/` wraps attributes by name."""
    return {node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def _definitions(tree) -> dict:
    """name -> node of each public module-level function and class."""
    return {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def _parse(path: pathlib.Path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def unused_definitions() -> list:
    """(module, name) of each public definition in `src/magpi` that no other
    part of the package, of `bench/` or of `scripts/` refers to."""
    modules = {p: _parse(p) for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}
    outside = set()
    for path in sorted((ROOT / "bench").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py")):
        tree = _parse(path)
        outside |= _uses(tree) | _strings(tree)
    inside = [(stmt, _uses(stmt)) for tree in modules.values() for stmt in tree.body]
    return [(path.stem, name) for path, tree in modules.items()
            for name, node in _definitions(tree).items()
            if name not in outside
            and not any(name in uses for stmt, uses in inside if stmt is not node)]


def test_every_public_definition_is_used_outside_the_tests():
    unused = [(m, n) for m, n in unused_definitions() if n not in ALLOWED]
    assert unused == [], "used only by tests (move to tests/oracles.py) or " \
        "by nothing (delete): " + ", ".join(f"{m}.{n}" for m, n in unused)


def test_allowlist_names_only_unused_definitions():
    # An allowlisted name that gains a use leaves the list.
    assert sorted(n for _, n in unused_definitions()) == sorted(ALLOWED)


def test_package_ships_no_test_oracles_or_dfs_order():
    # The reference oracles live in tests/oracles.py, the unused context
    # operators and pairwise session equality are gone, and `explore` walks
    # breadth-first only.
    gone = ("session_iso", "type_iso", "ast_equal", "protocol_equal", "compose",
            "insert_message", "exhaustive_small_step_oracle", "mirror_on_context",
            "session_equal")
    modules = [magpi] + [importlib.import_module(f"magpi.{p.stem}")
                         for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    assert [(m.__name__, n) for m in modules for n in gone if hasattr(m, n)] == []
    assert "order" not in inspect.signature(explore).parameters
    assert "order" not in {f.name for f in dataclasses.fields(LtsGraph)}
