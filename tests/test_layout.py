"""What ships in `src/magpi` is what the commands, the benchmark and the
scripts run: every public module-level function and class there, and every
public method and property of a public class, is used by the package
itself, by `bench/` or by `scripts/`.  Reference oracles that only tests
use live in `tests/oracles.py`."""
import ast
import dataclasses
import importlib
import inspect
import pathlib

import magpi
from magpi.lts import LtsGraph, explore

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "magpi"

# Public definitions kept although nothing above uses them, each with a
# one-line reason; a method is named `Class.method`.
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


def _attributes(tree_or_node) -> set:
    """The attribute names a syntax tree reads or writes (`x.name`): the
    only way a method or property is reached."""
    return {node.attr for node in ast.walk(tree_or_node)
            if isinstance(node, ast.Attribute)}


def _strings(tree) -> set:
    """The string constants of a tree: `bench/` wraps attributes by name."""
    return {node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _definitions(tree) -> dict:
    """name -> node of each public module-level function and class, and of
    each public method and property of such a class, as `Class.name`."""
    out = {}
    for node in tree.body:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)) and not node.name.startswith("_"):
            out[node.name] = node
            if isinstance(node, ast.ClassDef):
                out.update((f"{node.name}.{m.name}", m) for m in node.body
                           if isinstance(m, FUNCTIONS) and not m.name.startswith("_"))
    return out


def _parse(path: pathlib.Path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def unused_definitions() -> list:
    """(module, name) of each public definition in `src/magpi` that no other
    part of the package, of `bench/` or of `scripts/` refers to.  A method
    or property counts as used when an attribute of its name is read
    anywhere else, in its own class too; a bare name of the same spelling
    does not count.  The check does not know the object's class, so a
    method that shares its name with another attribute read elsewhere
    passes."""
    modules = {p: _parse(p) for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}
    outside, outside_attrs = set(), set()
    for path in sorted((ROOT / "bench").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py")):
        tree = _parse(path)
        outside |= _uses(tree) | _strings(tree)
        outside_attrs |= _attributes(tree) | _strings(tree)
    stmts = [stmt for tree in modules.values() for stmt in tree.body]
    top = [(stmt, _uses(stmt)) for stmt in stmts]
    # a method is also looked for in the other statements of its class
    parts = [(part, _attributes(part)) for stmt in stmts
             for part in (stmt.body if isinstance(stmt, ast.ClassDef) else [stmt])]
    out = []
    for path, tree in modules.items():
        for name, node in _definitions(tree).items():
            short = name.rsplit(".", 1)[-1]
            seen, used = (outside_attrs, parts) if "." in name else (outside, top)
            if short not in seen and not any(
                    short in uses for stmt, uses in used if stmt is not node):
                out.append((path.stem, name))
    return out


def test_every_public_definition_is_used_outside_the_tests():
    unused = [(m, n) for m, n in unused_definitions() if n not in ALLOWED]
    assert unused == [], "used only by tests (move to tests/oracles.py) or " \
        "by nothing (delete): " + ", ".join(f"{m}.{n}" for m, n in unused)


def test_allowlist_names_only_unused_definitions():
    # An allowlisted name that gains a use leaves the list.
    assert sorted(n for _, n in unused_definitions()) == sorted(ALLOWED)
    assert all(reason and "\n" not in reason for reason in ALLOWED.values())


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
