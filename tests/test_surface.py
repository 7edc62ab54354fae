"""The package's surface: every module-level function and class in
``src/infpdb``, and every method and property of those classes other than
a dunder, has a caller outside the tests, only the command line reads the
environment, and README's library example runs on what ``infpdb``
exports.

A definition that only the tests use belongs in ``tests/helpers.py``.  A
name counts as used where ``src/`` (other than ``__init__.py``, whose
exports call nothing), ``scripts/`` or ``perfbench/`` reads it: as a name,
an attribute or an imported name, anywhere outside its own definition.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "infpdb"
# names defined ahead of their first caller: building BID spaces in code
ALLOWED = {"BlockPartition.by_keys", "BlockPartition.explicit_blocks"}
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _references(tree: ast.Module) -> list[tuple[str, frozenset[ast.AST]]]:
    """Every name the module reads, with the definitions it is read in."""
    out = []

    def visit(node: ast.AST, inside: frozenset[ast.AST]) -> None:
        if isinstance(node, DEFINITIONS):
            inside = inside | {node}
        if isinstance(node, ast.Name):
            out.append((node.id, inside))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, inside))
        elif isinstance(node, ast.alias):
            out.append((node.name.rsplit(".", 1)[-1], inside))
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return out


def _definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """``name`` of each module-level function or class, and ``Class.name``
    of each method or property of such a class that is not a dunder."""
    out = []
    for node in tree.body:
        if isinstance(node, DEFINITIONS):
            out.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, DEFINITIONS[:2]) and not re.fullmatch(r"__\w+__", member.name):
                    out.append((f"{node.name}.{member.name}", member))
    return out


def unreferenced_definitions() -> list[str]:
    """``module.name`` of each definition (:func:`_definitions`) in the
    package that nothing reads outside its own body."""
    own = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    readers = own + sorted((REPO / "scripts").glob("*.py")) + sorted((REPO / "perfbench").glob("*.py"))
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in readers}
    references = [ref for tree in trees.values() for ref in _references(tree)]
    unused = []
    for path in own:
        for qualname, node in _definitions(trees[path]):
            if not any(name == node.name and node not in inside for name, inside in references):
                unused.append(f"{path.stem}.{qualname}")
    return unused


def test_src_defines_nothing_only_the_tests_use():
    unused = [name for name in unreferenced_definitions() if name.split(".", 1)[1] not in ALLOWED]
    assert unused == [], f"move to tests/helpers.py or give a caller: {unused}"


def test_the_allowed_names_are_still_defined_and_unused():
    # an entry that gains a caller, or goes, leaves the list
    assert {name.split(".", 1)[1] for name in unreferenced_definitions()} >= ALLOWED


def environment_readers() -> list[str]:
    """``module:line`` of each read of ``os.environ`` or ``os.getenv``, or
    import of either, in the package."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = [a.name for a in node.names] if isinstance(node, ast.ImportFrom) and node.module == "os" else []
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "os":
                names = [node.attr]
            if {"environ", "getenv"} & set(names):
                out.append(f"{path.stem}:{node.lineno}")
    return out


def test_only_the_command_line_reads_the_environment():
    # a library call takes its settings as arguments
    readers = environment_readers()
    assert [r for r in readers if not r.startswith("cli:")] == []
    assert readers, "cli reads PDB_WORLD_CAP"


def test_readme_library_example_runs_on_the_exports():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    example = re.search(r"```python\n(from infpdb import \*\n.*?approx_boolean.*?)```", readme, re.S)
    assert example, "README has no library example"
    namespace: dict = {}
    exec(compile(example.group(1), "README.md", "exec"), namespace)
    assert abs(namespace["p"] - 0.711212) <= 0.01
