"""The package keeps zero runtime dependencies: it imports only the
standard library, and ``pyproject.toml`` declares no dependency.  Nor does
it pull in the heavier standard modules that ``dataclasses`` brings."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "infpdb").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_the_standard_library(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    names += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 0]
    outside = sorted({n.split(".")[0] for n in names} - sys.stdlib_module_names)
    assert not outside, f"{path.name} imports {outside}"


def test_pyproject_declares_no_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert project["dependencies"] == []


def test_cli_import_leaves_out_dataclasses_inspect_and_ast():
    """Importing the package costs only its own modules' memory: nothing in
    it pulls in ``dataclasses`` and, through it, ``inspect`` and ``ast``."""
    code = "import sys, infpdb.cli; print(sorted({'dataclasses', 'inspect', 'ast'} & set(sys.modules)))"
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
