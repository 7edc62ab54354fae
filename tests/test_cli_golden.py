"""Exact CLI output against golden files.

Each case runs one ``pdb`` command on the inputs in ``tests/golden/`` and
compares its stdout (for ``complete``, the written spec file) byte for
byte with ``tests/golden/<case>.out``, as do the stdout of
``scripts/openworld_pipeline.py`` and ``scripts/divergence_demo.py``.  The
one exception is the BID ``prob`` line, whose interval ends are compared
by value with a relative tolerance of 1e-14.

After a deliberate output change, regenerate the golden files with::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from infpdb.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
REPO = GOLDEN.parent.parent
SPACE_KINDS = ("ti_tail", "bid", "finite", "completion")
BY_VALUE = {"bid.prob": 1e-14}
_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e-?\d+)?")


def _g(name: str) -> str:
    return str(GOLDEN / name)


def cli_cases() -> dict[str, list[str]]:
    cases: dict[str, list[str]] = {}
    for kind in SPACE_KINDS:
        spec = _g(f"{kind}.json")
        cases[f"{kind}.validate"] = ["validate", spec]
        cases[f"{kind}.expected-size"] = ["expected-size", spec]
        cases[f"{kind}.prob"] = ["prob", spec, "--instance", _g(f"{kind}.instance.json")]
        cases[f"{kind}.sample"] = ["sample", spec, "--n", "20", "--seed", "7"]
    # a product-supply tail with exclusions, and an instance fact past the
    # enclosure's natural stop
    cases["ti_product.prob"] = [
        "prob", _g("ti_product.json"), "--instance", _g("ti_product.instance.json")
    ]
    for space, query in itertools.product(("ti_head", "bid"), ("query", "open_query", "two_var_query")):
        cases[f"{space}.{query}"] = [
            "query", _g(f"{space}.json"), "--query", _g(f"{query}.txt"), "--epsilon", "0.1"
        ]
    # the table and completion specs are over R/1; a coarse epsilon keeps the
    # completion's tail short
    for space, query, eps in (
        ("finite", "query", "0.1"), ("completion", "query", "0.4"), ("completion", "open_query", "0.4")
    ):
        cases[f"{space}.{query}"] = [
            "query", _g(f"{space}.json"), "--query", _g(f"unary_{query}.txt"), "--epsilon", eps
        ]
    return cases


def run_cli(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, f"pdb {' '.join(argv)} exited {code}"
    return out.getvalue()


def run_complete() -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "completed.json")
        run_cli(["complete", _g("ti_head.json"), _g("fresh_tail.json"), "-o", path])
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()


def run_script(name: str, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / name), *args],
        capture_output=True, text=True, env=env, check=True, timeout=120,
    )
    return proc.stdout


def actual_outputs() -> dict[str, object]:
    """Case name -> zero-argument function producing the output."""
    outputs: dict[str, object] = {
        name: functools.partial(run_cli, argv) for name, argv in cli_cases().items()
    }
    outputs["complete"] = run_complete
    outputs["openworld_pipeline"] = functools.partial(run_script, "openworld_pipeline.py", "--seed", "0")
    outputs["divergence_demo"] = functools.partial(run_script, "divergence_demo.py")
    return outputs


def _expected(name: str) -> str:
    with open(GOLDEN / f"{name}.out", "r", encoding="utf-8", newline="") as fh:
        return fh.read()


@pytest.mark.parametrize("name", sorted(actual_outputs()))
def test_golden_output(name):
    actual = actual_outputs()[name]()
    expected = _expected(name)
    rel = BY_VALUE.get(name)
    if rel is None:
        assert actual == expected
        return
    assert _NUMBER.sub("#", actual) == _NUMBER.sub("#", expected)
    got = [float(x) for x in _NUMBER.findall(actual)]
    want = [float(x) for x in _NUMBER.findall(expected)]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert math.isclose(g, w, rel_tol=rel, abs_tol=0.0), (g, w)


if __name__ == "__main__":
    for case, produce in actual_outputs().items():
        with open(GOLDEN / f"{case}.out", "w", encoding="utf-8", newline="") as fh:
            fh.write(produce())
