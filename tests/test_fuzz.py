"""Fuzz the input boundary with mutated golden specs and query text.

Each example runs ``pdb`` in-process and checks the error contract: the
exit code is 0, 1, 2 or 3, no exception escapes ``cli.main`` and stderr
holds no traceback.  A spec that loads must survive save and load
unchanged, a spec that does not must fail with a ``ValidationError``, and
query text that parses must print back to the same formula.

The examples are derandomized.  A low ``PDB_WORLD_CAP`` and a large
``--delta`` keep every example cheap: a mutated tail that decays slowly
fails fast on a cap (exit 3) instead of being enumerated.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infpdb.cli import main
from infpdb.errors import QuerySyntaxError, ValidationError
from infpdb.fo import parse, print_formula
from infpdb.specio import load_spec, save_spec

GOLDEN = Path(__file__).resolve().parent / "golden"
SPECS = {
    p.name.removesuffix(".json"): json.loads(p.read_text())
    for p in sorted(GOLDEN.glob("*.json"))
    if not p.name.endswith(".instance.json")
}
INSTANCES = {name: json.loads((GOLDEN / f"{name}.instance.json").read_text())
             for name in SPECS if (GOLDEN / f"{name}.instance.json").exists()}
QUERIES = [(GOLDEN / name).read_text() for name in ("query.txt", "open_query.txt")]
QUERY_SPEC = GOLDEN / "ti_head.json"
QUERY_SCHEMA = load_spec(QUERY_SPEC).schema

# values a mutation may put anywhere: every JSON type, the spec's own
# words and numbers just outside their ranges
VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 30), st.integers(), st.floats(), st.text(max_size=3),
    st.sampled_from([
        "0.5", "1", "0", "-1", "2.5", "1e999", "x", "R", "S", "A", "ti", "bid", "finite",
        "completion", "naturals", "strings", "enumeration", "product", "geometric", "constant",
    ]),
)
QUERY_PIECES = st.sampled_from(
    [*"()!&|=,.'xyzRS019 \t_A", "->", "exists ", "forall ", "²", "R(x, y)", "'1'", "''", "'a''b'"]
)


def _slots(doc) -> list[tuple]:
    """(container, key) for every value below the root of a JSON tree."""
    out: list[tuple] = []

    def walk(node):
        pairs = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
        for key, value in list(pairs):
            out.append((node, key))
            walk(value)

    walk(doc)
    return out


@st.composite
def mutated(draw, doc):
    """``doc`` after one to three edits: delete, replace, wrap in a list,
    nest in an object, rename a key or add one."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        slots = _slots(doc)
        if not slots:
            break
        # hypothesis favours early elements; the deep fields come last
        node, key = draw(st.sampled_from(slots[::-1]))
        edit = draw(st.sampled_from(["delete", "replace", "wrap", "nest", "rename", "add"]))
        if edit == "delete":
            del node[key]
        elif edit == "replace":
            node[key] = draw(VALUES)
        elif edit == "wrap":
            node[key] = [node[key]]
        elif edit == "nest":
            node[key] = {str(key): node[key]}
        elif isinstance(node, dict):
            name = str(key) + draw(st.sampled_from(["s", "_", "x", ""]))
            node[name] = node.pop(key) if edit == "rename" else draw(VALUES)
    return doc


@st.composite
def mutated_specs(draw):
    name = draw(st.sampled_from(sorted(SPECS)))
    spec = draw(mutated(SPECS[name]))
    instance = INSTANCES.get(name)
    if instance is not None and draw(st.booleans()):
        instance = draw(mutated(instance))
    return spec, instance


@st.composite
def mutated_queries(draw):
    text = draw(st.sampled_from(QUERIES))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        j = i + draw(st.integers(0, 2))
        text = text[:i] + draw(st.sampled_from(["", draw(QUERY_PIECES)])) + text[j:]
    return text


def run(argv: list[str]) -> int:
    """``pdb argv`` in-process; asserts the exit code and a clean stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse reports a usage error this way
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    return code


@pytest.fixture(scope="module")
def workdir(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module", autouse=True)
def low_world_cap():
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PDB_WORLD_CAP", "6")
        yield


def fuzz(max_examples: int):
    return settings(derandomize=True, max_examples=max_examples, deadline=None, database=None)


@fuzz(150)
@given(case=mutated_specs())
def test_mutated_spec_keeps_the_error_contract(case, workdir):
    spec, instance = case
    spec_path, instance_path, again = workdir / "spec.json", workdir / "instance.json", workdir / "again.json"
    spec_path.write_text(json.dumps(spec))
    query = str(GOLDEN / "query.txt")
    commands = [
        ["validate", str(spec_path)],
        ["expected-size", str(spec_path)],
        ["sample", str(spec_path), "--n", "3", "--delta", "0.5"],
        ["query", str(spec_path), "--query", query, "--epsilon", "0.45"],
    ]
    if instance is not None:
        instance_path.write_text(json.dumps(instance))
        commands.append(["prob", str(spec_path), "--instance", str(instance_path)])
    for argv in commands:
        run(argv)
    try:
        doc = load_spec(spec_path)
    except ValidationError:
        return
    save_spec(doc, again)
    assert load_spec(again) == doc


@fuzz(300)
@given(text=mutated_queries())
def test_mutated_query_keeps_the_error_contract(text, workdir):
    try:
        f = parse(text, QUERY_SCHEMA)
    except QuerySyntaxError:
        pass
    else:
        assert parse(print_formula(f), QUERY_SCHEMA) == f
    query_path = workdir / "query.txt"
    query_path.write_text(text)
    run(["query", str(QUERY_SPEC), "--query", str(query_path), "--epsilon", "0.45"])
