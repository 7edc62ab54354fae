import argparse
import copy
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infpdb import approx
from infpdb import completion as completion_mod
from infpdb.cli import build_parser, main
from infpdb.core import Fact, Instance
from infpdb.specio import instance_lines, load_spec, parse_spec, save_spec, spec_to_json

GOLDEN = Path(__file__).resolve().parent / "golden"

# PYTHONPATH for a child interpreter that imports this checkout's infpdb
SRC = os.pathsep.join(
    p for p in (str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")) if p
)

EXAMPLE_TI = {
    "kind": "ti",
    "schema": {"R": 2},
    "universe": {"kind": "strings", "alphabet": "0123456789ABCD"},
    "head_facts": [
        {"relation": "R", "args": ["A", "1"], "p": "0.8"},
        {"relation": "R", "args": ["B", "1"], "p": "0.4"},
        {"relation": "R", "args": ["B", "2"], "p": "0.5"},
        {"relation": "R", "args": ["C", "3"], "p": "0.9"},
    ],
}

DYADIC_TAIL = {
    "kind": "ti",
    "schema": {"R": 2},
    "universe": {"kind": "strings", "alphabet": "0123456789ABCD"},
    "tail": {
        "rule": "geometric",
        "c": "1",
        "q": "0.5",
        "supply": {
            "type": "product",
            "relation": "R",
            "index_position": 2,
            "fixed": {"1": ["A", "B", "C", "D"]},
        },
        "exclude": [
            {"relation": "R", "args": ["A", "1"]},
            {"relation": "R", "args": ["B", "1"]},
            {"relation": "R", "args": ["B", "2"]},
            {"relation": "R", "args": ["C", "3"]},
        ],
    },
}


@pytest.fixture
def example_spec(tmp_path):
    path = tmp_path / "example.json"
    path.write_text(json.dumps(EXAMPLE_TI))
    return str(path)


@pytest.fixture
def tail_spec(tmp_path):
    path = tmp_path / "tail.json"
    path.write_text(json.dumps(DYADIC_TAIL))
    return str(path)


@pytest.fixture
def query_file(tmp_path):
    path = tmp_path / "query.txt"
    path.write_text("exists x. exists y. R(x, y)")
    return str(path)


# One malformed spec or instance file for each way a fact-holding object is
# refused, with its whole message.  The memo-* files repeat a valid fact with
# an element written as 1.0, true or "1": a reader that looked a fact up
# before checking its elements would accept them.
def _fact(relation="R", args=(1, 2), **more):
    return {"relation": relation, "args": list(args), **more}


def _head(relation="R", args=(1, 2), p="0.5", **more):
    return _fact(relation, args, p=p, **more)


def _ti(*head, universe=None, **sections):
    return {"kind": "ti", "schema": {"R": 2, "S": 1}, "universe": universe or {"kind": "naturals"},
            "head_facts": list(head), **sections}


def _bid(explicit, *head):
    return {**_ti(*head), "kind": "bid", "blocks": {"explicit": explicit}}


def _world(*facts, p="0.25", **more):
    return {"facts": list(facts), "p": p, **more}


def _finite(*worlds, kind="finite"):
    return {"kind": kind, "schema": {"R": 2, "S": 1}, "universe": {"kind": "naturals"}, "worlds": list(worlds)}


_STRINGS = {"kind": "strings", "alphabet": "0123456789ABCD"}
_TAIL = {"rule": "geometric", "c": "0.5", "q": "0.5", "supply": {"type": "enumeration", "relation": "R"}}

FACT_REJECTIONS = [
    pytest.param("spec", _ti(_head(), "R(1, 2)"),
                 "head_facts[1] must be a JSON object, got str", id="head-not-object"),
    pytest.param("spec", _ti({"args": [1, 2], "p": "0.5"}),
                 "head_facts[0].relation is missing", id="relation-missing"),
    pytest.param("spec", _ti({"relation": "R", "p": "0.5"}),
                 "head_facts[0].args is missing", id="args-missing"),
    pytest.param("spec", _ti(_head(), _fact()),
                 "head_facts[1].p is missing", id="p-missing"),
    pytest.param("spec", _ti(_head(prob="0.5")),
                 "head_facts[0].prob is not a known key", id="unknown-key"),
    pytest.param("spec", _ti({"zz": 1, "relation": "R", "aa": 2, "args": [1, 2], "p": "0.5"}),
                 "head_facts[0].zz is not a known key", id="first-unknown-key-named"),
    pytest.param("spec", _ti(_head("T")),
                 "head_facts[0].relation 'T' not in schema", id="relation-not-in-schema"),
    pytest.param("spec", _ti(_head(["R"])),
                 "head_facts[0].relation ['R'] not in schema", id="relation-not-hashable"),
    pytest.param("spec", _ti(_head(None)),
                 "head_facts[0].relation None not in schema", id="relation-null"),
    pytest.param("spec", _ti({"relation": "R", "args": "12", "p": "0.5"}),
                 "head_facts[0].args must be a list, got '12'", id="args-not-list"),
    pytest.param("spec", _ti({"relation": "R", "args": None, "p": "0.5"}),
                 "head_facts[0].args must be a list, got None", id="args-null"),
    pytest.param("spec", _ti(_head(args=(1, 2, 3))),
                 "head_facts[0].args has 3 elements, 'R' takes 2", id="wrong-arity"),
    pytest.param("spec", _ti(_head(args=("A", "Z")), universe=_STRINGS),
                 "head_facts[0].args[1] 'Z' not in universe", id="outside-strings"),
    pytest.param("spec", _ti(_head(args=("A", 1)), universe=_STRINGS),
                 "head_facts[0].args[1] 1 not in universe", id="int-on-strings"),
    pytest.param("spec", _ti(_head(args=(0, 2))),
                 "head_facts[0].args[0] 0 not in universe", id="zero-on-naturals"),
    pytest.param("spec", _ti(_head(args=(1, True))),
                 "head_facts[0].args[1] True not in universe", id="true-on-naturals"),
    pytest.param("spec", _ti(_head(args=(1.0, 2))),
                 "head_facts[0].args[0] 1.0 not in universe", id="float-on-naturals"),
    pytest.param("spec", _ti(_head(args=("1", 2))),
                 "head_facts[0].args[0] '1' not in universe", id="string-on-naturals"),
    pytest.param("spec", _ti(_head(p="nan")),
                 "head_facts[0].p must be a finite decimal number, got 'nan'", id="p-nan"),
    pytest.param("spec", _ti(_head(p="1e999")),
                 "head_facts[0].p must be a finite decimal number, got '1e999'", id="p-infinite"),
    pytest.param("spec", _ti(_head(p=True)),
                 "head_facts[0].p must be a finite decimal number, got True", id="p-bool"),
    pytest.param("spec", _ti({"relation": "T", "args": 5, "p": "x"}),
                 "head_facts[0].relation 'T' not in schema", id="relation-before-args"),
    pytest.param("spec", _ti({"relation": "R", "args": [0, 1], "p": "x"}),
                 "head_facts[0].args[0] 0 not in universe", id="args-before-p"),
    pytest.param("spec", _ti({"relation": "R", "args": [1, 2], "extra": 1}),
                 "head_facts[0].p is missing", id="p-before-unknown-key"),
    pytest.param("spec", _ti(_head("T"), 7),
                 "head_facts[1] must be a JSON object, got int", id="objects-before-fields"),
    pytest.param("spec", _ti(_head(args=(0,))),
                 "head_facts[0].args has 1 elements, 'R' takes 2", id="arity-before-elements"),
    pytest.param("spec", _ti(_head(), tail={**_TAIL, "exclude": [_fact(), 3]}),
                 "tail.exclude[1] must be a JSON object, got int", id="exclude-not-object"),
    pytest.param("spec", _ti(_head(), tail={**_TAIL, "exclude": [_fact(p="0.5")]}),
                 "tail.exclude[0].p is not a known key", id="exclude-takes-no-p"),
    pytest.param("spec", _ti(_head(), tail={**_TAIL, "exclude": [_fact(args=(1, "x"))]}),
                 "tail.exclude[0].args[1] 'x' not in universe", id="exclude-outside-universe"),
    pytest.param("spec", _bid([_fact(args=(1, 1.5), block="B")], _head()),
                 "blocks.explicit[0].args[1] 1.5 not in universe", id="explicit-outside-universe"),
    pytest.param("spec", _bid([_fact()], _head()),
                 "blocks.explicit[0].block is missing", id="explicit-block-missing"),
    pytest.param("spec", _bid([_fact(block={"b": 1})], _head()),
                 "blocks.explicit[0].block must be a JSON scalar, got dict", id="explicit-block-object"),
    pytest.param("spec", _bid([_fact(block="B", p="1")], _head()),
                 "blocks.explicit[0].p is not a known key", id="explicit-unknown-key"),
    pytest.param("spec", _bid({"R": 1}, _head()),
                 "blocks.explicit must be a list, got {'R': 1}", id="explicit-not-list"),
    pytest.param("spec", _finite(_world(p="1"), []),
                 "worlds[1] must be a JSON object, got list", id="world-not-object"),
    pytest.param("spec", _finite({"facts": []}),
                 "worlds[0].p is missing", id="world-p-missing"),
    pytest.param("spec", _finite(_world(p="inf")),
                 "worlds[0].p must be a finite decimal number, got 'inf'", id="world-p-not-finite"),
    pytest.param("spec", _finite(_world(p="1", weight=1)),
                 "worlds[0].weight is not a known key", id="world-unknown-key"),
    pytest.param("spec", _finite(_world(p="1") | {"facts": 5}),
                 "worlds[0].facts must be a list, got 5", id="world-facts-not-list"),
    pytest.param("spec", _finite(_world(_fact(args=(1,)), p="1")),
                 "worlds[0].facts[0].args has 1 elements, 'R' takes 2", id="world-fact-arity"),
    pytest.param("spec", _finite(_world(_fact(p="1"), p="1")),
                 "worlds[0].facts[0].p is not a known key", id="world-fact-unknown-key"),
    pytest.param("spec", _finite(_world(_fact(), _fact("S", (3,)), p="0.5"), _world(p="0.25"),
                                 _world(_fact("S", (3,)), _fact(), p="0.25")),
                 "worlds[2] lists the same instance as worlds[0]", id="world-listed-twice"),
    pytest.param("spec", _finite(_world(p="0.5"), {"facts": [], "x": 1}),
                 "worlds[1] lists the same instance as worlds[0]", id="world-twice-before-its-p"),
    pytest.param("spec", _finite(_world(p="0.5"), _world(p="0.5"), kind="completion"),
                 "worlds[1] lists the same instance as worlds[0]", id="completion-world-twice"),
    pytest.param("spec", _ti(_head(args=(1, 2)), _head(args=(1.0, 2))),
                 "head_facts[1].args[0] 1.0 not in universe", id="memo-float-after-int"),
    pytest.param("spec", _finite(_world(_fact("S", (1,)), p="0.5"), _world(_fact("S", (True,)), p="0.5")),
                 "worlds[1].facts[0].args[0] True not in universe", id="memo-true-after-int"),
    pytest.param("spec", _ti(_head("S", (1,)), tail={**_TAIL, "exclude": [_fact("S", ("1",))]}),
                 "tail.exclude[0].args[0] '1' not in universe", id="memo-string-after-int"),
    pytest.param("spec", _bid([_fact("S", (True,), block="B")], _head("S", (1,))),
                 "blocks.explicit[0].args[0] True not in universe", id="memo-true-after-int-in-explicit"),
    pytest.param("instance", [],
                 "instance must be a JSON object, got list", id="instance-not-object"),
    pytest.param("instance", {"facts": 5},
                 "facts must be a list, got 5", id="instance-facts-not-list"),
    pytest.param("instance", {"facts": [], "fact": []},
                 "fact is not a known key", id="instance-unknown-key"),
    pytest.param("instance", {"facts": [_fact(), "R(1, 2)"]},
                 "facts[1] must be a JSON object, got str", id="instance-fact-not-object"),
    pytest.param("instance", {"facts": [_fact(args=(1, -2))]},
                 "facts[0].args[1] -2 not in universe", id="instance-fact-outside-universe"),
    pytest.param("instance", {"facts": [_fact(p="1")]},
                 "facts[0].p is not a known key", id="instance-fact-takes-no-p"),
    pytest.param("instance", {"facts": [_fact(args=(1, 2)), _fact(args=(1, 2.0))]},
                 "facts[1].args[1] 2.0 not in universe", id="instance-memo-float-after-int"),
    pytest.param("instance", {"fact": 1, "facts": [_fact(args=(1, 0))]},
                 "facts[0].args[1] 0 not in universe", id="instance-fact-before-unknown-key"),
]


class TestValidate:
    def test_example_table(self, example_spec, capsys):
        assert main(["validate", example_spec]) == 0
        out = capsys.readouterr().out
        assert "TI, total mass 2.600, convergent, expected size 2.600" in out

    def test_completion_builds_its_fresh_space_once(self, monkeypatch, capsys):
        from infpdb import independence

        built, construct = [], independence.ti_construct
        for name, module in list(sys.modules.items()):
            if (name == "infpdb" or name.startswith("infpdb.")) and getattr(module, "ti_construct", None) is construct:
                monkeypatch.setattr(module, "ti_construct", lambda a: built.append(a) or construct(a))
        assert main(["validate", str(GOLDEN / "completion.json")]) == 0
        assert capsys.readouterr().out == (GOLDEN / "completion.validate.out").read_text()
        assert len(built) == 1
        doc = load_spec(str(GOLDEN / "completion.json"))
        assert completion_mod.fresh_mass(doc.space()) == doc.ti().total_mass

    def test_divergent_constant_tail(self, tmp_path, capsys):
        spec = {
            "kind": "ti",
            "schema": {"R": 1},
            "universe": {"kind": "naturals"},
            "tail": {"rule": "constant", "value": "0.1"},
        }
        path = tmp_path / "divergent.json"
        path.write_text(json.dumps(spec))
        assert main(["validate", str(path)]) == 2
        assert "DivergentAssignment" in capsys.readouterr().err

    def test_block_mass_rejection(self, tmp_path, capsys):
        spec = {
            "kind": "bid",
            "schema": {"R": 2},
            "universe": {"kind": "naturals"},
            "blocks": {"keys": {"R": 1}},
            "head_facts": [
                {"relation": "R", "args": [1, 1], "p": "0.6"},
                {"relation": "R", "args": [1, 2], "p": "0.6"},
            ],
        }
        path = tmp_path / "bid.json"
        path.write_text(json.dumps(spec))
        assert main(["validate", str(path)]) == 2
        assert "BlockMassExceedsOne" in capsys.readouterr().err

    def test_bid_spec_valid(self, tmp_path, capsys):
        spec = {
            "kind": "bid",
            "schema": {"R": 2},
            "universe": {"kind": "naturals"},
            "blocks": {"keys": {"R": 1}},
            "head_facts": [
                {"relation": "R", "args": [1, 1], "p": "0.3"},
                {"relation": "R", "args": [1, 2], "p": "0.4"},
                {"relation": "R", "args": [2, 1], "p": "0.5"},
            ],
        }
        path = tmp_path / "bid.json"
        path.write_text(json.dumps(spec))
        assert main(["validate", str(path)]) == 0
        assert "BID, total mass 1.200" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["validate", "/nonexistent/spec.json"]) == 2

    @pytest.mark.parametrize("raw", [2.5, "x", True])
    def test_non_integer_offset_is_validation_error(self, raw, tmp_path, capsys):
        spec = {
            "kind": "ti",
            "schema": {"R": 1},
            "universe": {"kind": "naturals"},
            "tail": {"rule": "geometric", "c": "0.5", "q": "0.5",
                     "supply": {"type": "enumeration", "offset": raw}},
        }
        path = tmp_path / "offset.json"
        path.write_text(json.dumps(spec))
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"ValidationError: tail.supply.offset must be an integer, got {raw!r}" in err

    @pytest.mark.parametrize("field", [
        "tail.supply.index_position", "tail.supply.fixed.1.5", "blocks.keys.S", "schema.S",
    ])
    def test_non_integer_fields_name_their_path(self, field, tmp_path, capsys):
        spec = copy.deepcopy(DYADIC_TAIL)
        spec.update(kind="bid", schema={"R": 2, "S": 2}, blocks={"keys": {"S": 1}})
        supply = spec["tail"]["supply"]
        edit = {
            "tail.supply.index_position": lambda: supply.update(index_position=2.5),
            "tail.supply.fixed.1.5": lambda: supply.update(fixed={"1.5": supply["fixed"]["1"]}),
            "blocks.keys.S": lambda: spec["blocks"]["keys"].update(S=2.5),
            "schema.S": lambda: spec["schema"].update(S=2.5),
        }
        edit[field]()
        path = tmp_path / "field.json"
        path.write_text(json.dumps(spec))
        assert main(["validate", str(path)]) == 2
        assert f"ValidationError: {field} must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("message", [
        "head_facts[1].p is missing",
        "head_facts[0].args must be a list, got 5",
        "a spec must be a JSON object, got list",
        "universe must be a JSON object, got str",
    ])
    def test_structural_errors_name_their_path(self, message, tmp_path, capsys):
        spec = copy.deepcopy(EXAMPLE_TI)
        if message.startswith("head_facts[1]"):
            del spec["head_facts"][1]["p"]
        elif message.startswith("head_facts[0]"):
            spec["head_facts"][0]["args"] = 5
        elif message.startswith("universe"):
            spec["universe"] = "naturals"
        else:
            spec = [spec]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(spec))
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"ValidationError: {message}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("message", [
        "tail.c is missing",
        "tail must be a JSON object, got str",
        "tail.supply.relation is missing",
        "tail.supply.index_position is missing",
        "tail.supply.fixed is missing",
        "tail.supply.fixed must be a JSON object, got list",
        "blocks.explicit[0].block is missing",
        "blocks must be a JSON object, got str",
    ])
    def test_tail_and_block_errors_name_their_path(self, message, tmp_path, capsys):
        spec = copy.deepcopy(DYADIC_TAIL)
        tail, supply = spec["tail"], spec["tail"]["supply"]
        edit = {
            "tail.c is missing": lambda: tail.pop("c"),
            "tail must be a JSON object, got str": lambda: spec.update(tail="geometric"),
            "tail.supply.relation is missing": lambda: supply.pop("relation"),
            "tail.supply.index_position is missing": lambda: supply.pop("index_position"),
            "tail.supply.fixed is missing": lambda: supply.pop("fixed"),
            "tail.supply.fixed must be a JSON object, got list": lambda: supply.update(fixed=[]),
            "blocks.explicit[0].block is missing": lambda: spec.update(
                kind="bid", schema={"R": 2, "S": 1},
                blocks={"explicit": [{"relation": "S", "args": ["1"]}]},
            ),
            "blocks must be a JSON object, got str": lambda: spec.update(kind="bid", blocks="keys"),
        }
        edit[message]()
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(spec))
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"ValidationError: {message}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("message", [
        "tail.supply.fixed.1 must be a list, got 5",
        "tail.exclude must be a list, got 5",
        "head_facts must be a list, got 5",
        "blocks.keys must be a JSON object, got list",
        "worlds[0] must be a JSON object, got str",
        "tail.supply.relation 5 not in schema",
        "tail.supply.relation 'S' not in schema",
    ])
    def test_wrong_json_types_name_their_path(self, message, tmp_path, capsys):
        spec = copy.deepcopy(DYADIC_TAIL)
        tail, supply = spec["tail"], spec["tail"]["supply"]
        edit = {
            "tail.supply.fixed.1 must be a list, got 5": lambda: supply.update(fixed={"1": 5}),
            "tail.exclude must be a list, got 5": lambda: tail.update(exclude=5),
            "head_facts must be a list, got 5": lambda: spec.update(head_facts=5),
            "blocks.keys must be a JSON object, got list": lambda: spec.update(
                kind="bid", blocks={"keys": ["R"]},
            ),
            "worlds[0] must be a JSON object, got str": lambda: spec.update(
                kind="completion", worlds=["x"],
            ),
            "tail.supply.relation 5 not in schema": lambda: supply.update(relation=5),
            "tail.supply.relation 'S' not in schema": lambda: tail.update(
                supply={"type": "enumeration", "relation": "S"},
            ),
        }
        edit[message]()
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(spec))
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"ValidationError: {message}" in err
        assert "Traceback" not in err

    def _assert_rejected(self, spec, message, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(spec))
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"ValidationError: {message}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("file, doc, message", FACT_REJECTIONS)
    def test_fact_object_rejections(self, file, doc, message, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(_ti(_head())))
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        argv = ["validate", str(path)] if file == "spec" else ["prob", str(spec), "--instance", str(path)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"ValidationError: {message}\n"

    def test_list_block_label_names_its_path(self, tmp_path, capsys):
        spec = copy.deepcopy(EXAMPLE_TI)
        spec.update(kind="bid", blocks={"explicit": [
            {"relation": "R", "args": ["A", "1"], "block": ["a"]},
        ]})
        self._assert_rejected(spec, "blocks.explicit[0].block must be a JSON scalar, got list", tmp_path, capsys)

    def test_non_string_alphabet_names_its_path(self, tmp_path, capsys):
        spec = copy.deepcopy(EXAMPLE_TI)
        spec["universe"] = {"kind": "strings", "alphabet": 5}
        self._assert_rejected(spec, "universe.alphabet must be a string, got 5", tmp_path, capsys)

    def test_block_key_outside_schema_names_its_path(self, tmp_path, capsys):
        spec = copy.deepcopy(EXAMPLE_TI)
        spec.update(kind="bid", blocks={"keys": {"S": 1}})
        self._assert_rejected(spec, "blocks.keys 'S' not in schema", tmp_path, capsys)

    def test_top_level_typo_is_rejected(self, tmp_path, capsys):
        golden = Path(__file__).resolve().parent / "golden" / "ti_product.json"
        spec = json.loads(golden.read_text())
        spec["head_fact"] = spec.pop("head_facts")
        self._assert_rejected(spec, "head_fact is not a known key", tmp_path, capsys)

    def test_tail_typo_is_rejected(self, tmp_path, capsys):
        spec = copy.deepcopy(DYADIC_TAIL)
        spec["tail"]["excludes"] = spec["tail"].pop("exclude")
        self._assert_rejected(spec, "tail.excludes is not a known key", tmp_path, capsys)

    def test_supply_typo_is_rejected(self, tmp_path, capsys):
        spec = copy.deepcopy(DYADIC_TAIL)
        spec["tail"]["supply"] = {"type": "enumeration", "relation": "R", "ofset": 3}
        self._assert_rejected(spec, "tail.supply.ofset is not a known key", tmp_path, capsys)

    def test_list_inside_fixed_names_its_path(self, tmp_path, capsys):
        spec = copy.deepcopy(DYADIC_TAIL)
        spec["tail"]["supply"]["fixed"]["1"][0] = ["A"]
        self._assert_rejected(
            spec, "tail.supply.fixed.1[0] ['A'] not in universe", tmp_path, capsys
        )

    @pytest.mark.parametrize("raw", ["x", "nan", "1e999", 10**400, True, None],
                             ids=["letters", "nan", "overflow", "huge-int", "bool", "null"])
    def test_bad_number_names_its_path(self, raw, tmp_path, capsys):
        spec = copy.deepcopy(EXAMPLE_TI)
        spec["head_facts"][1]["p"] = raw
        message = f"head_facts[1].p must be a finite decimal number, got {raw!r}"
        self._assert_rejected(spec, message, tmp_path, capsys)

    def test_non_json_constant_is_rejected(self, tmp_path, capsys):
        spec = copy.deepcopy(EXAMPLE_TI)
        spec["blocks"] = {"explicit": [{"relation": "R", "args": ["A", "1"], "block": math.nan}]}
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(spec))
        assert main(["validate", str(path)]) == 2
        assert f"ValidationError: {path}: invalid JSON: NaN is not a JSON value" in capsys.readouterr().err

    def test_empty_tail_is_read(self, tmp_path, capsys):
        spec = copy.deepcopy(EXAMPLE_TI)
        spec["tail"] = {}
        self._assert_rejected(spec, "tail.c is missing", tmp_path, capsys)

    @pytest.mark.parametrize("kind", ["finite", "completion"])
    def test_repeated_world_names_both_paths(self, kind, tmp_path, capsys):
        r1 = {"facts": [{"relation": "R", "args": [1]}], "p": "0.25"}
        spec = {"kind": kind, "schema": {"R": 1}, "universe": {"kind": "naturals"},
                "worlds": [{"facts": [], "p": "0.5"}, r1, dict(r1)]}
        self._assert_rejected(spec, "worlds[2] lists the same instance as worlds[1]", tmp_path, capsys)

    @pytest.mark.parametrize("raw, message", [
        ([], "instance must be a JSON object, got list"),
        ({"facts": 5}, "facts must be a list, got 5"),
    ])
    def test_instance_file_errors_name_their_path(self, raw, message, example_spec, tmp_path, capsys):
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(raw))
        assert main(["prob", example_spec, "--instance", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"ValidationError: {message}" in err
        assert "Traceback" not in err

class TestIndexNumerals:
    """A product tail over strings indexes its groups by ASCII decimal
    numerals; other Unicode digits are plain elements outside the supply."""

    SPEC = {
        "kind": "ti",
        "schema": {"R": 2},
        "universe": {"kind": "strings", "alphabet": "0123456789A\u0663\u00b2"},
        "tail": {"rule": "geometric", "c": "0.5", "q": "0.5",
                 "supply": {"type": "product", "relation": "R", "index_position": 2,
                            "fixed": {"1": ["A"]}}},
    }

    def test_arabic_indic_three_is_not_index_three(self, tmp_path, capsys):
        spec, instance = tmp_path / "spec.json", tmp_path / "d.json"
        spec.write_text(json.dumps(self.SPEC))
        instance.write_text(json.dumps({"facts": [{"relation": "R", "args": ["A", "\u0663"]}]}))
        assert main(["prob", "--instance", str(instance), str(spec)]) == 0
        assert capsys.readouterr().out == "probability = 0.0\n"

    @pytest.mark.parametrize("digit", ["\u0663", "\u00b2"], ids=["arabic-indic-three", "superscript-two"])
    def test_head_fact_with_a_unicode_digit_is_valid(self, digit, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({**self.SPEC, "head_facts": [
            {"relation": "R", "args": ["A", digit], "p": "0.5"}]}))
        assert main(["validate", str(spec)]) == 0
        assert capsys.readouterr().out == "TI, total mass 1.000, convergent, expected size 1.000\n"


class TestInProcess:
    """``main`` called many times in one process behaves as fresh processes."""

    def _fresh(self, argv):
        env = {**os.environ, "COLUMNS": "80", "PYTHONPATH": SRC}
        env.pop("PDB_WORLD_CAP", None)
        proc = subprocess.run(
            [sys.executable, "-m", "infpdb.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def _here(self, argv, capsys):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return code, out, err

    def test_calls_match_fresh_processes(self, tail_spec, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.delenv("PDB_WORLD_CAP", raising=False)
        calls = [
            ["sample", tail_spec, "--n", "5", "--seed", "7"],
            ["sample", tail_spec, "--n", "5"],
            ["sample", tail_spec, "--seed", "7"],
            ["validate", tail_spec],
        ]
        results = [self._here(argv, capsys) for argv in calls]
        assert [code for code, _, _ in results] == [0, 0, 1, 0]
        assert results[0][1] != results[1][1]
        for argv, result in zip(calls, results):
            assert result == self._fresh(argv), argv

    def test_help_lists_one_subcommand_per_line(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit):
            main(["--help"])
        lines = capsys.readouterr().out.splitlines()
        listed = lines[lines.index("Subcommands::") + 2:]
        listed = [line.strip() for line in listed[:listed.index("")]]
        assert [line.split()[1] for line in listed] == [
            "validate", "expected-size", "prob", "query", "sample", "complete", "oracle-compare",
        ]
        assert listed[3] == "pdb query --epsilon E --query FILE SPEC"
        assert max(map(len, lines)) <= 80

    @pytest.mark.parametrize("command", [
        [], ["validate"], ["expected-size"], ["prob"], ["query"], ["sample"],
        ["complete"], ["oracle-compare"],
    ])
    def test_help_matches_a_fresh_parser(self, command, example_spec, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit):
            build_parser.__wrapped__().parse_args([*command, "--help"])
        fresh = capsys.readouterr().out
        assert fresh.startswith("usage: pdb")
        assert main(["validate", example_spec]) == 0
        capsys.readouterr()
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main([*command, "--help"])
            assert exc.value.code == 0
            assert capsys.readouterr().out == fresh

    def test_parser_built_once(self, example_spec, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            if kwargs.get("prog") == "pdb":
                built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        build_parser.cache_clear()
        for _ in range(5):
            assert main(["validate", example_spec]) == 0
        assert len(built) == 1


class TestQuery:
    def test_boolean_query(self, example_spec, query_file, capsys):
        assert main(["query", example_spec, "--query", query_file, "--epsilon", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "probability = 0.994000" in out
        assert "certificate" in out

    def test_epsilon_usage_error(self, example_spec, query_file, capsys):
        assert main(["query", example_spec, "--query", query_file, "--epsilon", "0.9"]) == 1

    def test_open_query_table(self, tmp_path, capsys):
        spec = {
            "kind": "ti",
            "schema": {"R": 1},
            "universe": {"kind": "naturals"},
            "head_facts": [
                {"relation": "R", "args": [1], "p": "0.8"},
                {"relation": "R", "args": [2], "p": "0.4"},
            ],
        }
        spath = tmp_path / "s.json"
        spath.write_text(json.dumps(spec))
        qpath = tmp_path / "q.txt"
        qpath.write_text("R(x)")
        assert main(["query", str(spath), "--query", str(qpath), "--epsilon", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "(1)\t0.800000" in out
        assert "(2)\t0.400000" in out
        assert "probability <= 0.1" in out

    def test_syntax_error_exit(self, example_spec, tmp_path, capsys):
        qpath = tmp_path / "bad.txt"
        qpath.write_text("exists x. R(x,")
        assert main(["query", example_spec, "--query", str(qpath), "--epsilon", "0.1"]) == 2
        assert "QuerySyntaxError" in capsys.readouterr().err

    def test_world_cap_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PDB_WORLD_CAP", "10")
        spec = {
            "kind": "ti",
            "schema": {"R": 1},
            "universe": {"kind": "naturals"},
            "tail": {"rule": "geometric", "c": "1", "q": "0.99"},
        }
        spath = tmp_path / "slow.json"
        spath.write_text(json.dumps(spec))
        qpath = tmp_path / "q.txt"
        qpath.write_text("exists x. R(x)")
        assert main(["query", str(spath), "--query", str(qpath), "--epsilon", "0.05"]) == 3
        err = capsys.readouterr().err
        assert "required cap" in err
        # the library's message names no environment variable; the command line adds it
        assert "exceeds the cap 2**10; set PDB_WORLD_CAP to raise it (required cap = " in err

    def test_world_cap_counts_worlds_not_table_facts(self, tmp_path, capsys, monkeypatch):
        # the walk visits 2 worlds over 30 facts, far below the default cap
        monkeypatch.delenv("PDB_WORLD_CAP", raising=False)
        many = [{"relation": "R", "args": [i]} for i in range(1, 31)]
        spec = {
            "kind": "finite",
            "schema": {"R": 1},
            "universe": {"kind": "naturals"},
            "worlds": [{"facts": [], "p": "0.5"}, {"facts": many, "p": "0.5"}],
        }
        spath = tmp_path / "two_worlds.json"
        spath.write_text(json.dumps(spec))
        qpath = tmp_path / "q.txt"
        qpath.write_text("exists x. R(x)")
        assert main(["query", str(spath), "--query", str(qpath), "--epsilon", "0.1"]) == 0
        assert "probability = 0.500000" in capsys.readouterr().out
        # the cap's unit is a bit of the walk's branch count: 1 here, where n = 30
        monkeypatch.setenv("PDB_WORLD_CAP", "0")
        assert main(["query", str(spath), "--query", str(qpath), "--epsilon", "0.1"]) == 3
        assert capsys.readouterr().err == (
            "WorldCapExceeded: enumerating 2**1 worlds exceeds the cap 2**0; "
            "set PDB_WORLD_CAP to raise it (required cap = 1)\n"
        )

    def test_shadowed_quantifier(self, tmp_path, capsys):
        spec = {
            "kind": "ti",
            "schema": {"R": 1, "S": 1},
            "universe": {"kind": "naturals"},
            "head_facts": [
                {"relation": "R", "args": [1], "p": "0.5"},
                {"relation": "S", "args": [2], "p": "0.5"},
            ],
        }
        spath = tmp_path / "rs.json"
        spath.write_text(json.dumps(spec))
        qpath = tmp_path / "q.txt"
        qpath.write_text("exists x. ((exists x. S(x)) & R(x))")
        assert main(["query", str(spath), "--query", str(qpath), "--epsilon", "0.1"]) == 0
        captured = capsys.readouterr()
        assert "probability = 0.250000" in captured.out
        assert "Traceback" not in captured.err

    def test_bid_query_keeps_blocks_exclusive(self, tmp_path, capsys):
        spec = {
            "kind": "bid",
            "schema": {"R": 2},
            "universe": {"kind": "naturals"},
            "blocks": {"keys": {"R": 1}},
            "head_facts": [
                {"relation": "R", "args": [1, 1], "p": "0.5"},
                {"relation": "R", "args": [1, 2], "p": "0.25"},
            ],
        }
        spath, qpath = tmp_path / "bid.json", tmp_path / "q.txt"
        spath.write_text(json.dumps(spec))
        # both facts share the block of key 1, so they never occur together
        qpath.write_text("R(1, 1) & R(1, 2)")
        assert main(["query", str(spath), "--query", str(qpath), "--epsilon", "0.1"]) == 0
        assert "probability = 0.000000" in capsys.readouterr().out
        qpath.write_text("R(1, 1) | R(1, 2)")
        assert main(["query", str(spath), "--query", str(qpath), "--epsilon", "0.1"]) == 0
        assert "probability = 0.750000" in capsys.readouterr().out

    @pytest.mark.parametrize("kind", ["finite", "completion"])
    def test_query_takes_every_kind(self, kind, capsys):
        spec, query = str(GOLDEN / f"{kind}.json"), str(GOLDEN / "unary_query.txt")
        assert main(["query", spec, "--query", query, "--epsilon", "0.4"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("probability = ") and captured.err == ""

    def test_negated_open_query_lists_its_pattern(self, tmp_path, capsys):
        # every element past the listed ones is an answer with probability near 1
        qpath = tmp_path / "q.txt"
        qpath.write_text("!S(x)")
        assert main(["query", str(GOLDEN / "bid.json"), "--query", str(qpath), "--epsilon", "0.1"]) == 0
        *rows, note = capsys.readouterr().out.splitlines()
        assert rows[-1] == "(*1)\t1.000000"
        assert "*1, *2, ... stand for distinct elements that occur in no row without a *" in note

    # int() would read the last four as 3, 7, 10 and 5
    @pytest.mark.parametrize("raw", ["abc", "2.5", "-3", "\u0663", " 7 ", "1_0", "+5"])
    def test_bad_world_cap_is_usage_error(self, raw, example_spec, query_file, capsys, monkeypatch):
        monkeypatch.setenv("PDB_WORLD_CAP", raw)
        args = ["query", example_spec, "--query", query_file, "--epsilon", "0.1"]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert "PDB_WORLD_CAP must be a nonnegative integer" in err
        assert "Traceback" not in err


class TestSample:
    def test_deterministic_given_seed(self, example_spec, capsys):
        args = ["sample", example_spec, "--n", "50", "--delta", "0.001", "--seed", "9"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second
        assert len(first.strip().splitlines()) == 50

    def test_zero_samples(self, example_spec, capsys):
        assert main(["sample", example_spec, "--n", "0"]) == 0
        assert capsys.readouterr().out == ""

    def test_delta_validation(self, example_spec):
        assert main(["sample", example_spec, "--n", "1", "--delta", "2.0"]) == 1

    def test_tail_cap_exits_3_with_the_needed_count(self, tmp_path, capsys):
        spec = {"kind": "ti", "schema": {"R": 1}, "universe": {"kind": "naturals"},
                "tail": {"rule": "geometric", "c": "0.001", "q": "0.99999"}}
        path = tmp_path / "slow_tail.json"
        path.write_text(json.dumps(spec))
        assert main(["sample", str(path), "--n", "1", "--delta", "0.01"]) == 3
        err = capsys.readouterr().err
        assert "WorldCapExceeded: tail truncation needs" in err
        assert "(required n = " in err and "Traceback" not in err

    def test_marginal_frequencies(self, example_spec, capsys):
        assert main(["sample", example_spec, "--n", "20000", "--seed", "5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        hits = sum(
            any(f["args"] == ["A", "1"] for f in json.loads(line)["facts"])
            for line in lines
        )
        freq = hits / len(lines)
        assert abs(freq - 0.8) <= 3 * (0.8 * 0.2 / len(lines)) ** 0.5


# instances over naturals, and over strings whose alphabet holds a quote, a
# backslash, a non-ASCII letter and a control character
_ODD_ALPHABET = '"\\\u00e9\x07A'
_RELATIONS = st.sampled_from(["R", "S", '"\\\u00e9\x07'])
_NATURAL_FACTS = st.builds(Fact, _RELATIONS, st.lists(st.integers(1, 10**30), min_size=1, max_size=3))
_STRING_FACTS = st.builds(
    Fact, _RELATIONS, st.lists(st.text(alphabet=_ODD_ALPHABET, max_size=4), min_size=1, max_size=3)
)


class TestInstanceLines:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.lists(_NATURAL_FACTS, max_size=6), st.lists(_STRING_FACTS, max_size=6)),
                    max_size=5))
    def test_lines_equal_json_dumps(self, draws):
        instances = [Instance(facts) for facts in draws]
        expected = [
            json.dumps({"facts": [{"relation": f.relation, "args": list(f.args)} for f in d]}, sort_keys=True)
            for d in instances
        ]
        assert list(instance_lines(instances)) == expected


class TestComplete:
    def test_example_pipeline(self, example_spec, tail_spec, tmp_path, capsys):
        out_path = str(tmp_path / "completed.json")
        assert main(["complete", example_spec, tail_spec, "-o", out_path]) == 0
        capsys.readouterr()
        assert main(["validate", out_path]) == 0
        out = capsys.readouterr().out
        assert "tail mass 2.625" in out

    def test_unit_tail_probability(self, example_spec, tmp_path, capsys):
        bad_tail = {
            "kind": "ti",
            "schema": {"R": 2},
            "universe": {"kind": "strings", "alphabet": "0123456789ABCD"},
            "head_facts": [{"relation": "R", "args": ["D", "1"], "p": "1.0"}],
        }
        tpath = tmp_path / "bad.json"
        tpath.write_text(json.dumps(bad_tail))
        out_path = str(tmp_path / "c.json")
        assert main(["complete", example_spec, str(tpath), "-o", out_path]) == 2
        assert "UnitTailProbability" in capsys.readouterr().err

    def test_not_closed_without_c(self, tmp_path, capsys):
        base = {
            "kind": "finite",
            "schema": {"R": 1},
            "universe": {"kind": "naturals"},
            "worlds": [
                {"facts": [], "p": "0.5"},
                {"facts": [{"relation": "R", "args": [1]}, {"relation": "R", "args": [2]}], "p": "0.5"},
            ],
        }
        tail = {
            "kind": "ti",
            "schema": {"R": 1},
            "universe": {"kind": "naturals"},
            "head_facts": [{"relation": "R", "args": [9], "p": "0.25"}],
        }
        bpath, tpath = tmp_path / "b.json", tmp_path / "t.json"
        bpath.write_text(json.dumps(base))
        tpath.write_text(json.dumps(tail))
        out_path = str(tmp_path / "c.json")
        assert main(["complete", str(bpath), str(tpath), "-o", out_path]) == 2
        err = capsys.readouterr().err
        assert "NotClosed" in err and "R(" in err
        # with a closure constant the same completion goes through
        assert main(["complete", str(bpath), str(tpath), "--c", "0.5", "-o", out_path]) == 0


class TestDeepNesting:
    """Input nested past the recursion limit is a capability limit: exit 3
    and one ``NestingTooDeep`` line, not a traceback.  Blocks sure to take
    their one outcome do not nest the world walk."""

    def _one_line(self, capsys, where):
        err = capsys.readouterr().err
        assert err.splitlines() == [f"NestingTooDeep: {where}"]

    def test_spec_json_nested_past_the_limit(self, tmp_path, capsys):
        spath = tmp_path / "deep.json"
        depth = 100_000
        spath.write_text('{"kind": "ti", "schema": {"R": 1}, "head_facts": ' + "[" * depth + "]" * depth + "}")
        assert main(["validate", str(spath)]) == 3
        self._one_line(capsys, f"{spath}: JSON nests too deeply to read")

    def test_query_nested_past_the_parser(self, tmp_path, capsys):
        qpath = tmp_path / "q.txt"
        qpath.write_text("!" * 5_000 + "R('A', '1')")
        assert main(["query", str(GOLDEN / "ti_head.json"), "--query", str(qpath), "--epsilon", "0.1"]) == 3
        self._one_line(capsys, "query nests too deeply to parse")

    def test_parsed_query_nested_past_the_walk(self, tmp_path, capsys):
        qpath = tmp_path / "q.txt"
        qpath.write_text(" & ".join(["R(1, 2)"] * 1_200))
        assert main(["query", str(GOLDEN / "ti_head.json"), "--query", str(qpath), "--epsilon", "0.1"]) == 3
        self._one_line(capsys, "query or its world walk nests too deeply to evaluate")

    def test_sure_facts_past_the_recursion_limit(self, tmp_path, capsys, monkeypatch):
        spath, qpath = tmp_path / "sure.json", tmp_path / "q.txt"
        facts = [{"relation": "S", "args": [i], "p": "1"} for i in range(1, 1_201)]
        spath.write_text(json.dumps({"kind": "ti", "schema": {"S": 1}, "head_facts": facts}))
        qpath.write_text("exists x. S(x)")
        monkeypatch.setenv("PDB_WORLD_CAP", "2000")
        assert main(["query", str(spath), "--query", str(qpath), "--epsilon", "0.1"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "probability = 1.000000 (additive error <= 0.1)"


class TestTailIndicesPastTheFloatRange:
    """Iterated Cantor pairing roughly squares a fact's index per position,
    so ``R(5, ..., 5)`` of arity 12 already has an index past the float
    range, and arity 30 one of over a billion bits.  Such a fact gets
    probability 0.0 without its whole index, as ``c * q**i`` is 0.0 there."""

    def _spec(self, tmp_path, arity, head=(), **tail):
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({
            "kind": "ti", "schema": {"R": arity}, "universe": {"kind": "naturals"}, "head_facts": list(head),
            "tail": {"rule": "geometric", "c": "0.5", "q": "0.5", **tail},
        }))
        return str(path)

    @pytest.mark.parametrize("arity", [8, 12, 16, 20, 24, 30])
    def test_instance_fact_past_the_float_range(self, arity, tmp_path, capsys):
        ipath = tmp_path / "instance.json"
        ipath.write_text(json.dumps({"facts": [_fact(args=[5] * arity)]}))
        assert main(["prob", self._spec(tmp_path, arity), "--instance", str(ipath)]) == 0
        assert capsys.readouterr().out == "probability = 0.0\n"

    def test_head_fact_past_the_float_range_is_generated_by_the_tail(self, tmp_path, capsys):
        spec = self._spec(tmp_path, 30, [_head(args=[5] * 30)])
        assert main(["validate", spec]) == 2
        assert capsys.readouterr().err.startswith("DuplicateFact: fact R(5, 5,")

    def test_offset_past_the_float_range(self, tmp_path, capsys):
        spec = self._spec(tmp_path, 1, supply={"type": "enumeration", "offset": "1" + "0" * 400})
        assert main(["validate", spec]) == 0
        assert capsys.readouterr().out == "TI, total mass 0.000, convergent, expected size 0.000\n"

    def test_sample_of_a_wide_relation(self, tmp_path, capsys):
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({
            "kind": "ti", "schema": {"R": 3_000}, "universe": {"kind": "naturals"},
            "tail": {"rule": "geometric", "c": "1", "q": "0.9"},
        }))
        assert main(["sample", str(path), "--n", "1"]) == 0
        (line,) = capsys.readouterr().out.splitlines()
        assert all(len(f["args"]) == 3_000 for f in json.loads(line)["facts"])


class TestOracleCompare:
    def test_agreement(self, example_spec, query_file, capsys):
        assert main(["oracle-compare", example_spec, "--query", query_file]) == 0
        out = capsys.readouterr().out
        assert "max abs difference" in out

    def test_injected_error_detected(self, example_spec, query_file, capsys, monkeypatch):
        walk = approx.world_walk

        def shifted(*args):
            return walk(*args) + 1e-6

        monkeypatch.setattr(approx, "world_walk", shifted)
        assert main(["oracle-compare", example_spec, "--query", query_file]) == 2
        assert "MISMATCH" in capsys.readouterr().err

    def test_spec_with_tail_is_refused(self, capsys):
        spec, query = str(GOLDEN / "completion.json"), str(GOLDEN / "unary_query.txt")
        assert main(["oracle-compare", spec, "--query", query]) == 2
        assert "oracle comparison needs a head-only spec (no tail)" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", [
        json.loads((GOLDEN / "finite.json").read_text()),
        {k: v for k, v in json.loads((GOLDEN / "completion.json").read_text()).items() if k != "tail"},
        {"kind": "bid", "schema": {"R": 1}, "blocks": {"keys": {"R": 0}}, "head_facts": [
            {"relation": "R", "args": [1], "p": "0.25"}, {"relation": "R", "args": [2], "p": "0.5"},
            {"relation": "R", "args": [3], "p": "0.125"},
        ]},
    ], ids=["finite", "completion", "bid"])
    def test_agreement_on_every_kind(self, spec, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["oracle-compare", str(path), "--query", str(GOLDEN / "unary_query.txt")]) == 0
        out = capsys.readouterr().out
        assert out.count("marginal R(") == (2 if spec["kind"] == "finite" else 3)
        assert float(out.rsplit("max abs difference = ", 1)[1]) <= 1e-9

    def test_empty_spec_trivial_agreement(self, tmp_path, query_file, capsys):
        spec = {"kind": "ti", "schema": {"R": 2},
                "universe": {"kind": "strings", "alphabet": "0123456789ABCD"}}
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(spec))
        assert main(["oracle-compare", str(path), "--query", query_file]) == 0


class TestSectionsPerKind:
    SECTIONS = {
        "head_facts": [], "tail": {"c": "1", "q": "0.5"}, "blocks": {}, "worlds": [{"p": "1"}],
    }

    @pytest.mark.parametrize("name, refused", [
        ("ti_head", ["blocks", "worlds"]),
        ("bid", ["worlds"]),
        ("finite", ["head_facts", "tail", "blocks"]),
        ("completion", ["blocks"]),
    ])
    def test_section_a_kind_never_reads_is_refused(self, name, refused, tmp_path, capsys):
        spec = json.loads((GOLDEN / f"{name}.json").read_text())
        path = tmp_path / "spec.json"
        for section in refused:
            path.write_text(json.dumps({**spec, section: self.SECTIONS[section]}))
            assert main(["validate", str(path)]) == 2
            err = capsys.readouterr().err
            assert f"ValidationError: {section} is not a section of a {spec['kind']!r} spec" in err
            path.write_text(json.dumps({**spec, section: None}))
            assert main(["validate", str(path)]) == 0


class TestSpecRoundTrip:
    @pytest.mark.parametrize("raw", [EXAMPLE_TI, DYADIC_TAIL])
    def test_load_save_load_identity(self, raw, tmp_path):
        doc = parse_spec(raw)
        path = tmp_path / "roundtrip.json"
        save_spec(doc, path)
        again = load_spec(path)
        assert again == doc

    def test_finite_round_trip(self, tmp_path):
        raw = {
            "kind": "finite",
            "schema": {"R": 1},
            "universe": {"kind": "naturals"},
            "worlds": [
                {"facts": [], "p": "0.25"},
                {"facts": [{"relation": "R", "args": [1]}], "p": "0.75"},
            ],
        }
        doc = parse_spec(raw)
        path = tmp_path / "f.json"
        save_spec(doc, path)
        assert load_spec(path) == doc

    @pytest.mark.parametrize("section", [
        {"blocks": {"keys": {}}}, {"blocks": {}}, {"blocks": None}, {"tail": None},
    ])
    def test_optional_sections_count_by_presence(self, section, tmp_path):
        raw = {**EXAMPLE_TI, "kind": "bid", **section}
        doc = parse_spec(raw)
        assert (doc.blocks is None) == (raw.get("blocks") is None)
        assert doc.tail is None
        path = tmp_path / "sections.json"
        save_spec(doc, path)
        assert load_spec(path) == doc

    def test_probabilities_written_as_strings(self):
        doc = parse_spec(EXAMPLE_TI)
        data = spec_to_json(doc)
        assert all(isinstance(h["p"], str) for h in data["head_facts"])
