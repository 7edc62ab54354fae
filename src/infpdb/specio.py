"""Loading and saving the self-describing JSON spec format.

One format covers all four kinds of space so that completions can
compose a base with a tail without translation::

    {
      "kind": "ti" | "bid" | "finite" | "completion",
      "schema": {"R": 2, "S": 1},
      "universe": {"kind": "naturals"} | {"kind": "strings", "alphabet": "01"},
      "head_facts": [{"relation": "R", "args": ["A", "1"], "p": "0.8"}, ...],
      "tail": {
        "rule": "geometric", "c": "1", "q": "0.5",          # or "constant", "value"
        "supply": {"type": "enumeration", "relation": "R", "offset": 0}
                | {"type": "product", "relation": "R", "index_position": 2,
                   "fixed": {"1": ["A", "B", "C", "D"]}},
        "exclude": [{"relation": "R", "args": ["A", "1"]}, ...]
      },
      "blocks": {"keys": {"R": 1}, "explicit": [{"relation": ..., "args": ..., "block": "B1"}]},
      "worlds": [{"facts": [{"relation": ..., "args": ...}], "p": "0.5"}, ...]
    }

``head_facts``/``tail`` describe the independent facts of a ``ti`` or
``bid`` space, and the *fresh* facts of a ``completion`` (whose base
lives in ``worlds``).  Probabilities are serialized as decimal strings
to avoid binary-float drift across platforms.
"""

from __future__ import annotations

import json
from pathlib import Path

from .completion import Completion, FactProbabilityAssignment, complete
from .core import Fact, FiniteDiscretePDB, Instance, Schema
from .errors import ValidationError
from .independence import (
    BIDPdb,
    BlockPartition,
    ConstantTail,
    EnumerationSupply,
    GeometricTail,
    ProductSupply,
    Tail,
    TIPdb,
    bid_construct,
    ti_construct,
)
from .record import Record
from .universe import FactEnumeration, Universe

KINDS = ("ti", "bid", "finite", "completion")


class SpecDocument(Record):
    """Parsed contents of a spec file."""

    kind: str
    schema: Schema
    universe: Universe
    head: tuple[tuple[Fact, float], ...] = ()
    tail: Tail | None = None
    blocks: BlockPartition | None = None
    worlds: tuple[tuple[Instance, float], ...] | None = None

    def assignment(self) -> FactProbabilityAssignment:
        return FactProbabilityAssignment(self.head, self.tail)

    def ti(self) -> TIPdb:
        return ti_construct(self.assignment())

    def bid(self) -> BIDPdb:
        partition = self.blocks if self.blocks is not None else BlockPartition.singletons()
        return bid_construct(partition, self.assignment())

    def finite(self) -> FiniteDiscretePDB:
        if self.worlds is None:
            raise ValidationError("spec has no worlds table")
        return FiniteDiscretePDB(self.schema, self.universe, dict(self.worlds))

    def completion(self) -> Completion:
        return complete(self.finite(), self.assignment())

    def space(self) -> BIDPdb | FiniteDiscretePDB | Completion:
        """The space of this spec's kind; every kind's space offers
        ``expected_size``, ``instance_prob(d)`` and ``sample(rng, delta)``."""
        build = {"ti": self.ti, "bid": self.bid, "finite": self.finite, "completion": self.completion}
        return build[self.kind]()


_REQUIRED = object()


def _object(raw, path: str) -> dict:
    if not isinstance(raw, dict):
        raise ValidationError(f"{path} must be a JSON object, got {type(raw).__name__}")
    return raw


def _list(raw, path: str) -> list:
    if not isinstance(raw, list):
        raise ValidationError(f"{path} must be a list, got {raw!r}")
    return raw


def _relation(raw, schema: Schema, path: str):
    if raw not in schema:
        raise ValidationError(f"{path} {raw!r} not in schema")
    return raw


def _field(obj, key: str, path: str, default=_REQUIRED):
    """``obj[key]`` of a JSON object, else ``default``; a ValidationError
    naming the path when ``obj`` is no object or a required key is missing."""
    if key in _object(obj, path):
        return obj[key]
    if default is _REQUIRED:
        raise ValidationError(f"{path}.{key} is missing")
    return default


def _parse_fact(obj: dict, schema: Schema, universe: Universe, path: str) -> Fact:
    relation = _field(obj, "relation", path)
    args = tuple(_list(_field(obj, "args", path), f"{path}.args"))
    _relation(relation, schema, f"{path}.relation")
    if len(args) != schema.arity_of(relation):
        raise ValidationError(
            f"fact {relation}{args} has wrong arity for schema"
        )
    for e in args:
        if not universe.contains(e):
            raise ValidationError(f"element {e!r} of fact {relation}{args} not in universe")
    return Fact(relation, args)


def _parse_facts(items, schema: Schema, universe: Universe, path: str) -> list[Fact]:
    return [
        _parse_fact(obj, schema, universe, f"{path}[{i}]")
        for i, obj in enumerate(_list(items, path))
    ]


def _fact_to_json(f: Fact) -> dict:
    return {"relation": f.relation, "args": list(f.args)}


def _parse_number(raw) -> float:
    if isinstance(raw, str):
        return float(raw)
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        return float(raw)
    raise ValidationError(f"number must be a decimal string, got {raw!r}")


def _parse_int(raw, path: str) -> int:
    """An integer field: an int, an integral float or a decimal integer string."""
    if isinstance(raw, int) and not isinstance(raw, bool):
        return raw
    if isinstance(raw, float) and raw.is_integer() or (
        isinstance(raw, str) and raw.removeprefix("-").isdecimal()
    ):
        return int(raw)
    raise ValidationError(f"{path} must be an integer, got {raw!r}")


def _parse_tail(obj: dict, schema: Schema, universe: Universe) -> Tail:
    enumeration = FactEnumeration(schema, universe)
    supply_obj = _field(obj, "supply", "tail", {"type": "enumeration"})
    stype = _field(supply_obj, "type", "tail.supply", "enumeration")
    if stype == "enumeration":
        relation = _field(supply_obj, "relation", "tail.supply", None)
        supply = EnumerationSupply(
            enumeration,
            relation=None if relation is None else _relation(relation, schema, "tail.supply.relation"),
            offset=_parse_int(supply_obj.get("offset", 0), "tail.supply.offset"),
        )
    elif stype == "product":
        fixed_obj = _object(_field(supply_obj, "fixed", "tail.supply"), "tail.supply.fixed")
        fixed = tuple(sorted(
            ((_parse_int(pos, f"tail.supply.fixed.{pos}"),
              tuple(_list(values, f"tail.supply.fixed.{pos}")))
             for pos, values in fixed_obj.items()), key=lambda pv: pv[0]
        ))
        supply = ProductSupply(
            enumeration,
            relation=_relation(
                _field(supply_obj, "relation", "tail.supply"), schema, "tail.supply.relation"
            ),
            index_position=_parse_int(
                _field(supply_obj, "index_position", "tail.supply"), "tail.supply.index_position"
            ),
            fixed=fixed,
        )
    else:
        raise ValidationError(f"unknown tail supply type {stype!r}")
    exclude = frozenset(_parse_facts(obj.get("exclude", []), schema, universe, "tail.exclude"))
    rule = obj.get("rule", "geometric")
    if rule == "geometric":
        return GeometricTail(
            supply,
            c=_parse_number(_field(obj, "c", "tail")),
            q=_parse_number(_field(obj, "q", "tail")),
            exclude=exclude,
        )
    if rule == "constant":
        return ConstantTail(supply, value=_parse_number(_field(obj, "value", "tail")), exclude=exclude)
    raise ValidationError(f"unknown tail rule {rule!r}")


def _tail_to_json(tail: Tail) -> dict:
    supply = tail.supply
    if isinstance(supply, EnumerationSupply):
        supply_obj: dict = {"type": "enumeration", "offset": supply.offset}
        if supply.relation is not None:
            supply_obj["relation"] = supply.relation
    else:
        supply_obj = {
            "type": "product",
            "relation": supply.relation,
            "index_position": supply.index_position,
            "fixed": {str(pos): list(values) for pos, values in supply.fixed},
        }
    out: dict = {"supply": supply_obj}
    if isinstance(tail, GeometricTail):
        out["rule"] = "geometric"
        out["c"] = repr(tail.c)
        out["q"] = repr(tail.q)
    else:
        out["rule"] = "constant"
        out["value"] = repr(tail.value)
    if tail.exclude:
        out["exclude"] = [_fact_to_json(f) for f in sorted(tail.exclude, key=Fact.sort_key)]
    return out


def _block_label(e, path: str):
    label = _field(e, "block", path)
    if isinstance(label, (list, dict)):
        raise ValidationError(f"{path}.block must be a JSON scalar, got {type(label).__name__}")
    return label


def _parse_blocks(obj: dict, schema: Schema, universe: Universe) -> BlockPartition:
    keys = tuple(
        (_relation(r, schema, "blocks.keys"), _parse_int(j, f"blocks.keys.{r}"))
        for r, j in _object(_field(obj, "keys", "blocks", {}), "blocks.keys").items()
    )
    explicit = tuple(
        (_parse_fact(e, schema, universe, f"blocks.explicit[{i}]"),
         _block_label(e, f"blocks.explicit[{i}]"))
        for i, e in enumerate(_list(_field(obj, "explicit", "blocks", []), "blocks.explicit"))
    )
    return BlockPartition(key_attributes=keys, explicit=explicit)


def _blocks_to_json(blocks: BlockPartition) -> dict:
    out: dict = {}
    if blocks.key_attributes:
        out["keys"] = {r: j for r, j in blocks.key_attributes}
    if blocks.explicit:
        out["explicit"] = [
            {**_fact_to_json(f), "block": label} for f, label in blocks.explicit
        ]
    return out


def parse_spec(data: dict) -> SpecDocument:
    if not isinstance(data, dict):
        raise ValidationError(f"a spec must be a JSON object, got {type(data).__name__}")
    kind = data.get("kind")
    if kind not in KINDS:
        raise ValidationError(f"spec kind must be one of {KINDS}, got {kind!r}")
    schema_obj = data.get("schema")
    if not isinstance(schema_obj, dict) or not schema_obj:
        raise ValidationError("spec needs a nonempty schema mapping")
    schema = Schema(tuple((r, _parse_int(a, f"schema.{r}")) for r, a in schema_obj.items()))
    universe_obj = data.get("universe", {"kind": "naturals"})
    universe_kind = _field(universe_obj, "kind", "universe")
    if universe_kind == "strings":
        alphabet = _field(universe_obj, "alphabet", "universe", "")
        if not isinstance(alphabet, str):
            raise ValidationError(f"universe.alphabet must be a string, got {alphabet!r}")
        universe = Universe.strings(alphabet)
    elif universe_kind == "naturals":
        universe = Universe.naturals()
    else:
        raise ValidationError(f"unknown universe kind {universe_kind!r}")
    head = tuple(
        (_parse_fact(h, schema, universe, f"head_facts[{i}]"),
         _parse_number(_field(h, "p", f"head_facts[{i}]")))
        for i, h in enumerate(_list(data.get("head_facts", []), "head_facts"))
    )
    tail = _parse_tail(data["tail"], schema, universe) if data.get("tail") else None
    blocks = _parse_blocks(data["blocks"], schema, universe) if data.get("blocks") else None
    worlds = None
    if data.get("worlds") is not None:
        worlds = tuple(
            (
                Instance(_parse_facts(
                    _field(w, "facts", f"worlds[{i}]", []), schema, universe, f"worlds[{i}].facts"
                )),
                _parse_number(_field(w, "p", f"worlds[{i}]")),
            )
            for i, w in enumerate(_list(data["worlds"], "worlds"))
        )
    if kind in ("finite", "completion") and worlds is None:
        raise ValidationError(f"{kind} spec needs a worlds table")
    return SpecDocument(
        kind=kind, schema=schema, universe=universe, head=head, tail=tail,
        blocks=blocks, worlds=worlds,
    )


def spec_to_json(doc: SpecDocument) -> dict:
    out: dict = {
        "kind": doc.kind,
        "schema": {name: arity for name, arity in doc.schema.relations},
        "universe": (
            {"kind": "naturals"}
            if doc.universe.kind == "naturals"
            else {"kind": "strings", "alphabet": "".join(doc.universe.alphabet)}
        ),
    }
    if doc.head:
        out["head_facts"] = [
            {**_fact_to_json(f), "p": repr(p)} for f, p in doc.head
        ]
    if doc.tail is not None:
        out["tail"] = _tail_to_json(doc.tail)
    if doc.blocks is not None:
        out["blocks"] = _blocks_to_json(doc.blocks)
    if doc.worlds is not None:
        out["worlds"] = [
            {"facts": [_fact_to_json(f) for f in d], "p": repr(p)}
            for d, p in doc.worlds
        ]
    return out


def load_spec(path: str | Path) -> SpecDocument:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")
    return parse_spec(data)


def save_spec(doc: SpecDocument, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec_to_json(doc), fh, indent=2, sort_keys=False)
        fh.write("\n")


def load_instance(path: str | Path, schema: Schema, universe: Universe) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return Instance(_parse_facts(_field(data, "facts", "instance", []), schema, universe, "facts"))


def instance_to_json(d: Instance) -> dict:
    return {"facts": [_fact_to_json(f) for f in d]}
