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
lives in ``worlds``); ``blocks`` belongs to ``bid`` only, and a section
that a kind does not read is an error.  Probabilities are serialized as
decimal strings to avoid binary-float drift across platforms.  Loading
reads each value once: an unknown key, a missing or mistyped value and a
rejected object each raise :class:`ValidationError` naming its JSON path,
and an optional section that is absent or ``null`` is absent.
"""

from __future__ import annotations

import json
import math
from operator import itemgetter
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
    bid_construct,
    ti_construct,
)
from .record import Record
from .universe import FactEnumeration, Universe

# the sections each kind reads; a kind refuses the others
SECTIONS = {
    "ti": ("head_facts", "tail"),
    "bid": ("head_facts", "tail", "blocks"),
    "finite": ("worlds",),
    "completion": ("head_facts", "tail", "worlds"),
}


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

    def ti(self) -> BIDPdb:
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


class _Json:
    """A JSON value and its path in the file; each read checks a type and
    raises a ValidationError naming the path.  ``fields()`` starts reading an
    object, ``[key]`` and ``get`` take its fields, and ``done`` rejects any
    field left over.  A path is formatted only for an error."""

    __slots__ = ("value", "parent", "key", "_rest")

    def __init__(self, value, parent: _Json | None = None, key: str | int = "a spec"):
        self.value, self.parent, self.key = value, parent, key

    @property
    def path(self) -> str:
        node, parts = self, []
        while node.parent is not None:
            parts.append(f"[{node.key}]" if isinstance(node.key, int) else f".{node.key}")
            node = node.parent
        return "".join(reversed(parts)).removeprefix(".") if parts else node.key

    def error(self, message: str) -> ValidationError:
        return ValidationError(f"{self.path} {message}")

    def build(self, make, *args, **kwargs):
        """``make(*args, **kwargs)``; a ValueError it raises names this path."""
        try:
            return make(*args, **kwargs)
        except ValueError as exc:
            raise ValidationError(f"{self.path}: {exc}") from None

    def fields(self) -> _Json:
        if not isinstance(self.value, dict):
            raise self.error(f"must be a JSON object, got {type(self.value).__name__}")
        self._rest = self.value.copy()
        return self

    def items(self) -> list[tuple[str, _Json]]:
        """Every field of a JSON object whose keys are data, such as a schema."""
        return [(k, self[k]) for k in list(self.fields()._rest)]

    def __getitem__(self, key: str) -> _Json:
        try:
            return _Json(self._rest.pop(key), self, key)
        except KeyError:
            raise _Json(None, self, key).error("is missing") from None

    def get(self, key: str, default=None) -> _Json | None:
        """An optional field; absent and ``null`` both give ``default``."""
        value = self._rest.pop(key, None)
        if value is None:
            return None if default is None else _Json(default, self, key)
        return _Json(value, self, key)

    def done(self, result=None):
        """``result``, once every field of the object has been read."""
        for key in self._rest:
            raise _Json(None, self, key).error("is not a known key")
        return result

    def array(self) -> list:
        if not isinstance(self.value, list):
            raise self.error(f"must be a list, got {self.value!r}")
        return self.value

    def objects(self) -> list[_Json]:
        """The elements of a list, each an object whose fields are read next."""
        return [_Json(v, self, i).fields() for i, v in enumerate(self.array())]

    def integer(self) -> int:
        """An int, an integral float or a decimal integer string."""
        raw = self.value
        try:
            if not isinstance(raw, bool) and (isinstance(raw, int) or isinstance(raw, float) and raw.is_integer()
                                               or isinstance(raw, str) and raw.removeprefix("-").isdecimal()):
                return int(raw)
        except ValueError:  # int() refuses a string of thousands of digits
            pass
        raise self.error(f"must be an integer, got {raw!r}")

    def number(self) -> float:
        """A finite float, from a decimal string or a JSON number."""
        try:
            value = math.nan if isinstance(self.value, bool) else float(self.value)
        except (TypeError, ValueError, OverflowError):
            value = math.nan
        if not math.isfinite(value):
            raise self.error(f"must be a finite decimal number, got {self.value!r}")
        return value

    def choice(self, *options: str) -> str:
        if self.value not in options:
            raise self.error(f"must be one of {', '.join(map(repr, options))}, got {self.value!r}")
        return self.value

    def relation(self, schema: Schema) -> str:
        if self.value not in schema:
            raise self.error(f"{self.value!r} not in schema")
        return self.value


def _fact(obj: _Json, schema: Schema, universe: Universe) -> Fact:
    """The fact of an object's ``relation`` and ``args``; the caller reads the rest."""
    relation = obj["relation"].relation(schema)
    args = obj["args"]
    values, arity = tuple(args.array()), schema.arity_of(relation)
    if len(values) != arity:
        raise args.error(f"has {len(values)} elements, {relation!r} takes {arity}")
    for i, e in enumerate(values):
        if not universe.contains(e):
            raise _Json(e, args, i).error(f"{e!r} not in universe")
    return Fact(relation, values)


def _facts(items: _Json, schema: Schema, universe: Universe) -> list[Fact]:
    return [obj.done(_fact(obj, schema, universe)) for obj in items.objects()]


def _fact_to_json(f: Fact) -> dict:
    return {"relation": f.relation, "args": list(f.args)}


def _parse_tail(tail: _Json, schema: Schema, universe: Universe) -> Tail:
    enumeration = tail.fields().build(FactEnumeration, schema, universe)
    obj = tail.get("supply", {}).fields()
    if obj.get("type", "enumeration").choice("enumeration", "product") == "enumeration":
        relation = obj.get("relation")
        relation = None if relation is None else relation.relation(schema)
        supply = obj.build(EnumerationSupply, enumeration, relation, obj.get("offset", 0).integer())
    else:
        relation, index = obj["relation"].relation(schema), obj["index_position"].integer()
        fixed = obj["fixed"]
        positions = sorted(
            ((_Json(pos, fixed, pos).integer(), tuple(values.array())) for pos, values in fixed.items()),
            key=itemgetter(0),
        )
        supply = obj.build(ProductSupply, enumeration, relation, index, tuple(positions))
    obj.done()
    exclude = frozenset(_facts(tail.get("exclude", []), schema, universe))
    if tail.get("rule", "geometric").choice("geometric", "constant") == "geometric":
        c, q = tail["c"].number(), tail["q"].number()
        return tail.done(tail.build(GeometricTail, supply, c, q, exclude))
    return tail.done(tail.build(ConstantTail, supply, tail["value"].number(), exclude))


def _tail_to_json(tail: Tail) -> dict:
    supply = tail.supply
    if isinstance(supply, EnumerationSupply):
        supply_obj: dict = {"type": "enumeration", "offset": supply.offset}
        if supply.relation is not None:
            supply_obj["relation"] = supply.relation
    else:
        supply_obj = {
            "type": "product", "relation": supply.relation, "index_position": supply.index_position,
            "fixed": {str(pos): list(values) for pos, values in supply.fixed},
        }
    if isinstance(tail, GeometricTail):
        out = {"supply": supply_obj, "rule": "geometric", "c": repr(tail.c), "q": repr(tail.q)}
    else:
        out = {"supply": supply_obj, "rule": "constant", "value": repr(tail.value)}
    if tail.exclude:
        out["exclude"] = [_fact_to_json(f) for f in sorted(tail.exclude, key=Fact.sort_key)]
    return out


def _parse_blocks(blocks: _Json, schema: Schema, universe: Universe) -> BlockPartition:
    keys, widths, explicit = blocks.fields().get("keys", {}), [], []
    for r, width in keys.items():
        if r not in schema:
            raise keys.error(f"{r!r} not in schema")
        widths.append((r, width.integer()))
    for e in blocks.get("explicit", []).objects():
        f, label = _fact(e, schema, universe), e["block"]
        if isinstance(label.value, (list, dict)):
            raise label.error(f"must be a JSON scalar, got {type(label.value).__name__}")
        explicit.append(e.done((f, label.value)))
    return blocks.done(blocks.build(BlockPartition, tuple(widths), tuple(explicit)))


def _blocks_to_json(blocks: BlockPartition) -> dict:
    out: dict = {}
    if blocks.key_attributes:
        out["keys"] = {r: j for r, j in blocks.key_attributes}
    if blocks.explicit:
        out["explicit"] = [{**_fact_to_json(f), "block": label} for f, label in blocks.explicit]
    return out


def _worlds(items: _Json, schema: Schema, universe: Universe) -> tuple[tuple[Instance, float], ...]:
    """The world table; an instance listed twice is an error naming both entries."""
    table, first = [], {}
    for w in items.objects():
        d = Instance(_facts(w.get("facts", []), schema, universe))
        if first.setdefault(d, w) is not w:
            raise w.error(f"lists the same instance as {first[d].path}")
        table.append((d, w.done(w["p"].number())))
    return tuple(table)


def parse_spec(data) -> SpecDocument:
    """The document of a decoded spec file, read in one pass."""
    spec = _Json(data).fields()
    kind, schema_obj = spec["kind"].choice(*SECTIONS), spec["schema"]
    relations = tuple((r, arity.integer()) for r, arity in schema_obj.items())
    if not relations:
        raise schema_obj.error("must name at least one relation")
    schema = schema_obj.build(Schema, relations)
    obj = spec.get("universe", {"kind": "naturals"}).fields()
    if obj["kind"].choice("naturals", "strings") == "strings":
        alphabet = obj["alphabet"]
        if not isinstance(alphabet.value, str):
            raise alphabet.error(f"must be a string, got {alphabet.value!r}")
        universe = obj.done(obj.build(Universe.strings, alphabet.value))
    else:
        universe = obj.done(Universe.naturals())
    for key in ("head_facts", "tail", "blocks", "worlds"):
        if key not in SECTIONS[kind] and (section := spec.get(key)) is not None:
            raise section.error(f"is not a section of a {kind!r} spec")
    head = tuple(
        h.done((_fact(h, schema, universe), h["p"].number()))
        for h in spec.get("head_facts", []).objects()
    )
    tail, blocks = spec.get("tail"), spec.get("blocks")
    worlds = spec["worlds"] if "worlds" in SECTIONS[kind] else None
    return spec.done(SpecDocument(
        kind, schema, universe, head,
        None if tail is None else _parse_tail(tail, schema, universe),
        None if blocks is None else _parse_blocks(blocks, schema, universe),
        None if worlds is None else _worlds(worlds, schema, universe),
    ))


def spec_to_json(doc: SpecDocument) -> dict:
    out: dict = {
        "kind": doc.kind,
        "schema": {name: arity for name, arity in doc.schema.relations},
        "universe": {"kind": doc.universe.kind}
        | ({"alphabet": "".join(doc.universe.alphabet)} if doc.universe.alphabet else {}),
    }
    if doc.head:
        out["head_facts"] = [{**_fact_to_json(f), "p": repr(p)} for f, p in doc.head]
    if doc.tail is not None:
        out["tail"] = _tail_to_json(doc.tail)
    if doc.blocks is not None:
        out["blocks"] = _blocks_to_json(doc.blocks)
    if doc.worlds is not None:
        out["worlds"] = [
            {"facts": [_fact_to_json(f) for f in d], "p": repr(p)} for d, p in doc.worlds
        ]
    return out


def _load_json(path: str | Path):
    def no_constant(name: str):
        raise ValidationError(f"{path}: invalid JSON: {name} is not a JSON value")

    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_constant=no_constant)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")


def load_spec(path: str | Path) -> SpecDocument:
    return parse_spec(_load_json(path))


def save_spec(doc: SpecDocument, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec_to_json(doc), fh, indent=2, sort_keys=False)
        fh.write("\n")


def load_instance(path: str | Path, schema: Schema, universe: Universe) -> Instance:
    instance = _Json(_load_json(path), key="instance").fields()
    return instance.done(Instance(_facts(instance.get("facts", []), schema, universe)))


def instance_to_json(d: Instance) -> dict:
    return {"facts": [_fact_to_json(f) for f in d]}
