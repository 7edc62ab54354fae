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
and an optional section that is absent or ``null`` is absent.  Objects
that hold facts are read as plain dicts and lists, and each distinct fact
is built once per file.  :func:`instance_lines` writes the JSON lines of
``pdb sample``.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator

from .completion import FactProbabilityAssignment, complete
from .core import Fact, FiniteDiscretePDB, Instance, Schema
from .errors import NestingTooDeep, ValidationError
from .independence import (
    BIDPdb,
    BlockPartition,
    ConstantTail,
    EnumerationSupply,
    GeometricTail,
    ProductSupply,
    Tail,
    bid_construct,
    table_space,
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

    def completion(self) -> BIDPdb:
        return complete(self.finite(), self.assignment())

    def space(self) -> BIDPdb:
        """The space of this spec's kind: a ``finite`` table is one exhaustive
        block (:func:`table_space`), a ``completion`` that block beside its
        fresh facts' blocks."""
        if self.kind == "finite":
            return table_space(self.finite())
        return {"ti": self.ti, "bid": self.bid, "completion": self.completion}[self.kind]()


class _Json:
    """A JSON value and its path in the file; each read checks a type and
    raises a ValidationError naming the path.  ``fields()`` starts reading an
    object, ``[key]`` and ``get`` take its fields, and ``done`` rejects any
    field left over; the other reads apply the rules below the class.  A
    path is formatted only for an error."""

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

    def error(self, message: str, *keys: str | int) -> ValidationError:
        """The error for the value at ``keys`` below this node."""
        node = self
        for key in keys:
            node = _Json(None, node, key)
        return ValidationError(f"{node.path} {message}")

    def refused(self, refusal: _Refused, *keys: str | int) -> ValidationError:
        message, *below = refusal.args
        return self.error(message, *keys, *below)

    def check(self, rule, *args, keys: tuple = ()):
        """``rule(*args)`` on the value at ``keys`` below this node; a refusal
        names its path."""
        try:
            return rule(*args)
        except _Refused as refusal:
            raise self.refused(refusal, *keys) from None

    def build(self, make, *args, **kwargs):
        """``make(*args, **kwargs)``; a ValueError it raises names this path."""
        try:
            return make(*args, **kwargs)
        except ValueError as exc:
            raise ValidationError(f"{self.path}: {exc}") from None

    def fields(self) -> _Json:
        self._rest = self.check(_object, self.value).copy()
        return self

    def items(self) -> list[tuple[str, _Json]]:
        """Every field of a JSON object whose keys are data, such as a schema."""
        return [(k, self[k]) for k in list(self.fields()._rest)]

    def __getitem__(self, key: str) -> _Json:
        value = self.check(_field, self._rest, key, keys=(key,))
        del self._rest[key]
        return _Json(value, self, key)

    def get(self, key: str, default=None) -> _Json | None:
        """An optional field; absent and ``null`` both give ``default``."""
        value = self._rest.pop(key, None)
        if value is None:
            return None if default is None else _Json(default, self, key)
        return _Json(value, self, key)

    def done(self, result=None):
        """``result``, once every field of the object has been read."""
        if self._rest:
            raise self.refused(_unknown(self._rest, ()))
        return result

    def array(self) -> list:
        return self.check(_array, self.value)

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
        return self.check(_number, self.value)

    def choice(self, *options: str) -> str:
        if self.value not in options:
            raise self.error(f"must be one of {', '.join(map(repr, options))}, got {self.value!r}")
        return self.value

    def relation(self, schema: Schema) -> str:
        return self.check(_relation, self.value, schema)


class _Refused(Exception):
    """A rule's refusal of a plain value: the message, then the keys from
    that value down to the one refused.  Each rule lives in one place, and
    the reader that catches a refusal builds the nodes of its path."""


def _object(value, *keys) -> dict:
    if not isinstance(value, dict):
        raise _Refused(f"must be a JSON object, got {type(value).__name__}", *keys)
    return value


def _array(value) -> list:
    if not isinstance(value, list):
        raise _Refused(f"must be a list, got {value!r}")
    return value


def _objects(value) -> list[dict]:
    """A list of objects, each checked before any is read."""
    for i, obj in enumerate(_array(value)):
        _object(obj, i)
    return value


def _field(obj: dict, key: str):
    if key not in obj:
        raise _Refused("is missing")
    return obj[key]


def _unknown(obj: dict, known) -> _Refused:
    """The refusal of the first key of ``obj``, in key order, not in ``known``."""
    return _Refused("is not a known key", next(key for key in obj if key not in known))


def _number(value) -> float:
    """A finite float, from a decimal string or a JSON number."""
    try:
        number = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if not math.isfinite(number):
        raise _Refused(f"must be a finite decimal number, got {value!r}")
    return number


def _scalar(value):
    if isinstance(value, (list, dict)):
        raise _Refused(f"must be a JSON scalar, got {type(value).__name__}")
    return value


def _relation(value, schema: Schema) -> str:
    if value not in schema:
        raise _Refused(f"{value!r} not in schema")
    return value


def _elements(values: list, universe: Universe) -> tuple:
    if not all(map(universe.contains, values)):
        i = next(i for i, e in enumerate(values) if not universe.contains(e))
        raise _Refused(f"{values[i]!r} not in universe", i)
    return tuple(values)


class _FactReader:
    """Reads the fact objects of one file from plain dicts and lists and
    builds each distinct fact once.  It checks the elements before looking
    a fact up, so ``1``, ``1.0``, ``true`` and ``"1"`` never share one."""

    def __init__(self, schema: Schema, universe: Universe):
        self.schema, self.universe, self.facts = schema, universe, {}

    def read(self, items, at: _Json, *keys: str | int, extra=None) -> list:
        """The facts of the list at ``keys`` below ``at``; with ``extra = (name,
        rule)``, pairs of each fact and its field ``name`` read by ``rule``."""
        schema, universe, facts, out = self.schema, self.universe, self.facts, []
        known = ("relation", "args") if extra is None else ("relation", "args", extra[0])
        for i, obj in enumerate(at.check(_objects, items, keys=keys)):
            field = "relation"
            try:
                relation = _relation(_field(obj, field), schema)
                field, arity = "args", schema.arity_of(relation)
                if len(args := _array(_field(obj, field))) != arity:
                    raise _Refused(f"has {len(args)} elements, {relation!r} takes {arity}")
                key = (relation, _elements(args, universe))
                if extra is not None:
                    field, rule = extra
                    value = rule(_field(obj, field))
            except _Refused as refusal:
                raise at.refused(refusal, *keys, i, field) from None
            if len(obj) != len(known):
                raise at.refused(_unknown(obj, known), *keys, i)
            fact = facts.get(key) or facts.setdefault(key, Fact(*key))
            out.append(fact if extra is None else (fact, value))
        return out


def _fact_to_json(f: Fact) -> dict:
    return {"relation": f.relation, "args": list(f.args)}


def _parse_tail(tail: _Json, reader: _FactReader) -> Tail:
    schema, universe = reader.schema, reader.universe
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
            ((_Json(pos, fixed, pos).integer(), values.check(_elements, values.array(), universe))
             for pos, values in fixed.items()),
            key=itemgetter(0),
        )
        supply = obj.build(ProductSupply, enumeration, relation, index, tuple(positions))
    obj.done()
    exclude = tail.get("exclude", [])
    exclude = frozenset(reader.read(exclude.value, exclude))
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


def _parse_blocks(blocks: _Json, reader: _FactReader) -> BlockPartition:
    keys, widths = blocks.fields().get("keys", {}), []
    for r, width in keys.items():
        widths.append((keys.check(_relation, r, reader.schema), width.integer()))
    explicit = blocks.get("explicit", [])
    explicit = reader.read(explicit.value, explicit, extra=("block", _scalar))
    return blocks.done(blocks.build(BlockPartition, tuple(widths), tuple(explicit)))


def _blocks_to_json(blocks: BlockPartition) -> dict:
    out: dict = {}
    if blocks.key_attributes:
        out["keys"] = {r: j for r, j in blocks.key_attributes}
    if blocks.explicit:
        out["explicit"] = [{**_fact_to_json(f), "block": label} for f, label in blocks.explicit]
    return out


def _worlds(worlds: _Json, reader: _FactReader) -> tuple[tuple[Instance, float], ...]:
    """The world table; an instance listed twice is an error naming both entries."""
    table, first = [], {}
    for i, w in enumerate(worlds.check(_objects, worlds.value)):
        facts = w.get("facts")
        d = Instance(() if facts is None else reader.read(facts, worlds, i, "facts"))
        if first.setdefault(d, i) != i:
            raise worlds.error(f"lists the same instance as {_Json(None, worlds, first[d]).path}", i)
        p = worlds.check(_field, w, "p", keys=(i, "p"))
        table.append((d, worlds.check(_number, p, keys=(i, "p"))))
        if len(w) != 1 + ("facts" in w):
            raise worlds.refused(_unknown(w, ("facts", "p")), i)
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
    reader, head = _FactReader(schema, universe), spec.get("head_facts", [])
    head = tuple(reader.read(head.value, head, extra=("p", _number)))
    tail, blocks = spec.get("tail"), spec.get("blocks")
    worlds = spec["worlds"] if "worlds" in SECTIONS[kind] else None
    return spec.done(SpecDocument(
        kind, schema, universe, head,
        None if tail is None else _parse_tail(tail, reader),
        None if blocks is None else _parse_blocks(blocks, reader),
        None if worlds is None else _worlds(worlds, reader),
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
        except RecursionError:
            raise NestingTooDeep(f"{path}: JSON nests too deeply to read") from None


def load_spec(path: str | Path) -> SpecDocument:
    return parse_spec(_load_json(path))


def save_spec(doc: SpecDocument, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(spec_to_json(doc), indent=2) + "\n")


def load_instance(path: str | Path, schema: Schema, universe: Universe) -> Instance:
    data, at = _load_json(path), _Json(None, key="instance")
    facts = at.check(_object, data).get("facts")
    d = Instance(() if facts is None else _FactReader(schema, universe).read(facts, at, "facts"))
    if len(data) != ("facts" in data):
        raise at.refused(_unknown(data, ("facts",)))
    return d


def instance_lines(instances: Iterable[Instance]) -> Iterator[str]:
    """One JSON line per instance, ``{"facts": [{"args": [...], "relation": "R"}, ...]}``
    with sorted keys and the facts in canonical order: byte for byte the
    ``json.dumps`` of that object with ``sort_keys=True``.  Each distinct
    fact is encoded once per call."""
    encoded: dict[Fact, str] = {}
    for d in instances:
        facts = [encoded.get(f) or encoded.setdefault(f, _fact_line(f)) for f in d]
        yield '{"facts": [' + ", ".join(facts) + "]}"


def _fact_line(f: Fact) -> str:
    """``json.dumps(_fact_to_json(f), sort_keys=True)``, written with the json
    encoder's own string escape: every element is an int or a string."""
    args = ", ".join([encode_basestring_ascii(e) if isinstance(e, str) else repr(e) for e in f.args])
    return f'{{"args": [{args}], "relation": {encode_basestring_ascii(f.relation)}}}'
