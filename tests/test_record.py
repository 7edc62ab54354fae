"""Record classes against the frozen dataclasses they replace.

Each converted class is checked against a twin: a frozen dataclass built in
this file from the same class body (fields, defaults, ``__post_init__`` and
methods), which is what the class was before it became a
:class:`~infpdb.record.Record`.  Both are built from the same drawn
arguments and must agree on equality (also across classes), hash, repr,
copies, frozenness and argument errors.
"""

from __future__ import annotations

import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infpdb.approx import TruncationCertificate
from infpdb.core import Fact, Schema
from infpdb.errors import DivergentAssignment, ValidationError
from infpdb.fo import And, Atom, Const, Eq, Exists, Forall, Implies, Not, Or, Var
from infpdb.independence import (
    BlockPartition,
    ConstantTail,
    EnumerationSupply,
    FactProbabilityAssignment,
    GeometricTail,
    ProductSupply,
)
from infpdb.numerics import ProbabilityInterval
from infpdb.record import Record
from infpdb.specio import SpecDocument
from infpdb.universe import FactEnumeration, Universe

from helpers import View

SRC = os.pathsep.join(
    p for p in (str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")) if p
)

RECORD_ATTRIBUTES = {
    "_fields", "_defaults", "_values", "_post_init", "__dict__", "__weakref__",
}


def dataclass_twin(cls):
    """The class body of ``cls`` as a frozen dataclass with the same qualname."""
    namespace = {k: v for k, v in vars(cls).items() if k not in RECORD_ATTRIBUTES}
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, (), namespace))


# --- argument strategies, one per converted class ------------------------

SCHEMA = Schema((("R", 2), ("S", 1)))
NATURALS = Universe.naturals()
STRINGS = Universe.strings("0123456789ab")
ENUMERATIONS = [FactEnumeration(SCHEMA, NATURALS), FactEnumeration(SCHEMA, STRINGS)]

elements = st.integers(1, 40)
facts = st.builds(lambda a, b: Fact("R", (a, b)), elements, elements) | st.builds(
    lambda a: Fact("S", (a,)), elements
)
probabilities = st.floats(0.0, 1.0)
names = st.sampled_from(["x", "y", "z"])
terms = st.builds(Var, names) | st.builds(Const, st.integers(1, 5) | st.sampled_from(["a", "b"]))
atoms = st.builds(Atom, st.sampled_from(["R", "S"]), st.lists(terms, max_size=2).map(tuple)) | st.builds(
    Eq, terms, terms
)
formulas = st.recursive(
    atoms,
    lambda sub: st.builds(Not, sub)
    | st.builds(And, sub, sub)
    | st.builds(Or, sub, sub)
    | st.builds(Implies, sub, sub)
    | st.builds(Exists, names, sub)
    | st.builds(Forall, names, sub),
    max_leaves=5,
)
schemas = st.lists(
    st.tuples(st.sampled_from(["R", "S", "T", "U"]), st.integers(0, 3)), max_size=4, unique_by=lambda r: r[0],
).map(lambda rs: Schema(tuple(rs)))
enumeration_supplies = st.builds(
    EnumerationSupply, st.sampled_from(ENUMERATIONS), st.sampled_from([None, "R", "S"]), st.integers(0, 5)
)
product_supplies = st.builds(
    lambda e, pos, values: ProductSupply(e, "R", pos, ((3 - pos, tuple(values)),)),
    st.just(ENUMERATIONS[0]),
    st.integers(1, 2),
    st.lists(st.integers(1, 9), min_size=1, max_size=3, unique=True),
)
supplies = enumeration_supplies | product_supplies
excludes = st.frozensets(facts, max_size=3)
geometric_tails = st.builds(
    GeometricTail, supplies, st.floats(0.01, 1.0), st.floats(0.05, 0.95), excludes
)
constant_tails = st.builds(ConstantTail, supplies, probabilities, excludes)
heads = st.lists(st.tuples(facts, probabilities), max_size=3, unique_by=lambda fp: fp[0]).map(tuple)
universes = st.sampled_from([NATURALS, STRINGS, Universe("strings", ("a", "b"))])


def _views(draw_names, arity_of):
    names = sorted(set(draw_names))
    target = Schema(tuple((n, arity_of[n]) for n in names))
    closed = Exists("x", Eq(Var("x"), Var("x")))
    bodies = tuple(
        (n, Atom("R", tuple(map(Var, ("x", "y")[: arity_of[n]]))) if arity_of[n] else closed)
        for n in names
    )
    return target, bodies


def first(pair):
    return pair[0]


def _certificate(n, tail_sum):
    return n, 1.5 * tail_sum, tail_sum, 0.45


ARGUMENTS = {
    TruncationCertificate: st.builds(_certificate, st.integers(0, 30), st.floats(0.0, 0.01)),
    Schema: schemas.map(lambda s: (s.relations,)),
    Var: st.tuples(names),
    Const: st.tuples(st.integers(-3, 3) | st.text("ab", max_size=2)),
    Atom: atoms.filter(lambda a: isinstance(a, Atom)).map(lambda a: (a.relation, a.terms)),
    Eq: st.tuples(terms, terms),
    Not: st.tuples(formulas),
    And: st.tuples(formulas, formulas),
    Or: st.tuples(formulas, formulas),
    Implies: st.tuples(formulas, formulas),
    Exists: st.tuples(names, formulas),
    Forall: st.tuples(names, formulas),
    View: st.builds(
        _views,
        st.lists(st.sampled_from(["P", "Q"]), min_size=1, max_size=2),
        st.fixed_dictionaries({"P": st.integers(0, 2), "Q": st.integers(0, 2)}),
    ),
    EnumerationSupply: enumeration_supplies.map(lambda s: (s.enumeration, s.relation, s.offset)),
    ProductSupply: product_supplies.map(lambda s: (s.enumeration, s.relation, s.index_position, s.fixed)),
    GeometricTail: geometric_tails.map(lambda t: (t.supply, t.c, t.q, t.exclude)),
    ConstantTail: constant_tails.map(lambda t: (t.supply, t.value, t.exclude)),
    FactProbabilityAssignment: st.tuples(heads, st.just(None)),
    BlockPartition: st.tuples(
        st.lists(st.tuples(st.sampled_from(["R", "S"]), st.integers(0, 2)), max_size=2, unique_by=first)
        .map(tuple),
        st.lists(st.tuples(facts, st.sampled_from(["a", "b", 1])), max_size=2, unique_by=first).map(tuple),
    ),
    ProbabilityInterval: st.tuples(probabilities, probabilities).map(sorted).map(tuple),
    SpecDocument: st.tuples(
        st.sampled_from(["ti", "bid", "finite", "completion"]), schemas, universes, heads,
        st.none() | geometric_tails, st.none() | st.just(BlockPartition()), st.none() | st.just(()),
    ),
    Universe: st.sampled_from([("naturals", ()), ("strings", ("a",)), ("strings", ("0", "1", "z"))]),
    FactEnumeration: st.tuples(st.just(SCHEMA), universes),
}
CONVERTED = list(ARGUMENTS)
TWINS = {cls: dataclass_twin(cls) for cls in CONVERTED}


def outcome(build):
    """What a call gives: ('ok', repr) or ('error', exception type)."""
    try:
        return "ok", repr(build())
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return "error", type(exc)


def hash_outcome(obj):
    try:
        return "ok", hash(obj)
    except TypeError:
        return "error", TypeError


def test_every_converted_class_is_a_record():
    assert len(CONVERTED) == 23
    for cls in CONVERTED:
        assert issubclass(cls, Record) and not dataclasses.is_dataclass(cls), cls
        assert cls._fields == tuple(f.name for f in dataclasses.fields(TWINS[cls])), cls


def _params(**kw):
    return settings(derandomize=True, deadline=None, **kw)


@pytest.mark.parametrize("cls", CONVERTED, ids=lambda c: c.__qualname__)
@_params(max_examples=25)
@given(data=st.data())
def test_matches_its_dataclass_twin(cls, data):
    twin = TWINS[cls]
    args = data.draw(ARGUMENTS[cls])
    other = data.draw(ARGUMENTS[cls])
    rec, tw = cls(*args), twin(*args)
    assert repr(rec) == repr(tw)
    assert hash_outcome(rec) == hash_outcome(tw)
    assert rec == cls(*args) and tw == twin(*args)
    assert (rec == cls(*other)) == (tw == twin(*other))
    assert (rec != cls(*other)) == (tw != twin(*other))
    assert rec.__eq__(tw) is NotImplemented and rec != tw
    for copied, twin_copied in ((copy.copy(rec), copy.copy(tw)), (copy.deepcopy(rec), copy.deepcopy(tw))):
        assert (repr(copied) == repr(rec)) == (repr(twin_copied) == repr(tw))
        assert (copied == rec) == (twin_copied == tw)
    restored = pickle.loads(pickle.dumps(rec))
    assert type(restored) is cls and (restored == rec) == (copy.deepcopy(tw) == tw)
    if restored == rec:
        assert hash_outcome(restored) == hash_outcome(rec)


@pytest.mark.parametrize("cls", CONVERTED, ids=lambda c: c.__qualname__)
@_params(max_examples=10)
@given(data=st.data())
def test_arguments_are_handled_as_by_the_dataclass(cls, data):
    twin = TWINS[cls]
    args = data.draw(ARGUMENTS[cls])
    fields = [f.name for f in dataclasses.fields(twin)]
    split = data.draw(st.integers(0, len(args)))
    kwargs = dict(zip(fields[split:], args[split:]))
    required = sum(f.default is dataclasses.MISSING for f in dataclasses.fields(twin))
    calls = [
        (args[:split], kwargs),  # positional prefix, keywords for the rest
        (args[:required], {}),  # every default taken
        (args[:required - 1], {}) if required else ((), {}),  # one required missing
        (args + (None,), {}),  # one too many
        (args, {"no_such_field": 1}),  # unknown keyword
        (args, {fields[0]: args[0]}),  # a field given twice
        ((), dict(reversed(list(zip(fields, args))))),  # keywords out of order
    ]
    for a, kw in calls:
        assert outcome(lambda: cls(*a, **kw)) == outcome(lambda: twin(*a, **kw)), (a, kw)


@pytest.mark.parametrize("cls", CONVERTED, ids=lambda c: c.__qualname__)
@_params(max_examples=3)
@given(data=st.data())
def test_assignment_and_deletion_raise(cls, data):
    args = data.draw(ARGUMENTS[cls])
    for obj in (cls(*args), TWINS[cls](*args)):
        field = cls._fields[0]
        value = getattr(obj, field)
        with pytest.raises(AttributeError, match=f"cannot assign to field {field!r}"):
            setattr(obj, field, value)
        with pytest.raises(AttributeError, match="cannot assign to field 'not_a_field'"):
            obj.not_a_field = 1
        with pytest.raises(AttributeError, match=f"cannot delete field {field!r}"):
            delattr(obj, field)
        with pytest.raises(AttributeError):
            del obj.not_a_field
        assert getattr(obj, field) is value


def test_equality_across_classes_is_not_implemented():
    x, y = Var("x"), Var("y")
    assert And(x, y) != Or(x, y) and Exists("x", Atom("S", (x,))) != Forall("x", Atom("S", (x,)))
    assert Var("x") != Const("x") and Var("x") != "x" and Var("x") != ("x",)
    assert And(x, y).__eq__(Or(x, y)) is NotImplemented
    assert Var("x").__eq__(("x",)) is NotImplemented
    assert {Var("x"), Const("x"), Var("x")} == {Var("x"), Const("x")}


def test_equality_keeps_tuple_identity_semantics():
    nan = float("nan")
    twin = TWINS[Const]
    assert (Const(nan) == Const(nan)) == (twin(nan) == twin(nan)) == True  # noqa: E712
    assert (Const(nan) == Const(float("nan"))) == (twin(nan) == twin(float("nan"))) == False  # noqa: E712
    assert hash(Const(nan)) == hash(twin(nan)) == hash((nan,))


SUPPLY = EnumerationSupply(ENUMERATIONS[0])
BAD_INPUT = {
    "geometric q = 1.5": (lambda c: c[GeometricTail](SUPPLY, 0.5, 1.5), DivergentAssignment),
    "geometric c < 0": (lambda c: c[GeometricTail](SUPPLY, c=-1.0, q=0.5), ValueError),
    "interval lo > hi": (lambda c: c[ProbabilityInterval](0.6, 0.5), ValueError),
    "duplicate relation": (lambda c: c[Schema]((("R", 1), ("R", 2))), ValueError),
    "unknown universe": (lambda c: c[Universe]("reals"), ValueError),
    "empty alphabet": (lambda c: c[Universe]("strings"), ValueError),
    "negative offset": (lambda c: c[EnumerationSupply](ENUMERATIONS[0], offset=-1), ValueError),
    "index outside arity": (lambda c: c[ProductSupply](ENUMERATIONS[0], "R", 3, ()), ValueError),
    "alpha not 3/2 tail": (lambda c: c[TruncationCertificate](3, 1.0, 0.1, 0.1), ValueError),
    "negative key width": (lambda c: c[BlockPartition](key_attributes=(("R", -1),)), ValueError),
    "probability 1.5": (lambda c: c[FactProbabilityAssignment](((Fact("S", (1,)), 1.5),)), ValidationError),
    "view arity": (lambda c: c[View](Schema((("P", 1),)), (("P", Atom("R", (Var("x"), Var("y")))),)),
                   ValueError),
    "nullary enumeration": (lambda c: c[FactEnumeration](Schema((("R", 0),)), NATURALS), ValueError),
}


@pytest.mark.parametrize("case", list(BAD_INPUT))
def test_post_init_still_rejects_bad_input(case):
    build, error = BAD_INPUT[case]
    records = {cls: cls for cls in CONVERTED}
    with pytest.raises(error) as from_record:
        build(records)
    with pytest.raises(error) as from_twin:
        build(TWINS)
    assert type(from_record.value) is type(from_twin.value)
    assert str(from_record.value) == str(from_twin.value)


def test_post_init_runs_after_keyword_arguments():
    head = ((Fact("S", (1,)), 1),)
    assigned = FactProbabilityAssignment(tail=None, head=head)
    assert assigned.head == ((Fact("S", (1,)), 1.0),) and type(assigned.head[0][1]) is float


def test_cached_property_survives_pickle_and_copy():
    tail = GeometricTail(EnumerationSupply(ENUMERATIONS[0]), 0.5, 0.5, frozenset({Fact("S", (3,))}))
    assert "_excluded_indices" not in vars(tail)
    indices = tail._excluded_indices
    assert vars(tail)["_excluded_indices"] is indices
    for copied in (pickle.loads(pickle.dumps(tail)), copy.copy(tail), copy.deepcopy(tail)):
        assert copied == tail and hash(copied) == hash(tail)
        assert copied._excluded_indices == indices


def test_record_layout():
    class Base(Record):
        a: int
        b: int = 2

    class Child(Base):
        c: str = "c"

    assert Child._fields == ("a", "b", "c")
    assert repr(Child(1)) == "test_record_layout.<locals>.Child(a=1, b=2, c='c')"
    assert Child(1, c="d") == Child(a=1, b=2, c="d") != Base(1, 2)


def test_record_with_no_fields():
    class Empty(Record):
        pass

    assert Empty._fields == () and Empty() == Empty() and hash(Empty()) == hash(())
    assert repr(Empty()) == "test_record_with_no_fields.<locals>.Empty()"
    with pytest.raises(TypeError):
        Empty(1)


def test_no_dataclass_remains():
    """A fresh interpreter imports every submodule; no class of the package is a dataclass."""
    code = (
        "import dataclasses, importlib, pkgutil, infpdb\n"
        "for info in pkgutil.iter_modules(infpdb.__path__):\n"
        "    importlib.import_module('infpdb.' + info.name)\n"
        "def walk(cls):\n"
        "    for sub in type.__subclasses__(cls):\n"
        "        yield sub\n"
        "        yield from walk(sub)\n"
        "found = {f'{c.__module__}.{c.__qualname__}' for c in walk(object)\n"
        "         if c.__module__.startswith('infpdb') and dataclasses.is_dataclass(c)}\n"
        "print(sorted(found))\n"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
