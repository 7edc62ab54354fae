"""Schemas, facts, instances and finite discrete probability spaces.

Instances are immutable value objects: their facts are kept in a fixed
structural order so that equality and hashing are purely structural and
instances can key probability mappings.  A :class:`FiniteDiscretePDB` is
a world table -- a finite mapping from worlds to probabilities summing to
one -- with its expected size.  It is data, not a space:
``independence.table_space`` reads it as one exhaustive block of a
:class:`~infpdb.independence.BIDPdb`, which gives its instance
probabilities and draws.  :func:`divergent_size_partial_sum` gives the
expected sizes of the truncations of a space whose expected size
diverges.
"""

from __future__ import annotations

import math
import warnings
from operator import attrgetter
from typing import Iterable, Iterator, Mapping

from .record import Record

RENORMALIZE_TOLERANCE = 1e-12
WARN_TOLERANCE = 1e-9
REJECT_TOLERANCE = 1e-6


class Schema(Record):
    """Relation names with arities, in declaration order."""

    relations: tuple[tuple[str, int], ...]

    def __post_init__(self):
        names = [name for name, _ in self.relations]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate relation names in schema: {names}")
        for name, arity in self.relations:
            if arity < 0:
                raise ValueError(f"relation {name!r} has negative arity {arity}")
        object.__setattr__(self, "_arities", dict(self.relations))

    @classmethod
    def of(cls, **relations: int) -> "Schema":
        return cls(tuple(relations.items()))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.relations)

    def arity_of(self, relation: str) -> int:
        try:
            return self._arities[relation]
        except (KeyError, TypeError):
            raise KeyError(f"relation {relation!r} not in schema") from None

    def __contains__(self, relation: str) -> bool:
        try:
            return relation in self._arities
        except TypeError:  # an unhashable value names no relation
            return False


def _element_key(e) -> tuple:
    # ints sort before strings; bools are not universe elements
    if isinstance(e, bool):
        raise TypeError("booleans are not universe elements")
    if isinstance(e, int):
        return (0, e)
    if isinstance(e, str):
        return (1, e)
    raise TypeError(f"unsupported element type {type(e).__name__}")


class Fact(Record):
    """An atomic statement ``R(a_1, ..., a_k)``, hashed and ordered by keys fixed at construction."""

    relation: str
    args: tuple

    def __init__(self, relation: str, args: tuple):
        # instances sort and hash facts far more often than they build them
        args = tuple(args)
        _set = object.__setattr__
        _set(self, "relation", relation)
        _set(self, "args", args)
        _set(self, "_key", (relation, len(args), tuple(map(_element_key, args))))
        _set(self, "_hash", hash((relation, args)))

    def __eq__(self, other):
        if other.__class__ is self.__class__:  # twice as fast as comparing Record field tuples
            return self.args == other.args and self.relation == other.relation
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuild rather than copy the stored hash, which is per process
        return Fact, (self.relation, self.args)

    def sort_key(self) -> tuple:
        return self._key

    def __lt__(self, other: "Fact") -> bool:
        return self._key < other._key

    def __str__(self) -> str:
        return f"{self.relation}({', '.join(repr(a) for a in self.args)})"


class Instance:
    """A finite set of facts, stored in canonical order.

    Equality and hashing are structural; iteration order is deterministic.
    """

    __slots__ = ("_facts", "_set", "_by_relation")

    def __init__(self, facts: Iterable[Fact] = ()):
        ordered = sorted(set(facts), key=attrgetter("_key"))
        self._facts: tuple[Fact, ...] = tuple(ordered)
        self._set = frozenset(self._facts)
        self._by_relation: dict[str, set[tuple]] | None = None

    @classmethod
    def empty(cls) -> "Instance":
        return cls(())

    @property
    def facts(self) -> tuple[Fact, ...]:
        return self._facts

    def __len__(self) -> int:
        return len(self._facts)

    def __iter__(self) -> Iterator[Fact]:
        return iter(self._facts)

    def __contains__(self, f: Fact) -> bool:
        return f in self._set

    def __eq__(self, other) -> bool:
        return isinstance(other, Instance) and self._set == other._set

    def __hash__(self) -> int:
        return hash(self._set)

    def __repr__(self) -> str:
        return "{" + ", ".join(str(f) for f in self._facts) + "}"

    def union(self, other: "Instance | Iterable[Fact]") -> "Instance":
        return Instance(tuple(self._facts) + tuple(other))

    def tuples_of(self, relation: str) -> set[tuple]:
        """Tuples of one relation, indexed lazily for repeated atom lookups."""
        if self._by_relation is None:
            index: dict[str, set[tuple]] = {}
            for f in self._facts:
                index.setdefault(f.relation, set()).add(f.args)
            self._by_relation = index
        return self._by_relation.get(relation, set())


def active_domain(d: Instance) -> set:
    """All universe elements occurring in the instance's tuples."""
    out: set = set()
    for f in d:
        out.update(f.args)
    return out


class FiniteDiscretePDB:
    """An explicit world table over finitely many instances.

    Probabilities must be in [0, 1] and sum to one; sums off by more than
    1e-12 are renormalized on construction (with a warning beyond 1e-9,
    rejection beyond 1e-6), which absorbs file-format rounding.  The
    world table is not modified after construction.
    """

    def __init__(self, schema: Schema, universe, worlds: Mapping[Instance, float]):
        for d, p in worlds.items():
            if math.isnan(p) or not (0.0 <= p <= 1.0):
                raise ValueError(f"world probability out of range: {p!r} for {d}")
        total = math.fsum(worlds.values())
        if abs(total - 1.0) > REJECT_TOLERANCE:
            raise ValueError(f"world probabilities sum to {total}, not 1")
        if abs(total - 1.0) > RENORMALIZE_TOLERANCE:
            if abs(total - 1.0) > WARN_TOLERANCE:
                warnings.warn(
                    f"world probabilities sum to {total}; renormalizing", stacklevel=2
                )
            worlds = {d: p / total for d, p in worlds.items()}
        self.schema = schema
        self.universe = universe
        self.worlds: dict[Instance, float] = dict(worlds)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteDiscretePDB)
            and self.schema == other.schema
            and self.universe == other.universe
            and self.worlds == other.worlds
        )

    def probability(self, d: Instance) -> float:
        return self.worlds.get(d, 0.0)

    def instances(self) -> list[Instance]:
        return sorted(self.worlds, key=lambda d: (len(d), [f.sort_key() for f in d]))


def expected_size(p: FiniteDiscretePDB) -> float:
    """Mean number of facts per instance."""
    return math.fsum(prob * len(d) for d, prob in p.worlds.items())


def facts_of(p: FiniteDiscretePDB) -> set[Fact]:
    """Facts appearing in any instance of the sample space (including null worlds)."""
    out: set[Fact] = set()
    for d in p.worlds:
        out.update(d)
    return out


def divergent_size_partial_sum(n_max: int) -> float:
    """Partial sum ``sum_{n<=n_max} (6/pi^2) 2**n / n**2`` of the expected size."""
    return math.fsum(6.0 / (math.pi**2 * n**2) * 2**n for n in range(1, n_max + 1))
