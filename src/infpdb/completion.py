"""Open-world completion of finite discrete spaces by independent fresh facts.

A completion keeps the original finite space intact and adjoins an
independent tuple-independent space over fresh facts: the completed
measure of ``D (original part) disjoint-union C (fresh part)`` is the
product ``P(D) * P1(C)``.  It is one :class:`BIDPdb`: the original table
is one exhaustive block of its worlds, beside the fresh facts' singleton
blocks and tail.  Conditioning the completed space on the original sample
space then reproduces the original measure exactly, because every
original instance picks up the same factor ``P1(empty)``.

The decomposition requires the original sample space to contain every
subset and union of its instances; spaces that do not can first be
extended with :func:`closure_extend`, which scales the original measure
by ``c`` and spreads the leftover ``1 - c`` over the missing instances.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Iterable, Mapping

from .core import Fact, FiniteDiscretePDB, Instance, Schema, facts_of
from .errors import (
    NotClosed,
    OverlappingFacts,
    UnitTailProbability,
    ValidationError,
    WorldCapExceeded,
)
from .independence import (
    BIDPdb,
    ConstantTail,
    FactProbabilityAssignment,
    GeometricTail,
    bid_instance_prob,
    bid_sample,
    table_space,
    ti_construct,
    ti_instance_prob,
)
from .numerics import ProbabilityInterval
from .oracle import WORLD_FACT_CAP
from .universe import Universe

CLOSURE_FACT_CAP = 16


def _all_subsets(facts: list[Fact]) -> Iterable[Instance]:
    for r in range(len(facts) + 1):
        for combo in combinations(facts, r):
            yield Instance(combo)


def head_worlds(t: BIDPdb, schema: Schema, universe: Universe) -> FiniteDiscretePDB:
    """The explicit world table of a head-only TI space: every subset of
    the head with its exact probability, so closed under subsets and unions."""
    if t.tail is not None:
        raise ValidationError("completion base must be finite; TI base may not have a tail")
    facts = [f for f, _ in t.head]
    if len(facts) > WORLD_FACT_CAP:
        raise WorldCapExceeded(
            f"expanding {len(facts)} head facts exceeds the cap",
            required=len(facts),
            cap=WORLD_FACT_CAP,
        )
    worlds = {d: ti_instance_prob(t, d).lo for d in _all_subsets(facts)}
    return FiniteDiscretePDB(schema, universe, worlds)


def check_closed(p0: FiniteDiscretePDB) -> None:
    """Raise :class:`NotClosed` naming a missing subset or union.

    A family closed under subsets and unions is the power set of its
    facts, so a count decides the common case; only an open family is
    searched, for a missing instance to name.
    """
    worlds = set(p0.worlds)
    if len(worlds) == 2 ** len(facts_of(p0)):
        return
    for d in worlds:
        for r in range(len(d)):
            for combo in combinations(d.facts, r):
                sub = Instance(combo)
                if sub not in worlds:
                    raise NotClosed(
                        f"sample space misses the sub-instance {sub} of {d}", missing=sub
                    )
    for a in worlds:
        for b in worlds:
            u = a.union(b)
            if u not in worlds:
                raise NotClosed(
                    f"sample space misses the union {u} of {a} and {b}", missing=u
                )


def closure_extend(
    p0: FiniteDiscretePDB,
    c: float,
    redistribution: Mapping[Instance, float] | None = None,
) -> FiniteDiscretePDB:
    """Extend the sample space to all subsets of the original facts.

    Original instances keep probability ``c * P0``; the remaining mass
    ``1 - c`` is spread uniformly over the missing instances unless an
    explicit redistribution (summing to 1 over exactly the missing
    instances) is supplied.
    """
    if math.isnan(c) or not (0.0 < c <= 1.0):
        raise ValueError(f"scaling constant must lie in (0, 1], got {c!r}")
    base_facts = sorted(facts_of(p0), key=Fact.sort_key)
    if len(base_facts) > CLOSURE_FACT_CAP:
        raise WorldCapExceeded(
            f"closure extension enumerates 2**{len(base_facts)} instances; "
            f"cap is 2**{CLOSURE_FACT_CAP}",
            required=len(base_facts),
            cap=CLOSURE_FACT_CAP,
        )
    missing = [d for d in _all_subsets(base_facts) if d not in p0.worlds]
    if not missing:
        if c < 1.0:
            raise ValueError(
                "sample space is already closed: the mass 1 - c has nowhere to go"
            )
        return p0
    worlds: dict[Instance, float] = {d: c * prob for d, prob in p0.worlds.items()}
    if c == 1.0:
        for d in missing:
            worlds[d] = 0.0
    elif redistribution is not None:
        if set(redistribution) != set(missing):
            raise ValueError("redistribution must cover exactly the missing instances")
        total = math.fsum(redistribution.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"redistribution weights sum to {total}, not 1")
        for d in missing:
            worlds[d] = (1.0 - c) * redistribution[d] / total
    else:
        share = (1.0 - c) / len(missing)
        for d in missing:
            worlds[d] = share
    return FiniteDiscretePDB(p0.schema, p0.universe, worlds)


def complete(p: FiniteDiscretePDB, tail: FactProbabilityAssignment) -> BIDPdb:
    """Complete a closed finite space by an independent fresh-fact assignment:
    the table's block (:func:`table_space`), then the fresh head's blocks and
    the tail.

    Fresh facts must be disjoint from the original facts and must all
    have probability strictly below one (a sure fresh fact would give
    the original space probability zero).
    """
    check_closed(p)
    base = facts_of(p)
    for f, prob in tail.head:
        if f in base:
            raise OverlappingFacts(f"fresh fact {f} already occurs in the original space")
        if prob >= 1.0:
            raise UnitTailProbability(f"fresh fact {f} has probability 1")
    generator = tail.tail
    if generator is not None and not isinstance(generator, ConstantTail):
        for f in base:
            if generator.generates(f):
                raise OverlappingFacts(
                    f"tail rule generates original fact {f}; exclude it explicitly"
                )
        if isinstance(generator, GeometricTail):
            first_value = generator.rule_value(generator.supply.first_index)
            if first_value >= 1.0:
                raise UnitTailProbability(
                    f"tail rule value {first_value} at the first index is not below 1"
                )
    table, fresh = table_space(p), ti_construct(tail)
    return BIDPdb({**table.blocks, **fresh.blocks}, fresh.tail)


def fresh_mass(c: BIDPdb) -> float:
    """The expected number of fresh facts of a completion, equal to its fresh
    space's ``total_mass``: one fsum over the blocks that list no empty
    outcome (every block but the exhaustive table's), plus the tail's mass."""
    fresh = (block for block in c.blocks.values() if all(facts for facts, _ in block))
    head = math.fsum(p * len(facts) for block in fresh for facts, p in block)
    return head + (c.tail.total_mass() if c.tail is not None else 0.0)


def completion_instance_prob(c: BIDPdb, d: Instance) -> ProbabilityInterval:
    """Measure of one instance of the completed space: ``P(D) * P1(C)``."""
    return bid_instance_prob(c, d)


def completion_sample(c: BIDPdb, rng, delta: float) -> Instance:
    """Draw ``D`` from the original table and fresh facts as in
    :func:`bid_sample`, returning their disjoint union."""
    return bid_sample(c, rng, delta)
