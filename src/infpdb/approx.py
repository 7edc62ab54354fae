"""Additive-error evaluation of first-order queries on every kind of space.

:func:`head_blocks` reads each space as independent blocks of disjoint
(facts, probability) outcomes, then a tail of facts.  The query
probability is approximated by conditioning on the event that only the
first n facts occur: every head fact, then the first tail facts.  The
truncation index n is chosen so that (a) every fact beyond it has
probability at most 1/2 and (b) ``exp(alpha) <= 1 + eps`` and
``exp(-alpha) >= 1 - eps`` for ``alpha = (3/2) * (mass beyond n)``; the
tail's closed-form mass yields that n without listing the tail.  The
exponential tail bound then sandwiches the conditioned value within an
additive ``eps`` of the true probability.  Conditioned on the truncation
event, the space is finite: the head blocks kept whole, and each listed
tail fact as a singleton block.  Its worlds are enumerated block by
block, exponentially in the number of blocks with an outcome that holds
a fact one of the query's atoms can match: an atom with a constant, as in
each grounded tuple of an open query, matches only the facts that agree
with it there.  The cap, with an environment override, still applies to
n.

Guarantees are additive only; no relative-error mode exists, because
even deciding whether the query probability is zero is undecidable for
representable infinite spaces.
"""

from __future__ import annotations

import itertools
import math
import os

from .completion import Completion
from .core import Fact, FiniteDiscretePDB, Instance, facts_of
from .errors import WorldCapExceeded
from .fo import Formula, Fresh, Pattern, atom_patterns, eval_boolean, free_variables, groundings
from .independence import BIDPdb, GeometricTail
from .numerics import CompensatedAccumulator
from .record import Record
from .universe import Element, Universe

DEFAULT_WORLD_CAP = 25
WORLD_CAP_ENV = "PDB_WORLD_CAP"

Space = BIDPdb | FiniteDiscretePDB | Completion
Block = tuple[tuple[tuple[Fact, ...], float], ...]  # disjoint (facts, probability) outcomes


def world_cap() -> int:
    """``PDB_WORLD_CAP`` if set (ValueError unless a nonnegative integer), else the default."""
    raw = os.environ.get(WORLD_CAP_ENV)
    if not raw:
        return DEFAULT_WORLD_CAP
    try:
        cap = int(raw)
        if cap >= 0:
            return cap
    except ValueError:
        pass
    raise ValueError(f"{WORLD_CAP_ENV} must be a nonnegative integer, got {raw!r}")


class TruncationCertificate(Record):
    """Witness that conditioning on the first n facts is eps-safe."""

    n: int
    alpha_n: float
    tail_sum: float
    epsilon: float

    def __post_init__(self):
        if abs(self.alpha_n - 1.5 * self.tail_sum) > 1e-12 * max(1.0, self.alpha_n):
            raise ValueError("alpha must equal 3/2 times the tail mass")
        if math.exp(self.alpha_n) > 1.0 + self.epsilon + 1e-12:
            raise ValueError("certificate violates exp(alpha) <= 1 + eps")
        if math.exp(-self.alpha_n) < 1.0 - self.epsilon - 1e-12:
            raise ValueError("certificate violates exp(-alpha) >= 1 - eps")


def head_blocks(space: Space) -> tuple[list[Block], int, GeometricTail | None]:
    """(head blocks, head fact count, tail) of a space of any kind.  A BID
    block's outcomes are its single facts; a finite table is one block whose
    outcomes are its non-empty worlds; a completion is its table's block,
    then the head blocks and tail of its fresh-fact space."""
    if isinstance(space, Completion):
        table, h, _ = head_blocks(space.original)
        blocks, k, tail = head_blocks(space.tail_pdb)
        return table + blocks, h + k, tail
    if isinstance(space, FiniteDiscretePDB):
        return [tuple((d.facts, p) for d, p in space.worlds.items() if d)], len(facts_of(space)), None
    return [tuple(((f,), p) for f, p in block) for block in space.blocks.values()], len(space.head), space.tail


def choose_truncation(t: Space, epsilon: float) -> TruncationCertificate:
    """Smallest truncation point satisfying both exponential conditions.

    Head facts are always included; the tail's closed-form unseen mass
    gives the first count of tail facts after which that mass is small
    enough and the next fact's probability has dropped to at most 1/2.
    """
    if math.isnan(epsilon) or not (0.0 < epsilon < 0.5):
        raise ValueError(f"epsilon must lie in (0, 1/2), got {epsilon!r}")
    allowed = min(math.log1p(epsilon), -math.log1p(-epsilon))
    _, h, tail = head_blocks(t)
    if tail is None:
        return TruncationCertificate(n=h, alpha_n=0.0, tail_sum=0.0, epsilon=epsilon)
    # every unseen mass at or below this bound passes 1.5 * unseen <= allowed
    bound = allowed / 1.5
    while 1.5 * bound > allowed:
        bound = math.nextafter(bound, 0.0)
    k = tail.position(bound, p_max=0.5)
    unseen, _ = tail.mass_after(k)
    return TruncationCertificate(n=h + k, alpha_n=1.5 * unseen, tail_sum=unseen, epsilon=epsilon)


def _truncated_blocks(t: Space, n: int, cap: int | None) -> list[Block]:
    """Every head block whole, then each tail fact up to n as its own block."""
    limit = world_cap() if cap is None else cap
    if n > limit:
        raise WorldCapExceeded(
            f"enumerating 2**{n} worlds exceeds the cap 2**{limit}; "
            f"set {WORLD_CAP_ENV} to raise it",
            required=n,
            cap=limit,
        )
    blocks, h, tail = head_blocks(t)
    if n < h or tail is None and n > h:
        raise ValueError(f"truncation keeps the {h} head facts whole and then lists tail facts: n = {n}")
    listed = () if tail is None else itertools.islice(tail.indexed_facts(), n - h)
    return blocks + [(((fact,), p),) for _, fact, p in listed]


def _cut(blocks: list[Block], patterns: frozenset[Pattern]) -> tuple:
    """Each block's outcomes cut down to the facts that match a pattern:
    the same relation, and equal at every position where the pattern holds
    a constant.  Equal cuts merge; an outcome cut to nothing joins "no
    outcome", and a block left with no outcome is dropped."""
    pins: dict[str, list[tuple[tuple[int, Element], ...]]] = {}
    for relation, args in patterns:
        pins.setdefault(relation, []).append(tuple((i, c) for i, c in enumerate(args) if c is not None))

    def matches(g: Fact) -> bool:
        return any(all(g.args[i] == c for i, c in pin) for pin in pins.get(g.relation, ()))

    kept = []
    for block in blocks:
        merged = {}
        for facts, p in block:
            if p > 0.0 and (cut := tuple(filter(matches, facts))):
                merged[cut] = merged.get(cut, 0.0) + p
        if merged:
            kept.append((tuple(merged.items()), 1.0 - math.fsum(merged.values())))
    return tuple(kept)


def world_walk(blocks: list[Block], sentences: list[Formula], universe: Universe) -> list[float]:
    """Exact probability of each sentence on the finite space of ``blocks``.

    For each sentence, outcomes are cut down to the facts that one of its
    atoms can match (:func:`fo.atom_patterns`), and equal cuts merged.  A
    fact that matches no atom makes no atom true under any assignment, so
    the elements that occur only in the facts cut away, and are not
    constants, act as generics.  Sentences with equal cuts share one walk,
    in which each block branches over "no outcome", weighted 1 minus the
    mass it keeps, then over each kept outcome.  A grounded open query
    ``exists y. R(c, y)`` thus walks only the worlds of the ``R(c, .)``
    facts.
    """
    groups: dict[tuple, list[int]] = {}
    for j, f in enumerate(sentences):
        groups.setdefault(_cut(blocks, atom_patterns(f)), []).append(j)
    values = [0.0] * len(sentences)

    def descend(kept, group, i: int, chosen: tuple[Fact, ...], weight: float) -> None:
        if i == len(kept):
            d = Instance(chosen)
            for f, acc in group:
                if eval_boolean(d, f, universe):
                    acc.add(weight)
            return
        outcomes, none = kept[i]
        if none > 0.0:
            descend(kept, group, i + 1, chosen, weight * none)
        for facts, p in outcomes:
            descend(kept, group, i + 1, chosen + facts, weight * p)

    for kept, members in groups.items():
        group = [(sentences[j], CompensatedAccumulator()) for j in members]
        descend(kept, group, 0, (), 1.0)
        for j, (_, acc) in zip(members, group):
            values[j] = min(max(acc.value, 0.0), 1.0)
    return values


def conditional_query_prob(
    t: Space, f: Formula, n: int, universe: Universe, cap: int | None = None
) -> float:
    """Exact query probability conditioned on seeing only the first n facts.

    Conditioned on the truncation event, the head blocks and the first
    ``n - h`` tail facts form a finite block-independent space with the
    original outcome probabilities; its worlds are enumerated exactly.
    ``n`` must cover the ``h`` head facts.
    """
    free = free_variables(f)
    if free:
        raise ValueError(f"sentence expected, found free variables {free}")
    return world_walk(_truncated_blocks(t, n, cap), [f], universe)[0]


def approx_boolean(
    t: Space, f: Formula, epsilon: float, universe: Universe, cap: int | None = None
) -> tuple[float, TruncationCertificate]:
    """Additively eps-accurate probability of a Boolean query.

    Returns the conditioned probability at a certified truncation point;
    the certificate guarantees ``P(Q) - eps <= p <= P(Q) + eps``.
    """
    cert = choose_truncation(t, epsilon)
    p = conditional_query_prob(t, f, cert.n, universe, cap=cap)
    return p, cert


def approx_nonboolean(
    t: Space,
    f: Formula,
    epsilon: float,
    universe: Universe,
    cap: int | None = None,
) -> dict[tuple, float]:
    """Per-tuple marginals of an open query, each additively eps-accurate.

    The formula is grounded by :func:`fo.groundings` over the candidates:
    the elements of the truncated facts and the formula's constants.  On
    the truncation event any other element is generic, so a pattern keyed
    by ``Fresh(j)`` has the value of every tuple it stands for; it is
    returned when non-zero, and every tuple of candidates always.  A tuple
    of no returned key has a marginal of at most eps.  Keys come in the
    order of :func:`fo.groundings`.
    """
    if not free_variables(f):
        raise ValueError("open formula expected; use approx_boolean for sentences")
    cert = choose_truncation(t, epsilon)
    blocks = _truncated_blocks(t, cert.n, cap)
    elements = {e for block in blocks for facts, _ in block for fact in facts for e in fact.args}
    keys, grounded = zip(*groundings(f, elements, universe))
    return {
        key: p
        for key, p in zip(keys, world_walk(blocks, list(grounded), universe))
        if p > 0.0 or not any(isinstance(e, Fresh) for e in key)
    }
