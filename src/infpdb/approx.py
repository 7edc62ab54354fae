"""Additive-error evaluation of first-order queries on every kind of space.

Every space is a :class:`BIDPdb`: independent blocks of disjoint
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
with it there; a block sure to take its one outcome is no branch, only
facts of every world.  Each sentence has its own walk, which takes the
sentence's generic elements once, exact by generic-pool invariance
(:func:`fo.walk_pool`), and keeps one world of tuple sets that it changes
in place, to which the sentence's closures (:func:`fo.compile_sentence`)
are bound once (:func:`world_walk`).  The cap bounds the bits of the
count of the truncated space's worlds, which is n on a TI space.

Guarantees are additive only; no relative-error mode exists, because
even deciding whether the query probability is zero is undecidable for
representable infinite spaces.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from operator import attrgetter

from .core import Fact
from .errors import WorldCapExceeded
from .fo import Formula, Fresh, Pattern, atom_patterns, compile_sentence, eval_boolean, free_variables
from .fo import groundings, walk_pool
from .independence import BIDPdb, Block
from .numerics import CompensatedAccumulator
from .record import Record
from .universe import Element, Universe

DEFAULT_WORLD_CAP = 25


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


def choose_truncation(t: BIDPdb, epsilon: float) -> TruncationCertificate:
    """Smallest truncation point satisfying both exponential conditions.

    Head facts are always included; the tail's closed-form unseen mass
    gives the first count of tail facts after which that mass is small
    enough and the next fact's probability has dropped to at most 1/2.
    """
    if math.isnan(epsilon) or not (0.0 < epsilon < 0.5):
        raise ValueError(f"epsilon must lie in (0, 1/2), got {epsilon!r}")
    allowed = min(math.log1p(epsilon), -math.log1p(-epsilon))
    h, tail = len(t.head), t.tail
    if tail is None:
        return TruncationCertificate(n=h, alpha_n=0.0, tail_sum=0.0, epsilon=epsilon)
    # every unseen mass at or below this bound passes 1.5 * unseen <= allowed
    bound = allowed / 1.5
    while 1.5 * bound > allowed:
        bound = math.nextafter(bound, 0.0)
    k = tail.position(bound, p_max=0.5)
    unseen, _ = tail.mass_after(k)
    return TruncationCertificate(n=h + k, alpha_n=1.5 * unseen, tail_sum=unseen, epsilon=epsilon)


def _truncated_blocks(t: BIDPdb, n: int, cap: int = DEFAULT_WORLD_CAP) -> list[Block]:
    """Every head block whole, then each tail fact up to n as its own block.

    The cap bounds the walk's worlds before any tail fact is listed: each
    head block branches over its outcomes, and over "no outcome" unless it
    is exhaustive, and each tail fact over in or out.  The bits of that
    count are ``n`` on a TI space and fewer where a table's block holds
    many facts in few worlds, never more: a block's distinct outcomes are
    at most 2 to the power of its facts, the empty one included."""
    blocks, h, tail = list(t.blocks.values()), len(t.head), t.tail
    if n < h or tail is None and n > h:
        raise ValueError(f"truncation keeps the {h} head facts whole and then lists tail facts: n = {n}")
    if n <= cap:
        bits = n
    else:
        branches = math.prod(len(block) + all(facts for facts, _ in block) for block in blocks)
        bits = (branches - 1).bit_length() + n - h
    if bits > cap:
        raise WorldCapExceeded(f"enumerating 2**{bits} worlds exceeds the cap 2**{cap}", required=bits, cap=cap)
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


def world_walk(blocks: list[Block], f: Formula, universe: Universe) -> float:
    """Exact probability of the sentence ``f`` on the finite space of ``blocks``.

    Outcomes are cut down to the facts that one of its atoms can match
    (:func:`fo.atom_patterns`), and equal cuts merged.  A fact that matches
    no atom makes no atom true under any assignment, so the elements that
    occur only in the facts cut away, and are not constants, act as
    generics.  The walk branches each block over "no outcome", weighted 1
    minus the mass it keeps, then over each kept outcome.  A grounded open
    query ``exists y. R(c, y)`` thus walks only the worlds of the
    ``R(c, .)`` facts.  A block whose one branch is an outcome of
    probability exactly 1 is no branch at all: its facts join every world
    of the walk from the start, and its factor 1.0 leaves every weight as
    it was, so the walk nests one call deeper only per block that branches.

    One :func:`fo.walk_pool` call on the kept outcomes' elements takes the
    generics, outside every one of them, for all the walk's worlds.  Each
    world is evaluated over the constants, its own elements and those
    generics: the walk hands each branch the elements of the world so
    far, with the entered outcome's added.  A domain shared by all worlds
    would save forming one per world, but a quantifier whose body fails
    scans it whole, and the kept elements can be many times those of one
    world (a table's worlds, a BID block's rival outcomes).  The world the
    walk stands in is one set of argument tuples per relation, to which
    the sentence's closures are bound once: depth first, an outcome's
    facts join it on entering the outcome and leave on leaving.  A fact is
    added at most once at a time, since it lies in one block.
    """
    kept = _cut(blocks, atom_patterns(f))
    flat = itertools.chain.from_iterable
    holds = {facts: dict.fromkeys(flat(map(attrgetter("args"), facts))) for outcomes, _ in kept for facts, _ in outcomes}
    domain_of = walk_pool(f, flat(holds.values()), universe)
    tuples: defaultdict[str, set[tuple]] = defaultdict(set)
    run, acc = compile_sentence(f)(tuples.__getitem__), CompensatedAccumulator()
    sure: dict[Element, None] = {}
    branching = []
    for outcomes, none in kept:
        if len(outcomes) == 1 and outcomes[0][1] == 1.0:
            facts = outcomes[0][0]
            for g in facts:
                tuples[g.relation].add(g.args)
            sure |= holds[facts]
        else:
            branching.append((outcomes, none))

    def descend(i: int, weight: float, held: dict[Element, None]) -> None:
        if i == len(branching):
            if eval_boolean(tuples, f, universe, domain=domain_of(held), compiled=run):
                acc.add(weight)
            return
        outcomes, none = branching[i]
        if none > 0.0:
            descend(i + 1, weight * none, held)
        for facts, p in outcomes:
            for g in facts:
                tuples[g.relation].add(g.args)
            descend(i + 1, weight * p, held | holds[facts])
            for g in facts:
                tuples[g.relation].remove(g.args)

    descend(0, 1.0, sure)
    return min(max(acc.value, 0.0), 1.0)


def conditional_query_prob(
    t: BIDPdb, f: Formula, n: int, universe: Universe, cap: int = DEFAULT_WORLD_CAP
) -> float:
    """Exact query probability conditioned on seeing only the first n facts.

    Conditioned on the truncation event, the head blocks and the first
    ``n - h`` tail facts form a finite block-independent space with the
    original outcome probabilities; its worlds are enumerated exactly.
    ``n`` must cover the ``h`` head facts.
    """
    return world_walk(_truncated_blocks(t, n, cap), f, universe)


def approx_boolean(
    t: BIDPdb, f: Formula, epsilon: float, universe: Universe, cap: int = DEFAULT_WORLD_CAP
) -> tuple[float, TruncationCertificate]:
    """Additively eps-accurate probability of a Boolean query.

    Returns the conditioned probability at a certified truncation point;
    the certificate guarantees ``P(Q) - eps <= p <= P(Q) + eps``.
    """
    cert = choose_truncation(t, epsilon)
    p = conditional_query_prob(t, f, cert.n, universe, cap=cap)
    return p, cert


def approx_nonboolean(
    t: BIDPdb,
    f: Formula,
    epsilon: float,
    universe: Universe,
    cap: int = DEFAULT_WORLD_CAP,
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
    table = {}
    for key, sentence in groundings(f, elements, universe):
        p = world_walk(blocks, sentence, universe)
        if p > 0.0 or not any(isinstance(e, Fresh) for e in key):
            table[key] = p
    return table
