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
facts of every world.  A query is prepared once per call
(:func:`_walker`): one analysis, one compile (:func:`fo.compile_sentence`),
one pool of generic elements, exact by generic-pool invariance
(:func:`fo.walk_pool`), and for an open query one index of the truncated
blocks.  Each grounding of an open query then binds its values and walks
the blocks its atoms can match, keeping one world of tuple sets that it
changes in place; a monotone or antimonotone formula settles a block's
subtree at its first world (:func:`fo.polarity`).  The
cap bounds the bits of the count of the truncated space's worlds, which
is n on a TI space.

Guarantees are additive only; no relative-error mode exists, because
even deciding whether the query probability is zero is undecidable for
representable infinite spaces.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from operator import attrgetter
from typing import Callable, Iterable

from .core import Fact
from .errors import WorldCapExceeded
from .fo import Formula, Var, _analysis, compile_sentence, eval_boolean, groundings, polarity, walk_pool
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


def _block_index(blocks: list[Block], positions: dict[str, set[int]]) -> defaultdict:
    """The positions of the blocks, in block order, that hold a fact in an
    outcome of positive probability: under the fact's relation, and under
    ``(relation, i, element)`` for each position ``i`` in
    ``positions[relation]`` that holds that element.  These are the only
    blocks that :func:`_cut` keeps for a pattern over the relation, or with
    that element at ``i``."""
    index: defaultdict = defaultdict(dict)
    for k, block in enumerate(blocks):
        for facts, p in block:
            if p > 0.0:
                for g in facts:
                    index[g.relation][k] = None
                    for i in positions.get(g.relation, ()):
                        index[g.relation, i, g.args[i]][k] = None
    return index


def _cut(blocks: list[Block], pins: dict[str, list[tuple[tuple[int, Element], ...]]], index=None) -> tuple:
    """Each block's outcomes cut down to the facts that match a pattern,
    then the weight of "no outcome" and the kept mass.  ``pins`` lists per
    relation each pattern's ``(position, element)`` pairs: a fact matches
    it when the relation is the same and its arguments are equal there.
    Equal cuts merge; an outcome cut to nothing joins "no outcome", and a
    block left with no outcome is dropped.  With the blocks'
    :func:`_block_index`, only the blocks listed under a pattern's relation
    or one of its pairs are read, in block order; the rest would be
    dropped."""

    def matches(g: Fact) -> bool:
        args = g.args
        for pin in pins.get(g.relation, ()):
            for i, c in pin:
                if args[i] != c:
                    break
            else:
                return True
        return False

    if index is not None:
        hits: set[int] = set()
        for relation, pinned in pins.items():
            for pin in pinned:
                # the shortest list that holds every block the pattern matches
                listed = index.get(relation, ())
                for i, c in pin:
                    if len(shorter := index.get((relation, i, c), ())) < len(listed):
                        listed = shorter
                hits.update(listed)
        if not hits:
            return ()
        blocks = [blocks[k] for k in sorted(hits)]
    kept = []
    for block in blocks:
        merged = {}
        for facts, p in block:
            if p > 0.0 and (cut := tuple(filter(matches, facts))):
                merged[cut] = merged.get(cut, 0.0) + p
        if merged:
            mass = math.fsum(merged.values())
            kept.append((tuple(merged.items()), 1.0 - mass, mass))
    return tuple(kept)


def _walker(
    blocks: list[Block], f: Formula, universe: Universe, analysis: tuple, elements: Iterable[Element],
    indexed: bool = False,
) -> Callable[[tuple], float]:
    """``walk(values)``, the exact probability of ``f`` on the finite space
    of ``blocks`` with its free variables bound to ``values``, in the order
    of :func:`fo.free_variables` (none for a sentence).  What no grounding
    changes is done once, here: ``f`` is compiled from its ``analysis``
    (:func:`fo.compile_sentence`), its generics are taken outside its
    constants and ``elements``, which must hold every element of the blocks
    and every value a walk is given (:func:`fo.walk_pool`), and its
    polarity is read (:func:`fo.polarity`).  Where ``indexed``, the blocks
    are indexed (:func:`_block_index`) by every position that an atom pins
    with a constant or a free variable, so that each walk's cut reads only
    the blocks its patterns can match.

    Each walk cuts the blocks down to the facts that one of the atoms can
    match (:func:`_cut`), the free variables read as their values, and
    merges equal cuts.  A fact that matches no atom makes no atom true
    under any assignment, so the elements that occur only in the facts cut
    away, and are not constants or values, act as generics.  The walk
    branches each block over "no outcome", weighted 1 minus the mass it
    keeps, then over each kept outcome.  ``exists y. R(x, y)`` with ``x``
    bound to ``c`` thus walks only the worlds of the ``R(c, .)`` facts.  A
    block whose one branch is an outcome of probability exactly 1 is no
    branch at all: its facts join every world of the walk from the start,
    and its factor 1.0 leaves every weight as it was, so the walk nests
    one call deeper only per block that branches.

    Each world is evaluated over the constants, the values, the world's
    own elements and the generics: the walk hands each branch the
    elements of the world so far, with the entered outcome's added.  A
    domain shared by all worlds would save forming one per world, but a
    quantifier whose body fails scans it whole, and the kept elements can
    be many times those of one world (a table's worlds, a BID block's
    rival outcomes).  The world the walk stands in is one set of argument
    tuples per relation, to which the closures are bound once per walk,
    with the values: depth first, an outcome's facts join it on entering
    the outcome and leave on leaving.  A fact is added at most once at a
    time, since it lies in one block.

    Where a block and every block after it have a "no outcome" branch, the
    first world under the block is a subset of every world below.  There a
    true monotone formula settles the block, which adds its weight times
    its kept mass, and a false antimonotone one settles it adding nothing;
    either way it skips its outcomes.  Exact by generic-pool invariance:
    each world's value is the truth over the infinite universe.
    """
    free = analysis[2]
    bind = compile_sentence(f, analysis)
    domain_of = walk_pool(f, elements, universe, analysis)
    monotone, antimonotone = polarity(f, analysis)
    # per relation, each distinct atom's (position, constant) pairs and the
    # positions of its free variables, each with its index among the values
    shapes: dict[str, dict] = {}
    for relation, args in analysis[3]:
        fixed = tuple((i, a) for i, a in enumerate(args) if a is not None and not isinstance(a, Var))
        slots = tuple((i, free.index(a.name)) for i, a in enumerate(args) if isinstance(a, Var))
        shapes.setdefault(relation, {})[fixed, slots] = None
    index = None
    if indexed:
        positions = {relation: {i for pin in shape for i, _ in itertools.chain(*pin)} for relation, shape in shapes.items()}
        index = _block_index(blocks, positions)
    flat, args_of = itertools.chain.from_iterable, attrgetter("args")

    def walk(values: tuple) -> float:
        tuples: defaultdict[str, set[tuple]] = defaultdict(set)
        run, acc = bind(tuples.__getitem__, values), CompensatedAccumulator()
        pins = {
            relation: [fixed + tuple([(i, values[j]) for i, j in slots]) for fixed, slots in shape]
            for relation, shape in shapes.items()
        }
        sure: dict[Element, None] = dict.fromkeys(values)
        holds, branching = {}, []
        for outcomes, none, mass in _cut(blocks, pins, index):
            for facts, _ in outcomes:
                holds[facts] = dict.fromkeys(flat(map(args_of, facts)))
            if len(outcomes) == 1 and outcomes[0][1] == 1.0:
                facts = outcomes[0][0]
                for g in facts:
                    tuples[g.relation].add(g.args)
                sure |= holds[facts]
            else:
                branching.append((outcomes, none, mass))

        def descend(i: int, weight: float, held: dict[Element, None]) -> bool | None:
            # the truth of the first world reached if it settles the subtree
            if i == len(branching):
                truth = eval_boolean(tuples, f, universe, domain=domain_of(held), compiled=run)
                if truth:
                    acc.add(weight)
                return truth if (monotone if truth else antimonotone) else None
            outcomes, none, mass = branching[i]
            if none > 0.0 and (settled := descend(i + 1, weight * none, held)) is not None:
                if settled:
                    acc.add(weight * mass)
                return settled
            for facts, p in outcomes:
                for g in facts:
                    tuples[g.relation].add(g.args)
                descend(i + 1, weight * p, held | holds[facts])
                for g in facts:
                    tuples[g.relation].remove(g.args)
            return None

        descend(0, 1.0, sure)
        return min(max(acc.value, 0.0), 1.0)

    return walk


def world_walk(blocks: list[Block], f: Formula, universe: Universe) -> float:
    """Exact probability of the sentence ``f`` on the finite space of
    ``blocks``: one walk of :func:`_walker`, which cuts the blocks to the
    facts that one of the atoms of ``f`` can match and settles what a
    monotone or antimonotone sentence allows."""
    elements = (e for block in blocks for facts, _ in block for g in facts for e in g.args)
    return _walker(blocks, f, universe, _analysis(f), elements)(())


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
    the elements of the truncated facts and the formula's constants in the
    universe.  On the truncation event any other element is generic, so a
    pattern keyed by ``Fresh(j)`` has the value of every tuple it stands
    for; it is returned when non-zero, and every tuple of candidates
    always.  A tuple of no returned key has a marginal of at most eps.
    Keys come in the order of :func:`fo.groundings`.

    The formula is prepared once for every grounding (:func:`_walker`):
    one analysis, one compile, one index of the truncated blocks and one
    pool of generics, outside the candidates and the ``Fresh``
    representatives.  Each grounding then writes its values into the
    compiled formula and walks only the blocks its atoms can match.
    """
    analysis = _analysis(f)
    if not analysis[2]:
        raise ValueError("open formula expected; use approx_boolean for sentences")
    cert = choose_truncation(t, epsilon)
    blocks = _truncated_blocks(t, cert.n, cap)
    elements = {e for block in blocks for facts, _ in block for fact in facts for e in fact.args}
    grounded = list(groundings(f, elements, universe, analysis))
    values = itertools.chain(elements, *(combo for _, combo in grounded))
    walk = _walker(blocks, f, universe, analysis, values, indexed=True)
    table = {}
    for key, combo in grounded:
        # a key differs from its values where it names a fresh element
        if (p := walk(combo)) > 0.0 or key == combo:
            table[key] = p
    return table
