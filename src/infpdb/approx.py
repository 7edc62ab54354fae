"""Additive-error evaluation of first-order queries on BID and TI spaces.

The query probability is approximated by conditioning on the event that
only the first n facts of the canonical listing occur: the whole head,
then the first tail facts.  The truncation index n is chosen so that (a)
every fact beyond it has probability at most 1/2 and (b) ``exp(alpha) <=
1 + eps`` and ``exp(-alpha) >= 1 - eps`` for ``alpha = (3/2) * (mass
beyond n)``; the tail's closed-form mass yields that n without listing
the tail.  The exponential tail bound then sandwiches the conditioned
value within an additive ``eps`` of the true probability.  Conditioned
on the truncation event, the space is a finite BID space: the head
blocks kept whole, and each listed tail fact as a singleton block.  Its
worlds are enumerated block by block, exponentially in the number of
blocks holding a fact whose relation the query mentions; the cap, with
an environment override, still applies to n.

Guarantees are additive only; no relative-error mode exists, because
even deciding whether the query probability is zero is undecidable for
representable infinite spaces.
"""

from __future__ import annotations

import itertools
import math
import os

from .core import Fact, Instance
from .errors import WorldCapExceeded
from .fo import Formula, constants, eval_boolean, free_variables, relations_of, substitute
from .independence import BIDPdb
from .numerics import CompensatedAccumulator
from .record import Record
from .universe import Element, Universe

DEFAULT_WORLD_CAP = 25
WORLD_CAP_ENV = "PDB_WORLD_CAP"


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


def choose_truncation(t: BIDPdb, epsilon: float) -> TruncationCertificate:
    """Smallest truncation point satisfying both exponential conditions.

    Head facts are always included; the tail's closed-form unseen mass
    gives the first count of tail facts after which that mass is small
    enough and the next fact's probability has dropped to at most 1/2.
    """
    if math.isnan(epsilon) or not (0.0 < epsilon < 0.5):
        raise ValueError(f"epsilon must lie in (0, 1/2), got {epsilon!r}")
    allowed = min(math.log1p(epsilon), -math.log1p(-epsilon))
    h = len(t.head)
    if t.tail is None:
        return TruncationCertificate(n=h, alpha_n=0.0, tail_sum=0.0, epsilon=epsilon)
    # every unseen mass at or below this bound passes 1.5 * unseen <= allowed
    bound = allowed / 1.5
    while 1.5 * bound > allowed:
        bound = math.nextafter(bound, 0.0)
    k = t.tail.position(bound, p_max=0.5)
    unseen, _ = t.tail.mass_after(k)
    return TruncationCertificate(n=h + k, alpha_n=1.5 * unseen, tail_sum=unseen, epsilon=epsilon)


def _truncated_blocks(t: BIDPdb, n: int, cap: int | None) -> list[tuple[tuple[Fact, float], ...]]:
    """Every head block whole, then each of the first ``n - len(t.head)``
    tail facts as its own block."""
    limit = world_cap() if cap is None else cap
    if n > limit:
        raise WorldCapExceeded(
            f"enumerating 2**{n} worlds exceeds the cap 2**{limit}; "
            f"set {WORLD_CAP_ENV} to raise it",
            required=n,
            cap=limit,
        )
    if n < len(t.head):
        raise ValueError(f"truncation keeps the head whole: n = {n} is below its {len(t.head)} facts")
    return [*t.blocks.values(), *((fact,) for fact in t.facts_up_to(n)[len(t.head):])]


def _world_walk(blocks: list[tuple], sentences: list[Formula], universe: Universe) -> list[float]:
    """Exact probability of each sentence on the finite BID space of ``blocks``.

    Each block branches over "no fact", weighted 1 minus the mass it keeps,
    then over each kept fact.  Facts of relations no sentence mentions are
    not kept: their mass joins "no fact", and their elements act as generics.
    """
    relations = frozenset().union(*map(relations_of, sentences))
    kept = [(facts, 1.0 - math.fsum(p for _, p in facts)) for block in blocks
            if (facts := [(fact, p) for fact, p in block if fact.relation in relations and p > 0.0])]
    accs = [CompensatedAccumulator() for _ in sentences]

    def descend(i: int, chosen: list, weight: float) -> None:
        if i == len(kept):
            d = Instance(chosen)
            for f, acc in zip(sentences, accs):
                if eval_boolean(d, f, universe):
                    acc.add(weight)
            return
        facts, none = kept[i]
        if none > 0.0:
            descend(i + 1, chosen, weight * none)
        for fact, p in facts:
            chosen.append(fact)
            descend(i + 1, chosen, weight * p)
            chosen.pop()

    descend(0, [], 1.0)
    return [min(max(acc.value, 0.0), 1.0) for acc in accs]


def conditional_query_prob(
    t: BIDPdb, f: Formula, n: int, universe: Universe, cap: int | None = None
) -> float:
    """Exact query probability conditioned on seeing only the first n facts.

    Conditioned on the truncation event, the head blocks and the first
    ``n - len(t.head)`` tail facts form a finite block-independent space
    with the original fact probabilities; its worlds are enumerated
    exactly.  ``n`` must cover the head.
    """
    free = free_variables(f)
    if free:
        raise ValueError(f"sentence expected, found free variables {free}")
    return _world_walk(_truncated_blocks(t, n, cap), [f], universe)[0]


def approx_boolean(
    t: BIDPdb, f: Formula, epsilon: float, universe: Universe, cap: int | None = None
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
    cap: int | None = None,
) -> dict[tuple[Element, ...], float]:
    """Per-tuple marginals of an open query, each additively eps-accurate.

    The formula is grounded over every tuple of elements from the
    truncated facts and the formula's own constants.  Any tuple outside
    that candidate set can only be an answer in a world beyond the
    truncation, so its marginal is at most eps and it is not reported.
    """
    free = free_variables(f)
    if not free:
        raise ValueError("open formula expected; use approx_boolean for sentences")
    cert = choose_truncation(t, epsilon)
    blocks = _truncated_blocks(t, cert.n, cap)
    elements: set[Element] = set(constants(f))
    for fact, _ in itertools.chain.from_iterable(blocks):
        elements.update(fact.args)
    candidates = sorted(elements, key=lambda e: (isinstance(e, str), e))
    combos = list(itertools.product(candidates, repeat=len(free)))
    grounded = [substitute(f, dict(zip(free, combo))) for combo in combos]
    return dict(zip(combos, _world_walk(blocks, grounded, universe)))
