"""Block-independent-disjoint and tuple-independent probability spaces.

A fact-probability assignment is a finite *head* of explicit
(fact, probability) pairs plus an optional infinite *tail* generated by
a rule over the canonical fact enumeration.  An independent space
exists for such an assignment exactly when the probability sum is
finite, so construction certifies the tail's mass in closed form and
refuses anything it cannot certify.

A block-disjoint space is independent blocks of mutually exclusive
outcomes, each a set of facts with its probability.  Blocks of single
facts are derived structurally (key-attribute projection, explicit
listing, or singletons); a world table is one *exhaustive* block of all
its worlds (:func:`table_space`).  Tail facts always form singleton
blocks.  A finite instance whose facts in each touched block form one of
its outcomes has the product of those outcomes' probabilities times the
remainders of the untouched blocks times the product of ``1 - p`` over
all absent tail facts; the infinite part of that product is never
evaluated, only enclosed.

Every tail truncation (the sampler's, the enclosure's and ``approx``'s)
solves one closed form, :meth:`GeometricTail.mass_after`, for its point
with :meth:`GeometricTail.position`; no caller walks the tail to find it.
The tail owns its layout in index groups, whose facts share one
probability: :meth:`GeometricTail.group` lists a group's facts and
:meth:`GeometricTail.dropped` counts each group's facts among the first
k.  The enclosure and the skip sampler read both and list a group only
when they must tell its facts apart.

A tuple-independent space is the block-disjoint space whose blocks are
all singletons: :func:`ti_construct` builds that case of :class:`BIDPdb`,
so the two share one type, construction, instance probabilities and sampler.
"""

from __future__ import annotations

import bisect
import collections
import itertools
import math
from functools import cached_property
from typing import Hashable, Iterator, Sequence

from .core import Fact, FiniteDiscretePDB, Instance
from .errors import (
    BlockMassExceedsOne,
    DivergentAssignment,
    DuplicateFact,
    ValidationError,
    WorldCapExceeded,
)
from .numerics import ProbabilityInterval
from .record import Record
from .universe import Element, FactEnumeration

ENCLOSURE_MASS_TARGET = 1e-12
ENCLOSURE_FACT_CAP = 200_000


# --- tail supplies -----------------------------------------------------


class EnumerationSupply(Record):
    """Facts in canonical enumeration order, optionally one relation only.

    The intrinsic index of a fact is its position in the (relation-)
    enumeration; indices at or below ``offset`` are not supplied.
    """

    enumeration: FactEnumeration
    relation: str | None = None
    offset: int = 0

    def __post_init__(self):
        if self.offset < 0:
            raise ValueError(f"offset must be >= 0, got {self.offset}")
        if self.relation is not None and self.relation not in self.enumeration.schema:
            raise ValueError(f"relation {self.relation!r} not in schema")

    @property
    def first_index(self) -> int:
        return self.offset + 1

    @property
    def multiplicity(self) -> int:
        return 1

    def facts_at(self, i: int) -> tuple[Fact, ...]:
        if self.relation is None:
            return (self.enumeration.fact_at(i),)
        return (self.enumeration.relation_fact_at(self.relation, i),)

    def intrinsic_index(self, f: Fact) -> int | None:
        try:
            if self.relation is None:
                i = self.enumeration.fact_index(f)
            else:
                if f.relation != self.relation:
                    return None
                i = self.enumeration.relation_fact_index(f)
        except (ValueError, KeyError):
            return None
        return i if i > self.offset else None

    def relations(self) -> frozenset[str]:
        if self.relation is not None:
            return frozenset({self.relation})
        return frozenset(self.enumeration.schema.names)


class ProductSupply(Record):
    """Facts ``R(..., e_i, ...)`` with one index attribute running over all
    of the universe's natural positions and finite value lists elsewhere.

    Group ``i`` holds one fact per combination of the fixed values, with
    the index attribute carrying the element for ``i``: the integer
    itself over naturals, the decimal numeral over a strings universe.
    """

    enumeration: FactEnumeration
    relation: str
    index_position: int  # 1-based
    fixed: tuple[tuple[int, tuple[Element, ...]], ...]  # (position, values)

    def __post_init__(self):
        schema = self.enumeration.schema
        universe = self.enumeration.universe
        arity = schema.arity_of(self.relation)
        positions = sorted(pos for pos, _ in self.fixed)
        expected = [p for p in range(1, arity + 1) if p != self.index_position]
        if not 1 <= self.index_position <= arity:
            raise ValueError(f"index position {self.index_position} outside arity {arity}")
        if positions != expected:
            raise ValueError(
                f"fixed positions {positions} must cover exactly the non-index positions {expected}"
            )
        for pos, values in self.fixed:
            if not values:
                raise ValueError(f"fixed position {pos} has no values")
            for v in values:
                if not universe.contains(v):
                    raise ValueError(f"fixed value {v!r} not in the universe")
            if len(set(values)) != len(values):
                raise ValueError(f"fixed position {pos} has duplicate values")
        if universe.kind == "strings":
            digits = set("0123456789")
            if not digits <= set(universe.alphabet):
                raise ValueError("decimal index attribute needs digits 0-9 in the alphabet")

    @property
    def first_index(self) -> int:
        return 1

    @property
    def multiplicity(self) -> int:
        m = 1
        for _, values in self.fixed:
            m *= len(values)
        return m

    def _index_element(self, i: int) -> Element:
        if self.enumeration.universe.kind == "naturals":
            return i
        return str(i)

    def _element_to_index(self, e: Element) -> int | None:
        if self.enumeration.universe.kind == "naturals":
            return e if isinstance(e, int) and not isinstance(e, bool) and e >= 1 else None
        # exactly the numerals _index_element writes: ASCII digits, no leading zero
        if not isinstance(e, str) or not (e.isascii() and e.isdigit()) or e[0] == "0":
            return None
        return int(e)

    def facts_at(self, i: int) -> tuple[Fact, ...]:
        arity = self.enumeration.schema.arity_of(self.relation)
        by_pos = dict(self.fixed)
        value_lists = [by_pos[p] for p in range(1, arity + 1) if p != self.index_position]
        idx_elem = self._index_element(i)
        out = []
        for combo in itertools.product(*value_lists):
            args: list[Element] = []
            it = iter(combo)
            for p in range(1, arity + 1):
                args.append(idx_elem if p == self.index_position else next(it))
            out.append(Fact(self.relation, tuple(args)))
        return tuple(out)

    def intrinsic_index(self, f: Fact) -> int | None:
        if f.relation != self.relation:
            return None
        arity = self.enumeration.schema.arity_of(self.relation)
        if len(f.args) != arity:
            return None
        by_pos = dict(self.fixed)
        i = self._element_to_index(f.args[self.index_position - 1])
        if i is None:
            return None
        for p in range(1, arity + 1):
            if p != self.index_position and f.args[p - 1] not in by_pos[p]:
                return None
        return i

    def relations(self) -> frozenset[str]:
        return frozenset({self.relation})


TailSupply = EnumerationSupply | ProductSupply


# --- tail assignments --------------------------------------------------


class GeometricTail(Record):
    """Tail rule ``p = c * q**i`` at intrinsic index ``i``, with exclusions.

    Excluded facts are removed from the supply and their rule mass is
    subtracted, so the total mass stays in closed form:
    ``m * c * q**first / (1 - q) - sum of excluded facts' rule values``.
    """

    supply: TailSupply
    c: float
    q: float
    exclude: frozenset[Fact] = frozenset()

    def __post_init__(self):
        if not self.c > 0.0:
            raise ValueError(f"geometric coefficient must be positive, got {self.c}")
        if not 0.0 < self.q < 1.0:
            raise DivergentAssignment(
                f"geometric ratio must lie in (0, 1) for a convergent tail, got {self.q}"
            )
        if self.c * self.q**self.supply.first_index > 1.0 + 1e-12:
            raise ValueError(
                f"rule value exceeds 1 at the first supplied index: "
                f"{self.c} * {self.q}**{self.supply.first_index}"
            )
        object.__setattr__(self, "_plans", {})  # skip_plan's, per tolerance

    def rule_value(self, i: int) -> float:
        return self.c * self.q**i

    def generates(self, f: Fact) -> bool:
        if f in self.exclude:
            return False
        return self.supply.intrinsic_index(f) is not None

    def probability_of(self, f: Fact) -> float:
        if f in self.exclude:
            return 0.0
        i = self.supply.intrinsic_index(f)
        return 0.0 if i is None else self.rule_value(i)

    def total_mass(self) -> float:
        first = self.supply.first_index
        gross = self.supply.multiplicity * self.c * self.q**first / (1.0 - self.q)
        removed = math.fsum(
            self.rule_value(i)
            for f in self.exclude
            if (i := self.supply.intrinsic_index(f)) is not None
        )
        return gross - removed

    def group(self, i: int) -> tuple[Fact, ...]:
        """The listed facts of index group ``i``, in listing order: the
        supplied ones that are not excluded.  Nothing is kept."""
        exclude = self.exclude
        return tuple(f for f in self.supply.facts_at(i) if f not in exclude)

    def indexed_facts(self) -> Iterator[tuple[int, Fact, float]]:
        """(intrinsic index, fact, probability) in canonical tail order."""
        i = self.supply.first_index
        while True:
            p = self.rule_value(i)
            for f in self.group(i):
                yield i, f, p
            i += 1

    @cached_property
    def _excluded_indices(self) -> tuple[int, ...]:
        """Sorted intrinsic indices of the excluded facts the supply lists."""
        return tuple(sorted(i for f in self.exclude if (i := self.supply.intrinsic_index(f))))

    def listed_through(self, i: int) -> int:
        """How many listed tail facts have intrinsic index at most ``i``."""
        groups = max(i - self.supply.first_index + 1, 0)
        return self.supply.multiplicity * groups - bisect.bisect_right(self._excluded_indices, i)

    def group_of(self, k: int) -> int:
        """The index group holding listed fact k + 1."""
        m, first = self.supply.multiplicity, self.supply.first_index
        # group i holds fact k + 1 when it is the first to list more than k
        # facts; at most len(excluded) missing facts push it past first + k // m
        groups = range(first + k // m, first + (k + len(self._excluded_indices)) // m + 1)
        return groups[bisect.bisect_left(groups, k + 1, key=self.listed_through)]

    def dropped(self, k: int) -> tuple[int, collections.Counter]:
        """(``last``, the index group of listed fact k or ``first - 1`` for
        k = 0; and per group through ``last`` how many of its m supplied
        facts are not among the first k listed: the excluded ones, and in
        ``last`` those past fact k).  Group i holds ``m - dropped[i]`` of them."""
        last = self.group_of(k - 1)
        dropped = collections.Counter(i for i in self._excluded_indices if i <= last)
        dropped[last] += self.listed_through(last) - k
        return last, dropped

    def mass_after(self, k: int) -> tuple[float, float]:
        """(mass of the listed tail facts after the first k, probability of
        fact k + 1), in closed form: with fact k + 1 in index group ``i``,
        the rest of group ``i``, plus ``m * c * q**(i+1) / (1 - q)``, minus
        the excluded facts beyond group ``i``.
        """
        m, excluded, i = self.supply.multiplicity, self._excluded_indices, self.group_of(k)
        p, beyond = self.rule_value(i), excluded[bisect.bisect_right(excluded, i):]
        rest_of_group = (self.listed_through(i) - k) * p
        later = m * self.rule_value(i + 1) / (1.0 - self.q) - math.fsum(map(self.rule_value, beyond))
        return rest_of_group + later, p

    def position(self, bound: float, start: int = 0, p_max: float = 1.0) -> int:
        """Smallest ``k >= start`` whose mass after k facts is at most ``bound``
        and whose fact k + 1 has probability at most ``p_max``.  Both are
        monotone in k: the step doubles until they hold, then bisects."""
        if not bound >= 0.0:
            raise ValueError(f"mass bound must be nonnegative, got {bound!r}")

        def holds(k: int) -> bool:
            mass, p = self.mass_after(k)
            return mass <= bound and p <= p_max

        failing, step = start - 1, 1
        while not holds(failing + step):
            failing, step = failing + step, 2 * step
        candidates = range(failing + 1, failing + step + 1)
        return candidates[bisect.bisect_left(candidates, True, key=holds)]

    def truncation_count(self, delta: float) -> int:
        """Smallest n with the mass beyond the n-th tail fact at most delta."""
        n = self.position(delta)
        if n > ENCLOSURE_FACT_CAP:
            raise WorldCapExceeded(
                f"tail truncation needs {n} facts, more than the cap {ENCLOSURE_FACT_CAP}",
                required=n,
                cap=ENCLOSURE_FACT_CAP,
            )
        return n

    def skip_plan(self, delta: float) -> tuple:
        """``(sure, runs, ends, drawn)``: the first ``truncation_count(delta)``
        listed facts as :meth:`draw` reads them, built once per tolerance.

        ``sure`` holds the facts with p >= 1, which every draw holds.  The
        others form runs, one per index group with a listed fact among them:
        run j is ``(i, count, w)`` for the first ``count`` listed facts of
        group i, each of weight ``w = -log1p(-p)``, and ``ends[j]`` is the
        sum of the weights of every fact through run j.  Their facts are
        not listed: ``drawn`` keeps a group's facts from its first draw on.
        """
        plan = self._plans.get(delta)
        if plan is None:
            last, dropped = self.dropped(self.truncation_count(delta))
            m, sure, runs = self.supply.multiplicity, [], []
            for i in range(self.supply.first_index, last + 1):
                count, p = m - dropped[i], self.rule_value(i)
                if p >= 1.0:
                    sure.extend(self.group(i)[:count])
                elif count:
                    runs.append((i, count, -math.log1p(-p)))
            ends = tuple(itertools.accumulate(k * w for _, k, w in runs))
            plan = self._plans[delta] = (tuple(sure), tuple(runs), ends, {})
        return plan

    def draw(self, rng, delta: float) -> list[Fact]:
        """The tail facts of one draw: the first ``truncation_count(delta)``
        listed facts, each occurring independently with its probability.

        No fact in a stretch of total weight w occurs with probability
        ``exp(-w)``, so the next fact to occur is the one in whose weight the
        running sum plus an Exp(1) variate falls.  Each step adds one variate
        and bisects over the plan's runs, and stops past the last run.
        """
        sure, runs, ends, drawn = self.skip_plan(delta)
        chosen = list(sure)
        total, j, r = 0.0, 0, 0  # the weight before fact r of run j
        while True:
            total -= math.log(1.0 - rng.random())
            hit = bisect.bisect_right(ends, total, j)
            if hit == len(ends):
                return chosen
            if hit > j:
                j, r = hit, 0
            i, count, w = runs[j]
            begin = ends[j - 1] if j else 0.0
            # rounding may place the sum on a fact already passed or past the run
            r = min(max(r, int((total - begin) / w)), count - 1)
            facts = drawn.get(i)
            if facts is None:
                facts = drawn[i] = self.group(i)
            chosen.append(facts[r])
            r += 1
            if r == count:
                total, j, r = ends[j], j + 1, 0
            else:
                total = begin + r * w


class ConstantTail(Record):
    """Every supplied fact gets the same probability; divergent unless zero."""

    supply: TailSupply
    value: float
    exclude: frozenset[Fact] = frozenset()

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"constant tail value must be a probability, got {self.value}")

    def generates(self, f: Fact) -> bool:
        if self.value == 0.0 or f in self.exclude:
            return False
        return self.supply.intrinsic_index(f) is not None


Tail = GeometricTail | ConstantTail


class FactProbabilityAssignment(Record):
    """Explicit head of (fact, probability) pairs plus an optional tail."""

    head: tuple[tuple[Fact, float], ...]
    tail: Tail | None = None

    def __post_init__(self):
        object.__setattr__(self, "head", tuple((f, float(p)) for f, p in self.head))
        seen: set[Fact] = set()
        for f, p in self.head:
            if math.isnan(p) or not (0.0 <= p <= 1.0):
                raise ValidationError(f"probability out of range for {f}: {p!r}")
            if f in seen:
                raise DuplicateFact(f"fact {f} assigned twice")
            seen.add(f)
        if self.tail is not None:
            for f, _ in self.head:
                if self.tail.generates(f):
                    raise DuplicateFact(
                        f"fact {f} appears in the head and is generated by the tail"
                    )


# --- block-independent-disjoint spaces ----------------------------------


class BlockPartition(Record):
    """Structural partition of facts into blocks.

    Facts matching an explicit listing share the listed block; facts of
    a relation with a declared key share a block per key value (the
    first ``j`` attributes); every other fact is its own singleton
    block.
    """

    key_attributes: tuple[tuple[str, int], ...] = ()
    explicit: tuple[tuple[Fact, str], ...] = ()

    def __post_init__(self):
        names = [r for r, _ in self.key_attributes]
        if len(set(names)) != len(names):
            raise ValueError("duplicate relation in key declarations")
        for r, j in self.key_attributes:
            if j < 0:
                raise ValueError(f"key width must be >= 0 for {r!r}, got {j}")
        labels = dict(self.explicit)
        if len(labels) != len(self.explicit):
            raise ValueError("a fact is listed in two explicit blocks")
        object.__setattr__(self, "_labels", labels)

    @classmethod
    def singletons(cls) -> "BlockPartition":
        return cls()

    @classmethod
    def by_keys(cls, **widths: int) -> "BlockPartition":
        return cls(key_attributes=tuple(widths.items()))

    @classmethod
    def explicit_blocks(cls, assignments: dict[Fact, str]) -> "BlockPartition":
        return cls(explicit=tuple(assignments.items()))

    def key(self, f: Fact) -> Hashable:
        if f in self._labels:
            return ("explicit", self._labels[f])
        for r, j in self.key_attributes:
            if f.relation == r:
                return ("key", r, f.args[:j])
        return ("fact", f)


def is_good(partition: BlockPartition, d: Instance) -> bool:
    """True iff the instance has at most one fact per block."""
    seen: set[Hashable] = set()
    for f in d:
        k = partition.key(f)
        if k in seen:
            return False
        seen.add(k)
    return True


Outcome = tuple[tuple[Fact, ...], float]  # a set of facts, and its probability
Block = tuple[Outcome, ...]  # disjoint outcomes


class BIDPdb:
    """A block-independent-disjoint measure over finite instances.

    ``blocks`` maps each block key to its disjoint ``(facts, p)`` outcomes;
    blocks are independent of each other and of the tail, whose facts are
    singleton blocks.  A block that lists an outcome with no facts is
    *exhaustive*: its outcomes carry all of its mass, and an instance gets
    the listed probability of the outcome it holds, the empty one included.
    :func:`bid_construct` and :func:`ti_construct` build blocks of single
    facts, :func:`table_space` one exhaustive block of a world table, and
    :func:`completion.complete` a table's block next to fresh facts' blocks.
    """

    def __init__(self, blocks: dict[Hashable, Block], tail: GeometricTail | None = None):
        self.blocks = blocks
        self.tail = tail
        self.masses = {k: math.fsum(p for _, p in block) for k, block in blocks.items()}
        for key, mass in self.masses.items():
            if mass > 1.0 + 1e-12:
                raise BlockMassExceedsOne(f"block {key!r} has mass {mass}, exceeding 1")
        self.total_mass = math.fsum(p * len(facts) for block in blocks.values() for facts, p in block) + (
            tail.total_mass() if tail is not None else 0.0
        )

    @cached_property
    def head(self) -> tuple[tuple[Fact, float], ...]:
        """Every head fact with its marginal, block by block."""
        marginals: dict[Fact, list[float]] = {}
        for block in self.blocks.values():
            for facts, p in block:
                for f in facts:
                    marginals.setdefault(f, []).append(p)
        return tuple((f, math.fsum(ps)) for f, ps in marginals.items())

    @cached_property
    def _head_probs(self) -> dict[Fact, float]:
        return dict(self.head)

    @cached_property
    def _index(self) -> tuple:
        """What instance probabilities read, built on the first one: each head
        fact's block slot, and per block slot its outcomes by fact set; the
        exhaustive blocks' P(empty outcome); each block's log P(no outcome),
        0.0 for the exhaustive ones."""
        slot = {f: j for j, block in enumerate(self.blocks.values()) for facts, _ in block for f in facts}
        outcomes = [{frozenset(facts): p for facts, p in block} for block in self.blocks.values()]
        exhaustive = {j: o[frozenset()] for j, o in enumerate(outcomes) if frozenset() in o}
        log_none = [
            0.0 if j in exhaustive else math.log1p(-m) if m < 1.0 else -math.inf
            for j, m in enumerate(self.masses.values())
        ]
        return slot, outcomes, exhaustive, log_none

    @cached_property
    def _draw_ends(self) -> list[tuple[tuple[tuple[Fact, ...], ...], list[float]]]:
        """What draws read, built on the first one: per block its outcomes'
        fact sets and the running sums of their probabilities, added in
        outcome order."""
        return [
            (tuple(facts for facts, _ in block), list(itertools.accumulate(p for _, p in block)))
            for block in self.blocks.values()
        ]

    @property
    def remainders(self) -> dict[Hashable, float]:
        """Per block, the probability that none of its outcomes occurs."""
        return {k: max(0.0, 1.0 - m) for k, m in self.masses.items()}

    @property
    def expected_size(self) -> float:
        return self.total_mass

    def probability_of(self, f: Fact) -> float:
        """The marginal probability of ``f``."""
        p = self._head_probs.get(f)
        if p is not None:
            return p
        if self.tail is not None:
            return self.tail.probability_of(f)
        return 0.0

    def instance_prob(self, d: Instance) -> ProbabilityInterval:
        return bid_instance_prob(self, d)

    def sample(self, rng, delta: float) -> Instance:
        return bid_sample(self, rng, delta)


def _construct(partition: BlockPartition, assignment: FactProbabilityAssignment) -> BIDPdb:
    tail = assignment.tail
    if isinstance(tail, ConstantTail):
        if tail.value > 0.0:
            raise DivergentAssignment(
                f"constant positive probability {tail.value} over infinitely many facts diverges"
            )
        tail = None
    if tail is not None:
        tail_relations = tail.supply.relations()
        for r, _ in partition.key_attributes:
            if r in tail_relations:
                raise ValidationError(
                    f"key-attribute blocks over tail relation {r!r} are not supported; "
                    "only singleton tail blocks are supported"
                )
        for f, _ in partition.explicit:
            if tail.generates(f):
                raise ValidationError(
                    f"explicitly listed fact {f} is generated by the tail; only "
                    "singleton tail blocks are supported"
                )
    blocks: dict[Hashable, list[Outcome]] = {}
    for f, p in assignment.head:
        if p > 0.0:
            blocks.setdefault(partition.key(f), []).append(((f,), p))
    return BIDPdb({k: tuple(outcomes) for k, outcomes in blocks.items()}, tail)


def bid_construct(
    partition: BlockPartition, assignment: FactProbabilityAssignment
) -> BIDPdb:
    """Build a block-disjoint space; every block mass must stay at most one.

    The tail mass is certified finite in closed form.  Tail facts always
    form singleton blocks, so the declared partition must not claim any
    tail relation or tail-generated fact.
    """
    return _construct(partition, assignment)


def ti_construct(assignment: FactProbabilityAssignment) -> BIDPdb:
    """Build a tuple-independent space, the singleton-block BID space,
    certifying that the mass is finite."""
    return _construct(BlockPartition.singletons(), assignment)


def table_space(p: FiniteDiscretePDB) -> BIDPdb:
    """The world table as one exhaustive block: every world in
    :meth:`FiniteDiscretePDB.instances` order, led by the empty world even
    where the table gives it no mass, so that its probability stays exact."""
    worlds = dict.fromkeys([Instance.empty(), *p.instances()])
    return BIDPdb({"table": tuple((d.facts, p.probability(d)) for d in worlds)})


# --- instance probabilities ----------------------------------------------


def _tail_one_minus_enclosure(
    tail: GeometricTail | None, skip: frozenset[Fact] = frozenset()
) -> ProbabilityInterval:
    """Enclose ``prod (1 - p)`` over all tail facts not in ``skip``.

    The first n facts are expanded, where n is the smallest count past
    every skipped fact whose closed-form unseen mass is at most the
    target and whose next probability is at most 1/2, so the exponential
    lower bound applies to the unseen remainder.

    The expansion is summed per index group and lists no fact: the facts
    of group i share the probability ``c * q**i``, so the group adds
    ``log1p(-c * q**i)`` once for each of its facts among the first n that
    is not skipped, and one ``fsum`` adds all these terms exactly.  Only a
    group that the expansion ends inside and that holds a skipped fact is
    listed, to tell which of its facts come first; past the skip horizon,
    only the fact cap can end the expansion there.
    """
    if tail is None:
        return ProbabilityInterval.point(1.0)
    skipped = sorted(i for f in skip - tail.exclude if (i := tail.supply.intrinsic_index(f)))
    start = tail.listed_through(skipped[-1] if skipped else 0)
    n = tail.position(ENCLOSURE_MASS_TARGET, start=start, p_max=0.5)
    k = min(n, ENCLOSURE_FACT_CAP)
    # the facts to count are all m of each group first..last, less one of
    # group i for each fact of it dropped: not among the first k, or skipped
    last, dropped = tail.dropped(k)
    skipped_in_last = skipped.count(last)
    if skipped_in_last and k < tail.listed_through(last):
        skipped_in_last = len(skip.intersection(tail.group(last)[: k - tail.listed_through(last - 1)]))
    dropped.update(i for i in skipped if i < last)
    dropped[last] += skipped_in_last
    m, below_one = tail.supply.multiplicity, tail.supply.first_index
    # p >= 1 only in the first groups, which must count no fact
    while below_one <= last and tail.rule_value(below_one) >= 1.0:
        if dropped[below_one] < m:
            return ProbabilityInterval.point(0.0)
        below_one += 1
    # each group's term m times, as one exact multiple per set bit of m, less
    # the dropped facts' terms: fsum then adds every fact's term exactly
    c, q, weights = tail.c, tail.q, [1 << b for b in range(m.bit_length()) if m >> b & 1]
    hi = math.exp(math.fsum(itertools.chain(
        (w * math.log1p(-c * q**i) for w in weights for i in range(below_one, last + 1)),
        (-math.log1p(-c * q**i) for i in dropped.elements() if i >= below_one),
    )))
    if n > ENCLOSURE_FACT_CAP:
        return ProbabilityInterval(0.0, hi)
    lo = hi * math.exp(-1.5 * tail.mass_after(n)[0])
    return ProbabilityInterval(min(lo, hi), hi)


def _instance_prob(b: BIDPdb, d: Instance) -> ProbabilityInterval:
    """Product of the touched blocks' outcome probabilities, of ``1 - mass``
    over the untouched blocks, and of the enclosed absent-tail factors.  The
    facts of ``d`` in one block must form one of its outcomes, else the
    probability is zero.  Exhaustive blocks give their factors exactly, in
    the linear domain, after the enclosure; the others sum in the log domain.
    """
    slot, outcomes, exhaustive, log_none = b._index
    touched: dict[int | Fact, list[Fact]] = {}  # block slot, or tail fact: its facts in d
    for f in d:
        touched.setdefault(slot.get(f, f), []).append(f)
    log_present, log_none, exact = 0.0, log_none.copy(), exhaustive.copy()
    tail_skip: list[Fact] = []
    for key, facts in touched.items():
        if isinstance(key, Fact):
            p = b.tail.probability_of(key) if b.tail is not None else 0.0
            tail_skip.append(key)
        else:
            p = outcomes[key].get(frozenset(facts), 0.0)
            log_none[key] = 0.0
        if p <= 0.0:
            return ProbabilityInterval.point(0.0)
        if key in exact:
            exact[key] = p
        else:
            log_present += math.log(p) if p < 1.0 else 0.0
    log_absent = math.fsum(log_none)
    factor = math.prod(exact.values())
    if log_absent == -math.inf or factor == 0.0:
        return ProbabilityInterval.point(0.0)
    point = min(math.exp(log_present + log_absent), 1.0)
    return _tail_one_minus_enclosure(b.tail, frozenset(tail_skip)).scale(point).scale(factor)


def ti_instance_prob(t: BIDPdb, d: Instance) -> ProbabilityInterval:
    """Probability of drawing exactly the instance ``d``.

    Without a tail, a point interval at the product computed in floating
    point, as the exp of a sum of logs, which rounding may put a few ulps
    off the exact product; with a tail the infinite absent-fact product is
    enclosed.
    """
    return _instance_prob(t, d)


def bid_instance_prob(b: BIDPdb, d: Instance) -> ProbabilityInterval:
    """Probability of the instance: zero if two facts share a block, else
    the product of the touched facts' probabilities and the untouched
    blocks' remainder masses."""
    return _instance_prob(b, d)


def ti_event_probs(t: BIDPdb, fs: Sequence[Fact]) -> tuple[float, float]:
    """(probability all facts occur, probability at least one occurs)."""
    facts = list(fs)
    if len(set(facts)) != len(facts):
        raise DuplicateFact("event facts must be distinct")
    ps = [t.probability_of(f) for f in facts]
    conj = math.prod(ps, start=1.0)  # partial products only shrink, so none underflows early
    # 0.0 - expm1 keeps small unions that 1 - exp cancels, and no -0.0; the
    # union is at least its largest term, which rounding may have undercut
    union = 0.0 - math.expm1(math.fsum(math.log1p(-p) if p < 1.0 else -math.inf for p in ps))
    return conj, max([union, *ps])


# --- sampling ------------------------------------------------------------


def _draw(b: BIDPdb, rng, delta: float) -> Instance:
    if math.isnan(delta) or not (0.0 < delta < 1.0):
        raise ValueError(f"total-variation tolerance must lie in (0, 1), got {delta!r}")
    chosen: list[Fact] = []
    for outcomes, ends in b._draw_ends:
        # the first outcome whose running sum passes the uniform; none past the last
        i = bisect.bisect_right(ends, rng.random())
        if i < len(outcomes):
            chosen.extend(outcomes[i])
    if b.tail is not None:
        chosen += b.tail.draw(rng, delta)
    return Instance(chosen)


def ti_sample(t: BIDPdb, rng, delta: float) -> Instance:
    """Draw an instance; within total-variation ``delta`` of the true law.

    Head facts are exact independent coin flips.  The tail is truncated
    at the first point where the unseen mass is at most ``delta`` (a fact
    beyond the truncation occurs with probability at most that mass), and
    its first n facts occur independently, each with its probability.
    Facts with p >= 1 always occur; among the others the draw jumps from
    one occurring fact to the next (:meth:`GeometricTail.draw`), so it costs
    O(head blocks + (1 + tail facts drawn) * log n) and builds a fact only
    when it is drawn.
    """
    return _draw(t, rng, delta)


def bid_sample(b: BIDPdb, rng, delta: float) -> Instance:
    """Draw an instance: one categorical outcome per block, tail truncated
    and drawn as in :func:`ti_sample`.

    Every sampled instance is good by construction.
    """
    return _draw(b, rng, delta)
