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
its outcomes has the product of those outcomes' probabilities times each
untouched block's ``1 - mass`` times the product of ``1 - p`` over all
absent tail facts; the infinite part of that product is never
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
import operator
from functools import cached_property
from typing import Hashable, Iterator

from .core import Fact, FiniteDiscretePDB, Instance
from .errors import (
    BlockMassExceedsOne,
    DivergentAssignment,
    DuplicateFact,
    ValidationError,
    WorldCapExceeded,
)
from .numerics import ProbabilityInterval, euler_tail_lower_bound
from .record import Record
from .universe import Element, FactEnumeration

ENCLOSURE_MASS_TARGET = 1e-12
ENCLOSURE_FACT_CAP = 200_000
# every float q < 1 is at most 1 - 2**-53, so q**i is 0.0 from this index on
ZERO_RULE_INDEX = 2**64


# --- tail supplies -----------------------------------------------------


class EnumerationSupply(Record):
    """Facts in canonical enumeration order, optionally one relation only.

    Supply index ``i`` is canonical index ``start + stride * (i - 1)``:
    stride 1 from 1 over every relation; for one relation, stride m (the
    number of relations) from its schema position + 1, since the canonical
    listing interleaves the relations round-robin.  Indices at or below
    ``offset`` are not supplied.
    """

    enumeration: FactEnumeration
    relation: str | None = None
    offset: int = 0
    multiplicity = 1

    def __post_init__(self):
        if self.offset < 0:
            raise ValueError(f"offset must be >= 0, got {self.offset}")
        schema = self.enumeration.schema
        if self.relation is None:
            stride, start = 1, 1
        elif self.relation in schema:
            stride, start = len(schema.relations), schema.names.index(self.relation) + 1
        else:
            raise ValueError(f"relation {self.relation!r} not in schema")
        object.__setattr__(self, "_stride", stride)
        object.__setattr__(self, "_start", start)

    @property
    def first_index(self) -> int:
        return self.offset + 1

    def facts_at(self, i: int) -> tuple[Fact, ...]:
        return (self.enumeration.fact_at(self._start + self._stride * (i - 1)),)

    def intrinsic_index(self, f: Fact) -> int | None:
        """The fact's index, or ``None`` if not supplied.  An index past the
        offset by more than :data:`ZERO_RULE_INDEX` stops being computed
        once it passes that: any such index is supplied and gets 0.0 from
        every geometric rule."""
        if self.relation not in (None, f.relation):
            return None
        try:
            k = self.enumeration.fact_index(f, self.offset + ZERO_RULE_INDEX)
        except (ValueError, KeyError):
            return None
        i = (k - self._start) // self._stride + 1
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
        # the fixed positions' value lists in position order
        by_pos = dict(self.fixed)
        value_lists = tuple(by_pos[p] for p in expected)
        object.__setattr__(self, "_value_lists", value_lists)
        object.__setattr__(self, "multiplicity", math.prod(map(len, value_lists)))

    @property
    def first_index(self) -> int:
        return 1

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
        relation, elem, cut = self.relation, self._index_element(i), self.index_position - 1
        return tuple(
            Fact(relation, (*combo[:cut], elem, *combo[cut:]))
            for combo in itertools.product(*self._value_lists)
        )

    def intrinsic_index(self, f: Fact) -> int | None:
        value_lists, cut = self._value_lists, self.index_position - 1
        if f.relation != self.relation or len(f.args) != len(value_lists) + 1:
            return None
        i = self._element_to_index(f.args[cut])
        if i is None:
            return None
        rest = f.args[:cut] + f.args[cut + 1:]
        return i if all(v in values for v, values in zip(rest, value_lists)) else None

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
        if self.rule_value(self.supply.first_index) > 1.0 + 1e-12:
            raise ValueError(
                f"rule value exceeds 1 at the first supplied index: "
                f"{self.c} * {self.q}**{self.supply.first_index}"
            )
        object.__setattr__(self, "_plans", {})  # skip_plan's, per tolerance

    def rule_value(self, i: int) -> float:
        """``c * q**i``, also for an index past the float range."""
        return self.c * self.q**i if i < ZERO_RULE_INDEX else 0.0

    def generates(self, f: Fact) -> bool:
        if f in self.exclude:
            return False
        return self.supply.intrinsic_index(f) is not None

    def probability_of(self, f: Fact) -> float:
        if f in self.exclude:
            return 0.0
        i = self.supply.intrinsic_index(f)
        # a first rule value may round past 1 within __post_init__'s slack
        return 0.0 if i is None else min(self.rule_value(i), 1.0)

    def total_mass(self) -> float:
        first = min(self.supply.first_index, ZERO_RULE_INDEX)
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

    def position(self, bound: float, p_max: float = 1.0) -> int:
        """Smallest ``k`` whose mass after k facts is at most ``bound``
        and whose fact k + 1 has probability at most ``p_max``.  Both are
        monotone in k: the step doubles from a failing k until they hold,
        then bisects.  Two logarithms give the first group g with
        ``m * c * q**g / (1 - q) <= bound`` and ``c * q**g <= p_max``; the
        first step runs to the count listed before g from that before g - 1,
        less one, if it fails (exclusions may make it hold; else from -1)."""
        if not bound >= 0.0:
            raise ValueError(f"mass bound must be nonnegative, got {bound!r}")

        def holds(k: int) -> bool:
            mass, p = self.mass_after(k)
            return mass <= bound and p <= p_max

        failing, step, log_q = -1, 1, math.log(self.q)
        mass_ratio, p_ratio = bound * (1.0 - self.q) / (self.supply.multiplicity * self.c), p_max / self.c
        if mass_ratio > 0.0 and p_ratio > 0.0:  # else a logarithm is undefined
            g = math.ceil(max(self.supply.first_index, math.log(mass_ratio) / log_q, math.log(p_ratio) / log_q))
            if (lower := self.listed_through(g - 2) - 1) < 0 or not holds(lower):
                failing, step = lower, self.listed_through(g - 1) - lower
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
        # a block's mass may round past 1 within the tolerance of its check
        return tuple((f, min(math.fsum(ps), 1.0)) for f, ps in marginals.items())

    @cached_property
    def _index(self) -> tuple:
        """What instance probabilities read, built on the first one: each head
        fact's block slot, and per block slot its outcomes by fact set; the
        exhaustive blocks' P(empty outcome); each block's log P(no outcome),
        0.0 for the exhaustive and the ``full`` ones (mass 1); their exact sum
        as non-overlapping partials (Shewchuk, *Discrete Comput. Geom.* 18, 1997),
        each the rounded rest; and each fact's (slot, p) where its block's outcomes are single facts."""
        slot = {f: j for j, block in enumerate(self.blocks.values()) for facts, _ in block for f in facts}
        outcomes = [{frozenset(facts): p for facts, p in block} for block in self.blocks.values()]
        single = {f: (j, p) for j, o in enumerate(outcomes) if all(len(fs) == 1 for fs in o) for (f,), p in o.items()}
        exhaustive = {j: o[frozenset()] for j, o in enumerate(outcomes) if frozenset() in o}
        masses = list(self.masses.values())
        log_none = [0.0 if j in exhaustive or m >= 1.0 else math.log1p(-m) for j, m in enumerate(masses)]
        full = frozenset(j for j, m in enumerate(masses) if m >= 1.0 and j not in exhaustive)
        rests: list[float] = []  # negated partials
        while rest := math.fsum(log_none + rests):
            rests.append(-rest)
        return slot, outcomes, exhaustive, log_none, [-x for x in rests], full, single

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
    def expected_size(self) -> float:
        return self.total_mass

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


def _tail_one_minus_enclosure(tail: GeometricTail, skip: frozenset[Fact] = frozenset()) -> ProbabilityInterval:
    """Enclose ``prod (1 - p)`` over all tail facts not in ``skip``.

    The first n facts are expanded, where n, whatever ``skip`` holds, is the
    smallest count whose closed-form unseen mass is at most the target and
    whose next probability is at most 1/2.  The rest, skipped facts past n
    left out, lies in ``[exp(-1.5 * mass after n), 1]``
    (:func:`numerics.euler_tail_lower_bound`): leaving out factors
    at most 1 only raises the product, and every p there is at most 1/2.

    The expansion is summed per index group and lists no fact: the facts
    of group i share the probability ``c * q**i``, so the group adds
    ``log1p(-c * q**i)`` once for each of its facts among the first n that
    is not skipped, and one ``fsum`` adds all these terms exactly, streamed
    through ``map`` calls into no list, one pass per set bit of m.  Only a
    group that the expansion ends inside and that holds a skipped fact is
    listed, to tell which of its facts come first.  A tail whose n passes
    :data:`ENCLOSURE_FACT_CAP` is expanded to the cap and gets ``[0, hi]``.
    """
    skipped = sorted(i for f in skip - tail.exclude if (i := tail.supply.intrinsic_index(f)))
    n = tail.position(ENCLOSURE_MASS_TARGET, p_max=0.5)
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
    def terms(indices, neg_c=-tail.c, q=tail.q):  # log1p(-c * q**i) per index
        return map(math.log1p, map(operator.mul, itertools.repeat(neg_c), map(pow, itertools.repeat(q), indices)))
    groups = range(below_one, last + 1)
    hi = math.exp(math.fsum(itertools.chain(
        terms(groups) if m & 1 else (),
        *(map(operator.mul, itertools.repeat(1 << b), terms(groups)) for b in range(1, m.bit_length()) if m >> b & 1),
        map(operator.neg, terms(i for i in dropped.elements() if i >= below_one)),
    )))
    if n > ENCLOSURE_FACT_CAP:
        return ProbabilityInterval(0.0, hi)
    # a mass rounded below 0 bounds nothing more than the empty tail does
    return ProbabilityInterval(hi * euler_tail_lower_bound(max(tail.mass_after(n)[0], 0.0)), hi)


def _instance_prob(b: BIDPdb, d: Instance) -> ProbabilityInterval:
    """Product of the touched blocks' outcome probabilities, of ``1 - mass``
    over the untouched blocks, and of the enclosed absent-tail factors.  The
    facts of ``d`` in one block must form one of its outcomes, else the
    probability is zero; only a block with an outcome of other than one fact
    collects its facts of ``d``.  Exhaustive blocks give their factors exactly,
    in the linear domain, after the enclosure; the others sum in the log domain
    in the order ``d`` touches them, the untouched ones from the stored partials
    of :attr:`BIDPdb._index`."""
    slot, outcomes, exhaustive, log_none, partials, full, single = b._index
    log_present, log_absent, exact = 0.0, partials.copy(), exhaustive.copy()
    touched, tail_skip = set(), []  # block slots; tail facts of d
    for f in d:
        j, p = single.get(f) or (slot.get(f), None)
        if j is None:  # a tail fact, or one no block lists
            p = b.tail.probability_of(f) if b.tail is not None else 0.0
            tail_skip.append(f)
        elif j in touched:  # read at its first fact in d; a single-fact block holds one
            if p is not None:
                return ProbabilityInterval.point(0.0)
            continue
        else:
            if p is None:
                p = outcomes[j].get(frozenset(g for g in d if slot.get(g) == j), 0.0)
            touched.add(j)
            log_absent.append(-log_none[j])
        if p <= 0.0:
            return ProbabilityInterval.point(0.0)
        if j in exact:
            exact[j] = p
        else:
            log_present += math.log(p) if p < 1.0 else 0.0
    factor = math.prod(exact.values())
    if not full <= touched or factor == 0.0:  # an untouched full block holds an outcome
        return ProbabilityInterval.point(0.0)
    point = min(math.exp(log_present + math.fsum(log_absent)), 1.0)
    if b.tail is None:
        return ProbabilityInterval.point(point * factor)
    return _tail_one_minus_enclosure(b.tail, frozenset(tail_skip)).scale(point).scale(factor)


def ti_instance_prob(t: BIDPdb, d: Instance) -> ProbabilityInterval:
    """Probability of drawing exactly the instance ``d``.

    Without a tail, a point interval at the product computed in floating
    point, as the exp of a sum of logs, which rounding may put a few ulps
    off the exact product; the untouched blocks are summed from stored exact
    partials, so the cost follows ``d``, not the head.  With a tail the
    absent-fact product is expanded where the tail's own unseen mass meets
    the target, whatever ``d`` holds, and enclosed past that, present tail
    facts there included; it is ``[0, hi]`` only for a tail whose own stop
    passes :data:`ENCLOSURE_FACT_CAP`.
    """
    return _instance_prob(t, d)


def bid_instance_prob(b: BIDPdb, d: Instance) -> ProbabilityInterval:
    """Probability of the instance: zero if two facts share a block, else
    the product of the touched facts' probabilities and the untouched
    blocks' remainder masses."""
    return _instance_prob(b, d)


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

    Every sampled instance holds at most one outcome per block.
    """
    return _draw(b, rng, delta)
