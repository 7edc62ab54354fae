import collections
import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from infpdb import independence
from infpdb.completion import complete, completion_instance_prob
from infpdb.core import Fact, FiniteDiscretePDB, Instance, Schema
from infpdb.errors import (
    BlockMassExceedsOne,
    DivergentAssignment,
    DuplicateFact,
    ValidationError,
    WorldCapExceeded,
)
from infpdb.independence import (
    ENCLOSURE_FACT_CAP,
    ENCLOSURE_MASS_TARGET,
    BlockPartition,
    ConstantTail,
    EnumerationSupply,
    FactProbabilityAssignment,
    GeometricTail,
    ProductSupply,
    bid_construct,
    bid_instance_prob,
    bid_sample,
    table_space,
    ti_construct,
    ti_instance_prob,
    ti_sample,
)
from infpdb.oracle import enumerate_worlds, exact_event_prob
from infpdb.universe import FactEnumeration, Universe, tuple_at

from helpers import is_good, probability_of, ti_event_probs, width

NAT = Universe.naturals()
R1 = Schema.of(R=1)


def fact(rel, *args):
    return Fact(rel, args)


def rfacts(*indices):
    return [fact("R", i) for i in indices]


EXAMPLE_TABLE = (
    (fact("R", "A", "1"), 0.8),
    (fact("R", "B", "1"), 0.4),
    (fact("R", "B", "2"), 0.5),
    (fact("R", "C", "3"), 0.9),
)


def geometric_tail(c=1.0, q=0.5, offset=0, exclude=()):
    e = FactEnumeration(R1, NAT)
    return GeometricTail(EnumerationSupply(e, offset=offset), c=c, q=q, exclude=frozenset(exclude))


def product_tail(keys, exclude=(), c=1.0, q=0.5):
    """Tail R(key, i) over naturals: one fact per key in each index group."""
    e = FactEnumeration(Schema.of(R=2), NAT)
    supply = ProductSupply(e, "R", index_position=2, fixed=((1, tuple(keys)),))
    return GeometricTail(supply, c=c, q=q, exclude=frozenset(exclude))


def listed_mass_after(tail, k, terms=4000):
    """(fsum of the listed probabilities after the first k, the next one)."""
    ps = [p for _, _, p in itertools.islice(tail.indexed_facts(), k, k + terms)]
    return math.fsum(ps), ps[0]


def linear_position(tail, bound, p_max):
    """The first k whose mass after k is at most bound and whose fact k + 1
    has probability at most p_max, by trying every k from 0."""
    k = 0
    while True:
        mass, p = tail.mass_after(k)
        if mass <= bound and p <= p_max:
            return k
        k += 1


def random_supply(data, multiplicities=(1, 2, 3, 5)):
    """An enumeration supply (m = 1, any relation and offset) or a product
    supply R(key, i) with m keys."""
    if data.draw(st.booleans()):
        e = FactEnumeration(Schema.of(R=1, S=2), NAT)
        return EnumerationSupply(e, data.draw(st.sampled_from((None, "R", "S"))), data.draw(st.integers(0, 5)))
    keys = tuple(range(1, data.draw(st.sampled_from(multiplicities)) + 1))
    return ProductSupply(FactEnumeration(Schema.of(R=2), NAT), "R", 2, ((1, keys),))


def all_head_instances(head):
    facts = [f for f, _ in head]
    for r in range(len(facts) + 1):
        for combo in itertools.combinations(facts, r):
            yield Instance(combo)


class TestTiConstruct:
    def test_example_table_total_mass(self):
        t = ti_construct(FactProbabilityAssignment(EXAMPLE_TABLE))
        assert t.total_mass == pytest.approx(2.6, abs=1e-12)
        assert t.expected_size == t.total_mass

    def test_constant_positive_tail_diverges(self):
        e = FactEnumeration(R1, NAT)
        tail = ConstantTail(EnumerationSupply(e), value=0.1)
        with pytest.raises(DivergentAssignment):
            ti_construct(FactProbabilityAssignment((), tail))

    def test_constant_zero_tail_is_empty(self):
        e = FactEnumeration(R1, NAT)
        tail = ConstantTail(EnumerationSupply(e), value=0.0)
        t = ti_construct(FactProbabilityAssignment(((fact("R", 1), 0.5),), tail))
        assert t.tail is None and t.total_mass == 0.5

    def test_geometric_tail_mass(self):
        t = ti_construct(FactProbabilityAssignment((), geometric_tail()))
        assert t.total_mass == pytest.approx(1.0, abs=1e-12)

    def test_divergent_ratio_rejected(self):
        with pytest.raises(DivergentAssignment):
            geometric_tail(q=1.0)

    def test_duplicate_head_fact(self):
        with pytest.raises(DuplicateFact):
            FactProbabilityAssignment(((fact("R", 1), 0.5), (fact("R", 1), 0.2)))

    def test_head_overlapping_tail_rejected(self):
        with pytest.raises(DuplicateFact):
            FactProbabilityAssignment(((fact("R", 1), 0.5),), geometric_tail())

    def test_zero_probability_facts_dropped(self):
        t = ti_construct(FactProbabilityAssignment(((fact("R", 1), 0.0), (fact("R", 2), 0.5))))
        assert t.head == ((fact("R", 2), 0.5),)

    def test_excluded_facts_leave_tail(self):
        tail = geometric_tail(exclude=rfacts(1))
        assert tail.total_mass() == pytest.approx(0.5, abs=1e-15)
        assert tail.probability_of(fact("R", 1)) == 0.0
        assert tail.probability_of(fact("R", 2)) == 0.25


class TestTiInstanceProb:
    def test_symmetric_two_fact_space(self):
        t = ti_construct(
            FactProbabilityAssignment(((fact("R", 1), 0.5), (fact("R", 2), 0.5)))
        )
        iv = ti_instance_prob(t, Instance(rfacts(1)))
        assert iv.lo == iv.hi == pytest.approx(0.25, abs=1e-15)

    def test_example_table_empty_world(self):
        t = ti_construct(FactProbabilityAssignment(EXAMPLE_TABLE))
        iv = ti_instance_prob(t, Instance.empty())
        assert iv.lo == pytest.approx(0.006, abs=1e-12)

    def test_unknown_fact_gives_zero(self):
        t = ti_construct(FactProbabilityAssignment(((fact("R", 1), 0.5),)))
        assert ti_instance_prob(t, Instance(rfacts(9))).hi == 0.0

    def test_geometric_tail_empty_world_enclosure(self):
        t = ti_construct(FactProbabilityAssignment((), geometric_tail()))
        iv = ti_instance_prob(t, Instance.empty())
        truth = 1.0
        for i in range(1, 200):
            truth *= 1 - 0.5**i
        assert iv.lo <= truth <= iv.hi
        assert width(iv) <= 1e-11
        assert truth == pytest.approx(0.288788, abs=1e-6)

    def test_tail_fact_in_instance(self):
        t = ti_construct(FactProbabilityAssignment((), geometric_tail()))
        iv = ti_instance_prob(t, Instance(rfacts(2)))
        # p = 0.25 times prod_{i != 2} (1 - 2**-i)
        truth = 0.25
        for i in range(1, 200):
            if i != 2:
                truth *= 1 - 0.5**i
        assert iv.lo <= truth <= iv.hi
        assert width(iv) <= 1e-11

    def test_normalization_head_only(self):
        rng = random.Random(17)
        for _ in range(20):
            head = tuple(
                (fact("R", i), rng.random()) for i in range(1, rng.randint(2, 10))
            )
            t = ti_construct(FactProbabilityAssignment(head))
            total = math.fsum(
                ti_instance_prob(t, d).lo for d in all_head_instances(head)
            )
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_normalization_with_tail_converges_from_below(self):
        tail = geometric_tail()
        t = ti_construct(FactProbabilityAssignment((), tail))
        # sum over all subsets of the first 10 tail facts
        facts10 = [(fact("R", i), 0.5**i) for i in range(1, 11)]
        total = 0.0
        for r in range(11):
            for combo in itertools.combinations(facts10, r):
                total += ti_instance_prob(t, Instance(f for f, _ in combo)).lo
        # mass of worlds confined to the first 10 facts is prod_{i>10}(1-p_i)
        residual = 0.5**10 / (1 - 0.5)
        assert total <= 1.0
        assert total >= 1.0 - 1.5 * residual


class TestTiEventProbs:
    def test_singleton(self):
        t = ti_construct(FactProbabilityAssignment(EXAMPLE_TABLE))
        conj, union = ti_event_probs(t, [fact("R", "A", "1")])
        assert conj == union == pytest.approx(0.8, abs=1e-15)

    def test_pair(self):
        t = ti_construct(
            FactProbabilityAssignment(((fact("R", 1), 0.8), (fact("R", 2), 0.4)))
        )
        conj, union = ti_event_probs(t, rfacts(1, 2))
        assert conj == pytest.approx(0.32, abs=1e-12)
        assert union == pytest.approx(0.88, abs=1e-12)

    def test_empty(self):
        t = ti_construct(FactProbabilityAssignment(()))
        assert ti_event_probs(t, []) == (1.0, 0.0)

    @pytest.mark.parametrize("ps", [[1e-20], [1e-20, 3e-17]], ids=["one", "two"])
    def test_union_of_small_probabilities(self, ps):
        head = tuple((fact("R", i), p) for i, p in enumerate(ps, start=1))
        t = ti_construct(FactProbabilityAssignment(head))
        conj, union = ti_event_probs(t, [f for f, _ in head])
        truth = exact_event_prob(enumerate_worlds(list(head)), lambda d: len(d) > 0)
        assert union >= conj
        assert union == pytest.approx(truth, rel=1e-12)

    @pytest.mark.parametrize("p", [1e-20, 0.1])
    def test_conjunction_of_one_fact_is_its_probability(self, p):
        t = ti_construct(FactProbabilityAssignment(((fact("R", 1), p), (fact("R", 2), 0.1))))
        assert ti_event_probs(t, [fact("R", 1)])[0] == p

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
    @example([0.1])
    @settings(derandomize=True, deadline=None)
    def test_conjunction_never_exceeds_union(self, ps):
        head = tuple((fact("R", i), p) for i, p in enumerate(ps, start=1))
        t = ti_construct(FactProbabilityAssignment(head))
        conj, union = ti_event_probs(t, [f for f, _ in head])
        assert conj <= union

    def test_marginals_match_oracle(self):
        rng = random.Random(23)
        head = tuple((fact("R", i), rng.random()) for i in range(1, 9))
        t = ti_construct(FactProbabilityAssignment(head))
        worlds = enumerate_worlds(list(head))
        for f, p in head:
            conj, _ = ti_event_probs(t, [f])
            oracle_m = exact_event_prob(worlds, lambda d: f in d)
            assert abs(conj - oracle_m) <= 1e-10
            assert abs(conj - p) <= 1e-12


PRIMITIVE_TAILS = {
    "enumeration-offset": geometric_tail(offset=3),
    "enumeration-slow": geometric_tail(c=0.5, q=0.9, offset=2, exclude=rfacts(4, 9, 30)),
    # exclusions at groups 2, 5 (the whole group) and 9
    "product-m2": product_tail((1, 2), [fact("R", 1, 2), fact("R", 1, 5), fact("R", 2, 5),
                                        fact("R", 2, 9)]),
    "product-m3": product_tail((1, 2, 3), [fact("R", 3, 1), fact("R", 2, 4), fact("R", 1, 4),
                                           fact("R", 3, 12)], c=0.9, q=0.8),
}


class TestTailPrimitive:
    @pytest.mark.parametrize("name", sorted(PRIMITIVE_TAILS))
    def test_mass_after_matches_listing(self, name):
        tail = PRIMITIVE_TAILS[name]
        for k in range(0, 40):
            mass, p = tail.mass_after(k)
            ref_mass, ref_p = listed_mass_after(tail, k)
            assert p == ref_p
            assert abs(mass - ref_mass) <= 1e-15 * ref_mass, (k, mass, ref_mass)

    def test_listed_through_counts_exclusions(self):
        tail = PRIMITIVE_TAILS["product-m2"]
        listed = [i for i, _, _ in itertools.islice(tail.indexed_facts(), 30)]
        for i in range(0, 12):
            assert tail.listed_through(i) == sum(1 for j in listed if j <= i)

    @pytest.mark.parametrize("name", sorted(PRIMITIVE_TAILS))
    def test_position_is_the_linear_scan(self, name):
        tail = PRIMITIVE_TAILS[name]
        for bound, p_max in itertools.product((0.3, 1e-3, 1e-9), (1.0, 0.2)):
            assert tail.position(bound, p_max) == linear_position(tail, bound, p_max)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_position_is_the_linear_scan_on_random_tails(self, data):
        """Enumeration and product supplies (m in 1, 2, 3, 5), bounds from
        1e-15 to 10, p_max at 0.2, 0.5, 1 or below the first rule value, and
        up to 6 exclusions from the group where the closed form puts the
        answer, the group before it and the first groups; the bound is drawn
        log-uniformly or is the mass at the bracket's failing end."""
        supply = random_supply(data)
        first, m = supply.first_index, supply.multiplicity
        q = data.draw(st.floats(0.3, 0.95))
        c = data.draw(st.floats(1e-3, 1.0)) / q**first  # the first rule value in [1e-3, 1]
        bound = 10.0 ** data.draw(st.floats(-15.0, 1.0))
        p_max = data.draw(st.sampled_from((0.2, 0.5, 1.0, None))) or 0.5 * c * q**first
        # the first group from which the closed-form mass and probability hold
        logs = (math.log(bound * (1.0 - q) / (m * c)), math.log(p_max / c))
        g = max(first, math.ceil(min(logs) / math.log(q)))
        groups = sorted({g, g - 1, first, first + 1, first + 2} - set(range(first)))
        # or all of group g - 1 first, which can end the answer before g - 1
        whole = g - 1 >= first and data.draw(st.booleans())
        exclude = set(supply.facts_at(g - 1)) if whole else set()
        candidates = [f for i in groups for f in supply.facts_at(i)]
        exclude |= data.draw(st.sets(st.sampled_from(candidates), max_size=6 - len(exclude)))
        tail = GeometricTail(supply, c, q, frozenset(exclude))
        # or exactly the mass after the last fact listed before group g - 1,
        # which a whole group g - 1 excluded may bring within the bound
        edge = tail.mass_after(max(tail.listed_through(g - 2) - 1, 0))[0]
        if 1e-15 <= edge <= 10.0 and data.draw(st.booleans()):
            bound = edge
        assert tail.position(bound, p_max) == linear_position(tail, bound, p_max)

    def test_position_checks_the_brackets_failing_end(self):
        """Group 5 wholly excluded: the mass after the last fact of group 4,
        1/16 + 3/32, is already within 0.16, so the answer lies before the
        bracket that the closed form gives from group 6 on."""
        tail = product_tail((1, 2, 3), [fact("R", key, 5) for key in (1, 2, 3)], c=1.0, q=0.5)
        assert tail.listed_through(4) == tail.listed_through(5) == 12
        assert tail.mass_after(11)[0] <= 0.16 < tail.mass_after(10)[0]
        assert tail.position(0.16) == 11 == linear_position(tail, 0.16, 1.0)

    @pytest.mark.parametrize("name", sorted(PRIMITIVE_TAILS))
    def test_group_listing_matches_indexed_facts(self, name):
        tail = PRIMITIVE_TAILS[name]
        groups = range(tail.supply.first_index, tail.supply.first_index + 14)
        listed = list(itertools.islice(tail.indexed_facts(), tail.listed_through(groups[-1])))
        assert [(i, f) for i in groups for f in tail.group(i)] == [(i, f) for i, f, _ in listed]

    @pytest.mark.parametrize("name", sorted(PRIMITIVE_TAILS))
    def test_dropped_counts_each_group_among_the_first_k(self, name):
        tail = PRIMITIVE_TAILS[name]
        m, first = tail.supply.multiplicity, tail.supply.first_index
        listed = [i for i, _, _ in itertools.islice(tail.indexed_facts(), 40)]
        for k in range(41):
            last, dropped = tail.dropped(k)
            assert last == (listed[k - 1] if k else first - 1)
            assert all(m - dropped[i] == listed[:k].count(i) for i in range(first, last + 1)), k

    @pytest.mark.parametrize("bound", [-1e-9, math.nan])
    def test_position_rejects_unreachable_bounds(self, bound):
        with pytest.raises(ValueError):
            geometric_tail().position(bound)

    def test_sampler_cap_names_the_needed_count(self, monkeypatch):
        tail = geometric_tail(c=0.001, q=0.99999)
        needed = tail.position(0.01)
        assert needed > ENCLOSURE_FACT_CAP

        def no_walk(self):
            raise AssertionError("the tail was listed")

        monkeypatch.setattr(GeometricTail, "indexed_facts", no_walk)
        with pytest.raises(WorldCapExceeded, match=f"needs {needed} facts"):
            tail.truncation_count(0.01)
        t = ti_construct(FactProbabilityAssignment((), tail))
        with pytest.raises(WorldCapExceeded, match=f"needs {needed} facts"):
            ti_sample(t, random.Random(0), 0.01)


class TestSupplyLayout:
    @settings(max_examples=150, deadline=None)
    @given(
        arities=st.lists(st.integers(1, 3), min_size=1, max_size=3),
        strings=st.booleans(),
        data=st.data(),
    )
    def test_enumeration_supply_lists_each_relation_by_tuple_order(self, arities, strings, data):
        names = ("R", "S", "T")[: len(arities)]
        schema = Schema(tuple(zip(names, arities)))
        u = Universe.strings("ab") if strings else NAT
        relation = data.draw(st.sampled_from((None, *names)))
        offset = data.draw(st.integers(0, 4))
        supply = EnumerationSupply(FactEnumeration(schema, u), relation, offset)

        def expected(i):
            r, t = (relation, i) if relation else (names[(i - 1) % len(names)], (i - 1) // len(names) + 1)
            return Fact(r, tuple(u.element_at(x) for x in tuple_at(t, schema.arity_of(r))))

        for i in range(1, 40):
            (f,) = supply.facts_at(i)
            assert f == expected(i)
            assert supply.intrinsic_index(f) == (i if i > offset else None)
        if relation is not None:
            for r in names:
                if r != relation:
                    other = Fact(r, tuple(u.element_at(1) for _ in range(schema.arity_of(r))))
                    assert supply.intrinsic_index(other) is None

    def test_product_supply_with_two_fixed_positions(self):
        e = FactEnumeration(Schema.of(R=3), Universe.strings("0123456789abcxy"))
        supply = ProductSupply(e, "R", index_position=2, fixed=((3, ("x", "y")), (1, ("a", "b", "c"))))
        assert supply.multiplicity == 6
        assert supply.facts_at(4) == tuple(Fact("R", (a, "4", z)) for a in "abc" for z in "xy")
        assert supply.intrinsic_index(Fact("R", ("b", "12", "y"))) == 12
        assert supply.intrinsic_index(Fact("R", ("x", "4", "y"))) is None
        assert supply.intrinsic_index(Fact("R", ("a", "4", "c"))) is None


class TestMarginalsAtMostOne:
    def test_geometric_first_rule_value_past_one(self):
        tail = GeometricTail(EnumerationSupply(FactEnumeration(R1, NAT)), c=7.0, q=0.14285714285714288)
        assert tail.rule_value(1) > 1.0
        t = ti_construct(FactProbabilityAssignment((), tail))
        assert probability_of(t, fact("R", 1)) == 1.0
        assert ti_event_probs(t, [fact("R", 1)]) == (1.0, 1.0)

    def test_table_marginal_past_one(self):
        table = FiniteDiscretePDB(
            R1, NAT, {Instance(rfacts(1)): 0.5, Instance(rfacts(1, 2)): 0.50000000000001}
        )
        b = table_space(table)
        assert probability_of(b, fact("R", 1)) == 1.0
        assert dict(b.head)[fact("R", 1)] == 1.0


def reference_enclosure(tail, skip, cap=ENCLOSURE_FACT_CAP, terms=3000):
    """(lo, hi) of the absent-tail enclosure, fact by fact over the listing:
    n is the first count whose listed mass after it is at most the target
    and whose next probability is at most 1/2, whatever is skipped; skipped
    facts after n lie in the remainder."""
    listed = list(itertools.islice(tail.indexed_facts(), terms))
    probs = [p for _, _, p in listed]
    n = 0
    while math.fsum(probs[n:]) > ENCLOSURE_MASS_TARGET or probs[n] > 0.5:
        n += 1
    kept = [p for _, f, p in listed[: min(n, cap)] if f not in skip]
    if any(p >= 1.0 for p in kept):
        return 0.0, 0.0
    hi = math.exp(math.fsum(math.log1p(-p) for p in kept))
    return (0.0 if n > cap else hi * math.exp(-1.5 * math.fsum(probs[n:]))), hi


def assert_matches_reference(tail, skip, cap=ENCLOSURE_FACT_CAP):
    ref_lo, ref_hi = reference_enclosure(tail, frozenset(skip), cap)
    iv = independence._tail_one_minus_enclosure(tail, frozenset(skip))
    assert math.isclose(iv.hi, ref_hi, rel_tol=1e-14, abs_tol=0.0), (iv, ref_hi)
    assert math.isclose(iv.lo, ref_lo, rel_tol=1e-14, abs_tol=0.0), (iv, ref_lo)
    assert iv.lo <= iv.hi


def generator_enclosure(tail, skip):
    """(lo, hi) of the absent-tail enclosure with its terms taken from one
    generator per set bit of m and per dropped fact, as the enclosure summed
    them before it streamed them through ``map``: what the streamed sum must
    give bit for bit."""
    skipped = sorted(i for f in skip - tail.exclude if (i := tail.supply.intrinsic_index(f)))
    n = tail.position(ENCLOSURE_MASS_TARGET, p_max=0.5)
    k = min(n, independence.ENCLOSURE_FACT_CAP)
    last, dropped = tail.dropped(k)
    skipped_in_last = skipped.count(last)
    if skipped_in_last and k < tail.listed_through(last):
        skipped_in_last = len(skip.intersection(tail.group(last)[: k - tail.listed_through(last - 1)]))
    dropped.update(i for i in skipped if i < last)
    dropped[last] += skipped_in_last
    m, below_one = tail.supply.multiplicity, tail.supply.first_index
    while below_one <= last and tail.rule_value(below_one) >= 1.0:
        if dropped[below_one] < m:
            return 0.0, 0.0
        below_one += 1
    c, q, weights = tail.c, tail.q, [1 << b for b in range(m.bit_length()) if m >> b & 1]
    hi = math.exp(math.fsum(itertools.chain(
        (w * math.log1p(-c * q**i) for w in weights for i in range(below_one, last + 1)),
        (-math.log1p(-c * q**i) for i in dropped.elements() if i >= below_one),
    )))
    if n > independence.ENCLOSURE_FACT_CAP:
        return 0.0, hi
    lo = hi * math.exp(-1.5 * tail.mass_after(n)[0])
    return min(lo, hi), hi


# with no skipped fact, the expansion stops at the end of group 55 (m = 1)
# and of group 41 (m = 2), and inside group 135 (m = 3)
ENCLOSURE_TAILS = {
    "enumeration-relation-offset": GeometricTail(
        EnumerationSupply(FactEnumeration(Schema.of(R=1, S=2), NAT), relation="S", offset=4),
        c=0.7, q=0.6, exclude=frozenset({fact("S", 3, 1), fact("S", 1, 9)}),
    ),
    # exclusions at groups 2, 5 (the whole group), 41 and 60
    "product-m2": product_tail((1, 2), [fact("R", 1, 2), fact("R", 1, 5), fact("R", 2, 5),
                                        fact("R", 2, 41), fact("R", 1, 60)]),
    # exclusions at groups 1, 4 (two), 7 (the whole group), 135 and 200
    "product-m3": product_tail((1, 2, 3), [fact("R", 3, 1), fact("R", 2, 4), fact("R", 1, 4),
                                           *(fact("R", j, 7) for j in (1, 2, 3)),
                                           fact("R", 3, 135), fact("R", 3, 200)], c=0.9, q=0.8),
}

# per tail: no skipped fact; skipped facts before the stop; skipped facts
# before, at and after it (those after lie in the remainder), plus facts the
# tail does not list
ENCLOSURE_SKIPS = {
    "enumeration-relation-offset": [
        [],
        [fact("S", 2, 2), fact("S", 1, 4)],
        [fact("S", 2, 2), fact("S", 5, 9), fact("R", 4), fact("S", 3, 1), fact("S", 1, 1)],
    ],
    "product-m2": [
        [],
        [fact("R", 1, 3), fact("R", 1, 9), fact("R", 2, 9)],
        [fact("R", 2, 3), fact("R", 1, 41), fact("R", 2, 70), fact("R", 1, 5), fact("R", 7, 2)],
    ],
    "product-m3": [
        [],
        [fact("R", 3, 2), fact("R", 1, 20), fact("R", 3, 20)],
        [fact("R", 1, 2), fact("R", 2, 135), fact("R", 1, 150), fact("R", 3, 150),
         fact("R", 1, 7)],
    ],
}


class TestTailEnclosure:
    @pytest.mark.parametrize("name,which", [
        (name, which) for name in sorted(ENCLOSURE_SKIPS) for which in range(3)
    ])
    def test_matches_fact_by_fact_reference(self, name, which):
        assert_matches_reference(ENCLOSURE_TAILS[name], ENCLOSURE_SKIPS[name][which])

    @pytest.mark.parametrize("name", sorted(ENCLOSURE_SKIPS))
    def test_cap_branch_matches_reference(self, name, monkeypatch):
        tail = ENCLOSURE_TAILS[name]
        # skip every other listed fact of the first groups, so some cap ends
        # the expansion inside a group before, and some after, a skipped fact
        skip = [f for _, f, _ in itertools.islice(tail.indexed_facts(), 1, 24, 2)]
        for cap in range(0, 20):
            monkeypatch.setattr(independence, "ENCLOSURE_FACT_CAP", cap)
            assert_matches_reference(tail, skip, cap)

    @pytest.mark.parametrize("exclude,skip", [
        ((), ()),                                                   # point 0
        ((), (fact("R", 1, 1),)),                                   # R(2, 1) counts: point 0
        ((fact("R", 1, 1),), (fact("R", 2, 1),)),                   # group 1 not counted
        ((fact("R", 1, 1), fact("R", 2, 1)), (fact("R", 1, 3),)),   # group 1 fully excluded
    ])
    def test_unit_rule_value_at_the_first_index(self, exclude, skip):
        tail = product_tail((1, 2), exclude, c=2.0, q=0.5)
        assert tail.rule_value(1) == 1.0
        assert_matches_reference(tail, skip)

    def test_slow_tails_list_no_facts(self, monkeypatch):
        """q = 0.999 spaces: each instance probability still encloses the
        plain product, lists no tail fact, and lists at most one group."""
        ti_tail = geometric_tail(c=0.5, q=0.999, offset=2)
        ti = ti_construct(FactProbabilityAssignment(((fact("R", 1), 0.3),), ti_tail))
        bid_tail = product_tail((1, 2, 3), c=0.4, q=0.999)
        heads = ((fact("R", 9, 1), 0.3), (fact("R", 9, 2), 0.4))
        bid = bid_construct(
            BlockPartition.explicit_blocks({f: "b" for f, _ in heads}),
            FactProbabilityAssignment(heads, bid_tail),
        )
        base = FiniteDiscretePDB(R1, NAT, {Instance.empty(): 0.5, Instance(rfacts(1)): 0.5})
        completion = complete(
            base, FactProbabilityAssignment((), geometric_tail(c=0.5, q=0.999, offset=1))
        )
        cases = [
            (ti_instance_prob, ti, Instance(rfacts(1, 40, 40_000)), 0.3, ti_tail),
            (bid_instance_prob, bid, Instance([heads[1][0], fact("R", 2, 50), fact("R", 1, 50)]),
             0.4, bid_tail),
            (completion_instance_prob, completion, Instance(rfacts(1, 30)), 0.5,
             completion.tail),
        ]
        plain = []
        for _, _, d, head_p, tail in cases:
            logs = [math.log(p) if f in d else math.log1p(-p)
                    for _, f, p in itertools.islice(tail.indexed_facts(), 130_000)]
            plain.append(head_p * math.exp(math.fsum(logs)))

        def no_walk(self):
            raise AssertionError("the tail was listed")

        calls = []
        for supply in (EnumerationSupply, ProductSupply):
            def counted(self, i, listing=supply.facts_at):
                calls.append(i)
                return listing(self, i)
            monkeypatch.setattr(supply, "facts_at", counted)
        monkeypatch.setattr(GeometricTail, "indexed_facts", no_walk)
        for (prob, space, d, _, _), ref in zip(cases, plain):
            calls.clear()
            iv = prob(space, d)
            assert iv.lo <= ref * (1 + 1e-13) and ref <= iv.hi * (1 + 1e-13), (iv, ref)
            assert width(iv) <= 1e-11 * iv.hi
            assert len(calls) <= 1

    def test_deep_tail_fact_costs_the_expansion_of_a_shallow_one(self, monkeypatch):
        """A present fact far past the tail's stop lies in the remainder: the
        interval stays tight around the fact-by-fact product, after as many
        index groups as a fact near the front."""
        tail = geometric_tail(c=0.001, q=0.999)
        space = ti_construct(FactProbabilityAssignment((), tail))
        groups, dropped = [], GeometricTail.dropped

        def counted(self, k):
            last, counts = dropped(self, k)
            groups.append(last)
            return last, counts

        monkeypatch.setattr(GeometricTail, "dropped", counted)
        expanded = {}
        for i in (10, 250_000):
            groups.clear()
            iv = ti_instance_prob(space, Instance(rfacts(i)))
            expanded[i] = list(groups)
            logs = [math.log(tail.rule_value(i)) if j == i else math.log1p(-tail.rule_value(j))
                    for j in range(1, 300_001)]
            ref = math.exp(math.fsum(logs))
            assert 0.0 < iv.lo <= ref <= iv.hi, (i, iv, ref)
            assert width(iv) <= 1e-11 * iv.hi
        assert expanded[250_000] == expanded[10] != []

    @pytest.mark.parametrize("name,which", [
        (name, which) for name in sorted(ENCLOSURE_SKIPS) for which in range(3)
    ])
    def test_streamed_sum_matches_the_generator_sum_bit_for_bit(self, name, which, monkeypatch):
        tail, skip = ENCLOSURE_TAILS[name], frozenset(ENCLOSURE_SKIPS[name][which])
        for cap in (None, 0, 1, 7, 40):
            if cap is not None:
                monkeypatch.setattr(independence, "ENCLOSURE_FACT_CAP", cap)
            iv = independence._tail_one_minus_enclosure(tail, skip)
            assert (iv.lo, iv.hi) == generator_enclosure(tail, skip), cap

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_streamed_sum_matches_the_generator_sum_on_random_tails(self, data):
        """Enumeration and product supplies (m in 1, 2, 3, 5, so one to two
        passes per group), q up to 0.99, exclusions, and skipped facts
        drawn from the groups up to twice the stop: inside it and past it."""
        supply = random_supply(data)
        first, m = supply.first_index, supply.multiplicity
        q = data.draw(st.floats(0.3, 0.99))
        c = data.draw(st.floats(1e-3, 1.0)) / q**first
        stop = GeometricTail(supply, c, q).group_of(GeometricTail(supply, c, q).position(ENCLOSURE_MASS_TARGET, 0.5))
        facts = st.builds(lambda i, j: supply.facts_at(i)[j % m], st.integers(first, 2 * stop), st.integers(0, m - 1))
        tail = GeometricTail(supply, c, q, frozenset(data.draw(st.sets(facts, max_size=4))))
        skip = frozenset(data.draw(st.sets(facts, max_size=8)))
        iv = independence._tail_one_minus_enclosure(tail, skip)
        assert (iv.lo, iv.hi) == generator_enclosure(tail, skip)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_tails_enclose_the_fact_by_fact_product(self, data):
        """Enumeration and product tails with exclusions, skip sets drawn from
        the first three times the stop's count of facts: the product of
        ``1 - p`` over the unskipped facts of a listing whose remaining mass
        is below 1e-20 lies in the enclosure."""
        c, q = data.draw(st.floats(0.05, 1.0)), data.draw(st.floats(0.5, 0.9))
        if data.draw(st.booleans()):
            relation = data.draw(st.sampled_from((None, "R", "S")))
            e = FactEnumeration(Schema.of(R=1, S=2), NAT)
            supply = EnumerationSupply(e, relation, data.draw(st.integers(0, 5)))
        else:
            keys = tuple(range(1, data.draw(st.integers(1, 3)) + 1))
            supply = ProductSupply(FactEnumeration(Schema.of(R=2), NAT), "R", 2, ((1, keys),))
        stop = GeometricTail(supply, c, q).position(ENCLOSURE_MASS_TARGET, p_max=0.5)
        supplied = list(itertools.islice(GeometricTail(supply, c, q).indexed_facts(), 3 * stop + 1))
        facts = st.sampled_from([f for _, f, _ in supplied])
        tail = GeometricTail(supply, c, q, frozenset(data.draw(st.sets(facts, max_size=4))))
        skip = frozenset(data.draw(st.sets(facts, max_size=12)))
        length = max(tail.position(1e-20), 3 * stop + 1)
        ref = math.exp(math.fsum(
            math.log1p(-p) for _, f, p in itertools.islice(tail.indexed_facts(), length) if f not in skip
        ))
        iv = independence._tail_one_minus_enclosure(tail, skip)
        assert iv.lo <= ref <= iv.hi, (iv, ref)
        assert width(iv) <= 1e-11 * iv.hi


def list_copy_instance_prob(b, d):
    """The instance probability as summed from a copy of every block's
    log P(no outcome), the touched ones zeroed: what the space's stored
    partials must give bit for bit."""
    slot, outcomes, exhaustive = b._index[:3]
    log_none = [
        0.0 if j in exhaustive else math.log1p(-m) if m < 1.0 else -math.inf
        for j, m in enumerate(b.masses.values())
    ]
    touched = {}
    for f in d:
        touched.setdefault(slot.get(f, f), []).append(f)
    log_present, log_none, exact = 0.0, log_none.copy(), exhaustive.copy()
    tail_skip = []
    for key, facts in touched.items():
        if isinstance(key, Fact):
            p = b.tail.probability_of(key) if b.tail is not None else 0.0
            tail_skip.append(key)
        else:
            p = outcomes[key].get(frozenset(facts), 0.0)
            log_none[key] = 0.0
        if p <= 0.0:
            return 0.0, 0.0
        if key in exact:
            exact[key] = p
        else:
            log_present += math.log(p) if p < 1.0 else 0.0
    log_absent = math.fsum(log_none)
    factor = math.prod(exact.values())
    if log_absent == -math.inf or factor == 0.0:
        return 0.0, 0.0
    point = min(math.exp(log_present + log_absent), 1.0)
    if b.tail is None:  # the enclosure of an empty product is the point 1.0
        return point * factor, point * factor
    iv = independence._tail_one_minus_enclosure(b.tail, frozenset(tail_skip)).scale(point).scale(factor)
    return iv.lo, iv.hi


# exact-one masses sit beside arbitrary ones, subnormals included
PROBS = st.one_of(st.sampled_from((1.0, 0.5, 0.25)), st.floats(0.0, 1.0))
SPLITS_OF_ONE = ((1.0,), (0.5, 0.5), (0.25, 0.75), (0.125, 0.375, 0.5))


class TestStoredPartials:
    @settings(max_examples=120, deadline=None)
    @given(kind=st.sampled_from(("ti", "bid", "table", "completion")), data=st.data())
    def test_match_the_list_copy_sum_bit_for_bit(self, kind, data):
        if kind == "ti":
            head = tuple((fact("R", i), p) for i, p in enumerate(data.draw(st.lists(PROBS, max_size=9)), 1))
            space = ti_construct(FactProbabilityAssignment(head))
        elif kind == "bid":
            head = []
            for key in range(1, data.draw(st.integers(1, 3)) + 1):
                if data.draw(st.booleans()):
                    ps = data.draw(st.sampled_from(SPLITS_OF_ONE))
                else:
                    ps = [p / 3 for p in data.draw(st.lists(PROBS, min_size=1, max_size=3))]
                head += [(fact("R", key, j), p) for j, p in enumerate(ps, 1)]
            space = bid_construct(BlockPartition.by_keys(R=1), FactProbabilityAssignment(tuple(head)))
        else:
            facts = rfacts(*range(1, data.draw(st.integers(1, 3)) + 1))
            subsets = [Instance(c) for r in range(len(facts) + 1) for c in itertools.combinations(facts, r)]
            if kind == "table":
                subsets = data.draw(st.lists(st.sampled_from(subsets), min_size=1, unique=True))
            weights = data.draw(st.lists(st.floats(0.01, 1.0), min_size=len(subsets), max_size=len(subsets)))
            table = FiniteDiscretePDB(R1, NAT, {d: w / math.fsum(weights) for d, w in zip(subsets, weights)})
            if kind == "table":
                space = table_space(table)
            else:
                fresh = data.draw(st.lists(st.floats(0.0, 0.99), max_size=5))
                space = complete(table, FactProbabilityAssignment(
                    tuple((fact("R", 10 + i), p) for i, p in enumerate(fresh))
                ))
        facts = [*dict.fromkeys(f for block in space.blocks.values() for fs, _ in block for f in fs), fact("R", 99)]
        for r in range(len(facts) + 1):
            for combo in itertools.combinations(facts, r):
                d = Instance(combo)
                iv = bid_instance_prob(space, d)
                assert (iv.lo, iv.hi) == list_copy_instance_prob(space, d), d


class TestTiSample:
    def test_sure_fact_always_present(self):
        t = ti_construct(FactProbabilityAssignment(((fact("R", 1), 1.0),)))
        rng = random.Random(0)
        for _ in range(50):
            assert fact("R", 1) in ti_sample(t, rng, 0.5)

    def test_head_marginal_within_three_sigma(self):
        t = ti_construct(FactProbabilityAssignment(((fact("R", 1), 0.5),)))
        rng = random.Random(1234)
        n = 100_000
        hits = sum(fact("R", 1) in ti_sample(t, rng, 0.5) for _ in range(n))
        assert 0.4953 <= hits / n <= 0.5047

    def test_truncation_count(self):
        tail = geometric_tail()
        assert tail.truncation_count(2.0**-20) == 20

    def test_delta_out_of_range(self):
        t = ti_construct(FactProbabilityAssignment(()))
        with pytest.raises(ValueError):
            ti_sample(t, random.Random(0), 0.0)
        with pytest.raises(ValueError):
            ti_sample(t, random.Random(0), 1.0)

    def test_expected_size_matches_total_mass(self):
        head = tuple((fact("R", i), p) for i, p in enumerate((0.8, 0.4, 0.5, 0.9), 1))
        t = ti_construct(FactProbabilityAssignment(head))
        rng = random.Random(77)
        n = 50_000
        sizes = [len(ti_sample(t, rng, 0.5)) for _ in range(n)]
        mean = sum(sizes) / n
        variance = math.fsum(p * (1 - p) for _, p in head)
        assert abs(mean - t.total_mass) <= 3 * math.sqrt(variance / n)


class TestIndependenceProperties:
    def test_pairwise_and_triple_independence_via_oracle(self):
        rng = random.Random(31)
        head = tuple((fact("R", i), rng.random()) for i in range(1, 8))
        worlds = enumerate_worlds(list(head))
        for (fi, pi), (fj, pj) in itertools.combinations(head, 2):
            joint = exact_event_prob(worlds, lambda d: fi in d and fj in d)
            assert abs(joint - pi * pj) <= 1e-10
        for combo in itertools.combinations(head, 3):
            facts_ = [f for f, _ in combo]
            expected = math.prod(p for _, p in combo)
            joint = exact_event_prob(worlds, lambda d: all(f in d for f in facts_))
            assert abs(joint - expected) <= 1e-10


class TestBlockPartition:
    def test_explicit_keys_cost_linear_comparisons(self, monkeypatch):
        """Building a 2,000-fact explicit partition and its space compares
        facts O(n) times, not once per listed fact per lookup."""
        facts = rfacts(*range(1, 2_001))
        calls = []
        equal = Fact.__eq__
        monkeypatch.setattr(Fact, "__eq__", lambda a, b: calls.append(1) or equal(a, b))
        part = BlockPartition.explicit_blocks({f: f"b{f.args[0] // 2}" for f in facts})
        space = bid_construct(part, FactProbabilityAssignment(tuple((f, 0.25) for f in facts)))
        assert len(space.blocks) == 1_001
        assert len(calls) <= 4 * len(facts)

    def test_key_projection(self):
        part = BlockPartition.by_keys(R=1)
        assert part.key(fact("R", 1, 5)) == part.key(fact("R", 1, 9))
        assert part.key(fact("R", 1, 5)) != part.key(fact("R", 2, 5))

    def test_default_singletons(self):
        part = BlockPartition.singletons()
        assert part.key(fact("R", 1)) != part.key(fact("R", 2))

    def test_is_good(self):
        part = BlockPartition.explicit_blocks(
            {fact("R", 1): "B1", fact("R", 2): "B1", fact("R", 3): "B2"}
        )
        assert is_good(part, Instance.empty())
        assert is_good(part, Instance(rfacts(1, 3)))
        assert not is_good(part, Instance(rfacts(1, 2)))


def two_block_bid():
    part = BlockPartition.explicit_blocks(
        {fact("R", 1): "B1", fact("R", 2): "B1", fact("R", 3): "B2"}
    )
    assignment = FactProbabilityAssignment(
        ((fact("R", 1), 0.3), (fact("R", 2), 0.4), (fact("R", 3), 0.5))
    )
    return part, bid_construct(part, assignment)


class TestBid:
    def test_remainder_masses(self):
        part, b = two_block_bid()
        assert max(0.0, 1.0 - b.masses[part.key(fact("R", 1))]) == pytest.approx(0.3, abs=1e-15)
        assert max(0.0, 1.0 - b.masses[part.key(fact("R", 3))]) == pytest.approx(0.5, abs=1e-15)

    def test_block_mass_exceeds_one(self):
        part = BlockPartition.explicit_blocks({fact("R", 1): "B", fact("R", 2): "B"})
        with pytest.raises(BlockMassExceedsOne):
            bid_construct(
                part,
                FactProbabilityAssignment(((fact("R", 1), 0.6), (fact("R", 2), 0.6))),
            )

    def test_bad_instance_probability_zero(self):
        _, b = two_block_bid()
        assert bid_instance_prob(b, Instance(rfacts(1, 2))).hi == 0.0

    def test_two_block_products(self):
        _, b = two_block_bid()
        assert bid_instance_prob(b, Instance(rfacts(1, 3))).lo == pytest.approx(
            0.15, abs=1e-12
        )
        assert bid_instance_prob(b, Instance(rfacts(1))).lo == pytest.approx(
            0.15, abs=1e-12
        )

    def test_normalization_over_good_instances(self):
        _, b = two_block_bid()
        total = 0.0
        facts = rfacts(1, 2, 3)
        for r in range(4):
            for combo in itertools.combinations(facts, r):
                total += bid_instance_prob(b, Instance(combo)).lo
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_singleton_blocks_reduce_to_ti(self):
        rng = random.Random(41)
        for _ in range(25):
            head = tuple(
                (fact("R", i), rng.random()) for i in range(1, rng.randint(2, 8))
            )
            t = ti_construct(FactProbabilityAssignment(head))
            b = bid_construct(BlockPartition.singletons(), FactProbabilityAssignment(head))
            for d in all_head_instances(head):
                ti_p = ti_instance_prob(t, d).lo
                bid_p = bid_instance_prob(b, d).lo
                assert abs(ti_p - bid_p) <= 1e-12

    def test_cross_block_independence(self):
        part, b = two_block_bid()
        facts = rfacts(1, 2, 3)
        worlds = []
        for r in range(4):
            for combo in itertools.combinations(facts, r):
                d = Instance(combo)
                worlds.append((d, bid_instance_prob(b, d).lo))

        def event(pred):
            return math.fsum(p for d, p in worlds if pred(d))

        f1, g1 = fact("R", 1), fact("R", 3)
        joint = event(lambda d: f1 in d and g1 in d)
        assert abs(joint - event(lambda d: f1 in d) * event(lambda d: g1 in d)) <= 1e-10

    def test_bid_with_singleton_tail(self):
        part = BlockPartition.explicit_blocks({fact("R", 1): "B1", fact("R", 2): "B1"})
        tail = geometric_tail(offset=2)
        assignment = FactProbabilityAssignment(
            ((fact("R", 1), 0.3), (fact("R", 2), 0.4)), tail
        )
        b = bid_construct(part, assignment)
        assert b.total_mass == pytest.approx(0.7 + 0.25, abs=1e-12)
        # {R(1), R(3)}: 0.3 from B1, tail fact R(3) at 2**-3, absent tail rest
        iv = bid_instance_prob(b, Instance(rfacts(1, 3)))
        rest = 1.0
        for i in range(4, 200):
            rest *= 1 - 0.5**i
        truth = 0.3 * 0.125 * rest
        assert iv.lo - 1e-12 <= truth <= iv.hi + 1e-12

    def test_key_blocks_over_tail_relation_rejected(self):
        part = BlockPartition.by_keys(R=1)
        with pytest.raises(ValidationError, match="key-attribute blocks over tail relation 'R' are not supported"):
            bid_construct(part, FactProbabilityAssignment((), geometric_tail()))


class TestBidSample:
    def test_samples_always_good(self):
        part, b = two_block_bid()
        rng = random.Random(5)
        for _ in range(500):
            assert is_good(part, bid_sample(b, rng, 0.5))

    def test_single_sure_block(self):
        part = BlockPartition.singletons()
        b = bid_construct(part, FactProbabilityAssignment(((fact("R", 1), 1.0),)))
        rng = random.Random(0)
        assert bid_sample(b, rng, 0.5) == Instance(rfacts(1))

    def test_marginal_within_three_sigma(self):
        _, b = two_block_bid()
        rng = random.Random(2024)
        n = 100_000
        hits = sum(fact("R", 1) in bid_sample(b, rng, 0.5) for _ in range(n))
        assert 0.2957 <= hits / n <= 0.3044


class _Uniforms:
    """A stand-in for ``random.Random`` that returns the given uniforms."""

    def __init__(self, *xs):
        self._xs = iter(xs)

    def random(self):
        return next(self._xs)


def _linear_draw(b, rng):
    """A head-only draw that scans each block's outcomes, adding their
    probabilities until the running sum passes the block's uniform."""
    chosen = []
    for block in b.blocks.values():
        x, acc = rng.random(), 0.0
        for facts, p in block:
            acc += p
            if x < acc:
                chosen.extend(facts)
                break
    return Instance(chosen)


class TestTableDraw:
    """A draw bisects each block's running sums and picks the outcome that a
    scan of the outcomes picks, from the same uniforms."""

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_matches_the_linear_draw_on_random_tables(self, rng):
        facts = [fact("R", i) for i in range(1, 7)]
        worlds = list({frozenset(rng.sample(facts, rng.randint(0, 6))) for _ in range(rng.randint(1, 20))})
        weights = [rng.choice([0.0, rng.random(), rng.random() * 1e-9]) for _ in worlds]
        weights[0] += 0.5
        table = FiniteDiscretePDB(R1, NAT, {Instance(w): x / sum(weights) for w, x in zip(worlds, weights)})
        b = table_space(table)
        seed = rng.randrange(2**32)
        fast, slow = random.Random(seed), random.Random(seed)
        for _ in range(200):
            assert b.sample(fast, 0.5) == _linear_draw(b, slow)
        # a uniform at or past the float total draws the empty world, as the scan does
        (_, ends), = b._draw_ends
        for x in (ends[-1], math.nextafter(1.0, 0.0)):
            if x >= ends[-1]:
                assert b.sample(_Uniforms(x), 0.5) == _linear_draw(b, _Uniforms(x)) == Instance.empty()


def truncated_units(space, delta):
    """The exact truncated law as independent units: each head block, then
    each of the first ``truncation_count(delta)`` tail facts on its own.
    At most one fact of a unit occurs; fact f with probability p."""
    n = space.tail.truncation_count(delta)
    tail = [((f, p),) for _, f, p in itertools.islice(space.tail.indexed_facts(), n)]
    return [tuple((f, p) for (f,), p in block) for block in space.blocks.values()] + tail


def size_law(units):
    """Probability of each instance size: a unit adds one fact with
    probability its mass (at most 1)."""
    law = [1.0]
    for unit in units:
        q = min(math.fsum(p for _, p in unit), 1.0)
        law = [a * (1 - q) + b * q for a, b in zip(law + [0.0], [0.0] + law)]
    return law


def assert_frequency(hits, draws, p, what):
    """hits / draws within 5 sigma of p; never a hit at p = 0."""
    p = min(p, 1.0)
    slack = 5 * math.sqrt(p * (1 - p) / draws)
    assert abs(hits / draws - p) <= slack, (what, hits / draws, p)


def sampler_spaces():
    """(space, delta, pairs): an enumeration tail, a product supply whose
    exclusions leave groups of 1, 2 and 3 facts, and a BID space with head
    blocks; each pair names two facts whose joint frequency is checked.
    The last two truncations end inside an index group."""
    enum = ti_construct(FactProbabilityAssignment((), geometric_tail(c=1.0, q=0.7)))
    product = ti_construct(FactProbabilityAssignment(((fact("S", 1), 0.4),), product_tail(
        (1, 2, 3), exclude=[fact("R", 1, 1), fact("R", 2, 2), fact("R", 3, 2)], c=1.2, q=0.6
    )))
    e = FactEnumeration(Schema.of(R=2, S=2), NAT)
    heads = ((fact("S", 1, 1), 0.3), (fact("S", 1, 2), 0.5), (fact("S", 2, 1), 0.6),
             (fact("S", 3, 1), 0.25))
    bid_tail = GeometricTail(ProductSupply(e, "R", 2, ((1, (1, 2)),)), c=0.8, q=0.5)
    bid = bid_construct(BlockPartition.by_keys(S=1), FactProbabilityAssignment(heads, bid_tail))
    return {
        "enumeration": (enum, 1e-3, [(fact("R", 2), fact("R", 3)), (fact("R", 1), fact("R", 5))]),
        "product": (product, 1e-2, [(fact("R", 1, 3), fact("R", 3, 3)),     # one group
                                    (fact("R", 2, 1), fact("R", 1, 2)),     # two groups
                                    (fact("S", 1), fact("R", 3, 1))]),
        "bid": (bid, 1e-2, [(fact("R", 1, 2), fact("R", 2, 2)),
                            (fact("R", 1, 1), fact("R", 2, 3)),
                            (fact("S", 1, 1), fact("S", 1, 2)),             # one head block
                            (fact("S", 1, 2), fact("R", 2, 1))]),
    }


class TestSkipSampler:
    @pytest.mark.parametrize("name", sorted(sampler_spaces()))
    def test_matches_the_truncated_law(self, name):
        """Marginals, joint frequencies and instance sizes of 20,000 draws
        against the exact law of the truncated space."""
        space, delta, pairs = sampler_spaces()[name]
        units = truncated_units(space, delta)
        probs = {f: p for unit in units for f, p in unit}
        unit_of = {f: k for k, unit in enumerate(units) for f, _ in unit}
        draws = 20_000
        rng = random.Random(sorted(sampler_spaces()).index(name))
        counts, joint, sizes = dict.fromkeys(probs, 0), dict.fromkeys(pairs, 0), [0] * (len(units) + 1)
        for _ in range(draws):
            d = space.sample(rng, delta)
            assert set(d.facts) <= probs.keys(), "a fact past the truncation was drawn"
            for f in d:
                counts[f] += 1
            for a, b in pairs:
                joint[a, b] += a in d and b in d
            sizes[len(d)] += 1
        for f, p in probs.items():
            assert_frequency(counts[f], draws, p, f)
        for a, b in pairs:
            p = 0.0 if unit_of[a] == unit_of[b] else probs[a] * probs[b]
            assert_frequency(joint[a, b], draws, p, (a, b))
        for size, p in enumerate(size_law(units)):
            assert_frequency(sizes[size], draws, p, f"size {size}")

    @pytest.mark.parametrize("tail", [
        geometric_tail(c=1.0, q=0.7),
        geometric_tail(c=2.0, q=0.5, exclude=rfacts(3, 4)),  # fact 1 has p = 1
        product_tail((1, 2), c=2.0),
        product_tail((1, 2, 3), exclude=[fact("R", 2, 1), fact("R", 1, 2), fact("R", 2, 2), fact("R", 3, 2)],
                     c=2.0 * (1 + 1e-13), q=0.5),
        product_tail((1, 2, 3), exclude=[fact("R", 1, 1), fact("R", 2, 2), fact("R", 3, 2)], c=0.9, q=0.8),
    ])
    def test_skip_plan_is_the_listing_by_group(self, tail):
        """The plan of the first truncation_count(delta) listed facts, rebuilt
        from the listing: facts with p >= 1 in ``sure``, then per index group
        its count and weight, and the running sums of the weights."""
        for delta in (0.5, 1e-2, 1e-3, 1e-9):
            listed = list(itertools.islice(tail.indexed_facts(), tail.truncation_count(delta)))
            sure = tuple(f for _, f, p in listed if p >= 1.0)
            counts = collections.Counter(i for i, _, p in listed if p < 1.0)
            runs = tuple((i, k, -math.log1p(-tail.rule_value(i))) for i, k in counts.items())
            ends = tuple(itertools.accumulate(k * w for _, k, w in runs))
            plan = tail.skip_plan(delta)
            assert plan[:3] == (sure, runs, ends), delta
            assert tail.skip_plan(delta) is plan

    @pytest.mark.parametrize("supply, c", [("enumeration", 2.0), ("product", 2.0),
                                           ("enumeration", 2.0 * (1 + 1e-13))])
    def test_facts_with_probability_one_always_occur(self, supply, c):
        """c * q**first may reach 1 (the rule check allows 1 + 1e-12); such
        facts are drawn every time and the rest keep their law."""
        tail = geometric_tail(c=c, q=0.5) if supply == "enumeration" else product_tail((1, 2), c=c)
        space = ti_construct(FactProbabilityAssignment((), tail))
        sure = tail.group(1)
        assert tail.rule_value(1) >= 1.0
        draws, rng, total = 5_000, random.Random(3), 0
        for _ in range(draws):
            d = space.sample(rng, 1e-9)
            assert set(sure) <= set(d.facts)
            total += len(d)
        variance = math.fsum(p * (1 - p) for _, _, p in itertools.islice(tail.indexed_facts(), 200))
        assert abs(total / draws - space.expected_size) <= 5 * math.sqrt(variance / draws)

    def test_slow_tail_builds_only_drawn_facts(self, monkeypatch):
        """At q = 0.999 and delta = 1e-9 the truncation keeps over 20,000
        facts, yet a draw lists none of them: facts are built only for the
        index groups drawn, once each, and the listing is never walked."""
        tail = geometric_tail(c=0.01, q=0.999)
        space = ti_construct(FactProbabilityAssignment((), tail))
        assert tail.truncation_count(1e-9) > 20_000
        built = []

        def counted(self, i, listing=EnumerationSupply.facts_at):
            built.append(i)
            return listing(self, i)

        def no_walk(self):
            raise AssertionError("the tail was listed")

        monkeypatch.setattr(EnumerationSupply, "facts_at", counted)
        monkeypatch.setattr(GeometricTail, "indexed_facts", no_walk)
        rng, drawn = random.Random(11), set()
        for _ in range(50):
            drawn.update(space.sample(rng, 1e-9))
        groups = {tail.supply.intrinsic_index(f) for f in drawn}
        assert sorted(built) == sorted(groups)
        assert 0 < len(built) < 1_000
