import bisect
import contextlib
import io
import itertools
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infpdb.approx import choose_truncation
from infpdb.cli import main

from infpdb.completion import (
    check_closed,
    closure_extend,
    complete,
    completion_instance_prob,
    completion_sample,
)
from infpdb.core import Fact, FiniteDiscretePDB, Instance, Schema
from infpdb.errors import NotClosed, OverlappingFacts, UnitTailProbability, WorldCapExceeded
from infpdb.independence import (
    EnumerationSupply,
    FactProbabilityAssignment,
    GeometricTail,
    table_space,
    ti_construct,
    ti_instance_prob,
)
from infpdb.numerics import ProbabilityInterval
from infpdb.universe import FactEnumeration, Universe

from helpers import bounded_tail_validate, completion_condition_check, difference, intersection

NAT = Universe.naturals()
R1 = Schema.of(R=1)
GOLDEN = Path(__file__).resolve().parent / "golden"


def fact(i):
    return Fact("R", (i,))


def closed_space(worlds):
    return FiniteDiscretePDB(R1, NAT, worlds)


def closure_of(instances):
    """Subset-and-union closure of a family of instances."""
    out = {Instance.empty()}
    frontier = set(instances)
    while frontier:
        d = frontier.pop()
        if d in out:
            continue
        out.add(d)
        for r in range(len(d)):
            for combo in itertools.combinations(d.facts, r):
                frontier.add(Instance(combo))
        for other in list(out):
            frontier.add(d.union(other))
    return out


def random_closed_pdb(rng, facts):
    seeds = [
        Instance(rng.sample(facts, rng.randint(0, len(facts))))
        for _ in range(rng.randint(1, 3))
    ]
    worlds = {}
    for d in closure_of(seeds):
        worlds[d] = rng.random() + 0.05
    total = sum(worlds.values())
    return closed_space({d: w / total for d, w in worlds.items()})


class TestClosureCheck:
    def test_missing_subset_reported(self):
        p = FiniteDiscretePDB(
            R1, NAT, {Instance.empty(): 0.5, Instance([fact(1), fact(2)]): 0.5}
        )
        with pytest.raises(NotClosed) as err:
            check_closed(p)
        assert err.value.missing in (Instance([fact(1)]), Instance([fact(2)]))

    def test_missing_union_reported(self):
        worlds = {
            Instance.empty(): 0.4,
            Instance([fact(1)]): 0.3,
            Instance([fact(2)]): 0.3,
        }
        with pytest.raises(NotClosed):
            check_closed(closed_space(worlds))


def brute_force_gap(family):
    """Whether some subset of a member, or some union of two members, is
    missing from the family."""
    for d in family:
        for r in range(len(d)):
            if any(Instance(combo) not in family for combo in itertools.combinations(d.facts, r)):
                return True
    return any(a.union(b) not in family for a in family for b in family)


families = st.sets(
    st.frozensets(st.integers(min_value=1, max_value=4)), min_size=1, max_size=16
).map(lambda sets: {Instance(map(fact, s)) for s in sets})


class TestClosureCountProperty:
    @given(families)
    def test_raises_exactly_on_a_gap(self, family):
        p = closed_space({d: 1 / len(family) for d in family})
        if brute_force_gap(family):
            with pytest.raises(NotClosed) as err:
                check_closed(p)
            assert err.value.missing not in family
        else:
            check_closed(p)


class TestClosureExtend:
    def test_uniform_redistribution(self):
        p0 = closed_space({Instance.empty(): 0.5, Instance([fact(1), fact(2)]): 0.5})
        p = closure_extend(p0, 0.5)
        assert p.probability(Instance.empty()) == pytest.approx(0.25, abs=1e-15)
        assert p.probability(Instance([fact(1), fact(2)])) == pytest.approx(0.25, abs=1e-15)
        assert p.probability(Instance([fact(1)])) == pytest.approx(0.25, abs=1e-15)
        assert p.probability(Instance([fact(2)])) == pytest.approx(0.25, abs=1e-15)
        assert math.fsum(p.worlds.values()) == pytest.approx(1.0, abs=1e-12)

    def test_closed_space_with_c_one_unchanged(self):
        p0 = closed_space({Instance.empty(): 0.5, Instance([fact(1)]): 0.5})
        assert closure_extend(p0, 1.0) == p0

    def test_closed_space_with_c_below_one_errors(self):
        p0 = closed_space({Instance.empty(): 0.5, Instance([fact(1)]): 0.5})
        with pytest.raises(ValueError):
            closure_extend(p0, 0.5)

    def test_fact_cap_names_the_needed_count(self):
        many = Instance([fact(i) for i in range(1, 18)])
        p0 = closed_space({Instance.empty(): 0.5, many: 0.5})
        with pytest.raises(WorldCapExceeded, match=r"2\*\*17 instances") as err:
            closure_extend(p0, 0.5)
        assert (err.value.required, err.value.cap) == (17, 16)

    def test_c_out_of_range(self):
        p0 = closed_space({Instance.empty(): 1.0})
        with pytest.raises(ValueError):
            closure_extend(p0, 0.0)
        with pytest.raises(ValueError):
            closure_extend(p0, 1.5)

    def test_scaled_originals(self):
        p0 = closed_space({Instance.empty(): 0.3, Instance([fact(1), fact(2)]): 0.7})
        p = closure_extend(p0, 0.8)
        for d, prob in p0.worlds.items():
            assert p.probability(d) == pytest.approx(0.8 * prob, abs=1e-15)

    def test_explicit_redistribution(self):
        p0 = closed_space({Instance.empty(): 0.5, Instance([fact(1), fact(2)]): 0.5})
        weights = {Instance([fact(1)]): 0.75, Instance([fact(2)]): 0.25}
        p = closure_extend(p0, 0.5, redistribution=weights)
        assert p.probability(Instance([fact(1)])) == pytest.approx(0.375, abs=1e-15)
        assert p.probability(Instance([fact(2)])) == pytest.approx(0.125, abs=1e-15)


def no_fresh_fact(tail):
    """P1(empty), the probability of no fresh fact: the factor every
    original instance gets in a completion by ``tail``."""
    return ti_instance_prob(ti_construct(tail), Instance.empty())


def simple_completion(tail_p=0.25):
    orig = closed_space({Instance.empty(): 0.5, Instance([fact(1)]): 0.5})
    tail = FactProbabilityAssignment(((fact(9), tail_p),))
    return orig, complete(orig, tail)


class TestComplete:
    def test_product_measure(self):
        _, c = simple_completion()
        iv = completion_instance_prob(c, Instance([fact(1), fact(9)]))
        assert iv.lo == pytest.approx(0.125, abs=1e-15)

    def test_original_instances_carry_empty_tail_factor(self):
        _, c = simple_completion()
        assert no_fresh_fact(FactProbabilityAssignment(((fact(9), 0.25),))).lo == pytest.approx(0.75, abs=1e-15)
        iv = completion_instance_prob(c, Instance([fact(1)]))
        assert iv.lo == pytest.approx(0.5 * 0.75, abs=1e-15)

    def test_impossible_core_gives_zero(self):
        _, c = simple_completion()
        assert completion_instance_prob(c, Instance([fact(2)])).hi == 0.0

    def test_empty_tail_reproduces_original(self):
        orig = closed_space({Instance.empty(): 0.5, Instance([fact(1)]): 0.5})
        c = complete(orig, FactProbabilityAssignment(()))
        assert no_fresh_fact(FactProbabilityAssignment(())).lo == 1.0
        for d, p in orig.worlds.items():
            assert completion_instance_prob(c, d).lo == pytest.approx(p, abs=1e-15)

    def test_unit_tail_probability_rejected(self):
        orig = closed_space({Instance.empty(): 1.0})
        with pytest.raises(UnitTailProbability):
            complete(orig, FactProbabilityAssignment(((fact(5), 1.0),)))

    def test_overlapping_facts_rejected(self):
        orig = closed_space({Instance.empty(): 0.5, Instance([fact(1)]): 0.5})
        with pytest.raises(OverlappingFacts):
            complete(orig, FactProbabilityAssignment(((fact(1), 0.5),)))

    def test_overlapping_generator_rejected(self):
        orig = closed_space({Instance.empty(): 0.5, Instance([fact(1)]): 0.5})
        e = FactEnumeration(R1, NAT)
        tail = FactProbabilityAssignment((), GeometricTail(EnumerationSupply(e), c=1.0, q=0.5))
        with pytest.raises(OverlappingFacts):
            complete(orig, tail)

    def test_not_closed_rejected(self):
        p = FiniteDiscretePDB(
            R1, NAT, {Instance.empty(): 0.5, Instance([fact(1), fact(2)]): 0.5}
        )
        with pytest.raises(NotClosed):
            complete(p, FactProbabilityAssignment(()))


class TestConditionCheck:
    def test_full_space(self):
        orig, c = simple_completion()
        conditioned, original = completion_condition_check(orig, c, orig.worlds)
        assert conditioned == pytest.approx(1.0, abs=1e-12)
        assert original == pytest.approx(1.0, abs=1e-12)

    def test_singleton_event(self):
        orig, c = simple_completion()
        conditioned, original = completion_condition_check(orig, c, [Instance.empty()])
        assert conditioned == pytest.approx(0.5, abs=1e-12)
        assert original == pytest.approx(0.5, abs=1e-12)

    def test_empty_event(self):
        orig, c = simple_completion()
        assert completion_condition_check(orig, c, []) == (0.0, 0.0)

    def test_completed_mass_of_original_space_two_ways(self):
        # sum of completed world probabilities over the original space vs the
        # cached empty-tail probability; equal up to the tail enclosure
        orig = closed_space({Instance.empty(): 0.5, Instance([fact(1)]): 0.5})
        e = FactEnumeration(R1, NAT)
        generator = GeometricTail(EnumerationSupply(e, offset=5), c=1.0, q=0.5)
        tail = FactProbabilityAssignment(((fact(2), 0.25),), generator)
        c, p_empty = complete(orig, tail), no_fresh_fact(tail)
        assert p_empty.lo > 0.0
        summed_lo = math.fsum(completion_instance_prob(c, d).lo for d in orig.worlds)
        summed_hi = math.fsum(completion_instance_prob(c, d).hi for d in orig.worlds)
        assert summed_lo <= p_empty.hi + 1e-15
        assert summed_hi >= p_empty.lo - 1e-15

    def test_condition_holds_on_random_completions(self):
        rng = random.Random(59)
        facts = [fact(i) for i in range(1, 4)]
        for _ in range(25):
            orig = random_closed_pdb(rng, facts)
            fresh = tuple((fact(10 + i), rng.uniform(0.05, 0.9)) for i in range(3))
            c = complete(orig, FactProbabilityAssignment(fresh))
            worlds = list(orig.worlds)
            for _ in range(10):
                event = [d for d in worlds if rng.random() < 0.5]
                conditioned, original = completion_condition_check(orig, c, event)
                assert abs(conditioned - original) <= 1e-10

    def test_chained_identity_after_closure_extend(self):
        # scale, spread, complete: conditioning the completed measure on the
        # pre-extension sample space recovers the pre-extension measure
        p0 = closed_space({Instance.empty(): 0.3, Instance([fact(1), fact(2)]): 0.7})
        extended = closure_extend(p0, 0.6)
        c = complete(extended, FactProbabilityAssignment(((fact(7), 0.4),)))
        mass_of_original_space = math.fsum(
            0.5 * (iv.lo + iv.hi) for iv in (completion_instance_prob(c, d) for d in p0.worlds)
        )
        for d, prob in p0.worlds.items():
            iv = completion_instance_prob(c, d)
            conditioned = 0.5 * (iv.lo + iv.hi) / mass_of_original_space
            assert abs(conditioned - prob) <= 1e-10


class TestBoundedTailValidate:
    def test_equal_rules(self):
        e = FactEnumeration(R1, NAT)
        tail = FactProbabilityAssignment(
            (), GeometricTail(EnumerationSupply(e), c=1.0, q=0.5)
        )
        assert bounded_tail_validate(tail, 1.0, 0.5)

    def test_tighter_bound_fails(self):
        e = FactEnumeration(R1, NAT)
        tail = FactProbabilityAssignment(
            (), GeometricTail(EnumerationSupply(e), c=1.0, q=0.5)
        )
        assert not bounded_tail_validate(tail, 1.0, 0.25)

    def test_empty_tail(self):
        assert bounded_tail_validate(FactProbabilityAssignment(()), 1.0, 0.25)

    def test_head_checked_positionally(self):
        good = FactProbabilityAssignment(((fact(1), 0.5), (fact(2), 0.25)))
        assert bounded_tail_validate(good, 1.0, 0.5)
        bad = FactProbabilityAssignment(((fact(1), 0.5), (fact(2), 0.3)))
        assert not bounded_tail_validate(bad, 1.0, 0.5)


class TestCompletionSample:
    def test_empty_tail_matches_original_distribution(self):
        orig = closed_space({Instance.empty(): 0.5, Instance([fact(1)]): 0.5})
        c = complete(orig, FactProbabilityAssignment(()))
        rng = random.Random(3)
        n = 50_000
        hits = sum(completion_sample(c, rng, 0.5) == Instance([fact(1)]) for _ in range(n))
        assert abs(hits / n - 0.5) <= 3 * math.sqrt(0.25 / n)

    def test_fresh_fact_frequency(self):
        _, c = simple_completion(tail_p=0.25)
        rng = random.Random(8)
        n = 100_000
        hits = sum(fact(9) in completion_sample(c, rng, 0.5) for _ in range(n))
        assert 0.2459 <= hits / n <= 0.2541

    def test_conditioning_on_no_fresh_facts_recovers_marginals(self):
        orig, c = simple_completion(tail_p=0.25)
        rng = random.Random(15)
        kept = []
        for _ in range(100_000):
            s = completion_sample(c, rng, 0.5)
            if fact(9) not in s:
                kept.append(s)
        freq = sum(d == Instance([fact(1)]) for d in kept) / len(kept)
        assert abs(freq - 0.5) <= 3 * math.sqrt(0.25 / len(kept))


def subsets(facts):
    return [Instance(c) for r in range(len(facts) + 1) for c in itertools.combinations(facts, r)]


def random_table(rng, facts, closed):
    """A world table over ``facts``: every subset when closed, else some of
    them.  Any world may have probability 0, the empty world too."""
    worlds = subsets(facts) if closed else rng.sample(subsets(facts), rng.randint(1, 2 ** len(facts)))
    weights = [rng.choice([0.0, rng.random()]) for _ in worlds]
    weights[rng.randrange(len(worlds))] = rng.random() + 0.01
    total = math.fsum(weights)
    return FiniteDiscretePDB(R1, NAT, {d: w / total for d, w in zip(worlds, weights)})


class TestTableSpace:
    """A table is one exhaustive block of its worlds, and a completion that
    block beside the fresh facts' blocks."""

    @given(st.randoms(use_true_random=False), st.booleans())
    @settings(max_examples=100, derandomize=True, deadline=None)
    def test_instance_probabilities_and_draws_are_the_tables(self, rng, closed):
        facts = [fact(i) for i in rng.sample(range(1, 6), rng.randint(0, 3))]
        p = random_table(rng, facts, closed)
        space = table_space(p)
        for d in [*subsets(facts), *(d.union([fact(9)]) for d in p.worlds)]:
            iv = space.instance_prob(d)
            assert iv.is_point and iv.lo == p.probability(d), d
        # a draw is the inverse-CDF draw over instances() order, unless the
        # uniform lands past the float total
        worlds = p.instances()
        cumulative = list(itertools.accumulate(p.worlds[d] for d in worlds))
        for seed in range(10):
            i = bisect.bisect_right(cumulative, random.Random(seed).random())
            if i < len(worlds):
                assert space.sample(random.Random(seed), 0.5) == worlds[i]

    @given(st.randoms(use_true_random=False), st.booleans(), st.booleans())
    @settings(max_examples=100, derandomize=True, deadline=None)
    def test_completion_is_the_product_rule_bit_for_bit(self, rng, with_head, with_tail):
        base = [fact(i) for i in rng.sample(range(1, 6), rng.randint(0, 3))]
        p = random_table(rng, base, closed=True)
        head = tuple((fact(10 + i), rng.choice([0.0, rng.uniform(0.01, 0.9)])) for i in range(rng.randint(1, 3)))
        generator = GeometricTail(
            EnumerationSupply(FactEnumeration(R1, NAT), offset=20), c=rng.uniform(0.1, 0.9) * 2.0**21, q=0.5
        )
        tail = FactProbabilityAssignment(head if with_head else (), generator if with_tail else None)
        c, fresh = complete(p, tail), ti_construct(tail)
        fresh_facts = [f for f, _ in head] + [f for i in range(21, 25) for f in generator.group(i)]
        for d in [*p.worlds, Instance([fact(7)])]:
            d = d.union(f for f in fresh_facts if rng.random() < 0.4)
            p0 = p.probability(intersection(d, base))
            old = ti_instance_prob(fresh, difference(d, base)).scale(p0) if p0 else ProbabilityInterval.point(0.0)
            new = completion_instance_prob(c, d)
            assert (new.lo, new.hi) == (old.lo, old.hi), d

    def test_certificate_counts_facts_of_zero_probability_worlds(self):
        """n counts every fact a table lists, as it did before tables were
        blocks, where a TI space leaves its facts of p = 0 out."""
        p = closed_space({Instance.empty(): 0.5, Instance([fact(1)]): 0.5, Instance([fact(2)]): 0.0,
                          Instance([fact(1), fact(2)]): 0.0})
        space = table_space(p)
        assert [f for f, _ in space.head] == [fact(1), fact(2)] and space.head[1][1] == 0.0
        assert choose_truncation(space, 0.1).n == 2
        assert choose_truncation(ti_construct(FactProbabilityAssignment(((fact(1), 0.5), (fact(2), 0.0)))), 0.1).n == 1

    def test_oracle_compare_on_a_table(self):
        args = ["oracle-compare", str(GOLDEN / "finite.json"), "--query", str(GOLDEN / "unary_query.txt")]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(args) == 0
