"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every tolerance is pinned here; nothing is deferred to calibration.
"""

import itertools
import math
import random
from contextlib import contextmanager

from conftest import ACCEPTANCE_LINES

import pytest

from infpdb.approx import approx_boolean, choose_truncation
from infpdb.completion import (
    closure_extend,
    complete,
    completion_instance_prob,
)
from infpdb.core import (
    Fact,
    FiniteDiscretePDB,
    Instance,
    Schema,
    divergent_size_partial_sum,
    expected_size,
)
from infpdb.errors import BlockMassExceedsOne, DivergentAssignment
from infpdb.fo import eval_boolean, parse, substitute
from infpdb.independence import (
    BlockPartition,
    ConstantTail,
    EnumerationSupply,
    FactProbabilityAssignment,
    GeometricTail,
    ProductSupply,
    bid_construct,
    bid_instance_prob,
    ti_construct,
    ti_instance_prob,
    ti_sample,
)
from infpdb.numerics import euler_tail_lower_bound
from infpdb.oracle import enumerate_worlds, exact_event_prob
from infpdb.universe import FactEnumeration, Universe

from helpers import (
    INFINITE_ANSWER,
    completion_condition_check,
    eval_on_pool,
    eval_query,
    is_good,
    probability_of,
    quantifier_rank,
    random_sentence,
    reference_boolean_enclosure,
    subset_expansion_check,
)

NAT = Universe.naturals()
R1 = Schema.of(R=1)
RS = Schema.of(R=1, S=1)


def _emit(line: str) -> None:
    print(line)
    ACCEPTANCE_LINES.append(line)  # replayed in the terminal summary


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        _emit(f"ACCEPTANCE {number:2d} FAIL  {description}")
        raise
    _emit(f"ACCEPTANCE {number:2d} PASS  {description}")


def rfact(i):
    return Fact("R", (i,))


def all_subsets(facts):
    for r in range(len(facts) + 1):
        for combo in itertools.combinations(facts, r):
            yield Instance(combo)


@pytest.mark.slow
def test_criterion_1_normalization():
    with criterion(1, "head-only instance probabilities sum to 1 within 1e-10"):
        rng = random.Random(101)
        for _ in range(200):
            n = rng.randint(0, 15)
            head = tuple((rfact(i), rng.random()) for i in range(1, n + 1))
            t = ti_construct(FactProbabilityAssignment(head))
            total = math.fsum(
                ti_instance_prob(t, d).lo for d in all_subsets([f for f, _ in head])
            )
            assert abs(total - 1.0) <= 1e-10


def test_criterion_2_marginals_and_independence():
    with criterion(2, "oracle marginals match and joints factorize within 1e-10"):
        rng = random.Random(202)
        triples_checked = 0
        for _ in range(10):
            n = rng.randint(3, 10)
            facts = [(rfact(i), rng.random()) for i in range(1, n + 1)]
            worlds = enumerate_worlds(facts)
            for f, p in facts:
                assert abs(exact_event_prob(worlds, lambda d: f in d) - p) <= 1e-10
            for (fi, pi), (fj, pj) in itertools.combinations(facts, 2):
                joint = exact_event_prob(worlds, lambda d: fi in d and fj in d)
                assert abs(joint - pi * pj) <= 1e-10
            while triples_checked < 100:
                chosen = rng.sample(facts, 3)
                expected = math.prod(p for _, p in chosen)
                joint = exact_event_prob(
                    worlds, lambda d: all(f in d for f, _ in chosen)
                )
                assert abs(joint - expected) <= 1e-10
                triples_checked += 1
                if triples_checked % 10 == 0:
                    break
        assert triples_checked >= 100


def test_criterion_3_existence_characterization():
    with criterion(3, "geometric tails accepted, constant tails rejected (TI and BID)"):
        e = FactEnumeration(R1, NAT)
        rng = random.Random(303)
        for _ in range(25):
            q = rng.uniform(0.05, 0.95)
            c = rng.uniform(0.05, 1.0 / q)
            tail = GeometricTail(EnumerationSupply(e), c=min(c, 1 / q), q=q)
            t = ti_construct(FactProbabilityAssignment((), tail))
            assert t.total_mass == pytest.approx(
                tail.c * q / (1 - q), rel=1e-12
            )
            b = bid_construct(
                BlockPartition.singletons(), FactProbabilityAssignment((), tail)
            )
            assert b.total_mass == pytest.approx(t.total_mass, rel=1e-12)
        for value in (0.1, 0.5, 1.0, 1e-6):
            divergent = ConstantTail(EnumerationSupply(e), value=value)
            with pytest.raises(DivergentAssignment):
                ti_construct(FactProbabilityAssignment((), divergent))
            with pytest.raises(DivergentAssignment):
                bid_construct(
                    BlockPartition.singletons(),
                    FactProbabilityAssignment((), divergent),
                )
        part = BlockPartition.explicit_blocks({rfact(1): "B", rfact(2): "B"})
        with pytest.raises(BlockMassExceedsOne):
            bid_construct(
                part,
                FactProbabilityAssignment(((rfact(1), 0.6), (rfact(2), 0.6))),
            )


def test_criterion_4_bid_correctness():
    with criterion(4, "block-disjoint probabilities, TI reduction, independence"):
        part = BlockPartition.explicit_blocks(
            {rfact(1): "B1", rfact(2): "B1", rfact(3): "B2"}
        )
        b = bid_construct(
            part,
            FactProbabilityAssignment(
                ((rfact(1), 0.3), (rfact(2), 0.4), (rfact(3), 0.5))
            ),
        )
        assert bid_instance_prob(b, Instance([rfact(1), rfact(2)])).hi == 0.0
        assert abs(bid_instance_prob(b, Instance([rfact(1), rfact(3)])).lo - 0.15) <= 1e-12
        assert abs(bid_instance_prob(b, Instance([rfact(1)])).lo - 0.15) <= 1e-12

        rng = random.Random(404)
        for _ in range(100):
            n = rng.randint(1, 8)
            head = tuple((rfact(i), rng.random()) for i in range(1, n + 1))
            t = ti_construct(FactProbabilityAssignment(head))
            bb = bid_construct(BlockPartition.singletons(), FactProbabilityAssignment(head))
            for d in all_subsets([f for f, _ in head]):
                assert abs(ti_instance_prob(t, d).lo - bid_instance_prob(bb, d).lo) <= 1e-12

        for _ in range(20):
            n = rng.randint(2, 8)
            labels = [f"B{rng.randint(1, 3)}" for _ in range(n)]
            assignment_map = {rfact(i + 1): labels[i] for i in range(n)}
            partition = BlockPartition.explicit_blocks(assignment_map)
            probs = {}
            for label in set(labels):
                members = [f for f, l in assignment_map.items() if l == label]
                raw = [rng.random() for _ in members]
                scale = rng.uniform(0.1, 0.99) / max(sum(raw), 1e-9)
                for f, w in zip(members, raw):
                    probs[f] = min(w * scale, 1.0)
            space = bid_construct(
                partition, FactProbabilityAssignment(tuple(probs.items()))
            )
            world_list = [
                (d, bid_instance_prob(space, d).lo)
                for d in all_subsets(list(probs))
            ]

            def event(pred):
                return math.fsum(p for d, p in world_list if pred(d))

            for fa, fb in itertools.combinations(probs, 2):
                if partition.key(fa) == partition.key(fb):
                    continue
                joint = event(lambda d: fa in d and fb in d)
                assert abs(joint - event(lambda d: fa in d) * event(lambda d: fb in d)) <= 1e-10

            for d, p in world_list:
                if not is_good(partition, d):
                    assert p == 0.0


def _random_closed_pdb(rng, facts):
    seeds = [
        Instance(rng.sample(facts, rng.randint(0, len(facts))))
        for _ in range(rng.randint(1, 3))
    ]
    closed = {Instance.empty()}
    frontier = set(seeds)
    while frontier:
        d = frontier.pop()
        if d in closed:
            continue
        closed.add(d)
        for r in range(len(d)):
            for combo in itertools.combinations(d.facts, r):
                frontier.add(Instance(combo))
        for other in list(closed):
            frontier.add(d.union(other))
    worlds = {d: rng.random() + 0.05 for d in closed}
    total = sum(worlds.values())
    return FiniteDiscretePDB(R1, NAT, {d: w / total for d, w in worlds.items()})


def test_criterion_5_completion_condition():
    with criterion(5, "conditioning a completion reproduces the original within 1e-10"):
        rng = random.Random(505)
        base_facts = [rfact(i) for i in range(1, 4)]
        for _ in range(100):
            orig = _random_closed_pdb(rng, base_facts)
            assert len(orig.worlds) <= 8
            fresh = tuple((rfact(10 + i), rng.uniform(0.05, 0.95)) for i in range(3))
            c = complete(orig, FactProbabilityAssignment(fresh))
            worlds = list(orig.worlds)
            for mask in range(2 ** len(worlds)):
                event = [worlds[i] for i in range(len(worlds)) if mask >> i & 1]
                conditioned, original = completion_condition_check(orig, c, event)
                assert abs(conditioned - original) <= 1e-10
        # chained identity through a closure extension
        for _ in range(20):
            p0 = FiniteDiscretePDB(
                R1,
                NAT,
                {
                    Instance.empty(): 0.3,
                    Instance([rfact(1), rfact(2)]): 0.7,
                },
            )
            extended = closure_extend(p0, rng.uniform(0.1, 0.9))
            c = complete(extended, FactProbabilityAssignment(((rfact(7), 0.4),)))
            mass = math.fsum(
                0.5 * (iv.lo + iv.hi) for iv in (completion_instance_prob(c, d) for d in p0.worlds)
            )
            for d, prob in p0.worlds.items():
                iv = completion_instance_prob(c, d)
                conditioned = 0.5 * (iv.lo + iv.hi) / mass
                assert abs(conditioned - prob) <= 1e-10


def _example_table_space():
    u = Universe.strings("0123456789ABCD")
    schema = Schema.of(R=2)
    head = (
        (Fact("R", ("A", "1")), 0.8),
        (Fact("R", ("B", "1")), 0.4),
        (Fact("R", ("B", "2")), 0.5),
        (Fact("R", ("C", "3")), 0.9),
    )
    return u, schema, head


def test_criterion_6_worked_pipeline():
    with criterion(6, "4-fact table completes with tail mass 2.625; fresh combinations positive"):
        u, schema, head = _example_table_space()
        t = ti_construct(FactProbabilityAssignment(head))
        base_worlds = {
            d: ti_instance_prob(t, d).lo for d in all_subsets([f for f, _ in head])
        }
        base = FiniteDiscretePDB(schema, u, base_worlds)
        assert abs(expected_size(base) - 2.6) <= 1e-12
        supply = ProductSupply(
            FactEnumeration(schema, u),
            relation="R",
            index_position=2,
            fixed=((1, ("A", "B", "C", "D")),),
        )
        tail = GeometricTail(
            supply, c=1.0, q=0.5, exclude=frozenset(f for f, _ in head)
        )
        assert abs(tail.total_mass() - 2.625) <= 1e-12
        c = complete(base, FactProbabilityAssignment((), tail))
        fresh_space = ti_construct(FactProbabilityAssignment((), tail))
        assert abs(fresh_space.total_mass - 2.625) <= 1e-12
        assert ti_instance_prob(fresh_space, Instance.empty()).lo > 0.0
        fresh = [Fact("R", ("D", "1")), Fact("R", ("A", "2")), Fact("R", ("C", "5"))]
        probs = [probability_of(c, f) for f in fresh]
        assert probs == [0.5, 0.25, 2.0**-5]
        for pattern in itertools.product([True, False], repeat=3):
            value = 1.0
            for present, p in zip(pattern, probs):
                value *= p if present else (1 - p)
            assert value > 0.0


def _random_tail_space(rng):
    e = FactEnumeration(RS, NAT)
    n_head = rng.randint(0, 10)
    element_pool = [1, 2, 3, 4, 5]
    chosen = rng.sample(
        [(rel, el) for rel in ("R", "S") for el in element_pool], n_head
    )
    head = tuple((Fact(rel, (el,)), rng.uniform(0.05, 0.95)) for rel, el in chosen)
    offset = 10  # indices 1..10 cover R/S over elements 1..5
    q = rng.uniform(0.3, 0.5)
    first_value = rng.uniform(0.2, 0.8)
    c = first_value / q ** (offset + 1)
    tail = GeometricTail(EnumerationSupply(e, offset=offset), c=c, q=q)
    return ti_construct(FactProbabilityAssignment(head, tail))


@pytest.mark.slow
def test_criterion_7_approximation_guarantee():
    with criterion(7, "additive-error guarantee against a wide-truncation reference"):
        cert = choose_truncation(
            ti_construct(
                FactProbabilityAssignment(
                    (), GeometricTail(EnumerationSupply(FactEnumeration(R1, NAT)), c=1.0, q=0.5)
                )
            ),
            0.1,
        )
        assert cert.n == 4
        rng = random.Random(707)
        for eps in (0.2, 0.1, 0.05):
            for _ in range(100):
                t = _random_tail_space(rng)
                sentence = random_sentence(rng, RS, max_rank=2, constant_pool=(1, 2, 3))
                assert quantifier_rank(sentence) <= 2
                lo, hi = reference_boolean_enclosure(t, sentence, NAT, n_ref=40)
                assert hi - lo <= eps / 10
                p, cert = approx_boolean(t, sentence, eps, NAT)
                assert lo - eps <= p <= hi + eps


def test_criterion_8_tail_bound_and_expansion():
    with criterion(8, "exponential tail bound and subset-expansion identity"):
        rng = random.Random(808)
        for _ in range(100):
            n = rng.randint(0, 60)
            ps = [rng.uniform(0.0, 0.5) for _ in range(n)]
            direct = 1.0
            for p in ps:
                direct *= 1.0 - p
            assert direct - euler_tail_lower_bound(math.fsum(ps)) >= -1e-12
        for _ in range(100):
            a = [rng.uniform(-0.9, 0.9) for _ in range(10)]
            lhs, rhs = subset_expansion_check(a)
            assert abs(lhs - rhs) <= 1e-10


def test_criterion_9_sampling_fidelity():
    with criterion(9, "sampling reproduces marginals and size within 3 sigma, reproducibly"):
        u, schema, head = _example_table_space()
        supply = ProductSupply(
            FactEnumeration(schema, u),
            relation="R",
            index_position=2,
            fixed=((1, ("A", "B", "C", "D")),),
        )
        tail = GeometricTail(supply, c=1.0, q=0.5, exclude=frozenset(f for f, _ in head))
        t = ti_construct(FactProbabilityAssignment(head, tail))
        n = 100_000
        delta = 1e-9
        rng = random.Random(909)
        counts = {f: 0 for f, _ in head}
        sizes = 0
        size_sq = 0
        for _ in range(n):
            s = ti_sample(t, rng, delta)
            for f in counts:
                if f in s:
                    counts[f] += 1
            sizes += len(s)
            size_sq += len(s) ** 2
        for f, p in head:
            freq = counts[f] / n
            assert abs(freq - p) <= 3 * math.sqrt(p * (1 - p) / n)
        mean_size = sizes / n
        sample_var = size_sq / n - mean_size**2
        assert abs(mean_size - t.total_mass) <= 3 * math.sqrt(sample_var / n)
        # determinism: identical seed, identical stream
        rng1, rng2 = random.Random(42), random.Random(42)
        first = [repr(ti_sample(t, rng1, delta)) for _ in range(200)]
        second = [repr(ti_sample(t, rng2, delta)) for _ in range(200)]
        assert first == second


def test_criterion_10_divergent_expected_size():
    with criterion(10, "partial expected-size sums exceed 1e3 by N=20 and 1e6 by N=31"):
        assert divergent_size_partial_sum(20) > 1e3
        assert divergent_size_partial_sum(31) > 1e6


def test_criterion_11_infinite_universe_semantics():
    with criterion(11, "generic-pool invariance and sound open-query evaluation"):
        rng = random.Random(1111)
        elements = (1, 2, 3, 4, 5)
        for _ in range(500):
            f = random_sentence(rng, RS, max_rank=3, constant_pool=(1, 2, 3))
            n_facts = rng.randint(0, 5)
            facts = [
                Fact(rng.choice(("R", "S")), (rng.choice(elements),))
                for _ in range(n_facts)
            ]
            d = Instance(facts)
            rank = quantifier_rank(f)
            assert eval_boolean(d, f, NAT) == eval_on_pool(d, f, NAT, rank + 2)
        d = Instance([rfact(4)])
        assert eval_query(d, parse("!R(x)", R1), NAT) is INFINITE_ANSWER
        for _ in range(50):
            n_facts = rng.randint(0, 4)
            d = Instance([rfact(rng.choice(elements)) for _ in range(n_facts)])
            body = random_sentence(rng, R1, max_rank=1, constant_pool=(1, 2))
            from infpdb.fo import And, Atom, Var

            f = And(Atom("R", (Var("z"),)), body)
            answers = eval_query(d, f, NAT)
            if answers is INFINITE_ANSWER:
                continue
            candidates = {e for g in d for e in g.args} | {1, 2}
            expected = {
                (e,) for e in candidates if eval_boolean(d, substitute(f, {"z": e}), NAT)
            }
            assert answers == frozenset(expected)
