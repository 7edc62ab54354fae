import math
import random

import pytest

from infpdb.core import Fact, Instance
from infpdb.errors import WorldCapExceeded
from infpdb.oracle import enumerate_block_worlds, enumerate_worlds, exact_event_prob

from helpers import monte_carlo


def fact(rel, *args):
    return Fact(rel, args)


EXAMPLE_TABLE = (
    (fact("R", "A", "1"), 0.8),
    (fact("R", "B", "1"), 0.4),
    (fact("R", "B", "2"), 0.5),
    (fact("R", "C", "3"), 0.9),
)


class TestEnumerateWorlds:
    def test_single_fact(self):
        f = fact("R", 1)
        worlds = enumerate_worlds([(f, 0.5)])
        assert worlds == {Instance.empty(): 0.5, Instance([f]): 0.5}

    def test_empty_input(self):
        assert enumerate_worlds([]) == {Instance.empty(): 1.0}

    def test_four_fact_table(self):
        worlds = enumerate_worlds(EXAMPLE_TABLE)
        assert len(worlds) == 16
        assert worlds[Instance.empty()] == pytest.approx(0.006, abs=1e-12)
        assert math.fsum(worlds.values()) == pytest.approx(1.0, abs=1e-10)

    def test_block_with_an_empty_outcome_is_exhaustive(self):
        """Its worlds are its outcomes, even where the plain sum of their
        probabilities passes 1, as 0.34 + 0.56 + 0.1 does: no "none" below 0."""
        r1, r2 = fact("R", 1), fact("R", 2)
        block = [((), 0.0), ((r1,), 0.34), ((r2,), 0.56), ((r1, r2), 0.1)]
        worlds = enumerate_block_worlds([block])
        assert worlds == {Instance.empty(): 0.0, Instance([r1]): 0.34, Instance([r2]): 0.56, Instance([r1, r2]): 0.1}

    def test_size_cap(self):
        facts = [(fact("R", i), 0.5) for i in range(21)]
        with pytest.raises(WorldCapExceeded):
            enumerate_worlds(facts)

    def test_duplicate_fact_rejected(self):
        with pytest.raises(ValueError):
            enumerate_worlds([(fact("R", 1), 0.5), (fact("R", 1), 0.5)])

    def test_marginals_match_inputs(self):
        rng = random.Random(21)
        for _ in range(20):
            facts = [(fact("R", i), rng.random()) for i in range(rng.randint(1, 8))]
            worlds = enumerate_worlds(facts)
            for f, p in facts:
                assert exact_event_prob(worlds, lambda d: f in d) == pytest.approx(
                    p, abs=1e-10
                )

    def test_pairwise_independence(self):
        rng = random.Random(22)
        facts = [(fact("R", i), rng.random()) for i in range(6)]
        worlds = enumerate_worlds(facts)
        for i in range(6):
            for j in range(i + 1, 6):
                fi, pi = facts[i]
                fj, pj = facts[j]
                joint = exact_event_prob(worlds, lambda d: fi in d and fj in d)
                assert joint == pytest.approx(pi * pj, abs=1e-10)


class TestExactEventProb:
    def test_tautology(self):
        worlds = enumerate_worlds([(fact("R", 1), 0.3)])
        assert exact_event_prob(worlds, lambda d: True) == pytest.approx(1.0, abs=1e-12)

    def test_membership_event(self):
        f = fact("R", 1)
        worlds = {Instance.empty(): 0.5, Instance([f]): 0.5}
        assert exact_event_prob(worlds, lambda d: f in d) == 0.5

    def test_existential_event_on_table(self):
        worlds = enumerate_worlds(EXAMPLE_TABLE)
        prob = exact_event_prob(worlds, lambda d: len(d) > 0)
        assert prob == pytest.approx(1 - 0.006, abs=1e-10)


class TestMonteCarlo:
    def test_constant_true(self):
        estimate, ci = monte_carlo(lambda rng: Instance.empty(), lambda d: True, 100, 7)
        assert estimate == 1.0 and ci == 0.0

    def test_single_draw_is_binary(self):
        f = fact("R", 1)

        def sampler(rng):
            return Instance([f]) if rng.random() < 0.5 else Instance.empty()

        estimate, _ = monte_carlo(sampler, lambda d: f in d, 1, 3)
        assert estimate in (0.0, 1.0)

    def test_deterministic_given_seed(self):
        f = fact("R", 1)

        def sampler(rng):
            return Instance([f]) if rng.random() < 0.3 else Instance.empty()

        a = monte_carlo(sampler, lambda d: f in d, 1000, 99)
        b = monte_carlo(sampler, lambda d: f in d, 1000, 99)
        assert a == b

    def test_fair_coin_within_three_sigma(self):
        f = fact("R", 1)

        def sampler(rng):
            return Instance([f]) if rng.random() < 0.5 else Instance.empty()

        estimate, ci = monte_carlo(sampler, lambda d: f in d, 100_000, 12345)
        assert abs(estimate - 0.5) <= 0.0048

    def test_tripling_n_shrinks_interval(self):
        f = fact("R", 1)

        def sampler(rng):
            return Instance([f]) if rng.random() < 0.5 else Instance.empty()

        _, ci_small = monte_carlo(sampler, lambda d: f in d, 30_000, 4)
        _, ci_large = monte_carlo(sampler, lambda d: f in d, 90_000, 4)
        assert ci_small / ci_large >= 1.7
