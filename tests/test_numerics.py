import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infpdb.core import Fact, Instance, Schema
from infpdb.errors import ValidationError
from infpdb.independence import (
    BlockPartition,
    EnumerationSupply,
    FactProbabilityAssignment,
    GeometricTail,
    bid_construct,
    bid_instance_prob,
    ti_construct,
    ti_instance_prob,
)
from infpdb.numerics import (
    CompensatedAccumulator,
    ProbabilityInterval,
    euler_tail_lower_bound,
    subset_expansion_check,
)
from infpdb.oracle import enumerate_block_worlds
from infpdb.universe import FactEnumeration, Universe

probabilities = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def _none_of(ps):
    """Probability of the empty instance of singleton blocks with these
    probabilities: the product of their ``1 - p``."""
    head = tuple((Fact("S", (i,)), p) for i, p in enumerate(ps, start=1))
    return ti_instance_prob(ti_construct(FactProbabilityAssignment(head)), Instance.empty())


class TestLogProductOneMinus:
    """The one rule for finite products of ``1 - p``, read through the empty
    instance of a head-only space."""

    def test_empty_product_is_one(self):
        assert _none_of([]) == ProbabilityInterval.point(1.0)

    def test_worked_example(self):
        # direct multiplication: 0.7 * 0.8 * 0.9 = 0.504
        result = _none_of([0.3, 0.2, 0.1])
        assert result.is_point
        assert result.lo == pytest.approx(0.504, abs=1e-12)
        assert math.log(result.lo) == pytest.approx(-0.685179, abs=1e-6)

    def test_zero_factor_gives_log_zero(self):
        assert _none_of([1.0, 0.5]) == ProbabilityInterval.point(0.0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            _none_of([0.5, 1.5])
        with pytest.raises(ValidationError):
            _none_of([-0.1])

    @given(st.lists(probabilities, max_size=30), st.randoms(use_true_random=False))
    def test_exact_permutation_invariance(self, ps, rng):
        shuffled = ps[:]
        rng.shuffle(shuffled)
        assert _none_of(ps) == _none_of(shuffled)

    @given(st.lists(st.floats(min_value=0.0, max_value=0.99), min_size=1, max_size=1000))
    @settings(max_examples=50)
    def test_matches_direct_product(self, ps):
        direct = 1.0
        for p in ps:
            direct *= 1.0 - p
        assert _none_of(ps).lo == pytest.approx(direct, abs=1e-12)


# head-only BID spaces: singleton S blocks, and K blocks keyed on K's first
# attribute, optionally with a fact of p = 1 and a block of mass exactly 1
@st.composite
def head_only_bid(draw):
    singles = draw(st.lists(probabilities, max_size=4))
    keyed = draw(st.lists(st.lists(st.floats(min_value=0.0, max_value=1 / 3), min_size=1, max_size=3),
                          max_size=3))
    if draw(st.booleans()):
        singles.append(1.0)
    if draw(st.booleans()):
        keyed.append(draw(st.sampled_from([[0.5, 0.5], [0.25, 0.75], [0.125, 0.375, 0.5]])))
    blocks = [[(Fact("S", (i,)), p)] for i, p in enumerate(singles, start=1)]
    blocks += [[(Fact("K", (k, j)), p) for j, p in enumerate(ps, start=1)]
               for k, ps in enumerate(keyed, start=1)]
    return blocks


class TestBlockInstanceProbabilities:
    @given(head_only_bid(), st.randoms(use_true_random=False))
    @settings(max_examples=80, derandomize=True, deadline=None, database=None)
    def test_matches_the_oracle_world_by_world(self, blocks, rng):
        def space(head):
            return bid_construct(BlockPartition.by_keys(K=1), FactProbabilityAssignment(tuple(head)))

        head = [fp for block in blocks for fp in block]
        shuffled = head[:]
        rng.shuffle(shuffled)
        b, b_shuffled = space(head), space(shuffled)
        worlds = enumerate_block_worlds([[((f,), p) for f, p in block] for block in blocks])
        for d, p in worlds.items():
            iv = bid_instance_prob(b, d)
            assert iv.is_point and abs(iv.lo - p) <= 1e-12
            assert bid_instance_prob(b_shuffled, d) == iv
        for block in blocks:
            if len(block) >= 2:
                d = Instance([block[0][0], block[1][0]])
                assert bid_instance_prob(b, d) == ProbabilityInterval.point(0.0)


class TestEulerTailLowerBound:
    def test_empty_tail(self):
        assert euler_tail_lower_bound(0.0) == 1.0

    def test_worked_examples(self):
        assert euler_tail_lower_bound(0.6) == pytest.approx(0.40657, abs=1e-5)
        assert euler_tail_lower_bound(0.1) == pytest.approx(0.86071, abs=1e-5)
        # the bound really is below the direct product for p = 0.3, 0.2, 0.1
        assert 0.7 * 0.8 * 0.9 >= euler_tail_lower_bound(0.6)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            euler_tail_lower_bound(-1e-9)

    @given(st.lists(st.floats(min_value=0.0, max_value=0.5), max_size=100))
    def test_bounds_the_product_for_small_probabilities(self, ps):
        direct = 1.0
        for p in ps:
            direct *= 1.0 - p
        bound = euler_tail_lower_bound(math.fsum(ps))
        assert direct >= bound - 1e-12
        if not ps:
            assert direct == bound == 1.0


def _enclosure(head, tail_sum):
    """Head product as the upper end, times the exponential tail bound."""
    hi = math.prod(1.0 - p for p in head)
    return hi * euler_tail_lower_bound(tail_sum), hi


def _empty_instance_prob(head, c, q):
    """Enclosure of the empty instance of S-head facts plus an R-tail c*q**i."""
    schema = Schema.of(R=1, S=1)
    tail = GeometricTail(
        EnumerationSupply(FactEnumeration(schema, Universe.naturals()), relation="R"), c=c, q=q
    )
    facts = tuple((Fact("S", (i,)), p) for i, p in enumerate(head, start=1))
    t = ti_construct(FactProbabilityAssignment(facts, tail))
    return ti_instance_prob(t, Instance.empty())


class TestProductOneMinusEnclosure:
    def test_no_tail_is_a_point(self):
        lo, hi = _enclosure([0.5], 0.0)
        assert lo == hi == 0.5

    def test_pure_tail(self):
        lo, hi = _enclosure([], 0.6)
        assert lo == pytest.approx(0.40657, abs=1e-5)
        assert hi == 1.0

    def test_head_and_tail(self):
        lo, hi = _enclosure([0.2], 0.1)
        assert lo == pytest.approx(0.8 * math.exp(-0.15), abs=1e-12)
        assert hi == pytest.approx(0.8, abs=1e-15)

    def test_large_tail_probabilities_expanded(self):
        # the exponential bound needs tail probabilities <= 1/2; a tail that
        # starts above it is expanded explicitly until it drops below
        iv = _empty_instance_prob([0.2], c=1.0, q=0.75)
        truth = 0.8
        for i in range(1, 400):
            truth *= 1.0 - 0.75**i
        assert iv.lo - 1e-12 <= truth <= iv.hi + 1e-12
        assert iv.width <= 1e-11

    def test_contains_truth_for_geometric_tails(self):
        # geometric tail q**i beyond a head: truth computed by expanding far
        rng = random.Random(11)
        for _ in range(25):
            q = rng.uniform(0.1, 0.5)
            head = [rng.random() for _ in range(rng.randint(0, 5))]
            tail = [q**i for i in range(1, 300)]
            truth = 1.0
            for p in head + tail:
                truth *= 1.0 - p
            iv = _empty_instance_prob(head, c=1.0, q=q)
            assert iv.lo - 1e-12 <= truth <= iv.hi + 1e-12


class TestSubsetExpansionCheck:
    def test_two_element_expansion(self):
        lhs, rhs = subset_expansion_check([0.5, -0.25])
        assert lhs == pytest.approx(1.125, abs=1e-15)
        assert rhs == pytest.approx(1.125, abs=1e-15)

    def test_empty(self):
        assert subset_expansion_check([]) == (1.0, 1.0)

    def test_length_cap(self):
        with pytest.raises(ValueError):
            subset_expansion_check([0.1] * 21)

    @given(
        st.lists(
            st.floats(min_value=-0.9, max_value=0.9, allow_nan=False),
            min_size=10,
            max_size=10,
        )
    )
    @settings(max_examples=100)
    def test_identity_holds(self, a):
        lhs, rhs = subset_expansion_check(a)
        assert abs(lhs - rhs) <= 1e-10


class TestIntervalAndLogTypes:
    def test_interval_invariants(self):
        with pytest.raises(ValueError):
            ProbabilityInterval(0.6, 0.4)
        with pytest.raises(ValueError):
            ProbabilityInterval(-0.1, 0.5)
        iv = ProbabilityInterval(0.25, 0.75)
        assert iv.midpoint == 0.5
        assert iv.contains(0.3) and not iv.contains(0.9)
        assert iv.scale(0.5) == ProbabilityInterval(0.125, 0.375)

    def test_compensated_sum_matches_fsum(self):
        rng = random.Random(3)
        xs = [rng.uniform(-1, 1) * 10 ** rng.randint(-8, 8) for _ in range(500)]
        acc = CompensatedAccumulator()
        for x in xs:
            acc.add(x)
        assert acc.value == pytest.approx(math.fsum(xs), rel=1e-15, abs=1e-12)
