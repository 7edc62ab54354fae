import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infpdb.core import Fact, Schema
from infpdb.independence import EnumerationSupply
from infpdb.universe import (
    FactEnumeration,
    Universe,
    cantor_pair,
    cantor_unpair,
    tuple_at,
    tuple_index,
)


class TestUniverseElements:
    def test_naturals_identity(self):
        u = Universe.naturals()
        assert u.element_at(5) == 5
        assert u.element_index(17) == 17

    def test_binary_strings_paper_bijection(self):
        # the string x stands for the integer with binary representation 1x
        u = Universe.strings("01")
        assert u.element_at(1) == ""
        assert u.element_at(6) == "10"  # 6 = 0b110
        assert u.element_at(2) == "0"
        assert u.element_at(3) == "1"

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            Universe.naturals().element_at(0)

    def test_alphabet_validation(self):
        with pytest.raises(ValueError):
            Universe.strings("")
        with pytest.raises(ValueError):
            Universe.strings("aa")

    @given(st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=200)
    def test_roundtrip_binary(self, k):
        u = Universe.strings("01")
        assert u.element_index(u.element_at(k)) == k

    def test_shortlex_monotone(self):
        u = Universe.strings("ab")
        elems = [u.element_at(k) for k in range(1, 200)]
        keys = [(len(e), e) for e in elems]
        assert keys == sorted(keys)

    def test_naturals_strictly_monotone(self):
        u = Universe.naturals()
        elems = [u.element_at(k) for k in range(1, 100)]
        assert elems == sorted(elems)
        assert len(set(elems)) == len(elems)

    def test_membership(self):
        assert Universe.naturals().contains(3)
        assert not Universe.naturals().contains(0)
        assert not Universe.naturals().contains("3")
        assert not Universe.naturals().contains(True)
        u = Universe.strings("01")
        assert u.contains("0110") and u.contains("")
        assert not u.contains("2") and not u.contains(1)

    @given(
        st.lists(st.sampled_from("0aé\\ '"), min_size=1, max_size=4, unique=True).map("".join),
        st.one_of(
            st.text(alphabet="01aé\\ '\"z", max_size=6),
            st.integers(), st.none(), st.booleans(), st.floats(), st.lists(st.text(max_size=2), max_size=3),
        ),
    )
    @settings(max_examples=300, derandomize=True)
    def test_string_membership_is_every_character_in_the_alphabet(self, alphabet, e):
        u = Universe.strings(alphabet)
        assert u.contains(e) == (isinstance(e, str) and all(ch in tuple(alphabet) for ch in e))
        assert u.contains("") and not u.contains(1) and not u.contains(["0"])

    def test_fresh_elements_skip_taken(self):
        u = Universe.naturals()
        assert u.fresh_elements({1, 3}, 3) == [2, 4, 5]


class TestTupleOrder:
    def test_pairing_examples(self):
        assert cantor_pair(1, 1) == 1
        assert cantor_pair(1, 2) == 2
        assert cantor_pair(2, 1) == 3

    @given(st.integers(min_value=1, max_value=10**6))
    def test_unpair_roundtrip(self, k):
        x, y = cantor_unpair(k)
        assert cantor_pair(x, y) == k

    @given(st.integers(min_value=1, max_value=10**5), st.integers(min_value=1, max_value=4))
    @settings(max_examples=200)
    def test_tuple_roundtrip(self, k, arity):
        assert tuple_index(tuple_at(k, arity)) == k

    def test_first_tuple_is_all_ones(self):
        for arity in range(1, 5):
            assert tuple_at(1, arity) == (1,) * arity

    def test_arity_past_the_recursion_limit(self):
        assert tuple_at(1, 3_000) == (1,) * 3_000
        assert tuple_index((1,) * 3_000) == 1

    @given(st.integers(min_value=1, max_value=10**5), st.integers(min_value=1, max_value=4),
           st.integers(min_value=0, max_value=10**5))
    @settings(max_examples=200)
    def test_limit_keeps_every_index_up_to_it(self, k, arity, limit):
        got = tuple_index(tuple_at(k, arity), limit)
        assert got == k if k <= limit else got > limit

    def test_limit_stops_the_pairing(self):
        # the whole index of (5,) * 30 has over a billion bits
        assert 10**6 < tuple_index((5,) * 30, 10**6) < 10**13


class TestFactEnumeration:
    def test_single_unary_relation_is_identity(self):
        e = FactEnumeration(Schema.of(R=1), Universe.naturals())
        assert e.fact_at(3) == Fact("R", (3,))
        assert e.fact_index(Fact("R", (3,))) == 3

    def test_two_relations_interleave(self):
        e = FactEnumeration(Schema.of(R=1, S=1), Universe.naturals())
        listed = [e.fact_at(k) for k in range(1, 5)]
        assert listed == [
            Fact("R", (1,)),
            Fact("S", (1,)),
            Fact("R", (2,)),
            Fact("S", (2,)),
        ]
        assert e.fact_index(Fact("S", (2,))) == 4

    def test_binary_relation_diagonal(self):
        e = FactEnumeration(Schema.of(R=2), Universe.naturals())
        assert e.fact_at(1) == Fact("R", (1, 1))
        assert e.fact_index(Fact("R", (1, 1))) == 1

    @given(st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=300)
    def test_roundtrip_large_indices(self, k):
        e = FactEnumeration(Schema.of(R=2, S=1), Universe.strings("01"))
        assert e.fact_index(e.fact_at(k)) == k

    @given(
        st.sampled_from(["R", "S"]),
        st.lists(st.integers(min_value=1, max_value=500), min_size=2, max_size=2),
    )
    def test_roundtrip_random_facts(self, rel, args):
        schema = Schema.of(R=2, S=2)
        e = FactEnumeration(schema, Universe.naturals())
        f = Fact(rel, tuple(args))
        assert e.fact_at(e.fact_index(f)) == f

    def test_stable_across_instances(self):
        a = FactEnumeration(Schema.of(R=2), Universe.naturals())
        b = FactEnumeration(Schema.of(R=2), Universe.naturals())
        assert [a.fact_at(k) for k in range(1, 50)] == [b.fact_at(k) for k in range(1, 50)]

    def test_errors(self):
        e = FactEnumeration(Schema.of(R=1), Universe.naturals())
        with pytest.raises(ValueError):
            e.fact_at(0)
        with pytest.raises(ValueError):
            e.fact_index(Fact("R", (1, 2)))  # arity mismatch
        with pytest.raises(ValueError):
            e.fact_index(Fact("R", (0,)))  # element outside universe
        with pytest.raises(ValueError):
            e.fact_index(Fact("T", (1,)))  # unknown relation

    def test_relation_subenumeration(self):
        s = EnumerationSupply(FactEnumeration(Schema.of(R=1, S=1), Universe.naturals()), "S")
        assert s.facts_at(3) == (Fact("S", (3,)),)
        assert s.intrinsic_index(Fact("S", (3,))) == 3
