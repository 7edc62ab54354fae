import copy
import math
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from infpdb.core import (
    Fact,
    FiniteDiscretePDB,
    Instance,
    Schema,
    active_domain,
    divergent_size_partial_sum,
    expected_size,
    _element_key,
)
from infpdb.universe import Universe

from helpers import difference, instance_size, intersection, marginal, positive_facts, power_of_two_size_pdb, size_tail


# PYTHONPATH for a child interpreter that imports this checkout's infpdb
SRC = os.pathsep.join(
    p for p in (str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")) if p
)


def fact(rel, *args):
    return Fact(rel, args)


class TestSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Schema((("R", 1), ("R", 2)))

    def test_lookup(self):
        s = Schema.of(R=2, S=1)
        assert s.arity_of("R") == 2
        assert "S" in s and "T" not in s
        assert s.names == ("R", "S")


elements = st.one_of(st.integers(), st.text(max_size=4))
arg_lists = st.one_of(
    st.lists(st.integers(), max_size=4),
    st.lists(st.text(max_size=4), max_size=4),
    st.lists(elements, max_size=4),
)
relations = st.sampled_from(["R", "S", "Rel"])


class TestFact:
    @given(relations, arg_lists)
    def test_hash_and_sort_key_are_the_structural_ones(self, r, args):
        f = Fact(r, args)
        assert hash(f) == hash((r, tuple(args)))
        assert f.sort_key() == (r, len(args), tuple(_element_key(e) for e in args))

    @given(relations, arg_lists, relations, arg_lists)
    def test_order_follows_sort_key(self, r1, a1, r2, a2):
        f, g = Fact(r1, a1), Fact(r2, a2)
        assert (f < g) == (f.sort_key() < g.sort_key())
        assert (f == g) == (f.sort_key() == g.sort_key())

    @given(relations, arg_lists, relations, arg_lists)
    def test_copies_keep_equality_hash_and_order(self, r, args, r2, args2):
        f, other = Fact(r, args), Fact(r2, args2)
        copies = [
            Fact(f.relation, f.args),
            Fact(r, list(args)),
            copy.copy(f),
            copy.deepcopy(f),
            pickle.loads(pickle.dumps(f)),
        ]
        for g in copies:
            assert g == f and hash(g) == hash(f) and g.sort_key() == f.sort_key()
            assert (g < other) == (f < other) and (other < g) == (other < f)
        changed = Fact(f.relation, tuple(args2))
        assert hash(changed) == hash((r, tuple(args2)))
        assert changed.sort_key() == Fact(r, args2).sort_key()

    def test_pickle_rehashes_in_another_process(self):
        # string hashes differ between processes, so a stored hash must not travel
        script = (
            "import pickle, sys; from infpdb.core import Fact\n"
            "if sys.argv[1] == 'dump':\n"
            "    sys.stdout.write(pickle.dumps(Fact('R', ('a', 1))).hex())\n"
            "else:\n"
            "    f = pickle.loads(bytes.fromhex(sys.stdin.read()))\n"
            "    print(hash(f) == hash(('R', ('a', 1))), f in {Fact('R', ('a', 1))})\n"
        )

        def run(seed, mode, stdin=""):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": SRC}
            return subprocess.run(
                [sys.executable, "-c", script, mode], input=stdin, env=env,
                capture_output=True, text=True, check=True,
            ).stdout

        assert run("2", "load", run("1", "dump")).split() == ["True", "True"]

    @pytest.mark.parametrize("bad", [True, 1.5, 2.0])
    def test_bool_and_float_args_rejected(self, bad):
        with pytest.raises(TypeError):
            Fact("R", (1, bad))
        with pytest.raises(TypeError):
            Fact("R", (bad,))

    def test_list_args_become_tuples(self):
        f = Fact("R", [1, "a"])
        assert f.args == (1, "a") and isinstance(f.args, tuple)
        assert f == Fact("R", (1, "a")) and hash(f) == hash(("R", (1, "a")))
        assert repr(f) == "Fact(relation='R', args=(1, 'a'))"

    def test_fields_cannot_be_assigned_or_deleted(self):
        f = Fact("R", (1,))
        for name in ("relation", "args", "other"):
            with pytest.raises(AttributeError):
                setattr(f, name, "S")
        with pytest.raises(AttributeError):
            del f.args
        assert f == Fact("R", (1,)) and hash(f) == hash(("R", (1,)))


class TestInstance:
    def test_structural_equality_and_hash(self):
        a = Instance([fact("R", 1, 2), fact("R", 3, 4)])
        b = Instance([fact("R", 3, 4), fact("R", 1, 2)])
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_duplicates_collapse(self):
        assert len(Instance([fact("R", 1), fact("R", 1)])) == 1

    def test_canonical_iteration_order(self):
        a = Instance([fact("S", 2), fact("R", 9), fact("R", 1)])
        b = Instance([fact("R", 1), fact("R", 9), fact("S", 2)])
        assert list(a) == list(b)

    def test_set_operations(self):
        d = Instance([fact("R", 1), fact("S", 2)])
        assert d.union([fact("R", 3)]) == Instance([fact("R", 1), fact("S", 2), fact("R", 3)])
        assert difference(d, [fact("S", 2)]) == Instance([fact("R", 1)])
        assert intersection(d, [fact("S", 2)]) == Instance([fact("S", 2)])


class TestActiveDomainAndSize:
    def test_empty(self):
        assert active_domain(Instance.empty()) == set()
        assert instance_size(Instance.empty()) == 0

    def test_example_facts(self):
        d = Instance([fact("R", "A", "1"), fact("R", "B", "2")])
        assert active_domain(d) == {"A", "1", "B", "2"}

    def test_repeated_elements_deduplicate(self):
        assert active_domain(Instance([fact("R", 1, 1)])) == {1}

    def test_power_world_size(self):
        d = Instance([fact("R", i) for i in range(1, 2**3 + 1)])
        assert instance_size(d) == 8


def two_fact_product_space():
    f, g = fact("R", 1), fact("R", 2)
    worlds = {
        Instance.empty(): 0.25,
        Instance([f]): 0.25,
        Instance([g]): 0.25,
        Instance([f, g]): 0.25,
    }
    return f, g, FiniteDiscretePDB(Schema.of(R=1), Universe.naturals(), worlds)


class TestFiniteDiscretePDB:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError):
            FiniteDiscretePDB(
                Schema.of(R=1), Universe.naturals(), {Instance.empty(): 0.4}
            )

    def test_small_deviation_renormalized(self):
        p = FiniteDiscretePDB(
            Schema.of(R=1),
            Universe.naturals(),
            {Instance.empty(): 0.5 + 2e-10, Instance([fact("R", 1)]): 0.5},
        )
        assert math.fsum(p.worlds.values()) == pytest.approx(1.0, abs=1e-15)

    def test_larger_deviation_warns(self):
        with pytest.warns(UserWarning):
            FiniteDiscretePDB(
                Schema.of(R=1),
                Universe.naturals(),
                {Instance.empty(): 0.5 + 2e-8, Instance([fact("R", 1)]): 0.5},
            )

    def test_marginal(self):
        f, g, p = two_fact_product_space()
        assert marginal(p, f) == pytest.approx(0.5, abs=1e-15)
        single = FiniteDiscretePDB(
            Schema.of(R=1),
            Universe.naturals(),
            {Instance.empty(): 0.5, Instance([f]): 0.5},
        )
        assert marginal(single, f) == 0.5

    def test_positive_facts(self):
        f, g, p = two_fact_product_space()
        assert positive_facts(p) == {f, g}
        trivial = FiniteDiscretePDB(
            Schema.of(R=1), Universe.naturals(), {Instance.empty(): 1.0}
        )
        assert positive_facts(trivial) == set()

    def test_expected_size(self):
        trivial = FiniteDiscretePDB(
            Schema.of(R=1), Universe.naturals(), {Instance.empty(): 1.0}
        )
        assert expected_size(trivial) == 0.0
        _, _, p = two_fact_product_space()
        assert expected_size(p) == pytest.approx(1.0, abs=1e-15)

    def test_size_tail(self):
        f = fact("R", 1)
        p = FiniteDiscretePDB(
            Schema.of(R=1),
            Universe.naturals(),
            {Instance.empty(): 0.3, Instance([f]): 0.7},
        )
        assert size_tail(p, 0) == 1.0
        assert size_tail(p, 1) == pytest.approx(0.7, abs=1e-15)
        assert size_tail(p, 2) == 0.0

    def test_expected_size_equals_sum_of_marginals(self):
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randint(1, 8)
            facts = [fact("R", i) for i in range(1, n + 1)]
            raw = {}
            for mask in range(2**n):
                raw[Instance(f for i, f in enumerate(facts) if mask >> i & 1)] = (
                    rng.random()
                )
            total = sum(raw.values())
            worlds = {d: w / total for d, w in raw.items()}
            p = FiniteDiscretePDB(Schema.of(R=1), Universe.naturals(), worlds)
            lhs = expected_size(p)
            rhs = math.fsum(marginal(p, f) for f in positive_facts(p))
            assert abs(lhs - rhs) <= 1e-12

    def test_size_tail_antitone_and_vanishes(self):
        _, _, p = two_fact_product_space()
        values = [size_tail(p, n) for n in range(0, 5)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        max_size = max(len(d) for d in p.worlds)
        assert size_tail(p, max_size + 1) == 0.0

    def test_marginal_zero_outside_positive_facts(self):
        _, _, p = two_fact_product_space()
        assert marginal(p, fact("R", 99)) == 0.0


class TestPowerOfTwoSizeSpace:
    def test_marginal_of_first_fact(self):
        # R(1) lies in every nonempty world of the truncation
        p = power_of_two_size_pdb(3)
        expected = 6 / math.pi**2 * (1 + 1 / 4 + 1 / 9)
        assert marginal(p, fact("R", 1)) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.827456, abs=1e-6)

    def test_size_tail_threshold(self):
        # worlds of size 2**n >= 9 are exactly those with n >= 4
        p = power_of_two_size_pdb(5)
        expected = 6 / math.pi**2 * (1 / 16 + 1 / 25)
        assert size_tail(p, 9) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.062313, abs=1e-6)

    def test_partial_sums_blow_up(self):
        assert divergent_size_partial_sum(20) > 1e3
        assert divergent_size_partial_sum(31) > 1e6
        p = power_of_two_size_pdb(12)
        assert expected_size(p) == pytest.approx(divergent_size_partial_sum(12), rel=1e-12)
