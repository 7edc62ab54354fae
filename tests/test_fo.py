import itertools
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infpdb import fo
from infpdb.core import Fact, FiniteDiscretePDB, Instance, Schema, active_domain
from infpdb.errors import QuerySyntaxError
from infpdb.fo import (
    And,
    Atom,
    Const,
    Eq,
    Exists,
    Forall,
    Implies,
    Not,
    Or,
    Var,
    Fresh,
    eval_boolean,
    free_variables,
    groundings,
    parse,
)
from infpdb.record import Record
from infpdb.universe import Universe

import helpers
from helpers import (
    INFINITE_ANSWER,
    View,
    analyze,
    constants,
    eval_on_pool,
    eval_query,
    naive_eval,
    print_formula,
    random_instance,
    random_sentence,
    requantify,
    substitute,
    view_pushforward,
)

S1 = Schema.of(R=1)
S2 = Schema.of(R=1, S=1)
NAT = Universe.naturals()


def fact(rel, *args):
    return Fact(rel, args)


class TestParse:
    def test_exists_atom(self):
        f = parse("exists x. R(x)", S1)
        assert f == Exists("x", Atom("R", (Var("x"),)))

    def test_connectives_and_free_variables(self):
        f = parse("R(x) & !S(x)", S2)
        assert f == And(Atom("R", (Var("x"),)), Not(Atom("S", (Var("x"),))))
        assert analyze(f)[2] == ["x"]

    def test_syntax_error_position(self):
        with pytest.raises(QuerySyntaxError) as err:
            parse("exists x. R(x,", S1)
        assert err.value.position >= 13

    def test_unknown_relation(self):
        with pytest.raises(QuerySyntaxError):
            parse("T(x)", S1)

    def test_arity_mismatch(self):
        with pytest.raises(QuerySyntaxError):
            parse("R(x, y)", S1)

    def test_precedence(self):
        f = parse("R(x) | S(x) & !R(y) -> S(y)", S2)
        assert f == Implies(
            Or(Atom("R", (Var("x"),)), And(Atom("S", (Var("x"),)), Not(Atom("R", (Var("y"),))))),
            Atom("S", (Var("y"),)),
        )

    def test_quantifier_extends_right(self):
        f = parse("exists x. R(x) & S(x)", S2)
        assert f == Exists("x", And(Atom("R", (Var("x"),)), Atom("S", (Var("x"),))))

    def test_constants(self):
        f = parse("R(7) & R('abc')", Schema.of(R=1))
        assert f == And(Atom("R", (Const(7),)), Atom("R", (Const("abc"),)))

    def test_string_constant_with_a_tab_round_trips(self):
        # inside a string constant, a doubled quote stands for one quote
        for text, value, printed in [
            ("!(y = '\t')", "\t", "!y = '\t'"),
            ("!(y = 'a''b')", "a'b", "!y = 'a''b'"),
            ("!(y = '''')", "'", "!y = ''''"),
        ]:
            f = parse(text, S1)
            assert f == Not(Eq(Var("y"), Const(value)))
            assert print_formula(f) == printed
            assert parse(print_formula(f), S1) == f
        assert print_formula(Eq(Var("x"), Const("a'b"))) == "x = 'a''b'"

    @pytest.mark.parametrize("text, position", [("R(\u00b2)", 2), ("R(1\u00b2)", 3), ("R(\u0663)", 2)])
    def test_only_ascii_digits_make_an_integer(self, text, position):
        with pytest.raises(QuerySyntaxError) as err:
            parse(text, S1)
        assert err.value.position == position

    def test_implication_right_associative(self):
        f = parse("R(x) -> S(x) -> R(y)", S2)
        assert f == Implies(
            Atom("R", (Var("x"),)), Implies(Atom("S", (Var("x"),)), Atom("R", (Var("y"),)))
        )

    @pytest.mark.parametrize("seed", range(40))
    def test_parse_print_roundtrip(self, seed):
        rng = random.Random(seed)
        f = random_sentence(rng, S2, max_rank=3, max_connectives=5)
        assert parse(print_formula(f), S2) == f


class TestAnalyze:
    def test_rank_one_sentence(self):
        assert analyze(parse("exists x. R(x)", S1)) == (1, set(), [])

    def test_nested_rank(self):
        f = parse("exists x. forall y. (R(x) | x = y)", S1)
        assert analyze(f) == (2, set(), [])

    def test_constants_and_free_vars(self):
        f = parse("R(x, 7)", Schema.of(R=2))
        assert analyze(f) == (0, {7}, ["x"])


class TestPolarity:
    """``(monotone, antimonotone)``: every relation atom under an even, or
    every one under an odd, number of negations."""

    RS2 = Schema.of(R=2, S=1)

    @pytest.mark.parametrize("text, expected", [
        ("exists x. S(x)", (True, False)),
        ("forall x. !S(x)", (False, True)),
        # the query workload's guarded shape: S(x) on the left of ->
        ("forall x. S(x) -> exists y. R(x, y)", (False, False)),
        # the left side of -> is one negation, the right side none
        ("S(1) -> S(2)", (False, False)),
        ("!S(1) -> S(2)", (True, False)),
        ("S(1) -> !S(2)", (False, True)),
        ("(S(1) -> S(2)) -> S(3)", (False, False)),
        ("(!S(1) -> S(2)) -> S(3)", (False, False)),
        ("(S(1) -> !S(2)) -> S(3)", (True, False)),
        # negations compose: an even count is positive
        ("!!S(1)", (True, False)),
        ("!(S(1) & !R(1, 2))", (False, False)),
        ("!(S(1) | R(1, 2))", (False, True)),
        # = is no relation atom: it counts on neither side
        ("exists x. S(x) & !(x = 1)", (True, False)),
        ("forall x. (x = 1 -> !S(x))", (False, True)),
        ("exists x. exists y. !(x = y)", (True, True)),
        ("1 = 2 -> !(1 = 1)", (True, True)),
        # nested quantifiers keep the sign they sit under
        ("exists x. forall y. exists z. R(x, y) | R(y, z)", (True, False)),
        ("!exists x. forall y. (R(x, y) & exists z. S(z))", (False, True)),
        ("forall x. exists y. !R(x, y) & exists z. R(z, x)", (False, False)),
    ])
    def test_signs(self, text, expected):
        assert fo.polarity(parse(text, self.RS2)) == expected

    def test_open_formula(self):
        # free variables do not change the signs
        assert fo.polarity(parse("exists y. R(x, y)", self.RS2)) == (True, False)
        assert fo.polarity(parse("!S(x) & x = y", self.RS2)) == (False, True)


class TestEvalBoolean:
    def test_exists_on_nonempty(self):
        d = Instance([fact("R", 4)])
        assert eval_boolean(d, parse("exists x. R(x)", S1), NAT)

    def test_forall_fails_on_infinite_universe(self):
        d = Instance([fact("R", 4)])
        assert not eval_boolean(d, parse("forall x. R(x)", S1), NAT)

    def test_two_distinct_generics(self):
        f = parse("exists x. exists y. !(x = y)", S1)
        assert eval_boolean(Instance.empty(), f, NAT)

    def test_free_variables_rejected(self):
        with pytest.raises(ValueError):
            eval_boolean(Instance.empty(), parse("R(x)", S1), NAT)

    def test_ground_sentence_builds_no_domain(self, monkeypatch):
        domains, compile_sentence = [], fo.compile_sentence

        def recording(f, *analysis):
            bind = compile_sentence(f, *analysis)
            return lambda d: lambda domain, run=bind(d): domains.append(domain) or run(domain)

        monkeypatch.setattr(fo, "compile_sentence", recording)
        d = Instance([fact("R", 1), fact("S", 2)])
        assert eval_boolean(d, parse("R(1) & !S(1) & !(1 = 2)", S2), NAT)
        assert not eval_boolean(d, parse("S(1) | R(2)", S2), NAT)
        assert domains == [[], []]

    def test_walk_pool_takes_generics_outside_the_walk(self):
        # the constants, then the world's elements in their order, each once,
        # then the generics, outside {1, 3} and {7, 2}
        f = parse("forall x. exists y. S(y) & !(y = 7) | x = 2", S2)
        domain_of = fo.walk_pool(f, [1, 3], NAT)
        domain = domain_of(dict.fromkeys([1, 3]))
        assert set(domain[:2]) == {7, 2} and domain[2:] == [1, 3, 4, 5]
        assert domain_of(dict.fromkeys([3]))[2:] == [3, 4, 5]
        assert fo.walk_pool(f, [3, 2, 1], NAT)(dict.fromkeys([3, 2, 1]))[2:] == [3, 1, 4, 5]
        assert fo.walk_pool(parse("R(1) | S(2)", S2), {1, 3}, NAT)(dict.fromkeys([1, 3])) == []
        # an open formula is refused where it is bound without its values
        with pytest.raises(ValueError):
            fo.compile_sentence(parse("R(x)", S1))(Instance.empty().tuples_of)

    def test_walk_pool_leaves_out_constants_outside_the_universe(self):
        # 'A' is no natural, so no quantifier ranges over it
        f = parse("forall x. !(x = 'A')", S1)
        assert fo.walk_pool(f, [], NAT)({}) == [1]
        assert eval_boolean(Instance.empty(), f, NAT)

    def test_default_path_analyses_once(self, monkeypatch):
        calls, analysis = [], fo._analysis
        monkeypatch.setattr(fo, "_analysis", lambda f: calls.append(f) or analysis(f))
        assert eval_boolean(Instance([fact("R", 1)]), parse("exists x. R(x) & !(x = 2)", S1), NAT)
        assert len(calls) == 1

    def test_open_formula_compiles_once_for_every_grounding(self):
        # x has a slot that each binding fills; its value joins the domain
        f = parse("forall y. (S(y) -> y = x) & exists z. z = x", S2)
        d = Instance([fact("S", 1)])
        bind, domain_of = fo.compile_sentence(f), fo.walk_pool(f, [1, 2], NAT)
        assert [bind(d.tuples_of, (x,))(domain_of(dict.fromkeys([x, 1]))) for x in (1, 2)] == [True, False]

    def test_generic_equal_only_to_itself(self):
        # exactly one generic is available at rank 1, and it is not in R
        f = parse("exists x. !R(x) & !(x = 1)", S1)
        assert eval_boolean(Instance([fact("R", 1)]), f, NAT)

    @pytest.mark.parametrize("text, expected", [
        ("exists x. ((exists x. S(x)) & R(x))", True),
        ("forall x. ((exists x. S(x)) -> R(x))", False),
        ("exists x. ((forall x. !S(x)) | R(x))", True),
    ])
    def test_shadowed_quantifier_keeps_outer_binding(self, text, expected):
        d = Instance([fact("R", 1), fact("S", 2)])
        assert eval_boolean(d, parse(text, S2), NAT) is expected

    @pytest.mark.parametrize("seed", range(100))
    def test_pool_enlargement_invariance(self, seed):
        rng = random.Random(seed)
        f = random_sentence(rng, S2, max_rank=3)
        d = random_instance(rng, S2, elements=(1, 2, 3, 4, 5))
        rank = analyze(f)[0]
        base = eval_boolean(d, f, NAT)
        assert eval_on_pool(d, f, NAT, rank + 2) == base

    @pytest.mark.parametrize("seed", range(60))
    def test_guarded_quantifiers_match_naive_finite_evaluation(self, seed):
        # quantifiers relativized to R-atoms see only the active domain
        rng = random.Random(seed)
        inner = random_sentence(rng, S2, max_rank=0, constant_pool=(1, 2, 3))
        d = random_instance(rng, S2, elements=(1, 2, 3), max_facts=4)
        guarded_exists = Exists("w", And(Atom("R", (Var("w"),)), _open_over(rng)))
        guarded_forall = Forall("w", Implies(Atom("R", (Var("w"),)), _open_over(rng)))
        adom = sorted({e for g in d for e in g.args})
        for f in (guarded_exists, guarded_forall):
            assert eval_boolean(d, f, NAT) == naive_eval(f, d, adom or [1])


def _open_over(rng):
    # a quantifier-free formula over variable w and small constants
    choices = [
        Atom("S", (Var("w"),)),
        Not(Atom("S", (Var("w"),))),
        Eq(Var("w"), Const(rng.choice((1, 2, 3)))),
        And(Atom("R", (Var("w"),)), Not(Eq(Var("w"), Const(2)))),
    ]
    return rng.choice(choices)


class TestEvalQuery:
    def test_simple_selection(self):
        d = Instance([fact("R", 4)])
        assert eval_query(d, parse("R(x)", S1), NAT) == frozenset({(4,)})

    def test_negation_is_infinite(self):
        d = Instance([fact("R", 4)])
        assert eval_query(d, parse("!R(x)", S1), NAT) is INFINITE_ANSWER

    def test_selection_with_inequality(self):
        d = Instance([fact("R", 1), fact("R", 2)])
        assert eval_query(d, parse("R(x) & !(x = 1)", S1), NAT) == frozenset({(2,)})

    def test_inequality_alone_is_infinite_even_without_candidates(self):
        f = parse("!(x = y)", S1)
        assert eval_query(Instance.empty(), f, NAT) is INFINITE_ANSWER

    def test_sentences_rejected(self):
        with pytest.raises(ValueError):
            eval_query(Instance.empty(), parse("exists x. R(x)", S1), NAT)

    @pytest.mark.parametrize("seed", range(40))
    def test_finite_answers_match_per_tuple_evaluation(self, seed):
        rng = random.Random(seed)
        body = random_sentence(rng, S2, max_rank=1, constant_pool=(1, 2))
        f = And(Atom("R", (Var("z"),)), Not(body) if rng.random() < 0.5 else body)
        d = random_instance(rng, S2, elements=(1, 2, 3), max_facts=4)
        answers = eval_query(d, f, NAT)
        if answers is INFINITE_ANSWER:
            return
        candidates = {e for g in d for e in g.args} | {1, 2}
        expected = {
            (e,)
            for e in candidates
            if eval_boolean(d, substitute(f, {"z": e}), NAT)
        }
        assert answers == frozenset(expected)


def _all_generic_combos(d, f, u):
    """eval_query by trying every tuple over the candidates and one generic
    element per free variable, the generics in every combination."""
    free = free_variables(f)
    candidates = sorted(active_domain(d) | constants(f), key=lambda e: (isinstance(e, str), e))
    generics = u.fresh_elements(set(candidates), len(free))
    answers = set()
    for combo in itertools.product(candidates + generics, repeat=len(free)):
        if eval_boolean(d, substitute(f, dict(zip(free, combo))), u):
            if any(e in generics for e in combo):
                return INFINITE_ANSWER
            answers.add(combo)
    return frozenset(answers)


def _open_formula(rng, k):
    """A random formula whose free variables are x, y, z up to k: the
    marker constants 101, 102, 103 of a random sentence become them."""
    markers = dict(zip((101, 102, 103), "xyz"[:k]))
    schema = Schema.of(R=2, S=1)

    def lift(node):
        if isinstance(node, Const) and node.value in markers:
            return Var(markers[node.value])
        if isinstance(node, tuple):
            return tuple(map(lift, node))
        if isinstance(node, Record):
            return type(node)(*(lift(getattr(node, name)) for name in node._fields))
        return node

    f = lift(random_sentence(rng, schema, max_rank=1, constant_pool=(1, 2, *markers)))
    f = And(f, Atom("R", (Var("x"), Const(2)))) if not free_variables(f) else f
    return Not(f) if rng.random() < 0.4 else f


class TestGroundings:
    @given(st.randoms(use_true_random=False), st.integers(1, 3))
    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    def test_eval_query_matches_every_generic_combination(self, rng, k):
        f = _open_formula(rng, k)
        d = random_instance(rng, Schema.of(R=2, S=1), elements=(1, 2, 3, "a"), max_facts=4)
        assert eval_query(d, f, NAT) == _all_generic_combos(d, f, NAT)

    def test_both_answer_kinds_occur_among_the_drawn_formulas(self):
        rng, kinds = random.Random(5), set()
        for k in (1, 2, 3) * 20:
            f = _open_formula(rng, k)
            d = random_instance(rng, Schema.of(R=2, S=1), elements=(1, 2, 3, "a"), max_facts=4)
            answers = eval_query(d, f, NAT)
            assert answers == _all_generic_combos(d, f, NAT)
            kinds.add(answers is INFINITE_ANSWER)
        assert kinds == {False, True}

    def test_keys_in_element_order_then_fresh_in_first_use_order(self):
        f = parse("R(x, y) | x = 'b'", Schema.of(R=2))
        # 'b' is no natural, so it is a candidate only as an element
        keys = [key for key, _ in groundings(f, {"a", 2, "b"}, NAT)]
        fresh = [Fresh(1), Fresh(2)]
        order = [2, "a", "b"]
        want = [(a, b) for a in order + fresh[:1] for b in order + fresh[: 1 + (a == fresh[0])]]
        assert keys == want
        # the fresh elements are the first naturals outside the candidates
        values = dict(groundings(f, {"a", 2, "b"}, NAT))
        assert substitute(f, dict(zip("xy", values[(Fresh(1), Fresh(2))]))) == parse("R(1, 3) | 1 = 'b'", Schema.of(R=2))

    def test_constants_outside_the_universe_are_no_candidates(self):
        # neither 'A' nor 0 is a natural
        f = parse("R(x) | x = 'A' | x = 0", S1)
        assert [key for key, _ in groundings(f, {2}, NAT)] == [(2,), (Fresh(1),)]

    def test_eval_query_tries_only_first_use_patterns(self, monkeypatch):
        calls = []
        evaluate = helpers.eval_boolean
        monkeypatch.setattr(helpers, "eval_boolean", lambda d, f, u, **kw: calls.append(f) or evaluate(d, f, u, **kw))
        d = Instance([fact("R", 1, 2), fact("R", 2, 3)])
        assert eval_query(d, parse("R(x, y)", Schema.of(R=2)), NAT) == {(1, 2), (2, 3)}
        # 3 candidates: 9 tuples, 3 + 3 with one fresh element, and (*1, *1), (*1, *2)
        assert len(calls) == 9 + 6 + 2 < (3 + 2) ** 2


S123 = Schema.of(P=1, R=2, T=3)


def _slot_layout_sentences(rng):
    """Sentences of rank <= 3 over P/1, R/2 and T/3 whose variables are
    renamed to x and y, so quantifiers bind a variable again inside a
    quantifier that binds it; then one that reads x after such a scope."""
    names = {f"v{k}": rng.choice("xy") for k in range(16)}
    out = [
        requantify(random_sentence(rng, S123, max_rank=rank, constant_pool=(1, 2, "a")), names)
        for rank in (rng.randint(1, 3), rng.randint(0, 3))
    ]
    inner = requantify(random_sentence(rng, S123, max_rank=2, constant_pool=(1, 2, "a")), names)
    connective, quantifier = rng.choice([And, Or, Implies]), rng.choice([Exists, Forall])
    read = rng.choice([Atom("P", (Var("x"),)), Atom("R", (Const(2), Var("x"))), Eq(Var("x"), Const(1))])
    out.append(quantifier("x", connective(inner, read)))
    return out


def _features(f, bound=frozenset(), seen=None):
    """The constructs of ``f`` that the compiler lays out or folds apart."""
    seen = set() if seen is None else seen
    if isinstance(f, (Exists, Forall)):
        if f.var in bound:
            seen.add("requantified")
        _features(f.body, bound | {f.var}, seen)
    elif isinstance(f, Atom):
        if any(isinstance(t, Const) for t in f.terms) and any(isinstance(t, Var) for t in f.terms):
            seen.add(f"mixed atom/{len(f.terms)}")
        seen.add(f"atom/{len(f.terms)}")
    elif isinstance(f, Eq):
        seen.add("const = const" if isinstance(f.left, Const) and isinstance(f.right, Const) else "=")
        if isinstance(f.left, Const) != isinstance(f.right, Const):
            seen.add("const = var")
    else:
        seen.add(type(f).__name__)
        for part in (f.body,) if isinstance(f, Not) else (f.left, f.right):
            _features(part, bound, seen)
    return seen


class TestCompiledSlots:
    """The compiled closures, with one slot per quantifier level, against the
    naive evaluator, which binds each variable in a fresh dict."""

    def test_match_naive_evaluation(self):
        """Also on the domain reversed and shuffled: no truth value depends
        on the order in which a quantifier tries the elements."""
        rng, shuffler = random.Random(19), random.Random(23)
        sentences, seen = [], set()
        for _ in range(110):
            d = random_instance(rng, S123, elements=(1, 2, 3, "a"), max_facts=7)
            for f in _slot_layout_sentences(rng):
                rank, consts, _ = analyze(f)
                adom = active_domain(d) | consts
                domain = [*adom, *NAT.fresh_elements(adom, rank)]
                truth = naive_eval(f, d, domain)
                assert eval_boolean(d, f, NAT) == truth, (f, d)
                run = fo.compile_sentence(f)(d.tuples_of)
                assert run([*adom, *NAT.fresh_elements(adom, rank + 2)]) == truth, (f, d)
                shuffled = shuffler.sample(domain, len(domain))
                for order in (domain, domain[::-1], shuffled):
                    assert run(order) == truth, (f, d, order)
                sentences.append(f)
                seen |= _features(f)
        assert len(sentences) >= 300
        assert {
            "requantified", "atom/1", "atom/2", "atom/3", "mixed atom/2", "mixed atom/3",
            "const = const", "const = var", "Implies", "Not",
        } <= seen

    def test_forall_meets_a_generic_first(self):
        """``forall`` reads the domain from the end, where the generics are,
        so a body that needs a fact about its variable fails at once."""

        class CountingSet(set):
            lookups = 0

            def __contains__(self, item):
                CountingSet.lookups += 1
                return super().__contains__(item)

        cycle = CountingSet((i, (i + 1) % 10) for i in range(10))
        world = SimpleNamespace(tuples_of={"R": cycle, "S": CountingSet()}.__getitem__)
        domain = [*range(10), *NAT.fresh_elements(set(range(10)), 2)]
        f = parse("forall x. exists y. R(x, y) | S(x)", Schema.of(R=2, S=1))
        assert eval_boolean(world, f, NAT, domain=domain) is False
        assert CountingSet.lookups <= 2 * len(domain), CountingSet.lookups


class TestViews:
    def test_identity_view(self):
        p = FiniteDiscretePDB(
            S1,
            NAT,
            {Instance.empty(): 0.5, Instance([fact("R", 1)]): 0.5},
        )
        v = View(S1, (("R", parse("R(x)", S1)),))
        assert view_pushforward(p, v) == p

    def test_projection_view(self):
        schema = Schema.of(R=2)
        p = FiniteDiscretePDB(
            schema,
            NAT,
            {Instance.empty(): 0.5, Instance([fact("R", 1, 2)]): 0.5},
        )
        v = View(Schema.of(S=1), (("S", parse("exists y. R(x, y)", schema)),))
        image = view_pushforward(p, v)
        assert image.worlds == {
            Instance.empty(): 0.5,
            Instance([fact("S", 1)]): 0.5,
        }

    def test_boolean_view_collapses_to_nullary_fact(self):
        schema = Schema.of(R=2)
        p = FiniteDiscretePDB(
            schema,
            NAT,
            {Instance.empty(): 0.5, Instance([fact("R", 1, 2)]): 0.5},
        )
        v = View(Schema.of(S=0), (("S", parse("exists x. exists y. R(x, y)", schema)),))
        image = view_pushforward(p, v)
        assert image.worlds == {Instance.empty(): 0.5, Instance([Fact("S", ())]): 0.5}

    def test_infinite_answer_raises(self):
        p = FiniteDiscretePDB(S1, NAT, {Instance([fact("R", 1)]): 1.0})
        v = View(S1, (("R", parse("!R(x)", S1)),))
        with pytest.raises(ValueError, match="infinite answer"):
            view_pushforward(p, v)

    def test_pushforward_preserves_total_probability(self):
        rng = random.Random(9)
        schema = Schema.of(R=2)
        worlds = {}
        for mask in range(8):
            facts = [fact("R", i, i + 1) for i in range(3) if mask >> i & 1]
            worlds[Instance(facts)] = rng.random()
        total = sum(worlds.values())
        worlds = {d: w / total for d, w in worlds.items()}
        p = FiniteDiscretePDB(schema, NAT, worlds)
        v = View(Schema.of(S=1), (("S", parse("exists y. R(x, y)", schema)),))
        image = view_pushforward(p, v)
        assert sum(image.worlds.values()) == pytest.approx(1.0, abs=1e-12)

    def test_arity_consistency_enforced(self):
        with pytest.raises(ValueError):
            View(Schema.of(S=2), (("S", parse("R(x)", S1)),))
