import ast
import collections
import itertools
import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infpdb import approx
from infpdb.approx import (
    TruncationCertificate,
    approx_boolean,
    approx_nonboolean,
    choose_truncation,
    conditional_query_prob,
)
from infpdb.completion import complete
from infpdb.core import Fact, FiniteDiscretePDB, Instance, Schema, active_domain, facts_of
from infpdb.errors import WorldCapExceeded
from infpdb.fo import (
    And, Atom, Const, Exists, Forall, Fresh, Implies, Not, Or, Var, compile_sentence,
    eval_boolean, free_variables, groundings, parse, polarity,
)
from infpdb.independence import (
    BIDPdb,
    BlockPartition,
    EnumerationSupply,
    FactProbabilityAssignment,
    GeometricTail,
    bid_construct,
    table_space,
    ti_construct,
)
from infpdb.numerics import CompensatedAccumulator
from infpdb.oracle import enumerate_block_worlds, enumerate_worlds, exact_event_prob
from infpdb.record import Record
from infpdb.specio import load_spec
from infpdb.universe import FactEnumeration, Universe

from helpers import (
    atom_pins, constants, count_walk, naive_eval, quantifier_rank, random_sentence, reference_boolean_enclosure,
    requantify, substitute, world_walk,
)

NAT = Universe.naturals()
R1 = Schema.of(R=1)
S1 = Schema.of(S=1)
RS = Schema.of(R=1, S=1)
RS2 = Schema.of(R=2, S=1)
GOLDEN = Path(__file__).resolve().parent / "golden"


def fact(rel, *args):
    return Fact(rel, args)


def pure_tail_space(c=1.0, q=0.5):
    e = FactEnumeration(R1, NAT)
    return ti_construct(
        FactProbabilityAssignment((), GeometricTail(EnumerationSupply(e), c=c, q=q))
    )


class TestChooseTruncation:
    def test_no_tail(self):
        t = ti_construct(FactProbabilityAssignment(((fact("R", 1), 0.9),)))
        cert = choose_truncation(t, 0.1)
        assert cert == TruncationCertificate(n=1, alpha_n=0.0, tail_sum=0.0, epsilon=0.1)

    def test_geometric_tail_example(self):
        cert = choose_truncation(pure_tail_space(), 0.1)
        assert cert.n == 4
        assert cert.tail_sum == pytest.approx(2.0**-4, abs=1e-15)
        assert cert.alpha_n == pytest.approx(1.5 * 2.0**-4, abs=1e-15)

    def test_epsilon_out_of_range(self):
        t = pure_tail_space()
        with pytest.raises(ValueError):
            choose_truncation(t, 0.6)
        with pytest.raises(ValueError):
            choose_truncation(t, 0.0)

    def test_antitone_in_epsilon(self):
        t = pure_tail_space()
        ns = [choose_truncation(t, eps).n for eps in (0.2, 0.1, 0.05, 0.01)]
        assert ns == sorted(ns)

    def test_head_always_included(self):
        e = FactEnumeration(R1, NAT)
        head = tuple((fact("R", i), 0.9) for i in range(1, 4))
        tail = GeometricTail(EnumerationSupply(e, offset=3), c=1.0, q=0.5)
        t = ti_construct(FactProbabilityAssignment(head, tail))
        assert choose_truncation(t, 0.4).n >= 3

    def test_waits_for_probabilities_to_drop(self):
        # early tail facts above 1/2 must be included even if the mass
        # condition alone is already met
        t = pure_tail_space(c=1.6, q=0.5)  # p_1 = 0.8
        cert = choose_truncation(t, 0.45)
        assert cert.n >= 1
        first_beyond = 1.6 * 0.5 ** (cert.n + 1)
        assert first_beyond <= 0.5

    def test_certificate_conditions_hold(self):
        for eps in (0.2, 0.1, 0.05):
            cert = choose_truncation(pure_tail_space(), eps)
            assert math.exp(cert.alpha_n) <= 1 + eps + 1e-12
            assert math.exp(-cert.alpha_n) >= 1 - eps - 1e-12

    def test_truncation_event_dominates_exponential_bound(self):
        # the probability of seeing only the first n facts is the product of
        # (1 - p) beyond n, which stays above exp(-alpha_n)
        for q in (0.3, 0.5):
            t = pure_tail_space(q=q)
            for eps in (0.2, 0.1, 0.05):
                cert = choose_truncation(t, eps)
                truncation_event = 1.0
                for i in range(cert.n + 1, cert.n + 300):
                    truncation_event *= 1 - q**i
                assert truncation_event >= math.exp(-cert.alpha_n) - 1e-12


    def test_slow_tail_is_solved_without_listing(self, monkeypatch):
        t = pure_tail_space(c=0.001, q=0.99999)

        def no_walk(self):
            raise AssertionError("the tail was listed")

        monkeypatch.setattr(GeometricTail, "indexed_facts", no_walk)
        cert = choose_truncation(t, 0.1)
        assert cert.n == 736121
        assert 1.5 * cert.tail_sum <= math.log1p(0.1)
        assert t.tail.mass_after(cert.n - 1)[0] * 1.5 > math.log1p(0.1)


class TestConditionalQueryProb:
    def test_single_fact(self):
        t = ti_construct(FactProbabilityAssignment(((fact("R", 1), 0.5),)))
        q = parse("exists x. R(x)", R1)
        assert conditional_query_prob(t, q, 1, NAT) == pytest.approx(0.5, abs=1e-12)

    def test_two_facts_complement(self):
        t = ti_construct(
            FactProbabilityAssignment(((fact("R", 1), 0.8), (fact("R", 2), 0.4)))
        )
        q = parse("exists x. R(x)", R1)
        assert conditional_query_prob(t, q, 2, NAT) == pytest.approx(0.88, abs=1e-12)

    def test_universe_tautology(self):
        t = ti_construct(FactProbabilityAssignment(((fact("R", 1), 0.5),)))
        q = parse("exists x. exists y. !(x = y)", R1)
        assert conditional_query_prob(t, q, 1, NAT) == 1.0

    def test_free_variables_rejected(self):
        t = ti_construct(FactProbabilityAssignment(()))
        with pytest.raises(ValueError):
            conditional_query_prob(t, parse("R(x)", R1), 0, NAT)

    def test_world_cap(self):
        t = pure_tail_space()
        q = parse("exists x. R(x)", R1)
        with pytest.raises(WorldCapExceeded) as err:
            conditional_query_prob(t, q, 30, NAT, cap=25)
        assert err.value.required == 30

    def test_world_cap_counts_the_walks_branches(self):
        # a table's one exhaustive block of 2 worlds over 30 facts branches
        # twice: 1 bit, not 30
        q = parse("exists x. R(x)", R1)
        many = Instance(fact("R", i) for i in range(1, 31))
        table = table_space(FiniteDiscretePDB(R1, NAT, {Instance.empty(): 0.5, many: 0.5}))
        assert conditional_query_prob(table, q, 30, NAT, cap=1) == 0.5
        with pytest.raises(WorldCapExceeded) as err:
            conditional_query_prob(table, q, 30, NAT, cap=0)
        assert (err.value.required, err.value.cap) == (1, 0)
        # two BID blocks of 3 facts each branch 4 ways: 16 worlds, 4 bits of n = 6
        labels = {fact("R", i): i % 2 for i in range(1, 7)}
        head = tuple((g, 0.25) for g in labels)
        bid = bid_construct(BlockPartition.explicit_blocks(labels), FactProbabilityAssignment(head))
        with pytest.raises(WorldCapExceeded) as err:
            conditional_query_prob(bid, q, 6, NAT, cap=3)
        assert err.value.required == 4

    def test_world_cap_env_override(self, monkeypatch, tmp_path, capsys):
        # only the command line reads the environment; it passes the cap on
        from infpdb import cli

        monkeypatch.setenv("PDB_WORLD_CAP", "31")
        caps, boolean = [], approx.approx_boolean
        monkeypatch.setattr(approx, "approx_boolean", lambda *a, cap: caps.append(cap) or boolean(*a, cap=cap))
        spec = {"kind": "ti", "schema": {"R": 1}, "universe": {"kind": "naturals"},
                "head_facts": [{"relation": "R", "args": [1], "p": "0.5"}]}
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        (tmp_path / "query.txt").write_text("exists x. R(x)")
        argv = ["query", str(tmp_path / "spec.json"), "--query", str(tmp_path / "query.txt"), "--epsilon", "0.1"]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.startswith("probability = 0.500000 ")
        assert caps == [31]

    def test_matches_oracle_exactly_without_tail(self):
        # facts of a relation the sentence does not mention are summed out
        rng = random.Random(71)
        for _ in range(30):
            head = tuple(
                (fact(rng.choice("RS"), i), rng.random()) for i in range(1, rng.randint(2, 10))
            )
            t = ti_construct(FactProbabilityAssignment(head))
            worlds = enumerate_worlds(list(head))
            for schema in (R1, S1, RS):
                sentence = random_sentence(rng, schema, max_rank=2)
                engine = conditional_query_prob(t, sentence, len(head), NAT)
                oracle = exact_event_prob(
                    worlds, lambda d: eval_boolean(d, sentence, NAT)
                )
                assert abs(engine - oracle) <= 1e-10

    def test_enumerates_only_mentioned_facts(self, monkeypatch):
        head = ((fact("S", 0), 0.3),) + tuple((fact("R", i), 0.5) for i in range(1, 21))
        t = ti_construct(FactProbabilityAssignment(head))
        walked = count_walk(monkeypatch, approx)
        p = conditional_query_prob(t, parse("exists x. S(x)", RS), 21, NAT, cap=21)
        assert p == pytest.approx(0.3, abs=1e-12)
        assert len(walked) <= 2


class TestApproxBoolean:
    def test_head_only_is_exact(self):
        head = tuple((fact("R", i), p) for i, p in enumerate((0.8, 0.4), 1))
        t = ti_construct(FactProbabilityAssignment(head))
        q = parse("exists x. R(x)", R1)
        for eps in (0.4, 0.1, 0.01):
            p, cert = approx_boolean(t, q, eps, NAT)
            assert p == pytest.approx(0.88, abs=1e-12)
            assert cert.alpha_n == 0.0

    def test_sure_facts_past_the_recursion_limit(self):
        # 1,200 facts of probability 1 are one world, however deep the blocks go
        t = ti_construct(FactProbabilityAssignment(tuple((fact("S", i), 1.0) for i in range(1_200))))
        p, cert = approx_boolean(t, parse("exists x. S(x)", S1), 0.1, NAT, cap=2_000)
        assert p == 1.0 and cert.n == 1_200

    def test_contradiction_is_zero(self):
        t = pure_tail_space()
        q = parse("exists x. (R(x) & !R(x))", R1)
        p, _ = approx_boolean(t, q, 0.2, NAT)
        assert p == 0.0

    def test_tautology_close_to_one(self):
        t = pure_tail_space()
        q = parse("forall x. (R(x) -> R(x))", R1)
        for eps in (0.2, 0.05):
            p, _ = approx_boolean(t, q, eps, NAT)
            assert p >= 1 - eps

    def test_mixed_head_tail_reference_value(self):
        # head R(1): 0.5 plus tail R(i): 2**-i for i >= 2; the true value of
        # exists x. R(x) is 1 - 0.5 * prod_{i>=2}(1 - 2**-i)
        e = FactEnumeration(R1, NAT)
        head = ((fact("R", 1), 0.5),)
        tail = GeometricTail(EnumerationSupply(e, offset=1), c=1.0, q=0.5)
        t = ti_construct(FactProbabilityAssignment(head, tail))
        assert t.total_mass == pytest.approx(1.0, abs=1e-12)
        truth = 1.0
        for i in range(2, 200):
            truth *= 1 - 0.5**i
        truth = 1 - 0.5 * truth
        assert truth == pytest.approx(0.711212, abs=1e-6)
        p, cert = approx_boolean(t, parse("exists x. R(x)", R1), 0.01, NAT)
        assert abs(p - truth) <= 0.01

    def test_reference_enclosure_agrees_on_mixed_space(self):
        e = FactEnumeration(RS, NAT)
        head = ((fact("R", 1), 0.5), (fact("S", 2), 0.7))
        tail = GeometricTail(EnumerationSupply(e, offset=4), c=1.0, q=0.5)
        t = ti_construct(FactProbabilityAssignment(head, tail))
        q = parse("exists x. (R(x) | S(x))", RS)
        lo, hi = reference_boolean_enclosure(t, q, NAT)
        assert hi - lo < 1e-6
        p, _ = approx_boolean(t, q, 0.05, NAT)
        assert lo - 0.05 <= p <= hi + 0.05


class TestApproxNonBoolean:
    def test_head_only_marginal(self):
        t = ti_construct(FactProbabilityAssignment(((fact("R", 1), 0.8),)))
        table = approx_nonboolean(t, parse("R(x)", R1), 0.1, NAT)
        assert table[(1,)] == pytest.approx(0.8, abs=1e-12)

    def test_two_fact_marginals(self):
        head = ((fact("R", 1), 0.8), (fact("R", 2), 0.4))
        t = ti_construct(FactProbabilityAssignment(head))
        table = approx_nonboolean(t, parse("R(x)", R1), 0.1, NAT)
        assert table[(1,)] == pytest.approx(0.8, abs=1e-12)
        assert table[(2,)] == pytest.approx(0.4, abs=1e-12)

    def test_negated_marginal_has_no_infinite_answer(self):
        head = ((fact("R", 1), 0.8), (fact("R", 2), 0.4))
        t = ti_construct(FactProbabilityAssignment(head))
        table = approx_nonboolean(t, parse("!R(x)", R1), 0.1, NAT)
        assert table[(1,)] == pytest.approx(0.2, abs=1e-12)
        assert table[(2,)] == pytest.approx(0.6, abs=1e-12)

    def test_sentences_rejected(self):
        t = ti_construct(FactProbabilityAssignment(()))
        with pytest.raises(ValueError):
            approx_nonboolean(t, parse("exists x. R(x)", R1), 0.1, NAT)

    def test_world_cap_checked_before_listing(self, monkeypatch):
        t = pure_tail_space(c=0.001, q=0.99999)

        def no_listing(self):
            raise AssertionError("facts were listed before the cap check")

        monkeypatch.setattr(GeometricTail, "indexed_facts", no_listing)
        with pytest.raises(WorldCapExceeded) as err:
            approx_nonboolean(t, parse("R(x)", R1), 0.1, NAT, cap=20)
        assert err.value.required == 736121

    @pytest.mark.parametrize("text", [
        "R(x) & !S(x)",
        "S(x) | exists y. (R(y) & !(x = y))",
        "forall y. (S(y) -> R(x) & !(x = y))",
    ])
    def test_matches_oracle_per_tuple_without_tail(self, text):
        rng = random.Random(text)
        facts = rng.sample([fact(r, i) for r in "RS" for i in range(1, 6)], 8)
        head = tuple((g, rng.random()) for g in facts)
        t = ti_construct(FactProbabilityAssignment(head))
        f = parse(text, RS)
        table = approx_nonboolean(t, f, 0.1, NAT)
        assert {k for k in table if Fresh(1) not in k} == {(e,) for e in {g.args[0] for g, _ in head}}
        worlds = enumerate_worlds(list(head))
        for (e,), engine in table.items():
            grounded = substitute(f, {"x": 99 if e == Fresh(1) else e})
            oracle = exact_event_prob(worlds, lambda d: eval_boolean(d, grounded, NAT))
            assert abs(engine - oracle) <= 1e-10

    def test_one_listing_serves_every_tuple(self, monkeypatch):
        listings = []
        original = approx._truncated_blocks
        monkeypatch.setattr(
            approx, "_truncated_blocks", lambda t, n, cap: listings.append(n) or original(t, n, cap)
        )
        head = tuple((fact("R", i), 0.5) for i in range(1, 6))
        t = ti_construct(FactProbabilityAssignment(head))
        table = approx_nonboolean(t, parse("R(x)", R1), 0.1, NAT)
        assert len(table) == 5
        assert listings == [5]

    def test_candidates_cover_formula_constants(self):
        t = ti_construct(FactProbabilityAssignment(((fact("R", 1), 0.8),)))
        table = approx_nonboolean(t, parse("R(x) | x = 7", R1), 0.1, NAT)
        assert table[(7,)] == pytest.approx(1.0, abs=1e-12)


class TestSandwichProperty:
    @pytest.mark.parametrize("eps", [0.2, 0.1, 0.05])
    def test_pseudo_tail_approximation_error(self, eps):
        # move the last facts of a head-only space into a pseudo-tail and
        # compare against the exact brute-force probability over all facts
        rng = random.Random(int(eps * 1000))
        for _ in range(20):
            n = rng.randint(2, 10)
            probs = [rng.random() for _ in range(n)]
            head_facts = tuple((fact("R", i + 1), probs[i]) for i in range(n))
            exact_space = ti_construct(FactProbabilityAssignment(head_facts))
            sentence = random_sentence(rng, R1, max_rank=2, constant_pool=(1, 2, n))
            exact = conditional_query_prob(exact_space, sentence, n, NAT)
            # pseudo-tail: drop the last m facts and account for their mass
            m = rng.randint(1, n - 1)
            kept = head_facts[: n - m]
            dropped_mass = math.fsum(p for _, p in head_facts[n - m :])
            truncated = ti_construct(FactProbabilityAssignment(kept))
            conditioned = conditional_query_prob(truncated, sentence, n - m, NAT)
            # valid only when the dropped block satisfies the certificate
            if all(p <= 0.5 for _, p in head_facts[n - m :]) and math.exp(
                1.5 * dropped_mass
            ) <= 1 + eps and math.exp(-1.5 * dropped_mass) >= 1 - eps:
                assert abs(conditioned - exact) <= eps


def _block_outcome_probs(blocks, sentences):
    """Probability of each sentence by listing every combination of block
    outcomes: "no fact", weighted 1 minus the block's mass, or one fact.
    Weights are plain products and the sums plain additions."""
    outcomes = [[(None, 1.0 - sum(p for _, p in block))] + list(block) for block in blocks]
    totals = [0.0] * len(sentences)
    for world in itertools.product(*outcomes):
        weight = 1.0
        for _, p in world:
            weight *= p
        d = Instance([g for g, _ in world if g is not None])
        for i, s in enumerate(sentences):
            if eval_boolean(d, s, NAT):
                totals[i] += weight
    return totals


def _lift(node, c, var="x"):
    """``node`` with every constant ``c`` replaced by the free variable ``var``."""
    if node == Const(c):
        return Var(var)
    if isinstance(node, tuple):
        return tuple(_lift(part, c, var) for part in node)
    if isinstance(node, Record):
        return type(node)(*(_lift(getattr(node, name), c, var) for name in node._fields))
    return node


def random_bid_space(rng):
    """A head-only BID space over R/1 and S/1 with explicit blocks, at
    least one of which holds two or more facts."""
    facts = rng.sample([fact(r, i) for r in "RS" for i in (1, 2, 3)], rng.randint(2, 6))
    labels = {g: f"b{rng.randint(0, len(facts) // 2)}" for g in facts}
    labels[facts[1]] = labels[facts[0]]
    head = []
    for label in sorted(set(labels.values())):
        members = [g for g in facts if labels[g] == label]
        weights = [rng.random() + 0.01 for _ in members]
        mass = rng.choice([1.0, rng.random()])
        head += [(g, mass * w / sum(weights)) for g, w in zip(members, weights)]
    b = bid_construct(BlockPartition.explicit_blocks(labels), FactProbabilityAssignment(tuple(head)))
    return b, [tuple((g, p) for (g,), p in block) for block in b.blocks.values()]


class TestBlockWalk:
    def test_matches_block_outcome_enumeration(self):
        rng = random.Random(9)
        for _ in range(120):
            b, blocks = random_bid_space(rng)
            assert max(map(len, blocks)) >= 2
            sentence = random_sentence(rng, RS, max_rank=2)
            [want] = _block_outcome_probs(blocks, [sentence])
            assert abs(conditional_query_prob(b, sentence, len(b.head), NAT) - want) <= 1e-12
            c = rng.choice((1, 2, 3))
            # an open query: the sentence with constant c made the free x
            shape = rng.choice([And(Atom(rng.choice("RS"), (Const(c),)), sentence), Not(sentence)])
            open_query = Or(_lift(shape, c), Atom(rng.choice("RS"), (Var("x"),)))
            table = approx_nonboolean(b, open_query, 0.1, NAT)
            elements = {g.args[0] for block in blocks for g, _ in block} | constants(open_query)
            assert {k for k in table if Fresh(1) not in k} == {(e,) for e in elements}
            # the pattern row (*1), if listed, stands for any element outside them
            wants = _block_outcome_probs(
                blocks, [substitute(open_query, {"x": 99 if e == Fresh(1) else e}) for e, in table]
            )
            for combo, want in zip(table, wants):
                assert abs(table[combo] - want) <= 1e-12

    def test_golden_bid_queries_match_block_outcome_enumeration(self):
        doc = load_spec(GOLDEN / "bid.json")
        b = doc.space()
        sentence = parse((GOLDEN / "query.txt").read_text(), doc.schema)
        open_query = parse((GOLDEN / "open_query.txt").read_text(), doc.schema)
        # the head blocks whole, then the tail facts up to the certified n
        n = choose_truncation(b, 0.1).n
        tail = itertools.islice(b.tail.indexed_facts(), n - len(b.head))
        blocks = [*(tuple((g, p) for (g,), p in block) for block in b.blocks.values()), *(((g, p),) for _, g, p in tail)]
        printed = (GOLDEN / "bid.query.out").read_text().splitlines()[0]
        [want] = _block_outcome_probs(blocks, [sentence])
        assert printed == f"probability = {want:.6f} (additive error <= 0.1)"
        rows = [line.split("\t") for line in (GOLDEN / "bid.open_query.out").read_text().splitlines()[:-1]]
        elements = [ast.literal_eval(key) for key, _ in rows]  # "(1)" is 1, "('1')" is '1'
        wants = _block_outcome_probs(blocks, [substitute(open_query, {"x": e}) for e in elements])
        assert [value for _, value in rows] == [f"{w:.6f}" for w in wants]


# R(5), R(6), R(7), ... at 12.8 * 0.5**i: eps 0.2 keeps R(5) to R(7)
TAIL_C, TAIL_Q, TAIL_OFFSET = 12.8, 0.5, 4


def _tail():
    supply = EnumerationSupply(FactEnumeration(RS, NAT), relation="R", offset=TAIL_OFFSET)
    return GeometricTail(supply, c=TAIL_C, q=TAIL_Q)


def _reference_tail(k):
    """The first k tail facts as singleton blocks, from the rule's data."""
    return [[((fact("R", i),), TAIL_C * TAIL_Q**i)] for i in range(TAIL_OFFSET + 1, TAIL_OFFSET + 1 + k)]


def _random_head(rng, bid):
    """Head facts over R/1 and S/1 on elements 1-4, their block labels, and
    the reference blocks of (facts, p) outcomes built from the same draws."""
    facts = rng.sample([fact(r, i) for r in "RS" for i in (1, 2, 3, 4)], rng.randint(1, 4))
    labels = {g: f"b{rng.randint(0, len(facts) // 2)}" if bid else str(g) for g in facts}
    head, blocks = [], []
    for label in sorted(set(labels.values())):
        members = [g for g in facts if labels[g] == label]
        weights = [rng.random() + 0.01 for _ in members]
        mass = rng.choice([1.0, rng.uniform(0.05, 1.0)])
        outcomes = [(g, mass * w / sum(weights)) for g, w in zip(members, weights)]
        head += outcomes
        blocks.append([((g,), p) for g, p in outcomes])
    return tuple(head), labels, blocks


def _random_space(rng, bid, with_tail):
    head, labels, blocks = _random_head(rng, bid)
    assignment = FactProbabilityAssignment(head, _tail() if with_tail else None)
    space = bid_construct(BlockPartition.explicit_blocks(labels), assignment) if bid else ti_construct(assignment)
    return space, blocks


def _random_open_query(rng, k):
    """An open query in x (and y) with at least one negation."""
    f = _lift(random_sentence(rng, RS, max_rank=2, constant_pool=(1, 2, 7)), 1, "x")
    f = _lift(f, 2, "y") if k == 2 else f
    for i, v in enumerate(["x", "y"][:k]):
        atom = Atom(rng.choice("RS"), (Var(v),))
        f = rng.choice([And, Or])(f, Not(atom) if i == 0 or rng.random() < 0.5 else atom)
    return Not(f) if rng.random() < 0.3 else f


def _pattern_of(combo, candidates):
    """The key of a tuple: elements outside the candidates become Fresh(j) in first-use order."""
    names = {}
    return tuple(e if e in candidates else names.setdefault(e, Fresh(len(names) + 1)) for e in combo)


class TestOpenQueryPatterns:
    EPS = 0.2

    def test_every_tuple_matches_its_grounded_sentence(self):
        rng = random.Random(11)
        for case in range(40):
            bid, with_tail, k = case % 2 == 1, case % 4 >= 2, 1 + (case % 8 >= 4)
            space, blocks = _random_space(rng, bid, with_tail)
            f = _random_open_query(rng, k)
            free = free_variables(f)
            table = approx_nonboolean(space, f, self.EPS, NAT)
            n = choose_truncation(space, self.EPS).n
            candidates = {e for key in table for e in key if not isinstance(e, Fresh)}
            assert {key for key in table if not any(isinstance(e, Fresh) for e in key)} == set(
                itertools.product(sorted(candidates), repeat=k)
            )
            outside = [500, 501]
            assert not candidates & set(outside)
            # every listed row, its fresh positions put on elements the engine did not pick
            tuples = [tuple(outside[e.index - 1] if isinstance(e, Fresh) else e for e in key) for key in table]
            assert [_pattern_of(combo, candidates) for combo in tuples] == list(table)
            # and sampled tuples with elements outside the candidates: all of them, and mixed
            tuples += [tuple(rng.choice(outside) for _ in free) for _ in range(2)]
            tuples += [tuple(rng.choice([*candidates, *outside]) for _ in free) for _ in range(3)]
            sentences = [substitute(f, dict(zip(free, combo))) for combo in tuples]
            for combo, sentence in zip(tuples, sentences):
                want, cert = approx_boolean(space, sentence, self.EPS, NAT)
                assert cert.n == n
                assert abs(table.get(_pattern_of(combo, candidates), 0.0) - want) <= 1e-12, (f, combo)
            if not with_tail:
                wants = _block_outcome_probs([[(g, p) for (g,), p in block] for block in blocks], sentences)
                for combo, want in zip(tuples, wants):
                    assert abs(table.get(_pattern_of(combo, candidates), 0.0) - want) <= 1e-12, (f, combo)

    def test_keys_are_the_groundings_keys(self):
        """Every tuple of candidates, then each pattern with a fresh element
        whose value is not 0, in the order :func:`fo.groundings` yields them."""
        rng = random.Random(17)
        for case in range(24):
            bid, with_tail, k = case % 2 == 1, case % 4 >= 2, 1 + (case % 8 >= 4)
            space, _ = _random_space(rng, bid, with_tail)
            f = _random_open_query(rng, k)
            table = approx_nonboolean(space, f, self.EPS, NAT)
            n = choose_truncation(space, self.EPS).n
            blocks = approx._truncated_blocks(space, n)
            elements = {e for block in blocks for facts, _ in block for g in facts for e in g.args}
            free = free_variables(f)
            keys = [
                key for key, values in groundings(f, elements, NAT)
                if not any(isinstance(e, Fresh) for e in key)
                or conditional_query_prob(space, substitute(f, dict(zip(free, values))), n, NAT) > 0.0
            ]
            assert list(table) == keys, f

    def test_zero_patterns_keep_the_candidate_rows(self):
        space, _ = _random_space(random.Random(3), bid=False, with_tail=True)
        table = approx_nonboolean(space, parse("R(x) & exists y. S(y)", RS), self.EPS, NAT)
        assert all(not isinstance(e, Fresh) for key in table for e in key)


def _random_table(rng, closed):
    """A world table over R/1 and S/1: every subset of up to 3 facts when
    closed, else a few distinct instances; its one reference block of
    non-empty worlds comes from the same draws."""
    facts = rng.sample([fact(r, i) for r in "RS" for i in (1, 2, 3)], rng.randint(1, 3))
    subsets = [Instance(c) for r in range(len(facts) + 1) for c in itertools.combinations(facts, r)]
    worlds = subsets if closed else rng.sample(subsets, rng.randint(1, len(subsets)))
    weights = [rng.random() + 0.01 for _ in worlds]
    table = {d: w / sum(weights) for d, w in zip(worlds, weights)}
    return FiniteDiscretePDB(RS, NAT, table), [(d.facts, p) for d, p in table.items() if d]


class TestEveryKindWalk:
    """The walk on finite, completion and head-only BID spaces against the
    oracle's block enumeration of blocks built from the drawn data."""

    def _check(self, space, blocks, rng, eps):
        n = choose_truncation(space, eps).n
        worlds = enumerate_block_worlds(blocks)
        for _ in range(4):
            sentence = random_sentence(rng, RS, max_rank=2, constant_pool=(1, 2, 5))
            want = exact_event_prob(worlds, lambda d: eval_boolean(d, sentence, NAT))
            assert abs(conditional_query_prob(space, sentence, n, NAT) - want) <= 1e-12, sentence

    def test_finite(self):
        rng = random.Random(5)
        for _ in range(30):
            table, block = _random_table(rng, closed=False)
            self._check(table_space(table), [block], rng, 0.1)

    def test_completion_with_tail(self):
        rng = random.Random(6)
        for _ in range(20):
            table, block = _random_table(rng, closed=True)
            head = tuple((fact("S", i), rng.random() * 0.9) for i in rng.sample((4, 5, 6), rng.randint(0, 2)))
            space = complete(table, FactProbabilityAssignment(head, _tail()))
            h = len(facts_of(table)) + len(head)
            k = choose_truncation(space, 0.2).n - h
            blocks = [block, *([((g,), p)] for g, p in head), *_reference_tail(k)]
            self._check(space, blocks, rng, 0.2)

    def test_head_only_bid(self):
        rng = random.Random(7)
        for _ in range(30):
            space, blocks = _random_space(rng, bid=True, with_tail=False)
            self._check(space, blocks, rng, 0.1)


def _outcomes(rng, members):
    """Disjoint outcomes of one block: a total mass of 1 or less, split at random."""
    weights = [rng.random() + 0.01 for _ in members]
    mass = rng.choice([1.0, rng.uniform(0.05, 1.0)])
    return [(m, mass * w / sum(weights)) for m, w in zip(members, weights)]


def _random_block_list(rng, schema, kind):
    """Head-only blocks of (facts, p) outcomes of one space kind, over at
    most 10 distinct facts of the schema on elements 1-4."""
    pool = [Fact(r, args) for r, arity in schema.relations for args in itertools.product((1, 2, 3, 4), repeat=arity)]
    facts = rng.sample(pool, rng.randint(1, min(10, len(pool))))
    table = facts if kind == "finite" else facts[: rng.randint(1, 3)] if kind == "completion" else []
    blocks = []
    if table:
        worlds = {frozenset(rng.sample(table, rng.randint(1, len(table)))) for _ in range(rng.randint(1, 6))}
        blocks.append(_outcomes(rng, [tuple(w) for w in worlds]))
    rest = facts[len(table):]
    labels = [rng.randint(0, len(rest) // 2) if kind != "ti" else i for i, _ in enumerate(rest)]
    for label in sorted(set(labels)):
        blocks.append(_outcomes(rng, [(g,) for g, b in zip(rest, labels) if b == label]))
    return blocks


class TestPatternCut:
    """The walk cuts each sentence's blocks down to the facts its atoms can match."""

    @given(st.randoms(use_true_random=True), st.sampled_from(["ti", "bid", "finite", "completion"]))
    @settings(max_examples=120, derandomize=True, deadline=None)
    def test_walk_is_exact_per_sentence(self, rng, kind):
        schema = rng.choice([Schema.of(R=1, S=1), Schema.of(R=2, S=1)])
        blocks = _random_block_list(rng, schema, kind)
        sentences = [random_sentence(rng, schema, max_rank=2, constant_pool=(1, 2, 3, 5)) for _ in range(3)]
        # an open query grounded on elements of the facts and on fresh ones
        c = rng.choice((1, 2, 3, 5))
        open_query = And(_lift(sentences[0], c), Atom("S", (Var("x"),)))
        sentences += [substitute(open_query, {"x": e}) for e in (1, 2, 3, 4, 7, 8)]
        worlds = enumerate_block_worlds(blocks)
        for f in sentences:
            bind = compile_sentence(f)
            want = exact_event_prob(worlds, lambda d: eval_boolean(d, f, NAT, compiled=bind(d.tuples_of)))
            assert abs(world_walk(blocks, f, NAT) - want) <= 1e-12, (kind, f)

    # R(1, 2), R(1, 3), R(2, 3) and S(1)
    HEAD = ((fact("R", 1, 2), 0.5), (fact("R", 1, 3), 0.4), (fact("R", 2, 3), 0.7), (fact("S", 1), 0.6))

    def test_open_query_walks_only_the_facts_each_tuple_matches(self, monkeypatch):
        schema = Schema.of(R=2, S=1)
        t = ti_construct(FactProbabilityAssignment(self.HEAD))
        walked = count_walk(monkeypatch, approx)
        table = approx_nonboolean(t, parse("exists y. R(x, y)", schema), 0.1, NAT)
        assert table == pytest.approx({(1,): 0.7, (2,): 0.7, (3,): 0.0})
        # x = 1 walks R(1, 2) and R(1, 3), x = 2 walks R(2, 3), and x = 3 and
        # the pattern (*1) walk one empty world each; the sentence is
        # monotone, so x = 1's world {R(1, 2)} settles {R(1, 2), R(1, 3)}:
        # 3 + 2 + 1 + 1 worlds, where every tuple and the pattern walked all
        # 2**3 R worlds before the cut
        assert len(walked) == 3 + 2 + 1 + 1

    def test_open_query_of_mixed_polarity_walks_every_world_of_its_facts(self, monkeypatch):
        # "exactly one R(x, .)" cuts as exists y. R(x, y) does, and it is
        # neither monotone nor antimonotone, so no world settles another:
        # 4 + 2 + 1 + 1 worlds
        schema = Schema.of(R=2, S=1)
        t = ti_construct(FactProbabilityAssignment(self.HEAD))
        walked = count_walk(monkeypatch, approx)
        table = approx_nonboolean(t, parse("exists y. R(x, y) & forall z. (R(x, z) -> z = y)", schema), 0.1, NAT)
        assert table == pytest.approx({(1,): 0.5, (2,): 0.7, (3,): 0.0})
        assert len(walked) == 4 + 2 + 1 + 1

    def test_oracle_compare_walks_each_ground_atom_on_two_worlds(self, monkeypatch, tmp_path, capsys):
        from infpdb import cli

        spec = {
            "kind": "ti", "schema": {"R": 2, "S": 1}, "universe": {"kind": "naturals"},
            "head_facts": [
                {"relation": g.relation, "args": list(g.args), "p": str(p)} for g, p in self.HEAD
            ],
        }
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        (tmp_path / "query.txt").write_text((GOLDEN / "query.txt").read_text())
        calls = count_walk(monkeypatch, approx)
        assert cli.main(["oracle-compare", str(tmp_path / "spec.json"), "--query", str(tmp_path / "query.txt")]) == 0
        capsys.readouterr()
        ground = [f for f in calls if isinstance(f, Atom)]
        assert len(ground) == 4 * 2
        assert {f: ground.count(f) for f in ground} == {
            Atom(g.relation, tuple(map(Const, g.args))): 2 for g, _ in self.HEAD
        }


def _space(rng, kind):
    """A space over R/2 and S/1 on elements 1-4: head-only TI, BID keyed by
    R's first argument, one world table, or a closed table completed by
    S(5) at times and a tail of S facts from S(6) on."""
    pool = [fact("R", a, b) for a in (1, 2, 3, 4) for b in (1, 2, 3, 4)] + [fact("S", a) for a in (1, 2, 3, 4)]
    if kind == "completion":
        facts = rng.sample(pool, rng.randint(1, 3))
        subsets = [Instance(c) for r in range(len(facts) + 1) for c in itertools.combinations(facts, r)]
        weights = [rng.random() + 0.01 for _ in subsets]
        table = FiniteDiscretePDB(RS2, NAT, {d: w / sum(weights) for d, w in zip(subsets, weights)})
        head = ((fact("S", 5), rng.uniform(0.05, 0.9)),) * rng.randint(0, 1)
        tail = GeometricTail(EnumerationSupply(FactEnumeration(RS2, NAT), relation="S", offset=5), c=TAIL_C, q=TAIL_Q)
        return complete(table, FactProbabilityAssignment(head, tail))
    facts = rng.sample(pool, rng.randint(1, 7))
    if kind == "ti":
        return ti_construct(FactProbabilityAssignment(tuple((g, rng.uniform(0.05, 0.95)) for g in facts)))
    if kind == "bid":
        keys = {g: g.args[0] if g.relation == "R" else g for g in facts}
        head = []
        for key in dict.fromkeys(keys.values()):
            head += _outcomes(rng, [g for g in facts if keys[g] == key])
        return bid_construct(BlockPartition.by_keys(R=1), FactProbabilityAssignment(tuple(head)))
    worlds = {frozenset(rng.sample(facts, rng.randint(0, len(facts)))) for _ in range(rng.randint(1, 6))}
    weights = [rng.random() + 0.01 for _ in worlds]
    table = {Instance(w): x / sum(weights) for w, x in zip(worlds, weights)}
    return table_space(FiniteDiscretePDB(RS2, NAT, table))


def _space_blocks(rng, kind):
    """The blocks of a head-only :func:`_space`."""
    return list(_space(rng, kind).blocks.values())


def _per_world_walk(blocks, sentences, u):
    """Each sentence's probability, with a sorted Instance per world on which
    eval_boolean analyses the sentence and builds its own domain; the naive
    evaluator, which binds each variable in a fresh dict, must agree on
    every world.  The cut of the blocks, the order of the worlds and the
    order of the products and sums are those of the walk without settling,
    so the values agree bit for bit with a walk that visits every world."""
    values = []
    for f in sentences:
        acc = CompensatedAccumulator()
        kept = approx._cut(blocks, atom_pins(f))
        choices = [[((), none)] * (none > 0.0) + list(outcomes) for outcomes, none, _ in kept]
        taken = constants(f)
        for world in itertools.product(*choices):
            weight, chosen = 1.0, ()
            for facts, p in world:
                weight, chosen = weight * p, chosen + facts
            d = Instance(chosen)
            truth = eval_boolean(d, f, u)
            domain = active_domain(d) | taken
            assert naive_eval(f, d, [*domain, *u.fresh_elements(domain, quantifier_rank(f))]) == truth, (f, d)
            if truth:
                acc.add(weight)
        values.append(min(max(acc.value, 0.0), 1.0))
    return values


def _assert_per_world(blocks, sentences, values):
    """``values``, the walk's, against :func:`_per_world_walk`: equal for a
    sentence of mixed polarity, which the walk never settles; within
    ``(len(blocks) + 1) * 2**-52`` for a monotone or antimonotone one.
    Settling adds a subtree's weight as one product, its prefix weight
    times the kept mass, where each world's weight below is a product of
    at most ``len(blocks)`` rounded factors, and a block's "no outcome"
    weight plus its kept mass is 1 within half an ulp."""
    for f, got, want in zip(sentences, values, _per_world_walk(blocks, sentences, NAT), strict=True):
        if any(polarity(f)):
            assert abs(got - want) <= (len(blocks) + 1) * 2**-52, f
        else:
            assert got == want, f


class TestSharedPoolWalk:
    """A walk that analyses its sentence and picks its generics once, and
    reads every world through one set of tuples per relation changed in
    place, gives the value that an Instance per world gives."""

    @given(st.randoms(use_true_random=True), st.sampled_from(["ti", "bid", "table"]))
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_matches_per_world_evaluation_bit_for_bit(self, rng, kind):
        blocks = _space_blocks(rng, kind)
        names = collections.defaultdict(lambda: rng.choice("xy"))
        sentences = [
            requantify(random_sentence(rng, RS2, max_rank=rank, constant_pool=(1, 2, 5)), names)
            for rank in (rng.randint(0, 2), rng.randint(0, 3), rng.randint(0, 3))
        ]
        # x is read after a subformula that may quantify x again
        connective, quantifier = rng.choice([And, Or, Implies]), rng.choice([Exists, Forall])
        sentences.append(quantifier("x", connective(sentences[0], Atom("S", (Var("x"),)))))
        # a negation and a disjunction cut the blocks as their operands do
        sentences += [Not(sentences[0]), Or(sentences[0], sentences[1])]
        _assert_per_world(blocks, sentences, [world_walk(blocks, f, NAT) for f in sentences])

    R12, R13, R21, R34, S1, S2, S3 = (
        fact("R", 1, 2), fact("R", 1, 3), fact("R", 2, 1), fact("R", 3, 4), fact("S", 1), fact("S", 2), fact("S", 3),
    )
    # the walk adds and removes facts in place; each case leaves a world
    # right after a fact that shares an element, a set or a constant with it
    CASES = {
        # element 1 is held by S(1) in one block and by R(1, .) in the next
        "element in two blocks": [[((S1,), 0.6)], [((R12,), 0.3), ((R34,), 0.5)], [((S3,), 0.5)]],
        "element in two blocks, reversed": [[((R12,), 0.3), ((R13,), 0.4)], [((S1,), 0.2), ((S3,), 0.3)]],
        # worlds of one table that share R(1, 2) and S(1)
        "table": list(table_space(FiniteDiscretePDB(RS2, NAT, {
            Instance([R12]): 0.2, Instance([R12, S1]): 0.3, Instance([S1, R34]): 0.1, Instance([R12, S1, R21]): 0.25,
            Instance([]): 0.15,
        })).blocks.values()),
        # no S fact at all, so every sentence's S set stays empty
        "no fact of a named relation": [[((R12,), 0.5)], [((R21,), 0.25), ((R34,), 0.5)]],
        # the constants 1 and 2 are also elements of the facts
        "constant is a fact element": [[((R12,), 0.5), ((R21,), 0.4)], [((S1,), 0.7)], [((S2,), 0.1)]],
        # elements 3 and 4 occur only in R(3, 4), which the worlds of S(2) and
        # of no outcome lack: there they are in the domain, in no fact
        "element only in an outcome the world lacks": [[((R34,), 0.3), ((S2,), 0.5)], [((S1,), 0.6)],
                                                       [((R12,), 0.5)]],
        # S(1) and R(3, 4) are sure: they join every world from the start
        "sure blocks": [[((S1,), 1.0)], [((R12,), 0.3), ((R13,), 0.6)], [((R34,), 1.0)], [((S3,), 0.5)],
                        [((R21,), 0.5), ((S2,), 0.5)]],
    }
    SENTENCES = [
        "exists x. S(x)",
        "exists x. exists y. R(x, y) & !S(x)",
        "forall x. (S(x) -> exists y. R(x, y))",
        "forall x. (x = 5 -> S(x))",
        "exists x. (x = 1 & !S(x))",
        "exists x. (!(x = 2) & forall y. !R(y, x))",
        "forall x. forall y. (R(x, y) -> S(x) | S(y))",
        "S(1) | R(1, 2)",
        "exists x. R(x, 1) & !R(1, x)",
    ]

    @pytest.mark.parametrize("branching", [0, 1, 5])
    def test_one_pool_per_walk(self, monkeypatch, branching):
        # one walk_pool call, whatever the world count; each world's domain
        # is the constant 1, that world's elements and the one generic
        pools, domains, pool, evaluate = [], [], approx.walk_pool, approx.eval_boolean
        monkeypatch.setattr(approx, "walk_pool", lambda *a: pools.append(a) or pool(*a))
        monkeypatch.setattr(approx, "eval_boolean", lambda *a, **kw: domains.append(kw["domain"]) or evaluate(*a, **kw))
        blocks = [[((fact("S", i),), 0.5)] for i in range(1, branching + 1)]
        assert world_walk(blocks, parse("exists x. S(x) & x = 1", RS2), NAT) == (0.5 if branching else 0.0)
        # the sentence is monotone: the walk visits every world of the facts
        # after S(1) without S(1), all false, then S(1)'s first world {S(1)},
        # which is true and settles every world that holds S(1)
        worlds = [{1, *w} for k in range(branching) for w in itertools.combinations(range(2, branching + 1), k)]
        worlds.append({1})
        assert len(pools) == 1 and sorted(map(sorted, worlds)) == sorted(sorted(d[:-1]) for d in domains)
        assert all(d[0] == 1 and d[-1] == max(branching, 1) + 1 for d in domains)

    def test_rival_outcomes_give_each_world_its_own_domain(self, monkeypatch):
        # R(1, 2) and R(3, 4) are rival outcomes of one block, so no world
        # holds both: each world's domain lists only its own elements
        pools, domains, pool, evaluate = [], [], approx.walk_pool, approx.eval_boolean
        monkeypatch.setattr(approx, "walk_pool", lambda *a: pools.append(a) or pool(*a))
        monkeypatch.setattr(approx, "eval_boolean", lambda *a, **kw: domains.append(kw["domain"]) or evaluate(*a, **kw))
        blocks = [[((self.S1,), 1.0)], [((self.R12,), 0.3), ((self.R34,), 0.5)]]
        f = parse("exists x. exists y. R(x, y) & S(x)", RS2)
        assert world_walk(blocks, f, NAT) == _per_world_walk(blocks, [f], NAT)[0] == 0.3
        assert len(pools) == 1 and [d[:-2] for d in domains] == [[1], [1, 2], [1, 3, 4]]
        assert all(not {1, 2, 3, 4} & set(d[-2:]) for d in domains)

    @pytest.mark.parametrize("case", list(CASES))
    def test_index_cases_match_per_world_evaluation_bit_for_bit(self, case):
        sentences = [parse(text, RS2) for text in self.SENTENCES]
        blocks = self.CASES[case]
        values = [world_walk(blocks, f, NAT) for f in sentences]
        _assert_per_world(blocks, sentences, values)
        assert any(0.0 < v < 1.0 for v in values)


def _positive(f):
    """``f`` with every ``!`` dropped and each ``a -> b`` read as ``a | b``."""
    if isinstance(f, Not):
        return _positive(f.body)
    if isinstance(f, Implies):
        return Or(_positive(f.left), _positive(f.right))
    if isinstance(f, (And, Or)):
        return type(f)(_positive(f.left), _positive(f.right))
    if isinstance(f, (Exists, Forall)):
        return type(f)(f.var, _positive(f.body))
    return f


class TestSettledWalk:
    """A monotone sentence true on the first world under a node is true on
    every world below it, and an antimonotone one false there is false on
    every one, since that first world takes "no outcome" in every block
    below and so is a subset of each; the walk settles such a subtree
    without visiting the rest of it."""

    # draws that do not shrink toward the smallest space give walks of
    # several blocks, which settling needs
    @given(st.randoms(use_true_random=True), st.sampled_from(["ti", "bid", "table"]))
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_settled_walk_visits_an_in_order_subsequence(self, rng, kind):
        blocks = _space_blocks(rng, kind)
        names = collections.defaultdict(lambda: rng.choice("xy"))
        f = requantify(random_sentence(rng, RS2, max_rank=rng.randint(0, 3), constant_pool=(1, 2, 5)), names)
        # a random sentence seldom has one polarity, so its positive form,
        # which is monotone, joins it
        for h in (f, _positive(f)):
            for g in (h, Not(h), Implies(h, Atom("S", (Const(rng.choice((1, 2, 5))),)))):
                self._check_settled_walk(blocks, g)

    @staticmethod
    def _check_settled_walk(blocks, g):
        runs = []
        for settle in (True, False):
            with pytest.MonkeyPatch.context() as patch:
                if not settle:
                    patch.setattr(approx, "polarity", lambda *a: (False, False))
                worlds = []
                count_walk(patch, approx, worlds)
                runs.append((world_walk(blocks, g, NAT), worlds))
        (settled, visited), (full, every) = runs
        rest = iter(every)
        assert all(world in rest for world in visited), g
        if any(polarity(g)):
            # the bound of _assert_per_world
            assert abs(settled - full) <= (len(blocks) + 1) * 2**-52, g
        else:
            assert visited == every and settled == full, g

    def test_readme_query_settles_each_fact_at_its_first_world(self, monkeypatch):
        # any one fact makes query.txt true, so the all-absent world is the
        # only false one, and each fact's branch settles at its first world:
        # 24 + 1 worlds, where the walk of every world takes 2**24
        doc = load_spec(str(GOLDEN / "ti_tail.json"))
        walked = count_walk(monkeypatch, approx)
        f = parse((GOLDEN / "query.txt").read_text(), doc.schema)
        p, cert = approx_boolean(doc.space(), f, 0.1, doc.universe)
        assert cert.n == 24 and len(walked) == 24 + 1
        assert f"{p:.6f}" == "0.999729"


def _walk_each_grounding(t, f, epsilon, u):
    """The open query's table as one walk per grounded sentence would give
    it: each key's values substituted into ``f``, and the sentence walked
    on its own over the truncated blocks."""
    blocks = approx._truncated_blocks(t, choose_truncation(t, epsilon).n)
    elements = {e for block in blocks for facts, _ in block for g in facts for e in g.args}
    free, table = free_variables(f), {}
    for key, values in groundings(f, elements, u):
        p = world_walk(blocks, substitute(f, dict(zip(free, values))), u)
        if p > 0.0 or not any(isinstance(e, Fresh) for e in key):
            table[key] = p
    return table


class TestOnePreparationPerCall:
    """An open query is analysed, compiled, indexed and given its generics
    once per call; each grounding only writes its values and walks the
    blocks its atoms can match."""

    TEMPLATES = [
        # x is free in R(x, y) and bound again under exists
        "R(x, y) | exists x. S(x)",
        # x is in no atom
        "exists y. R(y, 2) & x = x",
        "R(x, 5) | S(y) & !(x = y)",
        "exists z. R(x, z) & !S(z) & !(z = 2)",
        "forall z. (R(z, x) -> S(z)) & !(x = 1)",
    ]

    @given(st.randoms(use_true_random=True), st.sampled_from(["ti", "bid", "table", "completion"]))
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_matches_one_walk_per_grounded_sentence_bit_for_bit(self, rng, kind):
        space = _space(rng, kind)
        formulas = [parse(rng.choice(self.TEMPLATES), RS2)]
        # random formulas with constants and =, in x, or in x and y
        for k in (1, 2):
            f = _lift(random_sentence(rng, RS2, max_rank=2, constant_pool=(1, 2, 5)), 1, "x")
            f = _lift(f, 2, "y") if k == 2 else f
            formulas.append(And(f, Atom("S", (Var("x"),))) if not free_variables(f) else f)
        for f in formulas:
            got = approx_nonboolean(space, f, 0.2, NAT)
            assert list(got.items()) == list(_walk_each_grounding(space, f, 0.2, NAT).items()), (kind, f)

    @pytest.mark.parametrize("text", ["exists z. R(x, z) & !(z = 2)", "R(x, y) | exists x. S(x) & !(x = 'a')"])
    def test_one_analysis_compile_and_pool_per_call(self, monkeypatch, text):
        from infpdb import fo

        calls, cuts = collections.Counter(), []
        for name, modules in (("_analysis", (fo,)), ("compile_sentence", (fo, approx)), ("walk_pool", (fo, approx))):
            for module in modules:
                # each wrapper calls the original, so a call counts once
                fn = getattr(module, name)
                monkeypatch.setattr(module, name, lambda *a, fn=fn, name=name, **kw: calls.update([name]) or fn(*a, **kw))
        cut = approx._cut
        monkeypatch.setattr(approx, "_cut", lambda blocks, pins, index=None: cuts.append(index) or cut(blocks, pins, index))
        space = ti_construct(FactProbabilityAssignment(tuple(
            (fact("R", a, b), 0.1 * (a + b)) for a in (1, 2, 3) for b in (2, 3, 4) if a < b
        ) + ((fact("S", 3), 0.5),), _tail_s()))
        f = parse(text, RS2)
        table = approx_nonboolean(space, f, 0.1, NAT)
        assert len(table) >= 7
        assert calls == {"_analysis": 1, "compile_sentence": 1, "walk_pool": 1}
        # one cut per grounding, each through the blocks' one index
        assert len(cuts) >= len(table) and all(index is cuts[0] is not None for index in cuts)
        assert not hasattr(fo, "substitute")
        # the formula keeps its analysis; each call compiles and pools again
        calls.clear()
        assert approx_nonboolean(space, f, 0.1, NAT) == table
        assert calls == {"compile_sentence": 1, "walk_pool": 1}
        calls.clear()
        cuts.clear()
        g = parse("exists x. " + text.replace("y", "x"), RS2)
        p, _ = approx_boolean(space, g, 0.1, NAT)
        assert calls == {"_analysis": 1, "compile_sentence": 1, "walk_pool": 1} and cuts == [None]
        calls.clear()
        assert approx_boolean(space, g, 0.1, NAT)[0] == p
        assert calls == {"compile_sentence": 1, "walk_pool": 1}

    @pytest.mark.parametrize("text", ["exists z. R(x, z) & !S(z) & !(z = 2)", "forall y. R(y, 2) -> S(y) | y = 'a'"])
    def test_the_cached_analysis_is_never_changed(self, text):
        from infpdb import fo

        # every reader shares the analysis's set and lists
        f = parse(text, RS2)
        space = ti_construct(FactProbabilityAssignment(((fact("R", 1, 2), 0.5), (fact("S", 1), 0.5)), _tail_s()))
        if free_variables(f):
            approx_nonboolean(space, f, 0.1, NAT)
        else:
            approx_boolean(space, f, 0.1, NAT)
            eval_boolean(Instance([fact("R", 1, 2)]), f, NAT)
        assert f.analysis == fo._analysis(f)
        assert list(groundings(f, {1, 2}, NAT)) and f.analysis == fo._analysis(f)


def _tail_s():
    """S(6), S(7), ... at 12.8 * 0.5**i."""
    return GeometricTail(EnumerationSupply(FactEnumeration(RS2, NAT), relation="S", offset=5), c=TAIL_C, q=TAIL_Q)
