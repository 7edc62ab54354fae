"""Shared test utilities: random formulas, independent evaluators, a
reference enclosure for query probabilities on spaces with infinite tails,
and the paper's definitions that only the tests use.

The reference in :func:`reference_boolean_enclosure` is deliberately a
different algorithm from the engine's: instead of enumerating worlds it
conditions on a wide truncation and evaluates the finite part with a
type-counting dynamic program (sound for unary schemas because a
sentence of quantifier rank r cannot distinguish structures whose
per-type element counts agree up to r once constants are matched), and
it bounds the unseen tail product with the elementary inequality
``prod(1 - p) >= 1 - sum(p)`` rather than the engine's exponential bound.

The last section holds the paper's definitions as executable checks:
world-table statistics, formula printing and analysis, open-query answers
on one instance, FO-views and their image spaces, the completion
condition, a geometric bound on a fresh-fact tail, the subset-expansion
identity, the divergent-size example space, instance set operations,
interval width and membership, a space's marginal, event probabilities
on a TI space and a Monte Carlo estimate.  The package does not use them; the
tests use them as oracles.
"""
from __future__ import annotations

import itertools
import math
import random
from typing import Callable, Hashable, Iterable, Sequence

from infpdb.completion import completion_instance_prob
from infpdb.core import Fact, FiniteDiscretePDB, Instance, Schema, active_domain
from infpdb.errors import DuplicateFact
from infpdb.fo import (
    And,
    Atom,
    Const,
    Eq,
    Exists,
    Forall,
    Formula,
    Fresh,
    Implies,
    Not,
    Or,
    Var,
    _analysis,
    compile_sentence,
    eval_boolean,
    free_variables,
    groundings,
)
from infpdb.independence import BIDPdb, BlockPartition, ConstantTail, FactProbabilityAssignment
from infpdb.numerics import ProbabilityInterval
from infpdb.record import Record
from infpdb.universe import Universe


# --- random formulas -----------------------------------------------------


def random_sentence(
    rng: random.Random,
    schema,
    max_rank: int = 2,
    constant_pool: tuple = (1, 2, 3),
    max_connectives: int = 4,
) -> Formula:
    """A random sentence of quantifier rank at most ``max_rank``."""
    counter = itertools.count()

    def term(scope: list[str]):
        if scope and rng.random() < 0.7:
            return Var(rng.choice(scope))
        return Const(rng.choice(constant_pool))

    def leaf(scope: list[str]) -> Formula:
        if rng.random() < 0.75:
            name, arity = rng.choice(schema.relations)
            return Atom(name, tuple(term(scope) for _ in range(arity)))
        return Eq(term(scope), term(scope))

    def build(rank: int, depth: int, scope: list[str]) -> Formula:
        roll = rng.random()
        if rank > 0 and roll < 0.45:
            var = f"v{next(counter)}"
            body = build(rank - 1, depth, scope + [var])
            return Exists(var, body) if rng.random() < 0.5 else Forall(var, body)
        if depth > 0 and roll < 0.85:
            kind = rng.choice(["not", "and", "or", "implies"])
            if kind == "not":
                return Not(build(rank, depth - 1, scope))
            left = build(rank, depth - 1, scope)
            right = build(rank, depth - 1, scope)
            return {"and": And, "or": Or, "implies": Implies}[kind](left, right)
        return leaf(scope)

    return build(max_rank, max_connectives, [])


def requantify(node, names):
    """``node`` with each variable renamed by ``names``, binders included, so
    that a quantifier can bind a variable that an outer one binds too."""
    if isinstance(node, Var):
        return Var(names[node.name])
    if isinstance(node, (Exists, Forall)):
        return type(node)(names[node.var], requantify(node.body, names))
    if isinstance(node, tuple):
        return tuple(requantify(part, names) for part in node)
    if isinstance(node, Record):
        return type(node)(*(requantify(getattr(node, name), names) for name in node._fields))
    return node


def count_walk(monkeypatch, approx, worlds: list | None = None) -> list[Formula]:
    """A list that fills as ``approx``'s walks run: the sentence evaluated on
    each world walked.  A walk evaluates its one sentence once per world, so
    every entry is one world; ``worlds``, if given, fills in step with each
    world's facts, a frozenset of ``(relation, args)``."""
    calls = []
    evaluate = approx.eval_boolean

    def counting(d, f, u, **kw):
        calls.append(f)
        if worlds is not None:
            worlds.append(frozenset((relation, args) for relation, held in d.items() for args in held))
        return evaluate(d, f, u, **kw)

    monkeypatch.setattr(approx, "eval_boolean", counting)
    return calls


def eval_on_pool(d: Instance, f: Formula, u: Universe, pool_size: int) -> bool:
    """Truth of the sentence ``f`` on ``d`` with quantifiers over the active
    domain of both and ``pool_size`` generic elements, where
    :func:`fo.eval_boolean` takes as many as the sentence's rank."""
    adom = active_domain(d) | constants(f)
    return compile_sentence(f)(d.tuples_of)([*adom, *u.fresh_elements(adom, pool_size)])


def random_instance(rng: random.Random, schema, elements: tuple, max_facts: int = 5) -> Instance:
    n = rng.randint(0, max_facts)
    facts = []
    for _ in range(n):
        name, arity = rng.choice(schema.relations)
        facts.append(Fact(name, tuple(rng.choice(elements) for _ in range(arity))))
    return Instance(facts)


# --- independent naive evaluation ---------------------------------------


def naive_eval(f: Formula, d: Instance, domain: list, env: dict | None = None) -> bool:
    """Direct recursive evaluation with quantifiers over an explicit domain.

    Shares no code with the engine's evaluator.
    """
    env = env or {}

    def val(t):
        return env[t.name] if isinstance(t, Var) else t.value

    if isinstance(f, Atom):
        return Fact(f.relation, tuple(val(t) for t in f.terms)) in d
    if isinstance(f, Eq):
        return val(f.left) == val(f.right)
    if isinstance(f, Not):
        return not naive_eval(f.body, d, domain, env)
    if isinstance(f, And):
        return naive_eval(f.left, d, domain, env) and naive_eval(f.right, d, domain, env)
    if isinstance(f, Or):
        return naive_eval(f.left, d, domain, env) or naive_eval(f.right, d, domain, env)
    if isinstance(f, Implies):
        return (not naive_eval(f.left, d, domain, env)) or naive_eval(
            f.right, d, domain, env
        )
    if isinstance(f, Exists):
        return any(naive_eval(f.body, d, domain, {**env, f.var: e}) for e in domain)
    if isinstance(f, Forall):
        return all(naive_eval(f.body, d, domain, {**env, f.var: e}) for e in domain)
    raise TypeError(f)


# --- reference approximation for unary tuple-independent spaces ----------


def _type_profile_distribution(
    element_probs: list[tuple[float, float]], cap: int
) -> dict[tuple[int, int, int], float]:
    """Joint law of capped counts of (R-only, S-only, R-and-S) elements."""
    dist = {(0, 0, 0): 1.0}
    for p_r, p_s in element_probs:
        outcomes = [
            ((0, 0, 0), (1 - p_r) * (1 - p_s)),
            ((1, 0, 0), p_r * (1 - p_s)),
            ((0, 1, 0), (1 - p_r) * p_s),
            ((0, 0, 1), p_r * p_s),
        ]
        new: dict[tuple[int, int, int], float] = {}
        for state, sp in dist.items():
            for delta, op in outcomes:
                if op == 0.0:
                    continue
                ns = (
                    min(cap, state[0] + delta[0]),
                    min(cap, state[1] + delta[1]),
                    min(cap, state[2] + delta[2]),
                )
                new[ns] = new.get(ns, 0.0) + sp * op
        dist = new
    return dist


def reference_boolean_enclosure(
    t: BIDPdb,
    formula: Formula,
    universe: Universe,
    n_ref: int = 40,
    pad: int = 400,
    cap: int = 3,
) -> tuple[float, float]:
    """Enclose the true sentence probability on a unary-schema TI space.

    Conditions on the first ``n_ref`` canonical facts; the conditional
    probability is summed exactly over constant-fact combinations and
    capped type-count profiles, each evaluated on a small representative
    structure.  The product over absent facts beyond ``n_ref`` is
    enclosed by expanding ``pad`` more facts explicitly and bounding the
    rest with ``prod(1-p) >= 1 - sum(p)``.
    """
    assert not free_variables(formula)
    if t.tail is None:
        n_ref = min(n_ref, len(t.head))
    tail = () if t.tail is None else itertools.islice(t.tail.indexed_facts(), n_ref - len(t.head))
    listed = [*t.head, *((f, p) for _, f, p in tail)]
    relations = {f.relation for f, _ in listed} | {"R", "S"}
    assert all(len(f.args) == 1 for f, _ in listed), "reference handles unary schemas"
    assert relations <= {"R", "S"}, "reference handles schemas within {R/1, S/1}"

    # presence probability per (element, relation) among the listed facts
    by_element: dict[object, dict[str, float]] = {}
    for f, p in listed:
        by_element.setdefault(f.args[0], {})[f.relation] = p

    consts = sorted(constants(formula), key=lambda e: (isinstance(e, str), str(e)))
    const_set = set(consts)
    free_elements = [e for e in by_element if e not in const_set]

    profile_dist = _type_profile_distribution(
        [
            (by_element[e].get("R", 0.0), by_element[e].get("S", 0.0))
            for e in free_elements
        ],
        cap,
    )

    # representatives far outside the constant pool and listed elements
    rep_base = 10_000_000
    truth_memo: dict[tuple, bool] = {}
    # compiled once, bound to each structure; eval_boolean takes the domain
    # from fo.walk_pool
    bind = compile_sentence(formula)

    def truth(const_bits: tuple[tuple[bool, bool], ...], profile: tuple[int, int, int]) -> bool:
        key = (const_bits, profile)
        cached = truth_memo.get(key)
        if cached is not None:
            return cached
        facts = []
        for e, (has_r, has_s) in zip(consts, const_bits):
            if has_r:
                facts.append(Fact("R", (e,)))
            if has_s:
                facts.append(Fact("S", (e,)))
        rep = itertools.count(rep_base)
        n_r, n_s, n_both = profile
        for _ in range(n_r):
            facts.append(Fact("R", (next(rep),)))
        for _ in range(n_s):
            facts.append(Fact("S", (next(rep),)))
        for _ in range(n_both):
            e = next(rep)
            facts.append(Fact("R", (e,)))
            facts.append(Fact("S", (e,)))
        d = Instance(facts)
        result = eval_boolean(d, formula, universe, compiled=bind(d.tuples_of))
        truth_memo[key] = result
        return result

    sat = 0.0
    for bits in itertools.product([False, True], repeat=2 * len(consts)):
        const_bits = tuple(
            (bits[2 * i], bits[2 * i + 1]) for i in range(len(consts))
        )
        weight = 1.0
        for e, (has_r, has_s) in zip(consts, const_bits):
            p_r = by_element.get(e, {}).get("R", 0.0)
            p_s = by_element.get(e, {}).get("S", 0.0)
            weight *= p_r if has_r else (1 - p_r)
            weight *= p_s if has_s else (1 - p_s)
        if weight == 0.0:
            continue
        for profile, p_profile in profile_dist.items():
            if truth(const_bits, profile):
                sat += weight * p_profile

    # enclose T = prod over facts beyond n_ref of (1 - p)
    if t.tail is None:
        t_lo = t_hi = 1.0
    else:
        beyond = []
        count = 0
        skip = n_ref - len(t.head)
        last_index = 0
        for i, _, p in t.tail.indexed_facts():
            if skip > 0:
                skip -= 1
                continue
            beyond.append(p)
            last_index = i
            count += 1
            if count >= pad:
                break
        t_hi = 1.0
        for p in beyond:
            t_hi *= 1.0 - p
        # remaining mass after the expanded horizon, from the rule directly
        rest_mass = (
            t.tail.supply.multiplicity
            * t.tail.c
            * t.tail.q ** (last_index + 1)
            / (1.0 - t.tail.q)
        )
        t_lo = t_hi * max(0.0, 1.0 - rest_mass)
    # P(Q) = sat * T + P(Q | beyond-truncation worlds) * (1 - T)
    lo = sat * t_lo
    hi = sat * t_hi + (1.0 - t_lo)
    return max(0.0, lo), min(1.0, hi)


# --- the paper's definitions, as test oracles ----------------------------


def instance_size(d: Instance) -> int:
    return len(d)


def marginal(p: FiniteDiscretePDB, f: Fact) -> float:
    """Probability that the fact occurs in a drawn instance."""
    return math.fsum(prob for d, prob in p.worlds.items() if f in d)


def positive_facts(p: FiniteDiscretePDB) -> set[Fact]:
    """All facts with strictly positive marginal probability."""
    out: set[Fact] = set()
    for d, prob in p.worlds.items():
        if prob > 0.0:
            out.update(d)
    return out


def size_tail(p: FiniteDiscretePDB, n: int) -> float:
    """Probability that an instance has at least ``n`` facts."""
    return math.fsum(prob for d, prob in p.worlds.items() if len(d) >= n)


def power_of_two_size_pdb(n_max: int, universe=None) -> FiniteDiscretePDB:
    """A truncated space whose n-th world holds the first 2**n unary facts.

    World n (1 <= n <= n_max) has probability ``6 / (pi^2 n^2)``; the
    leftover mass sits on the empty world so probabilities sum to one.
    The full (untruncated) space has infinite expected size, which the
    partial sums of ``expected_size`` over growing ``n_max`` illustrate.
    """
    if universe is None:
        universe = Universe.naturals()
    schema = Schema.of(R=1)
    worlds: dict[Instance, float] = {}
    assigned = 0.0
    for n in range(1, n_max + 1):
        p_n = 6.0 / (math.pi**2 * n**2)
        worlds[Instance(Fact("R", (i,)) for i in range(1, 2**n + 1))] = p_n
        assigned += p_n
    worlds[Instance.empty()] = 1.0 - assigned
    return FiniteDiscretePDB(schema, universe, worlds)


_PREC = {Implies: 1, Or: 2, And: 3, Not: 4}


def print_formula(f: Formula) -> str:
    """Concrete syntax for a formula; ``parse(print_formula(f))`` is ``f``."""
    return _print(f, 0)


def _print(f: Formula, parent: int) -> str:
    if isinstance(f, Atom):
        return f"{f.relation}({', '.join(str(t) for t in f.terms)})"
    if isinstance(f, Eq):
        return f"{f.left} = {f.right}"
    if isinstance(f, Not):
        return "!" + _print(f.body, _PREC[Not])
    if isinstance(f, (Exists, Forall)):
        word = "exists" if isinstance(f, Exists) else "forall"
        s = f"{word} {f.var}. {_print(f.body, 0)}"
        return f"({s})" if parent > 0 else s
    op = {And: "&", Or: "|", Implies: "->"}[type(f)]
    prec = _PREC[type(f)]
    if isinstance(f, Implies):
        # right-associative
        s = f"{_print(f.left, prec + 1)} {op} {_print(f.right, prec)}"
    else:
        s = f"{_print(f.left, prec)} {op} {_print(f.right, prec + 1)}"
    return f"({s})" if prec < parent else s


def quantifier_rank(f: Formula) -> int:
    """Maximum nesting depth of quantifiers."""
    return _analysis(f)[0]


def constants(f: Formula) -> set:
    """The active domain of the formula: all constants occurring in it."""
    return _analysis(f)[1]


def analyze(f: Formula) -> tuple[int, set, list[str]]:
    """(quantifier rank, constants, ordered free variables)."""
    return _analysis(f)[:3]


INFINITE_ANSWER = object()  # eval_query's answer when the answer relation is infinite


def eval_query(d: Instance, f: Formula, u: Universe) -> frozenset[tuple] | object:
    """Answer tuples of an open formula, or :data:`INFINITE_ANSWER`.

    Candidate tuples range over the combined active domain of instance
    and formula (:func:`fo.groundings`); if a pattern with a fresh element
    satisfies the formula, so does every tuple it stands for, and the true
    answer relation is infinite.
    """
    if not free_variables(f):
        raise ValueError("open formula expected; use eval_boolean for sentences")
    answers: set[tuple] = set()
    for key, sentence in groundings(f, active_domain(d), u):
        if eval_boolean(d, sentence, u):
            if any(isinstance(e, Fresh) for e in key):
                return INFINITE_ANSWER
            answers.add(key)
    return frozenset(answers)


class View(Record):
    """One defining formula per target relation; arities must match."""

    target_schema: Schema
    formulas: tuple[tuple[str, Formula], ...]

    def __post_init__(self):
        defined = {name for name, _ in self.formulas}
        if defined != set(self.target_schema.names):
            raise ValueError(
                f"view must define exactly the target relations; got {sorted(defined)}"
            )
        for name, formula in self.formulas:
            arity = self.target_schema.arity_of(name)
            k = len(free_variables(formula))
            if k != arity:
                raise ValueError(
                    f"view formula for {name!r} has {k} free variables, target arity is {arity}"
                )


def apply_view(d: Instance, v: View, u: Universe) -> Instance:
    """Image of one instance under the view; ValueError on an infinite answer."""
    out: list[Fact] = []
    for name, formula in v.formulas:
        if v.target_schema.arity_of(name) == 0:
            if eval_boolean(d, formula, u):
                out.append(Fact(name, ()))
            continue
        answers = eval_query(d, formula, u)
        if answers is INFINITE_ANSWER:
            raise ValueError(f"view formula for {name!r} has an infinite answer on {d}")
        out.extend(Fact(name, args) for args in answers)
    return Instance(out)


def view_pushforward(p: FiniteDiscretePDB, v: View) -> FiniteDiscretePDB:
    """Image space of a finite PDB under an FO-view, accumulating collisions."""
    image: dict[Instance, float] = {}
    for d, prob in p.worlds.items():
        d_image = apply_view(d, v, p.universe)
        image[d_image] = image.get(d_image, 0.0) + prob
    return FiniteDiscretePDB(v.target_schema, p.universe, image)


def completion_condition_check(
    original: FiniteDiscretePDB, c: BIDPdb, a: Iterable[Instance]
) -> tuple[float, float]:
    """(measure of A under the completion ``c`` of ``original``, conditioned
    on the original space; original measure of A); the two must agree for a
    valid completion.  Each instance's measure is its interval's midpoint."""
    event = set(a)
    unknown = event - set(original.worlds)
    if unknown:
        raise ValueError(f"instances outside the original sample space: {unknown}")

    def measure(instances) -> float:
        intervals = [completion_instance_prob(c, d) for d in instances]
        return math.fsum(0.5 * (iv.lo + iv.hi) for iv in intervals)

    denominator = measure(original.worlds)
    if denominator <= 0.0:
        raise ValueError("completed measure of the original space is zero")
    conditioned = measure(event) / denominator
    original_prob = math.fsum(original.probability(d) for d in event)
    return conditioned, original_prob


def bounded_tail_validate(
    tail: FactProbabilityAssignment, bound_c: float, bound_q: float
) -> bool:
    """Check the i-th fresh-fact probability against ``bound_c * bound_q**i``.

    The head is checked exhaustively in listed order; a geometric
    generator is compared rule-to-rule against the bound continuing at
    the positions after the head.
    """
    if not (bound_c > 0.0 and 0.0 < bound_q < 1.0):
        raise ValueError("bound must be a convergent geometric series")
    for i, (_, p) in enumerate(tail.head, start=1):
        if p > bound_c * bound_q**i + 1e-15:
            return False
    generator = tail.tail
    if generator is None:
        return True
    if isinstance(generator, ConstantTail):
        return generator.value == 0.0
    # facts of the generator occupy positions h+1, h+2, ... against the bound;
    # the k-th generated fact has probability c * q**ceil(k/m) shifted by the
    # supply's offset, so domination reduces to the first position and the
    # per-position decay ratio
    h = len(tail.head)
    m = generator.supply.multiplicity
    effective_c = generator.rule_value(generator.supply.first_index - 1)
    if effective_c * generator.q > bound_c * bound_q ** (1 + h) + 1e-15:
        return False
    return generator.q <= bound_q**m + 1e-15


SUBSET_EXPANSION_CAP = 20


def subset_expansion_check(a: Sequence[float]) -> tuple[float, float]:
    """Both sides of the finite identity ``prod (1+a_i) = sum_J prod_{i in J} a_i``.

    The right-hand side is the literal sum over all ``2**len(a)`` subset
    products, so this doubles as an independent oracle for product
    expansions.  Capped at 20 elements.
    """
    if len(a) > SUBSET_EXPANSION_CAP:
        raise ValueError(f"subset expansion capped at {SUBSET_EXPANSION_CAP} elements, got {len(a)}")
    lhs = 1.0
    for x in a:
        lhs *= 1.0 + x
    subset_products = [1.0]
    for x in a:
        subset_products.extend([p * x for p in subset_products])
    rhs = math.fsum(subset_products)
    return lhs, rhs


def difference(d: Instance, facts: Iterable[Fact]) -> Instance:
    drop = set(facts)
    return Instance(f for f in d if f not in drop)


def intersection(d: Instance, facts: Iterable[Fact]) -> Instance:
    keep = set(facts)
    return Instance(f for f in d if f in keep)


def width(iv: ProbabilityInterval) -> float:
    return iv.hi - iv.lo


def contains(iv: ProbabilityInterval, p: float) -> bool:
    return iv.lo <= p <= iv.hi


def probability_of(t: BIDPdb, f: Fact) -> float:
    """The marginal probability of ``f`` on the space ``t``."""
    p = dict(t.head).get(f)
    if p is not None:
        return p
    return 0.0 if t.tail is None else t.tail.probability_of(f)


def is_good(partition: BlockPartition, d: Instance) -> bool:
    """True iff the instance has at most one fact per block."""
    seen: set[Hashable] = set()
    for f in d:
        k = partition.key(f)
        if k in seen:
            return False
        seen.add(k)
    return True


def ti_event_probs(t: BIDPdb, fs: Sequence[Fact]) -> tuple[float, float]:
    """(probability all facts occur, probability at least one occurs)."""
    facts = list(fs)
    if len(set(facts)) != len(facts):
        raise DuplicateFact("event facts must be distinct")
    ps = [probability_of(t, f) for f in facts]
    conj = math.prod(ps, start=1.0)  # partial products only shrink, so none underflows early
    # 0.0 - expm1 keeps small unions that 1 - exp cancels, and no -0.0; the
    # union is at least its largest term, which rounding may have undercut
    union = 0.0 - math.expm1(math.fsum(math.log1p(-p) if p < 1.0 else -math.inf for p in ps))
    return conj, max([union, *ps])


def monte_carlo(
    sampler: Callable[[random.Random], Instance],
    predicate: Callable[[Instance], bool],
    n: int,
    seed: int,
) -> tuple[float, float]:
    """Empirical event frequency with a 3-sigma binomial half-width.

    Deterministic for a fixed seed.
    """
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    rng = random.Random(seed)
    hits = sum(bool(predicate(sampler(rng))) for _ in range(n))
    estimate = hits / n
    ci = 3.0 * math.sqrt(estimate * (1.0 - estimate) / n)
    return estimate, ci
