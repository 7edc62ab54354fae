"""Shared test utilities: random formulas, independent evaluators, and a
reference enclosure for query probabilities on spaces with infinite tails.

The reference in :func:`reference_boolean_enclosure` is deliberately a
different algorithm from the engine's: instead of enumerating worlds it
conditions on a wide truncation and evaluates the finite part with a
type-counting dynamic program (sound for unary schemas because a
sentence of quantifier rank r cannot distinguish structures whose
per-type element counts agree up to r once constants are matched), and
it bounds the unseen tail product with the elementary inequality
``prod(1 - p) >= 1 - sum(p)`` rather than the engine's exponential bound.
"""

from __future__ import annotations

import itertools
import random

from infpdb.core import Fact, Instance, active_domain
from infpdb.fo import (
    And,
    Atom,
    Const,
    Eq,
    Exists,
    Forall,
    Formula,
    Implies,
    Not,
    Or,
    Var,
    compile_sentence,
    constants,
    eval_boolean,
    free_variables,
)
from infpdb.independence import BIDPdb
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


def count_walk(monkeypatch, approx) -> list[Formula]:
    """A list that fills as ``approx``'s walks run: the sentence evaluated on
    each world walked.  A walk evaluates its one sentence once per world, so
    every entry is one world."""
    calls = []
    evaluate = approx.eval_boolean

    def counting(d, f, u, **kw):
        calls.append(f)
        return evaluate(d, f, u, **kw)

    monkeypatch.setattr(approx, "eval_boolean", counting)
    return calls


def eval_on_pool(d: Instance, f: Formula, u: Universe, pool_size: int) -> bool:
    """Truth of the sentence ``f`` on ``d`` with quantifiers over the active
    domain of both and ``pool_size`` generic elements, where
    :func:`fo.eval_boolean` takes as many as the sentence's rank."""
    adom = active_domain(d) | constants(f)
    return compile_sentence(f)(d)([*adom, *u.fresh_elements(adom, pool_size)])


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
        result = eval_boolean(d, formula, universe, compiled=bind(d))
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
