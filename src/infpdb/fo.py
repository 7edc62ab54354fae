"""First-order queries: concrete syntax, analysis and evaluation.

Grammar (precedence ``!`` > ``&`` > ``|`` > ``->``; quantifiers extend
right as far as possible)::

    formula  := 'exists' VAR '.' formula
              | 'forall' VAR '.' formula
              | implication
    atom     := REL '(' term (',' term)* ')'
              | term '=' term
    term     := VAR | INT | STRING
    VAR      := [a-z][A-Za-z0-9_]*
    INT      := [0-9]+
    STRING   := "'" ([^'] | "''")* "'"        ('' inside stands for one ')

Evaluation is over a *finite* instance drawn from an *infinite* universe,
so a quantifier must notionally range over infinitely many elements.  It
suffices to range over the active domain of the instance and the formula
plus a pool of pairwise-distinct generic elements, one per level of
quantifier nesting: a generic element satisfies no relation atom (it is
outside every stored tuple) and is equal only to itself, and formulas of
quantifier rank r cannot tell two such pools apart once the pool has r
elements.  :func:`walk_pool` alone forms a quantifier domain: the
constants, a world's elements, then the generic elements, real universe
elements taken deterministically as the first enumeration indices
outside the constants and every element of the worlds it serves.
``forall`` reads the domain from the end and ``exists`` from the front,
so ``forall`` tries a generic first.  No truth value depends on the order.

A sentence is compiled once into nested closures (:func:`compile_sentence`),
which are bound once to a world that may change in place; a caller that
evaluates it on many worlds passes the bound closures to
:func:`eval_boolean` with every world and its domain.

Open formulas are grounded in one place, :func:`groundings`: on every
tuple of candidates, and on one representative per pattern of generic
elements, keyed by the :class:`Fresh` sentinel, which stands for every
tuple that repeats those generic elements at the same positions
(:func:`approx.approx_nonboolean` reads its marginals per key).
"""

from __future__ import annotations

import itertools
import re
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Mapping

from .core import Schema, _element_key, active_domain
from .errors import NestingTooDeep, QuerySyntaxError
from .record import Record
from .universe import Element, Universe


# --- abstract syntax ---------------------------------------------------


class Var(Record):
    name: str

    def __str__(self) -> str:
        return self.name


class Const(Record):
    value: Element

    def __str__(self) -> str:
        return "'" + self.value.replace("'", "''") + "'" if isinstance(self.value, str) else str(self.value)


Term = Var | Const
Pattern = tuple[str, tuple[Element | None, ...]]  # relation, then a constant or None per position


class Atom(Record):
    relation: str
    terms: tuple[Term, ...]


class Eq(Record):
    left: Term
    right: Term


class Not(Record):
    body: "Formula"


class And(Record):
    left: "Formula"
    right: "Formula"


class Or(Record):
    left: "Formula"
    right: "Formula"


class Implies(Record):
    left: "Formula"
    right: "Formula"


class Exists(Record):
    var: str
    body: "Formula"


class Forall(Record):
    var: str
    body: "Formula"


Formula = Atom | Eq | Not | And | Or | Implies | Exists | Forall


class Fresh(Record):
    """In the key of an open query's answer, the j-th distinct element
    outside the listed candidates, standing for every such element."""

    index: int

    def __repr__(self) -> str:
        return f"*{self.index}"


# --- parsing -----------------------------------------------------------

_KEYWORDS = {"exists", "forall"}
# one match per token; finditer skips the whitespace between matches, and
# ``bad`` takes any other character, which the tokenizer rejects
_TOKEN = re.compile(
    r"(?P<ident>[^\W\d]\w*)|(?P<int>[0-9]+)|'(?P<string>(?:[^']|'')*)'|(?P<op>->|[()!&|=,.])|(?P<bad>\S)"
)


def _tokens(text: str) -> list[tuple[str, str, int]]:
    """(kind, value, position) of every token, then an ``eof`` token."""
    out = []
    for m in _TOKEN.finditer(text):
        kind, value, pos = m.lastgroup, m[m.lastgroup], m.start()
        if kind == "bad":
            if value == "'":
                raise QuerySyntaxError("unterminated string constant", pos)
            raise QuerySyntaxError(f"unexpected character {value!r}", pos)
        out.append((kind, value, pos))
    out.append(("eof", "", len(text)))
    return out


_VAR_FIRST = "abcdefghijklmnopqrstuvwxyz"


def _is_variable_name(s: str) -> bool:
    return bool(s) and s[0] in _VAR_FIRST


class _Parser:
    """Recursive descent over the token list; ``self.i`` is the lookahead."""

    def __init__(self, text: str, schema: Schema):
        self.toks, self.i, self.schema = _tokens(text), 0, schema

    def parse(self) -> Formula:
        f = self._formula()
        kind, value, pos = self.toks[self.i]
        if kind != "eof":
            raise QuerySyntaxError(f"unexpected trailing input {value!r}", pos)
        return f

    def _next(self) -> tuple[str, str, int]:
        # every caller raises on ``eof``, so the index never passes it
        self.i += 1
        return self.toks[self.i - 1]

    def _accept(self, op: str) -> bool:
        """Consume the next token if it is the operator ``op``."""
        kind, value, _ = self.toks[self.i]
        if kind == "op" and value == op:
            self.i += 1
            return True
        return False

    def _expect(self, kind: str, value: str | None = None) -> tuple[str, str, int]:
        k, v, pos = self._next()
        if k != kind or (value is not None and v != value):
            want = value if value is not None else kind
            raise QuerySyntaxError(f"expected {want!r}, found {v or k!r}", pos)
        return k, v, pos

    def _formula(self) -> Formula:
        kind, word, _ = self.toks[self.i]
        if kind == "ident" and word in _KEYWORDS:
            self.i += 1
            _, var, vpos = self._expect("ident")
            if not _is_variable_name(var):
                raise QuerySyntaxError(f"quantified variable must be lowercase, got {var!r}", vpos)
            self._expect("op", ".")
            body = self._formula()
            return Exists(var, body) if word == "exists" else Forall(var, body)
        left = self._disjunction()
        # right-associative; also lets a quantifier follow the arrow
        return Implies(left, self._formula()) if self._accept("->") else left

    def _disjunction(self) -> Formula:
        left = self._conjunction()
        while self._accept("|"):
            left = Or(left, self._conjunction())
        return left

    def _conjunction(self) -> Formula:
        left = self._negation()
        while self._accept("&"):
            left = And(left, self._negation())
        return left

    def _negation(self) -> Formula:
        if self._accept("!"):
            return Not(self._negation())
        if self._accept("("):
            f = self._formula()
            self._expect("op", ")")
            return f
        kind, value, pos = self.toks[self.i]
        if kind == "ident" and value in _KEYWORDS:
            return self._formula()
        if kind == "ident" and self.toks[self.i + 1][:2] == ("op", "("):
            # relation atom iff followed by '('
            self.i += 1
            return self._atom(value, pos)
        left = self._term()
        self._expect("op", "=")
        return Eq(left, self._term())

    def _atom(self, relation: str, pos: int) -> Formula:
        if relation not in self.schema:
            raise QuerySyntaxError(f"unknown relation {relation!r}", pos)
        self._expect("op", "(")
        terms = [self._term()]
        while not self._accept(")"):
            if not self._accept(","):
                kind, value, p = self.toks[self.i]
                raise QuerySyntaxError(f"expected ',' or ')' in argument list, found {value or kind!r}", p)
            terms.append(self._term())
        arity = self.schema.arity_of(relation)
        if len(terms) != arity:
            raise QuerySyntaxError(
                f"relation {relation!r} takes {arity} arguments, got {len(terms)}", pos
            )
        return Atom(relation, tuple(terms))

    def _term(self) -> Term:
        kind, value, pos = self._next()
        if kind == "int":
            try:
                return Const(int(value))
            except ValueError:  # more digits than int() converts
                raise QuerySyntaxError("integer constant too long", pos) from None
        if kind == "string":
            return Const(value.replace("''", "'"))
        if kind == "ident":
            if value in _KEYWORDS:
                raise QuerySyntaxError(f"{value!r} is a reserved word", pos)
            if not _is_variable_name(value):
                raise QuerySyntaxError(f"variables must start lowercase, got {value!r}", pos)
            return Var(value)
        raise QuerySyntaxError(f"expected a term, found {value or kind!r}", pos)


def parse(text: str, schema: Schema) -> Formula:
    """Parse query text against a schema; raises :class:`QuerySyntaxError`,
    or :class:`NestingTooDeep` past the recursion limit."""
    try:
        return _Parser(text, schema).parse()
    except RecursionError:
        raise NestingTooDeep("query nests too deeply to parse") from None


# --- analysis ----------------------------------------------------------


def _analysis(f: Formula) -> tuple[int, set[Element], list[str], list[Atom], list[bool]]:
    """(quantifier rank, constants, ordered free variables, relation atoms,
    their signs) in one walk over the formula.  An atom's sign is True
    under an even number of negations, the left side of ``->`` counting
    as one."""
    consts: set[Element] = set()
    free: list[str] = []
    atoms: list[Atom] = []
    signs: list[bool] = []

    def walk(g: Formula, bound: frozenset[str], positive: bool = True) -> int:
        if isinstance(g, (Atom, Eq)):
            if isinstance(g, Atom):
                atoms.append(g)
                signs.append(positive)
                terms = g.terms
            else:
                terms = (g.left, g.right)
            for t in terms:
                if isinstance(t, Const):
                    consts.add(t.value)
                elif t.name not in bound and t.name not in free:
                    free.append(t.name)
            return 0
        if isinstance(g, Not):
            return walk(g.body, bound, not positive)
        if isinstance(g, (And, Or, Implies)):
            return max(walk(g.left, bound, positive != isinstance(g, Implies)), walk(g.right, bound, positive))
        return 1 + walk(g.body, bound | {g.var}, positive)

    rank = walk(f, frozenset())
    return rank, consts, free, atoms, signs


def free_variables(f: Formula) -> list[str]:
    """Free variables in order of first occurrence."""
    return _analysis(f)[2]


def polarity(f: Formula) -> tuple[bool, bool]:
    """``(monotone, antimonotone)``: every relation atom of ``f`` positive,
    or every one negative (:func:`_analysis`); ``=`` does not count, so a
    formula with no relation atom is both."""
    signs = _analysis(f)[4]
    return all(signs), not any(signs)


def atom_patterns(f: Formula) -> frozenset[Pattern]:
    """One ``(relation, args)`` per distinct atom, each argument its constant
    or ``None`` where a variable stands; only a fact that matches one of
    them can make an atom true under some assignment."""
    return frozenset(
        (a.relation, tuple(t.value if isinstance(t, Const) else None for t in a.terms)) for a in _analysis(f)[3]
    )


def substitute(f: Formula, assignment: Mapping[str, Element]) -> Formula:
    """Replace free variables by constants."""

    def sub_term(t: Term, bound: frozenset[str]) -> Term:
        if isinstance(t, Var) and t.name in assignment and t.name not in bound:
            return Const(assignment[t.name])
        return t

    def walk(g: Formula, bound: frozenset[str]) -> Formula:
        if isinstance(g, Atom):
            return Atom(g.relation, tuple(sub_term(t, bound) for t in g.terms))
        if isinstance(g, Eq):
            return Eq(sub_term(g.left, bound), sub_term(g.right, bound))
        if isinstance(g, Not):
            return Not(walk(g.body, bound))
        if isinstance(g, And):
            return And(walk(g.left, bound), walk(g.right, bound))
        if isinstance(g, Or):
            return Or(walk(g.left, bound), walk(g.right, bound))
        if isinstance(g, Implies):
            return Implies(walk(g.left, bound), walk(g.right, bound))
        if isinstance(g, Exists):
            return Exists(g.var, walk(g.body, bound | {g.var}))
        return Forall(g.var, walk(g.body, bound | {g.var}))

    return walk(f, frozenset())


# --- evaluation --------------------------------------------------------


def walk_pool(
    f: Formula, elements: Iterable[Element], u: Universe
) -> Callable[[dict[Element, Any]], list[Element]]:
    """The quantifier domains of the sentence ``f`` on worlds whose elements
    lie in ``elements``: called with a dict whose keys are such a world's
    elements, the returned function lists the constants, then those keys
    in their order, each once, then as many generic elements outside the
    constants and ``elements`` as the sentence's quantifier rank; for a
    quantifier-free sentence, which never reads the domain, it lists
    nothing.  The one place a domain is formed and generics are picked,
    so a walk over many worlds picks them once."""
    rank, consts, free, *_ = _analysis(f)
    if free:
        raise ValueError(f"sentence expected, found free variables {free}")
    if not rank:
        return lambda world: []
    generics = u.fresh_elements(consts.union(elements), rank)
    head = dict.fromkeys(consts)
    return lambda world: [*(head | world), *generics]


def compile_sentence(f: Formula) -> Callable[[Callable[[str], set[tuple]]], Callable[[list[Element]], bool]]:
    """``f`` as nested closures, bound to a world by ``bind(tuples_of)``,
    where ``bind = compile_sentence(f)`` and ``tuples_of`` maps a relation
    to the world's set of its argument tuples (``Instance.tuples_of``, or
    ``__getitem__`` of a dict of sets): ``bind(tuples_of)(domain)`` is the
    truth of ``f`` on that world with quantifiers over ``domain``.

    The closures read one list: the domain, the tuple set of each relation
    the sentence names, each constant, then one slot per level of
    quantifier nesting.  ``bind`` builds that list once and reads each
    tuple set then, so a world that changes its sets in place (and returns
    the same set for a relation every time) is evaluated again by calling
    the bound closure again; each call writes only the domain slot.  A
    quantifier writes its level's slot, so an inner quantifier that binds a
    variable again leaves the outer binding in place; every term reads a
    slot, so an atom of arity 1 or 2 builds its key directly.  ``=``
    between two constants folds to its truth value.

    The domain lists the generic elements last (:func:`walk_pool`).
    ``exists`` reads it from the front and ``forall`` from the end, so
    ``forall`` meets a generic first, which refutes at once a body that
    needs a fact about its variable.  The order changes how soon a
    quantifier stops, never its truth value.
    """
    rank, consts, free, atoms, _ = _analysis(f)
    if free:
        raise ValueError(f"sentence expected, found free variables {free}")
    relations = list(dict.fromkeys(a.relation for a in atoms))
    const_slot = {c: 1 + len(relations) + i for i, c in enumerate(consts)}
    first_level = 1 + len(relations) + len(const_slot)

    def slots(terms, scope: dict[str, int]) -> list[int]:
        return [scope[t.name] if isinstance(t, Var) else const_slot[t.value] for t in terms]

    def build(g: Formula, scope: dict[str, int], depth: int) -> Callable[[list], bool]:
        if isinstance(g, Atom):
            s = 1 + relations.index(g.relation)
            if all(isinstance(t, Const) for t in g.terms):
                key = tuple(t.value for t in g.terms)
                return lambda env: key in env[s]
            at = slots(g.terms, scope)
            if len(at) == 1:
                (i,) = at
                return lambda env: (env[i],) in env[s]
            if len(at) == 2:
                i, j = at
                return lambda env: (env[i], env[j]) in env[s]
            key_of = itemgetter(*at)
            return lambda env: key_of(env) in env[s]
        if isinstance(g, Eq):
            if isinstance(g.left, Const) and isinstance(g.right, Const):
                truth = g.left.value == g.right.value
                return lambda env: truth
            i, j = slots((g.left, g.right), scope)
            return lambda env: env[i] == env[j]
        if isinstance(g, Not):
            body = build(g.body, scope, depth)
            return lambda env: not body(env)
        if isinstance(g, (And, Or, Implies)):
            left, right = build(g.left, scope, depth), build(g.right, scope, depth)
            if isinstance(g, And):
                return lambda env: left(env) and right(env)
            if isinstance(g, Or):
                return lambda env: left(env) or right(env)
            return lambda env: not left(env) or right(env)
        # a quantifier looks for a witness (exists) or a counterexample (forall);
        # every closure returns a bool, so ``is`` compares truth values; forall
        # reads the domain from the end, where the generics are
        k, witness = first_level + depth, isinstance(g, Exists)
        body = build(g.body, {**scope, g.var: k}, depth + 1)
        scan = iter if witness else reversed

        def quantifier(env: list) -> bool:
            for e in scan(env[0]):
                env[k] = e
                if body(env) is witness:
                    return witness
            return not witness

        return quantifier

    node, rest = build(f, {}, 0), (*const_slot, *[None] * rank)

    def bind(tuples_of: Callable[[str], set[tuple]]) -> Callable[[list[Element]], bool]:
        env = [None, *map(tuples_of, relations), *rest]

        def run(domain: list[Element]) -> bool:
            env[0] = domain
            return node(env)

        return run

    return bind


def eval_boolean(
    d: Any, f: Formula, u: Universe, *,
    domain: list[Element] | None = None, compiled: Callable[[list[Element]], bool] | None = None,
) -> bool:
    """Truth of a sentence on a finite instance ``d`` over an infinite universe.

    Quantifiers range over the domain that :func:`walk_pool` forms from the
    active domain of ``d``.  A caller that evaluates a sentence on many
    worlds compiles it once (:func:`compile_sentence`), binds it to a world
    whose tuple sets change in place, takes one :func:`walk_pool` for all
    of them, and passes the world as ``d`` (any object then, since only
    the closures read it), its domain as ``domain`` and the bound closures
    as ``compiled``.
    """
    if domain is None:
        adom = active_domain(d)
        domain = walk_pool(f, adom, u)(dict.fromkeys(adom))
    return (compiled or compile_sentence(f)(d.tuples_of))(domain)


def groundings(f: Formula, elements: set[Element], u: Universe) -> Iterator[tuple[tuple, Formula]]:
    """``(key, sentence)`` for each grounding of the open formula ``f``.

    The candidates are ``elements`` and the formula's constants, in
    ``core``'s element order; any other element is generic.  A tuple with
    generic elements stands for every tuple that repeats them at the same
    positions, so each such pattern is grounded once, on fresh elements in
    first-use order, its key naming the j-th ``Fresh(j)``.  Keys come in
    lexicographic order, candidates before fresh elements.
    """
    _, consts, free, *_ = _analysis(f)
    taken = elements | consts
    fresh = u.fresh_elements(taken, len(free))
    names = {e: Fresh(j) for j, e in enumerate(fresh, 1)}
    for combo in itertools.product(sorted(taken, key=_element_key) + fresh, repeat=len(free)):
        used = [e for e in dict.fromkeys(combo) if e in names]
        if used == fresh[: len(used)]:
            yield tuple(names.get(e, e) for e in combo), substitute(f, dict(zip(free, combo)))
