"""First-order queries: concrete syntax, analysis and evaluation.

Grammar (precedence ``!`` > ``&`` > ``|`` > ``->``; quantifiers extend
right as far as possible)::

    formula  := 'exists' VAR '.' formula
              | 'forall' VAR '.' formula
              | implication
    atom     := REL '(' [term (',' term)*] ')'    (no term iff REL is 0-ary)
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

A formula carries its analysis (:func:`_analysis`), worked out the first
time ``f.analysis`` is read, and is compiled once into nested closures
(:func:`compile_sentence`), which are bound to a world that may change in
place, and an open formula's free variables to one grounding's values; a
caller that evaluates it on many worlds passes the bound closures to
:func:`eval_boolean` with every world and its domain.
A constant outside the universe names no element, so no domain holds it.

Open formulas are grounded in one place, :func:`groundings`, which yields
values, not sentences: on every tuple of candidates, and on one
representative per pattern of generic elements, keyed by the
:class:`Fresh` sentinel, which stands for every tuple that repeats those
generic elements at the same positions (:func:`approx.approx_nonboolean`
reads its marginals per key).
"""

from __future__ import annotations

import functools
import itertools
import re
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator

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


class Formula(Record):
    """Base of the eight formula records below."""

    @functools.cached_property
    def analysis(self) -> tuple[int, set[Element], list[str], list[tuple[str, tuple]], list[bool]]:
        """:func:`_analysis` of this formula, worked out when first read;
        every reader shares its set and lists, so none may change them."""
        return _analysis(self)


class Atom(Formula):
    relation: str
    terms: tuple[Term, ...]


class Eq(Formula):
    left: Term
    right: Term


class Not(Formula):
    body: "Formula"


class And(Formula):
    left: "Formula"
    right: "Formula"


class Or(Formula):
    left: "Formula"
    right: "Formula"


class Implies(Formula):
    left: "Formula"
    right: "Formula"


class Exists(Formula):
    var: str
    body: "Formula"


class Forall(Formula):
    var: str
    body: "Formula"


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
        arity = self.schema.arity_of(relation)
        if not arity and self._accept(")"):
            return Atom(relation, ())
        terms = [self._term()]
        while not self._accept(")"):
            if not self._accept(","):
                kind, value, p = self.toks[self.i]
                raise QuerySyntaxError(f"expected ',' or ')' in argument list, found {value or kind!r}", p)
            terms.append(self._term())
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


def _analysis(f: Formula) -> tuple[int, set[Element], list[str], list[tuple[str, tuple]], list[bool]]:
    """(quantifier rank, constants, ordered free variables, one pattern per
    relation atom, their signs) in one walk over the formula.  An atom's
    pattern is its relation and, per position, its constant, ``None`` for a
    bound variable or the :class:`Var` of a free one.  An atom's sign is
    True under an even number of negations, the left side of ``->``
    counting as one."""
    consts: set[Element] = set()
    free: list[str] = []
    atoms: list[tuple[str, tuple]] = []
    signs: list[bool] = []

    def walk(g: Formula, bound: frozenset[str], positive: bool = True) -> int:
        if isinstance(g, (Atom, Eq)):
            terms = g.terms if isinstance(g, Atom) else (g.left, g.right)
            for t in terms:
                if isinstance(t, Const):
                    consts.add(t.value)
                elif t.name not in bound and t.name not in free:
                    free.append(t.name)
            if isinstance(g, Atom):
                atoms.append((g.relation, tuple(
                    t.value if isinstance(t, Const) else None if t.name in bound else t for t in terms
                )))
                signs.append(positive)
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
    return f.analysis[2]


def polarity(f: Formula) -> tuple[bool, bool]:
    """``(monotone, antimonotone)``: every relation atom of ``f`` positive,
    or every one negative (:func:`_analysis`); ``=`` does not count, so a
    formula with no relation atom is both."""
    signs = f.analysis[4]
    return all(signs), not any(signs)


# --- evaluation --------------------------------------------------------


def walk_pool(f: Formula, elements: Iterable[Element], u: Universe) -> Callable[[dict[Element, Any]], list[Element]]:
    """The quantifier domains of ``f`` on worlds whose elements lie in
    ``elements``: called with a dict whose keys are such a world's
    elements, the returned function lists the constants that lie in ``u``,
    then those keys in their order, each once, then as many generic
    elements outside the constants and ``elements`` as the formula's
    quantifier rank; for a quantifier-free formula, which never reads the
    domain, it lists nothing.  For an open formula the caller lists the
    values of its free variables first among a world's keys, and
    ``elements`` holds every value they take.  The one place a domain is
    formed and generics are picked, so a walk over many worlds, or the
    walks of every grounding of one formula, pick them once."""
    rank, consts = f.analysis[:2]
    if not rank:
        return lambda world: []
    generics = u.fresh_elements(consts.union(elements), rank)
    head = dict.fromkeys(c for c in consts if u.contains(c))
    return lambda world: [*(head | world), *generics]


def compile_sentence(f: Formula) -> Callable[..., Callable[[list[Element]], bool]]:
    """``f`` as nested closures, bound to a world by ``bind(tuples_of)``,
    where ``bind = compile_sentence(f)`` and ``tuples_of`` maps a relation
    to the world's set of its argument tuples (``Instance.tuples_of``, or
    ``__getitem__`` of a dict of sets): ``bind(tuples_of)(domain)`` is the
    truth of ``f`` on that world with quantifiers over ``domain``.  An open
    formula is bound to one grounding as well, by
    ``bind(tuples_of, values)`` with one value per free variable in the
    order of :func:`free_variables`; a sentence takes none.

    The closures read one list: the domain, the tuple set of each relation
    the formula names, each constant, each free variable's value, then one
    slot per level of quantifier nesting.  ``bind`` builds that list once
    and reads each tuple set then, so a world that changes its sets in
    place (and returns the same set for a relation every time) is
    evaluated again by calling the bound closure again; each call writes
    only the domain slot.  A quantifier writes its level's slot, so an
    inner quantifier that binds a variable again leaves the outer binding
    in place; every term reads a slot, so an atom of arity 1 or 2 builds
    its key directly.  ``=`` between two constants folds to its truth
    value.

    The domain lists the generic elements last (:func:`walk_pool`).
    ``exists`` reads it from the front and ``forall`` from the end, so
    ``forall`` meets a generic first, which refutes at once a body that
    needs a fact about its variable.  The order changes how soon a
    quantifier stops, never its truth value.
    """
    rank, consts, free, atoms, _ = f.analysis
    relations = list(dict.fromkeys(relation for relation, _ in atoms))
    const_slot = {c: 1 + len(relations) + i for i, c in enumerate(consts)}
    free_slot = {v: 1 + len(relations) + len(const_slot) + j for j, v in enumerate(free)}
    first_level = 1 + len(relations) + len(const_slot) + len(free)

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

    node, levels = build(f, free_slot, 0), [None] * rank

    def bind(tuples_of: Callable[[str], set[tuple]], values: tuple = ()) -> Callable[[list[Element]], bool]:
        if len(values) != len(free):
            raise ValueError(f"one value per free variable {free} expected, got {len(values)}")
        env = [None, *map(tuples_of, relations), *const_slot, *values, *levels]

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
    active domain of ``d``; that domain and its closures read the one
    analysis the sentence carries.  A caller that evaluates a formula on
    many worlds compiles it once (:func:`compile_sentence`), binds it to a
    world whose tuple sets change in place (an open formula to one
    grounding), takes one :func:`walk_pool` for all of them, and passes the
    world as ``d`` (any object then, since only the closures read it), its
    domain as ``domain`` and the bound closures as ``compiled``.
    """
    if domain is None:
        adom = active_domain(d)
        domain = walk_pool(f, adom, u)(dict.fromkeys(adom))
    return (compiled or compile_sentence(f)(d.tuples_of))(domain)


def groundings(f: Formula, elements: set[Element], u: Universe) -> Iterator[tuple[tuple, tuple]]:
    """``(key, values)`` for each grounding of the open formula ``f``: the
    values of its free variables, in the order of :func:`free_variables`,
    which ``compile_sentence(f)``'s ``bind`` takes.

    The candidates are ``elements`` and the formula's constants that lie
    in ``u``, in ``core``'s element order; any other element of ``u`` is
    generic.  A tuple with generic elements stands for every tuple that
    repeats them at the same positions, so each such pattern is grounded
    once, on fresh elements in first-use order, its key naming the j-th
    ``Fresh(j)``.  Keys come in lexicographic order, candidates before
    fresh elements.
    """
    _, consts, free, *_ = f.analysis
    taken = elements | {c for c in consts if u.contains(c)}
    fresh = u.fresh_elements(taken, len(free))
    names = {e: Fresh(j) for j, e in enumerate(fresh, 1)}
    for combo in itertools.product(sorted(taken, key=_element_key) + fresh, repeat=len(free)):
        if names.keys().isdisjoint(combo):  # a tuple of candidates is its own key
            yield combo, combo
            continue
        used = [e for e in dict.fromkeys(combo) if e in names]
        if used == fresh[: len(used)]:
            yield tuple(map(names.get, combo, combo)), combo
