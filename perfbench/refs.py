"""Reference models that check the engine's answers.

Everything here is plain Python over the spec JSON. It imports nothing
from ``infpdb`` except the brute-force oracle (``infpdb.oracle``), which
the engine's own tests treat as the independent evidence path. Facts are
``(relation, args)`` tuples; instances are frozensets of facts.

The fact listing (Cantor pairing, relation interleaving), the tail
masses and the instance probabilities are re-derived here from the
paper's definitions, so a fault in ``universe``, ``independence``,
``numerics`` or ``approx`` cannot hide in the reference as well.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property

# Relative slack when a reference point must lie in an engine interval.
# The engine's enclosures are ~1e-12 wide; both sides round at ~1e-14.
ENCLOSE_RTOL = 1e-11
# Terms of the tail product beyond this probability are below 1 ulp.
TAIL_TERM_FLOOR = 1e-20


# --- the canonical fact listing ------------------------------------------


def pair(x: int, y: int) -> int:
    s = x + y
    return (s - 1) * (s - 2) // 2 + x


def unpair(k: int) -> tuple[int, int]:
    s = 2
    while (s - 1) * s // 2 < k:
        s += 1
    x = k - (s - 1) * (s - 2) // 2
    return x, s - x


def tuple_index(args: tuple[int, ...]) -> int:
    if len(args) == 1:
        return args[0]
    return pair(args[0], tuple_index(args[1:]))


def tuple_at(k: int, arity: int) -> tuple[int, ...]:
    if arity == 1:
        return (k,)
    x, rest = unpair(k)
    return (x,) + tuple_at(rest, arity - 1)


def fact_json(f) -> dict:
    return {"relation": f[0], "args": list(f[1])}


def fact_of(obj: dict) -> tuple:
    return (obj["relation"], tuple(obj["args"]))


def instance_of(obj: dict) -> frozenset:
    return frozenset(fact_of(f) for f in obj.get("facts", ()))


# --- spec model ------------------------------------------------------------


class Tail:
    """A geometric tail ``p = c * q**i`` over one supply, with exclusions."""

    def __init__(self, obj: dict, relations: list[tuple[str, int]], universe: dict):
        self.c = float(obj["c"])
        self.q = float(obj["q"])
        supply = obj.get("supply", {"type": "enumeration"})
        self.type = supply.get("type", "enumeration")
        self.relations = relations
        self.strings = universe["kind"] == "strings"
        if self.type == "enumeration":
            if self.strings:
                raise ValueError("reference lists enumeration supplies over naturals only")
            self.relation = supply.get("relation")
            self.offset = int(supply.get("offset", 0))
            self.first = self.offset + 1
            self.fixed = ()
        else:
            self.relation = supply["relation"]
            self.index_position = int(supply["index_position"])
            self.fixed = tuple(
                (int(pos), tuple(vals))
                for pos, vals in sorted(supply["fixed"].items(), key=lambda kv: int(kv[0]))
            )
            self.first = 1
        self.exclude = frozenset(fact_of(e) for e in obj.get("exclude", ()))

    @property
    def multiplicity(self) -> int:
        return math.prod(len(vals) for _, vals in self.fixed) if self.fixed else 1

    def rule(self, i: int) -> float:
        return self.c * self.q**i

    def raw_index(self, f) -> int | None:
        """Intrinsic index of a fact the supply lists, ignoring exclusions."""
        rel, args = f
        arities = dict(self.relations)
        if rel not in arities or len(args) != arities[rel]:
            return None
        if self.type == "enumeration":
            if not all(isinstance(a, int) and not isinstance(a, bool) and a >= 1 for a in args):
                return None
            t = tuple_index(args)
            if self.relation is None:
                names = [r for r, _ in self.relations]
                i = (t - 1) * len(names) + names.index(rel) + 1
            elif rel == self.relation:
                i = t
            else:
                return None
            return i if i >= self.first else None
        if rel != self.relation:
            return None
        idx = args[self.index_position - 1]
        if self.strings:
            if not (isinstance(idx, str) and idx.isdigit() and idx[0] != "0"):
                return None
            i = int(idx)
        else:
            if not (isinstance(idx, int) and idx >= 1):
                return None
            i = idx
        by_pos = dict(self.fixed)
        for pos, a in enumerate(args, start=1):
            if pos != self.index_position and a not in by_pos[pos]:
                return None
        return i

    def index(self, f) -> int | None:
        return None if f in self.exclude else self.raw_index(f)

    def facts_at(self, i: int) -> list:
        """Facts of intrinsic index i, in the supply's order, before exclusion."""
        if self.type == "enumeration":
            if self.relation is None:
                m = len(self.relations)
                rel, arity = self.relations[(i - 1) % m]
                return [(rel, tuple_at((i - 1) // m + 1, arity))]
            return [(self.relation, tuple_at(i, dict(self.relations)[self.relation]))]
        elem = str(i) if self.strings else i
        arity = dict(self.relations)[self.relation]
        lists = [vals for _, vals in self.fixed]
        out = []
        for combo in itertools.product(*lists):
            it = iter(combo)
            args = tuple(elem if p == self.index_position else next(it) for p in range(1, arity + 1))
            out.append((self.relation, args))
        return out

    def listing(self):
        """(index, fact, p) for every tail fact in canonical order."""
        i = self.first
        while True:
            p = self.rule(i)
            for f in self.facts_at(i):
                if f not in self.exclude:
                    yield i, f, p
            i += 1

    def excluded_mass(self) -> float:
        return math.fsum(
            self.rule(i) for f in self.exclude if (i := self.raw_index(f)) is not None
        )

    @cached_property
    def mass(self) -> float:
        gross = self.multiplicity * self.c * self.q**self.first / (1.0 - self.q)
        return gross - self.excluded_mass()

    def mass_after(self, k: int) -> float:
        """Mass of the tail facts after the first k of the listing."""
        seen = math.fsum(p for _, _, p in itertools.islice(self.listing(), k))
        return self.mass - seen

    @cached_property
    def log_product(self) -> float:
        """``sum log(1 - p)`` over every tail fact, to below one ulp."""
        terms = []
        i = self.first
        m = self.multiplicity
        while True:
            p = self.rule(i)
            if p < TAIL_TERM_FLOOR:
                break
            terms.append(m * math.log1p(-p))
            i += 1
        terms.extend(
            -math.log1p(-self.rule(i)) for f in self.exclude if (i := self.raw_index(f)) is not None
        )
        return math.fsum(terms)


class Spec:
    """Plain reading of one spec file."""

    def __init__(self, obj: dict):
        self.kind = obj["kind"]
        self.relations = [(r, int(a)) for r, a in obj["schema"].items()]
        self.universe = obj.get("universe", {"kind": "naturals"})
        self.head = [(fact_of(h), float(h["p"])) for h in obj.get("head_facts", ())]
        self.head = [(f, p) for f, p in self.head if p > 0.0]
        self.head_p = dict(self.head)
        self.tail = Tail(obj["tail"], self.relations, self.universe) if obj.get("tail") else None
        blocks = obj.get("blocks") or {}
        self.key_widths = {r: int(j) for r, j in blocks.get("keys", {}).items()}
        self.explicit = {fact_of(e): e["block"] for e in blocks.get("explicit", ())}
        self.worlds = None
        if obj.get("worlds") is not None:
            self.worlds = {}
            for w in obj["worlds"]:
                self.worlds[instance_of(w)] = self.worlds.get(instance_of(w), 0.0) + float(w["p"])

    # -- masses ---------------------------------------------------------------

    @property
    def tail_mass(self) -> float:
        return self.tail.mass if self.tail is not None else 0.0

    @property
    def total_mass(self) -> float:
        return math.fsum(p for _, p in self.head) + self.tail_mass

    def finite_expected_size(self) -> float:
        return math.fsum(p * len(d) for d, p in self.worlds.items())

    @property
    def base_facts(self) -> frozenset:
        return frozenset().union(*self.worlds) if self.worlds else frozenset()

    def expected_size(self) -> float:
        if self.kind == "finite":
            return self.finite_expected_size()
        if self.kind == "completion":
            return self.finite_expected_size() + self.total_mass
        return self.total_mass

    # -- probabilities --------------------------------------------------------

    def prob_of(self, f) -> float:
        p = self.head_p.get(f)
        if p is not None:
            return p
        if self.tail is not None:
            i = self.tail.index(f)
            if i is not None:
                return self.tail.rule(i)
        return 0.0

    def block_key(self, f):
        if f in self.explicit:
            return ("explicit", self.explicit[f])
        if f[0] in self.key_widths:
            return ("key", f[0], f[1][: self.key_widths[f[0]]])
        return ("fact", f)

    def is_good(self, d) -> bool:
        keys = [self.block_key(f) for f in d]
        return len(keys) == len(set(keys))

    def _tail_log(self, d) -> float:
        """log of ``prod (1 - p)`` over the tail facts absent from d."""
        if self.tail is None:
            return 0.0
        present = [self.tail.rule(i) for f in d if (i := self.tail.index(f)) is not None]
        return math.fsum([self.tail.log_product] + [-math.log1p(-p) for p in present])

    def ti_prob(self, d) -> float:
        logs = []
        for f in d:
            p = self.prob_of(f)
            if p <= 0.0:
                return 0.0
            logs.append(math.log(p))
        for f, p in self.head:
            if f not in d:
                if p >= 1.0:
                    return 0.0
                logs.append(math.log1p(-p))
        logs.append(self._tail_log(d))
        return math.exp(math.fsum(logs))

    def bid_prob(self, d) -> float:
        if not self.is_good(d):
            return 0.0
        blocks: dict = {}
        for f, p in self.head:
            blocks.setdefault(self.block_key(f), []).append(p)
        logs = []
        touched = set()
        for f in d:
            p = self.prob_of(f)
            if p <= 0.0:
                return 0.0
            logs.append(math.log(p))
            if f in self.head_p:
                touched.add(self.block_key(f))
        for key, ps in blocks.items():
            if key not in touched:
                rest = max(0.0, 1.0 - math.fsum(ps))
                if rest <= 0.0:
                    return 0.0
                logs.append(math.log(rest))
        logs.append(self._tail_log(d))
        return math.exp(math.fsum(logs))

    def completion_prob(self, d) -> float:
        base = self.base_facts
        p_base = self.worlds.get(frozenset(f for f in d if f in base), 0.0)
        if p_base == 0.0:
            return 0.0
        return p_base * self.ti_prob(frozenset(f for f in d if f not in base))

    def instance_prob(self, d) -> float:
        if self.kind == "bid":
            return self.bid_prob(d)
        if self.kind == "completion":
            return self.completion_prob(d)
        if self.kind == "finite":
            return self.worlds.get(d, 0.0)
        return self.ti_prob(d)

    # -- support and marginals -------------------------------------------------

    def in_support(self, f) -> bool:
        return self.prob_of(f) > 0.0

    def marginals(self) -> dict:
        """Marginal probability of each explicitly listed fact."""
        out = dict(self.head)
        if self.worlds is not None:
            for f in self.base_facts:
                out[f] = math.fsum(p for d, p in self.worlds.items() if f in d)
        return out

    def first_facts(self, n: int) -> list:
        """The first n facts of the canonical listing: head, then tail."""
        out = list(self.head[:n])
        if n > len(out):
            out.extend((f, p) for _, f, p in itertools.islice(self.tail.listing(), n - len(out)))
        return out


def encloses(lo: float, hi: float, ref: float) -> bool:
    """True iff the reference point lies in a tight interval ``[lo, hi]``."""
    if not (0.0 <= lo <= hi <= 1.0):
        return False
    if hi - lo > 1e-9 * hi:
        return False
    slack = ENCLOSE_RTOL * max(abs(ref), hi)
    return lo - slack <= ref <= hi + slack


def close(a: float, b: float, rtol: float = 1e-12) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def certificate_ok(spec: Spec, n: int, epsilon: float) -> bool:
    """The truncation after n facts is eps-safe by the paper's tail bound."""
    allowed = min(math.log1p(epsilon), -math.log1p(-epsilon))
    h = len(spec.head)
    if n < h:
        return False
    if spec.tail is None:
        return n == h
    unseen = spec.tail.mass_after(n - h)
    nxt = next(itertools.islice(spec.tail.listing(), n - h, None))[2]
    return nxt <= 0.5 and 1.5 * unseen <= allowed * (1.0 + 1e-9)


# --- query shapes ----------------------------------------------------------
#
# Each predicate decides one query on a finite world given as a set of facts,
# over an infinite universe: a quantifier over all elements always meets
# elements outside the world's active domain.

def _r_edges(world):
    return [args for rel, args in world if rel == "R"]


def _s_elems(world):
    return {args[0] for rel, args in world if rel == "S"}


def q_hier(world) -> bool:  # exists x. S(x)
    return bool(_s_elems(world))


def q_selfjoin(world) -> bool:  # exists x. exists y. R(x, y) & !(x = y)
    return any(x != y for x, y in _r_edges(world))


def q_alt(world) -> bool:  # forall x. exists y. R(x, y) | S(x)
    return False  # an element outside the world satisfies neither disjunct


def q_guarded(world) -> bool:  # forall x. S(x) -> exists y. R(x, y)
    sources = {x for x, _ in _r_edges(world)}
    return _s_elems(world) <= sources


def q_open_out(world, x) -> bool:  # exists y. R(x, y), x free
    return any(a == x for a, _ in _r_edges(world))


BOOLEAN_SHAPES = {
    "hier": ("exists x. S(x)", q_hier),
    "selfjoin": ("exists x. exists y. R(x, y) & !(x = y)", q_selfjoin),
    "alt": ("forall x. exists y. R(x, y) | S(x)", q_alt),
    "guarded": ("forall x. S(x) -> exists y. R(x, y)", q_guarded),
}
OPEN_SHAPES = {"open_out": ("exists y. R(x, y)", q_open_out)}


def oracle_prob(facts: list, predicate) -> float:
    """Probability of a predicate over the independent facts, by the oracle."""
    from infpdb.core import Fact
    from infpdb.oracle import enumerate_worlds, exact_event_prob

    worlds = enumerate_worlds([(Fact(r, a), p) for (r, a), p in facts])
    return exact_event_prob(worlds, lambda d: predicate(frozenset((f.relation, f.args) for f in d)))


def oracle_marginals(facts: list, predicate, candidates) -> dict:
    """Per-candidate probabilities of an open predicate, by the oracle."""
    from infpdb.core import Fact
    from infpdb.oracle import enumerate_worlds, exact_event_prob

    worlds = enumerate_worlds([(Fact(r, a), p) for (r, a), p in facts])
    plain = {d: frozenset((f.relation, f.args) for f in d) for d in worlds}
    return {
        x: exact_event_prob(worlds, lambda d, x=x: predicate(plain[d], x)) for x in candidates
    }
