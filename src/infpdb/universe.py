"""Enumerable infinite universes and the canonical enumeration of facts.

The engine needs a fixed, computable, bijective listing f_1, f_2, ... of
all facts of a schema: tails of fact probabilities, truncation indices
and samplers are all expressed relative to this order.  Two universes
are supported:

* ``naturals`` -- elements are the positive integers, listed as themselves;
* ``strings``  -- elements are the strings over a finite alphabet, listed
  in shortlex order (for a binary alphabet this is the classic bijection
  where the string ``x`` stands for the integer with binary digits ``1x``).

Tuples are enumerated diagonally via iterated Cantor pairing and relation
symbols interleave round-robin in schema declaration order, so the fact
listing is a bijection with a computable inverse.  With m relations, the
k-th fact of the relation at schema position pos (from 0) is canonical
fact ``(k - 1) * m + pos + 1``, so a supply of one relation's facts
strides through this listing instead of keeping a second one.
"""

from __future__ import annotations

import math

from .core import Fact, Schema
from .record import Record

Element = int | str


def cantor_pair(x: int, y: int) -> int:
    """Diagonal pairing of positive integers; (1,1) -> 1, (1,2) -> 2, (2,1) -> 3."""
    d = x + y
    return (d - 1) * (d - 2) // 2 + x


def cantor_unpair(k: int) -> tuple[int, int]:
    if k < 1:
        raise ValueError(f"pair index must be >= 1, got {k}")
    # largest d with (d-1)(d-2)/2 < k
    d = (1 + math.isqrt(8 * k)) // 2
    while (d - 1) * (d - 2) // 2 >= k:
        d -= 1
    while d * (d - 1) // 2 < k:
        d += 1
    x = k - (d - 1) * (d - 2) // 2
    return x, d - x


def tuple_at(k: int, arity: int) -> tuple[int, ...]:
    """The k-th tuple of positive integers of the given arity, diagonal order."""
    if k < 1:
        raise ValueError(f"tuple index must be >= 1, got {k}")
    if arity < 1:
        raise ValueError(f"arity must be >= 1, got {arity}")
    out = []
    for _ in range(arity - 1):
        x, k = cantor_unpair(k)
        out.append(x)
    return (*out, k)


def tuple_index(t: tuple[int, ...], limit: int | None = None) -> int:
    """Inverse of :func:`tuple_at` for the tuple's own arity.

    Each pairing roughly squares the index, so a few dozen positions give
    it millions of digits.  Given ``limit``, the pairing stops once the
    index passes it and returns that partial index: a pairing never lowers
    it, so the result is exact up to ``limit`` and past it otherwise."""
    if len(t) == 0:
        raise ValueError("empty tuple has no diagonal index")
    if any(x < 1 for x in t):
        raise ValueError(f"tuple components must be >= 1, got {t}")
    k = t[-1]
    for x in reversed(t[:-1]):
        if limit is not None and k > limit:
            break
        k = cantor_pair(x, k)
    return k


class Universe(Record):
    """A countably infinite, computably enumerable supply of elements."""

    kind: str  # "naturals" | "strings"
    alphabet: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind == "naturals":
            if self.alphabet:
                raise ValueError("naturals universe takes no alphabet")
        elif self.kind == "strings":
            if not self.alphabet:
                raise ValueError("strings universe needs a nonempty alphabet")
            if len(set(self.alphabet)) != len(self.alphabet):
                raise ValueError("alphabet symbols must be distinct")
            if any(len(s) != 1 for s in self.alphabet):
                raise ValueError("alphabet symbols must be single characters")
            # the alphabet as one string, so that contains checks at C speed
            object.__setattr__(self, "_symbols", "".join(self.alphabet))
        else:
            raise ValueError(f"unknown universe kind {self.kind!r}")

    @classmethod
    def naturals(cls) -> "Universe":
        return cls("naturals")

    @classmethod
    def strings(cls, alphabet: str) -> "Universe":
        return cls("strings", tuple(alphabet))

    def contains(self, e: Element) -> bool:
        if self.kind == "naturals":
            return isinstance(e, int) and not isinstance(e, bool) and e >= 1
        # strip removes every alphabet symbol from both ends: a string over
        # the alphabet, and only such a string, strips to ""
        return isinstance(e, str) and not e.strip(self._symbols)

    def element_at(self, k: int) -> Element:
        """The k-th universe element (k >= 1); identity on naturals, shortlex on strings."""
        if k < 1:
            raise ValueError(f"element index must be >= 1, got {k}")
        if self.kind == "naturals":
            return k
        b = len(self.alphabet)
        # skip the b**L strings of each shorter length L, then read base-b digits
        i = k - 1
        length = 0
        block = 1
        while i >= block:
            i -= block
            length += 1
            block *= b
        digits = []
        for _ in range(length):
            digits.append(i % b)
            i //= b
        return "".join(self.alphabet[d] for d in reversed(digits))

    def element_index(self, e: Element) -> int:
        """Inverse of :meth:`element_at`."""
        if not self.contains(e):
            raise ValueError(f"element {e!r} is not in this universe")
        if self.kind == "naturals":
            return e  # type: ignore[return-value]
        b = len(self.alphabet)
        pos = {ch: i for i, ch in enumerate(self.alphabet)}
        before = 0
        block = 1
        for _ in range(len(e)):  # type: ignore[arg-type]
            before += block
            block *= b
        offset = 0
        for ch in e:  # type: ignore[union-attr]
            offset = offset * b + pos[ch]
        return before + offset + 1

    def fresh_elements(self, taken: set[Element], count: int) -> list[Element]:
        """The first ``count`` elements outside ``taken``, in enumeration order."""
        out: list[Element] = []
        k = 1
        while len(out) < count:
            e = self.element_at(k)
            if e not in taken:
                out.append(e)
            k += 1
        return out


class FactEnumeration(Record):
    """Deterministic bijection between positive integers and all facts of a schema."""

    schema: Schema
    universe: Universe

    def __post_init__(self):
        for name, arity in self.schema.relations:
            if arity < 1:
                raise ValueError(
                    f"fact enumeration requires arity >= 1, relation {name!r} has {arity}"
                )

    def fact_at(self, k: int) -> Fact:
        if k < 1:
            raise ValueError(f"fact index must be >= 1, got {k}")
        rels = self.schema.relations
        m = len(rels)
        name, arity = rels[(k - 1) % m]
        t = (k - 1) // m + 1
        args = tuple(self.universe.element_at(i) for i in tuple_at(t, arity))
        return Fact(name, args)

    def fact_index(self, f: Fact, limit: int | None = None) -> int:
        """Inverse of :meth:`fact_at`; exact up to ``limit``, past it otherwise
        (:func:`tuple_index`)."""
        rels = self.schema.relations
        names = [name for name, _ in rels]
        if f.relation not in names:
            raise ValueError(f"relation {f.relation!r} not in schema")
        pos = names.index(f.relation)
        arity = rels[pos][1]
        if len(f.args) != arity:
            raise ValueError(f"fact {f} has arity {len(f.args)}, schema says {arity}")
        indices = tuple(self.universe.element_index(e) for e in f.args)
        t = tuple_index(indices, limit)
        return (t - 1) * len(rels) + pos + 1
