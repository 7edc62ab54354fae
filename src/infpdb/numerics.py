"""Log-domain products of probabilities and rigorous tail enclosures.

Every probability that the engine derives from a (possibly infinite)
product of factors ``1 - p`` goes through this module.  Products are
accumulated as sums of ``log1p(-p)`` because linear-domain products over
hundreds of near-one factors lose precision.  Infinite tails are never
evaluated exactly; they are enclosed between the trivial upper bound
(every remaining factor is at most one) and the lower bound

    prod_i (1 - p_i)  >=  exp(-(3/2) * sum_i p_i)      for all p_i <= 1/2,

which follows from truncating the Taylor expansion of ``log(1 - p)``
after the linear term and absorbing the remainder into an extra ``p/2``.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .record import Record

SUBSET_EXPANSION_CAP = 20


class CompensatedAccumulator:
    """Incremental Neumaier summation for streaming accumulation."""

    __slots__ = ("_total", "_comp")

    def __init__(self):
        self._total = 0.0
        self._comp = 0.0

    def add(self, x: float) -> None:
        t = self._total + x
        if abs(self._total) >= abs(x):
            self._comp += (self._total - t) + x
        else:
            self._comp += (x - t) + self._total
        self._total = t

    @property
    def value(self) -> float:
        return self._total + self._comp


def compensated_sum(xs: Iterable[float]) -> float:
    """Neumaier-compensated sum; order-sensitive only at the 1-ulp level."""
    acc = CompensatedAccumulator()
    for x in xs:
        acc.add(x)
    return acc.value


class LogProbability(Record):
    """A probability stored as its natural log, in [-inf, 0].

    ``value == -inf`` encodes probability zero.
    """

    value: float

    def __post_init__(self):
        if math.isnan(self.value) or self.value > 0.0:
            raise ValueError(f"log-probability must lie in [-inf, 0], got {self.value}")

    @property
    def probability(self) -> float:
        return math.exp(self.value)

    def __mul__(self, other: "LogProbability") -> "LogProbability":
        return LogProbability(self.value + other.value)


class ProbabilityInterval(Record):
    """A closed interval ``[lo, hi]`` of probabilities."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (0.0 <= self.lo <= self.hi <= 1.0):
            raise ValueError(f"invalid probability interval [{self.lo}, {self.hi}]")

    @classmethod
    def point(cls, p: float) -> "ProbabilityInterval":
        return cls(p, p)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains(self, p: float) -> bool:
        return self.lo <= p <= self.hi

    def scale(self, factor: float) -> "ProbabilityInterval":
        """Multiply both endpoints by a scalar in [0, 1]."""
        if not 0.0 <= factor <= 1.0:
            raise ValueError(f"scale factor must be a probability, got {factor}")
        return ProbabilityInterval(self.lo * factor, self.hi * factor)


def _check_probabilities(ps: Sequence[float]) -> None:
    for p in ps:
        if math.isnan(p) or not (0.0 <= p <= 1.0):
            raise ValueError(f"probability out of range [0, 1]: {p!r}")


def log_product_one_minus(ps: Sequence[float]) -> LogProbability:
    """Log of ``prod (1 - p)`` over a finite sequence of probabilities.

    The summands ``log1p(-p)`` are accumulated in ascending sorted order
    with compensation, so the result is exactly permutation-invariant.
    Returns -inf iff some ``p`` equals 1.
    """
    _check_probabilities(ps)
    if any(p == 1.0 for p in ps):
        return LogProbability(-math.inf)
    terms = sorted(math.log1p(-p) for p in ps)
    total = compensated_sum(terms)
    return LogProbability(min(total, 0.0))


def euler_tail_lower_bound(tail_sum: float) -> float:
    """Lower bound ``exp(-(3/2) * tail_sum)`` on an unseen tail product.

    Valid whenever every probability in the tail is at most 1/2, which
    the caller must guarantee; the bound is vacuously exact at 0.
    """
    if math.isnan(tail_sum) or tail_sum < 0.0:
        raise ValueError(f"tail sum must be nonnegative, got {tail_sum!r}")
    return math.exp(-1.5 * tail_sum)


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
