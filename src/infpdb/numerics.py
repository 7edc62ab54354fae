"""Log-domain products of probabilities and rigorous tail enclosures.

One rule computes every finite product of factors ``1 - p``: it is
``exp`` of one ``math.fsum`` of the terms ``log1p(-p)``, because
linear-domain products over hundreds of near-one factors lose precision,
and ``fsum`` adds the terms exactly, in any order.  In ``independence``
a space fixes its blocks' terms at construction and an instance sums
them less its touched blocks' terms, and a tail's enclosure sums them
per index group.
Infinite tails are never evaluated exactly; they are enclosed between
the trivial upper bound (every remaining factor is at most one) and the
lower bound

    prod_i (1 - p_i)  >=  exp(-(3/2) * sum_i p_i)      for all p_i <= 1/2,

which follows from truncating the Taylor expansion of ``log(1 - p)``
after the linear term and absorbing the remainder into an extra ``p/2``.
"""

from __future__ import annotations

import math

from .record import Record

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
    def is_point(self) -> bool:
        return self.lo == self.hi

    def scale(self, factor: float) -> "ProbabilityInterval":
        """Multiply both endpoints by a scalar in [0, 1]."""
        if not 0.0 <= factor <= 1.0:
            raise ValueError(f"scale factor must be a probability, got {factor}")
        return ProbabilityInterval(self.lo * factor, self.hi * factor)


def euler_tail_lower_bound(tail_sum: float) -> float:
    """Lower bound ``exp(-(3/2) * tail_sum)`` on an unseen tail product.

    Valid whenever every probability in the tail is at most 1/2, which
    the caller must guarantee; the bound is vacuously exact at 0.
    """
    if math.isnan(tail_sum) or tail_sum < 0.0:
        raise ValueError(f"tail sum must be nonnegative, got {tail_sum!r}")
    return math.exp(-1.5 * tail_sum)
