#!/usr/bin/env python3
"""Time instance probabilities, in microseconds per call.

Three tables:

- a one-fact instance ``{R(1)}`` on head-only TI spaces of 10, 1,000 and
  10,000 blocks (facts ``R(i)``, each at probability 0.3);
- a one-fact instance ``{R(i)}`` on a TI space of one geometric tail
  ``c * q**i`` over ``R/1`` (c = 0.001, q = 0.999), with ``i`` at 0.3x, 1x,
  2x and 8x the tail's stop: the count of facts after which its unseen
  mass is at most ``independence.ENCLOSURE_MASS_TARGET``;
- a one-fact instance ``{R(10)}`` on a tail space built anew for each call
  (c = 0.001, q = 0.9, 0.99 and 0.999), as each ``pdb prob`` builds its
  own: the tail's truncation point and enclosure start from nothing.

Each figure is the best of ``--rounds`` rounds of ``--calls`` calls (the
tail tables make one hundredth as many calls), after one untimed call that
builds the space's index. Standard library only; run it with the package
on the path:

    PYTHONPATH=src python3 scripts/instance_prob_cost.py [--calls 2000] [--rounds 5]
"""

from __future__ import annotations

import argparse
import timeit

from infpdb.core import Fact, Instance, Schema
from infpdb.independence import (
    ENCLOSURE_MASS_TARGET,
    EnumerationSupply,
    FactProbabilityAssignment,
    GeometricTail,
    ti_construct,
    ti_instance_prob,
)
from infpdb.universe import FactEnumeration, Universe

R1 = Schema.of(R=1)


def _cost_us(space, d: Instance, calls: int, rounds: int) -> float:
    ti_instance_prob(space, d)
    best = min(timeit.repeat(lambda: ti_instance_prob(space, d), number=calls, repeat=rounds))
    return best / calls * 1e6


def head_costs(sizes, calls: int, rounds: int) -> list[tuple[int, float]]:
    """(blocks, us per call) of ``{R(1)}`` on each head-only space."""
    out = []
    for n in sizes:
        space = ti_construct(FactProbabilityAssignment(tuple((Fact("R", (i,)), 0.3) for i in range(1, n + 1))))
        out.append((n, _cost_us(space, Instance([Fact("R", (1,))]), calls, rounds)))
    return out


def tail_costs(shares, calls: int, rounds: int, c: float = 0.001, q: float = 0.999) -> tuple[int, list]:
    """(the tail's stop, [(share, fact index, us per call)]) of ``{R(i)}``
    with ``i`` at each share of the stop."""
    tail = GeometricTail(EnumerationSupply(FactEnumeration(R1, Universe.naturals())), c=c, q=q)
    space = ti_construct(FactProbabilityAssignment((), tail))
    stop = tail.position(ENCLOSURE_MASS_TARGET, p_max=0.5)
    out = []
    for share in shares:
        i = max(1, round(share * stop))
        out.append((share, i, _cost_us(space, Instance([Fact("R", (i,))]), calls, rounds)))
    return stop, out


def fresh_costs(qs, calls: int, rounds: int, c: float = 0.001) -> list[tuple[float, float]]:
    """(q, us per call) of ``{R(10)}`` on a geometric tail space over ``R/1``
    built anew, tail included, inside each call."""
    d, supply = Instance([Fact("R", (10,))]), EnumerationSupply(FactEnumeration(R1, Universe.naturals()))
    out = []
    for q in qs:
        def call(q=q):
            return ti_instance_prob(ti_construct(FactProbabilityAssignment((), GeometricTail(supply, c=c, q=q))), d)

        best = min(timeit.repeat(call, number=calls, repeat=rounds))
        out.append((q, best / calls * 1e6))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--calls", type=int, default=2000)
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args(argv)
    print("one-fact instance on a head-only TI space")
    print(f"{'blocks':>8}  {'us/call':>9}")
    for n, us in head_costs((10, 1_000, 10_000), args.calls, args.rounds):
        print(f"{n:>8,}  {us:>9.1f}")
    stop, rows = tail_costs((0.3, 1.0, 2.0, 8.0), max(1, args.calls // 100), args.rounds)
    print(f"one tail fact on c = 0.001, q = 0.999 (stop after fact {stop:,})")
    print(f"{'depth':>8}  {'fact':>9}  {'us/call':>9}")
    for share, i, us in rows:
        print(f"{share:>7g}x  {i:>9,}  {us:>9.1f}")
    print("one tail fact on a freshly built c = 0.001 space, as in each pdb prob")
    print(f"{'q':>8}  {'us/call':>9}")
    for q, us in fresh_costs((0.9, 0.99, 0.999), max(1, args.calls // 100), args.rounds):
        print(f"{q:>8g}  {us:>9.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
