#!/usr/bin/env python3
"""End-to-end open-world pipeline on a four-fact binary table.

Builds the closed-world table R(A,1):0.8, R(B,1):0.4, R(B,2):0.5,
R(C,3):0.9, completes it with fresh facts R(x, i) at probability 2**-i
for x in {A, B, C, D}, and then:

  * validates the completion and reports its fresh-fact mass,
  * evaluates "exists x. exists y. R(x, y)" with additive error 0.01,
  * draws a few samples from the completed space.

Usage: python scripts/openworld_pipeline.py [--seed S]
"""

import argparse
import random

from infpdb.approx import approx_boolean
from infpdb.completion import complete, completion_sample, head_worlds
from infpdb.core import Fact, Instance, Schema, expected_size
from infpdb.fo import parse
from infpdb.independence import (
    FactProbabilityAssignment,
    GeometricTail,
    ProductSupply,
    ti_construct,
    ti_instance_prob,
)
from infpdb.universe import FactEnumeration, Universe


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    universe = Universe.strings("0123456789ABCD")
    schema = Schema.of(R=2)
    head = (
        (Fact("R", ("A", "1")), 0.8),
        (Fact("R", ("B", "1")), 0.4),
        (Fact("R", ("B", "2")), 0.5),
        (Fact("R", ("C", "3")), 0.9),
    )
    closed = ti_construct(FactProbabilityAssignment(head))
    print(f"closed-world table: total mass {closed.total_mass:.3f}")

    # expand into the explicit 16-world space (closed under subsets/unions)
    base = head_worlds(closed, schema, universe)
    print(f"expanded to {len(base.worlds)} worlds, expected size {expected_size(base):.3f}")

    tail = GeometricTail(
        ProductSupply(
            FactEnumeration(schema, universe),
            relation="R",
            index_position=2,
            fixed=((1, ("A", "B", "C", "D")),),
        ),
        c=1.0,
        q=0.5,
        exclude=frozenset(f for f, _ in head),
    )
    fresh = FactProbabilityAssignment((), tail)
    completion = complete(base, fresh)
    fresh_space = ti_construct(fresh)
    print(f"fresh-fact mass: {fresh_space.total_mass}")
    # every original instance keeps its probability times P(no fresh fact)
    no_fresh = ti_instance_prob(fresh_space, Instance.empty())
    print(f"measure of the original space: {no_fresh.lo:.6f}")

    query = parse("exists x. exists y. R(x, y)", schema)
    p, cert = approx_boolean(closed, query, 0.01, universe)
    print(f"P(exists x,y. R(x,y)) on the closed table = {p:.6f} (n={cert.n})")

    rng = random.Random(args.seed)
    print("samples from the completion:")
    for _ in range(5):
        print("  ", completion_sample(completion, rng, 1e-6))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
