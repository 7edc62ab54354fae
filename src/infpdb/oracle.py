"""Brute-force possible-worlds oracle and Monte Carlo estimation.

This module is the independent evidence path for every probability the
engine computes.  It deliberately shares no arithmetic with the engine:
worlds are enumerated explicitly, one outcome per block, each world's
probability is a plain linear-domain product taken in block order, and event
probabilities are plain sums over the world table.  Keep it that way;
the tests rely on the two paths being independent.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Callable, Sequence

from .core import Fact, Instance
from .errors import WorldCapExceeded

WORLD_FACT_CAP = 20


def enumerate_worlds(
    facts: Sequence[tuple[Fact, float]],
) -> dict[Instance, float]:
    """All 2**n subsets of the facts with their independent-draw probabilities."""
    return enumerate_block_worlds([[((f,), p)] for f, p in facts])


def enumerate_block_worlds(
    blocks: Sequence[Sequence[tuple[Sequence[Fact], float]]],
) -> dict[Instance, float]:
    """Every world of independent blocks of disjoint (facts, probability)
    outcomes: one outcome, or none at 1 minus the block's mass, per block;
    a block that lists an empty outcome has no "none".  The first block
    varies fastest, like the lowest bit of a counter."""
    fact_sets = [{f for facts, _ in block for f in facts} for block in blocks]
    size = sum(map(len, fact_sets))
    if size > WORLD_FACT_CAP:
        raise WorldCapExceeded(
            f"oracle enumerates at most {WORLD_FACT_CAP} facts, got {size}",
            required=size,
            cap=WORLD_FACT_CAP,
        )
    seen: set[Fact] = set()
    for block, mine in zip(blocks, fact_sets):
        for f in mine & seen:
            raise ValueError(f"duplicate fact {f}")
        seen |= mine
        for facts, p in block:
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"probability out of range for {', '.join(map(str, facts))}: {p}")
    choices = []
    for block in reversed(blocks):
        exhaustive = any(not facts for facts, _ in block)
        choices.append([*block] if exhaustive else [((), 1.0 - sum(p for _, p in block)), *block])
    worlds: dict[Instance, float] = {}
    for world in itertools.product(*choices):
        prob, chosen = 1.0, []
        for facts, p in reversed(world):
            prob = prob * p
            chosen.extend(facts)
        key = Instance(chosen)
        worlds[key] = worlds.get(key, 0.0) + prob
    return worlds


def exact_event_prob(
    worlds: dict[Instance, float], predicate: Callable[[Instance], bool]
) -> float:
    """Total probability of the worlds satisfying the predicate."""
    return sum(p for d, p in worlds.items() if predicate(d))


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
    hits = 0
    for _ in range(n):
        if predicate(sampler(rng)):
            hits += 1
    estimate = hits / n
    ci = 3.0 * math.sqrt(estimate * (1.0 - estimate) / n)
    return estimate, ci
