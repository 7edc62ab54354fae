"""Seeded workload generator.

``generate(workload, seed, outdir)`` writes the spec, query and instance
files of one workload under ``outdir`` plus ``manifest.json``, which lists
the cases the timed loop cycles through. The engine only ever sees these
files. The same seed always gives byte-identical files.

The seed draws probabilities, element labels and which facts an instance
holds. The shape of every space is fixed per workload: how many facts it
has, which pattern its binary facts form, how its tail decays and how deep
each instance reaches into the tail. Different seeds therefore cost the
engine the same amount of work, and run-to-run spread measures the
engine rather than the draw.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random

from refs import BOOLEAN_SHAPES, OPEN_SHAPES, Spec, fact_json, tuple_at

WORKLOADS = {
    "query": "FO queries on prebuilt TI spaces: world enumeration in approx and "
    "per-world fo.eval_boolean do the work, tail arithmetic is idle",
    "tail": "instance probabilities on slowly decaying geometric tails: the tail "
    "enclosure walk and universe.fact_at do the work, fo and approx are idle",
    "cli": "pdb commands in-process on all four spec kinds: spec I/O, construction, "
    "samplers and formatting do the work; one tail truncation per op, no reuse",
}

NATURALS = {"kind": "naturals"}
STRINGS = {"kind": "strings", "alphabet": "0123456789ABCD"}


def _prob(rng: random.Random, lo: float = 0.05, hi: float = 0.95) -> str:
    return f"{rng.uniform(lo, hi):.6f}"


def _weights(rng: random.Random, k: int, total: int = 1_000_000) -> list[str]:
    """k positive decimal strings with six places that sum to exactly 1."""
    cuts = sorted(rng.sample(range(1, total), k - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [total])]
    return [f"{w / total:.6f}" for w in parts]


def _labels(rng: random.Random, k: int, lo: int, hi: int) -> list[int]:
    """k distinct naturals in [lo, hi], in increasing order."""
    return sorted(rng.sample(range(lo, hi + 1), k))


def _head(facts, probs) -> list[dict]:
    return [{**fact_json(f), "p": p} for f, p in zip(facts, probs)]


class Writer:
    def __init__(self, outdir: str):
        self.outdir = outdir
        for sub in ("specs", "queries", "instances", "out"):
            os.makedirs(os.path.join(outdir, sub), exist_ok=True)

    def _write(self, rel: str, text: str) -> str:
        with open(os.path.join(self.outdir, rel), "w", encoding="utf-8") as fh:
            fh.write(text)
        return rel

    def spec(self, name: str, obj: dict) -> str:
        return self._write(f"specs/{name}.json", json.dumps(obj, indent=1) + "\n")

    def query(self, name: str, text: str) -> str:
        return self._write(f"queries/{name}.txt", text + "\n")

    def instance(self, name: str, facts) -> str:
        obj = {"facts": [fact_json(f) for f in sorted(facts, key=repr)]}
        return self._write(f"instances/{name}.json", json.dumps(obj) + "\n")


# --- query ---------------------------------------------------------------------

# Edge patterns over abstract nodes 0..k-1; the seed picks the node labels.
QUERY_SPACES = {
    # head-only, one S fact: n = 8
    "qa": {"edges": [(0, 1), (1, 2), (2, 0), (2, 3), (3, 3), (3, 4), (4, 1)], "s": [1]},
    # head-only, no S fact, so "exists x. S(x)" is decided by one evaluation: n = 10
    "qb": {
        "edges": [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3), (4, 4), (4, 5), (5, 2), (5, 5), (0, 5)],
        "s": [],
    },
    # 5 head facts plus R(1, 2), R(2, 1), R(1, 3), ... at c * 0.5**i:
    # eps 0.1, 0.05, 0.01 certify n = 7, 8, 11
    "qc": {"edges": [(0, 1), (1, 2), (2, 0), (2, 2)], "s": [0], "tail": {"c": "0.5", "q": "0.5"}},
}
QUERY_EPSILONS = (0.1, 0.05, 0.01)
QUERY_HEAD_ONLY_EPSILON = 0.05


def _query_space(rng: random.Random, shape: dict) -> dict:
    nodes = 1 + max(max(e) for e in shape["edges"])
    # labels start at 10 so no head fact sits among the first tail facts
    label = _labels(rng, nodes, 10, 60)
    facts = [("R", (label[a], label[b])) for a, b in shape["edges"]]
    facts += [("S", (label[a],)) for a in shape["s"]]
    spec = {
        "kind": "ti",
        "schema": {"R": 2, "S": 1},
        "universe": NATURALS,
        "head_facts": _head(facts, [_prob(rng, 0.1, 0.9) for _ in facts]),
    }
    if "tail" in shape:
        spec["tail"] = {
            "rule": "geometric",
            **shape["tail"],
            "supply": {"type": "enumeration", "relation": "R", "offset": 1},
            "exclude": [fact_json(f) for f in facts if f[0] == "R"],
        }
    return spec


def gen_query(rng: random.Random, w: Writer) -> list[dict]:
    queries = {name: w.query(name, text) for name, (text, _) in {**BOOLEAN_SHAPES, **OPEN_SHAPES}.items()}
    cases = []
    for name, shape in QUERY_SPACES.items():
        spec = w.spec(name, _query_space(rng, shape))
        epsilons = QUERY_EPSILONS if "tail" in shape else (QUERY_HEAD_ONLY_EPSILON,)
        for eps in epsilons:
            for qname in BOOLEAN_SHAPES:
                cases.append({"op": "boolean", "spec": spec, "query": queries[qname], "shape": qname, "epsilon": eps})
    for name, eps in (("qa", 0.05), ("qc", 0.1)):
        cases.append({"op": "open", "spec": f"specs/{name}.json", "query": queries["open_out"], "shape": "open_out", "epsilon": eps})
    return cases


# --- tail ----------------------------------------------------------------------

TAIL_QS = ("0.9", "0.99", "0.999")
# c keeps every instance probability well inside the float range
TAIL_C = {"0.9": "0.4", "0.99": "0.4", "0.999": "0.05"}
# Depths of each instance's tail facts, as shares of the index where the
# enclosure walk would stop by itself. A share beyond 1 moves the skip
# horizon, so the walk covers max(1, deepest share) times the usual facts.
# Across the three kinds the deepest shares form one grid, 1.0 to 1.55 in
# steps of 0.05, so the op costs within each q spread evenly and no latency
# percentile falls into a gap between two clusters of cases.
TAIL_DEPTHS = {
    "ti": ((0.3,), (0.5, 1.15), (1.3,), (0.2, 1.45)),
    "completion": ((1.05,), (0.4, 1.2), (1.35,), (1.5,)),
    "bid": ((1.1,), (1.25,), (0.3, 1.4), (1.55,)),
}
# Keys of the BID product supply R(key, i). One key at q=0.999 keeps its
# cost on the grid above; two keys double the listed facts at q=0.9 and 0.99.
PRODUCT_KEYS = {"0.9": ["A", "B"], "0.99": ["A", "B"], "0.999": ["A"]}
ENCLOSURE_TARGET = 1e-12


def _stop_index(c: float, q: float, m: int) -> int:
    """Index where the unseen tail mass m*c*q**(i+1)/(1-q) reaches the target."""
    return math.ceil(math.log(ENCLOSURE_TARGET * (1 - q) / (m * c)) / math.log(q))


def _depth_index(rng: random.Random, share: float, stop: int, first: int) -> int:
    return max(first, round(share * stop * rng.uniform(0.97, 1.03)))


def _geometric(q: str, supply: dict) -> dict:
    return {"rule": "geometric", "c": TAIL_C[q], "q": q, "supply": supply}


def _ti_enum_space(rng: random.Random, q: str):
    """20 head facts among the first 40 of the listing; the tail lists the rest."""
    relations = [("R", 2), ("S", 1)]
    idx = sorted(rng.sample(range(1, 41), 20))
    facts = [(relations[(k - 1) % 2][0], tuple_at((k - 1) // 2 + 1, relations[(k - 1) % 2][1])) for k in idx]
    spec = {
        "kind": "ti",
        "schema": dict(relations),
        "universe": NATURALS,
        "head_facts": _head(facts, [_prob(rng) for _ in facts]),
        "tail": _geometric(q, {"type": "enumeration", "offset": 40}),
    }
    return spec, facts


def _bid_product_space(rng: random.Random, q: str, blocks: int = 4):
    """Blocks S(key, j) of three facts keyed on the first attribute; tail R(x, i), x a key."""
    facts, probs = [], []
    for key in "ABCD"[:blocks]:
        cols = rng.sample("123456789", 3)
        mass = rng.uniform(0.5, 0.95)
        shares = _weights(rng, 3)
        for col, share in zip(cols, shares):
            facts.append(("S", (key, col)))
            probs.append(f"{mass * float(share):.6f}")
    spec = {
        "kind": "bid",
        "schema": {"R": 2, "S": 2},
        "universe": STRINGS,
        "head_facts": _head(facts, probs),
        "tail": _geometric(q, {"type": "product", "relation": "R", "index_position": 2, "fixed": {"1": PRODUCT_KEYS[q]}}),
        "blocks": {"keys": {"S": 1}},
    }
    return spec, facts


def _closed_worlds(rng: random.Random, base) -> list[dict]:
    """Every subset of the base facts, with seeded weights summing to 1."""
    subsets = [c for r in range(len(base) + 1) for c in itertools.combinations(base, r)]
    return [{"facts": [fact_json(f) for f in s], "p": p} for s, p in zip(subsets, _weights(rng, len(subsets)))]


def _completion_space(rng: random.Random, q: str, n_base: int = 3, n_fresh: int = 4):
    """Closed base worlds over n_base S facts; fresh S facts and an R tail."""
    label = _labels(rng, n_base + n_fresh, 1, 50)
    base = [("S", (e,)) for e in label[:n_base]]
    fresh = [("S", (e,)) for e in label[n_base:]]
    spec = {
        "kind": "completion",
        "schema": {"R": 2, "S": 1},
        "universe": NATURALS,
        "head_facts": _head(fresh, [_prob(rng, 0.05, 0.9) for _ in fresh]),
        "tail": _geometric(q, {"type": "enumeration", "relation": "R", "offset": 0}),
        "worlds": _closed_worlds(rng, base),
    }
    return spec, base + fresh


def _one_per_block(model: Spec, facts: set) -> set:
    """For a BID space keep the first fact of each block, so the instance is good."""
    if model.kind != "bid":
        return facts
    seen: dict = {}
    for f in sorted(facts, key=repr):
        seen.setdefault(model.block_key(f), f)
    return set(seen.values())


def _tail_instances(rng: random.Random, spec: dict, head_facts) -> list[set]:
    model = Spec(spec)
    tail = model.tail
    stop = _stop_index(tail.c, tail.q, tail.multiplicity)
    out = []
    for shares in TAIL_DEPTHS[model.kind]:
        facts = set(rng.sample(head_facts, len(head_facts) // 2))
        for share in shares:
            i = _depth_index(rng, share, stop, tail.first)
            facts.add(rng.choice(tail.facts_at(i)))
        out.append(_one_per_block(model, facts))
    return out


def gen_tail(rng: random.Random, w: Writer) -> list[dict]:
    cases = []
    for q in TAIL_QS:
        for kind, build in (("ti", _ti_enum_space), ("bid", _bid_product_space), ("completion", _completion_space)):
            name = f"{kind}_q{q[2:]}"
            spec, head_facts = build(rng, q)
            path = w.spec(name, spec)
            for j, facts in enumerate(_tail_instances(rng, spec, head_facts)):
                cases.append({"op": kind, "spec": path, "instance": w.instance(f"{name}_{j}", facts)})
    return cases


# --- cli -----------------------------------------------------------------------


# Every cli spec comes in three sizes, so op costs spread evenly instead of
# clustering by op kind, and no latency percentile falls into a gap.
CLI_SIZES = (1, 2, 3)
CLI_EDGES = [(0, 1), (1, 2), (2, 0), (3, 3), (0, 3), (2, 3)]
DYADIC_TAIL = {"rule": "geometric", "c": "0.5", "q": "0.5"}


def _cli_specs(rng: random.Random, size: int) -> dict:
    specs = {}
    # naturals, 3-5 head R facts and one S fact; R tail at 0.5 * 0.5**i with
    # the head R facts excluded; eps 0.1 certifies n = head + 2
    label = _labels(rng, 4, 10, 60)
    facts = [("R", (label[a], label[b])) for a, b in CLI_EDGES[: 2 + size]] + [("S", (label[1],))]
    specs["ti_nat"] = {
        "kind": "ti", "schema": {"R": 2, "S": 1}, "universe": NATURALS,
        "head_facts": _head(facts, [_prob(rng, 0.1, 0.9) for _ in facts]),
        "tail": {**DYADIC_TAIL, "supply": {"type": "enumeration", "relation": "R", "offset": 1},
                 "exclude": [fact_json(f) for f in facts if f[0] == "R"]},
    }
    # strings, R(key, i) head facts, product tail over keys A-D at 0.5**i
    cols = rng.sample("123456789", 4)
    facts = [("R", (k, c)) for k, c in zip("ABCD"[: 1 + size], cols)]
    specs["ti_str"] = {
        "kind": "ti", "schema": {"R": 2}, "universe": STRINGS,
        "head_facts": _head(facts, [_prob(rng) for _ in facts]),
        "tail": {"rule": "geometric", "c": "1", "q": "0.5",
                 "supply": {"type": "product", "relation": "R", "index_position": 2,
                            "fixed": {"1": ["A", "B", "C", "D"]}},
                 "exclude": [fact_json(f) for f in facts]},
    }
    specs["bid"], _ = _bid_product_space(rng, "0.9", blocks=1 + size)
    label = _labels(rng, 2 + size, 1, 30)
    base = [("S", (e,)) for e in label[:-2]] + [("R", (label[-2], label[-1])), ("R", (label[-1], label[-2]))]
    specs["finite"] = {
        "kind": "finite", "schema": {"R": 2, "S": 1}, "universe": NATURALS,
        "worlds": _closed_worlds(rng, base),
    }
    # completion over S facts with an R tail; its parts are also the base and
    # the fresh-fact spec of "complete", with a head-only TI spec as a second base
    comp, facts = _completion_space(rng, "0.9", n_base=1 + size, n_fresh=2 + size)
    comp["tail"].update(DYADIC_TAIL)
    specs["completion"] = comp
    specs["fresh"] = {k: v for k, v in comp.items() if k != "worlds"} | {"kind": "ti"}
    specs["base_finite"] = {k: v for k, v in comp.items() if k in ("schema", "universe", "worlds")} | {"kind": "finite"}
    base_facts = facts[: 1 + size]
    specs["base_ti"] = {
        "kind": "ti", "schema": {"R": 2, "S": 1}, "universe": NATURALS,
        "head_facts": _head(base_facts, [_prob(rng) for _ in base_facts]),
    }
    return specs


def _cli_instance(rng: random.Random, spec: dict):
    model = Spec(spec)
    if model.kind == "finite":
        return rng.choice(sorted(model.worlds, key=repr))
    facts = {f for f, _ in model.head if rng.random() < 0.5}
    if model.kind == "completion":
        facts |= rng.choice(sorted(model.worlds, key=repr))
    facts.add(rng.choice(model.tail.facts_at(model.tail.first + rng.randrange(3))))
    return _one_per_block(model, facts)


def gen_cli(rng: random.Random, w: Writer) -> list[dict]:
    query = w.query("selfjoin", BOOLEAN_SHAPES["selfjoin"][0])
    cases = []
    for size in CLI_SIZES:
        specs = {name: w.spec(f"{name}{size}", obj) for name, obj in _cli_specs(rng, size).items()}
        for name in ("ti_nat", "ti_str", "bid", "finite", "completion"):
            spec = specs[name]
            with open(os.path.join(w.outdir, spec), encoding="utf-8") as fh:
                obj = json.load(fh)
            inst = w.instance(f"{name}{size}", _cli_instance(rng, obj))
            cases.append({"op": "validate", "argv": ["validate", spec], "spec": spec})
            cases.append({"op": "expected-size", "argv": ["expected-size", spec], "spec": spec})
            cases.append({"op": "prob", "argv": ["prob", spec, "--instance", inst], "spec": spec, "instance": inst})
            cases.append({"op": "sample", "argv": ["sample", spec, "--n", "50", "--seed", "{draw_seed}"], "spec": spec})
        cases.append({"op": "query", "argv": ["query", specs["ti_nat"], "--query", query, "--epsilon", "0.1"],
                      "spec": specs["ti_nat"], "shape": "selfjoin", "epsilon": 0.1})
        for base in ("base_finite", "base_ti"):
            out = f"out/{base}{size}_completed.json"
            cases.append({"op": "complete", "argv": ["complete", specs[base], specs["fresh"], "-o", out],
                          "spec": specs[base], "fresh": specs["fresh"], "output": out})
    return cases


GENERATORS = {"query": gen_query, "tail": gen_tail, "cli": gen_cli}


def generate(workload: str, seed: int, outdir: str) -> dict:
    rng = random.Random(f"{workload}:{seed}")
    w = Writer(outdir)
    cases = GENERATORS[workload](rng, w)
    manifest = {"workload": workload, "seed": seed, "why": WORKLOADS[workload], "cases": cases}
    with open(os.path.join(outdir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")
    return manifest
