"""Span tracing of the engine's layers, installed from outside the package.

``Tracer.install()`` rebinds the engine's public functions, in every
``infpdb`` module that holds a reference to them (so the names ``approx``
imports from ``fo`` are wrapped too), and a few methods on their classes.
``uninstall()`` puts the originals back. Nothing under ``src/`` changes.

Three kinds of wrapper:

* span: records ``(id, name, layer, start, end, parent, op)`` in memory;
* leaf: a hot call (one per world or per listed fact) that adds its time
  and a call count to the aggregates and to its parent's covered time,
  without storing a span each;
* count: counts calls or yielded items only.

A layer's self time is the time of its spans and leaf calls minus the
time their children cover.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("approx", "fo", "core", "independence", "universe", "numerics", "completion", "specio", "cli")
# layers with timed wrappers; cli's self time is cli.main.self_s, and bench
# is the harness's own share of an op
TIMED_LAYERS = ("approx", "fo", "independence", "universe", "completion", "specio", "bench")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [span id, covered child time, name]
        self._next_id = 0
        self._patches: list[tuple] = []
        self.op = None
        self.reset()

    def reset(self) -> None:
        self.time = defaultdict(float)  # inclusive seconds per metric name
        self.self_time = defaultdict(float)  # seconds per name and per layer
        self.counts = defaultdict(int)
        self.n_sum = 0  # sum of certified truncation points

    # -- ops --------------------------------------------------------------------

    def begin_op(self, op) -> None:
        self.op = op
        self._enter("op", "bench")

    def end_op(self) -> None:
        self._exit(self._stack[-1])
        self.op = None

    def _enter(self, name: str, layer: str) -> list:
        frame = [self._next_id, 0.0, name, layer, perf_counter()]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = perf_counter()
        self._stack.pop()
        span_id, covered, name, layer, start = frame
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += dur
        self.time[name] += dur
        self.self_time[name] += dur - covered
        self.self_time[layer] += dur - covered
        self.spans.append((span_id, name, layer, start, end, parent[0] if parent else None, self.op))

    # -- wrappers ---------------------------------------------------------------

    def _span(self, fn, name: str, layer: str, on_call=None, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(tracer, args, kwargs)
            frame = tracer._enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.counts[f"{layer}.errors"] += 1
                raise
            finally:
                tracer._exit(frame)
            if on_result is not None:
                on_result(tracer, result)
            return result

        return wrapper

    def _leaf(self, fn, name: str, layer: str):
        tracer = self
        calls, calls_in_cqp, errors = f"{name}.calls", f"{name}.calls_in_cqp", f"{layer}.errors"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1]
            tracer.counts[calls] += 1
            if parent[2] == "approx.conditional_query_prob":
                tracer.counts[calls_in_cqp] += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                tracer.counts[errors] += 1
                raise
            finally:
                dur = perf_counter() - start
                parent[1] += dur
                tracer.time[name] += dur
                tracer.self_time[layer] += dur

        return wrapper

    def _count(self, fn, name: str, layer: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is not None:
                tracer.counts[name] += 1
            try:
                return fn(*args, **kwargs)
            except Exception:
                if tracer.op is not None:
                    tracer.counts[f"{layer}.errors"] += 1
                raise

        return wrapper

    def _count_items(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                if tracer.op is not None:
                    tracer.counts[name] += 1
                yield item

        return wrapper

    # -- installation ------------------------------------------------------------

    def _rebind_function(self, fn, wrapper) -> None:
        """Point every infpdb module name bound to fn at the wrapper."""
        for modname, mod in list(sys.modules.items()):
            if modname != "infpdb" and not modname.startswith("infpdb."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)

    def _rebind_method(self, cls, attr: str, wrapper) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self, infpdb) -> None:
        approx, fo, indep = infpdb.approx, infpdb.fo, infpdb.independence
        completion, specio, cli = infpdb.completion, infpdb.specio, infpdb.cli
        universe, numerics, core = infpdb.universe, infpdb.numerics, infpdb.core
        spans = [
            (approx.approx_boolean, "approx.approx_boolean", "approx", None, None),
            (approx.approx_nonboolean, "approx.approx_nonboolean", "approx", None, None),
            (approx.choose_truncation, "approx.choose_truncation", "approx", None, _on_certificate),
            (approx.conditional_query_prob, "approx.conditional_query_prob", "approx", _on_worlds, None),
            (fo.parse, "fo.parse", "fo", None, None),
            (indep.ti_construct, "independence.construct", "independence", None, None),
            (indep.bid_construct, "independence.construct", "independence", None, None),
            (indep.ti_instance_prob, "independence.ti_instance_prob", "independence", None, None),
            (indep.bid_instance_prob, "independence.bid_instance_prob", "independence", None, None),
            (indep.ti_sample, "independence.ti_sample", "independence", _on_draw, None),
            (indep.bid_sample, "independence.bid_sample", "independence", _on_draw, None),
            (completion.complete, "completion.complete", "completion", None, None),
            (completion.completion_instance_prob, "completion.completion_instance_prob", "completion", None, None),
            (completion.completion_sample, "completion.completion_sample", "completion", None, None),
            (specio.load_spec, "specio.load_spec", "specio", None, None),
            (specio.save_spec, "specio.save_spec", "specio", None, None),
            (specio.load_instance, "specio.load_instance", "specio", None, None),
            (cli.main, "cli.main", "cli", None, _on_exit_code),
        ]
        for fn, name, layer, on_call, on_result in spans:
            self._rebind_function(fn, self._span(fn, name, layer, on_call, on_result))
        self._rebind_function(fo.eval_boolean, self._leaf(fo.eval_boolean, "fo.eval_boolean", "fo"))
        tail = indep.GeometricTail
        self._rebind_method(
            tail, "truncation_count",
            self._span(tail.truncation_count, "independence.truncation_count", "independence"),
        )
        self._rebind_method(
            tail, "indexed_facts",
            self._count_items(tail.indexed_facts, "independence.tail_facts_expanded"),
        )
        enum = universe.FactEnumeration
        self._rebind_method(enum, "fact_at", self._leaf(enum.fact_at, "universe.fact_at", "universe"))
        u = universe.Universe
        self._rebind_method(u, "element_at", self._count(u.element_at, "universe.element_at.calls", "universe"))
        acc = numerics.CompensatedAccumulator
        self._rebind_method(acc, "add", self._count(acc.add, "numerics.accumulator_adds", "numerics"))
        inst = core.Instance
        self._rebind_method(inst, "__init__", self._count(inst.__init__, "core.instances_built", "core"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------------

    def metrics(self, ops: int) -> dict:
        """Per-layer metrics, per timed op unless the name says otherwise."""
        per = 1.0 / max(ops, 1)
        t, c, s = self.time, self.counts, self.self_time
        worlds = c["approx.worlds"]
        cqp_evals = c["fo.eval_boolean.calls_in_cqp"]
        sampling = t["independence.ti_sample"] + t["independence.bid_sample"]
        chooses = c["approx.choose_truncation.calls"]
        out = {
            "approx.choose_truncation.s": (t["approx.choose_truncation"] * per, "s/op"),
            "approx.truncation_n": (self.n_sum / chooses if chooses else 0.0, "count"),
            "approx.conditional_query_prob.self_s": (s["approx.conditional_query_prob"] * per, "s/op"),
            "approx.worlds": (worlds * per, "count/op"),
            "approx.memo_hit_ratio": (1.0 - cqp_evals / worlds if worlds else 0.0, "ratio"),
            "fo.parse.s": (t["fo.parse"] * per, "s/op"),
            "fo.eval_boolean.calls": (c["fo.eval_boolean.calls"] * per, "count/op"),
            "fo.eval_boolean.s": (t["fo.eval_boolean"] * per, "s/op"),
            "core.instances_built": (c["core.instances_built"] * per, "count/op"),
            "independence.ti_instance_prob.s": (t["independence.ti_instance_prob"] * per, "s/op"),
            "independence.bid_instance_prob.s": (t["independence.bid_instance_prob"] * per, "s/op"),
            "independence.tail_facts_expanded": (c["independence.tail_facts_expanded"] * per, "count/op"),
            "independence.truncation_count.s": (t["independence.truncation_count"] * per, "s/op"),
            "independence.ti_sample.s": (t["independence.ti_sample"] * per, "s/op"),
            "independence.bid_sample.s": (t["independence.bid_sample"] * per, "s/op"),
            "independence.draws": (c["independence.draws"] / sampling if sampling else 0.0, "1/s"),
            "independence.construct.s": (t["independence.construct"] * per, "s/op"),
            "universe.fact_at.calls": (c["universe.fact_at.calls"] * per, "count/op"),
            "universe.fact_at.s": (t["universe.fact_at"] * per, "s/op"),
            "universe.element_at.calls": (c["universe.element_at.calls"] * per, "count/op"),
            "numerics.accumulator_adds": (c["numerics.accumulator_adds"] * per, "count/op"),
            "completion.completion_instance_prob.s": (t["completion.completion_instance_prob"] * per, "s/op"),
            "completion.complete.s": (t["completion.complete"] * per, "s/op"),
            "completion.completion_sample.s": (t["completion.completion_sample"] * per, "s/op"),
            "specio.load_spec.s": (t["specio.load_spec"] * per, "s/op"),
            "specio.save_spec.s": (t["specio.save_spec"] * per, "s/op"),
            "cli.main.self_s": (s["cli.main"] * per, "s/op"),
            "op.s": (t["op"] * per, "s/op"),
        }
        for layer in TIMED_LAYERS:
            out[f"{layer}.self_s"] = (s[layer] * per, "s/op")
        for layer in LAYERS:
            out[f"{layer}.errors"] = (c[f"{layer}.errors"], "count")
        return out

    def dump(self, path: str, extra: dict) -> None:
        doc = {
            "fields": ["id", "name", "layer", "start", "end", "parent", "op"],
            "spans": self.spans,
            **extra,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _on_certificate(tracer: Tracer, cert) -> None:
    tracer.counts["approx.choose_truncation.calls"] += 1
    tracer.n_sum += cert.n


def _on_worlds(tracer: Tracer, args, kwargs) -> None:
    """Add 2**(number of truncated facts with 0 < p < 1); tail facts all qualify."""
    t, n = args[0], (args[2] if len(args) > 2 else kwargs["n"])
    head = t.head[:n]
    free = sum(1 for _, p in head if 0.0 < p < 1.0) + max(0, n - len(t.head))
    tracer.counts["approx.worlds"] += 2**free


def _on_draw(tracer: Tracer, args, kwargs) -> None:
    tracer.counts["independence.draws"] += 1


def _on_exit_code(tracer: Tracer, code) -> None:
    if code != 0:
        tracer.counts["cli.errors"] += 1
