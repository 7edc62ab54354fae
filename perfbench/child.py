"""One benchmark run, in a fresh process started by ``run.py``.

    python3 perfbench/child.py --workload W --workdir DIR --seconds S --trace 0|1 [--inject-wrong]

Phases:

1. set-up, repeated ``SETUP_REPS`` times: import ``infpdb`` afresh, load
   the generated files, build the spaces and warm up; ``setup_s`` is the
   median;
2. the timed loop: a closed loop with one client that runs whole cycles
   over the manifest's cases, in a seeded order, until the op time adds
   up to the requested seconds and at least ``MIN_OPS`` ops have run;
3. with ``--trace 1``, the same loop again with the tracer installed;
4. the checks, outside every timed region: each op's output against an
   independent reference (see ``refs.py``).

The last line on stdout is one JSON object with the run's results.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import importlib
import io
import itertools
import json
import math
import os
import random
import re
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [HERE, SRC]

import refs  # noqa: E402
from tracing import Tracer  # noqa: E402

SETUP_REPS = 7
MIN_OPS = 100
WORLD_CAP = 20  # passed explicitly wherever the API takes a cap
SIGMAS = 5.0
# Timings are reported at a fixed reference speed: the speed at which
# calibration_loop() takes CALIBRATION_REF_S. Before every op and every
# set-up the loop runs for CALIBRATION_SHARE of the previous one's time (at
# least once), so the machine's speed is sampled evenly in time. Each op's
# time is scaled by the median loop time within CALIBRATION_HALF_WINDOW_S of it.
CALIBRATION_REF_S = 6e-4
CALIBRATION_SHARE = 0.05
CALIBRATION_HALF_WINDOW_S = 1.0


class _Node:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def calibration_loop() -> float:
    """Fixed interpreter work (calls, tuples, dicts, sets, log1p, a sort)."""
    table: dict = {}
    seen = set()
    acc = 0.0
    for i in range(400):
        key = (i % 37, i // 37)
        node = _Node(key, i * 1e-3)
        table[key] = table.get(key, 0.0) + node.value
        seen.add(frozenset((key[0], key[1], i & 7)))
        acc += math.log1p(-node.value / 1000.0)
    order = sorted(table, key=lambda k: (k[1], k[0]))
    return acc + len(order) + len(seen)


class Clock:
    """Times spans of work and samples the machine's speed between them."""

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []
        self.samples: list[tuple[float, float]] = []  # (start, calibration loop time)

    def calibrate(self) -> None:
        budget = CALIBRATION_SHARE * self.times[-1] if self.times else 0.0
        spent = 0.0
        while True:  # at least once
            start = time.perf_counter()
            calibration_loop()
            took = time.perf_counter() - start
            self.samples.append((start, took))
            spent += took
            if spent >= budget:
                return

    def record(self, start: float, took: float) -> None:
        self.starts.append(start)
        self.times.append(took)

    def at_reference_speed(self) -> list[float]:
        """Each time scaled by the reference over the median loop time near it."""
        at = [s for s, _ in self.samples]
        w = CALIBRATION_HALF_WINDOW_S
        out = []
        for start, took in zip(self.starts, self.times):
            lo = bisect.bisect_left(at, start - w)
            hi = bisect.bisect_right(at, start + took + w)
            local = statistics.median(t for _, t in self.samples[lo:hi])
            out.append(took * CALIBRATION_REF_S / local)
        return out


def import_infpdb():
    """Import the package from this checkout's ``src``, dropping any earlier copy."""
    for name in [m for m in sys.modules if m == "infpdb" or m.startswith("infpdb.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("infpdb")
    for sub in ("approx", "cli", "completion", "core", "fo", "independence", "numerics", "oracle", "specio", "universe"):
        importlib.import_module(f"infpdb.{sub}")
    if os.path.dirname(os.path.abspath(pkg.__file__)) != os.path.join(SRC, "infpdb"):
        raise RuntimeError(f"infpdb imported from {pkg.__file__}, not from {SRC}")
    return pkg


def read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class Workload:
    """Cases from the manifest; ``run`` is timed, ``check`` is not."""

    # Outputs are checked after the timed loop, so the references' memory
    # stays out of peak_rss_mb; cli outputs are large, so they are checked
    # right after each op instead, still outside its timing.
    check_inline = False

    def __init__(self, manifest: dict):
        self.cases = manifest["cases"]
        self._models: dict = {}
        self._refs: dict = {}
        self.final_errors: list[str] = []

    def model(self, path: str) -> refs.Spec:
        if path not in self._models:
            self._models[path] = refs.Spec(read_json(path))
        return self._models[path]

    def reference(self, key, compute):
        if key not in self._refs:
            self._refs[key] = compute()
        return self._refs[key]

    def final_check(self) -> bool:
        return True


class QueryWorkload(Workload):
    """approx_boolean / approx_nonboolean against the oracle on the truncation."""

    def setup(self, pdb) -> None:
        self.pdb = pdb
        self.spaces, self.formulas = {}, {}
        for case in self.cases:
            if case["spec"] not in self.spaces:
                doc = pdb.specio.load_spec(case["spec"])
                self.spaces[case["spec"]] = (doc, doc.ti())
            doc, _ = self.spaces[case["spec"]]
            key = (case["spec"], case["query"])
            if key not in self.formulas:
                with open(case["query"], encoding="utf-8") as fh:
                    self.formulas[key] = pdb.fo.parse(fh.read(), doc.schema)
        for op in ("boolean", "open"):  # warm up on the cheapest case of each op
            self.run(max((c for c in self.cases if c["op"] == op), key=lambda c: c["epsilon"]))

    def run(self, case):
        doc, t = self.spaces[case["spec"]]
        f = self.formulas[(case["spec"], case["query"])]
        if case["op"] == "boolean":
            p, cert = self.pdb.approx.approx_boolean(t, f, case["epsilon"], doc.universe, cap=WORLD_CAP)
            return p, cert.n
        table = self.pdb.approx.approx_nonboolean(t, f, case["epsilon"], doc.universe, cap=WORLD_CAP)
        return dict(table)

    def corrupt(self, case, output):
        if case["op"] == "boolean":
            return output[0] + 0.01, output[1]
        return {k: v + 0.01 for k, v in output.items()}

    def check(self, case, output) -> bool:
        spec = self.model(case["spec"])
        n = self.reference(("n", case["spec"], case["epsilon"]), lambda: truncation_n(spec, case["epsilon"]))
        facts = spec.first_facts(n)
        if case["op"] == "boolean":
            _, predicate = refs.BOOLEAN_SHAPES[case["shape"]]
            ref = self.reference(("p", case["spec"], n, case["shape"]), lambda: refs.oracle_prob(facts, predicate))
            p, cert_n = output
            return cert_n == n and abs(p - ref) <= 1e-9
        _, predicate = refs.OPEN_SHAPES[case["shape"]]
        candidates = sorted({e for (_, args), _ in facts for e in args}, key=lambda e: (isinstance(e, str), e))
        ref = self.reference(
            ("open", case["spec"], n, case["shape"]),
            lambda: refs.oracle_marginals(facts, predicate, candidates),
        )
        if set(output) != {(x,) for x in candidates}:
            return False
        return all(abs(output[(x,)] - ref[x]) <= 1e-9 for x in candidates)


def truncation_n(spec: refs.Spec, epsilon: float) -> int:
    """Smallest certified truncation point, from the closed-form tail mass."""
    h = len(spec.head)
    if spec.tail is None:
        return h
    k = 0
    while not refs.certificate_ok(spec, h + k, epsilon):
        k += 1
    return h + k


class TailWorkload(Workload):
    """Instance probabilities; each interval must enclose a plain log1p reference."""

    def setup(self, pdb) -> None:
        self.pdb = pdb
        self.spaces, self.instances = {}, {}
        for case in self.cases:
            if case["spec"] not in self.spaces:
                doc = pdb.specio.load_spec(case["spec"])
                space = {"ti": doc.ti, "bid": doc.bid, "completion": doc.completion}[case["op"]]()
                self.spaces[case["spec"]] = (doc, space)
            doc, _ = self.spaces[case["spec"]]
            self.instances[case["instance"]] = pdb.specio.load_instance(case["instance"], doc.schema, doc.universe)
        for op in ("ti", "bid", "completion"):
            self.run(next(c for c in self.cases if c["op"] == op))

    def run(self, case):
        _, space = self.spaces[case["spec"]]
        d = self.instances[case["instance"]]
        if case["op"] == "ti":
            p = self.pdb.independence.ti_instance_prob(space, d)
        elif case["op"] == "bid":
            p = self.pdb.independence.bid_instance_prob(space, d)
        else:
            p = self.pdb.completion.completion_instance_prob(space, d)
        return p.lo, p.hi

    def corrupt(self, case, output):
        lo, hi = output
        return (lo * 1.01, hi * 1.01) if hi > 0.0 else (0.5, 0.5)

    def check(self, case, output) -> bool:
        spec = self.model(case["spec"])
        d = refs.instance_of(read_json(case["instance"]))
        ref = self.reference(case["instance"], lambda: spec.instance_prob(d))
        return refs.encloses(output[0], output[1], ref)


class CliWorkload(Workload):
    """``infpdb.cli.main`` in-process; stdout parsed and checked against references."""

    check_inline = True

    def setup(self, pdb) -> None:
        self.pdb = pdb
        self.draw_seed = 0
        self.samples: dict = {}  # spec -> [draws, {fact: count}]
        self.run(self.cases[0])

    def run(self, case):
        self.draw_seed += 1
        argv = [a.replace("{draw_seed}", str(self.draw_seed)) for a in case["argv"]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.pdb.cli.main(argv)
        return code, out.getvalue()

    def corrupt(self, case, output):
        code, text = output
        return code, re.sub(r"\d", lambda m: str((int(m.group()) + 1) % 10), text, count=1)

    def check(self, case, output) -> bool:
        code, text = output
        if code != 0:
            return False
        spec = self.model(case["spec"])
        op = case["op"]
        if op == "validate":
            return self._check_validate(spec, text)
        if op == "expected-size":
            return refs.close(float(text.strip()), spec.expected_size())
        if op == "prob":
            return self._check_prob(spec, case, text)
        if op == "sample":
            return self._check_sample(spec, case, text)
        if op == "query":
            return self._check_query(spec, case, text)
        return self._check_complete(spec, case, text)

    def _check_validate(self, spec: refs.Spec, text: str) -> bool:
        nums = [float(x) for x in re.findall(r"\d+\.\d+|\d+", text)]
        if spec.kind in ("ti", "bid"):
            expected = [spec.total_mass, spec.expected_size()]
            prefix = "TI" if spec.kind == "ti" else "BID"
        elif spec.kind == "finite":
            expected = [len(spec.worlds), spec.expected_size()]
            prefix = "finite"
        else:
            expected = [len(spec.worlds), spec.total_mass, spec.expected_size()]
            prefix = "completion"
        return (
            text.startswith(prefix + ",")
            and len(nums) == len(expected)
            and all(abs(a - b) <= 0.0005 + 1e-9 for a, b in zip(nums, expected))
        )

    def _check_prob(self, spec: refs.Spec, case, text: str) -> bool:
        d = refs.instance_of(read_json(case["instance"]))
        ref = self.reference(case["instance"], lambda: spec.instance_prob(d))
        m = re.fullmatch(r"probability = (\S+)\n", text)
        if m:
            p = float(m.group(1))
            return refs.close(p, ref) if spec.kind == "finite" or spec.tail is None else False
        m = re.fullmatch(r"probability in \[(\S+), (\S+)\]\n", text)
        return bool(m) and refs.encloses(float(m.group(1)), float(m.group(2)), ref)

    def _check_sample(self, spec: refs.Spec, case, text: str) -> bool:
        lines = text.splitlines()
        if len(lines) != 50:
            return False
        stats = self.samples.setdefault(case["spec"], [0, {}])
        base = spec.base_facts if spec.worlds is not None else frozenset()
        for line in lines:
            d = refs.instance_of(json.loads(line))
            if spec.kind == "finite":
                if spec.worlds.get(d, 0.0) <= 0.0:
                    return False
            else:
                if spec.kind == "completion" and spec.worlds.get(d & base, 0.0) <= 0.0:
                    return False
                if not all(spec.in_support(f) for f in d - base):
                    return False
                if spec.kind == "bid" and not spec.is_good(d):
                    return False
            stats[0] += 1
            for f in d:
                stats[1][f] = stats[1].get(f, 0) + 1
        return True

    def final_check(self) -> bool:
        """Empirical marginals of the listed facts within 5 sigma of the truth."""
        ok = True
        for path, (draws, counts) in self.samples.items():
            for f, p in self.model(path).marginals().items():
                freq = counts.get(f, 0) / draws
                sigma = math.sqrt(p * (1.0 - p) / draws)
                if abs(freq - p) > SIGMAS * sigma + 1e-12:
                    self.final_errors.append(f"{path}: marginal of {f} is {freq}, expected {p}")
                    ok = False
        return ok

    def _check_query(self, spec: refs.Spec, case, text: str) -> bool:
        m = re.fullmatch(
            r"probability = (\S+) \(additive error <= \S+\)\n"
            r"certificate: n=(\d+) alpha=\S+ tail_sum=\S+ epsilon=\S+\n",
            text,
        )
        if not m:
            return False
        p, n = float(m.group(1)), int(m.group(2))
        eps = case["epsilon"]
        ref_n = self.reference(("n", case["spec"], eps), lambda: truncation_n(spec, eps))
        _, predicate = refs.BOOLEAN_SHAPES[case["shape"]]
        ref = self.reference(("p", case["spec"], ref_n), lambda: refs.oracle_prob(spec.first_facts(ref_n), predicate))
        return n == ref_n and abs(p - ref) <= 5e-7 + 1e-12

    def _check_complete(self, spec: refs.Spec, case, text: str) -> bool:
        if text != f"wrote completion spec to {case['output']}\n":
            return False
        out = refs.Spec(read_json(case["output"]))
        fresh = read_json(case["fresh"])
        fresh_model = self.model(case["fresh"])
        if spec.kind == "finite":
            expected = spec.worlds
        else:  # a head-only TI base expands into all its subsets
            facts = [f for f, _ in spec.head]
            expected = {
                frozenset(c): spec.ti_prob(frozenset(c))
                for r in range(len(facts) + 1)
                for c in itertools.combinations(facts, r)
            }
        return (
            out.kind == "completion"
            and out.worlds.keys() == expected.keys()
            and all(refs.close(out.worlds[d], p) for d, p in expected.items())
            and out.head == fresh_model.head
            and read_json(case["output"])["tail"]["supply"] == fresh["tail"]["supply"]
            and out.tail.c == fresh_model.tail.c
            and out.tail.q == fresh_model.tail.q
        )


WORKLOADS = {"query": QueryWorkload, "tail": TailWorkload, "cli": CliWorkload}


def setup(manifest: dict, reps: int, tracer: Tracer | None):
    """Run set-up reps times; return the last workload, its package and the clock."""
    clock = Clock()
    for rep in range(reps):
        clock.calibrate()
        start = time.perf_counter()
        pdb = import_infpdb()
        wl = WORKLOADS[manifest["workload"]](manifest)
        if tracer is not None and rep == reps - 1:
            tracer.install(pdb)
            tracer.begin_op("setup")
            try:
                wl.setup(pdb)
            finally:
                tracer.end_op()
                tracer.uninstall()
        else:
            wl.setup(pdb)
        clock.record(start, time.perf_counter() - start)
    clock.calibrate()
    return wl, pdb, clock


class Phase:
    """What one timed loop recorded, op by op."""

    def __init__(self, cycle: int):
        self.cycle = cycle  # ops per cycle; a phase always ends with a whole cycle
        self.clock = Clock()
        self.cases: list[int] = []
        self.pending: list[tuple] = []  # outputs still to check
        self.failed = 0

    def summary(self, at_reference: bool = True) -> dict:
        """ops_per_s: median over cycles of a cycle's ops per second of op time.
        p50 and p90: over all ops, each op at its case's median latency.

        A case repeats once per cycle with the same input, so the spread of
        its latencies is machine noise; the percentiles describe the op mix.
        """
        lat = self.clock.at_reference_speed() if at_reference else self.clock.times
        per_case: dict[int, list[float]] = {}
        for ci, t in zip(self.cases, lat):
            per_case.setdefault(ci, []).append(t)
        median = {ci: statistics.median(ts) for ci, ts in per_case.items()}
        typical = [median[ci] for ci in self.cases]
        cycles = [lat[i: i + self.cycle] for i in range(0, len(lat), self.cycle)]
        return {
            "ops_per_s": statistics.median(len(c) / sum(c) for c in cycles),
            "op_p50_s": statistics.median(typical),
            "op_p90_s": statistics.quantiles(typical, n=10)[8],
        }


def timed_loop(wl: Workload, seconds: float, rng: random.Random, tracer: Tracer | None, inject: bool, phase: str) -> Phase:
    """Whole cycles over the cases until the op time reaches the target."""
    rec = Phase(len(wl.cases))
    order = list(range(len(wl.cases)))
    total = 0.0
    while total < seconds or len(rec.cases) < MIN_OPS:
        rng.shuffle(order)
        for ci in order:
            case = wl.cases[ci]
            op_id = f"{phase}:{len(rec.cases)}"
            rec.clock.calibrate()
            if tracer is not None:
                tracer.begin_op(op_id)
            start = time.perf_counter()
            try:
                output = wl.run(case)
                error = None
            except Exception:  # a raising op is a failed op; keep measuring
                output, error = None, traceback.format_exc(limit=3)
            finally:
                elapsed = time.perf_counter() - start
                if tracer is not None:
                    tracer.end_op()
            rec.clock.record(start, elapsed)
            rec.cases.append(ci)
            total += elapsed
            if error is not None:
                rec.failed += 1
                print(f"op {op_id} {case['op']} raised:\n{error}", file=sys.stderr)
                continue
            if inject and len(rec.cases) == 1:
                output = wl.corrupt(case, output)
            if wl.check_inline:
                rec.failed += not checked(wl, case, output, op_id)
            else:
                rec.pending.append((case, output, op_id))
    return rec


def checked(wl: Workload, case, output, op_id: str) -> bool:
    try:
        ok = wl.check(case, output)
    except Exception:  # an output the check cannot read is a wrong output
        print(traceback.format_exc(limit=3), file=sys.stderr)
        ok = False
    if not ok:
        print(f"op {op_id} {case['op']} failed its check: {case} -> {output!r}"[:2000], file=sys.stderr)
    return ok


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out", default=None)
    ap.add_argument("--inject-wrong", action="store_true")
    args = ap.parse_args()

    os.chdir(args.workdir)
    manifest = read_json("manifest.json")
    tracer = Tracer() if args.trace else None
    wl, pdb, setup_clock = setup(manifest, SETUP_REPS, tracer)
    setup_times = setup_clock.at_reference_speed()
    setup_metrics = tracer.metrics(1) if tracer else {}
    if tracer:
        tracer.reset()

    rng = random.Random(f"order:{args.seed}")
    run = timed_loop(wl, args.seconds, rng, None, args.inject_wrong, "run")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    phases = [run]
    if tracer:
        tracer.install(pdb)
        try:
            phases.append(timed_loop(wl, args.seconds, rng, tracer, False, "traced"))
        finally:
            tracer.uninstall()
    attempted = sum(len(ph.cases) for ph in phases)
    failed = sum(ph.failed for ph in phases)
    for ph in phases:
        for case, output, op_id in ph.pending:
            failed += not checked(wl, case, output, op_id)
    final_ok = wl.final_check()
    for line in wl.final_errors:
        print(line, file=sys.stderr)

    e2e = run.summary()
    result = {
        "workload": args.workload,
        "ops": len(run.cases),
        "cases": len(wl.cases),
        "attempted": attempted,
        "failed": failed,
        "final_check": final_ok,
        "metrics": {
            "ops_per_s": (e2e["ops_per_s"], "1/s"),
            "op_p50_s": (e2e["op_p50_s"], "s"),
            "op_p90_s": (e2e["op_p90_s"], "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "failed_ratio": (failed / attempted, "ratio"),
        },
        "setup_times": setup_times,
        "wall": {**run.summary(at_reference=False), "setup_s": statistics.median(setup_clock.times)},
        "calibration_s": statistics.median(t for _, t in run.clock.samples),
        "calibration_ref_s": CALIBRATION_REF_S,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
    }
    if tracer:
        traced = phases[1]
        layer = tracer.metrics(len(traced.cases))
        layer["trace.ops_per_s_ratio"] = (traced.summary()["ops_per_s"] / e2e["ops_per_s"], "ratio")
        for name in ("independence.construct.s", "specio.load_spec.s", "fo.parse.s"):
            value, _ = setup_metrics[name]
            layer[f"setup.{name}"] = (value, "s")
        result["per_layer"] = layer
        result["traced_ops"] = len(traced.cases)
        if args.trace_out:
            tracer.dump(args.trace_out, {"workload": args.workload, "seed": args.seed, "per_layer": layer})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
