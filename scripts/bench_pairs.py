#!/usr/bin/env python3
"""Benchmark the working tree against a base commit in alternating pairs.

Each pair runs ``perfbench/run.py --trace 0`` once on the base and once on
the working tree, for one workload, in ABBA order (pair 1 runs the base
first, pair 2 the change first, and so on), so that a drift of the
machine's speed falls on both sides alike. The base runs from a copy of
its committed files (``git archive``) in a temporary directory, removed
afterwards; the change runs from the repository root. Each side thus runs
its own harness on its own engine.

``--workload`` takes a workload that ``BENCHMARK.json`` declares, or
``all``, which runs the pairs of each declared workload in turn. An
unknown name fails before the base is exported.

It writes ``BENCH_<label>.json`` at the repository root, or with ``all``
one ``BENCH_<label>_<workload>.json`` per workload: every run's
end-to-end metrics, each side's median and quartiles per metric, the
number of pairs the change won per metric, and ``over_bound`` where the
change's median is worse than the base's by more than the metric's bound,
with "better" and "bound" read from ``BENCHMARK.json``. It also records
each side's median count of attempted ops, against which a rise in
``peak_rss_mb`` can be read, since the harness's memory grows with the ops
it runs. It prints one summary line per metric and one for the op counts.

Each run's wall clock, taken around its subprocess, is kept with the run,
and each side's median, quartiles and maximum of it under ``wall_s``. A
run that takes more than half of the child timeout of its checkout's
``perfbench/run.py`` (``CHILD_TIMEOUT_S``, read from the source) prints a
warning line, since ops fast enough to stretch the harness's per-op
calibration past that timeout end the run with no result.

Usage:
    python3 scripts/bench_pairs.py --label L [--workload query|tail|cli|all]
        [--pairs 10] [--seconds 25] [--base HEAD] [--seed 0]

Standard library only. A run that fails or reports ``correct: false``
stops the script with status 1 and writes no file for its workload.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def export(rev: str, dest: str) -> None:
    """The committed files of ``rev``, unpacked into ``dest``."""
    archive = os.path.join(dest, "base.tar")
    subprocess.run(["git", "archive", "--format=tar", "-o", archive, rev], cwd=ROOT, check=True)
    with tarfile.open(archive) as tar:
        # the "data" filter refuses members that would land outside dest
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        tar.extractall(os.path.join(dest, "tree"), **safe)
    os.remove(archive)


def child_timeout(checkout: str) -> float:
    """``CHILD_TIMEOUT_S`` as assigned in the checkout's ``perfbench/run.py``."""
    with open(os.path.join(checkout, "perfbench", "run.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "CHILD_TIMEOUT_S" for t in node.targets):
            return float(ast.literal_eval(node.value))
    raise SystemExit(f"{checkout}: perfbench/run.py assigns no CHILD_TIMEOUT_S")


def run_once(checkout: str, workload: str, seconds: float, seed: int) -> tuple[dict, float]:
    """One untraced run of the checkout's harness: its final JSON line, and
    the run's wall-clock seconds."""
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"), "--workload", workload,
           "--seconds", str(seconds), "--seed", str(seed), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-5000:])
        raise SystemExit(f"{checkout}: perfbench exited with status {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{checkout}: perfbench reported correct: false ({result['failed']} failed)")
    return result, wall


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per metric of ``metrics`` (``BENCHMARK.json``'s ``end_to_end`` entries):
    each side's median and quartiles, the change's pair wins, and whether
    the change's median is worse than the base's by more than the metric's
    relative bound; under ``attempted``, each side's median op count; under
    ``wall_s``, each side's quartiles and maximum of its runs' wall clock."""
    sides = {which: [r for r in runs if r["side"] == which] for which in ("base", "change")}
    out = {}
    for m in metrics:
        name, direction, bound = m["name"], m["better"], m["bound"]
        values = {which: [r["metrics"][name] for r in sides[which]] for which in sides}
        pairs = list(zip(values["base"], values["change"]))
        wins = sum(c > b if direction == "higher" else c < b for b, c in pairs)
        base, change = spread(values["base"]), spread(values["change"])
        if direction == "higher":
            over = change["median"] < base["median"] * (1.0 - bound)
        else:
            over = change["median"] > base["median"] * (1.0 + bound)
        out[name] = {
            "better": direction,
            "bound": bound,
            "base": base,
            "change": change,
            "change_wins": wins,
            "pairs": len(pairs),
            "median_change": change["median"] / base["median"] - 1.0 if base["median"] else None,
            "over_bound": over,
        }
    out["attempted"] = {which: statistics.median(r["attempted"] for r in sides[which]) for which in sides}
    out["wall_s"] = {
        which: {**spread([r["wall_s"] for r in sides[which]]), "max": max(r["wall_s"] for r in sides[which])}
        for which in sides
    }
    return out


def report_files(label: str, choice: str, declared: list[str]) -> dict[str, str]:
    """Workload -> the file its report goes to: ``BENCH_<label>.json`` for
    one declared workload, and ``BENCH_<label>_<workload>.json`` for each
    with ``all``; ValueError for a name ``BENCHMARK.json`` does not declare."""
    if choice == "all":
        return {w: f"BENCH_{label}_{w}.json" for w in declared}
    if choice not in declared:
        raise ValueError(f"unknown workload {choice!r}; BENCHMARK.json declares {', '.join(declared)}, or use all")
    return {choice: f"BENCH_{label}.json"}


def timeout_warning(pair: int, side: str, wall: float, timeout: float) -> str | None:
    """A warning line for a run past half of its checkout's child timeout."""
    if wall <= timeout / 2:
        return None
    return (f"warning: pair {pair + 1} {side} took {wall:.1f} s, past half of its child timeout "
            f"({timeout:g} s); a longer run would end with no result")


def run_pairs(checkouts: dict, timeouts: dict, workload: str, args) -> list[dict]:
    """``args.pairs`` ABBA pairs of runs of one workload."""
    runs = []
    for pair in range(args.pairs):
        order = ("base", "change") if pair % 2 == 0 else ("change", "base")
        for side in order:
            result, wall = run_once(checkouts[side], workload, args.seconds, args.seed)
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            runs.append({"pair": pair, "side": side, "attempted": result["attempted"],
                         "failed": result["failed"], "wall_s": wall, "metrics": metrics})
            print(f"{workload} pair {pair + 1}/{args.pairs} {side}: wall {wall:.1f} s, "
                  + ", ".join(f"{k} {v:.6g}" for k, v in metrics.items()), flush=True)
            if (warning := timeout_warning(pair, side, wall, timeouts[side])) is not None:
                print(warning, flush=True)
    return runs


def write_report(path: str, workload: str, runs: list[dict], end_to_end: list[dict], base_rev: str, args) -> None:
    """The report file of one workload's runs, and its summary lines."""
    summary = summarize(runs, end_to_end)
    report = {
        "label": args.label,
        "workload": workload,
        "seconds": args.seconds,
        "seed": args.seed,
        "pairs": args.pairs,
        "base": base_rev,
        "change": {"head": git("rev-parse", "HEAD"), "uncommitted": bool(git("status", "--porcelain", "--", "src"))},
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "runs": runs,
        "summary": summary,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    for m in end_to_end:
        s = summary[m["name"]]
        change = "" if s["median_change"] is None else f" ({s['median_change']:+.1%})"
        over = f"; over_bound (worse by more than {s['bound']:.0%})" if s["over_bound"] else ""
        print(f"{workload}.{m['name']}: base {s['base']['median']:.6g} [{s['base']['q1']:.6g}, {s['base']['q3']:.6g}]"
              f" -> change {s['change']['median']:.6g}{change}; change better in {s['change_wins']}/{s['pairs']} pairs"
              f"{over}")
    attempted = summary["attempted"]
    print(f"{workload}.attempted: base {attempted['base']:.6g} -> change {attempted['change']:.6g} ops (medians)")
    wall = summary["wall_s"]
    print(f"{workload}.wall_s: base {wall['base']['median']:.1f} (max {wall['base']['max']:.1f})"
          f" -> change {wall['change']['median']:.1f} (max {wall['change']['max']:.1f}) s per run")
    print(f"wrote {path}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--workload", default="query", help="a workload of BENCHMARK.json, or all")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--base", default="HEAD", help="the commit the working tree is measured against")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    try:
        files = report_files(args.label, args.workload, [w["name"] for w in bench["workloads"]])
    except ValueError as exc:
        ap.error(str(exc))
    base_rev = git("rev-parse", args.base)
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        export(base_rev, tmp)
        checkouts = {"base": os.path.join(tmp, "tree"), "change": ROOT}
        timeouts = {side: child_timeout(path) for side, path in checkouts.items()}
        for workload, name in files.items():
            runs = run_pairs(checkouts, timeouts, workload, args)
            write_report(os.path.join(ROOT, name), workload, runs, bench["end_to_end"], base_rev, args)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
