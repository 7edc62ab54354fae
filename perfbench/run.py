"""infpdb benchmark runner.

    python3 perfbench/run.py --workload query|tail|cli|all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

For each workload it generates the inputs from the seed (``gen.py``),
runs one fresh child process (``child.py``) on them with a pinned
environment, and prints the results. The last stdout line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, with the
end-to-end metrics for ``--trace 0`` and the per-layer metrics for
``--trace 1``. The lines before it restate every metric with its unit
and sample count, plus ``failed_ratio``, ``nproc`` and the Python version.

``--self-check`` is the negative control: it runs each workload briefly
with one output corrupted on the check side and succeeds only if every
run then reports a failure.

Standard library only. The engine is imported from ``src/`` next to this
directory; without it the runner exits with status 2 and no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402

END_TO_END = ("ops_per_s", "op_p50_s", "op_p90_s", "setup_s", "peak_rss_mb")
CHILD_TIMEOUT_S = 170
PYTHONHASHSEED = "0"


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PDB_WORLD_CAP", "PYTHONPATH")}
    env["PYTHONHASHSEED"] = PYTHONHASHSEED
    return env


def run_workload(workload: str, seed: int, seconds: float, trace: int, inject: bool = False) -> dict:
    """Generate the inputs, run one child on them and return its result."""
    workdir = os.path.join(HERE, "_work", f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        gen.generate(workload, seed, workdir)
        cmd = [
            sys.executable, os.path.join(HERE, "child.py"),
            "--workload", workload, "--workdir", workdir,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        ]
        if trace:
            outdir = os.path.join(HERE, "_out")
            os.makedirs(outdir, exist_ok=True)
            cmd += ["--trace-out", os.path.join(outdir, f"trace-{workload}-seed{seed}.json")]
        if inject:
            cmd.append("--inject-wrong")
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=CHILD_TIMEOUT_S,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.stderr:
        sys.stderr.write(proc.stderr[-20000:])
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: child exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report(res: dict, trace: int, seed: int) -> dict:
    """Print the human-readable lines and return the contract's JSON object."""
    w, ops = res["workload"], res["ops"]
    print(f"# {w} seed={seed}: python {res['python']}, nproc {res['nproc']}, "
          f"closed loop, 1 client, {ops} timed ops; set-up repeated {len(res['setup_times'])} times")
    print(f"# times are at the reference speed (calibration loop {res['calibration_s'] * 1e3:.3f} ms "
          f"in this run, reference {res['calibration_ref_s'] * 1e3:.3f} ms); wall-clock values in brackets")
    for name, (value, unit) in res["metrics"].items():
        samples = f"n={len(res['setup_times'])} set-ups" if name == "setup_s" else f"n={ops} ops"
        if name in ("op_p50_s", "op_p90_s"):
            samples += f", each at the median of its case, {res['cases']} cases"
        wall = f" [wall {res['wall'][name]:.6g}]" if name in res["wall"] else ""
        print(f"{w}.{name} = {value:.6g} {unit} ({samples}){wall}")
    print(f"{w}: attempted {res['attempted']}, failed {res['failed']}, final check "
          f"{'passed' if res['final_check'] else 'FAILED'}")
    if trace:
        layer = res["per_layer"]
        op_s = layer["op.s"][0] or 1.0
        shares = ", ".join(
            f"{name.split('.')[0]} {layer[name][0] / op_s:.0%}"
            for name in sorted(layer, key=lambda k: -layer[k][0])
            if (name.count(".") == 1 or name == "cli.main.self_s")
            and name.endswith(".self_s") and layer[name][0] > 0.01 * op_s
        )
        print(f"{w}: traced {res['traced_ops']} ops; self time by layer: {shares}; "
              f"traced/untraced ops_per_s {layer['trace.ops_per_s_ratio'][0]:.3f}")
        for name, (value, unit) in layer.items():
            print(f"{w}.{name} = {value:.6g} {unit}")
        metrics = layer
    else:
        metrics = {k: res["metrics"][k] for k in END_TO_END}
    return {
        "correct": res["failed"] == 0 and res["final_check"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def self_check() -> int:
    """Negative control: an injected wrong answer must make every workload fail."""
    ok = True
    for workload in gen.WORKLOADS:
        res = run_workload(workload, seed=0, seconds=1, trace=0, inject=True)
        ratio = res["failed"] / res["attempted"]
        caught = res["failed"] > 0
        ok &= caught
        print(f"{workload}: injected one wrong answer; failed_ratio {ratio:.4f} "
              f"({res['failed']}/{res['attempted']}): {'caught' if caught else 'NOT CAUGHT'}")
    print("self-check", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=sorted(gen.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "infpdb", "__init__.py")):
        print(f"error: no engine at {os.path.join(ROOT, 'src', 'infpdb')}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check()
    workloads = list(gen.WORKLOADS) if args.workload == "all" else [args.workload]
    for workload in workloads:
        res = run_workload(workload, args.seed, args.seconds, args.trace)
        print(json.dumps(report(res, args.trace, args.seed)), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
