"""Every benchmark workload runs end to end and its answers check out.

Each workload of ``BENCHMARK.json`` runs briefly through ``perfbench/run.py``
in its own process.  The run must exit 0 and its last line must report
``correct: true`` with no failed op; a change that breaks either would
make a benchmark run of it fail.  The runner writes only below its
git-ignored ``perfbench/_work/`` and removes what it wrote there.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.slow
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_and_checks_out(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "0.2"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout[-4000:]
    assert result["failed"] == 0, result
