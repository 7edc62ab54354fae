"""``scripts/bench_pairs.py`` summarizes alternating base/change runs: pair
wins, quartiles, the bound check, the op counts and the wall clock, on
synthetic runs; and it warns of runs near the harness's child timeout."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"

METRICS = [
    {"name": "ops_per_s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
]


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(base, change):
    """Pairs of base and change runs, in ABBA order, from (ops_per_s,
    peak_rss_mb, attempted) triples, or with wall seconds as a fourth."""
    runs = []
    for pair, (b, c) in enumerate(zip(base, change)):
        sides = [("base", b), ("change", c)] if pair % 2 == 0 else [("change", c), ("base", b)]
        for side, (ops, rss, attempted, *wall) in sides:
            runs.append({"pair": pair, "side": side, "attempted": attempted, "failed": 0,
                         "wall_s": wall[0] if wall else 40.0, "metrics": {"ops_per_s": ops, "peak_rss_mb": rss}})
    return runs


def test_summary_reads_wins_quartiles_bounds_and_op_counts():
    base = [(100.0, 20.0, 1000), (110.0, 21.0, 1100), (90.0, 20.5, 900), (105.0, 20.0, 1050), (95.0, 19.0, 950)]
    change = [(140.0, 23.0, 1400), (150.0, 24.0, 1500), (85.0, 22.0, 1300), (145.0, 23.5, 1450), (135.0, 22.5, 1350)]
    summary = _bench_pairs().summarize(_runs(base, change), METRICS)
    ops = summary["ops_per_s"]
    assert ops["base"] == {"median": 100.0, "q1": 95.0, "q3": 105.0}
    assert ops["change"]["median"] == 140.0
    assert (ops["change_wins"], ops["pairs"]) == (4, 5)
    assert ops["median_change"] == pytest.approx(0.4)
    assert ops["bound"] == 0.25 and not ops["over_bound"]
    rss = summary["peak_rss_mb"]
    # lower is better: 23.0 against 20.0 is 15 % worse, past the 10 % bound
    assert rss["change_wins"] == 0 and rss["median_change"] == pytest.approx(0.15)
    assert rss["over_bound"]
    assert summary["attempted"] == {"base": 1000, "change": 1400}


@pytest.mark.parametrize("better, base, change, over", [
    ("higher", 100.0, 75.0, False),   # exactly the bound
    ("higher", 100.0, 74.0, True),
    ("higher", 100.0, 200.0, False),
    ("lower", 1.0, 1.25, False),
    ("lower", 1.0, 1.3, True),
    ("lower", 1.0, 0.5, False),
])
def test_over_bound_only_past_the_bound_in_the_worse_direction(better, base, change, over):
    metrics = [{"name": "ops_per_s", "better": better, "bound": 0.25}]
    runs = _runs([(base, 0.0, 10)] * 2, [(change, 0.0, 10)] * 2)
    assert _bench_pairs().summarize(runs, metrics)["ops_per_s"]["over_bound"] is over


def test_wall_clock_per_side():
    base = [(100.0, 20.0, 1000, 41.0), (100.0, 20.0, 1000, 40.0), (100.0, 20.0, 1000, 44.0)]
    change = [(100.0, 20.0, 1000, 50.0), (100.0, 20.0, 1000, 52.0), (100.0, 20.0, 1000, 90.0)]
    wall = _bench_pairs().summarize(_runs(base, change), METRICS)["wall_s"]
    assert wall["base"] == {"median": 41.0, "q1": 40.5, "q3": 42.5, "max": 44.0}
    assert wall["change"] == {"median": 52.0, "q1": 51.0, "q3": 71.0, "max": 90.0}


def test_child_timeout_is_read_from_the_checkouts_harness(tmp_path):
    script = _bench_pairs()
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text("import os\nCHILD_TIMEOUT_S = 42\nOTHER = 1\n")
    assert script.child_timeout(str(tmp_path)) == 42.0
    (tmp_path / "perfbench" / "run.py").write_text("OTHER = 1\n")
    with pytest.raises(SystemExit):
        script.child_timeout(str(tmp_path))
    assert script.child_timeout(script.ROOT) > 0.0


@pytest.mark.parametrize("wall, warned", [(84.0, False), (85.0, False), (85.5, True), (169.0, True)])
def test_warns_past_half_of_the_child_timeout(wall, warned):
    line = _bench_pairs().timeout_warning(2, "change", wall, 170.0)
    assert (line is not None) is warned
    if warned:
        assert line.startswith("warning: pair 3 change") and "170 s" in line


def test_report_files_per_workload():
    script, declared = _bench_pairs(), ["query", "tail", "cli"]
    assert script.report_files("pr9", "tail", declared) == {"tail": "BENCH_pr9.json"}
    assert script.report_files("pr9", "all", declared) == {
        "query": "BENCH_pr9_query.json", "tail": "BENCH_pr9_tail.json", "cli": "BENCH_pr9_cli.json",
    }
    with pytest.raises(ValueError, match="unknown workload 'qeury'"):
        script.report_files("pr9", "qeury", declared)


def test_unknown_workload_fails_before_the_base_is_exported(monkeypatch, capsys):
    script = _bench_pairs()

    def no_run(*args):
        raise AssertionError("the script went past the workload check")

    for name in ("git", "export", "run_once"):
        monkeypatch.setattr(script, name, no_run)
    with pytest.raises(SystemExit) as exit_:
        script.main(["--label", "x", "--workload", "qeury"])
    assert exit_.value.code == 2
    assert "unknown workload 'qeury'; BENCHMARK.json declares query, tail, cli, or use all" in capsys.readouterr().err
