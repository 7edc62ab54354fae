"""``scripts/instance_prob_cost.py`` times instance probabilities; a smoke
run on small spaces, a fast tail and freshly built fast tails."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "instance_prob_cost.py"


def _script():
    spec = importlib.util.spec_from_file_location("instance_prob_cost", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_times_head_spaces_and_tail_depths():
    script = _script()
    heads = script.head_costs((10, 20), calls=5, rounds=1)
    assert [n for n, _ in heads] == [10, 20] and all(us > 0.0 for _, us in heads)
    stop, rows = script.tail_costs((0.5, 2.0), calls=2, rounds=1, c=0.5, q=0.9)
    assert stop > 0
    assert [(share, i) for share, i, _ in rows] == [(0.5, round(0.5 * stop)), (2.0, 2 * stop)]
    assert all(us > 0.0 for _, _, us in rows)


def test_times_freshly_built_tail_spaces():
    rows = _script().fresh_costs((0.5, 0.9), calls=2, rounds=1)
    assert [q for q, _ in rows] == [0.5, 0.9] and all(us > 0.0 for _, us in rows)
