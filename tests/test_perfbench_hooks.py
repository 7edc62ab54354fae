"""The traced benchmark rebinds engine functions and methods by name.

Installing and removing its tracer here fails at once when one of the
names it hooks is renamed or deleted, and one traced query per space
kind runs the hooks that read the space, such as ``BIDPdb.head``.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

import infpdb
import infpdb.cli  # noqa: F401  (loads every module the tracer hooks)
from infpdb.independence import GeometricTail

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
GOLDEN = Path(__file__).resolve().parent / "golden"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.Tracer()


def test_tracer_installs_and_uninstalls():
    original = GeometricTail.__dict__["truncation_count"]
    tracer = _tracer()
    try:
        tracer.install(infpdb)
        assert GeometricTail.__dict__["truncation_count"] is not original
    finally:
        tracer.uninstall()
    assert GeometricTail.__dict__["truncation_count"] is original


def test_traced_boolean_query_on_ti_and_bid():
    tracer = _tracer()
    tracer.install(infpdb)
    try:
        for space in ("ti_head", "bid"):
            spec, query = str(GOLDEN / f"{space}.json"), str(GOLDEN / "query.txt")
            tracer.begin_op(space)
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    assert infpdb.cli.main(["query", spec, "--query", query, "--epsilon", "0.1"]) == 0
            finally:
                tracer.end_op()
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(2)
    assert tracer.counts["approx.choose_truncation.calls"] == 2
    assert tracer.n_sum == 4 + 11  # the certified n of each golden query
    assert tracer.counts["approx.worlds"] > 0 and tracer.counts["fo.eval_boolean.calls"] > 0
    assert all(value == 0 for name, (value, _) in metrics.items() if name.endswith(".errors"))
