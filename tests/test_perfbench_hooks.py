"""The traced benchmark rebinds engine functions and methods by name.

Installing and removing its tracer here fails at once when one of the
names it hooks is renamed or deleted, and one traced query per space
kind runs the hooks that read the space, such as ``BIDPdb.head``.
"""

import contextlib
import importlib.util
import io
import random
from pathlib import Path

import infpdb
import infpdb.cli  # noqa: F401  (loads every module the tracer hooks)
from infpdb.independence import GeometricTail

from helpers import count_walk

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


def test_traced_open_query_walks_each_tuple_on_its_own_facts(monkeypatch):
    tracer = _tracer()
    tracer.install(infpdb)
    try:
        # counts through the tracer's wrapper, and is undone before uninstalling
        with monkeypatch.context() as patch:
            walked = count_walk(patch, infpdb.approx)
            spec, query = str(GOLDEN / "bid.json"), str(GOLDEN / "open_query.txt")
            tracer.begin_op("bid")
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    assert infpdb.cli.main(["query", spec, "--query", query, "--epsilon", "0.1"]) == 0
            finally:
                tracer.end_op()
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(1)
    assert [span[1] for span in tracer.spans].count("approx.approx_nonboolean") == 1
    # exists y. R(x, y) & !(y = '1') on the blocks R(1, .), R(2, .), R(3, .):
    # x = 1 walks 3 worlds, x = 2 and x = 3 walk 2 each, and the other five
    # candidates and the pattern (*1) walk one world with no R fact each
    assert tracer.counts["fo.eval_boolean.calls"] == 3 + 2 + 2 + 6
    assert len(walked) == 3 + 2 + 2 + 6
    # a walked world is a relation index, not an Instance
    assert tracer.counts["core.instances_built"] == 0
    assert all(value == 0 for name, (value, _) in metrics.items() if name.endswith(".errors"))


def test_traced_sample_records_the_tail_truncation_and_the_draws():
    tracer = _tracer()
    tracer.install(infpdb)
    try:
        tracer.begin_op("sample")
        try:
            spec = str(GOLDEN / "ti_tail.json")
            with contextlib.redirect_stdout(io.StringIO()):
                assert infpdb.cli.main(["sample", spec, "--n", "5", "--seed", "7"]) == 0
            # pdb sample draws through BIDPdb.sample, which every kind shares
            space = infpdb.specio.load_spec(spec).space()
            infpdb.independence.ti_sample(space, random.Random(7), 1e-9)
        finally:
            tracer.end_op()
    finally:
        tracer.uninstall()
    names = [span[1] for span in tracer.spans]
    # the skip plan is built once per tail and tolerance, on its first draw
    assert names.count("independence.truncation_count") == 2
    assert names.count("independence.bid_sample") == 5 and names.count("independence.ti_sample") == 1
    assert tracer.counts["independence.draws"] == 6
    assert all(value == 0 for name, (value, _) in tracer.metrics(1).items() if name.endswith(".errors"))


def test_traced_queries_on_finite_and_completion_specs():
    """A table's space lists its head facts like every other kind's, so the
    world-count hook reads finite and completion specs too."""
    tracer = _tracer()
    tracer.install(infpdb)
    try:
        for space in ("finite", "completion"):
            spec, query = str(GOLDEN / f"{space}.json"), str(GOLDEN / "unary_query.txt")
            tracer.begin_op(space)
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    assert infpdb.cli.main(["query", spec, "--query", query, "--epsilon", "0.4"]) == 0
            finally:
                tracer.end_op()
    finally:
        tracer.uninstall()
    assert tracer.counts["approx.choose_truncation.calls"] == 2
    assert all(value == 0 for name, (value, _) in tracer.metrics(2).items() if name.endswith(".errors"))
