"""The traced benchmark rebinds engine functions and methods by name.

Installing and removing its tracer here fails at once when one of the
names it hooks is renamed or deleted.
"""

import importlib.util
from pathlib import Path

import infpdb
import infpdb.cli  # noqa: F401  (loads every module the tracer hooks)
from infpdb.independence import GeometricTail

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    original = GeometricTail.__dict__["truncation_count"]
    tracer = tracing.Tracer()
    try:
        tracer.install(infpdb)
        assert GeometricTail.__dict__["truncation_count"] is not original
    finally:
        tracer.uninstall()
    assert GeometricTail.__dict__["truncation_count"] is original
