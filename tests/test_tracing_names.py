"""The benchmark's layer tracer wraps package functions by name; every name
it lists must still exist, or only a traced benchmark run would notice."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, attr) for module, attr, _ in tracing.SPANS + tracing.COUNTERS]


@pytest.mark.parametrize("module,attr", _traced_names())
def test_traced_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))
