"""Validation runs once per parameter set: the decomposition validate
returns is what the counts, the verdicts and the reports read."""

import sys

import pytest

from howe5 import howe_factory
from howe5.cli import main
from howe5.search_engine import SearchConfig, Target, run_search


@pytest.fixture
def validate_calls(monkeypatch):
    """The parameter sets validated, counted through every howe5 module that
    bound validate_many, which validate and the search's batch confirmation
    both call, as the benchmark's layer tracer wraps a function."""
    real = howe_factory.validate_many
    calls = []

    def counted(batch):
        calls.extend(batch)
        return real(batch)

    for name, module in list(sys.modules.items()):
        if name == "howe5" or name.startswith("howe5."):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def test_selftest_validates_each_worked_example_once(validate_calls, capsys):
    assert main(["selftest"]) == 0
    assert len(validate_calls) == 3


def test_verify_tables_validates_each_row_once(validate_calls, capsys):
    assert main(["verify-tables"]) == 0
    assert len(validate_calls) == 25


def test_search_validates_each_confirmation_once(validate_calls):
    # the benchmark's hunt settings
    cfg = SearchConfig(3, 48, Target.MAXIMAL_FP2, max_candidates=100_000, max_hits=3, seed=1)
    _, stats = run_search(cfg)
    assert len(validate_calls) == stats.hits + stats.confirm_failures == 15
