"""Every test starts with no kept order oracle and no kept graph text, so
the work a test counts (reads, reductions, enumerations, power
bounds) cannot depend on which tests ran before it."""

import pytest

import stratifold.cli
from stratifold.analysis import analyze


@pytest.fixture(autouse=True)
def _fresh_analysis():
    analyze.cache_clear()
    stratifold.cli._read_graph.cache_clear()
