"""Every test starts with no kept order oracle, no kept order census and
no kept graph text, so the work a test counts (reads, reductions,
folds, power bounds) cannot depend on which tests ran before it."""

import pytest

import stratifold.cli
from stratifold.analysis import _fold, analyze


@pytest.fixture(autouse=True)
def _fresh_analysis():
    analyze.cache_clear()
    _fold.cache_clear()
    stratifold.cli._read_graph.cache_clear()
