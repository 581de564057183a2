"""Every test starts with no kept order oracle, so the work a test counts
(simplifications, enumerations, power bounds) cannot depend on which
tests ran before it."""

import pytest

from stratifold.analysis import clear_analysis


@pytest.fixture(autouse=True)
def _fresh_analysis():
    clear_analysis()
