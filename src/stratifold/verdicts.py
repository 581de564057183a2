"""Three-valued outcomes for procedures that may abstain.

Element-order queries and everything built on them answer with a verdict
rather than a bare number: the computation either certifies a finite
order, certifies that the order is infinite, or runs out of budget and
says so.  Abstention is a first-class result and propagates through the
analysis layer as the shared ``INDETERMINATE`` sentinel.
"""

from __future__ import annotations

from dataclasses import dataclass


class Indeterminate:
    """Singleton result for analyses that could not be certified in budget."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INDETERMINATE"

    def __bool__(self):
        return False


INDETERMINATE = Indeterminate()


@dataclass(frozen=True)
class FiniteOrder:
    """Certified finite order: word^order = 1 and no smaller power is."""

    order: int
    certificate: str

    @property
    def is_finite(self):
        return True


@dataclass(frozen=True)
class InfiniteOrder:
    """Certified infinite order (e.g. an infinite abelianized image)."""

    certificate: str

    @property
    def is_finite(self):
        return False


@dataclass(frozen=True)
class UnknownOrder:
    """Budget exhausted before any certificate was found."""

    budget: int

    @property
    def is_finite(self):
        return False


OrderVerdict = FiniteOrder | InfiniteOrder | UnknownOrder
