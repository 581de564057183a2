"""Three-valued outcomes for procedures that may abstain.

Element-order queries and everything built on them answer with a verdict
rather than a bare number: the computation either certifies a finite
order, certifies that the order is infinite, or runs out of budget and
says so.  Abstention is a first-class result and propagates through the
analysis layer as the shared ``INDETERMINATE`` sentinel.
"""

from __future__ import annotations

from dataclasses import dataclass


class Sentinel:
    """A falsy result that prints as its name; each is one module-level
    constant, compared with ``is``."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self):
        return self.name

    def __bool__(self):
        return False


# an analysis that could not be certified in budget
INDETERMINATE = Sentinel("INDETERMINATE")


@dataclass(frozen=True)
class FiniteOrder:
    """Certified finite order: word^order = 1 and no smaller power is."""

    order: int
    certificate: str


@dataclass(frozen=True)
class InfiniteOrder:
    """Certified infinite order (e.g. an infinite abelianized image)."""

    certificate: str


@dataclass(frozen=True)
class UnknownOrder:
    """Budget exhausted before any certificate was found."""

    budget: int


OrderVerdict = FiniteOrder | InfiniteOrder | UnknownOrder
