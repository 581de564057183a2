"""Outcomes of an element-order query, which may abstain.

An element-order query on a presentation answers with a verdict rather
than a bare number: the computation either certifies a finite order,
certifies that the order is infinite, or runs out of budget and says so.
Abstention is a first-class result there.  The order census of a graph
is exact (``stratifold.analysis.black_orders``), so it never abstains,
and nothing that reads it (white holes, the Q-surgery, the obstruction
suite) has an abstention to handle.
"""

from __future__ import annotations

from dataclasses import dataclass


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
