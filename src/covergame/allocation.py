"""``AllocationReport``, the record ``game.allocate_alpha_core`` returns:
the package's one dataclass, because callers build variants of it with
``dataclasses.replace`` (the benchmark's self-tests do). So this is the
one module that imports ``dataclasses``; it imports nothing from the
package, and only ``game.allocate_alpha_core`` loads it. The CLI's
allocate reads the same fields from ``game._alpha_core`` and loads
neither."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class AllocationReport:
    """A stable allocation with its guaranteed and achieved fractions of
    the grand coalition cost. ``grand_cost`` is a Fraction on every graph;
    ``ratio`` is None only when the grand cost is 0."""

    allocation: tuple[Fraction, ...]
    alpha: Fraction
    total: Fraction
    grand_cost: Fraction
    ratio: Fraction | None
