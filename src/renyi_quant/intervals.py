"""Half-open intervals (lo, hi] on the extended real line.

The half-open convention makes boundary ties deterministic everywhere a real
line gets partitioned: a point sitting exactly on a breakpoint belongs to the
cell on its left.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Interval:
    """Half-open interval (lo, hi]; either endpoint may be infinite."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if math.isnan(self.lo) or math.isnan(self.hi) or not self.lo < self.hi:
            raise ValueError(f"interval requires lo < hi, got ({self.lo}, {self.hi}]")

    def contains(self, x: float) -> bool:
        return self.lo < x <= self.hi

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.lo) and math.isfinite(self.hi)

    def intersect(self, other: Interval) -> Interval | None:
        """Intersection with another interval, or None when empty."""
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        return Interval(lo, hi) if lo < hi else None

    def complement(self) -> tuple[Interval, ...]:
        """The complement of (lo, hi] as up to two disjoint intervals."""
        parts = []
        if math.isfinite(self.lo):
            parts.append(Interval(-math.inf, self.lo))
        if math.isfinite(self.hi):
            parts.append(Interval(self.hi, math.inf))
        return tuple(parts)

    def to_json(self) -> list[float | None]:
        return [None if math.isinf(self.lo) else self.lo,
                None if math.isinf(self.hi) else self.hi]


REAL_LINE = Interval(-math.inf, math.inf)
