"""Points of the critical strip.

A strip point carries sigma = Re(s), t = Im(s) and the distance
alpha = 1/2 - sigma from the critical line.  Most numerical routines in
this package accept either a :class:`StripPoint` or a plain ``complex``;
``as_complex`` normalises the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class StripPoint:
    """A point s = sigma + i*t with 0 < sigma < 1."""

    sigma: float
    t: float

    def __post_init__(self):
        if not (0.0 < self.sigma < 1.0):
            raise ValueError(f"sigma must lie in (0, 1), got {self.sigma}")
        if not (math.isfinite(self.sigma) and math.isfinite(self.t)):
            raise ValueError("sigma and t must be finite")

    @property
    def alpha(self) -> float:
        """Signed distance to the critical line, alpha = 1/2 - sigma."""
        return 0.5 - self.sigma

    @property
    def in_left_half(self) -> bool:
        """True when the point lies in the open left half of the strip."""
        return 0.0 < self.sigma < 0.5

    def companion(self) -> "StripPoint":
        """The point with sigma replaced by 1 - sigma and the same t.

        Ratios of partial sums at s and at the companion point are formed
        with a common t; modulus-level results agree with the true
        reflection s -> 1-s by conjugate symmetry of the series.
        """
        return StripPoint(1.0 - self.sigma, self.t)

    def conjugate(self) -> "StripPoint":
        return StripPoint(self.sigma, -self.t)

    def __complex__(self) -> complex:
        return complex(self.sigma, self.t)


def as_complex(s) -> complex:
    """Coerce a StripPoint or any complex-like value to ``complex``."""
    return complex(s)


def from_alpha(alpha: float, t: float) -> StripPoint:
    """Strip point at signed distance alpha left of the critical line."""
    return StripPoint(0.5 - alpha, t)
