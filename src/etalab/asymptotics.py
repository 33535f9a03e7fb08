"""Leading-order cross-checks of the exact disk-gap quantities.

The exact gap radius_diff_sq - center_dist_sq behaves like
sigma^2 / (n (n+1)) / ((n+1)^sigma (n+2)^sigma) as n grows, and the
shrunk-disk variant like eps^2 sigma^2 / (n (n+1)) / (n+2)^(2 sigma).
The exact gap is margin / (p0 p1^2 p2) with pk = (n+k)^sigma; the
margin is p1^2 B, so it equals B n^(-sigma) (n+2)^(-sigma), and every
factor comes from one call of the orbit geometry kernel.  A record
takes a scalar index or an index array; a ratio drifting away from one
as n grows flags transcription drift in the exact geometry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import check_in
from . import orbit


@dataclass(frozen=True)
class AsymptoticRecord:
    """One index, or arrays of them when the record was asked for an index array."""

    n: int
    exact: float
    leading: float

    @property
    def ratio(self) -> float:
        return self.exact / self.leading


def _record(n, s, scale: float | None) -> AsymptoticRecord:
    """Exact gap of the full disks (scale None) or the shrunk ones against its leading term."""
    g = orbit._at(n, s)
    arr = np.asarray(n, dtype=np.float64)
    p2_inv = 2.0 * g.r2 / g.p1  # (n+2)^(-sigma)
    exact = g.bracket * (2.0 * (g.r2 + g.rgap) / g.p1) * p2_inv
    base = complex(s).real ** 2 / (arr * (arr + 1.0))
    if scale is None:
        leading = base / g.p1 * p2_inv
    else:
        exact -= (1.0 - scale**2) * (g.rgap / g.p1) ** 2
        leading = scale**2 * base * p2_inv**2
    if np.ndim(n) == 0:
        exact, leading = float(exact[0]), float(leading[0])
    return AsymptoticRecord(n, exact, leading)


def nesting_gap_record(n, s) -> AsymptoticRecord:
    """Exact full-disk gap against its sigma^2/(n(n+1)) leading term."""
    return _record(n, s, None)


def shrunk_gap_record(n, s, scale: float = 0.5) -> AsymptoticRecord:
    """Exact gap for disks shrunk by `scale` against its leading term.

    scale = 1/2 is the half-radius construction; the leading term grows
    as scale^2, so records at scales 1/2 and 1/4 have ratio 4.
    """
    check_in("scale", scale, "(0, 1]")
    return _record(n, s, scale)
