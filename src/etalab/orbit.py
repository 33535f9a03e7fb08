"""Disk geometry of the partial-sum path and the remainder sandwich.

Once consecutive turn angles drop below pi/2, segments n, n+1, n+2 form
a triangle and each segment supports a disk having it as diameter.  The
sign of a single expression (the nesting margin below) decides whether
the disk on segment n+2 sits strictly inside the disk on segment n.
Beyond the index where the margin stays positive the path is trapped:
the convergence point lies in every later disk, which sandwiches the
remainder magnitude |R_n| between (1-eps)/(2 n^sigma) and n^(-sigma).

All trigonometric quantities are evaluated exactly (no truncated
expansions): near the sign transition the margin is minuscule compared
with its terms and the expansions are nowhere near sharp enough.
"Stays positive" is operationalised as a stable run of configurable
length, scanned in vectorised blocks up to a ceiling.

Any sigma in (0, 1) is accepted, but the start indices grow roughly
like t^2 / sigma^2, so scans near the left strip edge take accordingly
longer and may hit the ceiling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AngleTooLarge, WindowExhausted
from .points import as_complex
from .series import partial_sum_path
from . import oracle

DEFAULT_WINDOW = 1000
DEFAULT_CEILING = 10**7
_SCAN_BLOCK = 1 << 16


@dataclass(frozen=True)
class AngleTriple:
    """Turn angles at segments n+1 and n+2 and their sum."""

    delta1: float
    delta2: float
    beta: float


@dataclass(frozen=True)
class DiskPair:
    """Disks built on segments n and n+2, in the frame of segment n."""

    n: int
    center_n: complex
    center_n2: complex
    radius_n: float
    radius_n2: float
    center_dist_sq: float
    radius_diff_sq: float


@dataclass(frozen=True)
class OrbitDiagnostics:
    """Indices certifying the bound orbit and the remainder sandwich."""

    acute_start: int        # smallest n with all later turn angles < pi/2
    nesting_start: int      # margin > 0 for every later scanned n
    containment_start: int  # eps-scaled disks nest for every later scanned n
    sandwich_start: int     # max of the two starts; sandwich holds beyond
    epsilon: float
    verified_window: int
    margin_flips: int       # positive-to-nonpositive sign changes seen in the scan


@dataclass(frozen=True)
class RemainderBound:
    n: int
    lower: float
    measured: float
    upper: float

    @property
    def holds(self) -> bool:
        return self.lower < self.measured < self.upper


def angle_threshold(t: float) -> int:
    """Smallest integer >= 1/(e^(pi/2t) - 1); turn angles are acute beyond it.

    t = 0 degenerates to 1 (all turn angles vanish).
    """
    if t < 0:
        raise ValueError("angle_threshold is defined for t >= 0; conjugate first")
    if t == 0.0:
        return 1
    return max(1, math.ceil(1.0 / math.expm1(math.pi / (2.0 * t))))


def turn_angles(n: int, t: float) -> AngleTriple:
    """Angles between segments n/n+1 and n+1/n+2; beta is their exact sum."""
    if n < 1:
        raise ValueError(f"index must be >= 1, got {n}")
    d1 = t * math.log1p(1.0 / n)
    d2 = t * math.log1p(1.0 / (n + 1.0))
    return AngleTriple(d1, d2, d1 + d2)


def _angles_block(n: np.ndarray, t: float):
    d1 = t * np.log1p(1.0 / n)
    d2 = t * np.log1p(1.0 / (n + 1.0))
    return d1, d2, d1 + d2


def nesting_margin(n, s):
    """Numerator deciding the sign of radius_diff_sq - center_dist_sq.

    Positive iff the disk on segment n+2 fits strictly inside the disk
    on segment n.  Accepts a scalar index or an index array; requires
    n >= angle_threshold(t).
    """
    s = as_complex(s)
    t = abs(s.imag)
    arr = np.atleast_1d(np.asarray(n, dtype=np.float64))
    if arr.min() < angle_threshold(t):
        raise AngleTooLarge(
            f"margin needs n >= {angle_threshold(t)} at t = {t:g}, got {int(arr.min())}"
        )
    out = _margin_block(arr, s.real, t)
    return float(out[0]) if np.isscalar(n) or np.ndim(n) == 0 else out


def _margin_block(n: np.ndarray, sigma: float, t: float) -> np.ndarray:
    d1, d2, beta = _angles_block(n, t)  # beta - d1 = d2 exactly
    p0 = n**sigma
    p1 = (n + 1.0) ** sigma
    p2 = (n + 2.0) ** sigma
    return p1 * (p2 * np.cos(d1) - p1 * (1.0 + np.cos(beta)) / 2.0) - p0 * (
        p2 - p1 * np.cos(d2)
    )


def disk_pair(n: int, s) -> DiskPair:
    """Centers, radii and squared gaps for the disks on segments n and n+2."""
    s = as_complex(s)
    t = abs(s.imag)
    if n < angle_threshold(t):
        raise AngleTooLarge(f"disk construction needs n >= {angle_threshold(t)}")
    sigma = s.real
    a = turn_angles(n, t)
    r_n = 0.5 * n ** -sigma
    r_n2 = 0.5 * (n + 2.0) ** -sigma
    p1_inv = (n + 1.0) ** -sigma
    center_n = complex(r_n, 0.0)
    center_n2 = complex(
        math.cos(a.delta1) * p1_inv - math.cos(a.beta) * r_n2,
        -math.sin(a.delta1) * p1_inv + math.sin(a.beta) * r_n2,
    )
    # squared center gap, written out so each cosine enters exactly once
    p0 = n**sigma
    p1 = (n + 1.0) ** sigma
    p2 = (n + 2.0) ** sigma
    center_dist_sq = (
        1.0 / p1**2
        + 0.25 / p2**2
        - math.cos(a.delta2) / (p1 * p2)
        + 0.25 / p0**2
        + math.cos(a.beta) / (2.0 * p0 * p2)
        - math.cos(a.delta1) / (p0 * p1)
    )
    return DiskPair(
        n=n,
        center_n=center_n,
        center_n2=center_n2,
        radius_n=r_n,
        radius_n2=r_n2,
        center_dist_sq=center_dist_sq,
        radius_diff_sq=(r_n - r_n2) ** 2,
    )


def _containment_block(n: np.ndarray, sigma: float, t: float, scale: float) -> np.ndarray:
    """True where the scale-shrunk disks nest: center gap < scale * radius gap."""
    d1, _, beta = _angles_block(n, t)
    r_n = 0.5 * n ** -sigma
    r_n2 = 0.5 * (n + 2.0) ** -sigma
    p1_inv = (n + 1.0) ** -sigma
    gx = np.cos(d1) * p1_inv - np.cos(beta) * r_n2 - r_n
    gy = -np.sin(d1) * p1_inv + np.sin(beta) * r_n2
    return np.hypot(gx, gy) < scale * (r_n - r_n2)


def disks_nested(n: int, s, scale: float = 1.0) -> bool:
    """True iff the disks on segments n and n+2, shrunk by scale, nest."""
    if not (0.0 < scale <= 1.0):
        raise ValueError(f"scale must lie in (0, 1], got {scale}")
    s = as_complex(s)
    t = abs(s.imag)
    if n < angle_threshold(t):
        raise AngleTooLarge(f"containment needs n >= {angle_threshold(t)}")
    return bool(
        _containment_block(np.asarray([n], dtype=np.float64), s.real, t, scale)[0]
    )


def _stable_run_start(predicate, start: int, window: int, ceiling: int):
    """Largest failing index followed by `window` consecutive passes.

    `predicate(n_array) -> bool array`.  Returns (index, flips) where
    flips counts pass-to-fail transitions (a nonzero count means the
    onset was not a single sign change).  Raises WindowExhausted when no
    stable run exists below the ceiling.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    last_bad = start - 1
    flips = 0
    prev_good = False  # the region below the threshold counts as failing
    n = start
    while n <= ceiling:
        hi = min(n + _SCAN_BLOCK, ceiling + 1)
        arr = np.arange(n, hi, dtype=np.float64)
        good = predicate(arr)
        bad_idx = np.nonzero(~good)[0]
        if bad_idx.size:
            last_bad = n + int(bad_idx[-1])
        ext = np.concatenate(([prev_good], good))
        flips += int(np.count_nonzero(ext[:-1] & ~ext[1:]))
        prev_good = bool(good[-1])
        if hi - 1 - last_bad >= window:
            return last_bad, flips
        n = hi
    raise WindowExhausted(
        f"no stable run of length {window} found below ceiling {ceiling}"
    )


def nesting_start(s, window: int = DEFAULT_WINDOW, ceiling: int = DEFAULT_CEILING) -> int:
    """Largest index with nesting margin <= 0, stable-positive beyond.

    Returns angle_threshold(t) - 1 when the margin is positive from the
    threshold onward (0 in the degenerate t = 0 case).
    """
    s = as_complex(s)
    t = abs(s.imag)
    sigma = s.real
    idx, _ = _stable_run_start(
        lambda arr: _margin_block(arr, sigma, t) > 0.0,
        angle_threshold(t),
        window,
        ceiling,
    )
    return idx


def containment_start(
    s, scale: float, window: int = DEFAULT_WINDOW, ceiling: int = DEFAULT_CEILING
) -> int:
    """Largest index where scale-shrunk disks fail to nest, stable beyond."""
    if not (0.0 < scale <= 1.0):
        raise ValueError(f"scale must lie in (0, 1], got {scale}")
    s = as_complex(s)
    t = abs(s.imag)
    sigma = s.real
    idx, _ = _stable_run_start(
        lambda arr: _containment_block(arr, sigma, t, scale),
        angle_threshold(t),
        window,
        ceiling,
    )
    return idx


def orbit_diagnostics(
    s,
    epsilon: float = 0.5,
    window: int = DEFAULT_WINDOW,
    ceiling: int = DEFAULT_CEILING,
) -> OrbitDiagnostics:
    """All sandwich indices for the point s at the given epsilon.

    The lower bound (1-eps)/(2 n^sigma) comes from disks shrunk by the
    factor eps itself: the convergence point lies inside every nested
    eps-disk, hence at distance >= (1-eps) * radius from the segment
    endpoint.  The containment scan therefore runs at scale = epsilon.
    """
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    s = as_complex(s)
    t = abs(s.imag)
    start = angle_threshold(t)
    n_o, flips = _stable_run_start(
        lambda arr: _margin_block(arr, s.real, t) > 0.0, start, window, ceiling
    )
    j, _ = _stable_run_start(
        lambda arr: _containment_block(arr, s.real, t, epsilon), start, window, ceiling
    )
    return OrbitDiagnostics(
        acute_start=start,
        nesting_start=n_o,
        containment_start=j,
        sandwich_start=max(n_o, j),
        epsilon=epsilon,
        verified_window=window,
        margin_flips=flips,
    )


def sandwich_report(
    s,
    epsilon: float,
    n_from: int,
    n_to: int,
    target_error: float = oracle.TARGET_FLOOR,
    diagnostics: OrbitDiagnostics | None = None,
) -> list[RemainderBound]:
    """Per-n records (1-eps)/(2 n^sigma) | measured |R_n| | n^(-sigma).

    n_from must exceed the sandwich start; pass precomputed diagnostics
    to skip the rescan.  Measured magnitudes come from one oracle value
    of eta(s) minus streamed partial sums.
    """
    s = as_complex(s)
    if diagnostics is None:
        diagnostics = orbit_diagnostics(s, epsilon)
    if n_from <= diagnostics.sandwich_start:
        raise ValueError(
            f"n_from = {n_from} must exceed the sandwich start "
            f"{diagnostics.sandwich_start}"
        )
    if n_to < n_from:
        raise ValueError("empty range")
    eta_value = oracle.eta(s, target_error).value
    sums = partial_sum_path(s, n_to)[n_from - 1 :]
    n = np.arange(n_from, n_to + 1, dtype=np.float64)
    measured = np.abs(eta_value - sums)
    lower = (1.0 - epsilon) / (2.0 * n**s.real)
    upper = n ** -s.real
    return [
        RemainderBound(int(nn), float(lo), float(me), float(up))
        for nn, lo, me, up in zip(n, lower, measured, upper)
    ]
