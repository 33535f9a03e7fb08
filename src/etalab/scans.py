"""Grid scans over (alpha, t): ratio bounds, monotonicity, extrema.

The scanned quantity is |eta(1/2 + alpha + it) / eta(1/2 - alpha + it)|,
which equals |P(1/2 - alpha + it)| wherever the denominator is away
from zero.  Scans run serially; rows are assembled in (t, alpha) order,
and each scan makes one batched oracle call for its whole axis product.
Every axis is errors.axis, which passes errors.axis_count (finite
bounds, a finite positive step, at most MAX_SCAN_POINTS samples) before
anything is allocated.  A one-point grid, ScanGrid(alpha, alpha, 1.0,
t, t, 1.0), recomputes one row of a conjecture scan with the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MAX_IM, MAX_SCAN_POINTS, axis_count, check_alpha_range, check_grid_size
from .errors import axis as _axis  # also read as scans._axis by bench/tests
from .errors import check_finite, check_im, check_in, check_points
from . import functional
from . import oracle

PI_OVER_LN2 = math.pi / math.log(2.0)


@dataclass(frozen=True)
class ScanGrid:
    alpha_from: float = 0.0
    alpha_to: float = 0.45
    alpha_step: float = 0.05
    t_from: float = 2.0 * math.pi + 1.0
    t_to: float = 120.0
    t_step: float = 0.25

    def __post_init__(self):
        check_alpha_range(self.alpha_from, self.alpha_to)
        if not (0.0 < self.t_from <= self.t_to <= MAX_IM):
            raise ValueError(f"t range must satisfy 0 < from <= to <= {MAX_IM:g}")
        if self.t_from < (tiny := np.finfo(np.float64).smallest_normal):  # (8 pi / 9t)^alpha overflows
            raise ValueError(f"t_from must be a normal double, at least {tiny:g}, got {self.t_from}")
        check_grid_size(self.cardinality)

    def alphas(self) -> np.ndarray:
        return _axis(self.alpha_from, self.alpha_to, self.alpha_step, "alpha")

    def ts(self) -> np.ndarray:
        return _axis(self.t_from, self.t_to, self.t_step)

    @property
    def cardinality(self) -> int:
        return (axis_count(self.alpha_from, self.alpha_to, self.alpha_step, "alpha")
                * axis_count(self.t_from, self.t_to, self.t_step, "t"))


@dataclass(frozen=True)
class BoundCheckRecord:
    alpha: float
    t: float
    ratio: float
    lower: float
    upper: float
    pass_lower: bool
    pass_upper: bool


@dataclass(frozen=True)
class SkippedPoint:
    alpha: float
    t: float
    reason: str


@dataclass(frozen=True)
class ConjectureScanResult:
    records: list[BoundCheckRecord]
    violations: list[BoundCheckRecord]
    skipped: list[SkippedPoint]
    informational: bool  # True when t_from is below the conjectured range


def _mirrored_ratios(alphas, ts, target_error: float):
    """|eta(1/2 + alpha + it)| / |eta(1/2 - alpha + it)| over ts x alphas.

    One oracle call for the whole axis product, in (t, alpha) order with
    each numerator before its denominator.  Returns (ratio, den_abs,
    den_bound) arrays of shape (len(ts), len(alphas)); the ratio is
    infinite where the denominator is exactly zero.
    """
    alphas = np.asarray(alphas, dtype=np.float64)
    sigmas = np.stack([0.5 + alphas, 0.5 - alphas], axis=-1)
    ts = np.asarray(ts, dtype=np.float64)[:, None, None]
    values, bounds = oracle.eta_many(sigmas, ts, target_error)
    num_abs, den_abs = np.hypot(values.real, values.imag).transpose(2, 0, 1)
    ratio = np.divide(num_abs, den_abs, out=np.full(den_abs.shape, math.inf), where=values[..., 1] != 0)
    return ratio, den_abs, bounds[..., 1]


def _bound_check(alpha: float, t: float, ratio: float, den_abs: float, den_bound: float):
    if den_abs < oracle.ZERO_INDISTINGUISHABLE_FACTOR * den_bound:
        return SkippedPoint(alpha, t, f"denominator zero-indistinguishable (|eta| = {den_abs:.2e})")
    bounds = functional.conjecture_bounds(alpha, t)
    return BoundCheckRecord(
        alpha=alpha,
        t=t,
        ratio=ratio,
        lower=bounds.lower,
        upper=bounds.upper,
        pass_lower=bounds.lower <= ratio,
        pass_upper=ratio <= bounds.upper,
    )


def scan_conjecture(
    grid: ScanGrid,
    target_error: float = oracle.TARGET_FLOOR,
) -> ConjectureScanResult:
    """One bound check per grid point, ordered by (t, alpha).

    Points where the denominator is zero-indistinguishable are skipped
    with a reason instead of producing a record.
    """
    alphas, ts = grid.alphas(), grid.ts()
    ratio, den_abs, den_bound = (a.tolist() for a in _mirrored_ratios(alphas, ts, target_error))
    results = [
        _bound_check(alpha, t, ratio[i][j], den_abs[i][j], den_bound[i][j])
        for i, t in enumerate(ts.tolist())
        for j, alpha in enumerate(alphas.tolist())
    ]
    records = [r for r in results if isinstance(r, BoundCheckRecord)]
    skipped = [r for r in results if isinstance(r, SkippedPoint)]
    violations = [r for r in records if not (r.pass_lower and r.pass_upper)]
    return ConjectureScanResult(
        records=records,
        violations=violations,
        skipped=skipped,
        informational=grid.t_from < 2.0 * math.pi + 1.0,
    )


@dataclass(frozen=True)
class MonotonicityReport:
    t: float
    strictly_decreasing: bool
    first_violation: tuple[float, float] | None
    values: list[float]


def scan_monotonicity(t: float, alpha_grid) -> MonotonicityReport:
    """Strict decrease of |P(1/2 - alpha + it)| along an ascending grid."""
    check_finite("t", t)
    check_im(abs(t))
    alphas = [float(a) for a in alpha_grid]
    if any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise ValueError("alpha grid must be strictly ascending")
    values = [functional.functional_ratio_modulus(complex(0.5 - a, t)) for a in alphas]
    for (a0, v0), (a1, v1) in zip(zip(alphas, values), zip(alphas[1:], values[1:])):
        if not v1 < v0:
            return MonotonicityReport(t, False, (a0, a1), values)
    return MonotonicityReport(t, True, None, values)


@dataclass(frozen=True)
class ExtremumRecord:
    t: float
    ratio: float
    nearest_multiple: int  # k with the extremum near k * pi / ln 2
    distance: float


@dataclass(frozen=True)
class ExtremaReport:
    alpha: float
    minima: list[ExtremumRecord]
    maxima: list[ExtremumRecord]
    window_width: float  # 2 pi / ln 2; expected one max and one min per window
    t_from: float
    t_to: float


def extrema_structure(
    alpha: float,
    t_from: float,
    t_to: float,
    t_step: float = 0.01,
    target_error: float = oracle.TARGET_FLOOR,
) -> ExtremaReport:
    """Local extrema of the eta-ratio modulus along t at fixed alpha.

    The curve is smoothed over a window of 3 samples before the
    three-point comparison, which suppresses spurious flat-region
    extrema at the oracle noise scale.  Minima sit near even multiples
    of pi/ln 2 and maxima are reported against odd multiples; distances
    are reported, not asserted.  alpha must lie in [0, 1/2).  At
    alpha = 0 the ratio is identically 1: the axis is validated and
    nothing is evaluated.
    """
    check_in("alpha", alpha, "[0, 1/2)")
    if t_step > 0.01:
        raise ValueError(f"t_step must be <= 0.01 to resolve extrema, got {t_step}")
    ts = _axis(t_from, t_to, t_step)
    if alpha == 0.0:  # the ratio is identically 1: validate, evaluate nothing
        check_points(0.5, ts, target_error)
        return ExtremaReport(alpha, [], [], 2.0 * PI_OVER_LN2, t_from, t_to)
    vals = _mirrored_ratios([alpha], ts, target_error)[0][:, 0]
    smooth = np.convolve(vals, np.ones(3) / 3.0, mode="same")
    minima: list[ExtremumRecord] = []
    maxima: list[ExtremumRecord] = []
    for i in range(1, len(ts) - 1):
        t = float(ts[i])
        if smooth[i] < smooth[i - 1] and smooth[i] <= smooth[i + 1]:
            k = 2 * round(t / (2.0 * PI_OVER_LN2))
            minima.append(ExtremumRecord(t, float(vals[i]), k, abs(t - k * PI_OVER_LN2)))
        elif smooth[i] > smooth[i - 1] and smooth[i] >= smooth[i + 1]:
            k = 2 * round((t / PI_OVER_LN2 - 1.0) / 2.0) + 1
            maxima.append(ExtremumRecord(t, float(vals[i]), k, abs(t - k * PI_OVER_LN2)))
    return ExtremaReport(alpha, minima, maxima, 2.0 * PI_OVER_LN2, t_from, t_to)
