"""The functional-equation ratio P(s) and everything derived from it.

P(s) = (1-2^s)/(1-2^(1-s)) * 2 (2 pi)^(-s) * cos(pi s / 2) * Gamma(s)
equals eta(1-s)/eta(s) wherever eta(s) != 0.  On the critical line
|P(1/2+it)| = 1 exactly; on the open left half of the strip P never
vanishes (the two-power factor has its numerator zeros on Re(s) = 0 at
t = 2 pi k / ln 2, the cosine modulus is bounded below by sinh(pi t/2),
and Gamma has no zeros).

Gamma uses the Lanczos rational approximation with the g = 607/128,
15-term coefficient set (Godfrey 2001), reflected for Re(s) < 1/2;
relative accuracy is ~1e-13 on the strip for |Im| <= 200.  Moduli that
mix cosh-scale growth with Gamma decay are also available in log space
so scans stay finite at any height.

For fixed t >= 2 pi + 1, |P(1/2 - alpha + i t)| decreases strictly in
alpha; this follows from the Saidak-Zvengrowski monotonicity of the
ratio of zeta moduli at critical-line-symmetric arguments combined with
the two-power factor's own monotone decrease.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import PoleError, ZeroDenominator, axis_count, check_in, check_points, check_positive
from . import oracle

_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)


def _lanczos_series(z: complex) -> complex:
    ser = _LANCZOS_C[0]
    for i in range(1, len(_LANCZOS_C)):
        ser += _LANCZOS_C[i] / (z + i)
    return ser


def gamma(s) -> complex:
    """Complex Gamma(s); raises PoleError at non-positive integers.

    Raises OverflowError instead of returning infinities when the value
    leaves double range (real part beyond ~171); use log_abs_gamma for
    moduli out there.
    """
    z = complex(s)
    if z.imag == 0.0 and z.real <= 0.0 and z.real == int(z.real):
        raise PoleError(f"Gamma pole at {z.real:g}")
    if z.real < 0.5:
        return math.pi / (cmath.sin(math.pi * z) * gamma(1.0 - z))
    z -= 1.0
    w = z + _LANCZOS_G + 0.5
    value = math.sqrt(2.0 * math.pi) * w ** (z + 0.5) * cmath.exp(-w) * _lanczos_series(z)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise OverflowError(f"Gamma({s}) exceeds double range; use log_abs_gamma")
    return value


def log_abs_gamma(s) -> float:
    """ln|Gamma(s)|, stable at heights where Gamma itself underflows."""
    z = complex(s)
    if z.imag == 0.0 and z.real <= 0.0 and z.real == int(z.real):
        raise PoleError(f"Gamma pole at {z.real:g}")
    if z.real < 0.5:
        return math.log(math.pi) - _log_abs_trig(cmath.sin, math.pi * z) - log_abs_gamma(1.0 - z)
    z -= 1.0
    w = z + _LANCZOS_G + 0.5
    head = (z.real + 0.5) * 0.5 * math.log(w.real**2 + w.imag**2) - z.imag * math.atan2(w.imag, w.real)
    return 0.5 * math.log(2.0 * math.pi) + head - w.real + math.log(abs(_lanczos_series(z)))


def _log_abs_trig(fn, z: complex) -> float:
    """ln|fn(x+iy)| for fn = cmath.sin or cmath.cos, without overflow.

    |sin|^2 = sin^2 x + sinh^2 y = (cosh 2y - cos 2x)/2, which is e^(2y)/4
    (1 - 2 cos(2x) e^(-2y) + e^(-4y)); |cos|^2 is the same with + 2 cos(2x).
    """
    x, y = z.real, abs(z.imag)
    if y < 1.0:
        return math.log(abs(fn(complex(x, y))))
    return y - math.log(2.0) + 0.5 * math.log1p(
        (-2.0 if fn is cmath.sin else 2.0) * math.cos(2.0 * x) * math.exp(-2.0 * y) + math.exp(-4.0 * y)
    )


@dataclass(frozen=True)
class FunctionalRatio:
    """P(s) together with its four factors."""

    value: complex
    factor_two_power: complex
    factor_exp: complex
    factor_cos: complex
    factor_gamma: complex


def two_power_factor(s) -> complex:
    """(1 - 2^s) / (1 - 2^(1-s)).

    The numerator vanishes exactly at s = i * 2 pi k / ln 2 (measured on
    the Re(s) = 0 line), so the factor is nonzero throughout the open
    strip interior.
    """
    z = complex(s)
    return (1.0 - 2.0**z) / (1.0 - 2.0 ** (1.0 - z))


def functional_ratio(s) -> FunctionalRatio:
    """P(s) as the product of its four factors, for 0 < Re(s) < 1 and |t| <= 200."""
    z = complex(s)
    check_points(z.real, z.imag)  # |t| <= 200 keeps the factors in range
    if not (0.0 < z.real < 1.0):
        raise ValueError(f"functional ratio needs 0 < Re(s) < 1, got {z.real}")
    f_two = two_power_factor(z)
    f_exp = 2.0 * (2.0 * math.pi) ** (-z)
    f_cos = cmath.cos(0.5 * math.pi * z)
    f_gamma = gamma(z)
    return FunctionalRatio(f_two * f_exp * f_cos * f_gamma, f_two, f_exp, f_cos, f_gamma)


def functional_ratio_modulus(s) -> float:
    """|P(s)| assembled in log space; finite at any finite height."""
    z = complex(s)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"functional ratio needs finite s, got {z}")
    log_mod = (
        math.log(abs(two_power_factor(z)))
        + math.log(2.0)
        - z.real * math.log(2.0 * math.pi)
        + _log_abs_trig(cmath.cos, 0.5 * math.pi * z)
        + log_abs_gamma(z)
    )
    return math.exp(log_mod)


def critical_line_deviation(t: float) -> float:
    """| |P(1/2 + it)| - 1 |; zero in exact arithmetic for every t."""
    check_positive("t", t)
    return abs(abs(functional_ratio(complex(0.5, t)).value) - 1.0)


@dataclass(frozen=True)
class ConjectureBounds:
    """Closed-form envelope for the eta-ratio modulus at (alpha, t)."""

    alpha: float
    t: float
    lower: float
    upper: float


def conjecture_bounds(alpha: float, t: float) -> ConjectureBounds:
    """Bounds (1-2a)/(1+2a) * (8 pi / 9t)^a <= ratio <= (8 pi / 9t)^a.

    Stated for t >= 2 pi + 1; evaluation below that is allowed but has
    informational status only.
    """
    check_in("alpha", alpha, "[0, 1/2)")
    check_positive("t", t)
    upper = (8.0 * math.pi / (9.0 * t)) ** alpha
    lower = (1.0 - 2.0 * alpha) / (1.0 + 2.0 * alpha) * upper
    return ConjectureBounds(alpha, t, lower, upper)


@dataclass(frozen=True)
class ApproxDeviationReport:
    """Worst-case gap of an elementary bound approximation over sigma."""

    which: str
    max_deviation: float
    argmax_sigma: float
    violations: int
    grid_step: float


def approx_deviation_scan(which: str, grid_step: float = 1e-4) -> ApproxDeviationReport:
    """Deviation scan for the two elementary two-power approximations.

    "upper-approx":  (1+2^sigma)/(1+2^(1-sigma)) <= (4/9)^(1/2-sigma)
    "lower-approx":  sigma/(1-sigma) (4/9)^(1/2-sigma) <= (1-2^sigma)/(1-2^(1-sigma))

    Both hold on sigma in [0, 1/2] with equality at the endpoints; the
    report carries the maximum absolute deviation, its location, and the
    count of grid points where the inequality direction fails (beyond a
    4-ulp rounding allowance).
    """
    axis_count(0, 0.5, grid_step, "grid")  # the samples <= 0.5; the arange below may add 0.5
    if grid_step > 1e-4:
        raise ValueError(f"grid_step must be <= 1e-4, got {grid_step}")
    sigma = np.arange(0.0, 0.5 + 0.5 * grid_step, grid_step)
    sigma[-1] = 0.5
    if which == "upper-approx":
        dev = (4.0 / 9.0) ** (0.5 - sigma) - (1.0 + 2.0**sigma) / (1.0 + 2.0 ** (1.0 - sigma))
    elif which == "lower-approx":
        two_ratio = np.ones_like(sigma)
        mask = (sigma > 0.0) & (sigma < 0.5)
        inner = sigma[mask]
        two_ratio[mask] = (1.0 - 2.0**inner) / (1.0 - 2.0 ** (1.0 - inner))
        two_ratio[sigma == 0.0] = 0.0
        dev = two_ratio - sigma / (1.0 - sigma) * (4.0 / 9.0) ** (0.5 - sigma)
    else:
        raise ValueError(f"unknown scan {which!r}")
    tol = 4.0 * np.finfo(np.float64).eps
    idx = int(np.argmax(dev))
    return ApproxDeviationReport(
        which=which,
        max_deviation=float(dev[idx]),
        argmax_sigma=float(sigma[idx]),
        violations=int(np.count_nonzero(dev < -tol)),
        grid_step=grid_step,
    )


def two_power_alpha_ratio(alpha: float, t: float) -> float:
    """|1 - 2^(1/2 - alpha + it)| / |1 - 2^(1/2 + alpha - it)|."""
    num = abs(1.0 - 2.0 ** complex(0.5 - alpha, t))
    den = abs(1.0 - 2.0 ** complex(0.5 + alpha, -t))
    return num / den


def two_power_alpha_derivative(alpha: float, t: float, step: float = 1e-6) -> float:
    """Central finite difference in alpha of the two-power modulus ratio.

    Negative throughout alpha in [0, 1/2] except at the isolated points
    alpha = 1/2, t = 2 pi k / ln 2 where it vanishes.
    """
    if alpha - step < -0.5:
        raise ValueError("alpha - step out of range")
    return (
        two_power_alpha_ratio(alpha + step, t) - two_power_alpha_ratio(alpha - step, t)
    ) / (2.0 * step)


def _oracle_pair(sigmas, t: float, target_error: float):
    """eta and zeta at sigma + i t for the two sigmas, from one oracle pass."""
    values, bounds = oracle.eta_many(sigmas, t, target_error)
    etas = list(map(oracle.OracleValue, values.tolist(), bounds.tolist()))
    zetas = [oracle._zeta_from_eta(complex(sigma, t), e) for sigma, e in zip(sigmas, etas)]
    return etas, zetas


def zeta_modulus_ratio(alpha: float, t: float, target_error: float = oracle.TARGET_FLOOR) -> float:
    """|zeta(1/2 - alpha + it)| / |zeta(1/2 + alpha + it)|.

    Monotone increasing in alpha for t >= 2 pi + 1 (Saidak-Zvengrowski).
    """
    _, (num, den) = _oracle_pair([0.5 - alpha, 0.5 + alpha], t, target_error)
    if den.zero_indistinguishable:
        raise ZeroDenominator(abs(den.value))
    return abs(num.value) / abs(den.value)


def sz_relation_deviation(
    alpha: float, t: float, target_error: float = oracle.TARGET_FLOOR
) -> float:
    """Absolute deviation between the two sides of the eta-ratio identity

        |eta(1/2+a+it)| / |eta(1/2-a+it)|
            = |1 - 2^(1/2-a+it)| / |1 - 2^(1/2+a-it)| / a(alpha, t)

    with a(alpha, t) the ratio of zeta moduli from zeta_modulus_ratio.
    Both sides come from one oracle pass at the two points.
    """
    (num, den), (zeta_num, zeta_den) = _oracle_pair([0.5 + alpha, 0.5 - alpha], t, target_error)
    for value in (den, zeta_num):  # the denominators of the two sides
        if value.zero_indistinguishable:
            raise ZeroDenominator(abs(value.value))
    lhs = abs(num.value) / abs(den.value)
    rhs = two_power_alpha_ratio(alpha, t) * abs(zeta_num.value) / abs(zeta_den.value)
    return abs(lhs - rhs)
