"""Reference values computed apart from etalab, with mpmath.

Nothing here imports etalab.  Every quantity the checks compare against
is rebuilt from its definition at 40 to 50 significant digits (zero
ordinates at 20, which is more than a double holds):

- eta(s) from ``mpmath.altzeta`` and P(s) = eta(1-s)/eta(s);
- partial sums from the Hurwitz tail,
  S_n(s) = eta(s) - (-1)^n 2^(-s) [zeta(s, (n+1)/2) - zeta(s, (n+2)/2)],
  which is exact at any n and costs the same at n = 10 as at n = 10^7;
- the disk-nesting margin and the eps-shrunk containment gap of the
  orbit construction, and the last index where each is non-positive,
  found by doubling and bisection (both are smooth in n with a single
  sign change beyond the acute-angle threshold);
- critical-line zero ordinates from ``mpmath.zetazero``.

The ``eta``-level helpers take sigma and t as floats and return Python
numbers; the orbit helpers return mpmath numbers so signs survive.
"""

from __future__ import annotations

import mpmath
from mpmath import mp

DIGITS = 40
ORBIT_DIGITS = 50
ZERO_DIGITS = 20


def _s(sigma, t):
    return mpmath.mpc(sigma, t)


def eta(sigma: float, t: float) -> complex:
    with mp.workdps(DIGITS):
        return complex(mpmath.altzeta(_s(sigma, t)))


def eta_abs(sigma: float, t: float) -> float:
    with mp.workdps(DIGITS):
        return float(abs(mpmath.altzeta(_s(sigma, t))))


def eta_ratio_modulus(alpha: float, t: float) -> float:
    """|eta(1/2 + alpha + it)| / |eta(1/2 - alpha + it)|."""
    with mp.workdps(DIGITS):
        num = mpmath.altzeta(_s(mpmath.mpf(0.5) + alpha, t))
        den = mpmath.altzeta(_s(mpmath.mpf(0.5) - alpha, t))
        return float(abs(num) / abs(den))


def conjecture_bounds(alpha: float, t: float) -> tuple[float, float]:
    """(1-2a)/(1+2a) (8 pi / 9t)^a and (8 pi / 9t)^a."""
    with mp.workdps(DIGITS):
        a = mpmath.mpf(alpha)
        upper = (8 * mpmath.pi / (9 * mpmath.mpf(t))) ** a
        return float((1 - 2 * a) / (1 + 2 * a) * upper), float(upper)


def _hurwitz(s, a):
    # The 1e-90 imaginary part keeps mpmath off its integer-parameter path,
    # which sums every term from 1 to a; it moves the value by about
    # |s| 1e-90 zeta(sigma + 1, a), far below DIGITS.
    return mpmath.zeta(s, mpmath.mpc(a, mpmath.mpf(10) ** -90))


def _remainder_mp(n: int, s):
    tail = _hurwitz(s, mpmath.mpf(n + 1) / 2) - _hurwitz(s, mpmath.mpf(n + 2) / 2)
    sign = -1 if n % 2 else 1
    return sign * mpmath.power(2, -s) * tail


def remainder(n: int, sigma: float, t: float) -> complex:
    """R_n(s) = eta(s) - S_n(s) from the Hurwitz tail."""
    with mp.workdps(DIGITS):
        return complex(_remainder_mp(n, _s(sigma, t)))


def partial_sum(n: int, sigma: float, t: float) -> complex:
    """S_n(s) = eta(s) - R_n(s)."""
    with mp.workdps(DIGITS):
        s = _s(sigma, t)
        return complex(mpmath.altzeta(s) - _remainder_mp(n, s))


def acute_start(t: float) -> int:
    """max(1, ceil(1/(e^(pi/2t) - 1)))."""
    with mp.workdps(ORBIT_DIGITS):
        return max(1, int(mpmath.ceil(1 / mpmath.expm1(mpmath.pi / (2 * mpmath.mpf(t))))))


def _turns(n, t):
    d1 = t * mpmath.log1p(1 / n)
    d2 = t * mpmath.log1p(1 / (n + 1))
    return d1, d2, d1 + d2


def margin(n: int, sigma: float, t: float):
    """Nesting margin; positive iff the disk on segment n+2 sits inside the disk on n."""
    with mp.workdps(ORBIT_DIGITS):
        n = mpmath.mpf(n)
        sigma, t = mpmath.mpf(sigma), mpmath.mpf(t)
        d1, d2, beta = _turns(n, t)
        p0, p1, p2 = n**sigma, (n + 1) ** sigma, (n + 2) ** sigma
        return p1 * (p2 * mpmath.cos(d1) - p1 * (1 + mpmath.cos(beta)) / 2) - p0 * (
            p2 - p1 * mpmath.cos(d2)
        )


def containment_gap(n: int, sigma: float, t: float, scale: float):
    """scale * (r_n - r_{n+2}) - |center gap|; positive iff the shrunk disks nest."""
    with mp.workdps(ORBIT_DIGITS):
        n = mpmath.mpf(n)
        sigma, t = mpmath.mpf(sigma), mpmath.mpf(t)
        d1, _, beta = _turns(n, t)
        r_n = n**-sigma / 2
        r_n2 = (n + 2) ** -sigma / 2
        p1_inv = (n + 1) ** -sigma
        gx = mpmath.cos(d1) * p1_inv - mpmath.cos(beta) * r_n2 - r_n
        gy = -mpmath.sin(d1) * p1_inv + mpmath.sin(beta) * r_n2
        return mpmath.mpf(scale) * (r_n - r_n2) - mpmath.hypot(gx, gy)


def last_nonpositive(f, lo: int) -> int:
    """Largest n >= lo with f(n) <= 0, for f with one sign change; lo - 1 if none."""
    if f(lo) > 0:
        return lo - 1
    good, step = lo, 1
    while f(good + step) <= 0:
        good += step
        step *= 2
    bad = good + step
    while bad - good > 1:
        mid = (good + bad) // 2
        if f(mid) <= 0:
            good = mid
        else:
            bad = mid
    return good


def nesting_start(sigma: float, t: float) -> int:
    return last_nonpositive(lambda n: margin(n, sigma, t), acute_start(t))


def containment_start(sigma: float, t: float, scale: float) -> int:
    return last_nonpositive(lambda n: containment_gap(n, sigma, t, scale), acute_start(t))


def zero_ordinate(k: int) -> float:
    """Imaginary part of the k-th nontrivial zeta zero, rounded to double.

    20 digits suffice for a double and keep zetazero near 0.1 s a zero.
    """
    with mp.workdps(ZERO_DIGITS):
        return float(mpmath.zetazero(k).imag)
