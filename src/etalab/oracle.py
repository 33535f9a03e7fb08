"""High-accuracy reference values for eta(s), zeta(s) and remainders.

Evaluation uses the alternating-series acceleration of Cohen,
Rodriguez Villegas and Zagier (Experiment. Math. 9 (2000), 3-12),
whose weights depend only on the term count and telescope the series
error down to roughly (3+sqrt(8))^(-n).  For complex s the error is
inflated by about e^(pi |t| / 2), so the term count grows linearly in
|t|: n = ceil(1.31 D + 0.9 |t|) for D requested decimal digits.

The returned error bound is an empirical certificate: two evaluations
at consecutive term counts are compared, and a rounding floor derived
from the accumulated weight amplitude is added.  Weights, moduli and
phases are carried in extended precision internally so the floor stays
well below the 1e-13 target floor everywhere on sigma in (0,1),
|t| <= 200.  The certificate itself is validated against direct
summation at sigma = 1 in the test suite before anything else trusts
it.

Values with |value| below ten times the certified bound are flagged
zero-indistinguishable rather than reported as zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyUnreachable, DenominatorPole
from .points import as_complex
from .series import partial_sum

TARGET_FLOOR = 1e-13
MAX_IM = 200.0
ZERO_INDISTINGUISHABLE_FACTOR = 10.0

_LD = np.longdouble
_EPS64 = float(np.finfo(np.float64).eps)
_EPS_ACC = float(np.finfo(np.longdouble).eps)

_weights_cache: dict[int, tuple[np.ndarray, np.longdouble]] = {}


def _acceleration_weights(n: int):
    """Weight vector w and scale d with sum(w_k * a_k) / d ~ sum (-1)^k a_k."""
    cached = _weights_cache.get(n)
    if cached is not None:
        return cached
    d = (_LD(3.0) + np.sqrt(_LD(8.0))) ** n
    d = (d + 1.0 / d) / _LD(2.0)
    b = _LD(-1.0)
    c = -d
    w = np.empty(n, dtype=_LD)
    for k in range(n):
        c = b - c
        w[k] = c
        b = b * _LD((k + n) * (k - n)) / (_LD(k + 0.5) * _LD(k + 1.0))
    _weights_cache[n] = (w, d)
    return w, d


def _accelerated_eta(sigma: float, t_abs: float, n: int) -> tuple[complex, float]:
    """One acceleration pass; returns (value, weight amplitude)."""
    w, d = _acceleration_weights(n)
    k = np.arange(1, n + 1, dtype=_LD)
    ln = np.log(k)
    mag = np.exp(_LD(-sigma) * ln)
    theta = _LD(-t_abs) * ln
    prod = w * (mag * np.cos(theta) + 1j * (mag * np.sin(theta)))
    value = complex(prod.sum() / d)
    amp = float(np.abs(prod).sum() / d)
    return value, amp


@dataclass(frozen=True)
class OracleValue:
    """A reference value with a certified absolute error bound."""

    value: complex
    abs_error_bound: float

    @property
    def zero_indistinguishable(self) -> bool:
        return abs(self.value) < ZERO_INDISTINGUISHABLE_FACTOR * self.abs_error_bound

    @property
    def magnitude(self) -> float:
        return abs(self.value)


@dataclass(frozen=True)
class RemainderRecord:
    """R_n(s) = eta(s) - S_n(s) together with its magnitude."""

    n: int
    value: complex
    magnitude: float


def eta(s, target_error: float = TARGET_FLOOR, max_terms: int = 400) -> OracleValue:
    """eta(s) with |value - eta(s)| <= abs_error_bound <= target_error.

    Raises AccuracyUnreachable when the certificate cannot reach
    target_error within max_terms acceleration terms.
    """
    s = as_complex(s)
    if not (math.isfinite(s.real) and math.isfinite(s.imag)):
        raise ValueError(f"eta oracle requires finite s, got {s}")
    if s.real <= 0.0:
        raise ValueError(f"eta oracle requires Re(s) > 0, got {s.real}")
    if target_error < TARGET_FLOOR:
        raise ValueError(f"target_error must be >= {TARGET_FLOOR:g}")
    t_abs = abs(s.imag)
    if t_abs > MAX_IM:
        raise ValueError(f"|Im(s)| = {t_abs:g} outside the supported range <= {MAX_IM:g}")

    digits = -math.log10(target_error)
    n = int(math.ceil(1.31 * digits + 0.9 * t_abs)) + 4
    while True:
        n_check = int(math.ceil(1.2 * n)) + 8
        if n_check > max_terms:
            raise AccuracyUnreachable(
                f"cannot certify {target_error:g} at s = {s} within {max_terms} terms"
            )
        coarse, _ = _accelerated_eta(s.real, t_abs, n)
        value, amp = _accelerated_eta(s.real, t_abs, n_check)
        gap = abs(coarse - value)
        floor = 1e-15 * (1.0 + abs(value)) + _EPS_ACC * amp * (
            4.0 + 2.0 * t_abs * math.log(n_check) + 2.0 * n_check
        )
        bound = 2.0 * gap + floor
        if bound <= target_error:
            if s.imag < 0:
                value = value.conjugate()
            return OracleValue(value, bound)
        n = n_check


_POLE_SPACING = 2.0 * math.pi / math.log(2.0)


def _pole_distance(s: complex) -> float:
    """Distance to the nearest zero of 1 - 2^(1-s), at s = 1 + 2 pi k i / ln 2."""
    k = round(s.imag / _POLE_SPACING)
    return math.hypot(s.real - 1.0, s.imag - k * _POLE_SPACING)


def zeta(s, target_error: float = TARGET_FLOOR, max_terms: int = 400) -> OracleValue:
    """zeta(s) = eta(s) / (1 - 2^(1-s)) with a propagated error bound."""
    s = as_complex(s)
    if _pole_distance(s) < 1e-9:
        raise DenominatorPole(f"s = {s} is within 1e-9 of a zero of 1 - 2^(1-s)")
    e = eta(s, target_error, max_terms)
    denom = 1.0 - 2.0 ** (1.0 - s)
    value = e.value / denom
    bound = (e.abs_error_bound + 4.0 * _EPS64 * (abs(e.value) + abs(value))) / abs(denom)
    return OracleValue(value, bound)


def remainder(n: int, s, target_error: float = TARGET_FLOOR) -> RemainderRecord:
    """R_n(s) = eta(s) - S_n(s); n = 0 returns eta(s) itself."""
    if n < 0:
        raise ValueError(f"remainder index must be >= 0, got {n}")
    value = eta(s, target_error).value - partial_sum(n, s)
    return RemainderRecord(n, value, abs(value))


def self_check(t_values=(0.0, 5.0, 17.5, 37.0, 50.0), n_direct: int = 2_000_000) -> float:
    """Empirical validation of the certificate against direct summation.

    At sigma = 1 the direct sum S_n is within n^(-1) of eta (alternating
    series with decreasing moduli), so |accelerated - S_n| must stay
    below bound + n^(-1).  Returns the worst observed slack fraction;
    raises AccuracyUnreachable if any point violates its certificate.
    """
    worst = 0.0
    for t in t_values:
        s = complex(1.0, t)
        ov = eta(s)
        observed = abs(ov.value - partial_sum(n_direct, s))
        allowed = ov.abs_error_bound + 1.0 / n_direct
        if observed > allowed:
            raise AccuracyUnreachable(
                f"certificate failed at s = {s}: |accelerated - direct| = "
                f"{observed:.3e} > bound + tail = {allowed:.3e}"
            )
        worst = max(worst, observed / allowed)
    return worst
