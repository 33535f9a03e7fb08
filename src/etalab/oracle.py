"""High-accuracy reference values for eta(s), zeta(s) and remainders.

Evaluation uses the alternating-series acceleration of Cohen,
Rodriguez Villegas and Zagier (Experiment. Math. 9 (2000), 3-12), whose
weights depend only on the term count n and have scale d_n ~ (3+sqrt 8)^n.
Each point is summed once, with a term count linear in |t| up to MAX_TERMS.

The error bound is a-priori.  In the CRVZ integral form, (k+1)^(-s) =
int_0^1 x^k w(x) dx with int |w| = Gamma(sigma) / |Gamma(s)|, so n terms
miss eta by at most T = Gamma(sigma) / (|Gamma(s)| d_n) (cf. Borwein
2000, Prop. 1).  The Gamma ratio is bounded in closed form, and the
term count is raised where T would exceed half the target.  A rounding
floor from the accumulated weight amplitude is added; weights, moduli
and phases are carried in extended precision so it stays well below
the 1e-13 target floor on sigma in (0,1), |t| <= 200.  Values with
|value| below ten times the bound are flagged zero-indistinguishable.

Every evaluation is batched: :func:`eta_many` takes arrays of sigmas
and ts, checked by errors.check_points, and :func:`eta` is its one-point
case.  Points are grouped by term count; within a group, each row of
points with one |t| shares the phases e^(-i |t| ln k), which call libm
at odd k only and take the phase at k = 2m as e^(-i |t| ln 2) times the
one at m.  Rows with the same sigmas share the weighted moduli
w_k k^(-sigma), and a block's real and imaginary sums are two real
longdouble contractions of the phases with them.  A value and its bound
do not depend on the batch they came in, and working memory stays
under fixed block sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MAX_IM, TARGET_FLOOR, AccuracyUnreachable, DenominatorPole, check_at_least, check_points
from .series import partial_sum

ZERO_INDISTINGUISHABLE_FACTOR = 10.0
MAX_TERMS = 400  # the most acceleration terms a point may take

_LD = np.longdouble
_EPS64 = float(np.finfo(np.float64).eps)
_EPS_ACC = float(np.finfo(np.longdouble).eps)

_BLOCK = 1 << 12  # terms per pass in one evaluation block
_CHUNK = 1 << 9  # points certified together

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


def _leading(mask) -> int:
    """Number of leading True entries of a boolean array."""
    return mask.size if mask.all() else int(mask.argmin())


def _blocks(sig, t_abs, cap: int):
    """Split points into blocks (lo, rows, width) of at most cap points.

    A row is a run of points with one |t|, cut at cap points.  A block
    is one row, or `rows` consecutive rows of `width` points each, with
    the sigmas of the first, in at most cap // 2 points: batching narrow
    rows further gains little and raises the peak memory.
    """
    lo = 0
    while lo < sig.size:
        width = _leading(t_abs[lo : lo + cap] == t_abs[lo])
        stop = lo + max(1, min(cap // 2, sig.size - lo) // width) * width
        ts = t_abs[lo:stop].reshape(-1, width)
        sigmas = sig[lo:stop].reshape(-1, width)
        rows = _leading(((ts == ts[:, :1]) & (sigmas == sigmas[0])).all(axis=1))
        yield lo, rows, width
        lo += rows * width


def _log_gamma_ratio(sig, t_abs):
    """An upper bound l on ln(Gamma(sigma) / |Gamma(sigma + i t)|), in longdouble.

    By the product formula, twice that log is the sum over k >= 0 of the
    decreasing f(sigma + k), f(x) = ln(1 + t^2 / x^2): at most f(sigma)
    plus the integral -sigma f(sigma) + 2 |t| arctan(|t| / sigma).  As
    log1p(r^2) + 2 ln(max / sigma), r = min / max of sigma and |t|,
    f(sigma) stays finite for subnormal sigma, and l = 0 at t = 0.
    """
    sig, t = sig.astype(_LD), t_abs.astype(_LD)
    big = np.maximum(sig, t)
    r = np.minimum(sig, t) / big
    f = np.log1p(r * r) + 2.0 * (np.log(big) - np.log(sig))
    return 0.5 * (1.0 - sig) * f + t * np.arctan2(t, sig)


def _phases(t_abs, ln):
    """e^(-i |t| ln k) for k = 1 .. n, a row per |t|, in complex longdouble.

    libm runs at odd k only (cexp, one call for cos and sin).  The phase
    at k = 2m is the one at m times e^(-i |t| ln 2); every k = 2^j m, m
    odd, gets its j products at once through strided slices, with j = 1,
    2, ... in turn.
    """
    t = (-t_abs).astype(_LD)[:, None]
    phase = np.empty((t.shape[0], ln.size), dtype=np.clongdouble)
    odd = phase[:, ::2]
    odd.real = 0.0
    np.multiply(t, ln[::2], out=odd.imag)
    np.exp(odd, out=odd)
    two = np.exp(1j * (t * ln[1:2]))
    step = 2
    while step <= ln.size:  # k = step * odd, from k / 2
        even = phase[:, step - 1 :: 2 * step]
        np.multiply(two, phase[:, step // 2 - 1 :: step][:, : even.shape[1]], out=even)
        step *= 2
    return phase


def _pass(sig, t_abs, n: int, ln):
    """Sums of n accelerated terms and their amplitudes, two contractions per block.

    Per block (see _blocks), the phases of each row come from _phases,
    and the weighted moduli w_k k^(-sigma) once per sigma of the first
    row, kept while the sigmas repeat, with their amplitude sum |w_k
    k^(-sigma)| / d.  The real and imaginary parts are two real
    longdouble dot products, each a plain running sum over k.
    """
    w, d = _acceleration_weights(n)
    value = np.empty(sig.size, dtype=np.complex128)
    amp = np.empty(sig.size)
    pattern = None
    for lo, rows, width in _blocks(sig, t_abs, max(1, _BLOCK // n)):
        hi = lo + rows * width
        if pattern is None or not np.array_equal(sig[lo : lo + width], pattern):
            pattern = sig[lo : lo + width]
            wm = np.exp((-pattern).astype(_LD)[:, None] * ln) * w
            scale = np.abs(wm).sum(axis=-1) / d
        phase = _phases(t_abs[lo:hi:width], ln)
        value.real[lo:hi] = (np.dot(phase.real, wm.T) / d).ravel()
        value.imag[lo:hi] = (np.dot(phase.imag, wm.T) / d).ravel()
        amp[lo:hi].reshape(rows, width)[...] = scale
    return value, amp


def _certify(sig, t, target_error: float):
    """Values and bounds T + rounding floor at the points of one chunk.

    A point gets ceil(1.2 n) + 8 terms (at least 1), n = ceil(1.31 D +
    0.9 |t|) + 4 for D = -log10(target_error).  Where T = exp(l) / d_n
    may exceed target_error / 2 there (sigma near 0, at small |t|), the
    count is raised to the smallest one with T <= target_error
    / 2: as d_n > (3+sqrt 8)^n / 2, that is `up` or `up - 1`, and
    T(up - 1) decides.  Raises AccuracyUnreachable for the first point
    whose count exceeds MAX_TERMS (it is never summed) or whose bound
    exceeds the target.

    The rounding floor is 1e-15 (1 + |value|), for the rounding to
    double, plus eps amp (4 + 2 |t| ln n + 2 n), with eps the longdouble
    epsilon and amp = sum |w_k k^(-sigma)| / d, which equals sum |w_k
    a_k| / d in exact arithmetic as |phase| = 1.  A libm phase (odd k)
    is off by at most eps (|t| ln k + 1): ln k and its product with |t|
    are rounded, then cexp.  An even k = 2^j m, m odd, takes j <= log2 n
    products with e^(-i |t| ln 2), each adding at most eps (|t| ln 2 +
    2.5) with that factor's own error, so its phase is off by at most
    eps (|t| ln k + 2.5 log2 k + 1).  The floor's 2 |t| ln n covers the
    |t| ln k part as before, and its 2 n, which exceeds the two running
    sums' n / 2 each by n >= 2.5 log2 n - 3, covers the 2.5 log2 n more.
    """
    t_abs = np.abs(t)
    n = np.ceil(1.31 * -math.log10(target_error) + 0.9 * t_abs) + 4.0
    counts = np.maximum(np.ceil(1.2 * n) + 8.0, 1.0)
    ell = _log_gamma_ratio(sig, t_abs)
    scale = np.exp(ell)
    up = np.ceil((ell + math.log(4.0 / target_error)) / math.log(3.0 + math.sqrt(8.0)))
    low = up > counts
    first = up[low] - 1.0
    d = np.array([_acceleration_weights(int(m))[1] for m in first.tolist()], dtype=_LD)
    counts[low] = first + (scale[low] / d > target_error / 2.0)
    values = np.empty(sig.size, dtype=np.complex128)
    bounds = np.full(sig.size, math.inf)
    kept = sorted(set(counts[counts <= MAX_TERMS].tolist()))
    ln = np.log(np.arange(1, max(kept, default=0) + 1, dtype=_LD))
    for nc in map(int, kept):
        g = np.flatnonzero(counts == nc)
        value, amp = _pass(sig[g], t_abs[g], nc, ln[:nc])
        floor = 1e-15 * (1.0 + np.hypot(value.real, value.imag)) + _EPS_ACC * amp * (
            4.0 + 2.0 * t_abs[g] * math.log(nc) + 2.0 * nc
        )
        values[g] = value
        bounds[g] = (scale[g] / _acceleration_weights(nc)[1]).astype(np.float64) + floor
    missed = np.flatnonzero(~(bounds <= target_error))
    if missed.size:
        i = int(missed[0])
        raise AccuracyUnreachable(
            f"cannot certify {target_error:g} at s = {complex(sig[i], t[i])}"
            f" within {MAX_TERMS} terms"
        )
    negative = t < 0
    values[negative] = values[negative].conjugate()
    return values, bounds


def eta_many(sigmas, ts, target_error: float = TARGET_FLOOR):
    """eta(sigma + i t) at every point of the broadcast of sigmas and ts.

    Returns (values, bounds): complex128 and float64 arrays of the
    broadcast shape with |value - eta| <= bound <= target_error, each
    pair bit-identical to a one-point call.  The points are checked
    (errors.check_points), then certified in C-order chunks of _CHUNK
    points, so AccuracyUnreachable names the first point in C order
    whose term count exceeds MAX_TERMS or whose bound exceeds target_error.
    """
    sig, t = check_points(sigmas, ts, target_error)
    values = np.empty(sig.size, dtype=np.complex128)
    bounds = np.empty(sig.size)
    for lo in range(0, sig.size, _CHUNK):
        hi = lo + _CHUNK
        values[lo:hi], bounds[lo:hi] = _certify(sig.flat[lo:hi], t.flat[lo:hi], target_error)
    return values.reshape(sig.shape), bounds.reshape(sig.shape)


def eta(s, target_error: float = TARGET_FLOOR) -> OracleValue:
    """eta(s) with |value - eta(s)| <= abs_error_bound <= target_error.

    The one-point case of :func:`eta_many`.  Raises AccuracyUnreachable
    when the bound cannot reach target_error within MAX_TERMS
    acceleration terms.
    """
    s = complex(s)
    value, bound = eta_many(s.real, s.imag, target_error)
    return OracleValue(complex(value), float(bound))


_POLE_SPACING = 2.0 * math.pi / math.log(2.0)


def _pole_distance(s: complex) -> float:
    """Distance to the nearest zero of 1 - 2^(1-s), at s = 1 + 2 pi k i / ln 2."""
    k = round(s.imag / _POLE_SPACING)
    return math.hypot(s.real - 1.0, s.imag - k * _POLE_SPACING)


def _zeta_from_eta(s: complex, e: OracleValue) -> OracleValue:
    """zeta(s) = eta(s) / D, D = 1 - 2^(1-s), from a certified eta(s).

    D = 1 - 2^(1-sigma) e^(-i |t| ln 2) is taken in longdouble (and
    conjugated for t < 0), then rounded to double.  Its error B_D is at
    most 2 eps_ld (m (|t| ln 2 + |1 - sigma| + 3) + |D|) + eps |D|, m =
    2^(1-sigma): the rounded argument |t| ln 2, exp2 and its rounded
    exponent, cos, sin, and the products, subtraction and final
    rounding.  As eta/D - e/D' = (eta - e)/D + e (D' - D)/(D D'), the
    value misses zeta by at most (B_eta + |e| B_D / |D'|) / (|D'| - B_D),
    plus 4 eps |value| for the division in double.  s must lie off the
    zeros of D (see zeta).
    """
    t_abs = abs(s.imag)
    m = np.exp2(1.0 - _LD(s.real))
    theta = _LD(t_abs) * np.log(_LD(2.0))
    im = float(m * np.sin(theta))
    # 0.0 - im: a zero imaginary part stays +0.0 at t < 0, as in 1 - 2^(1-s)
    denom = complex(float(1.0 - m * np.cos(theta)), 0.0 - im if s.imag < 0 else im)
    size = abs(denom)
    err = 2.0 * _EPS_ACC * (float(m) * (t_abs * math.log(2.0) + abs(1.0 - s.real) + 3.0) + size)
    err += _EPS64 * size  # B_D
    value = e.value / denom
    bound = (e.abs_error_bound + abs(e.value) * err / size) / (size - err) + 4.0 * _EPS64 * abs(value)
    return OracleValue(value, bound)


def zeta(s, target_error: float = TARGET_FLOOR) -> OracleValue:
    """zeta(s) = eta(s) / (1 - 2^(1-s)) with a propagated error bound."""
    s = complex(s)
    e = eta(s, target_error)  # checks s before the pole test reads it
    if _pole_distance(s) < 1e-9:
        raise DenominatorPole(f"s = {s} is within 1e-9 of a zero of 1 - 2^(1-s)")
    return _zeta_from_eta(s, e)


def remainder(n: int, s, target_error: float = TARGET_FLOOR) -> RemainderRecord:
    """R_n(s) = eta(s) - S_n(s); n = 0 returns eta(s) itself."""
    check_at_least("remainder index", n, 0)
    value = eta(s, target_error).value - partial_sum(n, s)
    return RemainderRecord(n, value, abs(value))

