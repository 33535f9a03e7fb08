"""Exception types and the rules that decide the input domain.

Each check_* name, and axis_count, is one rule that raises ValueError
with a fixed message, most built by _rule from a predicate; every module
applies them before computing.  axis builds the samples of a scan axis
that axis_count admits.  It imports no other etalab module.
"""

from __future__ import annotations

import math

import numpy as np

TARGET_FLOOR = 1e-13  # the tightest oracle target
MAX_IM = 200.0  # the largest supported |Im(s)|
MAX_N = 10**7  # the largest index that a scan or a report sums to
MAX_SCAN_POINTS = 10**6  # per scan axis and per grid

_DOMAINS = {
    "(0, 1)": lambda x: 0.0 < x < 1.0,
    "(0, 1]": lambda x: 0.0 < x <= 1.0,
    "[0, 1/2)": lambda x: 0.0 <= x < 0.5,
    "{csv, json}": lambda x: x in ("csv", "json"),
}


class EtalabError(Exception):
    """Base class for all package-specific errors."""


class AccuracyUnreachable(EtalabError):
    """The accelerated series cannot certify the requested error bound."""


class DenominatorPole(EtalabError):
    """Evaluation requested too close to a zero of 1 - 2^(1-s)."""


class PoleError(EtalabError):
    """Gamma evaluated at a non-positive integer."""


class AngleTooLarge(EtalabError):
    """Disk construction requested below the acute-angle threshold index."""


class WindowExhausted(EtalabError):
    """No stable run found below the configured scan ceiling."""


class ZeroDenominator(EtalabError):
    """A denominator value is numerically indistinguishable from zero."""

    def __init__(self, magnitude: float, n: int | None = None):
        where = f"|S_{n}|" if n is not None else "denominator"
        super().__init__(f"{where} = {magnitude:.3e} is below the zero threshold")
        self.n = n
        self.magnitude = magnitude


def _rule(holds, message: str):
    """A rule: raises ValueError(message) unless holds(*args); message names holds' parameters."""
    def check(*args) -> None:
        if not holds(*args):
            raise ValueError(message.format_map(dict(zip(holds.__code__.co_varnames, args))))
    return check


check_finite = _rule(lambda name, x: math.isfinite(x), "{name} must be finite, got {x}")
check_at_least = _rule(lambda name, n, lo: n >= lo, "{name} must be >= {lo}, got {n}")
check_ceiling = _rule(lambda n_max: n_max <= MAX_N, f"n_max must be <= {MAX_N:g}")
check_n_from = _rule(lambda n_from, n_max: 1 <= n_from <= max(n_max, 1),
                     "need 1 <= n_from <= n_max, got n_from = {n_from}, n_max = {n_max}")
check_in = _rule(lambda name, x, domain: _DOMAINS[domain](x), "{name} must lie in {domain}, got {x}")
check_positive = _rule(lambda name, x: math.isfinite(x) and x > 0.0, "{name} must be finite and positive, got {x}")
check_im = _rule(lambda im_abs: im_abs <= MAX_IM, f"|Im(s)| = {{im_abs:g}} outside the supported range <= {MAX_IM:g}")
check_conjugated = _rule(lambda name, t: not t < 0, "{name} is defined for t >= 0; conjugate first")
check_grid_size = _rule(lambda size: size <= MAX_SCAN_POINTS, f"grid has {{size}} points, more than {MAX_SCAN_POINTS}")
check_alpha_range = _rule(lambda lo, hi: 0.0 <= lo <= hi < 0.5, "alpha range must satisfy 0 <= from <= to < 1/2")


def check_target(target_error: float) -> None:
    check_finite("target_error", target_error)
    if target_error < TARGET_FLOOR:
        raise ValueError(f"target_error must be >= {TARGET_FLOOR:g}")
    if not target_error < 1.0:  # a bound of 1 or more certifies nothing
        raise ValueError(f"target_error must be < 1, got {target_error}")


def check_points(sigmas, ts, target_error: float = TARGET_FLOOR):
    """The oracle's domain; returns sigmas and ts broadcast together, as views.

    One vectorised pass; the error is the first that one-point calls in C
    order would raise (finite s, Re(s) > 0, the target, |Im(s)| <= MAX_IM).
    """
    sig, t = np.broadcast_arrays(np.asarray(sigmas, dtype=np.float64), np.asarray(ts, dtype=np.float64))
    # NaN fails every comparison, so this also rejects non-finite input
    bad = np.flatnonzero(~((sig > 0.0) & (sig < math.inf) & (np.abs(t) <= MAX_IM)))
    if bad.size:
        s = complex(sig.flat[bad[0]], t.flat[bad[0]])
        if bad[0] > 0:
            check_target(target_error)
        if not (math.isfinite(s.real) and math.isfinite(s.imag)):
            raise ValueError(f"eta oracle requires finite s, got {s}")
        if s.real <= 0.0:
            raise ValueError(f"eta oracle requires Re(s) > 0, got {s.real}")
    check_target(target_error)
    if bad.size:
        check_im(abs(s.imag))
    return sig, t


def axis_count(lo: float, hi: float, step: float, name: str) -> int:
    """Number of samples lo + k*step <= hi, at most MAX_SCAN_POINTS."""
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise ValueError(f"{name} axis needs finite bounds with from <= to, got {lo} to {hi}")
    check_positive(f"{name}_step", step)
    span = (hi - lo) / step + 1e-9
    if not span < MAX_SCAN_POINTS:
        raise ValueError(f"{name}_step {step} gives more than {MAX_SCAN_POINTS} points on [{lo}, {hi}]")
    return int(math.floor(span)) + 1


def axis(lo: float, hi: float, step: float, name: str = "t") -> np.ndarray:
    """The samples lo + k*step <= hi, k = 0, 1, ..., once axis_count admits them."""
    return lo + step * np.arange(axis_count(lo, hi, step, name))
