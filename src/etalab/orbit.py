"""Disk geometry of the partial-sum path and the remainder sandwich.

Once consecutive turn angles drop below pi/2, segments n, n+1, n+2 form
a triangle and each segment supports a disk having it as diameter.  The
sign of a single expression (the nesting margin below) decides whether
the disk on segment n+2 sits strictly inside the disk on segment n.
Beyond the index where the margin stays positive the path is trapped:
the convergence point lies in every later disk, which sandwiches the
remainder magnitude |R_n| between (1-eps)/(2 n^sigma) and n^(-sigma).

One private block kernel, `_geometry`, evaluates the geometry at an
index array; every function here is a view of it.  Per index it takes
L0 = log1p(1/n), L1 = log1p(1/(n+1)), the turn angles d1 = t L0 and
d2 = t L1, 1 - a = -expm1(-sigma L0), b - 1 = expm1(sigma L1) (a = p0/p1,
b = p2/p1, pk = (n+k)^sigma) and c(x) = 2 sin^2(x/2).  The margin is
p1^2 B, where d1 - d2 = t log1p(1/(n(n+2))) and the bracket

    B = (1-a)(b-1) - c(d1) c(d2) - c(d1-d2)/2 - (b-1) c(d1) + (1-a) c(d2)
      = (1-a - c(d1)) (b-1 + c(d2)) - c(d1-d2)/2

has only small terms, so its sign holds where the margin is minuscule
beside the size-p1^2 terms of the textbook form.  The disk centre and
radius gaps come from the same quantities.  "Stays positive" is a
stable run of configurable length: a start is the last failing index
before the first run of `window` consecutive passes.  One sweep in
blocks up to DEFAULT_CEILING = 10^7 tracks the margin, the shrunk-disk
containment or both, and stops at the block where the last run
completes.  Points pass the oracle's point rule, errors.check_points,
before any sweep.  The nesting start grows like t^2 / (2 sigma), so
scans near the left strip edge take longer and may hit the ceiling.
sandwich_report returns columns: a RemainderBound holds one array each
for n, the two bounds and the measured |R_n|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import AccuracyUnreachable, AngleTooLarge, WindowExhausted
from .errors import MAX_N, check_at_least, check_conjugated, check_in, check_points
from .series import partial_sum_path
from . import oracle

DEFAULT_WINDOW = 1000
DEFAULT_CEILING = MAX_N  # the last index a sweep reads
_SCAN_BLOCK = 1 << 12  # indices per kernel call; its temporaries stay in cache


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


@dataclass(frozen=True, eq=False)
class RemainderBound:
    n: np.ndarray
    lower: np.ndarray
    measured: np.ndarray
    upper: np.ndarray

    @property
    def holds(self) -> np.ndarray:
        return (self.lower < self.measured) & (self.measured < self.upper)

    def __len__(self) -> int:
        return len(self.n)


def angle_threshold(t: float) -> int:
    """Smallest integer >= 1/(e^(pi/2t) - 1); turn angles are acute beyond it.

    It is 1 for t <= 1, where e^(pi/2t) - 1 > 1 (and would overflow for
    t below about 0.0022); t = 0 degenerates to 1 too (all turn angles
    vanish).
    """
    check_conjugated("angle_threshold", t)
    if t <= 1.0:
        return 1
    return math.ceil(1.0 / math.expm1(math.pi / (2.0 * t)))


class _Geometry(NamedTuple):
    """The geometry at an index array; lengths in units of segment n+1 (1/p1)."""

    d1: np.ndarray  # turn angles between segments n, n+1 and n+1, n+2
    d2: np.ndarray
    bracket: np.ndarray | None = None  # B; the nesting margin is p1^2 B
    r2: np.ndarray | None = None  # radius of the disk on segment n+2
    rgap: np.ndarray | None = None  # radius of the disk on segment n, minus r2
    gx: np.ndarray | None = None  # centre of disk n+2 minus centre of disk n
    gy: np.ndarray | None = None
    p1: np.ndarray | None = None


def _c(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 - cos x, as 2 sin^2(x/2) so that small angles keep their digits."""
    h = np.multiply(x, 0.5, out=out)
    np.sin(h, out=h)
    h *= h
    h *= 2.0
    return h


def _geometry(n, sigma, t, bracket=True, disks=True, lengths=False) -> _Geometry:
    """The one evaluation of the orbit geometry (see the module docstring).

    `bracket` asks for B, `disks` for the disk radius and gaps, `lengths`
    for p1.  The disk part, where a block's memory peaks, works in place
    after its first lines.
    """
    l0, l1 = np.log1p(1.0 / n), np.log1p(1.0 / (n + 1.0))
    oma = -np.expm1(-sigma * l0)  # 1 - a
    bm1 = np.expm1(sigma * l1)  # b - 1
    d1, d2 = np.multiply(l0, t, out=l0), np.multiply(l1, t, out=l1)
    c1 = _c(d1)
    g = _Geometry(d1, d2, p1=(n + 1.0) ** sigma if lengths else None)
    if bracket:  # c(d1 - d2) = c(t log1p(1/(n(n+2)))), without cancellation
        c12 = _c(t * np.log1p(1.0 / (n * (n + 2.0))))
        g = g._replace(bracket=(oma - c1) * (bm1 + _c(d2)) - 0.5 * c12)
    if disks:
        w = np.divide(0.5, (1.0 - oma) * (1.0 + bm1))  # 1 / (2ab)
        # gx = 1 - r0 - r2 - c(d1) + c(beta) r2, beta = d1 + d2, where
        # 1 - r0 - r2 = (a (b-1) - b (1-a)) / (2ab) is a sum of small terms
        gx = bm1 * (1.0 - 2.0 * oma)
        gx -= oma
        gx *= w
        gx -= c1
        del c1
        r2 = (1.0 - oma) * w  # 1 / (2b)
        oma += bm1
        oma *= w  # r0 - r2 = (b - a) / (2ab)
        del bm1
        beta = np.add(d1, d2)
        gx += np.multiply(_c(beta, out=w), r2, out=w)
        gy = np.multiply(np.sin(beta, out=beta), r2, out=beta)
        gy -= np.sin(d1, out=w)
        g = g._replace(r2=r2, rgap=oma, gx=gx, gy=gy)
    return g


def _nests(g: _Geometry, scale: float) -> np.ndarray:
    """True where the disks shrunk by scale nest: centre gap < scale * radius gap."""
    return np.hypot(g.gx, g.gy) < scale * g.rgap


def _at(n, s, **parts) -> _Geometry:
    """The geometry, with p1, at a scalar index or an index array of s."""
    s = complex(s)
    check_points(s.real, s.imag)
    sigma, t = s.real, abs(s.imag)
    arr = np.atleast_1d(np.asarray(n, dtype=np.float64))
    if arr.min() < (lo := angle_threshold(t)):
        raise AngleTooLarge(f"the disk geometry needs n >= {lo} at t = {t:g}, got {int(arr.min())}")
    with np.errstate(all="ignore"):  # overflowed parts read as inf or nan
        return _geometry(arr, sigma, t, lengths=True, **parts)


def nesting_margin(n, s):
    """The nesting margin p1^2 B, with p1 = (n+1)^sigma.

    Positive iff the disk on segment n+2 fits strictly inside the disk
    on segment n.  Accepts a scalar index or an index array; requires
    n >= angle_threshold(t).
    """
    g = _at(n, s, disks=False)
    out = g.bracket * g.p1**2
    return float(out[0]) if np.ndim(n) == 0 else out


def _run_end(good: np.ndarray, lo: int, window: int, last_bad: int, flips: int):
    """Carry one predicate's sweep across a block of pass flags at lo, lo+1, ...

    (last_bad, flips) is the state before the block: the last failing
    index and the pass-to-fail transitions up to it.  Returns the state
    after the block and whether a run of `window` passes completed in
    it; if so, last_bad is the failure just before that run and flips
    counts transitions up to it, so later failures in the block are
    ignored.
    """
    edges = np.concatenate(([last_bad - lo], np.flatnonzero(~good), [good.size]))
    streaks = np.diff(edges) - 1  # passes after each failure, the last cut at the block end
    done = np.flatnonzero(streaks >= window)
    k = int(done[0]) if done.size else edges.size - 2
    return lo + int(edges[k]), flips + int(np.count_nonzero(streaks[:k])), bool(done.size)


def _stable_run_start(s, window, margin=True, scale=None):
    """Last failing index before the first run of `window` consecutive passes.

    Checks s and window, then sweeps "margin > 0" if `margin` and "the
    disks shrunk by scale nest" if `scale` is given, from angle_threshold
    (|t|) in blocks, one kernel call each; below it counts as failing.  A
    predicate leaves the sweep at the block where its run completes and
    its result is read at that run, so neither depends on the block
    size or on the other predicate.  Returns one (index, flips) pair
    per predicate, flips counting pass-to-fail transitions up to the
    index.  Raises WindowExhausted when a run does not fit below
    DEFAULT_CEILING.
    """
    s = complex(s)
    check_points(s.real, s.imag)
    check_at_least("window", window, 1)
    sigma, t = s.real, abs(s.imag)
    tests = {"bracket": lambda g: g.bracket > 0.0} if margin else {}
    if scale is not None:
        tests["disks"] = lambda g: _nests(g, scale)
    runs = {part: (angle_threshold(t) - 1, 0) for part in tests}
    n = angle_threshold(t)
    while n <= DEFAULT_CEILING and tests:
        hi = min(n + _SCAN_BLOCK, DEFAULT_CEILING + 1)
        with np.errstate(all="ignore"):  # an index whose geometry overflows fails its test
            g = _geometry(np.arange(n, hi, dtype=np.float64), sigma, t, "bracket" in tests, "disks" in tests)
        results = [(part, passes(g)) for part, passes in tests.items()]
        del g  # freed before the next block is evaluated
        for part, good in results:
            last_bad, flips, done = _run_end(good, n, window, *runs[part])
            runs[part] = (last_bad, flips)
            if done:
                del tests[part]
        n = hi
    if tests:
        raise WindowExhausted(f"no stable run of length {window} found below ceiling {DEFAULT_CEILING}")
    return list(runs.values())


def nesting_start(s, window: int = DEFAULT_WINDOW) -> int:
    """Largest index with nesting margin <= 0, stable-positive beyond.

    Returns angle_threshold(t) - 1 when the margin is positive from the
    threshold onward (0 in the degenerate t = 0 case).
    """
    [(idx, _)] = _stable_run_start(s, window)
    return idx


def containment_start(s, scale: float, window: int = DEFAULT_WINDOW) -> int:
    """Largest index where scale-shrunk disks fail to nest, stable beyond."""
    check_in("scale", scale, "(0, 1]")
    [(idx, _)] = _stable_run_start(s, window, margin=False, scale=scale)
    return idx


def orbit_diagnostics(s, epsilon: float = 0.5, window: int = DEFAULT_WINDOW) -> OrbitDiagnostics:
    """All sandwich indices for the point s at the given epsilon, from one sweep.

    The lower bound (1-eps)/(2 n^sigma) comes from disks shrunk by the
    factor eps itself: the convergence point lies inside every nested
    eps-disk, hence at distance >= (1-eps) * radius from the segment
    endpoint.  The containment predicate therefore runs at scale = epsilon.
    """
    check_in("epsilon", epsilon, "(0, 1)")
    (n_o, flips), (j, _) = _stable_run_start(s, window, scale=epsilon)
    return OrbitDiagnostics(angle_threshold(abs(complex(s).imag)), n_o, j, max(n_o, j), epsilon, window, flips)


def check_decidable(s: complex, epsilon: float, n: int, eta: oracle.OracleValue) -> None:
    """Raises AccuracyUnreachable unless (1-eps)/(2 n^sigma) > 2 B + 2 eps |eta|, B the oracle's bound.

    Below that, |R_n| is rounding noise; a pass at n holds at every smaller n.
    """
    noise = 2.0 * (eta.abs_error_bound + np.finfo(np.float64).eps * eta.magnitude)
    least = 0.5 * (1.0 - epsilon) * n**-s.real
    if not least > noise:
        raise AccuracyUnreachable(
            f"sandwich undecidable at s = {s}, n = {n}: lower bound {least:.3e} <= noise {noise:.3e}"
        )


def sandwich_report(
    s,
    epsilon: float,
    n_from: int,
    n_to: int,
    target_error: float = oracle.TARGET_FLOOR,
    diagnostics: OrbitDiagnostics | None = None,
    eta: oracle.OracleValue | None = None,
) -> RemainderBound:
    """Columns n | (1-eps)/(2 n^sigma) | measured |R_n| | n^(-sigma) over [n_from, n_to].

    n_from must exceed the sandwich start; pass precomputed diagnostics
    to skip the rescan, and eta(s) at target_error to skip the oracle.
    Measured magnitudes are |eta(s) - S_n|, S_n streamed.  Raises
    AccuracyUnreachable before summing unless check_decidable passes at n_to.
    """
    s = complex(s)
    if diagnostics is None:
        diagnostics = orbit_diagnostics(s, epsilon)
    if n_from <= diagnostics.sandwich_start:
        raise ValueError(
            f"n_from = {n_from} must exceed the sandwich start "
            f"{diagnostics.sandwich_start}"
        )
    if n_to < n_from:
        raise ValueError("empty range")
    if eta is None:
        eta = oracle.eta(s, target_error)
    check_decidable(s, epsilon, n_to, eta)
    sums = partial_sum_path(s, n_to, n_from=n_from)
    n = np.arange(n_from, n_to + 1)
    nf = n.astype(np.float64)
    return RemainderBound(n, (1.0 - epsilon) / (2.0 * nf**s.real), np.abs(eta.value - sums), nf**-s.real)
