"""The ratio of partial sums at mirrored strip points and its limit.

For s in the open left half of the strip, the ratio of the n-th partial
sums at the mirror point (1 - sigma, same t) and at s converges; the
limit equals the functional-equation ratio unless eta(s) = 0, where it
drops to zero instead.  The mirror is taken with a common t: the series
has real coefficients, so every modulus-level quantity agrees with the
true reflection s -> 1-s, while complex-level outputs carry this
same-t convention.

Consecutive ratios jump from one side of the limit modulus to the other
(the denominator remainder flips direction with the alternating sign),
so the limit estimate averages the final odd/even pair, which converges
visibly faster; it is flagged zero below 10 max(residual, LIMIT_TOL).

Numerator and denominator sums come from the series kernel run at the
pair (1 - sigma, sigma) in lockstep.  The limit estimate, the zero-sum
events and the envelope are read off one mirrored pass,
:func:`sum_ratio_path`, streamed block by block: it keeps only the
window of ratios that the limit and the envelope read, and hands each
block's denominator magnitudes to the zero-event scan, so a full ratio
report needs one pass and memory for a few kernel blocks.

Partial sums vanish for at most finitely many indices, and beyond the
disk-nesting start for at most one; detection separates the machine
zero policy (default threshold 1e-9) from reproduction of printed
examples, whose coordinates are rounded to a few decimals and need a
looser threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import Counter

import numpy as np

from .errors import ZeroDenominator, check_at_least, check_ceiling, check_n_from, check_positive
from .series import _sum_blocks
from . import functional
from . import orbit

ZERO_SUM_THRESHOLD = 1e-9
LIMIT_TOL = 1e-9  # the zero flag's floor under the residual


@dataclass(frozen=True)
class ZeroSumEvent:
    """An index where |S_n(s)| fell below the detection threshold."""

    n: int
    magnitude: float
    beyond_nesting: bool


@dataclass(frozen=True)
class LimitEstimate:
    value: complex
    n_used: int
    residual: float
    zero_flag: bool


@dataclass(frozen=True)
class EnvelopeReport:
    """Side-of-limit statistics for |P_n| over a contiguous index range."""

    n_from: int
    n_to: int
    limit_modulus: float
    alternation_rate: float
    run_lengths: dict[int, int]


def sum_ratio_path(
    s, n_max: int, threshold: float = ZERO_SUM_THRESHOLD, n_from: int = 1, on_block=None
):
    """Arrays (ratios, denominator magnitudes, skipped indices) for n_from <= n <= n_max.

    One mirrored pass sums every n <= n_max, a kernel block at a time,
    and keeps the window n_from .. n_max: memory is 24 bytes per kept
    index plus a few blocks.  Ratios at skipped indices (denominator at
    or below threshold) are NaN; the skipped indices are absolute.
    ``on_block``, when given, is called as on_block(lo, magnitudes) with
    |S_n(s)| for the indices lo, lo + 1, ... of every block of the pass,
    which is how a report collects zero-sum events in the same pass.
    """
    check_positive("zero-sum threshold", threshold)
    check_n_from(n_from, n_max)
    s = complex(s)
    ratios = np.empty(n_max - n_from + 1, dtype=np.complex128)
    mags = np.empty(ratios.size)
    for lo, (num, den), _ in _sum_blocks((1.0 - s.real, s.real), s.imag, n_max):
        mag = np.abs(den)
        if on_block is not None:
            on_block(lo, mag)
        skip = max(n_from - lo, 0)
        if skip < mag.size:
            at = slice(lo + skip - n_from, lo + mag.size - n_from)
            with np.errstate(invalid="ignore", divide="ignore"):
                np.divide(num[skip:], den[skip:], out=ratios[at])
            mags[at] = mag[skip:]
    skipped = np.nonzero(mags <= threshold)[0]
    ratios[skipped] = np.nan
    return ratios, mags, [n_from + int(i) for i in skipped]


def _zero_events(mags: np.ndarray, lo: int, threshold: float, nesting_index: int) -> list[ZeroSumEvent]:
    """Events among the magnitudes |S_n| of indices lo, lo + 1, ..."""
    return [
        ZeroSumEvent(lo + int(i), float(mags[i]), lo + int(i) > nesting_index)
        for i in np.nonzero(mags < threshold)[0]
    ]


def detect_zero_sums(s, n_max: int, threshold: float = ZERO_SUM_THRESHOLD) -> list[ZeroSumEvent]:
    """All indices n <= n_max with |S_n(s)| < threshold.

    Events beyond orbit.nesting_start(s) are flagged; at most one such
    event can be a true zero, so a flagged count above one at a tight
    threshold indicates the threshold is too loose for the point.
    """
    check_ceiling(n_max)
    check_positive("zero-sum threshold", threshold)
    s = complex(s)
    nesting_index = orbit.nesting_start(s)
    events: list[ZeroSumEvent] = []
    for lo, (sums,), _ in _sum_blocks((s.real,), s.imag, n_max):
        events += _zero_events(np.abs(sums), lo, threshold, nesting_index)
    return events


def _limit(ratios: np.ndarray, mag: np.ndarray, n_max: int) -> LimitEstimate:
    """The odd/even average of the last two ratios of a tail ending at n_max."""
    last = ratios[-1]
    prev = ratios[-2]
    if np.isnan(last) or np.isnan(prev):
        raise ZeroDenominator(float(min(mag[-1], mag[-2])), n_max)
    value = 0.5 * (complex(last) + complex(prev))
    residual = abs(complex(last) - complex(prev))
    zero_flag = abs(value) < 10.0 * max(residual, LIMIT_TOL)
    return LimitEstimate(value, n_max, residual, zero_flag)


def limit_estimate(s, n_max: int, threshold: float = ZERO_SUM_THRESHOLD) -> LimitEstimate:
    """Estimate of the ratio limit from the final odd/even ratio pair.

    The residual is the final odd-even gap; the zero flag marks an
    estimate indistinguishable from the eta(s) = 0 branch of the limit.
    """
    check_at_least("n_max", n_max, 2)
    ratios, mag, _ = sum_ratio_path(s, n_max, threshold, n_from=n_max - 1)
    return _limit(ratios, mag, n_max)


def _envelope(ratios: np.ndarray, n_from: int, n_to: int, limit_modulus: float) -> EnvelopeReport:
    """Envelope statistics over the ratios of n_from .. n_to."""
    window = np.abs(ratios)
    signs = np.sign(window - limit_modulus)
    changes = signs[1:] != signs[:-1]
    alternation = float(np.mean(changes)) if changes.size else 0.0
    runs: Counter[int] = Counter()
    length = 1
    for flip in changes:
        if flip:
            runs[length] += 1
            length = 1
        else:
            length += 1
    runs[length] += 1
    return EnvelopeReport(
        n_from=n_from,
        n_to=n_to,
        limit_modulus=float(limit_modulus),
        alternation_rate=alternation,
        run_lengths=dict(sorted(runs.items())),
    )


def envelope_diagnostics(
    s, n_from: int, n_to: int, limit_modulus: float | None = None
) -> EnvelopeReport:
    """Sign pattern of |P_n| - |P| on [n_from, n_to].

    Reports the rate at which the sign alternates between consecutive n
    and the histogram of same-sign run lengths (the cycle structure of
    the two-sided jumping).
    """
    if n_from < 1 or n_to < n_from:
        raise ValueError("need 1 <= n_from <= n_to")
    s = complex(s)
    if limit_modulus is None:
        limit_modulus = functional.functional_ratio_modulus(s)
    ratios, _, _ = sum_ratio_path(s, n_to, n_from=n_from)
    return _envelope(ratios, n_from, n_to, limit_modulus)

