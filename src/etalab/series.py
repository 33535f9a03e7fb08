"""Terms and partial sums of the alternating series sum (-1)^(n-1) n^(-s).

The n-th term is the plane vector (-1)^(n-1) n^(-sigma) e^(-i t ln n);
consecutive partial sums are joined by these segments.  Everything here
is exact double-precision work on the raw series: one log per index,
shared between the modulus and the phase, and error-compensated
accumulation so that million-term sweeps do not lose digits.

Every partial sum in the package comes from one blockwise kernel,
:func:`_sum_blocks`, which sums several sigmas at a common t in
lockstep; the mirrored ratios use it with the pair (1 - sigma, sigma).
It works a block of 65536 indices at a time, so a consumer that reads
each block as it comes needs memory for a few blocks, not for the whole
path: :func:`partial_sum_path` keeps only every stride-th sum from a first
index on, and the mirrored ratio pass only the window of ratios it is
asked for.

Negative t is evaluated at |t| and conjugated, which makes conjugate
symmetry of all outputs exact rather than approximate.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import check_at_least, check_conjugated, check_n_from

_BLOCK = 1 << 16


@dataclass(frozen=True)
class Segment:
    """The n-th segment of the partial-sum path, from S_{n-1} to S_n."""

    n: int
    start: complex
    end: complex
    length: float
    theta: float


def turn_angle(n: int, t: float) -> float:
    """Angle t ln((n+1)/n) between segment n+1 and segment n, for t >= 0."""
    check_at_least("index", n, 1)
    check_conjugated("turn_angle", t)
    return t * math.log1p(1.0 / n)


def _sum_blocks(sigmas: tuple[float, ...], t: float, n_max: int):
    """The summation kernel: S_n(sigma + i t) for every sigma in lockstep.

    Yields (lo, sums, totals) for consecutive blocks of indices
    lo .. lo + len - 1 up to n_max.  Per block, ln n and the alternating
    phase e^(-i |t| ln n) are computed once, in place in one complex
    block, and shared by all sigmas.  sums[k] is the block of S_n at
    sigmas[k]: the running total of the earlier blocks plus a plain
    cumulative sum of the block's terms, taken in place over them.
    The running total itself is carried with compensation, and totals[k]
    is its value past the block's end, so the block size fixes the bits.
    For t < 0 everything is conjugated.
    """
    if not all(math.isfinite(x) for x in (*sigmas, t)):
        raise ValueError(f"sigma and t must be finite, got sigma = {sigmas}, t = {t}")
    t_abs = abs(t)
    bases = [0.0 + 0.0j] * len(sigmas)
    carries = [0.0 + 0.0j] * len(sigmas)
    for lo in range(1, n_max + 1, _BLOCK):
        hi = min(lo + _BLOCK, n_max + 1)
        ln = np.log(np.arange(lo, hi, dtype=np.float64))
        phase = -1j * t_abs * ln
        np.exp(phase, out=phase)
        phase[lo % 2 :: 2] *= -1.0  # even n carries the alternating minus
        sums = []
        for k, sigma in enumerate(sigmas):
            with np.errstate(over="ignore"):  # a term too small for a double is 0
                cum = np.exp(-sigma * ln) * phase  # the terms, then their sums
            np.cumsum(cum, out=cum)
            value = cum[-1] + carries[k]
            cum += bases[k]
            total = bases[k] + value
            carries[k] = value - (total - bases[k])
            bases[k] = total
            sums.append(cum)
        if t < 0:
            for block in sums:
                np.conjugate(block, out=block)
            yield lo, sums, [b.conjugate() for b in bases]
        else:
            yield lo, sums, list(bases)


def partial_sum(n: int, s) -> complex:
    """S_n(s): the compensated total after the kernel's last block."""
    check_at_least("partial sum index", n, 0)
    if n == 0:
        return 0.0 + 0.0j
    s = complex(s)
    for *_, totals in _sum_blocks((s.real,), s.imag, n):
        pass
    return totals[0]


def partial_sum_path(s, n_max: int, stride: int = 1, n_from: int = 1) -> np.ndarray:
    """Array of S_n for n = n_from, n_from + stride, n_from + 2 stride, ... <= n_max.

    Every index up to n_max is summed, a kernel block at a time, but only
    every stride-th sum from n_from on is kept: memory is 16 bytes per
    kept index plus a few blocks, so a strided export or a late window
    never holds the whole path.
    """
    check_at_least("stride", stride, 1)
    check_at_least("n_max", n_max, 1)
    check_n_from(n_from, n_max)
    s = complex(s)
    path = np.empty(len(range(n_from, n_max + 1, stride)), dtype=np.complex128)
    for lo, (sums,), _ in _sum_blocks((s.real,), s.imag, n_max):
        start = max(lo, n_from)
        first = start - lo + (n_from - start) % stride  # offset of the block's first kept index
        kept = sums[first::stride]
        at = (lo + first - n_from) // stride
        path[at : at + kept.size] = kept
    return path


def segment(n: int, s) -> Segment:
    """Segment n of the path, with its exact length and axis angle -t ln n (+ pi for even n)."""
    s = complex(s)
    start = partial_sum(n - 1, s)
    ln = math.log(n)
    length = math.exp(-s.real * ln)
    phase = cmath.exp(-1j * abs(s.imag) * ln)
    term = length * (phase.conjugate() if s.imag < 0 else phase)
    theta = -s.imag * ln
    if n % 2 == 0:
        term, theta = -term, math.pi + theta
    return Segment(n=n, start=start, end=start + term, length=length, theta=theta)
