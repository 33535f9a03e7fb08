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
    if n < 1:
        raise ValueError(f"index must be >= 1, got {n}")
    if t < 0:
        raise ValueError("turn_angle is defined for t >= 0; conjugate first")
    return t * math.log1p(1.0 / n)


def _sum_blocks(sigmas: tuple[float, ...], t: float, n_max: int):
    """The summation kernel: S_n(sigma + i t) for every sigma in lockstep.

    Yields (lo, terms, sums, totals) for consecutive blocks of indices
    lo .. lo + len - 1 up to n_max.  Per block, ln n and the alternating
    phase e^(-i |t| ln n) are computed once, in place in one complex
    block, and shared by all sigmas.  terms[k] is the block of series
    terms at sigmas[k], and sums[k] the block of S_n: the running total
    of the earlier blocks plus a plain cumulative sum within this one.
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
        terms = [np.exp(-sigma * ln) * phase for sigma in sigmas]
        sums = []
        for k, term in enumerate(terms):
            cum = np.cumsum(term)
            value = cum[-1] + carries[k]
            cum += bases[k]
            total = bases[k] + value
            carries[k] = value - (total - bases[k])
            bases[k] = total
            sums.append(cum)
        if t < 0:
            for block in (*terms, *sums):
                np.conjugate(block, out=block)
            yield lo, terms, sums, [b.conjugate() for b in bases]
        else:
            yield lo, terms, sums, list(bases)


def partial_sum(n: int, s) -> complex:
    """S_n(s): the compensated total after the kernel's last block."""
    if n < 0:
        raise ValueError(f"partial sum index must be >= 0, got {n}")
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
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if not 1 <= n_from <= n_max:
        raise ValueError(f"need 1 <= n_from <= n_max, got n_from = {n_from}, n_max = {n_max}")
    s = complex(s)
    path = np.empty(len(range(n_from, n_max + 1, stride)), dtype=np.complex128)
    for lo, _, (sums,), _ in _sum_blocks((s.real,), s.imag, n_max):
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
