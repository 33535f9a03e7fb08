"""Term generation, partial sums and segment geometry.

Reference values were computed independently with mpmath at 30 digits
(brute-force summation for the partial sums).
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from etalab import orbit
from etalab import ratios as ratio_module
from etalab import (
    detect_zero_sums,
    envelope_diagnostics,
    limit_estimate,
    partial_sum,
    partial_sum_path,
    segment,
    sum_ratio_path,
    turn_angle,
)

# mpmath: 3**mpc(-0.5, -2)
TERM_3 = complex(-0.33847444412685854, -0.4677268262633088)
# mpmath: sum((-1)**(k-1)/k for k <= 1000); note S_1000 sits BELOW ln 2
S_1000_SIGMA1 = 0.69264743055982031


def _term(n: int, s: complex) -> complex:
    """Scalar reference for the n-th term (-1)^(n-1) n^(-sigma) e^(-i t ln n)."""
    value = cmath.exp(-s * math.log(n))
    return -value if n % 2 == 0 else value


class TestEtaTerm:
    """The series terms, read off the segments of the path."""

    def test_first_term_is_one(self):
        for s in (0.5 + 3j, 0.1 + 0j, 0.9 - 40j):
            seg = segment(1, s)
            assert (seg.start, seg.end) == (0.0 + 0.0j, 1.0 + 0.0j)

    def test_second_term_at_one(self):
        seg = segment(2, 1.0 + 0.0j)
        assert seg.end - seg.start == -0.5 + 0.0j

    def test_third_term_frozen(self):
        seg = segment(3, 0.5 + 2.0j)
        assert abs((seg.end - seg.start) - TERM_3) < 1e-15

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            segment(0, 0.5 + 1j)


class TestPartialSum:
    def test_trivial_one_term(self):
        assert partial_sum(1, 0.3 + 7j) == 1.0 + 0.0j

    def test_two_terms_sigma_one(self):
        assert partial_sum(2, 1.0 + 0.0j) == 0.5 + 0.0j

    def test_thousand_terms_alternating_harmonic(self):
        got = partial_sum(1000, 1.0 + 0.0j)
        assert abs(got - S_1000_SIGMA1) < 1e-13
        # the even-index sum sits half a term below ln 2
        assert abs((math.log(2.0) - got.real) - 1.0 / 2000.0) < 1e-6

    def test_empty_sum_convention(self):
        assert partial_sum(0, 0.5 + 1j) == 0.0 + 0.0j

    @given(
        n=st.integers(min_value=2, max_value=20000),
        sigma=st.floats(min_value=0.1, max_value=0.95),
        t=st.floats(min_value=0.0, max_value=100.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_telescoping(self, n, sigma, t):
        s = complex(sigma, t)
        gap = partial_sum(n, s) - partial_sum(n - 1, s)
        term = _term(n, s)
        scale = max(1.0, abs(partial_sum(n, s)))
        assert abs(gap - term) <= 1e-14 * scale

    @pytest.mark.parametrize("n", [10**5, 10**6])
    def test_telescoping_large(self, n):
        s = 0.5 + 20.0j
        path = partial_sum_path(s, n)
        gap = path[-1] - path[-2]
        assert abs(gap - _term(n, s)) <= 1e-14 * max(1.0, abs(path[-1]))

    @given(
        n=st.integers(min_value=1, max_value=5000),
        sigma=st.floats(min_value=0.1, max_value=0.9),
        t=st.floats(min_value=0.1, max_value=80.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_conjugate_symmetry_exact(self, n, sigma, t):
        s = complex(sigma, t)
        assert partial_sum(n, s.conjugate()) == partial_sum(n, s).conjugate()

    def test_path_matches_scalar(self):
        s = 0.404 + 147.0j
        path = partial_sum_path(s, 70000)
        for n in (1, 2, 3, 65535, 65536, 65537, 70000):
            assert path[n - 1] == partial_sum(n, s)


class TestStreaming:
    """The kernel streams the path a block at a time; a window from n_from on
    holds the same sums as the whole path."""

    def test_states_match_path(self):
        s = 0.5 + 38.0j
        path = partial_sum_path(s, 400)
        for n in range(1, 401):
            assert abs(partial_sum(n, s) - path[n - 1]) < 1e-14

    def test_state_invariants(self):
        s = 0.25 + 12.0j
        path = partial_sum_path(s, 300)
        for n in range(2, 301):
            assert abs((path[n - 1] - path[n - 2]) - _term(n, s)) < 1e-13

    def test_offset_start(self):
        s = 0.7 + 5.0j
        [first] = partial_sum_path(s, 1001, n_from=1001)
        assert abs(first - partial_sum(1001, s)) < 1e-13

    @pytest.mark.filterwarnings("error")
    def test_underflowed_terms_are_zero_without_a_warning(self):
        # n^(-1e308) is 0 in double for every n >= 2
        assert partial_sum_path(1e308 + 20.0j, 50).tolist() == [1.0 + 0.0j] * 50

    def test_stream_is_the_path_across_a_block_boundary(self):
        s = 0.4 - 30.0j
        path = partial_sum_path(s, 65560)
        window = partial_sum_path(s, 65560, n_from=65529)
        assert window.tobytes() == path[65528:].tobytes()
        for n in range(65530, 65561):
            assert abs((window[n - 65529] - window[n - 65530]) - _term(n, s)) < 1e-15


class TestAngles:
    def test_segment_angle_trivials(self):
        assert segment(1, 0.5 + 123.0j).theta == 0.0
        assert segment(2, 0.5 + 0.0j).theta == math.pi

    def test_segment_angle_frozen(self):
        assert abs(segment(3, 0.5 + 2.0j).theta - (-2.1972245773362194)) < 1e-15

    def test_turn_angle_zero_t(self):
        assert turn_angle(17, 0.0) == 0.0

    def test_turn_angle_frozen(self):
        assert abs(turn_angle(1200, 20.0) - 0.016659726077837255) < 1e-15

    def test_turn_angle_decreasing_in_n(self):
        vals = [turn_angle(n, 20.0) for n in range(1, 2000)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_turn_angle_rejects_negative_t(self):
        with pytest.raises(ValueError):
            turn_angle(5, -1.0)


class TestSegment:
    def test_segment_consistency(self):
        s = 0.5 + 38.0j
        for n in (1, 2, 293, 313):
            seg = segment(n, s)
            term = _term(n, s)
            assert abs((seg.end - seg.start) - term) < 1e-13
            assert abs(seg.length - abs(term)) < 1e-14
            assert seg.theta == -38.0 * math.log(n) + (math.pi if n % 2 == 0 else 0.0)
            # the term points along theta
            assert abs(cmath.exp(1j * seg.theta) * seg.length - term) < 1e-13


# Reference loops for the summation kernel, written out apart from it: the
# lockstep mirrored loop and the compensated-total loop.  The kernel must
# reproduce them bit for bit.
_REF_BLOCK = 1 << 16


def _ref_mirrored_sums(s: complex, n_max: int):
    sigma = s.real
    t_abs = abs(s.imag)
    num = np.empty(n_max, dtype=np.complex128)
    den = np.empty(n_max, dtype=np.complex128)
    base_num = 0.0 + 0.0j
    base_den = 0.0 + 0.0j
    carry_num = 0.0 + 0.0j
    carry_den = 0.0 + 0.0j
    for lo in range(1, n_max + 1, _REF_BLOCK):
        hi = min(lo + _REF_BLOCK, n_max + 1)
        n = np.arange(lo, hi, dtype=np.float64)
        ln = np.log(n)
        phase = np.exp(-1j * t_abs * ln)
        phase[lo % 2 :: 2] *= -1.0
        cn = np.cumsum(np.exp(-(1.0 - sigma) * ln) * phase)
        cd = np.cumsum(np.exp(-sigma * ln) * phase)
        num[lo - 1 : hi - 1] = base_num + cn
        den[lo - 1 : hi - 1] = base_den + cd
        # compensated base update
        v = complex(cn[-1]) + carry_num
        prev = base_num
        base_num = prev + v
        carry_num = v - (base_num - prev)
        v = complex(cd[-1]) + carry_den
        prev = base_den
        base_den = prev + v
        carry_den = v - (base_den - prev)
    if s.imag < 0:
        np.conjugate(num, out=num)
        np.conjugate(den, out=den)
    return num, den


def _ref_partial_sum(n: int, s: complex) -> complex:
    total = 0.0 + 0.0j
    carry = 0.0 + 0.0j
    for lo in range(1, n + 1, _REF_BLOCK):
        hi = min(lo + _REF_BLOCK, n + 1)
        k = np.arange(lo, hi, dtype=np.float64)
        ln = np.log(k)
        vals = np.exp(-s.real * ln) * np.exp(-1j * abs(s.imag) * ln)
        vals[lo % 2 :: 2] *= -1.0
        value = np.cumsum(vals)[-1] + carry
        previous = total
        total = previous + value
        carry = value - (total - previous)
    return total.conjugate() if s.imag < 0 else total


def _assert_same_bits(got, want):
    """Bitwise equality of float or complex arrays; NaN equals NaN."""
    got = np.atleast_1d(np.asarray(got))
    want = np.atleast_1d(np.asarray(want))
    assert got.dtype == want.dtype and got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


class TestKernelMatchesReference:
    N = 300001  # five kernel blocks

    # t = 0 checks the sign of zero: every imaginary part is +0.0
    @pytest.fixture(scope="class", params=[0.3 + 80.0j, 0.404 - 147.0j, 0.3 + 0.0j], ids=str)
    def case(self, request):
        s = request.param
        num, den = _ref_mirrored_sums(s, self.N)
        return s, num, den

    def test_partial_sum_path(self, case):
        s, num, den = case
        _assert_same_bits(partial_sum_path(s, self.N), den)
        _assert_same_bits(partial_sum_path(complex(1.0 - s.real, s.imag), self.N), num)

    def test_partial_sum_is_the_compensated_total(self, case):
        s, _, den = case
        for n in (1, 65536, 65537, 200000, self.N):
            _assert_same_bits(partial_sum(n, s), _ref_partial_sum(n, s))
        # beyond two blocks the compensated total may part from the path
        # entry by rounding (4.4e-16 at 0.3+80i); both are kept as they are
        assert abs(partial_sum(self.N, s) - den[-1]) < 1e-14

    def test_sum_ratio_path_and_sum_ratio(self, case):
        s, num, den = case
        ratios, mags, skipped = sum_ratio_path(s, self.N)
        _assert_same_bits(mags, np.abs(den))
        _assert_same_bits(ratios, num / den)
        assert skipped == []
        for n in (2, 65537, self.N):  # a one-index window of a pass that ends at n
            ratio, mag, _ = sum_ratio_path(s, n, n_from=n)
            _assert_same_bits(ratio, num[n - 1 : n] / den[n - 1 : n])
            _assert_same_bits(mag, np.abs(den[n - 1 : n]))

    def test_limit_and_envelope(self, case):
        s, num, den = case
        ratios = num / den
        est = limit_estimate(s, self.N)
        _assert_same_bits(est.value, 0.5 * (complex(ratios[-1]) + complex(ratios[-2])))
        _assert_same_bits(est.residual, abs(complex(ratios[-1]) - complex(ratios[-2])))
        rep = envelope_diagnostics(s, self.N - 200, self.N, limit_modulus=0.5)
        signs = np.sign(np.abs(ratios[self.N - 201 :]) - 0.5)
        _assert_same_bits(rep.alternation_rate, float(np.mean(signs[1:] != signs[:-1])))

    def test_detect_zero_sums(self, case, monkeypatch):
        s, _, den = case
        mags = np.abs(den)
        threshold = float(np.sort(mags)[20])  # about twenty smallest sums
        monkeypatch.setattr(orbit, "nesting_start", lambda s: self.N // 2)
        events = detect_zero_sums(s, self.N, threshold)
        want = np.nonzero(mags < threshold)[0]
        assert [e.n for e in events] == [int(i) + 1 for i in want]
        _assert_same_bits([e.magnitude for e in events], mags[want])
        assert [e.beyond_nesting for e in events] == [int(i) + 1 > self.N // 2 for i in want]

    @pytest.mark.parametrize("n_max", [2, 3, 65536, 65537, 131073, N])
    def test_streamed_tail_and_events(self, case, n_max):
        # `etalab ratio` keeps a window of the ratios and collects the events
        # off each block's magnitudes, with the bits of the whole path
        s, num, den = case
        mags = np.abs(den[:n_max])
        threshold = float(np.sort(mags)[min(20, n_max - 1)])
        keep = min(n_max, 201)
        events = []

        def collect(lo, block):
            events.extend(ratio_module._zero_events(block, lo, threshold, n_max // 2))

        tail, tail_mags, skipped = sum_ratio_path(
            s, n_max, threshold, n_from=n_max - keep + 1, on_block=collect
        )
        want = num[:n_max] / den[:n_max]
        masked = mags <= threshold
        want[masked] = np.nan
        _assert_same_bits(tail, want[-keep:])
        _assert_same_bits(tail_mags, mags[-keep:])
        assert skipped == [int(i) + 1 for i in np.nonzero(masked)[0] if i >= n_max - keep]
        hits = np.nonzero(mags < threshold)[0]
        assert [e.n for e in events] == [int(i) + 1 for i in hits]
        _assert_same_bits([e.magnitude for e in events], mags[hits])
        assert [e.beyond_nesting for e in events] == [int(i) + 1 > n_max // 2 for i in hits]

    @pytest.mark.parametrize("n_max", [1, 2, 65536, 65537, 131073, N])
    @pytest.mark.parametrize("stride", [1, 7, 1000, 65536, 400000])
    def test_strided_path(self, case, n_max, stride):
        s, _, den = case
        _assert_same_bits(partial_sum_path(s, n_max, stride), den[:n_max:stride])

    @pytest.mark.parametrize("n_from", [1, 2, 65536, 65537, 65538, 299999, N])
    @pytest.mark.parametrize("stride", [1, 3, 65536])
    def test_windowed_path(self, case, n_from, stride):
        # the sandwich's window: the path from n_from on, never held from 1
        s, _, den = case
        _assert_same_bits(partial_sum_path(s, self.N, stride, n_from), den[n_from - 1 :: stride])

    @pytest.mark.parametrize("n_from", [0, -1, 11])
    def test_window_outside_the_path_rejected(self, n_from):
        with pytest.raises(ValueError, match="need 1 <= n_from <= n_max"):
            partial_sum_path(0.3 + 80.0j, 10, n_from=n_from)

    @pytest.mark.parametrize("stride", [0, -3])
    def test_stride_below_one_rejected(self, stride):
        with pytest.raises(ValueError, match="stride must be >= 1"):
            partial_sum_path(0.3 + 80.0j, 10, stride)

    def test_non_finite_input_rejected(self):
        for s in (complex(math.nan, 1.0), complex(0.5, math.inf)):
            with pytest.raises(ValueError, match="finite"):
                partial_sum_path(s, 10)
            with pytest.raises(ValueError, match="finite"):
                sum_ratio_path(s, 10)
