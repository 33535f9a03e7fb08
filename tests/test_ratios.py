"""Mirrored partial-sum ratios, zero-sum events and limit estimates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from etalab import (
    ZeroDenominator,
    detect_zero_sums,
    envelope_diagnostics,
    eta,
    limit_estimate,
    orbit_diagnostics,
    partial_sum,
    partial_sum_path,
    remainder,
    sum_ratio_path,
)
from etalab.ratios import ZERO_SUM_THRESHOLD

S_EARLY_NULL = 0.4412 + 147.0517j   # early vanishing partial sum, around n = 35
S_LATE_NULL = 0.50567 + 37.58631j  # late vanishing partial sum, around n = 1516

# mpmath altzeta(0.7+20i)/altzeta(0.3+20i): the same-t mirror limit
LIMIT_03_20 = complex(0.63786332226830114, 0.12182432485018568)
# mpmath |altzeta(0.5+20i) - S_2000|
R_2000_MAG = 0.0111790820134


def _ratio(n: int, s: complex, threshold: float = ZERO_SUM_THRESHOLD):
    """(P_n(s), |S_n(s)|, skipped) from a one-index window of the mirrored pass."""
    [value], [mag], skipped = sum_ratio_path(s, n, threshold, n_from=n)
    return complex(value), float(mag), skipped


class TestSumRatio:
    def test_first_ratio_is_one(self):
        assert _ratio(1, 0.3 + 9.0j)[0] == 1.0 + 0.0j

    def test_critical_line_ratio_is_one_up_to_rounding(self):
        # the same-t mirror of sigma = 1/2 is the point itself; complex
        # division of identical sums still leaves sub-ulp residue
        for n in (2, 17, 1001):
            value, _, _ = _ratio(n, 0.5 + 33.0j)
            assert abs(value - 1.0) < 1e-15

    @given(
        n=st.integers(min_value=1, max_value=3000),
        t=st.floats(min_value=0.1, max_value=120.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_critical_line_modulus_property(self, n, t):
        assert abs(abs(_ratio(n, complex(0.5, t))[0]) - 1.0) <= 1e-12

    def test_mirror_point_magnitude(self):
        value, _, _ = _ratio(10**5, 0.404 + 147.0j)
        assert abs(abs(value) - 0.67252) < 2e-2

    def test_zero_denominator_signals_event(self):
        value, mag, skipped = _ratio(1516, S_LATE_NULL, threshold=1e-2)
        assert skipped == [1516]
        assert mag <= 1e-2
        assert np.isnan(value)

    def test_path_matches_scalar(self):
        s = 0.3 + 20.0j
        ratios, mags, skipped = sum_ratio_path(s, 500)
        assert skipped == []
        value, mag, _ = _ratio(500, s)
        assert abs(ratios[-1] - value) < 1e-15
        assert abs(mags[-1] - mag) < 1e-15


class TestZeroSumEvents:
    def test_early_event_is_the_argmin(self):
        path = partial_sum_path(S_EARLY_NULL, 200)
        mags = np.abs(path)
        argmin = int(np.argmin(mags)) + 1
        assert argmin == 35
        assert mags[34] < 1e-2
        events = detect_zero_sums(S_EARLY_NULL, 200, threshold=1e-2)
        assert [e.n for e in events] == [35]
        assert not events[0].beyond_nesting  # 35 sits below the nesting start

    def test_late_event_is_the_argmin(self):
        path = partial_sum_path(S_LATE_NULL, 1600)
        window = np.abs(path[1399:1600])
        argmin = int(np.argmin(window)) + 1400
        assert argmin == 1516
        assert abs(path[1515]) < 1e-2
        events = detect_zero_sums(S_LATE_NULL, 1600, threshold=1e-2)
        assert 1516 in [e.n for e in events]
        best = min(events, key=lambda e: e.magnitude)
        assert best.n == 1516

    def test_generic_point_has_no_events(self):
        assert detect_zero_sums(0.3 + 25.0j, 20000, threshold=1e-6) == []

    def test_uniqueness_at_machine_threshold(self):
        # the uniqueness claim concerns true zeros; at the default
        # threshold neither rounded point has any beyond-nesting event
        for s in (S_EARLY_NULL, S_LATE_NULL):
            events = detect_zero_sums(s, 10**5)
            assert sum(e.beyond_nesting for e in events) <= 1

    def test_scan_ceiling_validated(self):
        with pytest.raises(ValueError):
            detect_zero_sums(0.3 + 25.0j, 10**7 + 1)

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, 0.0, -1e-9])
    def test_threshold_validated_by_every_entry(self, threshold):
        s = 0.3 + 25.0j
        for call in (lambda: sum_ratio_path(s, 10, threshold),
                     lambda: limit_estimate(s, 10, threshold=threshold),
                     lambda: detect_zero_sums(s, 10, threshold)):
            with pytest.raises(ValueError, match="threshold must be finite and positive"):
                call()


class TestLimitEstimate:
    def test_critical_line_value(self):
        est = limit_estimate(0.5 + 21.0j, 4000)
        assert abs(est.value - 1.0) < 1e-15
        assert est.residual < 1e-15
        assert not est.zero_flag

    def test_converges_to_oracle_mirror_ratio(self):
        est = limit_estimate(0.3 + 20.0j, 200000)
        assert abs(est.value - LIMIT_03_20) < 1e-4
        assert abs(est.value - LIMIT_03_20) < max(10.0 * est.residual, 1e-9)
        assert not est.zero_flag

    def test_mirror_point_modulus(self):
        est = limit_estimate(0.404 + 147.0j, 10**5)
        assert abs(abs(est.value) - 0.67252) < 1e-3

    def test_odd_even_average_beats_raw_ratio(self):
        s = 0.3 + 20.0j
        ratios, _, _ = sum_ratio_path(s, 50000)
        est = limit_estimate(s, 50000)
        raw_err = abs(ratios[-1] - LIMIT_03_20)
        avg_err = abs(est.value - LIMIT_03_20)
        assert avg_err < raw_err / 10.0


class TestStreamedReports:
    """limit_estimate and envelope_diagnostics keep only a tail of one
    streamed pass; they read the bits of sum_ratio_path."""

    @pytest.mark.parametrize("s", [0.3 + 20.0j, 0.3 - 20.0j, 0.3 + 0.0j], ids=str)
    @pytest.mark.parametrize("n_max", [2, 3, 65536, 65537, 131073])
    def test_tail_reports_match_the_array_path(self, s, n_max):
        ratios, _, _ = sum_ratio_path(s, n_max)
        est = limit_estimate(s, n_max)
        assert est.n_used == n_max
        want = 0.5 * (complex(ratios[-1]) + complex(ratios[-2]))
        assert np.array(est.value).tobytes() == np.array(want).tobytes()
        n_from = max(1, n_max - 200)
        rep = envelope_diagnostics(s, n_from, n_max, limit_modulus=0.6)
        assert (rep.n_from, rep.n_to) == (n_from, n_max)
        signs = np.sign(np.abs(ratios[n_from - 1 :]) - 0.6)
        changes = signs[1:] != signs[:-1]
        assert rep.alternation_rate == (float(np.mean(changes)) if changes.size else 0.0)
        assert sum(length * count for length, count in rep.run_lengths.items()) == n_max - n_from + 1

    @pytest.mark.parametrize("s", [0.3 + 20.0j, 0.3 - 20.0j, 0.3 + 0.0j], ids=str)
    @pytest.mark.parametrize("n_from", [1, 2, 65536, 65537, 131073])
    def test_window_is_a_slice_of_the_path(self, s, n_from):
        ratios, mags, _ = sum_ratio_path(s, 131073)
        window, window_mags, _ = sum_ratio_path(s, 131073, n_from=n_from)
        assert window.tobytes() == ratios[n_from - 1 :].tobytes()
        assert window_mags.tobytes() == mags[n_from - 1 :].tobytes()

    def test_window_skips_absolute_indices(self):
        _, _, skipped = sum_ratio_path(S_LATE_NULL, 1600, threshold=1e-2)
        assert skipped
        _, _, tail = sum_ratio_path(S_LATE_NULL, 1600, threshold=1e-2, n_from=skipped[-1])
        assert tail == [skipped[-1]]

    @pytest.mark.parametrize("n_from", [0, 11])
    def test_window_outside_the_pass_rejected(self, n_from):
        with pytest.raises(ValueError, match="n_from"):
            sum_ratio_path(0.3 + 20.0j, 10, n_from=n_from)

    def test_masked_tail_names_the_absolute_index(self):
        # |S_1516| at the rounded near-null point is below 1e-2
        with pytest.raises(ZeroDenominator) as info:
            limit_estimate(S_LATE_NULL, 1516, threshold=1e-2)
        assert info.value.n == 1516


class TestEnvelope:
    def test_critical_line_signs_are_flat(self):
        rep = envelope_diagnostics(0.5 + 40.0j, 100, 300)
        assert rep.alternation_rate == 0.0

    def test_two_sided_jumping_at_mirror_point(self):
        rep = envelope_diagnostics(0.404 + 147.0j, 10**4, 10**4 + 200)
        assert rep.alternation_rate > 0.8

    def test_conjugate_symmetry_of_statistics(self):
        a = envelope_diagnostics(0.3 + 20.0j, 500, 900)
        b = envelope_diagnostics(0.3 - 20.0j, 500, 900)
        assert a.alternation_rate == b.alternation_rate
        assert a.run_lengths == b.run_lengths

    def test_envelope_bound_holds(self):
        # |P_n - P| <= K n^(-sigma), K calibrated near 1e4, checked to 2e5
        s = 0.3 + 20.0j
        ratios, _, _ = sum_ratio_path(s, 200000)
        limit = eta(0.7 + 20.0j).value / eta(0.3 + 20.0j).value
        dev = np.abs(ratios - limit)
        n = np.arange(1, 200001, dtype=np.float64)
        normalized = dev * n**0.3
        spread = normalized[5000:20000].max()
        assert normalized[10000:].max() <= 2.0 * spread


class TestAlphaDiagnostics:
    """|P_n(1/2 - alpha + it)| falls as alpha grows, by finite differences."""

    def test_fd_slope_negative_at_scale(self):
        n, t, alpha, step = 10**5, 40.0, 0.2, 1e-4
        hi, _, _ = _ratio(n, complex(0.5 - alpha - step, t))
        lo, _, _ = _ratio(n, complex(0.5 - alpha + step, t))
        assert (abs(hi) - abs(lo)) / (2.0 * step) < 0.0

    def test_fd_slope_one_sided_anchor_at_zero(self):
        # anchored at the exact critical-line ratio 1; slope stays negative
        hi, _, _ = _ratio(5000, complex(0.5 - 1e-4, 40.0))
        assert (abs(hi) - 1.0) / 1e-4 < 0.0


class TestVertexDistance:
    """|S_{m+j}(s) - S_m(s)|, the gap between two orbit vertexes."""

    def test_tends_to_remainder_magnitude(self):
        # the gap to |R_m| is the discarded tail, of order (m+j)^(-sigma)
        s = 0.5 + 20.0j
        d = abs(partial_sum(2000 + 10**5, s) - partial_sum(2000, s))
        tail_allowance = 2.0 * (2000 + 10**5) ** -0.5
        assert abs(d - R_2000_MAG) < tail_allowance
        assert abs(remainder(2000, s).magnitude - R_2000_MAG) < 1e-12

    def test_theta_scaling_window(self):
        m, s = 2000, 0.5 + 20.0j
        d = abs(partial_sum(m + 10**5, s) - partial_sum(m, s))
        assert 1.0 / (4.0 * math.sqrt(m)) < d < 2.0 / math.sqrt(m)

    def test_short_hop_triangle_inequality(self):
        s = 0.5 + 20.0j
        d = abs(partial_sum(2000 + 4, s) - partial_sum(2000, s))
        lengths = sum(k ** -0.5 for k in range(2001, 2005))
        assert d < lengths


class TestMirrorRemainderDecay:
    def test_mirror_remainder_ratio_decays(self):
        # |R_n(mirror)| / |R_n(s)| <= 4 n^(-2 alpha) beyond both sandwich starts
        s = 0.3 + 20.0j
        mirror = 0.7 + 20.0j
        alpha = 0.2
        start = max(
            orbit_diagnostics(s, 0.5).sandwich_start,
            orbit_diagnostics(mirror, 0.5).sandwich_start,
        ) + 1
        n_hi = start + 10**4
        eta_s = eta(s).value
        eta_m = eta(mirror).value
        path_s = partial_sum_path(s, n_hi)[start - 1 :]
        path_m = partial_sum_path(mirror, n_hi)[start - 1 :]
        n = np.arange(start, n_hi + 1, dtype=np.float64)
        ratio = np.abs(eta_m - path_m) / np.abs(eta_s - path_s)
        assert np.all(ratio <= 4.0 * n ** (-2.0 * alpha))
