"""Exact disk-gap quantities against their leading-order forms."""

import numpy as np
import pytest

from etalab import orbit
from etalab import nesting_gap_record, nesting_start, shrunk_gap_record


class TestNestingGap:
    def test_large_n_ratio_near_one(self):
        rec = nesting_gap_record(10**6, 0.5 + 20.0j)
        assert abs(rec.ratio - 1.0) < 1e-2

    def test_moderate_n_larger_slack(self):
        rec = nesting_gap_record(10**4, 0.3 + 50.0j)
        assert abs(rec.ratio - 1.0) < 0.2

    def test_t_zero_closed_form(self):
        n, sigma = 10**5, 0.6
        rec = nesting_gap_record(n, complex(sigma, 0.0))
        product = (
            ((n + 1.0) ** sigma - n**sigma)
            * ((n + 2.0) ** sigma - (n + 1.0) ** sigma)
            / (n**sigma * (n + 1.0) ** (2 * sigma) * (n + 2.0) ** sigma)
        )
        assert abs(rec.exact - product) <= 1e-10 * abs(product)
        assert abs(rec.ratio - 1.0) < 1e-3


class TestShrunkGap:
    def test_half_radius_ratio(self):
        rec = shrunk_gap_record(10**6, 0.5 + 20.0j, 0.5)
        assert abs(rec.ratio - 1.0) < 2e-2

    def test_gap_positive_in_window(self):
        for n in range(2000, 2100):
            assert shrunk_gap_record(n, 0.5 + 20.0j, 0.5).exact > 0.0

    def test_scale_squared_leading_term(self):
        half = shrunk_gap_record(10**6, 0.5 + 20.0j, 0.5)
        quarter = shrunk_gap_record(10**6, 0.5 + 20.0j, 0.25)
        assert abs(half.exact / quarter.exact - 4.0) < 0.2
        assert abs(half.leading / quarter.leading - 4.0) < 1e-12

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            shrunk_gap_record(1000, 0.5 + 20.0j, 0.0)


class TestConvergenceLadder:
    def test_ratio_error_nonincreasing_on_doubling_ladder(self):
        s = 0.5 + 20.0j
        start = 10 * nesting_start(s)
        ladder = [start * 2**k for k in range(7)]
        errors = [abs(nesting_gap_record(n, s).ratio - 1.0) for n in ladder]
        assert all(b <= a * 1.02 for a, b in zip(errors, errors[1:]))


# Exact gaps margin / (p0 p1^2 p2) at the first and last rows of
# `sandwich --n-max 5000`, frozen from a 50-digit evaluation of the
# textbook margin (bench/reference.py).
GAP_ROWS = [
    (0.404 + 147.0j, 53490, 6.4686834497323110443e-15),
    (0.404 + 147.0j, 58489, 5.307946948673001706e-15),
    (0.1 + 190.0j, 361006, 4.4517177503590820629e-15),
    (0.1 + 190.0j, 366005, 4.358105348425700906e-15),
]


class TestArrayRecords:
    @pytest.mark.parametrize("s,n,want", GAP_ROWS)
    def test_gap_matches_the_50_digit_value(self, s, n, want):
        assert abs(nesting_gap_record(n, s).exact - want) <= 1e-10 * want

    @pytest.mark.parametrize("record", [nesting_gap_record,
                                        lambda n, s: shrunk_gap_record(n, s, 0.5)])
    def test_array_call_equals_scalar_calls(self, record):
        s = 0.404 + 147.0j
        ns = np.arange(53490, 53590)
        many = record(ns, s)
        assert many.n is ns
        for i, n in enumerate(ns):
            one = record(int(n), s)
            assert (one.exact, one.leading, one.ratio) == (many.exact[i], many.leading[i], many.ratio[i])

    def test_records_read_the_kernel(self):
        s, ns = 0.1 + 190.0j, np.arange(361006, 361016)
        g = orbit._geometry(ns.astype(float), s.real, s.imag, lengths=True)
        p0_inv, p2_inv = 2.0 * (g.r2 + g.rgap) / g.p1, 2.0 * g.r2 / g.p1
        full = nesting_gap_record(ns, s)
        assert np.array_equal(full.exact, g.bracket * p0_inv * p2_inv)
        half = shrunk_gap_record(ns, s, 0.5)
        assert np.array_equal(half.exact, full.exact - 0.75 * (g.rgap / g.p1) ** 2)
