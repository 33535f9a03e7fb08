"""Strip points and coercions."""

import pytest

from etalab import StripPoint, as_complex, from_alpha


class TestStripPoint:
    def test_alpha_is_exact_complement(self):
        p = StripPoint(0.404, 147.0)
        assert p.alpha + p.sigma == 0.5
        assert complex(p) == 0.404 + 147.0j

    def test_left_half_membership(self):
        assert StripPoint(0.3, 5.0).in_left_half
        assert not StripPoint(0.5, 5.0).in_left_half
        assert not StripPoint(0.7, 5.0).in_left_half

    def test_companion_swaps_sigma_keeps_t(self):
        p = StripPoint(0.3, 20.0)
        q = p.companion()
        assert q.sigma == 0.7 and q.t == 20.0
        assert abs(q.companion().sigma - p.sigma) < 1e-15

    def test_conjugate(self):
        assert StripPoint(0.3, 20.0).conjugate() == StripPoint(0.3, -20.0)

    def test_validation(self):
        for sigma in (0.0, 1.0, -0.3, 1.7, float("nan")):
            with pytest.raises(ValueError):
                StripPoint(sigma, 1.0)
        for t in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ValueError):
                StripPoint(0.5, t)

    def test_accepted_by_numeric_routines(self):
        from etalab import eta, partial_sum

        p = StripPoint(0.5, 5.0)
        assert eta(p).value == eta(0.5 + 5.0j).value
        assert partial_sum(100, p) == partial_sum(100, 0.5 + 5.0j)


class TestCoercion:
    def test_as_complex(self):
        assert as_complex(0.25 + 3.0j) == 0.25 + 3.0j
        assert as_complex(StripPoint(0.25, 3.0)) == 0.25 + 3.0j
        assert as_complex(2) == 2.0 + 0.0j

    def test_from_alpha(self):
        p = from_alpha(0.2, 40.0)
        assert p.sigma == 0.3 and p.t == 40.0
