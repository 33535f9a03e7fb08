"""Oracle values, certificates and identities.

Complex reference values were computed independently with mpmath at 30
digits and frozen here; the certificate itself is validated against
brute-force summation (self_check) before anything else leans on it.
"""

import math

import pytest

from etalab import (
    AccuracyUnreachable,
    DenominatorPole,
    eta,
    gamma,
    partial_sum,
    remainder,
    self_check,
    zeta,
)

# mpmath altzeta, 30 digits
ETA_03_20 = complex(2.1655046703667876, -0.30097158323763878)
ETA_07_20 = complex(1.4179616633546983, 0.071832410435046994)
ETA_05_5 = complex(1.7467035125745774, 0.22464786828496986)
ETA_2 = 0.82246703342411322
# mpmath brute force: eta - S_1000 at sigma 1 (positive at even index)
R_1000_SIGMA1 = 0.00049975000012499975


class TestKnownValues:
    def test_eta_at_one_is_ln2(self):
        v = eta(1.0 + 0.0j)
        assert abs(v.value - math.log(2.0)) < 1e-14
        assert v.abs_error_bound < 1e-13

    def test_eta_at_two(self):
        assert abs(eta(2.0 + 0.0j).value - ETA_2) < 1e-14

    def test_zeta_at_two(self):
        assert abs(zeta(2.0 + 0.0j).value - math.pi**2 / 6.0) < 1e-12

    @pytest.mark.parametrize(
        "s,ref",
        [
            (0.3 + 20.0j, ETA_03_20),
            (0.7 + 20.0j, ETA_07_20),
            (0.5 + 5.0j, ETA_05_5),
        ],
    )
    def test_frozen_complex_values(self, s, ref):
        v = eta(s)
        assert abs(v.value - ref) < 5e-14
        assert abs(v.value - ref) <= v.abs_error_bound

    def test_paper_printed_values(self):
        # eta printed to six decimals at the two mirrored points
        v = eta(0.404 + 147.0j).value
        assert abs(v.real - 1.816326) < 5e-6
        assert abs(v.imag - 0.457761) < 5e-6
        w = eta(0.596 + 147.0j).value
        assert abs(w.real - 1.124161) < 5e-6
        assert abs(w.imag - 0.568465) < 5e-6

    def test_negative_t_conjugates(self):
        v = eta(0.3 + 20.0j).value
        w = eta(0.3 - 20.0j).value
        assert w == v.conjugate()


class TestZeros:
    def test_first_zero_magnitude(self):
        assert abs(eta(complex(0.5, 14.13472514)).value) < 1e-6

    def test_sixth_zero_magnitude(self):
        assert abs(eta(complex(0.5, 37.586178)).value) < 1e-5

    def test_zeta_shares_the_zero(self):
        assert abs(zeta(complex(0.5, 14.13472514)).value) < 1e-6

    def test_zero_indistinguishable_flag(self):
        # ordinate accurate to machine precision: eta is below 10x the bound
        v = eta(complex(0.5, 14.134725141734693790))
        assert v.zero_indistinguishable
        # a value of order one never trips the flag
        assert not eta(0.5 + 10.0j).zero_indistinguishable


class TestCertificate:
    def test_self_check_against_direct_summation(self):
        assert self_check() < 1.0

    def test_bound_respects_target(self):
        for target in (1e-13, 1e-10, 1e-6):
            v = eta(0.404 + 147.0j, target)
            assert v.abs_error_bound <= target

    def test_unreachable_raises(self):
        with pytest.raises(AccuracyUnreachable):
            eta(0.3 + 160.0j, 1e-13, max_terms=60)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            eta(-0.2 + 3.0j)
        with pytest.raises(ValueError):
            eta(0.5 + 250.0j)
        with pytest.raises(ValueError):
            eta(0.5 + 1.0j, target_error=1e-15)
        for s in (complex(math.nan, 1.0), complex(0.5, math.nan), complex(0.5, math.inf)):
            with pytest.raises(ValueError, match="finite"):
                eta(s)


class TestZeta:
    def test_pole_at_one(self):
        with pytest.raises(DenominatorPole):
            zeta(1.0 + 0.0j)

    def test_pole_on_the_exclusion_line(self):
        with pytest.raises(DenominatorPole):
            zeta(complex(1.0, 2.0 * math.pi / math.log(2.0)))

    def test_eta_zeta_identity(self):
        import random

        rng = random.Random(171)
        for _ in range(100):
            s = complex(rng.uniform(0.05, 0.95), rng.uniform(0.5, 100.0))
            e = eta(s)
            z = zeta(s)
            denom = 1.0 - 2.0 ** (1.0 - s)
            gap = abs(z.value * denom - e.value)
            assert gap <= z.abs_error_bound * abs(denom) + e.abs_error_bound + 1e-15

    def test_functional_equation_consistency(self):
        import cmath
        import random

        rng = random.Random(59)
        for _ in range(50):
            s = complex(rng.uniform(0.08, 0.92), rng.uniform(2.0, 60.0))
            lhs = zeta(1.0 - s).value
            rhs = (
                2.0
                * (2.0 * math.pi) ** (-s)
                * cmath.cos(math.pi * s / 2.0)
                * gamma(s)
                * zeta(s).value
            )
            assert abs(lhs - rhs) <= 1e-9 * abs(lhs)


class TestRemainder:
    def test_empty_sum_is_eta(self):
        rec = remainder(0, 0.5 + 5.0j)
        assert rec.value == eta(0.5 + 5.0j).value
        assert rec.n == 0

    def test_thousand_term_remainder_frozen(self):
        rec = remainder(1000, 1.0 + 0.0j)
        assert abs(rec.value - R_1000_SIGMA1) < 1e-12
        assert rec.value.real > 0  # even-index sums sit below the limit
        assert abs(rec.magnitude - abs(rec.value)) == 0.0

    def test_consistency_with_partial_sum(self):
        s = 0.5 + 20.0j
        rec = remainder(5000, s)
        assert abs(rec.value + partial_sum(5000, s) - eta(s).value) < 1e-15


class TestSelfConsistency:
    def test_oracle_vs_million_term_sums(self):
        # sigma >= 0.9: the direct tail is below n^(-sigma) at n = 1e6
        for s in (0.9 + 11.0j, 0.95 + 50.0j, 1.0 + 37.0j):
            v = eta(s)
            direct = partial_sum(10**6, s)
            assert abs(v.value - direct) <= (10**6) ** -s.real + v.abs_error_bound
