"""Gamma, the functional-equation ratio and its derived identities.

Frozen complex references come from mpmath at 30 digits.
"""

import cmath
import math
import random

import numpy as np
import pytest

from etalab import (
    PoleError,
    ZeroDenominator,
    approx_deviation_scan,
    conjecture_bounds,
    critical_line_deviation,
    eta,
    functional_ratio,
    functional_ratio_modulus,
    gamma,
    log_abs_gamma,
    sz_relation_deviation,
    two_power_alpha_derivative,
    two_power_alpha_ratio,
    two_power_factor,
    zeta,
    zeta_modulus_ratio,
)
from etalab import oracle

TWO_PI_LN2 = 2.0 * math.pi / math.log(2.0)

# mpmath gamma, 30 digits
GAMMA_25_3 = complex(-0.2181189710811229, 0.072034763407175034)
GAMMA_01_50 = complex(3.6532951225975361e-35, 1.8045773302762463e-35)
GAMMA_05_14 = complex(-1.4455538437606964e-10, -5.5227887687740656e-10)
GAMMA_M15 = 2.3632718012073547
LOG_ABS_GAMMA_03_300 = -471.46071592241763
# mpmath altzeta(1-s)/altzeta(s) at s = 0.3+20i (true reflection, negative t upstairs)
P_03_20 = complex(0.64690915480159177, 0.056739135120728981)


class TestGamma:
    def test_integer_and_half_values(self):
        assert abs(gamma(1.0) - 1.0) < 1e-15
        assert abs(gamma(5.0) - 24.0) < 1e-13
        assert abs(gamma(0.5) - math.sqrt(math.pi)) < 1e-15

    def test_reflection_value(self):
        assert abs(gamma(-1.5) - GAMMA_M15) < 1e-13

    @pytest.mark.parametrize(
        "z,ref",
        [(2.5 + 3.0j, GAMMA_25_3), (0.1 + 50.0j, GAMMA_01_50), (0.5 + 14.134725j, GAMMA_05_14)],
    )
    def test_frozen_complex_values(self, z, ref):
        assert abs(gamma(z) - ref) < 5e-13 * abs(ref)

    def test_poles_raise(self):
        for z in (0.0, -1.0, -7.0):
            with pytest.raises(PoleError):
                gamma(z)

    def test_modulus_identity_on_critical_line(self):
        # |Gamma(1/2+it)| = sqrt(pi / cosh(pi t))
        for t in np.linspace(0.1, 50.0, 100):
            got = abs(gamma(complex(0.5, float(t))))
            want = math.sqrt(math.pi / math.cosh(math.pi * t))
            assert abs(got - want) < 1e-10 * want

    def test_log_modulus_matches_direct(self):
        for z in (0.5 + 3.0j, 0.2 + 40.0j, 0.9 + 120.0j, 3.7 + 0.5j):
            assert abs(log_abs_gamma(z) - math.log(abs(gamma(z)))) < 1e-11

    def test_log_modulus_beyond_overflow(self):
        assert abs(log_abs_gamma(0.3 + 300.0j) - LOG_ABS_GAMMA_03_300) < 1e-9

    def test_log_modulus_at_subnormal_t(self):
        # the argument of w = z + g + 1/2 underflows there; it is 0, not a range error
        value = log_abs_gamma(0.3 + 5e-324j)
        assert math.isfinite(value)
        assert abs(value - log_abs_gamma(0.3)) <= 1e-15


class TestFunctionalRatio:
    def test_factor_product_is_value(self):
        fr = functional_ratio(0.3 + 20.0j)
        prod = fr.factor_two_power * fr.factor_exp * fr.factor_cos * fr.factor_gamma
        assert abs(prod - fr.value) <= 1e-12 * abs(fr.value)

    def test_reflection_identity_against_oracle(self):
        # eta(1-s) = P(s) eta(s) with the true reflection (conjugated t)
        got = functional_ratio(0.3 + 20.0j).value
        assert abs(got - P_03_20) < 1e-9 * abs(P_03_20)
        e_s = eta(0.3 + 20.0j).value
        e_1ms = eta(0.7 - 20.0j).value
        assert abs(got - e_1ms / e_s) < 1e-12

    def test_critical_line_modulus_is_one(self):
        assert abs(abs(functional_ratio(0.5 + 5.0j).value) - 1.0) < 1e-10

    def test_paper_modulus_at_mirror_point(self):
        # ratio of the two printed eta moduli: 1.259718 / 1.873122
        assert abs(abs(functional_ratio(0.404 + 147.0j).value) - 0.6725234773) < 1e-6

    def test_modulus_function_agrees(self):
        for s in (0.3 + 20.0j, 0.404 + 147.0j, 0.05 + 2.0j, 0.5 + 100.0j):
            direct = abs(functional_ratio(s).value)
            assert abs(functional_ratio_modulus(s) - direct) <= 1e-11 * direct

    def test_modulus_function_beyond_overflow(self):
        # cosh(pi t) overflows here; the log-space route must not
        value = functional_ratio_modulus(0.5 + 400.0j)
        assert abs(value - 1.0) < 1e-9

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            functional_ratio(1.3 + 2.0j)
        # beyond |t| = 200 the cosine factor overflows; refused before it
        for s in (0.5 + 500.0j, 0.5 - 300.0j, 0.5 + 200.5j, complex(0.5, math.nan), complex(0.5, math.inf)):
            with pytest.raises(ValueError):
                functional_ratio(s)
        for s in (complex(math.nan, 20.0), complex(0.5, math.inf), complex(0.5, -math.inf), complex(math.inf, 1.0)):
            with pytest.raises(ValueError, match="finite"):
                functional_ratio_modulus(s)

    def test_nonvanishing_on_left_half(self):
        rng = random.Random(23)
        for _ in range(10000):
            s = complex(rng.uniform(1e-3, 0.5 - 1e-3), rng.uniform(1e-3, 200.0))
            assert functional_ratio_modulus(s) > 0.0

    def test_cosine_lower_bound(self):
        rng = random.Random(5)
        for _ in range(200):
            s = complex(rng.uniform(0.0, 1.0), rng.uniform(0.05, 100.0))
            bound = math.sinh(math.pi * s.imag / 2.0)
            # equality when cos(Re) = 0; allow rounding there
            assert abs(cmath.cos(math.pi * s / 2.0)) >= bound * (1.0 - 1e-12)

    def test_two_power_numerator_zero_locus(self):
        # numerator 1 - 2^s vanishes on Re(s) = 0 at t = 2 pi k / ln 2
        assert abs(1.0 - 2.0 ** complex(0.0, TWO_PI_LN2)) < 1e-14
        assert abs(two_power_factor(complex(0.25, TWO_PI_LN2))) > 0.1


class TestCriticalLineIdentity:
    @pytest.mark.parametrize("t", [1.0, 5.0, 14.134725, TWO_PI_LN2, 50.0, 100.0])
    def test_deviation_below_tolerance(self, t):
        assert critical_line_deviation(t) < 1e-9

    def test_rejects_nonpositive_t(self):
        with pytest.raises(ValueError):
            critical_line_deviation(0.0)


class TestMonotonicityAndAsymptotics:
    @pytest.mark.parametrize("t", [2.0 * math.pi + 1.0, 10.0, 40.0, 100.0])
    def test_modulus_strictly_decreasing_in_alpha(self, t):
        alphas = np.arange(0.0, 0.50, 0.01)
        vals = [functional_ratio_modulus(complex(0.5 - a, t)) for a in alphas]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_asymptotic_moduli_at_large_t(self):
        t = 150.0
        for sigma in (0.1, 0.5, 0.9):
            cos_mod = abs(cmath.cos(math.pi * complex(sigma, t) / 2.0))
            assert abs(cos_mod / (0.5 * math.exp(math.pi * t / 2.0)) - 1.0) < 1e-3
            gamma_mod = abs(gamma(complex(sigma, t)))
            stirling = math.sqrt(2.0 * math.pi) * math.exp(-math.pi * t / 2.0) * t ** (sigma - 0.5)
            assert abs(gamma_mod / stirling - 1.0) < 1e-2


class TestConjectureBounds:
    def test_alpha_zero_degenerates_to_one(self):
        b = conjecture_bounds(0.0, 40.0)
        assert b.lower == 1.0 and b.upper == 1.0

    def test_frozen_values(self):
        b = conjecture_bounds(0.25, 40.0)
        assert abs(b.upper - 0.51402511596263536) < 1e-15
        assert abs(b.lower - b.upper / 3.0) < 1e-15

    def test_ordering(self):
        for alpha in np.arange(0.0, 0.5, 0.05):
            b = conjecture_bounds(float(alpha), 2.0 * math.pi + 1.0)
            assert 0.0 <= b.lower <= b.upper

    def test_validation(self):
        with pytest.raises(ValueError):
            conjecture_bounds(0.5, 40.0)
        with pytest.raises(ValueError):
            conjecture_bounds(0.2, -1.0)


class TestApproxDeviations:
    def test_upper_approx(self):
        rep = approx_deviation_scan("upper-approx")
        assert abs(rep.max_deviation - 1.75e-4) < 0.05 * 1.75e-4
        assert rep.violations == 0

    def test_lower_approx(self):
        rep = approx_deviation_scan("lower-approx")
        assert abs(rep.max_deviation - 5.75e-3) < 0.05 * 5.75e-3
        assert rep.violations == 0

    def test_boundary_equality(self):
        import numpy as np

        for which in ("upper-approx", "lower-approx"):
            rep = approx_deviation_scan(which)
            assert 0.0 < rep.argmax_sigma < 0.5  # max in the interior, zero at the ends

    def test_unknown_scan_rejected(self):
        with pytest.raises(ValueError):
            approx_deviation_scan("sideways")

    def test_step_validation(self):
        with pytest.raises(ValueError):
            approx_deviation_scan("upper-approx", grid_step=1e-3)


class TestTwoPowerDerivative:
    def test_interior_negative(self):
        assert two_power_alpha_derivative(0.25, 10.0) < 0.0
        assert two_power_alpha_derivative(0.1, 3.0 * math.pi / math.log(2.0)) < 0.0

    def test_vanishes_at_the_special_point(self):
        assert abs(two_power_alpha_derivative(0.5, TWO_PI_LN2)) < 1e-4

    def test_ratio_at_alpha_zero_is_one(self):
        for t in (3.0, 11.0, 60.0):
            assert abs(two_power_alpha_ratio(0.0, t) - 1.0) < 1e-14


class TestSzRelation:
    def test_alpha_zero_trivial(self):
        assert sz_relation_deviation(0.0, 50.0) < 1e-12

    @pytest.mark.parametrize("alpha,t,tol", [(0.25, 30.0, 1e-9), (0.45, 100.0, 1e-8)])
    def test_identity_holds(self, alpha, t, tol):
        assert sz_relation_deviation(alpha, t) < tol

    def test_zeta_ratio_monotone_in_alpha(self):
        t = 40.0
        vals = [zeta_modulus_ratio(a, t) for a in (0.05, 0.15, 0.25, 0.35, 0.45)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_one_oracle_pass(self, monkeypatch):
        # both sides come from one eta_many call at the two points; the
        # zeta moduli are that pass's etas over 1 - 2^(1-s)
        calls = []
        eta_many = oracle.eta_many

        def counting(sigmas, ts, *args):
            calls.append((list(sigmas), ts))
            return eta_many(sigmas, ts, *args)

        def refuse(*args, **kwargs):
            raise AssertionError("a second oracle pass")

        want = sz_relation_deviation(0.25, 30.0)
        monkeypatch.setattr(oracle, "eta_many", counting)
        monkeypatch.setattr(oracle, "eta", refuse)
        monkeypatch.setattr(oracle, "zeta", refuse)
        assert sz_relation_deviation(0.25, 30.0) == want
        assert calls == [([0.75, 0.25], 30.0)]
        ratio = zeta_modulus_ratio(0.25, 30.0)
        assert calls[1:] == [([0.25, 0.75], 30.0)]
        monkeypatch.undo()
        assert ratio == abs(zeta(0.25 + 30.0j).value) / abs(zeta(0.75 + 30.0j).value)

    def test_near_zero_denominator_raises(self):
        # at the machine-accurate first-zero ordinate eta(1/2 + it) is
        # zero-indistinguishable and the ratio must refuse to divide
        with pytest.raises(ZeroDenominator):
            sz_relation_deviation(0.0, 14.134725141734693790)


class TestGammaOverflow:
    def test_raises_instead_of_returning_infinity(self):
        with pytest.raises(OverflowError):
            gamma(200.0)

    def test_log_modulus_still_works_out_there(self):
        assert log_abs_gamma(200.0) > 700.0
