"""Oracle values, certificates and identities.

Complex reference values were computed independently with mpmath at 30
digits and frozen here.  The a-priori bound is checked against live
mpmath values across the domain, and against brute-force summation
(million-term partial sums).  A pass with spoiled weights misses mpmath
by more than its bound, which the a-priori bound alone cannot see.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from etalab import (
    AccuracyUnreachable,
    DenominatorPole,
    eta,
    gamma,
    oracle,
    partial_sum,
    remainder,
    scans,
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
        # at sigma = 1 the direct sum S_n is within 1/n of eta (alternating
        # series with decreasing moduli), so the certificate allows bound + 1/n
        n = 2_000_000
        for t in (0.0, 5.0, 17.5, 37.0, 50.0):
            v = eta(complex(1.0, t))
            assert abs(v.value - partial_sum(n, complex(1.0, t))) <= v.abs_error_bound + 1.0 / n

    def test_bound_respects_target(self):
        for target in (1e-13, 1e-10, 1e-6):
            v = eta(0.404 + 147.0j, target)
            assert v.abs_error_bound <= target

    def test_unreachable_raises(self, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_TERMS", 60)
        with pytest.raises(AccuracyUnreachable):
            eta(0.3 + 160.0j, 1e-13)

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
            # 1 - 2^(1-s) in double is off by about |t| ln 2 eps; take it exact
            with mpmath.workdps(30):
                denom = complex(1 - mpmath.power(2, 1 - mpmath.mpc(s.real, s.imag)))
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


def _altzeta(sigma: float, t: float) -> complex:
    with mpmath.workdps(30):
        return complex(mpmath.altzeta(mpmath.mpc(sigma, t)))


class TestBoundAgainstMpmath:
    """|value - eta| <= bound <= target over the whole domain, against mpmath."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        log_sigma=st.floats(-12.0, math.log10(21.0)),
        t=st.floats(-200.0, 200.0),
        log_target=st.floats(-13.0, math.log10(0.3)),
    )
    def test_bound_holds(self, log_sigma, t, log_target):
        sigma, target = 10.0**log_sigma, 10.0**log_target
        value, bound = oracle.eta_many(sigma, t, target)
        assert abs(complex(value) - _altzeta(sigma, t)) <= bound <= target
        # the tail's exponent bounds ln(Gamma(sigma) / |Gamma(s)|) from above
        with mpmath.workdps(30):
            log_ratio = float(mpmath.loggamma(sigma) - mpmath.re(mpmath.loggamma(mpmath.mpc(sigma, t))))
        ell = float(oracle._log_gamma_ratio(np.array([sigma]), np.array([abs(t)]))[0])
        assert ell >= log_ratio - 1e-13 * (1.0 + abs(log_ratio))

    @pytest.mark.parametrize("sigma", [1e-13, 1e-20, 1e-100])
    @pytest.mark.parametrize("t", [0.5, 5.0])
    def test_raised_counts(self, sigma, t):
        ref = _altzeta(sigma, t)
        for target in (1e-13, 1e-9):
            value, bound = oracle.eta_many(sigma, t, target)
            assert abs(complex(value) - ref) <= bound <= target
        # at 1e-9 the count is raised above ceil(1.2 n) + 8
        old = int(math.ceil(1.2 * (math.ceil(1.31 * 9 + 0.9 * t) + 4))) + 8
        assert _ref_eta(complex(sigma, t), 1e-9)[2] > old

    def test_coarse_targets(self):
        # a target of 1 or more certifies nothing and is refused; just below 1 is certified
        for target in (1.0, 3e8):
            with pytest.raises(ValueError, match="target_error must be < 1"):
                eta(0.5 + 0.0j, target)
        for target in (0.5, math.nextafter(1.0, 0.0)):
            for s in (0.5 + 0.0j, 0.5 - 1.0j):
                v = eta(s, target)
                assert abs(v.value - _altzeta(s.real, s.imag)) <= v.abs_error_bound <= target

    def test_log_gamma_ratio_edges(self):
        sig = np.array([5e-324, 1e-300, 0.5, 21.0, 0.5])
        t = np.array([200.0, 0.5, 0.0, 0.0, 1e-300])
        ell = oracle._log_gamma_ratio(sig, t)
        assert np.all(np.isfinite(ell))
        assert ell[2] == ell[3] == 0.0


def _exact(x) -> mpmath.mpf:
    """A longdouble as an exact mpf: its double part plus the rest."""
    hi = float(x)
    return mpmath.mpf(hi) + mpmath.mpf(float(x - np.longdouble(hi)))


class TestPhaseRecurrence:
    """Phases built from e^(-i |t| ln 2) stay within the model of _certify."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(t=st.floats(0.0, 200.0))
    def test_within_the_documented_model(self, t):
        n = 400
        phase = oracle._phases(np.array([t]), np.log(np.arange(1, n + 1, dtype=np.longdouble)))[0]
        with mpmath.workdps(30):
            for k in range(1, n + 1):
                exact = mpmath.expj(-mpmath.mpf(t) * mpmath.log(k))
                err = abs(mpmath.mpc(_exact(phase[k - 1].real), _exact(phase[k - 1].imag)) - exact)
                assert err <= oracle._EPS_ACC * (t * math.log(k) + 2.5 * math.log2(k) + 1.0)


def _mp_zeta(s: complex) -> complex:
    with mpmath.workdps(40):
        return complex(mpmath.zeta(mpmath.mpc(s.real, s.imag)))


class TestZetaAgainstMpmath:
    """|value - zeta| <= bound, with 1 - 2^(1-s) taken in extended precision."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        log_sigma=st.floats(-12.0, 0.0),
        t=st.floats(-200.0, 200.0),
        log_target=st.floats(-13.0, -6.0),
    )
    def test_bound_holds_on_the_strip(self, log_sigma, t, log_target):
        s = complex(10.0**log_sigma, t)
        assume(oracle._pole_distance(s) >= 1e-9)  # zeta raises DenominatorPole there
        z = zeta(s, 10.0**log_target)
        assert abs(z.value - _mp_zeta(s)) <= z.abs_error_bound

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        k=st.integers(-22, 22),
        log_r=st.floats(-8.0, -2.0),
        angle=st.floats(0.0, 2.0 * math.pi),
        log_target=st.floats(-13.0, -6.0),
    )
    def test_bound_holds_next_to_the_zeros_of_the_denominator(self, k, log_r, angle, log_target):
        # 1e-8 to 1e-2 from 1 + 2 pi i k / ln 2, where 1 - 2^(1-s) vanishes
        zero = complex(1.0, 2.0 * math.pi * k / math.log(2.0))
        s = zero + 10.0**log_r * complex(math.cos(angle), math.sin(angle))
        z = zeta(s, 10.0**log_target)
        assert abs(z.value - _mp_zeta(s)) <= z.abs_error_bound

    def test_worst_points_of_the_double_denominator(self):
        # with 1 - 2^(1-s) in double, these missed their bounds by 5.2x and 6x
        for s in (0.5103661699115636 + 199.40357815031058j, 1.01 + 190.35912595674216j):
            for target in (1e-13, 1e-9):
                z = zeta(s, target)
                assert abs(z.value - _mp_zeta(s)) <= z.abs_error_bound


# The per-point oracle, written out apart from eta_many as a scalar loop
# over k: one pass at ceil(1.2 n) + 8 terms, raised by a plain search where
# the a-priori tail needs more.  The phase is cos and sin at odd k and the
# phase at k / 2 times the one at 2 at even k; the weighted modulus
# w_k k^(-sigma) sets the amplitude.  The batched oracle must reproduce it
# bit for bit.
def _ref_pass(sigma: float, t_abs: float, n: int):
    ld = np.longdouble
    w, d = oracle._acceleration_weights(n)
    theta2 = ld(-t_abs) * np.log(ld(2.0))
    c2, s2 = np.cos(theta2), np.sin(theta2)
    phases, wm = [], []
    re = im = ld(0.0)
    for k in range(1, n + 1):
        ln = np.log(ld(k))
        if k % 2:
            c, s = np.cos(ld(-t_abs) * ln), np.sin(ld(-t_abs) * ln)
        else:
            hc, hs = phases[k // 2 - 1]
            c, s = c2 * hc - s2 * hs, s2 * hc + c2 * hs
        phases.append((c, s))
        wm.append(np.exp(ld(-sigma) * ln) * w[k - 1])
        re += c * wm[-1]
        im += s * wm[-1]
    amp = np.abs(np.array(wm, dtype=ld)).sum() / d
    return complex(float(re / d), float(im / d)), float(amp)


def _ref_log_gamma_ratio(sigma: float, t_abs: float):
    """The bound l >= ln(Gamma(sigma) / |Gamma(s)|) at one point, in longdouble."""
    sig, t = np.longdouble(sigma), np.longdouble(t_abs)
    big = max(sig, t)
    r = min(sig, t) / big
    f = np.log1p(r * r) + 2.0 * (np.log(big) - np.log(sig))
    return 0.5 * (1.0 - sig) * f + t * np.arctan2(t, sig)


def _ref_eta(s: complex, target_error: float, max_terms: int = 400):
    """(value, bound, term count) of the per-point one-pass certificate."""
    t_abs = abs(s.imag)
    n = int(math.ceil(1.31 * -math.log10(target_error) + 0.9 * t_abs)) + 4
    count = int(math.ceil(1.2 * n)) + 8
    scale = np.exp(_ref_log_gamma_ratio(s.real, t_abs))
    while scale / oracle._acceleration_weights(count)[1] > target_error / 2:
        count += 1
    if count > max_terms:
        raise AccuracyUnreachable(f"cannot certify at s = {s}")
    value, amp = _ref_pass(s.real, t_abs, count)
    floor = 1e-15 * (1.0 + abs(value)) + oracle._EPS_ACC * amp * (
        4.0 + 2.0 * t_abs * math.log(count) + 2.0 * count
    )
    bound = float(scale / oracle._acceleration_weights(count)[1]) + floor
    if not bound <= target_error:
        raise AccuracyUnreachable(f"cannot certify at s = {s}")
    return (value.conjugate() if s.imag < 0 else value), bound, count


def _ref_eta_many(sigmas, ts, target_error=oracle.TARGET_FLOOR, max_terms=400):
    sig, t = np.broadcast_arrays(np.asarray(sigmas, dtype=float), np.asarray(ts, dtype=float))
    values = np.empty(sig.shape, dtype=complex)
    bounds = np.empty(sig.shape)
    for i in np.ndindex(sig.shape):
        values[i], bounds[i], _ = _ref_eta(complex(sig[i], t[i]), target_error, max_terms)
    return values, bounds


def _assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _random_points(seed: int, size: int):
    """sigma in (0, 1], t in [-200, 200] with both signs, repeats and duplicates."""
    rng = np.random.default_rng(seed)
    sigmas = 1.0 - rng.random(size)
    ts = rng.uniform(-200.0, 200.0, size)
    ts[1::5] = -ts[::5][: ts[1::5].size]  # |t| shared with the opposite sign
    sigmas[2::7] = sigmas[0]  # one sigma at many heights
    sigmas[-10:], ts[-10:] = sigmas[:10], ts[:10]  # duplicate points
    return sigmas, ts


@pytest.fixture
def perturbed_weights(monkeypatch):
    """Spoil the weights, so every sum is off by a factor 1 + 1/n."""
    exact = oracle._acceleration_weights

    def weights(n):
        w, d = exact(n)
        return w * np.longdouble(1.0 + 1.0 / n), d

    monkeypatch.setattr(oracle, "_acceleration_weights", weights)


class TestBatchMatchesReference:
    @pytest.mark.parametrize("target", [1e-13, 1e-9, 1e-6])
    def test_random_points(self, target):
        sigmas, ts = _random_points(7, 300)
        values, bounds = oracle.eta_many(sigmas, ts, target)
        want_values, want_bounds = _ref_eta_many(sigmas, ts, target)
        _assert_same_bits(values, want_values)
        _assert_same_bits(bounds, want_bounds)
        # mixed term counts, so several groups share a call
        counts = {int(math.ceil(1.31 * -math.log10(target) + 0.9 * abs(t))) for t in ts}
        assert len(counts) > 100

    def test_axis_product(self):
        # the shape the scans use: rows of one t with every sigma, which
        # the oracle combines by broadcasting
        alphas = np.arange(0.0, 0.46, 0.05)
        sigmas = np.stack([0.5 + alphas, 0.5 - alphas], axis=-1)
        ts = (-150.0 + 0.25 * np.arange(60))[:, None, None]
        values, bounds = oracle.eta_many(sigmas, ts, 1e-9)
        assert values.shape == bounds.shape == (60, 10, 2)
        want_values, want_bounds = _ref_eta_many(sigmas, ts, 1e-9)
        _assert_same_bits(values, want_values)
        _assert_same_bits(bounds, want_bounds)

    def test_one_point_case(self):
        for s in (0.404 + 147.0j, 0.3 - 20.0j, 1.0 + 0.0j, complex(0.5, -0.0), 1e-8 + 200.0j):
            v = eta(s, 1e-10)
            want, bound, _ = _ref_eta(s, 1e-10)
            _assert_same_bits(v.value, want)
            _assert_same_bits(v.abs_error_bound, bound)
        value, bound = oracle.eta_many(0.5, 10.0)
        assert value.shape == bound.shape == ()

    def test_spoiled_weights_fail_the_self_check(self, perturbed_weights):
        # the a-priori bound does not see the weights, so only an independent
        # reference can catch a pass that is off by 1/n
        for s in (1.0 + 0.0j, 0.5 + 14.0j, 0.3 - 80.0j, 0.8 + 150.0j):
            v = eta(s)
            assert abs(v.value - _altzeta(s.real, s.imag)) > v.abs_error_bound

    def test_raised_counts_match_reference(self):
        # near sigma = 0 the tail at ceil(1.2 n) + 8 terms misses half the
        # target, and the count is raised; the other points keep it
        sigmas, ts = _random_points(13, 40)
        sigmas[::2] = 10.0 ** -np.linspace(11.0, 100.0, 20)
        ts[::2] = np.linspace(-5.0, 5.0, 20)
        values, bounds = oracle.eta_many(sigmas, ts, 1e-9)
        want_values, want_bounds = _ref_eta_many(sigmas, ts, 1e-9)
        _assert_same_bits(values, want_values)
        _assert_same_bits(bounds, want_bounds)
        counts = [_ref_eta(complex(s, t), 1e-9)[2] for s, t in zip(sigmas, ts)]
        old = [int(math.ceil(1.2 * (math.ceil(11.79 + 0.9 * abs(t)) + 4))) + 8 for t in ts]
        assert sum(c > o for c, o in zip(counts[::2], old[::2])) >= 15
        assert counts[1::2] == old[1::2]

    def test_empty(self):
        values, bounds = oracle.eta_many([], [], 1e-9)
        assert values.shape == bounds.shape == (0,)


class TestBatchErrors:
    def test_unreachable_names_the_first_point_in_input_order(self, monkeypatch):
        ts = [10.0, 150.0, 5.0, 160.0]  # only |t| >= 150 needs more than 60 terms
        monkeypatch.setattr(oracle, "MAX_TERMS", 60)
        with pytest.raises(AccuracyUnreachable, match=r"s = \(0\.3\+150j\) within 60 terms"):
            oracle.eta_many(0.3, ts, 1e-13)

    def test_raised_count_over_max_terms_comes_first_in_input_order(self, monkeypatch):
        # sigma = 1e-100 at t = 0.5 needs 149 terms, t = 150 needs 197;
        # the first of them in C order is named, past the first chunk
        assert oracle._CHUNK < 600
        sigmas = [0.5] * 600 + [1e-100, 0.5]
        monkeypatch.setattr(oracle, "MAX_TERMS", 100)
        with pytest.raises(AccuracyUnreachable, match=r"s = \(1e-100\+0\.5j\) within 100 terms"):
            oracle.eta_many(sigmas, [10.0] * 600 + [0.5, 150.0], 1e-13)
        with pytest.raises(AccuracyUnreachable, match=r"s = \(0\.5\+150j\) within 100 terms"):
            oracle.eta_many(sigmas[::-1], [150.0, 0.5] + [10.0] * 600, 1e-13)
        monkeypatch.setattr(oracle, "MAX_TERMS", 197)
        values, _ = oracle.eta_many(sigmas, [10.0] * 600 + [0.5, 150.0], 1e-13)
        assert values.shape == (602,)

    @pytest.mark.parametrize("target", [math.inf, math.nan, -math.inf])
    def test_non_finite_target(self, target):
        with pytest.raises(ValueError, match="target_error must be finite"):
            oracle.eta_many([0.5], [10.0], target)
        with pytest.raises(ValueError, match="target_error must be finite"):
            eta(0.5 + 10.0j, target)

    def test_first_bad_point_in_input_order(self):
        with pytest.raises(ValueError, match=r"\|Im\(s\)\| = 250 outside"):
            oracle.eta_many([0.5, 0.5, -1.0], [1.0, 250.0, 1.0])
        with pytest.raises(ValueError, match=r"Re\(s\) > 0, got -1.0"):
            oracle.eta_many([0.5, -1.0, 0.5], [1.0, 1.0, 250.0])
        with pytest.raises(ValueError, match=r"finite s, got \(0.5\+nanj\)"):
            oracle.eta_many(0.5, [1.0, 2.0, math.nan])
        # as for one point, the target is checked after the first point's
        # finiteness and sign, and before any height
        with pytest.raises(ValueError, match="target_error must be >= 1e-13"):
            oracle.eta_many(0.5, [1.0, 250.0], 1e-14)
        with pytest.raises(ValueError, match="target_error must be >= 1e-13"):
            oracle.eta_many([0.5, -1.0], 1.0, 1e-14)
        with pytest.raises(ValueError, match=r"finite s, got \(nan\+1j\)"):
            oracle.eta_many([math.nan, 0.5], 1.0, 1e-14)


def _per_point_oracle(monkeypatch):
    """Route every oracle call of the scans through the per-point loop."""
    monkeypatch.setattr(oracle, "eta_many", _ref_eta_many)


class TestScansMatchPerPointOracle:
    def test_scan_conjecture(self, monkeypatch):
        grid = scans.ScanGrid(0.0, 0.45, 0.15, 14.0, 19.0, 0.5)
        batched = scans.scan_conjecture(grid, 1e-9)
        _per_point_oracle(monkeypatch)
        assert scans.scan_conjecture(grid, 1e-9) == batched
        assert len(batched.records) + len(batched.skipped) == 44

    def test_extrema_structure(self, monkeypatch):
        batched = scans.extrema_structure(0.2, 40.0, 43.0, 0.01, 1e-9)
        _per_point_oracle(monkeypatch)
        assert scans.extrema_structure(0.2, 40.0, 43.0, 0.01, 1e-9) == batched
        assert batched.minima or batched.maxima

    def test_extrema_at_alpha_zero_evaluates_nothing(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the oracle was called")

        monkeypatch.setattr(oracle, "eta_many", refuse)
        report = scans.extrema_structure(0.0, 10.0, 60.0, 0.01)
        assert report.minima == [] and report.maxima == []
        with pytest.raises(ValueError, match="outside the supported range"):
            scans.extrema_structure(0.0, 195.0, 201.0, 0.01)
