"""Disk nesting, sandwich indices and remainder bounds."""

import math

import numpy as np
import pytest

from etalab import orbit
from etalab import (
    AngleTooLarge,
    WindowExhausted,
    angle_threshold,
    containment_start,
    eta,
    nesting_margin,
    nesting_start,
    orbit_diagnostics,
    partial_sum_path,
    sandwich_report,
    shrunk_gap_record,
    turn_angle,
)

S_PAPER = 0.50567 + 37.58631j  # transition point featured in the margin trace


class TestAngleThreshold:
    @pytest.mark.parametrize("t,expected", [(1.0, 1), (20.0, 13), (37.58631, 24), (0.0, 1)])
    def test_values(self, t, expected):
        assert angle_threshold(t) == expected

    @pytest.mark.parametrize("t", [5e-324, 1e-300, 1e-3, 0.002, 0.0022, 0.0023, 0.5, 1.0])
    def test_one_for_small_t(self, t):
        # e^(pi/2t) - 1 overflows a double for t below about 0.0022
        assert angle_threshold(t) == 1

    def test_closed_form_beyond_one(self):
        for t in (1.0000001, 1.5, 2.26, 2.27, 3.0, 20.0, 199.9):
            assert angle_threshold(t) == max(1, math.ceil(1.0 / math.expm1(math.pi / (2.0 * t))))

    def test_nondecreasing_in_t(self):
        ts = np.linspace(0.0, 200.0, 800)
        vals = [angle_threshold(float(t)) for t in ts]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_turn_angle_acute_beyond_threshold(self):
        for t in (1.0, 14.0, 37.58631, 120.0):
            start = angle_threshold(t)
            for n in (start, start + 1, start + 10, 10 * start + 7):
                assert turn_angle(n, t) < math.pi / 2.0


def _disks(n: int, s: complex) -> tuple[float, ...]:
    """(r2, r0 - r2, gx, gy): radius of the disk on segment n+2, the radius gap
    and the centre gap of the disks on segments n and n+2, from the kernel."""
    g = orbit._geometry(np.array([float(n)]), s.real, s.imag, lengths=True)
    return tuple(float(v[0]) / float(g.p1[0]) for v in (g.r2, g.rgap, g.gx, g.gy))


class TestDiskPair:
    def test_radii_ordering(self):
        r2, rgap, _, _ = _disks(1200, 0.5 + 20.0j)
        assert r2 + rgap > r2 > 0.0

    def test_degenerate_t_zero_center(self):
        n, sigma = 25, 0.7
        r2, rgap, gx, gy = _disks(n, complex(sigma, 0.0))
        center_n2 = complex(r2 + rgap + gx, gy)
        want = 1.0 / (n + 1.0) ** sigma - 0.5 / (n + 2.0) ** sigma
        assert abs(center_n2 - want) < 1e-16
        assert center_n2.imag == 0.0

    def test_rejects_below_threshold(self):
        with pytest.raises(AngleTooLarge):
            shrunk_gap_record(5, 0.5 + 37.58631j)

    def test_sign_equivalence_with_margin(self):
        # the margin numerator and the coordinate route must agree in sign
        import random

        rng = random.Random(4)
        for _ in range(300):
            sigma = rng.uniform(0.05, 0.95)
            t = rng.uniform(0.0, 60.0)
            n = rng.randint(angle_threshold(t), angle_threshold(t) + 5000)
            s = complex(sigma, t)
            _, rgap, gx, gy = _disks(n, s)
            gap = rgap**2 - (gx * gx + gy * gy)
            if abs(gap) > 1e-18:  # below that both routes sit in rounding noise
                assert np.sign(nesting_margin(n, s)) == np.sign(gap)


class TestNestingMargin:
    def test_transition_at_the_paper_point(self):
        assert nesting_margin(1397, S_PAPER) < 0.0
        assert nesting_margin(1398, S_PAPER) > 0.0

    def test_no_positive_value_before_transition(self):
        ns = np.arange(24, 1398)
        assert np.all(nesting_margin(ns, S_PAPER) <= 0.0)

    def test_stable_positive_after_transition(self):
        ns = np.arange(1398, 2399)
        assert np.all(nesting_margin(ns, S_PAPER) > 0.0)

    def test_t_zero_closed_form(self):
        n, sigma = 37, 0.42
        closed = ((n + 1.0) ** sigma - n**sigma) * ((n + 2.0) ** sigma - (n + 1.0) ** sigma)
        assert abs(nesting_margin(n, complex(sigma, 0.0)) - closed) < 1e-15
        assert np.all(nesting_margin(np.arange(1, 5000), complex(sigma, 0.0)) > 0.0)


class TestNestingStart:
    def test_paper_point(self):
        assert nesting_start(S_PAPER) == 1397

    def test_degenerate_t_zero(self):
        assert nesting_start(1.0 + 0.0j) == 0
        assert nesting_start(0.5 + 0.0j) == 0

    def test_frozen_moderate_point(self):
        start = nesting_start(0.5 + 20.0j)
        assert start == 400
        assert start >= angle_threshold(20.0)
        window = np.arange(start + 1, start + 1001)
        assert np.all(nesting_margin(window, 0.5 + 20.0j) > 0.0)

    def test_window_exhausted(self, monkeypatch):
        monkeypatch.setattr(orbit, "DEFAULT_CEILING", 500)
        with pytest.raises(WindowExhausted, match="found below ceiling 500"):
            nesting_start(S_PAPER, window=1000)

    def test_window_validated_by_every_scan(self):
        for window in (0, -5):
            with pytest.raises(ValueError, match="window"):
                nesting_start(S_PAPER, window=window)
            with pytest.raises(ValueError, match="window"):
                containment_start(S_PAPER, 0.5, window=window)
            with pytest.raises(ValueError, match="window"):
                orbit_diagnostics(S_PAPER, 0.5, window=window)


class TestContainment:
    """Disks shrunk by a scale nest where their exact gap is positive."""

    def test_paper_figure_example(self):
        assert shrunk_gap_record(1200, 0.5 + 20.0j, 1.0).exact > 0.0
        assert shrunk_gap_record(1200, 0.5 + 20.0j, 0.5).exact > 0.0

    def test_small_scale_fails_at_moderate_n(self):
        assert not shrunk_gap_record(1200, 0.5 + 20.0j, 1e-6).exact > 0.0

    def test_nested_chain(self):
        ns = 1200 + 2 * np.arange(100)
        assert np.all(shrunk_gap_record(ns, 0.5 + 20.0j, 1.0).exact > 0.0)

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            containment_start(0.5 + 20.0j, 0.0)

    def test_containment_start_frozen(self):
        assert containment_start(0.5 + 20.0j, 0.5) == 801

    def test_shrinking_scale_starts_later(self):
        # t = 0, sigma = 1: scale eps starts near 1/eps - 1
        for scale, expect in ((0.25, 3), (0.1, 8)):
            got = containment_start(1.0 + 0.0j, scale)
            assert abs(got - expect) <= 1


class TestOrbitDiagnostics:
    def test_paper_point(self):
        diag = orbit_diagnostics(S_PAPER, 0.5)
        assert diag.acute_start == 24
        assert diag.nesting_start == 1397
        assert diag.sandwich_start == max(diag.nesting_start, diag.containment_start)
        assert diag.sandwich_start >= 1397
        assert diag.margin_flips == 0

    def test_degenerate_real_series(self):
        diag = orbit_diagnostics(1.0 + 0.0j, 0.5)
        assert diag.sandwich_start <= 10

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            orbit_diagnostics(0.5 + 20.0j, 1.5)

    @pytest.mark.filterwarnings("error")
    def test_overflowed_geometry_fails_without_a_warning(self):
        # at sigma = 800 the disk geometry of the first indices overflows
        diag = orbit_diagnostics(800.0 + 20.0j)
        assert diag.acute_start < diag.containment_start == diag.sandwich_start


class TestSandwich:
    def test_bounds_columns_are_closed_forms(self):
        report = sandwich_report(0.5 + 20.0j, 0.5, 802, 900)
        for rec in report:
            assert abs(rec.upper - rec.n ** -0.5) <= 5e-16 * rec.upper
            assert abs(rec.lower - 0.25 * rec.n ** -0.5) <= 5e-16 * rec.lower
            assert rec.lower < rec.upper

    def test_all_records_hold_at_moderate_point(self):
        report = sandwich_report(0.5 + 20.0j, 0.5, 802, 2000)
        assert len(report) == 1199
        assert all(rec.holds for rec in report)

    def test_measured_is_oracle_remainder(self):
        report = sandwich_report(0.5 + 20.0j, 0.5, 802, 810)
        path = partial_sum_path(0.5 + 20.0j, 810)
        reference = eta(0.5 + 20.0j).value
        for rec in report:
            assert abs(rec.measured - abs(reference - path[rec.n - 1])) < 1e-15

    def test_window_is_the_whole_path_tail(self):
        # the window is streamed from the kernel with the whole path's bits
        s = 0.3 + 80.0j
        diag = orbit_diagnostics(s, 0.5)
        n_from = diag.sandwich_start + 65000  # the window straddles a kernel block
        report = sandwich_report(s, 0.5, n_from, n_from + 1000, diagnostics=diag)
        reference = eta(s).value
        path = partial_sum_path(s, n_from + 1000)
        assert [rec.n for rec in report] == list(range(n_from, n_from + 1001))
        assert [rec.measured for rec in report] == np.abs(reference - path[n_from - 1 :]).tolist()

    def test_rejects_early_start(self):
        with pytest.raises(ValueError):
            sandwich_report(0.5 + 20.0j, 0.5, 100, 200)


class TestAsymptoticPositivity:
    @pytest.mark.parametrize("s", [0.5 + 20.0j, 0.3 + 100.0j])
    def test_margin_positive_far_beyond_the_start(self, s):
        start = nesting_start(s)
        ns = np.arange(start + 1, start + 10**5 + 1)
        assert np.all(nesting_margin(ns, s) > 0.0)


# Points where a margin written as a difference of size-n^(2 sigma) terms
# loses its sign; the starts are frozen from a 50-digit bisection
# (bench/reference.py), which sees one sign change and so no flips.
SIGN_POINTS = [
    (0.1 + 190.0j, 180502, 361005),
    (0.171 + 108.9346j, 34699, 69399),
    (0.6020115711650357 + 81.24232445090468j, 5481, 10965),
    (0.26275044333307285 + 132.40653283233473j, 33362, 66725),
]


class TestCancellationFreeMargin:
    @pytest.mark.parametrize("s,nesting,containment", SIGN_POINTS)
    def test_starts_match_the_reference(self, s, nesting, containment):
        assert nesting_start(s) == nesting
        assert containment_start(s, 0.5) == containment
        diag = orbit_diagnostics(s, 0.5)
        assert (diag.nesting_start, diag.containment_start) == (nesting, containment)
        assert diag.margin_flips == 0

    @pytest.mark.parametrize("s,nesting,_", SIGN_POINTS)
    def test_sign_change_at_the_start(self, s, nesting, _):
        assert nesting_margin(nesting, s) <= 0.0 < nesting_margin(nesting + 1, s)

    def test_margin_is_p1_squared_bracket(self):
        s = 0.404 + 147.0j
        ns = np.arange(26740, 26750)
        g = orbit._geometry(ns.astype(float), s.real, s.imag, disks=False, lengths=True)
        assert np.array_equal(nesting_margin(ns, s), g.bracket * g.p1**2)


class TestViewsOfTheKernel:
    S = 0.404 + 147.0j
    NS = np.arange(53490, 53500)

    def _kernel(self):
        return orbit._geometry(self.NS.astype(float), self.S.real, self.S.imag, lengths=True)

    def test_disks_nested_reads_the_kernel(self):
        # the sign of the shrunk-disk gap is the kernel's nesting predicate
        g = self._kernel()
        for scale in (1.0, 0.5, 1e-3):
            want = np.hypot(g.gx, g.gy) < scale * g.rgap
            assert (shrunk_gap_record(self.NS, self.S, scale).exact > 0.0).tolist() == want.tolist()

    def test_radii_match_their_closed_forms(self):
        g, sigma = self._kernel(), self.S.real
        r_n, r_n2 = 0.5 * self.NS ** -sigma, 0.5 * (self.NS + 2.0) ** -sigma
        assert np.allclose(g.r2 / g.p1, r_n2, rtol=1e-14, atol=0.0)
        # r_n - r_n2 cancels to 1/n of its terms, so the closed form is the looser side
        assert np.allclose(g.rgap / g.p1, r_n - r_n2, rtol=1e-9, atol=0.0)

    def test_turn_angles_read_the_kernel(self):
        # the kernel's turn angles at n are those of segments n+1 and n+2
        g = orbit._geometry(np.array([1200.0]), 0.0, 20.0, bracket=False, disks=False)
        assert (g.d1[0], g.d2[0]) == (turn_angle(1200, 20.0), turn_angle(1201, 20.0))


class TestInvalidPoints:
    @pytest.mark.parametrize("s", [complex(math.nan, 20.0), 0.0 + 20.0j, -0.2 + 20.0j,
                                   complex(0.5, math.inf), complex(0.5, math.nan), 0.5 + 500.0j])
    def test_rejected_before_any_sweep(self, s, monkeypatch):
        def sweep(*args, **kwargs):
            raise AssertionError("swept an invalid point")

        monkeypatch.setattr(orbit, "_geometry", sweep)
        for call in (lambda: nesting_start(s), lambda: containment_start(s, 0.5),
                     lambda: orbit_diagnostics(s, 0.5), lambda: nesting_margin(1000, s)):
            with pytest.raises(ValueError):
                call()


def _run_reference(good, lo, window):
    """Index-by-index sweep: (last failure before the first run, flips up to it)."""
    last_bad, flips, prev = lo - 1, 0, False
    for i, passed in enumerate(good):
        if not passed:
            last_bad, flips = lo + i, flips + prev
        elif lo + i - last_bad >= window:
            return last_bad, flips
        prev = passed
    return None


def _sweep(good, lo, window, block):
    """Feed good to orbit._run_end in blocks; None when no run completes."""
    state = (lo - 1, 0)
    for start in range(0, len(good), block):
        last_bad, flips, done = orbit._run_end(np.array(good[start : start + block]), lo + start, window, *state)
        state = (last_bad, flips)
        if done:
            return state
    return None


class TestRunEnd:
    T, F = True, False

    def test_run_spanning_a_block_boundary(self):
        good = [self.F, self.F, self.T, self.T, self.T, self.T, self.T, self.F]
        assert orbit._run_end(np.array(good[:5]), 10, 5, 9, 0) == (11, 0, False)
        assert orbit._run_end(np.array(good[5:]), 15, 5, 11, 0) == (11, 0, True)

    def test_run_carried_in_completes_at_the_first_index(self):
        # 12, 13, 14 passed in earlier blocks; 15 completes a run of 4
        assert orbit._run_end(np.array([self.T, self.F, self.F]), 15, 4, 11, 2) == (11, 2, True)

    def test_failure_after_a_completed_run_is_ignored(self):
        good = np.array([self.F, self.T, self.T, self.T, self.F, self.T, self.F])
        assert orbit._run_end(good, 100, 3, 99, 0) == (100, 0, True)

    def test_flips_count_up_to_the_result(self):
        good = np.array([self.T, self.F, self.T, self.F, self.F, self.T, self.T, self.T, self.F])
        assert orbit._run_end(good, 1, 3, 0, 0) == (5, 2, True)
        assert orbit._run_end(good[:5], 1, 3, 0, 0) == (5, 2, False)

    def test_window_one(self):
        assert orbit._run_end(np.array([self.T]), 50, 1, 49, 0) == (49, 0, True)
        assert orbit._run_end(np.array([self.F, self.F, self.T]), 50, 1, 49, 0) == (51, 0, True)
        assert orbit._run_end(np.array([self.F]), 50, 1, 49, 0) == (50, 0, False)

    def test_blocks_match_the_index_by_index_reference(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            good = (rng.random(int(rng.integers(1, 80))) < rng.uniform(0.3, 0.95)).tolist()
            window = int(rng.integers(1, 6))
            want = _run_reference(good, 17, window)
            for block in (1, 2, 3, 7, 64):
                assert _sweep(good, 17, window, block) == want


class TestSweepBlocks:
    # sandwich starts up to 10965, and two near 69000 swept from 64-index
    # blocks up; 0.1+190i is left out, as 7-index blocks take about 5 s there
    NEAR = [S_PAPER, 0.5 + 20.0j, SIGN_POINTS[2][0]]
    FAR = [SIGN_POINTS[1][0], SIGN_POINTS[3][0]]

    @pytest.mark.parametrize("block", [7, 64, 4096, 65536])
    def test_diagnostics_do_not_depend_on_the_block(self, block, monkeypatch):
        points = self.NEAR + (self.FAR if block >= 64 else [])
        configs = [(s, eps, window) for s in points for eps, window in ((0.5, 1000), (0.9, 7))]
        want = [orbit_diagnostics(s, eps, window=window) for s, eps, window in configs]
        monkeypatch.setattr(orbit, "_SCAN_BLOCK", block)
        assert [orbit_diagnostics(s, eps, window=window) for s, eps, window in configs] == want

    def test_sweep_stops_within_a_block_of_the_run(self, monkeypatch):
        evaluated = []
        kernel = orbit._geometry

        def counting(n, *args, **kwargs):
            evaluated.append(len(n))
            return kernel(n, *args, **kwargs)

        monkeypatch.setattr(orbit, "_geometry", counting)
        diag = orbit_diagnostics(0.5 + 20.0j, 0.5)
        assert diag.sandwich_start == 801
        # at most one 4096-index block beyond the completed run
        assert sum(evaluated) <= diag.sandwich_start + diag.verified_window + 4096
