"""Grid scans: ratio bounds, alpha monotonicity, t-direction extrema."""

import math

import numpy as np
import pytest

from etalab import (
    ScanGrid,
    extrema_structure,
    functional_ratio_modulus,
    scan_conjecture,
    scan_monotonicity,
)

PI_LN2 = math.pi / math.log(2.0)


class TestScanGrid:
    def test_axis_counts(self):
        grid = ScanGrid(0.0, 0.45, 0.05, 8.0, 12.0, 0.25)
        assert len(grid.alphas()) == 10
        assert len(grid.ts()) == 17
        assert grid.cardinality == 170

    def test_default_grid_matches_tested_region(self):
        grid = ScanGrid()
        assert grid.ts()[0] == 2.0 * math.pi + 1.0
        assert grid.ts()[-1] <= 120.0
        assert len(grid.alphas()) == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            ScanGrid(alpha_from=0.3, alpha_to=0.2)
        with pytest.raises(ValueError):
            ScanGrid(t_from=0.0)
        with pytest.raises(ValueError):
            ScanGrid(t_step=-1.0)

    @pytest.mark.parametrize("kwargs", [
        {"t_step": math.nan}, {"alpha_step": math.nan}, {"t_step": math.inf},
        {"t_step": 0.0}, {"alpha_step": -0.05}, {"t_to": math.nan},
    ])
    def test_non_finite_or_non_positive_step_rejected(self, kwargs):
        with pytest.raises(ValueError, match="step|t range"):
            ScanGrid(**kwargs)

    def test_point_cap_checked_before_allocation(self):
        # ~1.1e11 t samples: refused up front instead of a MemoryError
        with pytest.raises(ValueError, match="t_step .* more than"):
            ScanGrid(t_step=1e-9)
        # each axis within the cap, the product beyond it
        with pytest.raises(ValueError, match="grid has"):
            ScanGrid(0.0, 0.45, 1e-4, 10.0, 200.0, 0.1)
        assert ScanGrid().cardinality == 4510


class TestConjectureScan:
    def test_small_grid_passes(self):
        grid = ScanGrid(0.0, 0.2, 0.1, 8.0, 12.0, 0.5)
        result = scan_conjecture(grid)
        assert len(result.records) == grid.cardinality
        assert result.violations == []
        assert result.skipped == []
        assert all(0.0 <= ratio <= 1.0 + 1e-12 for ratio in result.records.ratio)

    def test_alpha_zero_rows_are_unity(self):
        grid = ScanGrid(0.0, 0.0, 1.0, 10.0, 11.0, 0.25)
        r = scan_conjecture(grid).records
        assert all(abs(ratio - 1.0) < 1e-12 for ratio in r.ratio)
        assert set(r.lower) == set(r.upper) == {1.0}
        assert all(r.pass_lower) and all(r.pass_upper)

    def test_ratio_equals_functional_modulus(self):
        grid = ScanGrid(0.1, 0.4, 0.15, 9.0, 10.0, 0.5)
        r = scan_conjecture(grid).records
        for alpha, t, ratio in zip(r.alpha, r.t, r.ratio):
            want = functional_ratio_modulus(complex(0.5 - alpha, t))
            assert abs(ratio - want) < 1e-9

    def test_rows_ordered_by_t_then_alpha(self):
        grid = ScanGrid(0.0, 0.2, 0.1, 8.0, 9.0, 0.5)
        r = scan_conjecture(grid).records
        keys = list(zip(r.t, r.alpha))
        assert keys == sorted(keys)

    def test_informational_flag_below_conjectured_range(self):
        assert scan_conjecture(ScanGrid(0.0, 0.0, 1.0, 5.0, 5.5, 0.5)).informational
        assert not scan_conjecture(ScanGrid(0.0, 0.0, 1.0, 8.0, 8.5, 0.5)).informational


class TestMonotonicityScan:
    @pytest.mark.parametrize("t", [2.0 * math.pi + 1.0, 100.0])
    def test_strictly_decreasing(self, t):
        grid = np.arange(0.0, 0.50, 0.01)
        report = scan_monotonicity(t, grid)
        assert report.strictly_decreasing
        assert report.first_violation is None
        assert len(report.values) == len(grid)

    def test_single_point_grid_is_vacuous(self):
        report = scan_monotonicity(40.0, [0.2])
        assert report.strictly_decreasing

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ValueError):
            scan_monotonicity(40.0, [0.2, 0.1])

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_t_rejected(self, t):
        with pytest.raises(ValueError, match="t must be finite"):
            scan_monotonicity(t, [0.1, 0.2])

    @pytest.mark.parametrize("t", [300.0, -300.0, 200.5])
    def test_t_outside_the_supported_range_rejected(self, t):
        with pytest.raises(ValueError, match="outside the supported range"):
            scan_monotonicity(t, [0.1, 0.2])


class TestExtrema:
    def test_alpha_zero_has_no_extrema(self):
        report = extrema_structure(0.0, 10.0, 12.0, 0.01)
        assert report.minima == [] and report.maxima == []

    def test_deeps_sit_at_even_multiples(self):
        report = extrema_structure(0.25, 10.0, 60.0, 0.01)
        assert len(report.minima) in (5, 6)
        for rec in report.minima:
            assert rec.nearest_multiple % 2 == 0
            assert rec.distance < 0.5

    def test_one_max_one_min_per_window(self):
        report = extrema_structure(0.25, 10.0, 60.0, 0.01)
        windows = (60.0 - 10.0) / report.window_width
        assert abs(len(report.minima) - windows) <= 1.0
        assert abs(len(report.maxima) - windows) <= 1.0
        # consecutive minima spaced by one full window
        gaps = [b.t - a.t for a, b in zip(report.minima, report.minima[1:])]
        for gap in gaps:
            assert abs(gap - report.window_width) < 0.5

    def test_step_validation(self):
        with pytest.raises(ValueError):
            extrema_structure(0.25, 10.0, 12.0, 0.1)
        for step in (math.nan, 0.0, -0.01, 1e-9):
            with pytest.raises(ValueError, match="t_step"):
                extrema_structure(0.25, 10.0, 200.0, step)
        with pytest.raises(ValueError, match="t axis"):
            extrema_structure(0.25, 60.0, 10.0, 0.01)

    def test_alpha_validated_before_any_evaluation(self, monkeypatch):
        from etalab import oracle

        def refuse(*args, **kwargs):
            raise AssertionError("the oracle was called")

        monkeypatch.setattr(oracle, "eta_many", refuse)
        for alpha in (-0.2, 0.5, 0.6, math.nan):
            with pytest.raises(ValueError, match=r"alpha must lie in \[0, 1/2\), got"):
                extrema_structure(alpha, 10.0, 12.0, 0.01)
