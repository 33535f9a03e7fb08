"""Metric arithmetic that does not depend on etalab's internals."""

import math

import pytest

import layers
import run
import workloads
from etalab import scans


def test_workload_rates_divide_work_by_the_time_of_the_jobs_that_feed_them():
    jobs = [
        workloads.Job("orbit", [], meta={"rate": "orbit_points_per_s", "work": 1}),
        workloads.Job("orbit", [], meta={"rate": "orbit_points_per_s", "work": 1}),
        workloads.Job("sandwich", [], meta={"rate": "sandwich_rows_per_s", "work": 5000}),
        workloads.Job("verify-zeros", []),
    ]
    rates = run.workload_rates(jobs, [0.5, 1.5, 2.0, 9.0])
    assert rates["orbit_points_per_s"] == (1.0, "points/s")
    assert rates["sandwich_rows_per_s"] == (2500.0, "rows/s")
    assert rates["grid_points_per_s"] == (0.0, "points/s")
    assert set(rates) == set(workloads.RATES)


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_extrema_samples_count_the_scan_axis(seed):
    job = next(j for j in workloads.strip_scan(seed).jobs if j.kind == "extrema")
    alpha, t_from, t_to = (job.meta[k] for k in ("alpha", "t_from", "t_to"))
    axis = len(scans._axis(t_from, t_to, 0.01))
    assert layers._extrema_samples((alpha, t_from, t_to, 0.01, 1e-9), {}, None) == axis
    assert layers._extrema_samples((alpha,), {"t_from": t_from, "t_to": t_to}, None) == axis
    assert job.meta["work"] == axis


def test_setup_metrics_scale_the_import_by_numpy_timed_beside_it():
    probes = [{"cli": 0.2, "numpy": 0.1}, {"cli": 0.3, "numpy": 0.2}, {"cli": 0.4, "numpy": 0.1}]
    setup = run.setup_metrics(probes)
    assert math.isclose(setup["setup_s"][0], 2.0 * run.NUMPY_IMPORT_NOMINAL_S)
    assert math.isclose(setup["numpy.import_s"][0], 0.1)
    assert math.isclose(setup["cli.import_s"][0], 0.3 - 0.1)
