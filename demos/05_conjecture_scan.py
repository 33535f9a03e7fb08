# Scanning the conjectured envelope of the eta-ratio modulus.
#
# For t >= 2 pi + 1 the ratio |eta(1/2+a+it)/eta(1/2-a+it)| appears to
# stay between (1-2a)/(1+2a) (8 pi/9t)^a and (8 pi/9t)^a.  The scan
# below checks a small grid; the full tested region (t up to 120, step
# 0.25) runs in about a second and is exercised by the test suite.

import math

from etalab import ScanGrid, extrema_structure, scan_conjecture

grid = ScanGrid(
    alpha_from=0.0, alpha_to=0.45, alpha_step=0.05,
    t_from=2.0 * math.pi + 1.0, t_to=30.0, t_step=0.25,
)
result = scan_conjecture(grid)
print("grid points :", len(result.records))
print("violations  :", len(result.violations))
print("skipped     :", len(result.skipped))

# A slice at fixed t: the ratio narrows between its bounds as alpha grows.
# The records are columns, one list per field.
rec = result.records
t_slice = [i for i, t in enumerate(rec.t) if abs(t - 9.0647) < 0.2][:10]
print("\n alpha    lower    ratio    upper")
for i in t_slice:
    print(f"{rec.alpha[i]:6.2f}  {rec.lower[i]:.5f}  {rec.ratio[i]:.5f}  {rec.upper[i]:.5f}")

# Along t at fixed alpha the ratio is wavy: the deeps line up with even
# multiples of pi/ln 2 (about 4.5324).
report = extrema_structure(0.25, 10.0, 40.0, 0.01)
unit = math.pi / math.log(2.0)
print("\nminima along t (alpha = 0.25):")
for rec in report.minima:
    print(f"  t = {rec.t:7.3f}: nearest even multiple {rec.nearest_multiple} * pi/ln2"
          f" = {rec.nearest_multiple * unit:7.3f}, distance {rec.distance:.3f}")
print("maxima sit between, one of each per window of width", report.window_width)
