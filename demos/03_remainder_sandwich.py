# The disk-nesting construction and the remainder sandwich.
#
# Build a disk on every second segment with the segment as diameter.
# One scalar expression (the nesting margin) decides when disk n+2 sits
# strictly inside disk n; from then on the limit point is trapped and
# (1-eps)/(2 n^sigma) < |R_n| < n^(-sigma) for every later n.

import numpy as np

from etalab import (
    nesting_gap_record,
    nesting_margin,
    orbit_diagnostics,
    sandwich_report,
    shrunk_gap_record,
)

s = 0.50567 + 37.58631j

# The margin crosses zero exactly once for this point, at n = 1398.
ns = np.arange(1394, 1402)
for n, value in zip(ns, nesting_margin(ns, s)):
    marker = "<-- first positive" if n == 1398 else ""
    print(f"margin({n}) = {value:+.3e} {marker}")

# All the certified indices in one record.
diag = orbit_diagnostics(s, epsilon=0.5)
print("\nacute turns from   :", diag.acute_start)
print("nesting stable from:", diag.nesting_start + 1)
print("eps-disks nest from:", diag.containment_start + 1)
print("sandwich holds from:", diag.sandwich_start + 1)

# Spot-check the sandwich just beyond the certified index; the report is
# one array per column.
report = sandwich_report(s, 0.5, diag.sandwich_start + 1, diag.sandwich_start + 2000,
                         diagnostics=diag)
violations = np.count_nonzero(~report.holds)
print(f"\nsandwich rows checked: {len(report)}, violations: {violations}")
print(f"first row: {report.lower[0]:.5f} < {report.measured[0]:.5f} < {report.upper[0]:.5f}")

# The exact disk gap approaches its leading-order form as n grows; a
# drifting ratio would flag a transcription slip in the geometry.  The
# records take an index array as well as a single index.
ladder = np.array([10**4, 10**5, 10**6])
for n, ratio in zip(ladder, nesting_gap_record(ladder, 0.5 + 20.0j).ratio):
    print(f"n = {n:7d}: exact/leading = {ratio:.5f}")
half = shrunk_gap_record(10**6, 0.5 + 20.0j, 0.5)
quarter = shrunk_gap_record(10**6, 0.5 + 20.0j, 0.25)
print("shrunk-disk gaps scale with the square of the shrink factor:",
      half.exact / quarter.exact)
