"""Known critical-line zero ordinates and their verification.

The embedded defaults are limited to the two ordinates whose digits the
package reproduces elsewhere (the first and the sixth nontrivial zero,
to 10 and 8 significant digits).  Anything further is user input, never
a shipped constant.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

from . import oracle

ZERO_MAGNITUDE_TOL = 1e-4


@dataclass(frozen=True)
class ZeroEntry:
    ordinal: int
    t: float


KNOWN_ZEROS: tuple[ZeroEntry, ...] = (
    ZeroEntry(1, 14.13472514),
    ZeroEntry(6, 37.586178),
)


@dataclass(frozen=True)
class ZeroCheck:
    ordinal: int
    t: float
    magnitude: float
    abs_error_bound: float
    zero_indistinguishable: bool
    is_zero_like: bool  # magnitude below the table-precision tolerance


def load_zero_table(path) -> list[ZeroEntry]:
    """Read a zero table from CSV with columns ordinal,t (header optional).

    A data row with other than two fields, or with a field that does not
    parse as its number, is rejected, naming its line.
    """
    entries: list[ZeroEntry] = []
    with open(Path(path), newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row or row[0].strip().lower() in ("", "ordinal"):
                continue
            if len(row) != 2:
                raise ValueError(f"zero table line {reader.line_num}: expected 2 fields ordinal,t, got {len(row)}")
            try:
                entries.append(ZeroEntry(int(row[0]), float(row[1])))
            except ValueError as exc:
                raise ValueError(f"zero table line {reader.line_num}: {exc}") from None
    if any(b.t <= a.t for a, b in zip(entries, entries[1:])):
        raise ValueError("zero table ordinates must be strictly increasing")
    return entries


def verify_zeros(
    entries=None, target_error: float = oracle.TARGET_FLOOR
) -> list[ZeroCheck]:
    """|eta(1/2 + it)| for each table entry, flagged against the tolerance."""
    entries = KNOWN_ZEROS if entries is None else list(entries)
    values, bounds = oracle.eta_many(0.5, [entry.t for entry in entries], target_error)
    return [
        ZeroCheck(e.ordinal, e.t, abs(v.value), v.abs_error_bound, v.zero_indistinguishable,
                  abs(v.value) < ZERO_MAGNITUDE_TOL)
        for e, v in zip(entries, map(oracle.OracleValue, values.tolist(), bounds.tolist()))
    ]
