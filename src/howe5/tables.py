"""Bundled parameter tables, one per search target.

Table 1 holds rows attaining the Serre bound over F_p, table 2 rows whose
curves are maximal over F_{p^2}, table 3 rows attaining the bound over
F_{p^3}: table n the target TABLE_TARGETS[n].  Rows use the column layout
EXPECTED_HEADER, p, alpha1, alpha2, a1..a6, b5, b6, which search hit files
are written in too.
"""

from __future__ import annotations

from importlib import resources

from .errors import CapExceeded
from .hasse_serre import Target
from .howe_factory import HoweParams

TABLE_FILES = {1: "table1.csv", 2: "table2.csv", 3: "table3.csv"}
TABLE_TARGETS = {1: Target.SERRE_FP, 2: Target.MAXIMAL_FP2, 3: Target.SERRE_FP3}

EXPECTED_HEADER = ["p", "alpha1", "alpha2", "a1", "a2", "a3", "a4", "a5", "a6", "b5", "b6"]


def parse_rows(text: str, source: str = "<data>") -> list[HoweParams]:
    """Parse a parameter CSV; errors, a prime past the cap among them, are
    ValueErrors that name the offending line."""
    rows: list[HoweParams] = []
    lines = text.splitlines()
    if not lines:
        raise ValueError(f"{source}: empty table")
    header = [h.strip() for h in lines[0].split(",")]
    if header != EXPECTED_HEADER:
        raise ValueError(f"{source}:1: bad header {header!r}")
    for ln, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        try:
            rows.append(HoweParams.from_row(parts))
        except (ValueError, TypeError, CapExceeded) as exc:
            raise ValueError(f"{source}:{ln}: {exc}") from exc
    return rows


def load_table(n: int) -> list[HoweParams]:
    if n not in TABLE_FILES:
        raise ValueError(f"no bundled table {n}")
    text = resources.files("howe5.data").joinpath(TABLE_FILES[n]).read_text()
    return parse_rows(text, source=f"table{n}.csv")
