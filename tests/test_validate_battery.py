"""A pinned battery of validations: violations, diagnostics and splits must
not move.

For a few thousand parameter sets, valid and invalid, at the primes PRIMES,
and for every bundled table row, data/validate_battery.json stores what
validate returns: each violation's code and detail, the square-class
diagnostics in info, and the split (the cross-ratios a, b, c, the pair
twists beta1, beta2 and each factor's theta and lambda).  The inputs are
drawn from a fixed seed by this file alone and stored beside their results.
A change to validate that keeps its output keeps this test passing; one that
moves a violation, a diagnostic or a factor fails it, naming the first input
that differs.  Run this file as a script to record the battery again:

    PYTHONPATH=src python tests/test_validate_battery.py
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from howe5 import tables
from howe5.howe_factory import HoweParams, validate

DATA = Path(__file__).parent / "data" / "validate_battery.json"

PRIMES = (5, 7, 11, 13, 23, 31, 47, 101, 499, 1187)
DRAWS = {"free": 60, "distinct": 60, "solved": 240, "a-solved": 60}
INFO_KEYS = ["chi_a_ab", "chi_a_ac", "product_a4_a5", "chi_product_a4_a5",
             "product_a4_b5", "chi_product_a4_b5"]


def _frame_solved(p: int, rng: random.Random, solve_b6: bool) -> list[int] | None:
    """Six distinct roots a1..a5, b5 and a6 solved so that cr(a1, a2, a3, a6)
    = a(1 - b)/(1 - a), the a-tuple condition; b6 likewise from c when
    solve_b6, else drawn at random.  None where the frame sends a6 or b6 to
    infinity or a cross-ratio is 1."""
    if p < 6:
        return None
    a1, a2, a3, a4, a5, b5 = rng.sample(range(p), 6)
    k = (a1 - a3) * pow(a2 - a3, -1, p) % p
    a, b, c = (k * (a2 - x) * pow(a1 - x, -1, p) % p for x in (a4, a5, b5))
    if a == 1:
        return None
    frame = a * pow(1 - a, -1, p) % p
    solved = []
    for y in (frame * (1 - b) % p, frame * (1 - c) % p):
        if y == k:
            return None
        solved.append((k * a2 - y * a1) * pow(k - y, -1, p) % p)
    b6 = solved[1] if solve_b6 else rng.randrange(p)
    return [a1, a2, a3, a4, a5, solved[0], b5, b6]


def battery_inputs() -> list[list[int]]:
    """Rows (p, alpha1, alpha2, a1..a6, b5, b6): at each prime, DRAWS[kind]
    draws of each kind (free roots and twists, zero allowed; eight distinct
    roots; both conditions solved; the a-tuple condition alone), then the
    bundled table rows."""
    rows = []
    rng = random.Random(20241)
    for p in PRIMES:
        for kind, draws in DRAWS.items():
            for _ in range(draws):
                alphas = [rng.randrange(p), rng.randrange(p)]
                if kind == "free":
                    roots = [rng.randrange(p) for _ in range(8)]
                elif kind == "distinct":
                    roots = rng.sample(range(p), 8) if p >= 8 else None
                else:
                    roots = _frame_solved(p, rng, kind == "solved")
                    alphas = [rng.randrange(1, p), rng.randrange(1, p)]
                if roots is not None:
                    rows.append([p, *alphas, *roots])
    for t in sorted(tables.TABLE_FILES):
        rows += [list(params.row()) for params in tables.load_table(t)]
    return rows


def outcome(row: list[int]) -> list:
    """[violations as [code, detail], info values in INFO_KEYS order, split
    as [a, b, c, beta1, beta2, [[theta, lambda] per factor]] or None]."""
    res = validate(HoweParams.from_row(row))
    assert list(res.info) in ([], INFO_KEYS)
    split = res.split
    if split is not None:
        split = [split.a, split.b, split.c, split.beta1, split.beta2,
                 [[E.theta, E.lam] for E in split.curves]]
    return [[[v.code, v.detail] for v in res.violations], list(res.info.values()), split]


def test_battery_matches_the_recording():
    recorded = json.loads(DATA.read_text())
    rows = battery_inputs()
    assert [row for row, _ in recorded] == rows
    for row, want in recorded:
        assert outcome(row) == want, f"validate{tuple(row)} differs"


def test_battery_covers_every_outcome():
    recorded = json.loads(DATA.read_text())
    codes = {code for _, (violations, _, _) in recorded for code, _ in violations}
    assert codes == {"Degenerate", "CrossRatioFailed", "NonSquareObstruction"}
    assert sum(split is not None for _, (_, _, split) in recorded) >= 300


if __name__ == "__main__":
    lines = [json.dumps([row, outcome(row)], separators=(",", ":")) for row in battery_inputs()]
    DATA.write_text("[\n" + ",\n".join(lines) + "\n]\n")
