"""Workload definitions: the inputs each workload runs, made from its seed.

scan    serre-fp search over p in [173, 191] with a probe cap.  About 140
        candidates, all at p = 181, pass every filter of the kernel; none of
        them is a hit, so the time is the ``_scan_chunk`` probe loop and
        confirmation and counting are bypassed.
hunt    maximal-fp2 search over p in [3, 48] with probe and hit caps.
        Confirmation and point counting dominate; it exposes confirms whose
        hits are later cut by the per-prime hit cap.  The range stops short
        of the usual [3, 60] so that no prime takes much over half a second
        and each gets many timed runs in one benchmark run.
report  ``howe5 verify-tables`` over all three tables, then a JSON
        decomposition report for every bundled row.  Few counts over large
        fields; ``search_engine`` is not used at all.

On scan and hunt the search seed is the workload seed modulo SEARCH_SEEDS:
the correctness gate compares each scan's filter counts with the ones
recorded for its search seed, and reference.json holds them for every search
seed.  The report rows are the bundled tables, so its seed only permutes the
order the rows are reported in.
"""

from __future__ import annotations

import random

NAMES = ("scan", "hunt", "report")
SEARCH_SEEDS = 128

# Sizes for the full benchmark and for the self-check.
_SIZES = {
    "full": {
        "scan": {"target": "serre-fp", "p_min": 173, "p_max": 191, "max_candidates": 300_000},
        "hunt": {"target": "maximal-fp2", "p_min": 3, "p_max": 48,
                 "max_candidates": 100_000, "max_hits": 3},
        "report": {"verify_tables": [1, 2, 3], "p_max": None},
    },
    "tiny": {
        "scan": {"target": "serre-fp", "p_min": 179, "p_max": 181, "max_candidates": 20_000},
        "hunt": {"target": "maximal-fp2", "p_min": 3, "p_max": 23,
                 "max_candidates": 20_000, "max_hits": 2},
        "report": {"verify_tables": [2], "p_max": 50},
    },
}

# The calibration kernel (calibrate.KERNELS) that matches each workload's
# dominant code: the search loops are interpreter-bound, the report's point
# counts array-bound.
KERNEL = {"scan": "python", "hunt": "python", "report": "numpy"}

# Cubic-extension counts are reported only where F_{p^3} is this small.
REPORT_FP3_LIMIT = 100_000


def report_exts(p: int) -> tuple[int, ...]:
    return (1, 2, 3) if p ** 3 <= REPORT_FP3_LIMIT else (1, 2)


def config(workload: str, seed: int, size: str = "full") -> dict:
    """The workload's inputs: search settings for scan and hunt; for report,
    the tables ``verify-tables`` checks and the largest prime of a reported row
    (None for all), with the row order drawn by report_order.  Also the
    calibration kernel that scales the workload's times."""
    cfg = dict(_SIZES[size][workload])
    cfg["size"] = size
    cfg["seed"] = seed if workload == "report" else seed % SEARCH_SEEDS
    cfg["kernel"] = KERNEL[workload]
    return cfg


def report_order(rows: dict[int, list[int]], cfg: dict) -> list[tuple[int, int]]:
    """(table, index) pairs of the reported rows, given each table's primes,
    in an order drawn from the seed."""
    keys = [
        (t, i)
        for t in sorted(rows)
        for i, p in enumerate(rows[t])
        if cfg["p_max"] is None or p <= cfg["p_max"]
    ]
    random.Random(cfg["seed"]).shuffle(keys)
    return keys
