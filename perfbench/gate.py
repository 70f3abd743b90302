"""Correctness gate, run in the benchmark's own process outside the timed
region.  Each check returns a list of mismatch messages; empty means pass.

scan and hunt: every emitted hit is recounted with the independent counters
in naive.py and must meet its target; no confirmation may fail.  On scan the
probe total must match the budget the caps imply, and the prefix, probe and
tuple totals must equal the ones recorded for the search seed, so a kernel
that wrongly rejects candidates after counting the probe is caught.  On hunt
every prime that yielded a hit at the reference commit must yield one again,
and no prime may yield more hits than the cap.  report: ``verify-tables``
must pass, exactly the reference rows within the size's prime limit must be
reported, every row's counts must equal the reference and every verdict its
table's target.
"""

from __future__ import annotations

import json
import math
import os

import naive

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

TABLE_VERDICT = {1: "serre_fp", 2: "maximal_fp2", 3: "serre_fp3"}


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def primes_in(lo: int, hi: int) -> list[int]:
    return [n for n in range(max(lo, 3), hi + 1)
            if n % 2 and all(n % d for d in range(3, math.isqrt(n) + 1, 2))]


def target_count(target: str, p: int) -> tuple[int, int]:
    """(j, #C(F_{p^j})) a hit for the target must have."""
    if target == "serre-fp":
        return 1, naive.serre_bound(p, 5)
    if target == "maximal-fp2":
        return 2, p * p + 1 + 10 * p
    raise ValueError(f"no naive gate for target {target}")


class Gate:
    """Checks iteration outputs; remembers naive recounts so a hit seen in
    several iterations of one run is recounted once."""

    def __init__(self, workload: str, cfg: dict, reference: dict) -> None:
        self.workload = workload
        self.cfg = cfg
        self.reference = reference
        self._recounts: dict[tuple, dict] = {}

    def check(self, out: dict) -> list[str]:
        if self.workload == "report":
            return self._check_report(out)
        return self._check_search(out)

    def _recount(self, row: tuple) -> dict:
        if row not in self._recounts:
            self._recounts[row] = {str(j): naive.genus5_count(row, j) for j in (1, 2)}
        return self._recounts[row]

    def _check_search(self, out: dict) -> list[str]:
        cfg, stats = self.cfg, out["stats"]
        bad = []
        if stats["confirm_failures"]:
            bad.append(f"{stats['confirm_failures']} confirmation failure(s)")
        if stats["hits"] != len(out["hits"]):
            bad.append(f"stats report {stats['hits']} hits, {len(out['hits'])} emitted")
        per_prime: dict[int, int] = {}
        for row, counts in out["hits"]:
            row = tuple(row)
            p = row[0]
            per_prime[p] = per_prime.get(p, 0) + 1
            j, want = target_count(cfg["target"], p)
            naive_counts = self._recount(row)
            if naive_counts[str(j)] != want:
                bad.append(f"hit {row}: naive #C(F_p^{j}) = {naive_counts[str(j)]}, target {want}")
            for k, n in counts.items():
                if naive_counts.get(k) != n:
                    bad.append(f"hit {row}: reported #C(F_p^{k}) = {n}, "
                               f"naive {naive_counts.get(k)}")
        primes = primes_in(cfg["p_min"], cfg["p_max"])
        if self.workload == "scan":
            # Each prime has one chunk per a1-value, each with quota
            # ceil(max_candidates / p); a chunk that stops on its quota
            # counts the probe it stopped at.
            lo = len(primes) * cfg["max_candidates"]
            hi = sum(p * (-(-cfg["max_candidates"] // p) + 1) for p in primes)
            if not lo <= stats["probes"] <= hi:
                bad.append(f"{stats['probes']} probes, caps imply [{lo}, {hi}]")
            want = self.reference["scan"][cfg["size"]][str(cfg["seed"])]
            for k, n in want.items():
                if stats[k] != n:
                    bad.append(f"{stats[k]} {k}, reference {n} at search seed {cfg['seed']}")
        else:
            for p in self.reference["hunt"][cfg["size"]]["hit_primes"]:
                if cfg["p_min"] <= p <= cfg["p_max"] and p not in per_prime:
                    bad.append(f"no hit at p={p}, which yields hits at the reference commit")
            for p, n in per_prime.items():
                if n > cfg["max_hits"]:
                    bad.append(f"{n} hits at p={p}, cap {cfg['max_hits']}")
        return bad

    def _check_report(self, out: dict) -> list[str]:
        bad = []
        if out["verify_rc"] != 0:
            bad.append(f"verify-tables exited {out['verify_rc']}: {out['verify_last']}")
        ref = {(r["table"], r["index"]): r for r in self.reference["report"]
               if self.cfg["p_max"] is None or r["p"] <= self.cfg["p_max"]}
        got = [(row["table"], row["index"]) for row in out["rows"]]
        for key in sorted(ref.keys() - set(got)):
            bad.append(f"table {key[0]} row {key[1]}: missing from the report")
        for key in sorted(set(got) - ref.keys()):
            bad.append(f"table {key[0]} row {key[1]}: reported, not in the reference")
        if len(got) != len(set(got)):
            bad.append(f"{len(got) - len(set(got))} row(s) reported more than once")
        for row in out["rows"]:
            key = (row["table"], row["index"])
            if key not in ref:
                continue
            want = ref[key]
            if row["p"] != want["p"]:
                bad.append(f"table {key[0]} row {key[1]}: p = {row['p']}, reference {want['p']}")
            for j, counts in want["counts"].items():
                got = row["counts"].get(j)
                if got != counts:
                    bad.append(f"table {key[0]} p={want['p']}: counts over F_p^{j} "
                               f"{got}, reference {counts}")
            verdict = TABLE_VERDICT[row["table"]]
            if row["verdicts"].get(verdict) is not True:
                bad.append(f"table {key[0]} p={want['p']}: {verdict} verdict "
                           f"{row['verdicts'].get(verdict)}")
        return bad
