"""Search for parameter tuples whose genus-5 curve meets a bound target.

The enumeration walks root tuples (a1, a2, a3, a4, a5, b5) in a fixed
(optionally seed-permuted) order; a6 and b6 are forced by the compatibility
conditions and are derived by solving the condition, which is linear in the
missing root.  Cheap congruence filters run first: the Legendre parameters
of a candidate depend only on the roots, and the bound predicates depend on
the twist scalars only through their square class, so each passing root
tuple is emitted with canonical twist representatives for each admissible
class pair.  Every hit is confirmed by exact point counts before it is
emitted.

Work is partitioned into one chunk per a1-value; the chunk list and the
order inside each chunk never depend on the worker count, so for a fixed
seed the hit stream is reproducible with any HOWE_THREADS setting.  A time
budget, when set, cuts off at chunk boundaries and is best effort only;
reproducibility is guaranteed only for runs limited by the deterministic
caps.
"""

from __future__ import annotations

import functools
import json
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import IO, Iterator, Optional, Union

from . import hasse_serre, howe_factory
from .field_arith import FieldElement, is_prime
from .hasse_serre import floor_two_sqrt, hasse_poly_table, serre_bound
from .howe_factory import HoweParams


class Target(Enum):
    SERRE_FP = "serre-fp"
    MAXIMAL_FP2 = "maximal-fp2"
    SERRE_FP3 = "serre-fp3"


TARGET_MIN_PRIME = {
    Target.SERRE_FP: 17,
    Target.MAXIMAL_FP2: 3,
    Target.SERRE_FP3: 11,
}

ENUMERATED_SLOTS = ("a1", "a2", "a3", "a4", "a5", "b5")

CSV_HEADER = "p,alpha1,alpha2,a1,a2,a3,a4,a5,a6,b5,b6"


@dataclass(frozen=True)
class SearchConfig:
    """Search settings.  max_candidates caps (a1..a5) probes per prime,
    split into equal per-chunk quotas; max_hits caps emitted hits per prime.
    fixed pins enumerated slots to constants, e.g. (("a1", 2), ("a2", 1))."""

    p_min: int
    p_max: int
    target: Target
    max_candidates: Optional[int] = None
    max_hits: Optional[int] = None
    time_budget: Optional[float] = None
    seed: Optional[int] = None
    fixed: tuple[tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "target", Target(self.target))
        if self.p_min > self.p_max:
            raise ValueError(f"empty prime range [{self.p_min}, {self.p_max}]")
        floor = TARGET_MIN_PRIME[self.target]
        if self.p_min < floor:
            raise ValueError(
                f"target {self.target.value} needs p >= {floor}, got p_min={self.p_min}"
            )
        for slot, _ in self.fixed:
            if slot not in ENUMERATED_SLOTS:
                raise ValueError(f"cannot pin slot {slot!r}")

    def fixed_value(self, slot: str) -> Optional[int]:
        for name, v in self.fixed:
            if name == slot:
                return v
        return None


@dataclass(frozen=True)
class SearchHit:
    """A confirmed parameter tuple.  index is the enumeration position
    (prime, chunk, sequence inside the chunk)."""

    params: HoweParams
    target: Target
    counts: dict
    index: tuple[int, int, int]

    def row(self) -> tuple[int, ...]:
        return self.params.row()

    def report(self) -> "howe_factory.DecompositionReport":
        """Full decomposition report for this hit, built on demand."""
        return howe_factory.DecompositionReport.build(self.params, exts=(1,))

    def to_json_dict(self) -> dict:
        row = self.row()
        return {
            "p": row[0],
            "alpha1": row[1],
            "alpha2": row[2],
            "a": list(row[3:9]),
            "b": list(row[9:11]),
            "target": self.target.value,
            "counts": {str(j): n for j, n in sorted(self.counts.items())},
        }


@dataclass
class SearchStats:
    primes: int = 0
    prefixes: int = 0
    probes: int = 0
    tuples: int = 0
    hits: int = 0
    confirm_failures: int = 0
    truncated: bool = False
    elapsed: float = 0.0


def primes_in(lo: int, hi: int) -> list[int]:
    return [n for n in range(max(lo, 3), hi + 1) if n % 2 and is_prime(n)]


# ---------------------------------------------------------------------------
# per-prime lookup tables


@functools.lru_cache(maxsize=None)
def _tables(p: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], int]:
    """(inv, sqrt, chi, nonresidue): batch inverses, canonical roots with 0
    for non-squares, the quadratic character, and the smallest non-residue."""
    inv = [0] * p
    inv[1] = 1
    for i in range(2, p):
        inv[i] = (p - (p // i) * inv[p % i] % p) % p
    sqrt = [0] * p
    for x in range((p - 1) // 2, 0, -1):
        sqrt[x * x % p] = x
    chi = [0] * p
    for v in range(1, p):
        chi[v] = 1 if sqrt[v] else -1
    nonres = next(v for v in range(2, p) if chi[v] == -1)
    return tuple(inv), tuple(sqrt), tuple(chi), nonres


@functools.lru_cache(maxsize=None)
def _class_masks(p: int, target: Target) -> tuple[int, ...]:
    """mask[v]: bit 1 set when lambda=v is admissible with chi(theta)=+1,
    bit 2 with chi(theta)=-1.  Entries 0 and 1 are always 0."""
    table = hasse_poly_table(p)
    sgn = 1 if (p - 1) // 2 % 2 == 0 else p - 1
    mask = [0] * p
    if target is Target.MAXIMAL_FP2:
        for v in range(2, p):
            if table[v] == 0:
                mask[v] = 3
        return tuple(mask)
    if target is Target.SERRE_FP:
        want = (-floor_two_sqrt(p)) % p
        for v in range(2, p):
            t = sgn * int(table[v]) % p
            if t == want:
                mask[v] |= 1
            if (p - t) % p == want:
                mask[v] |= 2
        return tuple(mask)
    k3 = floor_two_sqrt(p ** 3)
    good = {h for h in range(p) if h * h * h - 3 * p * h == -k3}
    for v in range(2, p):
        t = sgn * int(table[v]) % p
        if t in good:
            mask[v] |= 1
        if (p - t) % p in good:
            mask[v] |= 2
    return tuple(mask)


# ---------------------------------------------------------------------------
# root derivation


def _solve_missing_root(
    x1: int, x2: int, x3: int, x4: int, w: int, p: int, inv
) -> Optional[int]:
    k1 = (x2 - x4) * (x3 - w) % p
    k2 = (x1 - w) * (x3 - x4) % p
    u = (k2 - k1) % p
    if u == 0:
        return None
    x = (k2 * x2 - k1 * x1) * inv[u] % p
    if x in (x1 % p, x2 % p, x3 % p, x4 % p, w % p):
        return None
    return x


def solve_linear_root(
    x1: FieldElement,
    x2: FieldElement,
    x3: FieldElement,
    x4: FieldElement,
    w: FieldElement,
) -> Optional[FieldElement]:
    """The unique sixth root forced by the compatibility condition with the
    five fixed cross-ratio slots, or None if it degenerates or collides."""
    p = x1.mod.p
    inv, _, _, _ = _tables(p)
    v = _solve_missing_root(x1.value, x2.value, x3.value, x4.value, w.value, p, inv)
    return None if v is None else FieldElement(v, x1.mod)


# ---------------------------------------------------------------------------
# candidate confirmation


def _target_predicate(target: Target):
    if target is Target.SERRE_FP:
        return hasse_serre.attains_serre_fp
    if target is Target.MAXIMAL_FP2:
        return hasse_serre.maximal_fp2
    return hasse_serre.attains_serre_fp3


def _confirm(params: HoweParams, target: Target) -> Optional[dict]:
    """Recheck predicates honestly and confirm with exact point counts.
    Returns the counts to attach to the hit, or None on any disagreement."""
    p = params.mod.p
    vr = howe_factory.validate(params)
    if not vr.ok:
        return None
    _, curves = howe_factory.decompose_genus5(params, vr)
    pred = _target_predicate(target)
    if not all(pred(E) for E in curves):
        return None
    base = howe_factory.howe_counts(params, 1, curves)
    counts = {1: base.total}
    if target is Target.SERRE_FP:
        if counts[1] != serre_bound(p, 5):
            return None
    elif target is Target.MAXIMAL_FP2:
        counts[2] = base.lift(2).total
        if counts[2] != p * p + 1 + 10 * p:
            return None
    else:
        counts[3] = base.lift(3).total
        if counts[3] != serre_bound(p ** 3, 5):
            return None
    return counts


# ---------------------------------------------------------------------------
# enumeration


def _slot_order(p: int, cfg: SearchConfig, slot: str) -> list[int]:
    pinned = cfg.fixed_value(slot)
    if pinned is not None:
        return [pinned % p]
    order = list(range(p))
    if cfg.seed is not None:
        random.Random(f"{cfg.seed}:{p}:{slot}").shuffle(order)
    return order


def _scan_chunk(args) -> tuple[int, list, tuple]:
    """Scan every candidate with the given a1; returns picklable hit rows.

    Runs inside worker processes; all state is rebuilt from (p, cfg) through
    the per-process caches.
    """
    p, cfg, chunk_pos, a1, quota = args
    inv, sqrt_tab, chi, nonres = _tables(p)
    mask = _class_masks(p, cfg.target)
    maximal = cfg.target is Target.MAXIMAL_FP2

    ord_a2 = _slot_order(p, cfg, "a2")
    ord_a3 = _slot_order(p, cfg, "a3")
    ord_a4 = _slot_order(p, cfg, "a4")
    ord_a5 = _slot_order(p, cfg, "a5")
    ord_b5 = _slot_order(p, cfg, "b5")

    prefixes = probes = tuples = confirm_failures = 0
    truncated = False
    hits: list[tuple[int, tuple, dict]] = []
    max_hits = cfg.max_hits

    def emit(alpha1: int, alpha2: int, roots6, b5: int, b6: int) -> bool:
        """Confirm and record; returns True when the chunk should stop."""
        nonlocal tuples, confirm_failures
        params = HoweParams.from_ints(p, alpha1, alpha2, roots6, (b5, b6))
        counts = _confirm(params, cfg.target)
        if counts is None:
            confirm_failures += 1
            return False
        hits.append((len(hits), params.row(), counts))
        return max_hits is not None and len(hits) >= max_hits

    for a2 in ord_a2:
        if a2 == a1:
            continue
        for a3 in ord_a3:
            if a3 in (a1, a2):
                continue
            d_a23 = (a2 - a3) % p
            for a4 in ord_a4:
                if a4 in (a1, a2, a3):
                    continue
                den_a = d_a23 * (a1 - a4) % p
                a = (a1 - a3) * (a2 - a4) % p * inv[den_a] % p
                one_minus_a = (1 - a) % p
                inv_one_minus_a = inv[one_minus_a]
                prefixes += 1
                for a5 in ord_a5:
                    if a5 in (a1, a2, a3, a4):
                        continue
                    probes += 1
                    if quota is not None and probes > quota:
                        truncated = True
                        stats = (prefixes, probes, tuples, confirm_failures, truncated)
                        return chunk_pos, hits, stats
                    b = (a1 - a3) * (a2 - a5) % p * inv[d_a23 * (a1 - a5) % p] % p
                    s = sqrt_tab[a * (a - b) % p]
                    if s == 0:
                        continue
                    pref1 = one_minus_a * inv[(b - 1) % p] % p
                    lam1 = pref1 * (b - 2 * a + 2 * s) % p
                    lam2 = pref1 * (b - 2 * a - 2 * s) % p
                    m12 = mask[lam1] & mask[lam2]
                    if m12 == 0:
                        continue
                    a6 = _solve_missing_root(a1, a2, a3, a4, a5, p, inv)
                    if a6 is None:
                        continue
                    base6 = (a1, a2, a3, a4, a5, a6)
                    g1 = (
                        d_a23
                        * ((a1 - a4) % p)
                        % p
                        * ((a1 - a5) % p)
                        % p
                        * ((a1 - a6) % p)
                        % p
                    )
                    chi_u1 = chi[g1 * ((1 - b) % p) % p * inv_one_minus_a % p]
                    for b5 in ord_b5:
                        if b5 in base6:
                            continue
                        c = (a1 - a3) * (a2 - b5) % p * inv[d_a23 * (a1 - b5) % p] % p
                        s2 = sqrt_tab[a * (a - c) % p]
                        if s2 == 0:
                            continue
                        pref2 = one_minus_a * inv[(c - 1) % p] % p
                        lam3 = pref2 * (c - 2 * a + 2 * s2) % p
                        lam4 = pref2 * (c - 2 * a - 2 * s2) % p
                        m34 = mask[lam3] & mask[lam4]
                        if m34 == 0:
                            continue
                        b6 = _solve_missing_root(a1, a2, a3, a4, b5, p, inv)
                        if b6 is None or b6 in (a5, a6):
                            continue
                        tuples += 1
                        lam5 = (
                            (a5 - b5)
                            * (a6 - b6)
                            % p
                            * inv[(a5 - b6) * (a6 - b5) % p]
                            % p
                        )
                        if maximal:
                            if mask[lam5] == 0:
                                continue
                            if emit(1, 1, base6, b5, b6):
                                stats = (prefixes, probes, tuples, confirm_failures, truncated)
                                return chunk_pos, hits, stats
                            continue
                        g2 = (
                            d_a23
                            * ((a1 - a4) % p)
                            % p
                            * ((a1 - b5) % p)
                            % p
                            * ((a1 - b6) % p)
                            % p
                        )
                        chi_u2 = chi[g2 * ((1 - c) % p) % p * inv_one_minus_a % p]
                        chi_w5 = chi[(a5 - b6) * (a6 - b5) % p]
                        stop = False
                        for e1 in (1, -1):
                            if not m12 & (1 if e1 == 1 else 2):
                                continue
                            for e2 in (1, -1):
                                if not m34 & (1 if e2 == 1 else 2):
                                    continue
                                eps5 = e1 * chi_u1 * e2 * chi_u2 * chi_w5
                                if not mask[lam5] & (1 if eps5 == 1 else 2):
                                    continue
                                alpha1 = 1 if e1 * chi_u1 == 1 else nonres
                                alpha2 = 1 if e2 * chi_u2 == 1 else nonres
                                if emit(alpha1, alpha2, base6, b5, b6):
                                    stop = True
                                    break
                            if stop:
                                break
                        if stop:
                            stats = (prefixes, probes, tuples, confirm_failures, truncated)
                            return chunk_pos, hits, stats
    stats = (prefixes, probes, tuples, confirm_failures, truncated)
    return chunk_pos, hits, stats


def _worker_count() -> int:
    raw = os.environ.get("HOWE_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        n = 1
    return max(1, n)


def run_search(config: SearchConfig) -> tuple[list[SearchHit], SearchStats]:
    """Run the whole search eagerly; hits come back in enumeration order."""
    t0 = time.monotonic()
    stats = SearchStats()
    all_hits: list[SearchHit] = []
    workers = _worker_count()

    for p in primes_in(config.p_min, config.p_max):
        if config.time_budget is not None and time.monotonic() - t0 > config.time_budget:
            stats.truncated = True
            break
        stats.primes += 1
        chunk_values = _slot_order(p, config, "a1")
        quota = None
        if config.max_candidates is not None:
            quota = -(-config.max_candidates // len(chunk_values))
        args = [
            (p, config, pos, a1, quota) for pos, a1 in enumerate(chunk_values)
        ]
        if workers == 1:
            results = []
            for arg in args:
                if (
                    config.time_budget is not None
                    and time.monotonic() - t0 > config.time_budget
                ):
                    stats.truncated = True
                    break
                results.append(_scan_chunk(arg))
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_scan_chunk, args, chunksize=1))
        results.sort(key=lambda r: r[0])
        prime_hits: list[SearchHit] = []
        for chunk_pos, chunk_hits, chunk_stats in results:
            prefixes, probes, tuples, confirm_failures, truncated = chunk_stats
            stats.prefixes += prefixes
            stats.probes += probes
            stats.tuples += tuples
            stats.confirm_failures += confirm_failures
            stats.truncated = stats.truncated or truncated
            for seq, row, counts in chunk_hits:
                prime_hits.append(
                    SearchHit(
                        params=HoweParams.from_row(row),
                        target=config.target,
                        counts=counts,
                        index=(p, chunk_pos, seq),
                    )
                )
        if config.max_hits is not None and len(prime_hits) > config.max_hits:
            prime_hits = prime_hits[: config.max_hits]
            stats.truncated = True
        all_hits.extend(prime_hits)
    stats.hits = len(all_hits)
    stats.elapsed = time.monotonic() - t0
    return all_hits, stats


def enumerate_hits(config: SearchConfig) -> Iterator[SearchHit]:
    """Stream of confirmed hits in enumeration order."""
    hits, _ = run_search(config)
    yield from hits


# ---------------------------------------------------------------------------
# helpers shared with tests and the command line


def isomorphic_params_equal(x: HoweParams, y: HoweParams) -> bool:
    """Equal branch points and equal twist square classes; such parameter
    sets give isomorphic curves."""
    if x.mod.p != y.mod.p:
        return False
    if x.row()[3:] != y.row()[3:]:
        return False
    from .field_arith import legendre_symbol

    return legendre_symbol(x.alpha1) == legendre_symbol(y.alpha1) and legendre_symbol(
        x.alpha2
    ) == legendre_symbol(y.alpha2)


def random_valid_params(
    p: int, rng: random.Random, max_tries: int = 5000
) -> Optional[HoweParams]:
    """Sample a validated parameter set by drawing roots and deriving the
    forced ones; twists are uniform nonzero scalars."""
    inv, _, _, _ = _tables(p)
    for _ in range(max_tries):
        a1, a2, a3, a4, a5, b5 = rng.sample(range(p), 6)
        a6 = _solve_missing_root(a1, a2, a3, a4, a5, p, inv)
        if a6 is None or a6 == b5:
            continue
        b6 = _solve_missing_root(a1, a2, a3, a4, b5, p, inv)
        if b6 is None or b6 in (a5, a6):
            continue
        alpha1 = rng.randrange(1, p)
        alpha2 = rng.randrange(1, p)
        params = HoweParams.from_ints(p, alpha1, alpha2, (a1, a2, a3, a4, a5, a6), (b5, b6))
        if howe_factory.validate(params).ok:
            return params
    return None


def write_hits_csv(hits: list[SearchHit], out: Union[str, IO[str]]) -> None:
    """Table-layout CSV; content depends only on the hit list."""
    own = isinstance(out, str)
    fh = open(out, "w") if own else out
    try:
        fh.write(CSV_HEADER + "\n")
        for h in hits:
            fh.write(",".join(str(v) for v in h.row()) + "\n")
    finally:
        if own:
            fh.close()


def write_hits_jsonl(hits: list[SearchHit], out: Union[str, IO[str]]) -> None:
    """One JSON object per hit; keys sorted, no timing fields, so repeated
    runs produce identical bytes."""
    own = isinstance(out, str)
    fh = open(out, "w") if own else out
    try:
        for h in hits:
            fh.write(json.dumps(h.to_json_dict(), sort_keys=True, separators=(",", ":")))
            fh.write("\n")
    finally:
        if own:
            fh.close()
