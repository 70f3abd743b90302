"""Search for parameter tuples whose genus-5 curve meets a bound target.

The enumeration walks root tuples (a1, a2, a3, a4, a5, b5) in a fixed
(optionally seed-permuted) order; a6 and b6 are forced by the compatibility
conditions and are derived by solving the condition, which is linear in the
missing root.  Cheap filters on the exact trace table run first: the
Legendre parameters of a candidate depend only on the roots, and the bound
rules depend on the twist scalars only through their square class, so each
passing root tuple is emitted with canonical twist representatives for each
admissible class pair.  Every hit is confirmed by exact point counts before
it is emitted.

Work is partitioned into one chunk per a1-value; the chunks run in the a1
visit order, which depends on the seed alone.  Inside a chunk
the prefix rows (a2, a3, a4) run in blocks of a few thousand (row, residue)
elements.  The a5 filter asks whether the two Legendre parameters that a
row's cross-ratio a and a fifth root's cross-ratio b fix are both
admissible; it depends on (a, b) only, and the admissible pairs are few.
They are solved once per prime backwards from the admissible lambdas
(_admissible_pairs), and a numpy pass over a block gives each row's a, so
each row's admissible fifth roots are its table entries mapped back to
roots.  The b5 filter reads the same roots, since b5 enters the conditions
through the same map as a5; only the candidates that pass go through the
scalar remainder (a6, b6, lambda5, twist classes, confirmation).  Probes
are counted by index, so a chunk's quota cuts its scan at the same probe
as a scan one probe at a time would.

One driver, enumerate_hits, scans the chunks one after another in the
calling process.  Once a prime's max_hits quota is full no later chunk of
that prime is scanned, so for a fixed seed the hit stream and the
statistics are fixed.  A time budget, when set, is checked after each block
of prefixes inside a chunk and after each chunk, and is best effort only;
reproducibility is guaranteed only for runs limited by the deterministic
caps.
"""

from __future__ import annotations

import functools
import json
import random
import time
from dataclasses import dataclass
from enum import Enum
from typing import IO, Iterator, NamedTuple, Optional, Union

import numpy as np

from . import hasse_serre, howe_factory
from .field_arith import PRIME_CAP, FieldElement, is_prime, residue_tables
from .hasse_serre import floor_two_sqrt, legendre_traces, lift_trace, serre_bound
from .howe_factory import HoweParams


class Target(Enum):
    SERRE_FP = "serre-fp"
    MAXIMAL_FP2 = "maximal-fp2"
    SERRE_FP3 = "serre-fp3"

    @property
    def degree(self) -> int:
        """j such that the target is the genus-5 Serre bound over F_{p^j}."""
        return list(Target).index(self) + 1


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
        if self.p_max >= PRIME_CAP:
            raise ValueError(f"p_max must be below {PRIME_CAP}, got {self.p_max}")
        floor = TARGET_MIN_PRIME[self.target]
        if self.p_min < floor:
            raise ValueError(
                f"target {self.target.value} needs p >= {floor}, got p_min={self.p_min}"
            )
        for i, (slot, _) in enumerate(self.fixed):
            if slot not in ENUMERATED_SLOTS:
                raise ValueError(f"cannot pin slot {slot!r}")
            if any(slot == earlier for earlier, _ in self.fixed[:i]):
                raise ValueError(f"slot {slot!r} is pinned more than once")
        for cap, least in (("max_candidates", 1), ("max_hits", 1), ("time_budget", 0)):
            value = getattr(self, cap)
            if value is not None and value < least:
                raise ValueError(f"{cap} must be at least {least}, got {value}")

    def fixed_value(self, slot: str) -> Optional[int]:
        return dict(self.fixed).get(slot)


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
# per-prime lookup tables, cached for the current prime only


@functools.lru_cache(maxsize=1)
def _tables(p: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], int]:
    """(inv, sqrt, chi, nonres) of residue_tables(p), with the arrays as
    tuples.  The scan kernel's numpy pass reads residue_tables directly; the
    tuples serve only its scalar remainder, which indexes a tuple about six
    times faster than a numpy array."""
    t = residue_tables(p)
    return tuple(t.inv.tolist()), tuple(t.sqrt.tolist()), tuple(t.chi.tolist()), t.nonres


@functools.lru_cache(maxsize=1)
def _class_masks(p: int, target: Target) -> tuple[int, ...]:
    """mask[v]: bit 1 set when lambda=v is admissible with chi(theta)=+1,
    bit 2 with chi(theta)=-1.  Entries 0 and 1 are always 0.  The factor's
    trace is chi(theta) t[v]; it is admissible when its lift to F_{p^j}
    is -floor(2 sqrt(p^j)), j the target's degree."""
    t, j = legendre_traces(p), target.degree
    goal = -floor_two_sqrt(p ** j)
    mask = (lift_trace(t, p, j) == goal) + 2 * (lift_trace(-t, p, j) == goal)
    mask[:2] = 0
    return tuple(mask.tolist())


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
    """Recheck the Hasse-polynomial predicates and confirm with exact counts:
    over F_{p^j}, j the target's degree, the count must be the genus-5 Serre
    bound.  Returns the counts over F_p and F_{p^j}, or None on any miss."""
    vr = howe_factory.validate(params)
    if not vr.ok:
        return None
    _, curves = howe_factory.decompose_genus5(params, vr)
    pred = _target_predicate(target)
    if not all(pred(E) for E in curves):
        return None
    base = howe_factory.howe_counts(params, 1, curves)
    j = target.degree
    counts = {1: base.total, j: base.lift(j).total}
    return counts if counts[j] == serre_bound(params.mod.p ** j, 5) else None


# ---------------------------------------------------------------------------
# enumeration


@functools.lru_cache(maxsize=1)
def _visit_orders(p: int, cfg: SearchConfig) -> tuple[tuple[int, ...], ...]:
    """The order each slot of ENUMERATED_SLOTS visits its values in at p: a
    pinned slot visits one value, the others every residue, shuffled by the
    seed.  Cached for the current prime only, so they are derived once per
    prime, not once per chunk."""
    orders = []
    for slot in ENUMERATED_SLOTS:
        pinned = cfg.fixed_value(slot)
        if pinned is not None:
            orders.append((pinned % p,))
            continue
        order = list(range(p))
        if cfg.seed is not None:
            random.Random(f"{cfg.seed}:{p}:{slot}").shuffle(order)
        orders.append(tuple(order))
    return tuple(orders)


# Most elements in one block of the scan kernel (prefix rows times a5
# values); a block holds at least one row, so past p = 4096 it is one row.
_BLOCK_ELEMENTS = 4096


class _ScanArrays(NamedTuple):
    """The block kernel's per-prime arrays: the visit orders of a2, a3 and
    a4 (_visit_orders); a5_in, 1 where a residue is in the a5 order; and
    a5_pos and b5_pos, the position of each residue in the a5 and the b5
    order (the order's length where absent), as lists for the scalar loop."""

    a2: np.ndarray
    a3: np.ndarray
    a4: np.ndarray
    a5_in: np.ndarray
    a5_pos: list
    b5_pos: list


@functools.lru_cache(maxsize=1)
def _scan_arrays(p: int, cfg: SearchConfig) -> _ScanArrays:
    """Cached for the current prime only, like the orders."""
    _, a2, a3, a4, a5, b5 = (np.array(o, dtype=np.int64) for o in _visit_orders(p, cfg))
    a5_pos, b5_pos = (np.full(p, len(o), dtype=np.int64) for o in (a5, b5))
    a5_pos[a5], b5_pos[b5] = np.arange(len(a5)), np.arange(len(b5))
    a5_in = (a5_pos < len(a5)).astype(np.int64)
    return _ScanArrays(a2, a3, a4, a5_in, a5_pos.tolist(), b5_pos.tolist())


@functools.lru_cache(maxsize=1)
def _admissible_pairs(p: int, target: Target) -> dict[int, tuple[tuple[int, int], ...]]:
    """B[a]: the pairs (b, bits), sorted by b, with bits = mask[lam1] &
    mask[lam2] nonzero for lam1, lam2 = (1-a)/(b-1) * (b - 2a +- 2s) and
    s = sqrt(a(a-b)) nonzero; a without such b has no entry.  Cached for
    the current prime only.

    Solved backwards from the admissible lambdas.  With r = (1-a)/(b-1) and
    w = rb, lam1 lam2 = w^2 and lam1 + lam2 = 2(w - 2ar), so a = 1 - w + r,
    b = w/r, and r solves 2r^2 + 2(1-w)r - (w - (lam1+lam2)/2) = 0, that
    is (2r + 1 - w)^2 = d = 1 + w^2 - (lam1+lam2).  Every admissible (a, b) so
    comes from an unordered pair lam1 != lam2 with a common mask bit and a
    root w of lam1 lam2; of the (a, b) found, the forward formula keeps
    those it accepts, so B is exact."""
    t = residue_tables(p)
    mask = np.array(_class_masks(p, target), dtype=np.int64)
    lam = np.flatnonzero(mask)
    # unordered pairs lam1 < lam2 with a common bit
    i, j = np.nonzero((mask[lam][:, None] & mask[lam]) * (lam[:, None] < lam) != 0)
    l1, l2 = lam[i], lam[j]
    root = t.sqrt[l1 * l2 % p]
    w = np.concatenate([root, p - root])[np.tile(root > 0, 2)]
    total = np.tile((l1 + l2)[root > 0], 2)
    d = (1 + w * w - total) % p
    sq = t.sqrt[d]
    solvable = (sq > 0) | (d == 0)
    w, sq = w[solvable], sq[solvable]
    r = np.concatenate([w - 1 + sq, w - 1 - sq]) * ((p + 1) // 2) % p
    w, r = np.tile(w, 2)[r != 0], r[r != 0]
    a, b = (1 - w + r) % p, w * t.inv[r] % p
    # the forward formula; pref < p and |b - 2a +- 2s| < 3p keep products small
    s2 = 2 * t.sqrt[a * (a - b) % p]
    pref = (1 - a) * t.inv[(b - 1) % p] % p
    bits = mask[pref * (b - 2 * a + s2) % p] & mask[pref * (b - 2 * a - s2) % p]
    keep = (bits != 0) & (s2 > 0)
    # r comes twice where d = 0; the dicts drop the copy (np.unique would
    # import numpy.ma)
    table: dict[int, dict] = {}
    for av, bv, m in zip(a[keep].tolist(), b[keep].tolist(), bits[keep].tolist()):
        table.setdefault(av, {})[bv] = m
    return {av: tuple(sorted(row.items())) for av, row in table.items()}


def _block_roots(p: int, a1: int, a2: np.ndarray, a3: np.ndarray, a4: np.ndarray,
                 pairs: dict) -> tuple[np.ndarray, list]:
    """The cross-ratio a of each prefix row (a1, a2[i], a3[i], a4[i]), and
    each row's admissible fifth roots: the (x, bits) with bits =
    mask[lam1] & mask[lam2] nonzero (_admissible_pairs, passed as pairs).
    b = k (a2-x) / (a1-x), k = (a1-a3) / (a2-a3), is a Moebius map of x
    with inverse x = (k a2 - b a1) / (k - b); b = k is the image of x =
    infinity, and x = a1 would need b = infinity.  pairs holds no b in
    {0, 1, a}, the images of a2, a3 and a4, so no root is in {a1, a2, a3,
    a4}."""
    inv_np, inv = residue_tables(p).inv, _tables(p)[0]
    k = (a1 - a3) * inv_np[(a2 - a3) % p] % p
    # a is b at x = a4
    a = k * (a2 - a4) % p * inv_np[(a1 - a4) % p] % p
    roots = [
        [((kr * a2r - b * a1) * inv[(kr - b) % p] % p, bits)
         for b, bits in pairs.get(ar, ()) if b != kr]
        for kr, a2r, ar in zip(k.tolist(), a2.tolist(), a.tolist())
    ]
    return a, roots


def _scan_chunk(args) -> tuple[int, list, tuple]:
    """Scan every candidate with the given a1; returns (chunk_pos, hit rows, stats).

    The prefix rows (a2, a3, a4) run in blocks.  A numpy pass per block
    gives each row's cross-ratio a; the row's admissible fifth roots are
    then the b of the per-prime table _admissible_pairs(p, target)[a]
    mapped back to x (_block_roots), so no filter is evaluated at a root
    that cannot pass.  The roots in the a5 order,
    in visit order, are the a5 survivors; the roots in the b5 order, in
    that order, are the row's b5 candidates.  Each survivor goes through
    the scalar tail: a6, b5 over the candidates, b6, lambda5 and the twist
    classes.  The probes are the (row, a5) pairs with a5 not in {a1, a2,
    a3, a4}, counted by index, so the quota cut and the max_hits stop
    report the same prefixes and probes as a scan one probe at a time.
    When deadline, a time.monotonic() value, has passed after a block, the
    chunk stops there, truncated; the first block always completes.
    """
    p, cfg, chunk_pos, a1, quota, deadline = args
    inv, _, chi, nonres = _tables(p)
    mask = _class_masks(p, cfg.target)
    pairs = _admissible_pairs(p, cfg.target)
    maximal = cfg.target is Target.MAXIMAL_FP2
    arrays = _scan_arrays(p, cfg)
    a5_pos, a5_in, b5_pos = arrays.a5_pos, arrays.a5_in, arrays.b5_pos
    # cells index the product of the a2, a3 and a4 orders without a1; a row
    # is a cell with a3 != a2 and a4 not in {a2, a3}
    ord_a2, ord_a3, ord_a4 = (o[o != a1] for o in (arrays.a2, arrays.a3, arrays.a4))
    n3, n4 = len(ord_a3), len(ord_a4)
    n5, nb5 = (len(o) for o in _visit_orders(p, cfg)[4:])
    cells = len(ord_a2) * n3 * n4
    block = max(1, _BLOCK_ELEMENTS // n5)

    prefixes = probes = tuples = confirm_failures = 0
    hits: list[tuple[int, tuple, dict]] = []
    max_hits = cfg.max_hits

    def emit(alpha1: int, alpha2: int, roots6, b5: int, b6: int) -> bool:
        """Confirm and record; returns True when the chunk should stop."""
        nonlocal confirm_failures
        params = HoweParams.from_ints(p, alpha1, alpha2, roots6, (b5, b6))
        counts = _confirm(params, cfg.target)
        if counts is None:
            confirm_failures += 1
            return False
        hits.append((len(hits), params.row(), counts))
        return max_hits is not None and len(hits) >= max_hits

    def stats(truncated: bool = False) -> tuple:
        return prefixes, probes, tuples, confirm_failures, truncated

    cell = 0
    while cell < cells:
        idx = np.arange(cell, min(cell + block, cells))
        cell += len(idx)
        i2, rest = np.divmod(idx, n3 * n4)
        i3, i4 = np.divmod(rest, n4)
        a2, a3, a4 = ord_a2[i2], ord_a3[i3], ord_a4[i4]
        keep = (a3 != a2) & (a4 != a2) & (a4 != a3)
        if not keep.any():
            if a3[-1] == a2[-1]:
                # the rest of this (a2, a3) run of n4 cells has a3 = a2 too
                cell = (int(idx[-1]) // n4 + 1) * n4
            continue
        a2, a3, a4 = a2[keep], a3[keep], a4[keep]
        row_probes = n5 - a5_in[a1] - a5_in[a2] - a5_in[a3] - a5_in[a4]
        ends = probes + np.cumsum(row_probes)
        cut = quota is not None and int(ends[-1]) > quota
        if cut:
            # the rows through the one that holds probe quota + 1
            rows = int(np.searchsorted(ends, quota, side="right")) + 1
            a2, a3, a4 = a2[:rows], a3[:rows], a4[:rows]
        a, roots = _block_roots(p, a1, a2, a3, a4, pairs)
        # (row, a5 position, a5, mask bits) of the roots in the a5 order
        survivors = sorted((r, a5_pos[x], x, m12) for r, row in enumerate(roots)
                           for x, m12 in row if a5_pos[x] < n5)
        a2s, a3s, a4s, as_ = a2.tolist(), a3.tolist(), a4.tolist(), a.tolist()
        b5_cands: dict[int, list] = {}  # row -> admissible (b5, mask bits) in b5 order
        for r, j, a5, m12 in survivors:
            a2r, a3r, a4r = a2s[r], a3s[r], a4s[r]
            probe = int(ends[r] - row_probes[r]) + j + 1
            probe -= sum(a5_pos[v] < j for v in (a1, a2r, a3r, a4r))
            if cut and probe > quota:
                break
            a6 = _solve_missing_root(a1, a2r, a3r, a4r, a5, p, inv)
            if a6 is None:
                continue
            base6 = (a1, a2r, a3r, a4r, a5, a6)
            if r not in b5_cands:
                b5_cands[r] = [(x, m34) for _, x, m34 in sorted(
                    (b5_pos[x], x, m34) for x, m34 in roots[r] if b5_pos[x] < nb5)]
            if not maximal:
                d_a23 = (a2r - a3r) % p
                inv_one_minus_a = inv[(1 - as_[r]) % p]
                b = (a1 - a3r) * (a2r - a5) % p * inv[d_a23 * (a1 - a5) % p] % p
                g1 = (
                    d_a23
                    * ((a1 - a4r) % p)
                    % p
                    * ((a1 - a5) % p)
                    % p
                    * ((a1 - a6) % p)
                    % p
                )
                chi_u1 = chi[g1 * ((1 - b) % p) % p * inv_one_minus_a % p]
            for b5, m34 in b5_cands[r]:
                if b5 == a5 or b5 == a6:
                    continue
                b6 = _solve_missing_root(a1, a2r, a3r, a4r, b5, p, inv)
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
                stop = False
                if maximal:
                    stop = mask[lam5] != 0 and emit(1, 1, base6, b5, b6)
                else:
                    c = (a1 - a3r) * (a2r - b5) % p * inv[d_a23 * (a1 - b5) % p] % p
                    g2 = (
                        d_a23
                        * ((a1 - a4r) % p)
                        % p
                        * ((a1 - b5) % p)
                        % p
                        * ((a1 - b6) % p)
                        % p
                    )
                    chi_u2 = chi[g2 * ((1 - c) % p) % p * inv_one_minus_a % p]
                    chi_w5 = chi[(a5 - b6) * (a6 - b5) % p]
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
                    prefixes += r + 1
                    probes = probe
                    return chunk_pos, hits, stats()
        prefixes += len(a2)
        if cut:
            probes = quota + 1
            return chunk_pos, hits, stats(truncated=True)
        probes = int(ends[-1])
        if deadline is not None and cell < cells and time.monotonic() > deadline:
            return chunk_pos, hits, stats(truncated=True)
    return chunk_pos, hits, stats()


def enumerate_hits(config: SearchConfig, stats: Optional[SearchStats] = None) -> Iterator[SearchHit]:
    """Confirmed hits in enumeration order, yielded as each chunk is scanned;
    stats, when given, is kept up to date as the search runs."""
    stats = SearchStats() if stats is None else stats
    t0 = time.monotonic()
    deadline = None if config.time_budget is None else t0 + config.time_budget
    try:
        for p in primes_in(config.p_min, config.p_max):
            stats.primes += 1
            chunk_values = _visit_orders(p, config)[0]
            quota = None
            if config.max_candidates is not None:
                quota = -(-config.max_candidates // len(chunk_values))
            left = config.max_hits
            for pos, a1 in enumerate(chunk_values):
                _, chunk_hits, chunk_stats = _scan_chunk((p, config, pos, a1, quota, deadline))
                prefixes, probes, tuples, confirm_failures, truncated = chunk_stats
                stats.prefixes += prefixes
                stats.probes += probes
                stats.tuples += tuples
                stats.confirm_failures += confirm_failures
                stats.truncated = stats.truncated or truncated
                kept = chunk_hits[:left]
                for seq, row, counts in kept:
                    stats.hits += 1
                    yield SearchHit(
                        params=HoweParams.from_row(row),
                        target=config.target,
                        counts=counts,
                        index=(p, pos, seq),
                    )
                if left is not None:
                    left -= len(kept)
                    if left == 0:
                        stats.truncated = True
                        break
                if deadline is not None and time.monotonic() > deadline:
                    stats.truncated = True
                    return
    finally:
        stats.elapsed = time.monotonic() - t0


def run_search(config: SearchConfig) -> tuple[list[SearchHit], SearchStats]:
    """Run the whole search eagerly; hits come back in enumeration order."""
    stats = SearchStats()
    return list(enumerate_hits(config, stats)), stats


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
