"""Search for parameter tuples whose genus-5 curve meets a bound target.

The enumeration walks root tuples (a1, a2, a3, a4, a5, b5) in a fixed
(optionally seed-permuted) order; a6 and b6 are forced by the compatibility
conditions.  They are derived in the cross-ratio frame y = cr(a1, a2, a3,
x), which sends a1, a2, a3, a4, a5 and b5 to infinity, 0, 1, a, b and c:
each condition holds every point once per side, so the map keeps it, and
with a1 at infinity it puts a6 at d = a(1-b)/(1-a) and b6 at e =
a(1-c)/(1-a).  Cheap filters on the exact trace table run first: the
Legendre parameters of a candidate depend only on the roots, and the bound
rules depend on the twist scalars only through their square class, so each
passing root tuple is emitted with canonical twist representatives for each
admissible class pair.  Every hit is confirmed by exact point counts before
it is emitted.  A chunk confirms its candidates in batches (_confirm), so
the fixed numpy cost of a confirmation, one Hasse gather and one F_p
character-sum pass, is paid once per batch: a candidate is queued with the
statistics the chunk reports if it stops there, and the queue is confirmed
once it holds as many candidates as the hit cap has room for, or
_CONFIRM_BLOCK // p with no cap, and before the chunk returns.  The results
are walked in order, so the hits, the failures, the stop and the number of
confirmations are those of confirming each candidate as it comes.

Work is partitioned into one chunk per a1-value; the chunks run in the a1
visit order, which depends on the seed alone.  Inside a chunk the (a2,
a3) pairs run in visit order; a pair fixes k = cr(a1, a2, a3, infinity),
its rows are its a4 values and a row's probes its a5 values, so a pair's
rows, probes and quota cut are closed forms.  The a5 filter asks whether
the two Legendre parameters that a row's cross-ratio a and a fifth root's
cross-ratio b fix are both admissible; it depends on (a, b) only, and the
admissible pairs are few.  They are solved once per prime backwards from
the admissible lambdas (_admissible_pairs), so only the rows whose a has
table entries can hold a survivor, and each such row's admissible fifth
roots are its table entries mapped back to roots.  A pair lists those rows
from the smaller side (_pair_rows): it walks the rows the quota reaches
when they are fewer than the table's a values, else it maps each table a
back to its a4.  The b5 filter reads the same roots, since b5 enters the
conditions through the same map as a5.  Every other check of a row's (b,
c) (d, e, lambda5 and the twist classes) depends on its a alone, except
that k drops the (b, c) with k in {b, c, d, e}.  So one funnel per table
a applies them once (_row_funnel), and keeps the (b, c) that pass with
the twist classes each may emit.  Every listed row walks its funnel's
passing (b, c) that k leaves, at their roots in the a5 and b5 orders, and
only a tuple with twists derives a6, b6 and the twists and goes to
confirmation.  At a prime where no passing (b, c) has twists, a pair the
quota does not cut, with a4, a5 and b5 free, is counted whole: its rows
take every a but 0, 1 and k once, so its tuples depend on k alone
(_pair_tuples).  Probes are counted by index, so a chunk's quota cuts its
scan at the same probe as a scan one probe at a time would.

A prime without admissible pairs has no survivor, and most primes have
none: 343 of the 424 in [17, 3000] for serre-fp, 213 of 429 in [3, 3000]
for maximal-fp2 and 404 of 426 in [11, 3000] for serre-fp3.  Most of them
are known from p alone, before any per-prime table is built: 308 of the
343, 211 of the 213 and all 404 have no goal trace (Target.goal_traces),
no trace that lifts to the bound and leaves 4 | p + 1 - t, and the other
two, maximal-fp2's 3 and 7, lie below 8, too few residues for eight
distinct branch points.  Its chunks are
counted, not scanned (_count_chunks): a slot pinned to a value not taken
yet takes that one value and a free slot any residue not taken yet,
so rows and probes are falling factorials (_fill), and the row where the
quota cuts is a closed form, or a descent over the a2, a3 and a4 orders
when a5 is pinned.  The chunk whose a1 is the pinned a5, which has no
probe, is counted the same way, and so is a whole prime where a5 is
pinned to the residue of a pinned a1, a2, a3 or a4.

One driver, enumerate_hits, scans the chunks one after another in the
calling process.  Once a prime's max_hits quota is full no later chunk of
that prime is scanned, so for a fixed seed the hit stream and the
statistics are fixed.  A time budget, when set, is checked after each (a2,
a3) pair inside a chunk and after each chunk (after the whole of a counted
prime), and is best effort only; reproducibility is guaranteed
only for runs limited by the deterministic caps.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import random
import time
from bisect import bisect_left
from collections import namedtuple
from typing import Iterator, NamedTuple, Optional, Union

import numpy as np

from . import howe_factory
from .field_arith import (
    PRIME_CAP, CheckedRecord, is_prime, legendre_symbol, require_ints, residue_tables,
)
from .hasse_serre import Target, legendre_traces, serre_bound
from .howe_factory import HoweParams
from .tables import EXPECTED_HEADER

ENUMERATED_SLOTS = ("a1", "a2", "a3", "a4", "a5", "b5")

CSV_HEADER = ",".join(EXPECTED_HEADER)

# A chunk confirms its candidates in batches of about this many field
# elements, _CONFIRM_BLOCK // p candidates, or fewer when the hit cap has
# room for fewer.
_CONFIRM_BLOCK = 1 << 16


class SearchConfig(CheckedRecord, namedtuple(
        "SearchConfig", "p_min p_max target max_candidates max_hits time_budget seed fixed")):
    """Search settings.  max_candidates caps (a1..a5) probes per prime,
    split into equal per-chunk quotas; max_hits caps emitted hits per prime.
    fixed pins enumerated slots to constants, e.g. (("a1", 2), ("a2", 1)),
    and is kept as a tuple of pairs.  Bounds, caps, pins and the seed must
    be ints, not floats or bools: a config compares equal to one with 1.0
    or True for 1, so it would share its cached visit orders but draw
    others in a new process.
    time_budget is in seconds, a real number but not a bool or NaN."""

    __slots__ = ()

    def __new__(cls, p_min: int, p_max: int, target: Target,
                max_candidates: Optional[int] = None, max_hits: Optional[int] = None,
                time_budget: Optional[float] = None, seed: Optional[int] = None,
                fixed: tuple[tuple[str, int], ...] = ()) -> "SearchConfig":
        target = Target(target)
        try:
            pins = tuple((slot, value) for slot, value in fixed)
        except (TypeError, ValueError):
            raise ValueError(f"fixed must hold (slot, value) pairs, got {fixed!r}") from None
        require_ints(p_min, p_max, *(value for _, value in pins), *(
            v for v in (max_candidates, max_hits, seed) if v is not None))
        if p_min > p_max:
            raise ValueError(f"empty prime range [{p_min}, {p_max}]")
        if p_max >= PRIME_CAP:
            raise ValueError(f"p_max must be below {PRIME_CAP}, got {p_max}")
        floor = target.min_prime
        if p_min < floor:
            raise ValueError(f"target {target.value} needs p >= {floor}, got p_min={p_min}")
        for i, (slot, _) in enumerate(pins):
            if slot not in ENUMERATED_SLOTS:
                raise ValueError(f"cannot pin slot {slot!r}")
            if any(slot == earlier for earlier, _ in pins[:i]):
                raise ValueError(f"slot {slot!r} is pinned more than once")
        if time_budget is not None and (isinstance(time_budget, bool)
                                        or not isinstance(time_budget, numbers.Real)):
            raise ValueError(f"time_budget must be a number of seconds, got {time_budget!r}")
        for cap, value, least in (("max_candidates", max_candidates, 1),
                                  ("max_hits", max_hits, 1), ("time_budget", time_budget, 0)):
            # not value >= least, so that a NaN budget fails too
            if value is not None and not value >= least:
                raise ValueError(f"{cap} must be at least {least}, got {value}")
        return tuple.__new__(cls, (p_min, p_max, target, max_candidates, max_hits,
                                   time_budget, seed, pins))

    def fixed_value(self, slot: str) -> Optional[int]:
        return dict(self.fixed).get(slot)


class SearchHit(NamedTuple):
    """A confirmed parameter tuple.  index is the enumeration position
    (prime, chunk, sequence inside the chunk)."""

    params: HoweParams
    target: Target
    counts: dict
    index: tuple[int, int, int]

    def row(self) -> tuple[int, ...]:
        return self.params.row()

    def to_json_dict(self) -> dict:
        return {
            **self.params.to_json_dict(),
            "target": self.target.value,
            "counts": {str(j): n for j, n in sorted(self.counts.items())},
        }

    def csv_line(self) -> str:
        """The hit's line of a hit CSV, in the table layout under CSV_HEADER."""
        return ",".join(str(v) for v in self.row()) + "\n"

    def jsonl_line(self) -> str:
        """The hit's line of a JSON-lines file: keys sorted, no timing
        fields, so repeated runs write identical bytes."""
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":")) + "\n"


class SearchStats:
    """What a search did, filled in as it runs: primes searched, (a1..a4)
    prefixes and (a1..a5) probes visited, root tuples passed to the fifth
    lambda check, hits emitted, candidates that failed confirmation,
    whether a cap or the time budget cut the search short, and its wall
    time in seconds.  COUNTERS names every field but elapsed: they repeat
    exactly for a fixed seed without a time budget."""

    COUNTERS = ("primes", "prefixes", "probes", "tuples", "hits", "confirm_failures",
                "truncated")
    __slots__ = COUNTERS + ("elapsed",)

    def __init__(self) -> None:
        self.primes = self.prefixes = self.probes = self.tuples = 0
        self.hits = self.confirm_failures = 0
        self.truncated = False
        self.elapsed = 0.0


def primes_in(lo: int, hi: int) -> list[int]:
    return [n for n in range(max(lo, 3), hi + 1) if n % 2 and is_prime(n)]


# ---------------------------------------------------------------------------
# per-prime lookup tables, cached for the current prime only


@functools.lru_cache(maxsize=1)
def _tables(p: int) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """(inv, chi, nonres) of residue_tables(p), with the arrays as tuples:
    the scan kernel is scalar, and indexes a tuple about six times faster
    than a numpy array."""
    t = residue_tables(p)
    return tuple(t.inv.tolist()), tuple(t.chi.tolist()), t.nonres


@functools.lru_cache(maxsize=1)
def _class_masks(p: int, target: Target) -> tuple[int, ...]:
    """mask[v]: bit 1 set when lambda=v is admissible with chi(theta)=+1,
    bit 2 with chi(theta)=-1.  Entries 0 and 1 are always 0.  The factor's
    trace is chi(theta) t[v]; it is admissible when it is one of the
    target's goal traces."""
    t = legendre_traces(p)
    mask = np.zeros(p, dtype=np.int64)
    for goal in target.goal_traces(p):
        mask |= (t == goal) + 2 * (t == -goal)
    mask[:2] = 0
    return tuple(mask.tolist())


# ---------------------------------------------------------------------------
# candidate confirmation


def _confirm(batch: list, target: Target) -> list:
    """Recheck the Hasse-polynomial predicates and confirm with exact counts,
    for each parameter set of batch, all at one prime: over F_{p^j}, j the
    target's degree, the count must be the genus-5 Serre bound.  Returns,
    per set, the counts over F_p and F_{p^j}, or None on any miss.  The sets
    are validated together (validate_many) and the ones that attain the
    target counted together (howe_counts_many), so the numpy work is paid
    once per batch, not once per set."""
    splits = [res.split for res in howe_factory.validate_many(batch)]
    attained = [split is not None and target.attained(split.curves) for split in splits]
    counted = iter(howe_factory.howe_counts_many(
        [split for split, ok in zip(splits, attained) if ok]))
    j, out = target.degree, []
    for params, ok in zip(batch, attained):
        counts = None
        if ok:
            base = next(counted)
            counts = {1: base.total, j: base.lift(j).total}
            if counts[j] != serre_bound(params.mod.p ** j, 5):
                counts = None
        out.append(counts)
    return out


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


class _ScanArrays(NamedTuple):
    """A search's per-prime scan state: visit, the visit orders; at, with
    at[s][v] the position of residue v in the order of slot s of
    ENUMERATED_SLOTS (its length where absent); and pairs, the admissible
    pairs (_admissible_pairs)."""

    visit: tuple
    at: list
    pairs: dict


@functools.lru_cache(maxsize=1)
def _scan_arrays(p: int, cfg: SearchConfig) -> _ScanArrays:
    """Cached for the current prime only, like the orders."""
    visit = _visit_orders(p, cfg)
    at = []
    for o in visit:
        pos = [len(o)] * p
        for i, v in enumerate(o):
            pos[v] = i
        at.append(pos)
    return _ScanArrays(visit, at, _admissible_pairs(p, cfg.target))


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
    those it accepts, so B is exact.  A prime without goal traces has no
    admissible lambda, and a prime below 8 no eight distinct branch points,
    so their tables are empty without any per-prime table being built."""
    if p < 8 or not target.goal_traces(p):
        return {}
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


def _fill(p: int, pins: tuple, free: int, taken: int = 0) -> int:
    """The ways to fill len(pins) + free slots with pairwise distinct
    residues that avoid taken residues already used (none of them in pins):
    a slot pinned to a residue of pins takes it, and each free slot any
    residue not yet used, so the count is a falling factorial.  0 when pins
    holds a residue twice."""
    if len(set(pins)) < len(pins):
        return 0
    return math.perm(max(p - taken - len(pins), 0), free)


def _cut_rows(p: int, arrays: _ScanArrays, slots: list, a5: int, a1: np.ndarray,
              quota: int) -> np.ndarray:
    """For each chunk of the array a1: its rows through the one that holds
    probe quota + 1, for a5 pinned, where a row has one probe unless it
    holds a5; a descent over the a2, a3 and a4 orders.  At each level every
    value of the order but the values fixed so far and the later slots'
    pins heads the same number of rows, and the same number of probes
    unless it is a5 (_fill).  So the value that holds the probe sought is
    the k-th value with probes, and the rows before it are the values
    before it that head rows, times their rows."""
    fixed, left, rows = [a1], quota + 1, 0
    for s in (1, 2, 3):
        pins = tuple(c for c in slots[s:] if c is not None)
        free = 3 - s - len(pins)
        # a1, the values fixed above level s and its own value are taken, and
        # none of them is a pin of the later slots
        each_rows, each_probes = (_fill(p, later, free, s + 1) for later in (pins, (*pins, a5)))
        pos, order = np.array(arrays.at[s]), np.array(arrays.visit[s])
        k = (left - 1) // each_probes + 1
        left = left - (k - 1) * each_probes
        t = k - 1
        for q in np.sort(np.broadcast_arrays(*(pos[x] for x in (*fixed, *pins, a5))), axis=0):
            t = t + (q <= t)
        rows = rows + each_rows * (t - sum(pos[x] < t for x in (*fixed, *pins)))
        fixed.append(order[t])
    return rows + 1


def _count_chunks(p: int, cfg: SearchConfig, a1s: Union[range, tuple],
                  quota: Optional[int]) -> tuple:
    """The stats of _scan_chunk, summed over the chunks a1s (in any order),
    for chunks that hold no survivor: those of a prime without admissible
    pairs or with a5 pinned to the residue of another pin, and the chunk
    whose a1 is the pinned a5.  A chunk's rows are the (a2, a3, a4) of the
    orders with no two equal and none equal to a1, and a row's probes the
    a5 values not in {a1, a2, a3, a4}; both are counted by _fill, with a1
    taken.  With a5 free a row has p - 4 probes, so the chunk that holds
    probe quota + 1 ends on row quota // (p - 4) + 1; with a5 pinned one
    unless the row holds a5 (_cut_rows).  A chunk whose a1 is a pinned
    value has no probe, and no row either unless a1 is the pinned a5 and
    no other pin; every other chunk has the same rows and probes, and only
    the descent reads the visit orders."""
    *slots, a5 = (None if v is None else v % p
                  for v in map(cfg.fixed_value, ENUMERATED_SLOTS[1:5]))
    pins = tuple(v for v in slots if v is not None)
    free = 3 - len(pins)
    rows = _fill(p, pins, free, 1)
    chunk_probes = _fill(p, pins, free + 1, 1) if a5 is None else _fill(p, (*pins, a5), free, 1)
    pinned = {*pins, a5} - {None}
    own = [u for u in pinned if u in a1s]
    prefixes = sum(_fill(p, (u, *pins), free) for u in own)
    members = len(a1s) - len(own)
    if quota is None or chunk_probes <= quota or not members:
        return prefixes + members * rows, members * chunk_probes, 0, 0, False
    probes = members * (quota + 1)
    if a5 is None:
        prefixes += members * (quota // (p - 4) + 1)
    else:
        a1 = np.array([u for u in a1s if u not in pinned])
        prefixes += int(_cut_rows(p, _scan_arrays(p, cfg), slots, a5, a1, quota).sum())
    return prefixes, probes, 0, 0, True


def _from_frame(p: int, inv, a1: int, a2: int, k: int, y: int) -> int:
    """The x with cross-ratio y = k (a2-x) / (a1-x), for k = (a1-a3)/(a2-a3)
    and y != k: x = (k a2 - y a1) / (k - y).  y = k is the image of x =
    infinity, and x = a1 would need y = infinity."""
    return (k * a2 - y * a1) * inv[(k - y) % p] % p


@functools.lru_cache(maxsize=1)
def _funnels(p: int, target: Target) -> dict:
    """_row_funnel's values at p, each filled the first time a row asks for
    it.  Cached for the current prime only."""
    return {}


def _twist_classes(m12: int, m34: int, m5: int, chi5: int) -> list:
    """The (e1, e2) that the mask bits m12 and m34 of the first two factor
    pairs allow and that make the fifth twist class e1 e2 chi5 one m5
    allows."""
    return [(e1, e2) for e1 in (1, -1) if m12 & (1 if e1 == 1 else 2)
            for e2 in (1, -1) if m34 & (1 if e2 == 1 else 2)
            and m5 & (1 if e1 * e2 * chi5 == 1 else 2)]


def _row_funnel(p: int, target: Target, a: int) -> list:
    """The passing (b, c, d, e, twists) of a row with cross-ratio a, an a of
    _admissible_pairs: every check of a row's (b, c) that k = cr(a1, a2,
    a3, infinity) does not enter, applied once per a.  It holds the entry's
    (b, c) with c not in {b, d} and e != b, d and e the images of a6 and
    b6; neither is 1 (a6 or b6 at a3), as that would put a Legendre
    parameter of its pair at 1, and mask[1] = 0.  twists are the (e1, e2)
    to emit, empty unless lambda5's mask is nonzero and, but for
    maximal-fp2, a twist class pair passes.  b, c, d and e are four
    distinct values, and k drops the (b, c) with k among them.  Filled once
    per a and cached per prime (_funnels)."""
    funnels = _funnels(p, target)
    if a in funnels:
        return funnels[a]
    inv, chi, _ = _tables(p)
    mask = _class_masks(p, target)
    maximal = target is Target.MAXIMAL_FP2
    frame = a * inv[(1 - a) % p] % p
    # a6 sits at d = frame (1-b) and b6 at e = frame (1-c)
    entry = [(b, bits, frame * (1 - b) % p) for b, bits in _admissible_pairs(p, target)[a]]
    passing = []
    for b, m12, d in entry:
        for c, m34, e in entry:
            # b6 must miss a5 and a6 (e = d, b6 = a6, would need c = b)
            if c == b or c == d or e == b:
                continue
            # lambda5 is a cross-ratio, so the frame keeps it, and the fifth
            # twist class is e1 e2 chi5, where chi5 = chi((b-e)(d-c)(1-b)(1-c))
            # is chi_u1 chi_u2 chi_w5 of the roots
            den = (b - e) * (d - c) % p
            m5 = mask[(b - c) * (d - e) % p * inv[den] % p]
            twists = () if not m5 else ((1, 1),) if maximal else _twist_classes(
                m12, m34, m5, chi[den * (1 - b) * (1 - c) % p])
            passing.append((b, c, d, e, twists))
    funnels[a] = passing
    return passing


@functools.lru_cache(maxsize=1)
def _pair_tuples(p: int, target: Target) -> Optional[tuple[int, ...]]:
    """t[k], the tuples of a whole pair with k = cr(a1, a2, a3, infinity),
    at a prime where no row can emit; None when some a of _admissible_pairs
    has a passing entry with twists (_row_funnel), decided at the first
    such a.  With a4 free a pair's rows take a = cr(a1, a2, a3, a4) at
    every value but 0, 1 and k once, and with a5 and b5 free a row keeps
    each of its a's passing entries that does not hold k.  So the pair
    holds the entries of every table a, less those of a = k and those that
    hold k, and no hit.  No entry of a holds a: the table holds no b = a,
    and d = a or e = a would need b = a or c = a.  Cached for the current
    prime only."""
    total, t = 0, [0] * p
    for a in _admissible_pairs(p, target):
        passing = _row_funnel(p, target, a)
        total += len(passing)
        t[a] -= len(passing)
        for *values, twists in passing:
            if twists:
                return None
            for v in values:
                t[v] -= 1
    return tuple(total + v for v in t)


def _pair_rows(p: int, arrays: _ScanArrays, a1: int, a2: int, a3: int, k: int,
               reach: int) -> list:
    """(row, a4, a) for each of the first reach rows of the pair (a2, a3) of
    chunk a1 whose cross-ratio a = cr(a1, a2, a3, a4) has admissible pairs,
    in row order; k = (a1-a3)/(a2-a3).  The rows are the a4 of the a4 order
    not in {a1, a2, a3}, row i the i-th of them.  The shorter side is
    listed: when reach is below the table's number of a values the rows are
    walked and each a is looked up, else each table a != k is mapped back
    to its a4 (_from_frame) and those in the order are sorted by position.
    No a4 in {a1, a2, a3} comes back: the table holds no a in {0, 1}, the
    images of a2 and a3, and a1 would need a = infinity."""
    inv, pairs, order, pos = _tables(p)[0], arrays.pairs, arrays.visit[3], arrays.at[3]
    if reach < len(pairs):
        rows = (x for x in order if x != a1 and x != a2 and x != a3)
        walked = ((r, x, k * (a2 - x) % p * inv[(a1 - x) % p] % p)
                  for r, x in zip(range(reach), rows))
        return [row for row in walked if row[2] in pairs]
    a4s = {a: _from_frame(p, inv, a1, a2, k, a) for a in pairs if a != k}
    found = sorted((pos[x], x, a) for a, x in a4s.items() if pos[x] < len(order))
    rows = [(t - (pos[a1] < t) - (pos[a2] < t) - (pos[a3] < t), x, a) for t, x, a in found]
    return [row for row in rows if row[0] < reach]


def _scan_chunk(p: int, cfg: SearchConfig, a1: int, quota: Optional[int],
                deadline: Optional[float]) -> tuple[list, tuple]:
    """Scan every candidate with the given a1, a value of the a1 order;
    returns (hits, stats), each hit (params, counts).

    The chunk runs pair by pair over the (a2, a3) of the a2 and a3 orders,
    a2 != a1 and a3 not in {a1, a2}.  A pair's rows are the a4 of the a4
    order not in {a1, a2, a3}, and a row's probes the a5 of the a5 order
    not in {a1, a2, a3, a4}, counted by index: p - 4 when a5 is free; with
    a5 pinned one, except none at the pair's hole, the row whose a4 is a5,
    and none at all when a5 is a1, a2 or a3.  So a pair's probes and the
    row that holds probe quota + 1 are closed forms, and the quota cut and
    the max_hits stop report the same prefixes and probes as a scan one
    probe at a time.  Only the rows whose a has admissible pairs can hold a
    survivor (_pair_rows); a row's admissible fifth roots are the b of its
    table entry mapped back to x (_from_frame), so no filter is evaluated
    at a root that cannot pass.  Each listed row keeps its funnel's passing
    (b, c, d, e) (_row_funnel) with k not among them whose b maps to a root
    in the a5 order and c to one in the b5 order, in the order of those
    positions (only the b and c of those entries are mapped, so a row
    whose entries k all drops maps none); each adds a tuple until the probe
    of its a5 passes the quota, and its twists, if any, are queued with a6
    and b6 at d and e and confirmed in batches (see the module docstring).
    With a4, a5 and b5 free every pair holds (p - 3)(p - 4) probes; when
    the quota does not cut the first pair and no passing entry of the
    prime has twists (_pair_tuples, looked up once at the chunk's start),
    each pair the quota does not cut lists no rows: it adds the tuples of
    its k.
    When deadline, a time.monotonic() value, has passed after a pair, the
    chunk confirms its queue and stops there, truncated.  The chunk whose
    a1 is the pinned a5 has no probe, so a quota never ends its scan;
    enumerate_hits counts it instead (_chunks).
    """
    inv, chi, nonres = _tables(p)
    maximal = cfg.target is Target.MAXIMAL_FP2
    arrays = _scan_arrays(p, cfg)
    _, a2s, a3s, a4s, a5s, b5s = arrays.visit
    pos4, pos5, pos_b5 = arrays.at[3:]
    n4, n5, nb5 = len(a4s), len(a5s), len(b5s)
    # the tuples of a whole pair per k (_pair_tuples), when a4, a5 and b5
    # are free, so every pair holds (p - 3)(p - 4) probes, and the quota
    # does not cut the first pair
    whole = None
    if n4 == n5 == nb5 == p and (quota is None or quota >= (p - 3) * (p - 4)):
        whole = _pair_tuples(p, cfg.target)

    prefixes = probes = tuples = confirm_failures = 0
    hits: list[tuple[HoweParams, dict]] = []
    max_hits = cfg.max_hits
    # candidates waiting for confirmation, each with the (prefixes, probes)
    # the chunk reports if it stops there
    queue: list = []
    batch = max(1, _CONFIRM_BLOCK // p)

    def flush() -> bool:
        """Confirm the queue as one batch and walk the results in order;
        returns True when the hit cap stops the chunk, with prefixes and
        probes set to where it stops."""
        nonlocal prefixes, probes, confirm_failures
        waiting = queue.copy()
        queue.clear()
        for (params, stop), counts in zip(waiting, _confirm([c for c, _ in waiting], cfg.target)):
            if counts is None:
                confirm_failures += 1
                continue
            hits.append((params, counts))
            if max_hits is not None and len(hits) >= max_hits:
                prefixes, probes = stop
                return True
        return False

    def emit(alpha1: int, alpha2: int, roots6, b5: int, b6: int, stop: tuple) -> bool:
        """Queue a candidate, and confirm the queue once it holds batch
        candidates or as many as the hit cap has room for, so no candidate
        past the cap's stop is confirmed; returns True when the chunk
        should stop."""
        queue.append((HoweParams.from_ints(p, alpha1, alpha2, roots6, (b5, b6)), stop))
        room = batch if max_hits is None else min(batch, max_hits - len(hits))
        return len(queue) >= room and flush()

    def finish(truncated: bool = False) -> tuple[list, tuple]:
        """Confirm what is queued and return (hits, stats).  The queue is
        empty after a stop, and otherwise holds fewer candidates than the
        hit cap has room for, so this never stops on the cap."""
        if queue:
            flush()
        return hits, (prefixes, probes, tuples, confirm_failures, truncated)

    for a2 in a2s:
        if a2 == a1:
            continue
        for a3 in a3s:
            if a3 == a1 or a3 == a2:
                continue
            rows = n4 - (pos4[a1] < n4) - (pos4[a2] < n4) - (pos4[a3] < n4)
            # per, a row's probes, and hole, the row without one (rows if none)
            per, hole = p - 4, rows
            if n5 == 1:
                per = int(a5s[0] not in (a1, a2, a3))
                t = pos4[a5s[0]]
                if per and t < n4:
                    hole = t - (pos4[a1] < t) - (pos4[a2] < t) - (pos4[a3] < t)
            pair_probes = rows * per - (hole < rows)
            cut = quota is not None and probes + pair_probes > quota
            reach = rows
            if cut:
                q = (quota - probes) // per
                reach = q + (hole <= q) + 1
            k = (a1 - a3) * inv[(a2 - a3) % p] % p
            if whole is not None and not cut:
                # no row can emit, so the pair is counted whole
                tuples += whole[k]
            else:
                # the a5 positions skipped by index: those of a1..a3, and a4's per row
                skip = sorted((pos5[a1], pos5[a2], pos5[a3]))
                # a pair without probes holds no survivor
                for r, a4, a in _pair_rows(p, arrays, a1, a2, a3, k, reach) if pair_probes else ():
                    start = probes + r * per - (hole < r)
                    # the passing (b, c) that k leaves, at their roots in the a5
                    # and b5 orders, in scan order; each b and c is mapped to its
                    # root once, when an entry first needs it
                    kept, root = [], {}
                    for b, c, d, e, twists in _row_funnel(p, cfg.target, a):
                        if k == b or k == c or k == d or k == e:
                            continue
                        a5 = root.get(b)
                        if a5 is None:
                            a5 = root[b] = _from_frame(p, inv, a1, a2, k, b)
                        b5 = root.get(c)
                        if b5 is None:
                            b5 = root[c] = _from_frame(p, inv, a1, a2, k, c)
                        if pos5[a5] < n5 and pos_b5[b5] < nb5:
                            kept.append((pos5[a5], pos_b5[b5], a5, b5, b, c, d, e, twists))
                    kept.sort()
                    at4 = pos5[a4]
                    for j, _, a5, b5, b, c, d, e, twists in kept:
                        probe = start + j + 1 - bisect_left(skip, j) - (at4 < j)
                        if cut and probe > quota:
                            break
                        tuples += 1
                        if not twists:
                            continue
                        a6, b6 = (_from_frame(p, inv, a1, a2, k, y) for y in (d, e))
                        base6 = (a1, a2, a3, a4, a5, a6)
                        chi_u1 = chi_u2 = 1
                        if not maximal:
                            g = (a2 - a3) * (a1 - a4) * inv[(1 - a) % p] % p
                            chi_u1 = chi[g * (a1 - a5) * (a1 - a6) * (1 - b) % p]
                            chi_u2 = chi[g * (a1 - b5) * (a1 - b6) * (1 - c) % p]
                        for e1, e2 in twists:
                            alpha1 = 1 if e1 * chi_u1 == 1 else nonres
                            alpha2 = 1 if e2 * chi_u2 == 1 else nonres
                            if emit(alpha1, alpha2, base6, b5, b6, (prefixes + r + 1, probe)):
                                return finish()
                if cut:
                    prefixes += reach
                    probes = quota + 1
                    return finish(truncated=True)
            prefixes += rows
            probes += pair_probes
            if deadline is not None and time.monotonic() > deadline:
                return finish(truncated=True)
    return finish()


def _chunks(p: int, cfg: SearchConfig, quota: Optional[int],
            deadline: Optional[float]) -> Iterator[tuple]:
    """(position in the a1 order, hits, stats) of the prime's chunks, in
    a1 order.  A chunk without a survivor is counted (_count_chunks), not
    scanned: every chunk of a prime without admissible pairs, or of a prime
    where a5 is pinned to the residue of a pinned a1, a2, a3 or a4, all in
    one, and the chunk whose a1 is the pinned a5; none of these has a
    probe."""
    *prefix, a5 = map(cfg.fixed_value, ENUMERATED_SLOTS[:5])
    if not _admissible_pairs(p, cfg.target) or a5 is not None and any(
            v is not None and (v - a5) % p == 0 for v in prefix):
        a1 = prefix[0]
        yield 0, [], _count_chunks(p, cfg, range(p) if a1 is None else (a1 % p,), quota)
        return
    a1s, a5s = (_visit_orders(p, cfg)[s] for s in (0, 4))
    for pos, a1 in enumerate(a1s):
        if a5s == (a1,):
            yield pos, [], _count_chunks(p, cfg, (a1,), quota)
        else:
            yield pos, *_scan_chunk(p, cfg, a1, quota, deadline)


def enumerate_hits(config: SearchConfig, stats: Optional[SearchStats] = None) -> Iterator[SearchHit]:
    """Confirmed hits in enumeration order, yielded as each chunk is scanned;
    stats, when given, is kept up to date as the search runs."""
    stats = SearchStats() if stats is None else stats
    t0 = time.monotonic()
    deadline = None if config.time_budget is None else t0 + config.time_budget
    try:
        for p in primes_in(config.p_min, config.p_max):
            stats.primes += 1
            quota = None
            if config.max_candidates is not None:
                chunks = p if config.fixed_value("a1") is None else 1
                quota = -(-config.max_candidates // chunks)
            left = config.max_hits
            for pos, chunk_hits, chunk_stats in _chunks(p, config, quota, deadline):
                prefixes, probes, tuples, confirm_failures, truncated = chunk_stats
                stats.prefixes += prefixes
                stats.probes += probes
                stats.tuples += tuples
                stats.confirm_failures += confirm_failures
                stats.truncated = stats.truncated or truncated
                kept = chunk_hits[:left]
                for seq, (params, counts) in enumerate(kept):
                    stats.hits += 1
                    yield SearchHit(
                        params=params,
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
# isomorphism keys


def orbit_key(params: HoweParams) -> tuple[int, ...]:
    """(p, a, b, c, chi(theta12), chi(theta34)) of decompose_genus5(params):
    the cross-ratios and the twist classes of the first two factor pairs.
    Both are invariant under a Moebius map of the roots that rescales the
    twists to match, so isomorphic parameter sets share their key."""
    split = howe_factory.decompose_genus5(params)
    p = params.mod.p
    return (p, split.a, split.b, split.c,
            legendre_symbol(p, split.curves[0].theta), legendre_symbol(p, split.curves[2].theta))
