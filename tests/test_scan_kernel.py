"""The pair-by-pair scan kernel against the scalar reference kernel
(scalar_kernel.py), its table of admissible cross-ratio pairs against the
forward formula, and the benchmark's scan reference totals."""

import collections
import importlib.util
import itertools
import json
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scalar_kernel
from conftest import ROW_P11, ROW_P37, ROW_P499
from howe5 import search_engine
from howe5.field_arith import residue_tables
from howe5.search_engine import (
    SearchConfig,
    Target,
    _admissible_pairs,
    _tables,
    _visit_orders,
    primes_in,
    run_search,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = Path(__file__).resolve().parents[1] / "src"

PINS = {
    "free": (),
    "a5": (("a5", 3),),
    "a5+a2": (("a5", 3), ("a2", 5)),
    "b5+a4": (("b5", 2), ("a4", 5)),
    "a2+a3": (("a2", 1), ("a3", 0)),
}


def _quick_confirm(batch, target):
    """A stand-in for _confirm, with its batch signature, that rejects about
    a third of the candidates, so that the comparison covers the order of
    emitted hits and the failure count, under a hit cap too, without point
    counts."""
    return [None if sum(params.row()) % 3 == 0 else {1: sum(params.row())}
            for params in batch]


def _same_chunk(p, cfg, a1, quota):
    want = scalar_kernel._scan_chunk(p, cfg, a1, quota)
    got = search_engine._scan_chunk(p, cfg, a1, quota, None)
    assert got == want, (p, cfg, a1, quota)


@pytest.fixture
def quick_confirm(monkeypatch):
    monkeypatch.setattr(search_engine, "_confirm", _quick_confirm)
    monkeypatch.setattr(scalar_kernel, "_confirm", _quick_confirm)


@pytest.mark.parametrize("fixed", PINS.values(), ids=PINS.keys())
@pytest.mark.parametrize("target", list(Target), ids=lambda t: t.value)
def test_kernel_matches_scalar_oracle(quick_confirm, target, fixed):
    # Quotas 1, p - 4 and 2(p - 4) end on the first probe and on row
    # boundaries (a row holds p - 4 probes when a5 is free).  Capped chunks
    # run for the first two a1 and for each a1 that equals a pinned value;
    # chunks without a quota, which the scalar kernel takes long over, for
    # the first a1, without a hit cap and in the unseeded order, and for
    # the a1 equal to a pinned a5, whose chunk has no probe.
    pinned = {v for _, v in fixed}
    for p in primes_in(target.min_prime, 23):
        quotas = sorted({q for q in (1, p - 4, 2 * (p - 4)) if q >= 1})
        for seed in (None, 5):
            for max_hits in (None, 1, 2):
                cfg = SearchConfig(p, p, target, max_hits=max_hits, seed=seed, fixed=fixed)
                chunks = list(enumerate(_visit_orders(p, cfg)[0]))
                for pos, a1 in chunks:
                    if pos < 2 or a1 in pinned:
                        for quota in quotas:
                            _same_chunk(p, cfg, a1, quota)
                    if a1 == cfg.fixed_value("a5"):
                        _same_chunk(p, cfg, a1, None)
                if seed is max_hits is None:
                    _same_chunk(p, cfg, chunks[0][1], None)


@pytest.mark.parametrize("target,p", [
    (Target.MAXIMAL_FP2, 11),
    (Target.SERRE_FP, 17),
    (Target.SERRE_FP3, 13),
], ids=lambda v: getattr(v, "value", v))
def test_quota_and_hit_cap_across_pairs(quick_confirm, target, p):
    # quotas every 7 probes up to 12 rows' worth, so that quota cuts and
    # hit-cap stops fall on every row of the first (a2, a3) pairs and in
    # later pairs (at p = 11 about one maximal-fp2 probe in ten emits)
    for max_hits in (None, 1, 2, 40):
        cfg = SearchConfig(p, p, target, max_hits=max_hits, seed=5)
        for a1 in _visit_orders(p, cfg)[0][:2]:
            quotas = range(1, 12 * (p - 4), 7)
            for quota in [*quotas, None] if max_hits else quotas:
                _same_chunk(p, cfg, a1, quota)


@pytest.mark.parametrize("target", list(Target), ids=lambda t: t.value)
def test_kernel_matches_scalar_oracle_past_the_first_pair(quick_confirm, target):
    # At p = 101 a pair has 98 rows of 97 probes, and of the targets only
    # serre-fp3 has admissible pairs, with 83 a values.  In the unseeded
    # order the first chunk's first a3 equals its first a2 and is skipped.
    # Quotas 1 and p - 4 reach one and two rows and walk them; quota 10^4
    # lists the first pair from the table and walks the 6 rows it reaches
    # of the second.
    p = 101
    for seed in (None, 5):
        cfg = SearchConfig(p, p, target, seed=seed)
        for a1 in _visit_orders(p, cfg)[0][:2]:
            for quota in (1, p - 4, 10_000):
                _same_chunk(p, cfg, a1, quota)


@pytest.mark.parametrize("fixed", [(), (("a2", 5),)], ids=["free", "a2"])
@pytest.mark.parametrize("target,p,quotas", [
    (Target.MAXIMAL_FP2, 11, (1, 7, 60, None)),
    (Target.SERRE_FP, 17, (1, 13, 120, 2000)),
    (Target.SERRE_FP, 173, (1, 169, 1200)),
    (Target.SERRE_FP3, 13, (1, 9, 80, None)),
], ids=lambda v: getattr(v, "value", v))
def test_kernel_matches_scalar_oracle_on_every_chunk(
        quick_confirm, target, p, quotas, fixed):
    # Every chunk of the prime, in a1 order as enumerate_hits scans them.  A
    # pair's rows are listed by walking them when the quota reaches fewer
    # rows than the table has a values, else from the table.  At p = 11
    # (maximal-fp2, 5 a values, 8 rows of 7 probes a pair) quotas
    # 1 and 7 reach 1 and 2 rows and walk; quota 60 lists the first pair
    # from the table and walks the second, where it cuts on row 0; no quota
    # lists every pair from the table.  The unseeded order skips every
    # chunk's first a3, which equals its first a2.  With a2 pinned to 5 the
    # chunk a1 = 5 has no pair.  At p = 173 serre-fp has no admissible
    # pair, so the chunks only count probes.
    for seed in (None, 5):
        for max_hits in (None, 2):
            cfg = SearchConfig(p, p, target, max_hits=max_hits, seed=seed, fixed=fixed)
            for quota in quotas:
                for a1 in _visit_orders(p, cfg)[0]:
                    _same_chunk(p, cfg, a1, quota)


def _record(monkeypatch, name):
    """The (arguments, result) of the calls of search_engine's function
    name from now on, in call order."""
    calls = []
    real = getattr(search_engine, name)

    def recorded(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    monkeypatch.setattr(search_engine, name, recorded)
    return calls


def _record_scans(monkeypatch, p, target):
    """The a of each row whose funnel entries search_engine scans from now
    on at p, in scan order.  The prime's whole-pair sums (_pair_tuples),
    which read every funnel once, are formed first, so only rows count."""
    search_engine._pair_tuples(p, target)
    scans = []
    real = search_engine._row_funnel

    class Entries(list):
        def __iter__(self):
            scans.append(self.a)
            return super().__iter__()

    def funnel(p, target, a):
        entries = Entries(real(p, target, a))
        entries.a = a
        return entries

    monkeypatch.setattr(search_engine, "_row_funnel", funnel)
    return scans


def _listed_rows(p, cfg, a1, count):
    """The indices, over the rows of chunk a1 in scan order, of its first
    count rows whose cross-ratio a has admissible pairs."""
    inv, pairs = _tables(p)[0], _admissible_pairs(p, cfg.target)
    _, a2s, a3s, a4s, _, _ = _visit_orders(p, cfg)
    rows = ((a2, a3, a4) for a2 in a2s for a3 in a3s for a4 in a4s
            if len({a1, a2, a3, a4}) == 4)
    found = []
    for row, (a2, a3, a4) in enumerate(rows):
        if (a1 - a3) * (a2 - a4) * inv[(a2 - a3) * (a1 - a4) % p] % p in pairs:
            found.append(row)
            if len(found) == count:
                break
    return found


@pytest.mark.parametrize("fixed", [(), (("a4", 5),)], ids=["free", "a4"])
@pytest.mark.parametrize("target,p", [
    (Target.MAXIMAL_FP2, 19),
    (Target.MAXIMAL_FP2, 67),
    (Target.SERRE_FP, 89),
    (Target.SERRE_FP, 233),
], ids=lambda v: getattr(v, "value", v))
def test_counted_rows_match_the_scalar_kernel(monkeypatch, target, p, fixed):
    # At these primes no row can emit, and each listed row walks its
    # funnel's entries, whether the quota cuts inside it or not.  Per chunk,
    # one quota ends exactly at the end of the first listed row, one a probe
    # short of it, and one cuts the second in its middle; a row has p - 4
    # probes.  With a4 pinned to 5 the chunk a1 = 5 has no row.  Without a
    # quota the scalar kernel walks a chunk's probes one by one, too many
    # but at p = 19, and there with a4 free only for the first two chunks,
    # whose pairs are counted whole and list no row.  At p = 233 the first
    # listed row is about the 33rd, so only the first chunks run.  Every
    # listed row, and no other, iterates its funnel's entries, once and in
    # list order.
    scanned = _record_scans(monkeypatch, p, target)
    listed = _record(monkeypatch, "_pair_rows")
    per, chunks = p - 4, 24 if p > 200 else p
    for seed in (None, 3):
        cfg = SearchConfig(p, p, target, seed=seed, fixed=fixed)
        for pos, a1 in enumerate(_visit_orders(p, cfg)[0][:chunks]):
            rows = _listed_rows(p, cfg, a1, 2)
            quotas = [q for r in rows[:1] for q in ((r + 1) * per - 1, (r + 1) * per)]
            quotas += [r * per + per // 2 for r in rows[1:]]
            if p < 20 and (fixed or pos < 2):
                quotas.append(None)
            for quota in quotas:
                scanned.clear()
                listed.clear()
                _same_chunk(p, cfg, a1, quota)
                assert scanned == [a for _, rows in listed for *_, a in rows], (seed, a1, quota)


# primes with admissible pairs where no row can emit
DEAD = [(Target.MAXIMAL_FP2, 19), (Target.MAXIMAL_FP2, 67), (Target.SERRE_FP, 89),
        (Target.SERRE_FP, 181)]


@pytest.mark.parametrize("target,p,part", [
    *((target, p, None) for target, p in DEAD[:3]),
    *((Target.SERRE_FP, 181, part) for part in range(4)),
], ids=[f"{t.value}-{p}" for t, p in DEAD[:3]] + [f"serre-fp-181-k%4={i}" for i in range(4)])
def test_whole_pairs_at_dead_primes_match_the_scalar_kernel(monkeypatch, target, p, part):
    # The chunk with a2 = 0 and a3 = 1 pinned and a1 = 1 - k has one pair,
    # and its cross-ratio cr(a1, a2, a3, infinity) = (a1 - a3) / (a2 - a3)
    # is k, for each k outside {0, 1}.  No row can emit here, so without a
    # quota the pair is counted whole from its k and lists no row and scans
    # no funnel.  The scalar kernel takes about 30 ms a chunk at p = 181, so
    # there the k are split in four parts by k mod 4.
    listed = _record(monkeypatch, "_pair_rows")
    scanned = _record_scans(monkeypatch, p, target)
    cfg = SearchConfig(p, p, target, fixed=(("a2", 0), ("a3", 1)))
    for k in range(2, p):
        if part is None or k % 4 == part:
            _same_chunk(p, cfg, (1 - k) % p, None)
    assert search_engine._pair_tuples(p, target) is not None
    assert not listed and not scanned


@pytest.mark.parametrize("target,p", [*DEAD, (Target.MAXIMAL_FP2, 23)],
                         ids=lambda v: getattr(v, "value", v))
def test_quotas_at_pair_boundaries(quick_confirm, monkeypatch, target, p):
    # With a4 and a5 free every pair holds (p - 3)(p - 4) probes.  Quotas
    # one short of i pairs, of exactly i pairs and one past, for i = 1, 2,
    # cut the i-th pair or the next one in its first row.  At a dead prime
    # the pairs before the cut are counted whole, so only the cut pair lists
    # its rows; at maximal-fp2 p = 23, where some rows emit, every pair the
    # chunk reaches lists them.  Every chunk below 30, else the first two of
    # each order.
    listed = _record(monkeypatch, "_pair_rows")
    dead = (target, p) in DEAD
    size = (p - 3) * (p - 4)
    for seed in (None, 3):
        cfg = SearchConfig(p, p, target, seed=seed)
        for a1 in _visit_orders(p, cfg)[0][:None if p < 30 else 2]:
            for i in (1, 2):
                for quota in (i * size - 1, i * size, i * size + 1):
                    listed.clear()
                    _same_chunk(p, cfg, a1, quota)
                    reached = i + (quota >= i * size)
                    assert len(listed) == (1 if dead else reached), (seed, a1, quota)
    assert (search_engine._pair_tuples(p, target) is None) == (not dead)


def test_an_uncapped_chunk_at_a_dead_prime_counts_whole_pairs():
    # serre-fp has admissible pairs at 181 but no row that can emit, so each
    # of the 179 * 178 pairs of the chunk is counted whole; counting its
    # rows one by one took about 0.45 s
    t0 = time.perf_counter()
    hits, stats = run_search(SearchConfig(181, 181, Target.SERRE_FP, fixed=(("a1", 0),),
                                          max_hits=10**6))
    assert time.perf_counter() - t0 < 0.25
    assert (len(hits), stats.tuples) == (0, 501120)


@pytest.mark.parametrize("target,p,kinds", [
    (Target.MAXIMAL_FP2, 19, {False}),
    (Target.MAXIMAL_FP2, 23, {False, True}),
    (Target.SERRE_FP3, 37, {False, True}),
    (Target.SERRE_FP3, 67, {False, True}),
], ids=["maximal-fp2-19", "maximal-fp2-23", "serre-fp3-37", "serre-fp3-67"])
def test_row_funnel_matches_the_scalar_kernel_on_every_row(monkeypatch, target, p, kinds):
    # For each a of the table and each k = cr(a1, a2, a3, infinity) outside
    # {0, 1, a}, the one row with a2 = 0, a3 = 1, a1 = 1 - k and a4 =
    # a a1 / (a - k), scanned by the scalar kernel with every candidate
    # confirmed: with n the passing entries, hist[v] those that hold v and
    # live whether one has twists, n - hist[k] is the row's tuples, live or
    # not, and its hits are the twists of the passing entries that k leaves,
    # so some k's row emits exactly when the funnel is live.  No a is live
    # at maximal-fp2 p = 19; at the other primes some are and some are not,
    # and at serre-fp3 p = 67 some that are not have entries whose lambda5
    # is admissible but no twist class pair.
    monkeypatch.setattr(scalar_kernel, "_confirm", lambda batch, target: [{}] * len(batch))
    inv = _tables(p)[0]
    seen = set()
    for a in _admissible_pairs(p, target):
        passing = search_engine._row_funnel(p, target, a)
        n = len(passing)
        hist = collections.Counter(v for *values, _ in passing for v in values)
        live = any(twists for *_, twists in passing)
        assert all(len(set(values)) == 4 for *values, _ in passing)
        emits = False
        for k in range(2, p):
            if k == a:
                continue
            a1 = (1 - k) % p
            a4 = a * a1 * inv[(a - k) % p] % p
            cfg = SearchConfig(p, p, target, fixed=(("a2", 0), ("a3", 1), ("a4", a4)))
            hits, (prefixes, _, tuples, _, _) = scalar_kernel._scan_chunk(p, cfg, a1, None)
            assert prefixes == 1
            emits = emits or bool(hits)
            assert tuples == n - hist[k], (a, k)
            twists = sum(len(t) for *values, t in passing if k not in values)
            assert len(hits) == twists, (a, k)
        assert live == emits, a
        seen.add(emits)
    assert seen == kinds


def test_a5_pinned_search_skips_the_chunk_without_probes():
    # the chunk a1 = 3 holds 102 * 101 * 100 of the prefixes and no probe;
    # walking its rows took about 0.2 s
    t0 = time.perf_counter()
    _, stats = run_search(SearchConfig(103, 103, Target.SERRE_FP, max_candidates=1000,
                                       fixed=(("a5", 3),)))
    assert time.perf_counter() - t0 < 0.1
    assert (stats.prefixes, stats.probes, stats.tuples) == (1031424, 1122, 0)


@pytest.mark.parametrize("fixed", PINS.values(), ids=PINS.keys())
@pytest.mark.parametrize("target,p", [
    (Target.MAXIMAL_FP2, 11),
    (Target.SERRE_FP, 181),
    (Target.SERRE_FP, 17),
    (Target.SERRE_FP, 173),
    (Target.SERRE_FP3, 13),
    (Target.MAXIMAL_FP2, 13),
], ids=lambda v: getattr(v, "value", v))
def test_counted_chunks_match_the_block_scan(quick_confirm, target, p, fixed):
    # Every chunk's prefixes, probes and cut, counted and scanned, at primes
    # with admissible pairs (11 and 181 here) and without.  Quotas 1 and
    # p - 4 cut in the first (a2, a3) pair, and the later quota (48 rows'
    # probes, or 1024 probes with a5 pinned, where a row has at most one)
    # further on or not at all; without a quota, at the small primes, the
    # scan runs through every pair.  The chunk whose a1 is the pinned a5 has
    # no probe, so its scan runs through every pair whatever the quota.
    later = 1024 if "a5" in dict(fixed) else 48 * (p - 4)
    quotas = (1, p - 4, later) + ((None,) if p < 100 else ())
    for seed in (None, 5):
        cfg = SearchConfig(p, p, target, seed=seed, fixed=fixed)
        for a1 in _visit_orders(p, cfg)[0]:
            for quota in quotas:
                _, stats = search_engine._scan_chunk(p, cfg, a1, quota, None)
                prefixes, probes, _, _, cut = stats
                counted = search_engine._count_chunks(p, cfg, (a1,), quota)
                assert counted == (prefixes, probes, 0, 0, cut), (seed, a1, quota)


def test_search_counts_the_chunk_without_probes_at_a_prime_with_pairs(monkeypatch):
    # serre-fp has admissible pairs at 181, so its chunks are scanned, all
    # but the chunk a1 = 3 = a5, which has no probe and is counted
    scanned = []
    real = search_engine._scan_chunk

    def recorded(p, cfg, a1, *args):
        scanned.append(a1)
        return real(p, cfg, a1, *args)

    monkeypatch.setattr(search_engine, "_scan_chunk", recorded)
    t0 = time.perf_counter()
    _, stats = run_search(SearchConfig(181, 181, Target.SERRE_FP, max_candidates=1000,
                                       fixed=(("a5", 3),)))
    assert time.perf_counter() - t0 < 1
    assert len(scanned) == 180 and 3 not in scanned
    assert stats.prefixes > 180 * 179 * 178


_UNPAIRED = [(Target.SERRE_FP, p) for p in (17, 19, 23, 29)] + [
    (Target.MAXIMAL_FP2, p) for p in (3, 5, 7, 13, 17)] + [
    (Target.SERRE_FP3, p) for p in (11, 13, 17, 19)]


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_fill_matches_enumeration(p):
    # the fillings of pinned and free slots by pairwise distinct residues
    # that avoid taken further residues, none of them a pin; pins may repeat
    # a residue, and taken may exceed the residues left
    for n in range(4):
        for pins in itertools.product(range(3), repeat=n):
            for free in range(4 - n):
                for taken in range(5):
                    avoid = set([x for x in range(p) if x not in pins][:taken])
                    want = sum(len({*pins, *xs}) == n + free and avoid.isdisjoint(xs)
                               for xs in itertools.product(range(p), repeat=free))
                    assert search_engine._fill(p, pins, free, taken) == want, (pins, free, taken)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_UNPAIRED),
       st.dictionaries(st.sampled_from(search_engine.ENUMERATED_SLOTS), st.integers(0, 40),
                       max_size=4),
       st.one_of(st.none(), st.integers(0, 9)),
       st.one_of(st.none(), st.integers(1, 20_000)))
def test_counted_primes_match_the_chunk_scans(case, pins, seed, max_candidates):
    # A prime without admissible pairs is counted whole; its statistics are
    # the sums of the scans of its chunks.
    target, p = case
    cfg = SearchConfig(p, p, target, max_candidates=max_candidates, seed=seed,
                       fixed=tuple(pins.items()))
    chunks = _visit_orders(p, cfg)[0]
    quota = None if max_candidates is None else -(-max_candidates // len(chunks))
    want = [0, 0, 0, 0, False]
    for a1 in chunks:
        hits, chunk_stats = search_engine._scan_chunk(p, cfg, a1, quota, None)
        assert not hits
        want = [w + v for w, v in zip(want[:4], chunk_stats[:4])] + [want[4] or chunk_stats[4]]
    hits, stats = run_search(cfg)
    assert not hits
    got = [stats.prefixes, stats.probes, stats.tuples, stats.confirm_failures, stats.truncated]
    assert got == want


@settings(max_examples=400)
@given(st.sampled_from([11, 23, 37, 101, 173]).flatmap(lambda p: st.tuples(
    st.just(p), st.lists(st.integers(0, p - 1), min_size=6, max_size=6, unique=True))))
def test_frame_roots_match_the_linear_solve(case):
    """For distinct a1..a5 and b5, a6 = x(d) and b6 = x(e) in the frame y =
    cr(a1, a2, a3, x) equal the reference kernel's linear solve, None
    included; lambda5 of the roots equals lambda5 of b, c, d and e, since a
    Moebius map keeps cross-ratios; and the reference kernel's fifth twist
    class chi_u1 chi_u2 chi_w5 equals chi((b-e)(d-c)(1-b)(1-c))."""
    p, (a1, a2, a3, a4, a5, b5) = case
    inv, chi, _ = search_engine._tables(p)
    k = (a1 - a3) * inv[(a2 - a3) % p] % p
    a, b, c = (k * (a2 - x) % p * inv[(a1 - x) % p] % p for x in (a4, a5, b5))
    frame = a * inv[(1 - a) % p] % p
    (a6, d), (b6, e) = found = [
        (None if y in (1, k) else search_engine._from_frame(p, inv, a1, a2, k, y), y)
        for y in (frame * (1 - b) % p, frame * (1 - c) % p)]
    for w, (x, _) in zip((a5, b5), found):
        assert x == scalar_kernel.solve_missing_root(a1, a2, a3, a4, w, p, inv)
    if None not in (a6, b6) and len({a5, a6, b5, b6}) == 4:
        lam5 = (a5 - b5) * (a6 - b6) % p * inv[(a5 - b6) * (a6 - b5) % p] % p
        assert lam5 == (b - c) * (d - e) % p * inv[(b - e) * (d - c) % p] % p
        g = (a2 - a3) * (a1 - a4) * inv[(1 - a) % p]
        chi_u1 = chi[g * (a1 - a5) * (a1 - a6) * (1 - b) % p]
        chi_u2 = chi[g * (a1 - b5) * (a1 - b6) * (1 - c) % p]
        chi_w5 = chi[(a5 - b6) * (a6 - b5) % p]
        assert chi_u1 * chi_u2 * chi_w5 == chi[(b - e) * (d - c) * (1 - b) * (1 - c) % p]


@pytest.mark.parametrize("target,p,max_candidates,seed", [
    (Target.SERRE_FP, 181, 300_000, 1),
    (Target.SERRE_FP, 1187, 10_000, 1),
    (Target.MAXIMAL_FP2, 1031, 1031, None),
], ids=["scan-181", "tiny-1187", "unseeded-1031"])
def test_small_quotas_take_a_few_pairs_per_prime(target, p, max_candidates, seed):
    """The benchmark's scan settings at p = 181, a tiny quota at p = 1187
    (ten probes per chunk) and one probe per chunk in the unseeded order,
    where every chunk skips its first a3, which equals its first a2: the
    hits and totals are the scalar kernel's."""
    cfg = SearchConfig(p, p, target, max_candidates=max_candidates, seed=seed)
    hits, stats = run_search(cfg)
    quota = -(-max_candidates // p)
    want_rows, want = [], [0] * 5
    for a1 in _visit_orders(p, cfg)[0]:
        chunk_hits, chunk_stats = scalar_kernel._scan_chunk(p, cfg, a1, quota)
        want_rows += [params.row() for params, _ in chunk_hits]
        want = [w + v for w, v in zip(want, chunk_stats)]
    assert [h.row() for h in hits] == want_rows
    got = (stats.prefixes, stats.probes, stats.tuples, stats.confirm_failures)
    assert got == tuple(want[:4]) and stats.truncated == bool(want[4])


def test_one_probe_per_chunk_skips_the_a3_equals_a2_run():
    # unseeded, so every chunk's first a3 equals its first a2
    t0 = time.perf_counter()
    hits, stats = run_search(SearchConfig(1031, 1031, Target.MAXIMAL_FP2, max_candidates=1031))
    assert time.perf_counter() - t0 < 2
    assert (len(hits), stats.probes, stats.prefixes) == (5, 2062, 1031)


def test_a_quota_of_one_row_walks_it_past_a_large_table():
    # The table has 6905 a values at p = 10007 and the quota of 100 probes
    # reaches one row per chunk, so each pair's row is walked; mapping the
    # whole table back per pair took about 10 s.
    t0 = time.perf_counter()
    hits, stats = run_search(SearchConfig(10007, 10007, Target.MAXIMAL_FP2,
                                          max_candidates=1_000_000, max_hits=5, seed=3))
    assert time.perf_counter() - t0 < 1
    assert (len(hits), stats.prefixes, stats.probes, stats.tuples) == (5, 1220, 123220, 243)


@pytest.mark.parametrize("target", list(Target), ids=lambda t: t.value)
@pytest.mark.parametrize("p", [11, 23, 181])
def test_pair_masks_match_scalar_filters(target, p):
    """The fifth roots a row's admissible pairs give, each table b != k
    mapped back to its x (_from_frame), with their mask bits and
    cross-ratios b, against the scalar a5 filter at every x: a root absent
    from the row has bits 0, including every x in {a1, a2, a3, a4}."""
    rng = random.Random(p)
    inv, sqrt_tab = search_engine._tables(p)[0], residue_tables(p).sqrt
    mask = search_engine._class_masks(p, target)
    pairs = search_engine._admissible_pairs(p, target)
    for _ in range(20):
        a1, a2, a3, a4 = rng.sample(range(p), 4)
        d_a23 = (a2 - a3) % p
        want_k = (a1 - a3) * inv[d_a23] % p
        want_a = (a1 - a3) * (a2 - a4) % p * inv[d_a23 * (a1 - a4) % p] % p
        want, want_b = [], []
        for x in range(p):
            b = (a1 - a3) * (a2 - x) % p * inv[d_a23 * (a1 - x) % p] % p
            s = sqrt_tab[want_a * (want_a - b) % p]
            pref = (1 - want_a) * inv[(b - 1) % p] % p
            bits = mask[pref * (b - 2 * want_a + 2 * s) % p] & mask[pref * (b - 2 * want_a - 2 * s) % p]
            want.append(0 if s == 0 or x in (a1, a2, a3, a4) else bits)
            want_b.append(b)
        roots = [(search_engine._from_frame(p, inv, a1, a2, want_k, b), bits, b)
                 for b, bits in pairs.get(want_a, ()) if b != want_k]
        got = {x: (bits, b) for x, bits, b in roots}
        assert len(got) == len(roots)
        assert [got.get(x, (0,))[0] for x in range(p)] == want
        assert all(b == want_b[x] for x, (_, b) in got.items())
        # the one row (a2, a3, a4) of chunk a1 of a search with a2, a3 and a4
        # pinned is listed, with its a4 and a, exactly when its a has
        # admissible pairs, by walking the row (reach 1, below the table's 5
        # a values at p = 11 and 15 at 23) and from the table (reach its
        # size); a maximal-fp2 search, since serre-fp needs p >= 17 (at 181
        # maximal-fp2 has no table entry, so both lists are empty)
        cfg = SearchConfig(p, p, Target.MAXIMAL_FP2, fixed=(("a2", a2), ("a3", a3), ("a4", a4)))
        table = search_engine._admissible_pairs(p, Target.MAXIMAL_FP2)
        listed = [(0, a4, want_a)] if want_a in table else []
        order, pos = _visit_orders(p, cfg)[3], search_engine._positions(p, cfg)[3]
        for reach in (1, max(1, len(table))):
            assert search_engine._pair_rows(p, table, order, pos, a1, a2, a3, want_k,
                                            reach) == listed


def _forward_pairs(p, target):
    """{(a, b): bits} over all of F_p x F_p by the forward formula, where
    bits = mask[lam1] & mask[lam2] is nonzero and s exists."""
    t = residue_tables(p)
    mask = np.array(search_engine._class_masks(p, target), dtype=np.int64)
    a, b = np.arange(p)[:, None], np.arange(p)[None, :]
    s = t.sqrt[a * (a - b) % p]
    pref = (1 - a) * t.inv[(b - 1) % p] % p
    bits = mask[pref * (b - 2 * a + 2 * s) % p] & mask[pref * (b - 2 * a - 2 * s) % p]
    bits[s == 0] = 0
    ia, ib = np.nonzero(bits)
    return dict(zip(zip(ia.tolist(), ib.tolist()), bits[ia, ib].tolist()))


@pytest.mark.parametrize("target", list(Target), ids=lambda t: t.value)
def test_admissible_pairs_match_forward_table(target):
    """The backward solve finds every admissible (a, b) and no other, with
    its bits, once and sorted by b, at every prime up to 400."""
    for p in primes_in(target.min_prime, 400):
        pairs = search_engine._admissible_pairs(p, target)
        got = {(a, b): bits for a, row in pairs.items() for b, bits in row}
        assert got == _forward_pairs(p, target), p
        # each row nonempty, its b strictly increasing
        assert all(row and all(x[0] < y[0] for x, y in zip(row, row[1:]))
                   for row in pairs.values())


@pytest.mark.parametrize("p,target,total", [
    (1187, Target.SERRE_FP, 72),
    (10007, Target.MAXIMAL_FP2, 35112),
    (10007, Target.SERRE_FP3, 4224),
], ids=lambda v: getattr(v, "value", v))
def test_admissible_pair_totals(p, target, total):
    assert sum(map(len, search_engine._admissible_pairs(p, target).values())) == total


def test_search_leaves_numpy_ma_unimported():
    """np.unique imports numpy.ma in numpy 2.4, which raises a search's peak
    memory by about 1.5 MB; neither the command-line module nor a search
    may import it.  A search runs in the calling process whatever the
    environment says, so it imports no process-pool module either."""
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r})\n"
        "import howe5.cli\n"
        "from howe5.search_engine import SearchConfig, run_search\n"
        "run_search(SearchConfig(17, 40, 'serre-fp', max_candidates=20000, seed=1))\n"
        "run_search(SearchConfig(3, 13, 'maximal-fp2', max_candidates=20000, max_hits=2))\n"
        "for name in ('numpy.ma', 'multiprocessing', 'concurrent.futures'):\n"
        "    print(name, name in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-I", "-c", code], env={"HOWE_THREADS": "2"},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        "numpy.ma", "False", "multiprocessing", "False", "concurrent.futures", "False"]


@pytest.mark.parametrize("row,target", [
    (ROW_P499, Target.SERRE_FP),
    (ROW_P11, Target.MAXIMAL_FP2),
    (ROW_P37, Target.SERRE_FP3),
], ids=["p499", "p11", "p37"])
def test_kernel_matches_scalar_oracle_on_table_rows(row, target):
    # the chunk and prefix of a bundled record curve, with the real
    # confirmation: the hits go through the twist classes of every target
    p, _, _, a, _ = row
    fixed = (("a2", a[1]), ("a3", a[2]), ("a4", a[3]))
    for max_hits in (None, 1):
        cfg = SearchConfig(p, p, target, max_hits=max_hits, fixed=fixed)
        for quota in (p // 2, None):
            want = scalar_kernel._scan_chunk(p, cfg, a[0], quota)
            if quota is max_hits is None:
                assert any(params.row()[3:9] == a for params, _ in want[0])
            assert search_engine._scan_chunk(p, cfg, a[0], quota, None) == want


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


@pytest.mark.parametrize("seed", [0, 7, 41, 99])
def test_scan_reference_totals(seed):
    """The benchmark's tiny scan, one search per prime as the benchmark runs
    it, gives the prefix, probe and tuple totals it records for the seed."""
    cfg = _workloads().config("scan", seed, "tiny")
    want = json.loads((PERFBENCH / "reference.json").read_text())["scan"]["tiny"][str(cfg["seed"])]
    totals = dict.fromkeys(want, 0)
    for p in primes_in(cfg["p_min"], cfg["p_max"]):
        _, stats = run_search(SearchConfig(p, p, cfg["target"],
                                           max_candidates=cfg["max_candidates"], seed=cfg["seed"]))
        for k in totals:
            totals[k] += getattr(stats, k)
    assert totals == want
