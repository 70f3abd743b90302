import json
import random
import time

import pytest

import scalar_kernel
from conftest import ROW_P11, ROW_P37, ROW_P499, random_valid_params
from howe5 import hasse_serre, howe_factory, search_engine, tables
from howe5.field_arith import PRIME_CAP, TABLE_CACHE, residue_tables
from howe5.hasse_serre import (
    LegendreCurve,
    attains_serre_fp,
    attains_serre_fp3,
    floor_two_sqrt,
    legendre_traces,
    lift_trace,
    maximal_fp2,
)
from howe5.howe_factory import DecompositionReport, HoweParams, direct_counts, validate
from howe5.search_engine import (
    CSV_HEADER,
    _class_masks,
    _confirm,
    ENUMERATED_SLOTS,
    SearchConfig,
    SearchStats,
    Target,
    _visit_orders,
    enumerate_hits,
    orbit_key,
    primes_in,
    run_search,
)


class TestSearchConfig:
    def test_target_normalized_to_enum(self):
        cfg = SearchConfig(p_min=11, p_max=13, target="maximal-fp2")
        assert cfg.target is Target.MAXIMAL_FP2

    def test_prime_floor_per_target(self):
        assert Target.SERRE_FP.min_prime == 17
        with pytest.raises(ValueError):
            SearchConfig(p_min=11, p_max=31, target="serre-fp")
        with pytest.raises(ValueError):
            SearchConfig(p_min=7, p_max=31, target="serre-fp3")
        # maximal-fp2 has no such floor beyond oddness
        SearchConfig(p_min=3, p_max=13, target="maximal-fp2")

    @pytest.mark.parametrize("fixed,p_min,p_max", [
        ((("a1", 3), ("a5", 3)), 101, 101),
        ((("a5", 3), ("a4", 3)), 3, 3),
        ((("a2", 3), ("a5", 104)), 101, 101),
        ((("a5", 104), ("a3", 3)), 3, 200),
        ((("a2", 3), ("a5", 14)), 11, 11),
    ])
    def test_a5_pinned_equal_to_a_prefix_slot_is_counted(self, fixed, p_min, p_max):
        # a5 pinned to the residue of a pinned a1, a2, a3 or a4 (104 = 3 mod
        # 101, 14 = 3 mod 11; a4 = a5 at every prime) leaves every row
        # without a probe, so max_candidates cannot end a scan of the p^3
        # rows: such a prime is counted, with admissible pairs (maximal-fp2
        # at 11) or without (at 3 and 101).  At 101 it has 100 * 99 * 98
        # rows: the one chunk a1 = 3 holds 100 a2, 99 a3 and 98 a4, else each
        # of the 100 chunks a1 != 3 holds 99 values of the free slot of a2
        # and a3 and 98 a4.  The other primes are the scalar kernel's, chunk
        # by chunk.
        cfg = SearchConfig(p_min, p_max, "maximal-fp2", max_candidates=10, fixed=fixed)
        hits, stats = run_search(cfg)
        want_rows, want = [], [0, 0, 0, 0, False]
        for p in primes_in(p_min, p_max):
            if p == 101:
                want[0] += 100 * 99 * 98
                continue
            one = SearchConfig(p, p, "maximal-fp2", max_candidates=10, fixed=fixed)
            chunks = _visit_orders(p, one)[0]
            for a1 in chunks:
                chunk_hits, chunk_stats = scalar_kernel._scan_chunk(p, one, a1,
                                                                    -(-10 // len(chunks)))
                want_rows += [params.row() for params, _ in chunk_hits]
                want = [w + v for w, v in zip(want[:4], chunk_stats[:4])] + [
                    want[4] or chunk_stats[4]]
        assert [h.row() for h in hits] == want_rows
        got = [stats.prefixes, stats.probes, stats.tuples, stats.confirm_failures, stats.truncated]
        assert got == want

    def test_a5_pinned_equal_only_outside_the_range_is_accepted(self):
        # 104 - 3 = 101 is prime, and no other prime divides it
        for p_min, p_max in ((3, 100), (103, 200)):
            SearchConfig(p_min, p_max, "maximal-fp2", fixed=(("a2", 3), ("a5", 104)))
        SearchConfig(3, 200, "maximal-fp2", fixed=(("a5", 3), ("b5", 3), ("a2", 4)))

    def test_range_must_be_ordered(self):
        with pytest.raises(ValueError):
            SearchConfig(p_min=31, p_max=17, target="serre-fp")

    def test_unknown_target(self):
        with pytest.raises(ValueError):
            SearchConfig(p_min=17, p_max=31, target="maximal-fp5")

    def test_fixed_slot_names(self):
        cfg = SearchConfig(p_min=17, p_max=31, target="serre-fp", fixed=(("a1", 2),))
        assert cfg.fixed_value("a1") == 2
        assert cfg.fixed_value("a2") is None
        with pytest.raises(ValueError):
            SearchConfig(p_min=17, p_max=31, target="serre-fp", fixed=(("a6", 2),))
        assert ENUMERATED_SLOTS == ("a1", "a2", "a3", "a4", "a5", "b5")

    def test_slot_pinned_twice_rejected(self):
        with pytest.raises(ValueError, match="more than once"):
            SearchConfig(p_min=17, p_max=31, target="serre-fp",
                         fixed=(("a1", 2), ("a2", 5), ("a1", 3)))

    def test_p_max_below_the_prime_cap(self):
        # rejected before any prime is searched, not at the first prime past it
        SearchConfig(p_min=3, p_max=PRIME_CAP - 1, target="maximal-fp2")
        with pytest.raises(ValueError, match="below"):
            SearchConfig(p_min=3, p_max=PRIME_CAP, target="maximal-fp2")
        with pytest.raises(ValueError):
            SearchConfig(p_min=3, p_max=2 ** 21, target="maximal-fp2")

    @pytest.mark.parametrize("cap", [
        {"max_candidates": 0}, {"max_candidates": -5},
        {"max_hits": 0}, {"max_hits": -1},
        {"time_budget": -0.5},
    ])
    def test_caps_must_be_positive(self, cap):
        with pytest.raises(ValueError):
            SearchConfig(p_min=11, p_max=11, target="maximal-fp2", **cap)

    def test_fixed_is_kept_as_a_tuple_of_pairs(self):
        """A list of pins, or pins given as lists, is hashable once kept, so
        the per-prime caches keyed on the configuration take it."""
        cfg = SearchConfig(11, 13, "maximal-fp2", max_candidates=100, fixed=[["a1", 0], ("a2", 1)])
        assert cfg.fixed == (("a1", 0), ("a2", 1))
        same = SearchConfig(11, 13, "maximal-fp2", max_candidates=100, fixed=(("a1", 0), ("a2", 1)))
        assert cfg == same and hash(cfg) == hash(same)
        assert run_search(cfg)[1].probes == run_search(same)[1].probes > 0

    @pytest.mark.parametrize("bad", [
        {"fixed": (("a1", 0.5),)}, {"fixed": (("a5", "3"),)},
        {"max_candidates": 10.5}, {"max_hits": 2.0},
        {"p_min": 11.0}, {"p_max": "13"}, {"seed": 1.0},
        {"fixed": ("a1", 0)}, {"fixed": 5},
    ])
    def test_non_int_settings_rejected(self, bad):
        with pytest.raises(ValueError, match="integers|pairs"):
            SearchConfig(**{"p_min": 11, "p_max": 13, "target": "maximal-fp2", **bad})

    @pytest.mark.parametrize("bad", [{"seed": True}, {"max_hits": True},
                                     {"fixed": (("a1", True),)}],
                             ids=["seed", "max_hits", "pin"])
    def test_bool_settings_rejected(self, bad):
        """True equals 1 but would draw other visit orders in a new process."""
        with pytest.raises(ValueError, match="integers"):
            SearchConfig(**{"p_min": 11, "p_max": 13, "target": "maximal-fp2", **bad})

    @pytest.mark.parametrize("budget", ["1", True, float("nan"), 1j])
    def test_time_budget_must_be_a_number(self, budget):
        """A NaN budget would pass a < 0 check and never be reached."""
        with pytest.raises(ValueError, match="time_budget"):
            SearchConfig(11, 13, "maximal-fp2", time_budget=budget)

    def test_smallest_caps_accepted(self):
        SearchConfig(p_min=11, p_max=11, target="maximal-fp2",
                     max_candidates=1, max_hits=1, time_budget=0)


def test_primes_in():
    assert primes_in(10, 31) == [11, 13, 17, 19, 23, 29, 31]
    assert primes_in(24, 28) == []


class TestSolveLinearRoot:
    """The scalar reference kernel's linear solve for the missing root."""

    @staticmethod
    def _solve(p, *roots):
        return scalar_kernel.solve_missing_root(*roots, p, residue_tables(p).inv)

    def test_known_values(self):
        # the last enumerated root of each bundled example row is forced
        assert self._solve(11, 5, 3, 10, 7, 6) == 8
        assert self._solve(499, 2, 1, 10, 55, 36) == 275

    def test_degenerate_configuration_returns_none(self):
        # w = 0 makes the two cross-ratio products coincide here, so no
        # missing root exists; w = 5 collides with the first root instead
        for w in (0, 5):
            assert self._solve(11, 5, 3, 10, 7, w) is None

    def test_consistency_with_example_rows(self):
        p, _, _, a, b = ROW_P499
        assert self._solve(p, *a[:4], b[0]) == b[1]


class TestRunSearch:
    def test_maximal_hits_all_verify(self):
        cfg = SearchConfig(p_min=11, p_max=11, target="maximal-fp2",
                           max_candidates=10 ** 6, max_hits=5, seed=2)
        hits, stats = run_search(cfg)
        assert 0 < len(hits) <= 5
        assert stats.hits == len(hits)
        for h in hits:
            assert validate(h.params).ok
            assert DecompositionReport.build(h.params).verdicts.maximal_fp2 is True
            assert h.counts[2] == 232  # 121 + 1 + 10*11
            assert h.counts[1] == DecompositionReport.build(h.params).counts[1].total

    def test_maximal_hit_counts_match_oracle(self):
        """Hit counts are lifted from F_p; the brute-force oracle over F_{p^2}
        must give the same numbers."""
        cfg = SearchConfig(p_min=3, p_max=23, target="maximal-fp2",
                           max_candidates=20_000, max_hits=2, seed=6)
        hits, _ = run_search(cfg)
        assert {h.params.mod.p for h in hits} >= {11, 23}
        for h in hits:
            assert h.counts[1] == direct_counts(h.params, 1)[3]
            assert h.counts[2] == direct_counts(h.params, 2)[3]

    def test_no_maximal_curves_at_p13(self):
        cfg = SearchConfig(p_min=13, p_max=13, target="maximal-fp2",
                           max_candidates=10 ** 7, max_hits=10, seed=0)
        hits, stats = run_search(cfg)
        assert hits == []
        assert stats.confirm_failures == 0
        assert not stats.truncated

    def test_deterministic_given_seed(self):
        kw = dict(p_min=11, p_max=11, target="maximal-fp2",
                  max_candidates=50_000, max_hits=8, seed=9)
        rows1 = [h.row() for h in run_search(SearchConfig(**kw))[0]]
        rows2 = [h.row() for h in run_search(SearchConfig(**kw))[0]]
        assert rows1 == rows2
        assert rows1  # the budget is enough to find something at p = 11

    def test_seed_changes_exploration_order(self):
        base = dict(p_min=11, p_max=11, target="maximal-fp2",
                    max_candidates=10 ** 6, max_hits=4)
        rows_a = [h.row() for h in run_search(SearchConfig(seed=1, **base))[0]]
        rows_b = [h.row() for h in run_search(SearchConfig(seed=2, **base))[0]]
        assert rows_a != rows_b  # truncated runs surface different corners

    def test_hit_index_orders_output(self):
        cfg = SearchConfig(p_min=11, p_max=11, target="maximal-fp2",
                           max_candidates=10 ** 6, max_hits=6, seed=3)
        hits, _ = run_search(cfg)
        assert [h.index for h in hits] == sorted(h.index for h in hits)

    def test_pinned_search_recovers_bundled_row(self):
        """Fixing every enumerated slot to the p = 499 example leaves a single
        probe, which must come back as a curve in that row's orbit."""
        p, a1, a2, a, b = ROW_P499
        cfg = SearchConfig(p_min=499, p_max=499, target="serre-fp",
                           max_candidates=100, max_hits=4, seed=0,
                           fixed=(("a1", a[0]), ("a2", a[1]), ("a3", a[2]),
                                  ("a4", a[3]), ("a5", a[4]), ("b5", b[0])))
        hits, _ = run_search(cfg)
        assert hits
        bundled = HoweParams.from_ints(p, a1, a2, a, b)
        assert orbit_key(bundled) in {orbit_key(h.params) for h in hits}

    def test_enumerate_matches_run(self):
        cfg = SearchConfig(p_min=11, p_max=11, target="maximal-fp2",
                           max_candidates=2000, max_hits=3, seed=5)
        assert [h.row() for h in enumerate_hits(cfg)] == \
               [h.row() for h in run_search(cfg)[0]]

    def test_serre_counts_include_base_field(self):
        cfg = SearchConfig(p_min=17, p_max=19, target="serre-fp",
                           max_candidates=200_000, max_hits=2, seed=4)
        hits, _ = run_search(cfg)
        for h in hits:
            assert 1 in h.counts


_PREDICATE = {
    Target.SERRE_FP: attains_serre_fp,
    Target.MAXIMAL_FP2: maximal_fp2,
    Target.SERRE_FP3: attains_serre_fp3,
}


@pytest.mark.parametrize("target", list(Target))
def test_class_masks_match_predicates(target):
    """Bit 1 of mask[v] is the target predicate on the factor with theta = 1,
    bit 2 with theta the least non-residue."""
    seen = 0
    for p in primes_in(target.min_prime, 110) + [181, 193]:
        mask = _class_masks(p, target)
        assert mask[0] == mask[1] == 0
        for bit, theta in ((1, 1), (2, residue_tables(p).nonres)):
            for v in range(2, p):
                admissible = _PREDICATE[target](LegendreCurve.from_ints(p, theta, v))
                assert bool(mask[v] & bit) == admissible, (p, theta, v)
                seen |= bit if admissible else 0
    assert seen == 3  # both twist classes occur, so the check is not vacuous


def _lift_mask(p: int, target: Target) -> tuple[int, ...]:
    """The class masks by the lift rule alone, without the congruence: bit 1
    where t[v] lifts to -floor(2 sqrt(p^j)), bit 2 where -t[v] does."""
    t, j = legendre_traces(p), target.degree
    goal = -floor_two_sqrt(p ** j)
    mask = (lift_trace(t, p, j) == goal) + 2 * (lift_trace(-t, p, j) == goal)
    mask[:2] = 0
    return tuple(mask.tolist())


@pytest.mark.parametrize("target", list(Target))
def test_class_masks_equal_the_lift_rule(target):
    for p in primes_in(target.min_prime, 400):
        assert _class_masks(p, target) == _lift_mask(p, target), p


@pytest.mark.parametrize("target,passing_without_pairs", [
    (Target.SERRE_FP, [19, 29, 53, 67, 71, 103, 107, 151, 173, 199, 229, 263, 293, 331, 487,
                       491, 683, 733, 787, 907, 1031, 1093, 1163, 1229, 1303, 1373, 1447,
                       1451, 1607, 2029, 2213, 2311, 2503, 2707, 2711]),
    (Target.MAXIMAL_FP2, [3, 7]),
    (Target.SERRE_FP3, []),
])
def test_congruence_rules_out_only_primes_without_admissible_lambdas(target, passing_without_pairs):
    """Up to 3000, a prime without goal traces has no admissible lambda by
    the lift rule alone, so the congruence drops no prime that has one.  Of
    the primes that pass it few have no admissible pairs: 35 for serre-fp,
    so the congruence decides 308 of its 343 empty primes, maximal-fp2's 3
    and 7, and none for serre-fp3."""
    passing = []
    for p in primes_in(target.min_prime, 3000):
        if not target.goal_traces(p):
            assert not any(_lift_mask(p, target)) and not any(_class_masks(p, target)), p
        elif not search_engine._admissible_pairs(p, target):
            passing.append(p)
    assert passing == passing_without_pairs


@pytest.mark.parametrize("target,entries", [
    (Target.SERRE_FP, 1248), (Target.MAXIMAL_FP2, 212064), (Target.SERRE_FP3, 25212),
])
def test_no_admissible_entry_puts_a6_at_a3(target, entries):
    """No entry (b, bits) of _admissible_pairs(p, target)[a], at any prime
    below 1500, has d = a(1 - b)/(1 - a) = 1, the frame image of a6 = a3:
    d = 1 would put a Legendre parameter of the pair at 1, and mask[1] = 0.
    An entry's c gives e = a(1 - c)/(1 - a) by the same rule, so no e is 1
    either, and _row_funnel checks neither."""
    seen = 0
    for p in primes_in(target.min_prime, 1499):
        for a, row in search_engine._admissible_pairs(p, target).items():
            assert all((a * (1 - b) - (1 - a)) % p for b, _ in row), (p, a)
            seen += len(row)
    assert seen == entries


class TestRuledOutPrimes:
    """A prime without goal traces is counted (_count_chunks) before any
    per-prime table is built."""

    @pytest.fixture
    def no_tables(self, monkeypatch):
        def refuse(p):
            raise AssertionError(f"a per-prime table was built at p={p}")

        for module in (search_engine, hasse_serre):
            for name in ("legendre_traces", "residue_tables"):
                monkeypatch.setattr(module, name, refuse)
        for cached in (search_engine._tables, search_engine._class_masks,
                       search_engine._admissible_pairs, search_engine._scan_arrays):
            cached.cache_clear()

    # hunt's primes p = 1 mod 4, scan's 179 and 191, and every prime of
    # [11, 60] but 37 for serre-fp3
    SEARCHES = ([("maximal-fp2", p) for p in (5, 13, 17, 29, 37, 41)]
                + [("serre-fp", 179), ("serre-fp", 191)]
                + [("serre-fp3", p) for p in (11, 13, 17, 19, 23, 29, 31, 41, 43, 47, 53, 59)])

    @pytest.mark.parametrize("settings", [
        {"max_candidates": 100_000, "seed": 3},
        {},
        {"max_candidates": 1000, "seed": 3, "fixed": (("a5", 4),)},
    ], ids=["capped", "uncapped", "a5-pinned"])
    def test_counted_without_tables(self, no_tables, settings):
        for target, p in self.SEARCHES:
            cfg = SearchConfig(p, p, target, **settings)
            assert not cfg.target.goal_traces(p)
            hits, stats = run_search(cfg)
            quota = None if cfg.max_candidates is None else -(-cfg.max_candidates // p)
            want = search_engine._count_chunks(p, cfg, range(p), quota)
            got = (stats.prefixes, stats.probes, stats.tuples, stats.confirm_failures,
                   stats.truncated)
            assert (hits, stats.primes, got) == ([], 1, want), (target, p)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_primes_below_eleven_build_no_table(monkeypatch, p):
    """Eight pairwise-distinct branch points need p >= 8, so at p = 3, 5
    and 7 _admissible_pairs is empty for every target before any per-prime
    table is built, and the chunks, counted, report the scalar kernel's
    statistics; maximal-fp2 has goal traces at 3 and 7."""
    for target in Target:
        cfg = SearchConfig(target.min_prime, target.min_prime, target, seed=2)
        for quota in (None, 5):
            want = [0, 0, 0, 0, False]
            for a1 in _visit_orders(p, cfg)[0]:
                hits, stats = scalar_kernel._scan_chunk(p, cfg, a1, quota)
                assert not hits
                want = [w + v for w, v in zip(want[:4], stats[:4])] + [want[4] or stats[4]]

            def refuse(p):
                raise AssertionError(f"a per-prime table was built at p={p}")

            with monkeypatch.context() as patched:
                for module in (search_engine, hasse_serre):
                    for name in ("legendre_traces", "residue_tables"):
                        patched.setattr(module, name, refuse)
                for cached in (search_engine._tables, search_engine._class_masks,
                               search_engine._admissible_pairs, search_engine._scan_arrays):
                    cached.cache_clear()
                assert search_engine._admissible_pairs(p, target) == {}
                (_, hits, stats), = search_engine._chunks(p, cfg, quota, None)
            assert not hits and list(stats) == want, (target, quota)
    assert Target.MAXIMAL_FP2.goal_traces(3) and Target.MAXIMAL_FP2.goal_traces(7)


def test_per_prime_caches_are_bounded():
    """_tables, _class_masks, _funnels and _pair_tuples hold the current
    prime only, the shared per-prime tables at most TABLE_CACHE primes,
    fewer than the first search visits.  Its quota of one probe cuts every
    pair, so the uncapped second search looks up _pair_tuples, at seven
    primes with admissible pairs."""
    run_search(SearchConfig(3, 300, "maximal-fp2", max_candidates=1, fixed=(("a1", 0),)))
    assert len(primes_in(3, 300)) > TABLE_CACHE
    run_search(SearchConfig(19, 67, "maximal-fp2", max_hits=1, fixed=(("a1", 0),)))
    for cached in (search_engine._tables, search_engine._class_masks,
                   search_engine._funnels, search_engine._pair_tuples):
        assert cached.cache_info().currsize == 1
    for cached in (residue_tables, legendre_traces, hasse_serre._hasse_gather):
        assert cached.cache_info().maxsize == TABLE_CACHE
        assert cached.cache_info().currsize <= TABLE_CACHE


class TestDriver:
    def test_enumerate_streams(self):
        cfg = SearchConfig(p_min=11, p_max=43, target="maximal-fp2",
                           max_candidates=20_000, max_hits=2, seed=6)
        stats = SearchStats()
        first = next(enumerate_hits(cfg, stats))
        assert first.index[0] == 11
        assert stats.primes == 1
        assert stats.hits == 1

    def test_hit_quota_is_a_prefix(self):
        # with three slots pinned a chunk holds few hits, so the quota often
        # fills part way through a chunk
        base = dict(p_min=3, p_max=23, target="maximal-fp2", max_candidates=10 ** 6,
                    seed=0, fixed=(("a2", 1), ("a3", 0), ("a4", 5)))
        full, full_stats = run_search(SearchConfig(max_hits=4, **base))
        for k in (1, 2, 3):
            hits, stats = run_search(SearchConfig(max_hits=k, **base))
            for p in primes_in(3, 23):
                rows = [h.row() for h in hits if h.index[0] == p]
                assert rows == [h.row() for h in full if h.index[0] == p][:k]
            assert stats.probes <= full_stats.probes

    def test_full_quota_scans_no_later_chunk(self, monkeypatch):
        scanned = []
        real = search_engine._scan_chunk

        def counted(p, cfg, a1, quota, deadline):
            scanned.append(search_engine._visit_orders(p, cfg)[0].index(a1))
            return real(p, cfg, a1, quota, deadline)

        monkeypatch.setattr(search_engine, "_scan_chunk", counted)
        cfg = SearchConfig(p_min=11, p_max=11, target="maximal-fp2",
                           max_candidates=20_000, max_hits=1, seed=6)
        hits, stats = run_search(cfg)
        assert len(hits) == 1 and stats.truncated
        assert scanned == list(range(hits[0].index[1] + 1))
        assert len(scanned) < 11

    @pytest.mark.parametrize("caps", [{"max_hits": 2}, {"time_budget": 0}])
    def test_caps_truncate_in_chunk_order(self, caps):
        cfg = SearchConfig(p_min=11, p_max=13, target="maximal-fp2",
                           max_candidates=20_000, seed=6, **caps)
        hits, stats = run_search(cfg)
        assert stats.truncated
        if "max_hits" in caps:
            assert [h.index[:2] for h in hits] == [(11, 0), (11, 0)]
        else:
            # the budget is spent at once: the first chunk finishes, no other starts
            assert stats.primes == 1
            assert all(h.index[:2] == (11, 0) for h in hits)

    def test_time_budget_stops_inside_a_chunk(self):
        # an uncapped chunk at p = 1019, which has 2964 admissible pairs,
        # holds 1018 * 1017 * 1016 * 1015 probes
        cfg = SearchConfig(p_min=1019, p_max=1019, target="maximal-fp2", time_budget=0.5)
        t0 = time.monotonic()
        hits, stats = run_search(cfg)
        assert time.monotonic() - t0 < 10
        assert stats.truncated
        assert stats.probes < 1018 * 1017 * 1016 * 1015

    def test_prime_without_pairs_is_counted_whole_within_the_budget(self):
        # p = 1009 has no admissible pair, so its chunks are counted, not
        # scanned, and the time budget never cuts them
        cfg = SearchConfig(p_min=1009, p_max=1009, target="maximal-fp2", time_budget=0.5)
        t0 = time.monotonic()
        hits, stats = run_search(cfg)
        assert time.monotonic() - t0 < 0.1
        assert not hits and not stats.truncated
        assert stats.prefixes == 1009 * 1008 * 1007 * 1006
        assert stats.probes == stats.prefixes * 1005


class TestConfirm:
    @pytest.mark.parametrize("row,target,j", [
        (ROW_P499, Target.SERRE_FP, 1),
        (ROW_P11, Target.MAXIMAL_FP2, 2),
        (ROW_P37, Target.SERRE_FP3, 3),
    ])
    def test_validates_once(self, monkeypatch, row, target, j):
        calls = []
        real = howe_factory.validate_many

        def counted(batch):
            calls.extend(batch)
            return real(batch)

        monkeypatch.setattr(howe_factory, "validate_many", counted)
        p, a1, a2, a, b = row
        counts, = _confirm([HoweParams.from_ints(p, a1, a2, a, b)], target)
        assert counts is not None and j in counts
        assert len(calls) == 1

    @pytest.mark.parametrize("row,target", [
        (ROW_P11, Target.MAXIMAL_FP2),
        (ROW_P37, Target.SERRE_FP3),
    ])
    def test_a_mixed_batch_matches_one_at_a_time(self, monkeypatch, row, target):
        """A batch that mixes invalid, non-attaining and passing parameter
        sets confirms as each set does alone, in order; with every factor
        made to pass the predicate, the non-attaining sets are counted and
        then fail on the bound."""
        p, a1, a2, a, b = row
        passing = HoweParams.from_ints(p, a1, a2, a, b)
        invalid = [HoweParams.from_ints(p, 1, 1, (0, 1, 2, 3, 5, 6), (8, 9)),
                   HoweParams.from_ints(p, 1, 1, (0, 1, 2, 3, 4, 5), (5, 6))]
        rng, missing = random.Random(p), []
        while len(missing) < 2:
            split = random_valid_params(p, rng)
            if not target.attained(split.curves):
                missing.append(split.params)
        batch = [invalid[0], passing, missing[0], invalid[1], passing, missing[1]]
        alone = [_confirm([params], target)[0] for params in batch]
        assert _confirm(batch, target) == alone
        assert [counts is None for counts in alone] == [True, False, True, True, False, True]
        predicate = (hasse_serre.attains_serre_fp, hasse_serre.maximal_fp2,
                     hasse_serre.attains_serre_fp3)[target.degree - 1]
        monkeypatch.setattr(hasse_serre, predicate.__name__, lambda curve: True)
        assert _confirm(batch, target) == alone
        assert _confirm(missing, target) == [None, None]

    def test_predicate_rebound_on_hasse_serre_is_called(self, monkeypatch):
        """A wrapper bound over the module global hasse_serre.maximal_fp2, as
        the benchmark's layer tracer binds one, is what DecompositionReport
        and _confirm call, once per factor."""
        calls = []
        real = hasse_serre.maximal_fp2

        def counted(curve):
            calls.append(curve)
            return real(curve)

        monkeypatch.setattr(hasse_serre, "maximal_fp2", counted)
        p, a1, a2, a, b = ROW_P11
        params = HoweParams.from_ints(p, a1, a2, a, b)
        assert DecompositionReport.build(params).verdicts.maximal_fp2 is True
        assert len(calls) == 5
        assert _confirm([params], Target.MAXIMAL_FP2) == [{1: 12, 2: 232}]
        assert len(calls) == 10


def _moved(params, x0):
    """params moved by z -> 1/(z - x0), with the twists rescaled so that the
    three quotient curves stay isomorphic."""
    p, alpha1, alpha2, *roots = params.row()
    inv = residue_tables(p).inv
    shift = [(r - x0) % p for r in roots]
    scale1 = scale2 = 1
    for s in shift[:6]:
        scale1 = scale1 * s % p
    for s in shift[:4] + shift[6:]:
        scale2 = scale2 * s % p
    moved = [int(inv[s]) for s in shift]
    return HoweParams.from_ints(p, alpha1 * scale1, alpha2 * scale2, moved[:6], moved[6:])


class TestIsomorphicEquality:
    """orbit_key: equal for isomorphic parameter sets, different otherwise."""

    def test_twist_class_quotient(self):
        a = HoweParams.from_ints(11, 1, 1, (9, 7, 4, 8, 10, 2), (3, 5))
        b = HoweParams.from_ints(11, 4, 9, (9, 7, 4, 8, 10, 2), (3, 5))  # same classes
        c = HoweParams.from_ints(11, 2, 1, (9, 7, 4, 8, 10, 2), (3, 5))  # 2 is a nonsquare
        c2 = HoweParams.from_ints(11, 1, 2, (9, 7, 4, 8, 10, 2), (3, 5))
        assert orbit_key(a) == orbit_key(b)
        assert len({orbit_key(a), orbit_key(c), orbit_key(c2)}) == 3

    def test_roots_must_match(self):
        a = HoweParams.from_ints(11, 1, 1, (9, 7, 4, 8, 10, 2), (3, 5))
        d = HoweParams.from_ints(11, 1, 1, (8, 7, 4, 9, 10, 2), (3, 5))  # a1 and a4 swapped
        assert orbit_key(a) != orbit_key(d)

    def test_primes_must_match(self):
        # the same cross-ratios and twist classes at two primes
        a = HoweParams.from_row((11, 6, 8, 2, 0, 3, 8, 10, 7, 6, 1))
        e = HoweParams.from_row((13, 11, 7, 3, 8, 0, 9, 4, 12, 7, 11))
        assert orbit_key(a)[1:] == orbit_key(e)[1:]
        assert orbit_key(a) != orbit_key(e)

    @pytest.mark.parametrize("row", [ROW_P11, ROW_P37, ROW_P499], ids=["p11", "p37", "p499"])
    def test_invariant_under_a_moebius_map(self, row):
        p, a1, a2, a, b = row
        params = HoweParams.from_ints(p, a1, a2, a, b)
        outside = [x for x in range(p) if x not in (*a, *b)]
        for x0 in outside[::max(1, len(outside) // 40)]:
            moved = _moved(params, x0)
            assert moved.row()[3:] != params.row()[3:]
            assert orbit_key(moved) == orbit_key(params), x0


class TestRandomParams:
    def test_produced_params_validate(self):
        rng = random.Random(77)
        found = 0
        for p in (11, 13, 17, 19, 23):
            split = random_valid_params(p, rng)
            if split is None:
                continue
            found += 1
            assert validate(split.params).split == split
            assert split.params.mod.p == p
        assert found >= 4  # tiny primes rarely fail at this sample size

    def test_deterministic_for_fixed_rng_state(self):
        assert random_valid_params(23, random.Random(5)) == \
               random_valid_params(23, random.Random(5))


class TestWriters:
    def _some_hits(self):
        cfg = SearchConfig(p_min=11, p_max=11, target="maximal-fp2",
                           max_candidates=10 ** 6, max_hits=4, seed=8)
        return run_search(cfg)[0]

    def test_csv_roundtrip(self, tmp_path):
        hits = self._some_hits()
        out = tmp_path / "hits.csv"
        out.write_text(CSV_HEADER + "\n" + "".join(h.csv_line() for h in hits))
        lines = out.read_text().strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(hits)
        for line, h in zip(lines[1:], hits):
            row = tuple(int(tok) for tok in line.split(","))
            assert HoweParams.from_row(row) == h.params
        # verify-tables --data reads the same layout
        assert tables.parse_rows(out.read_text(), str(out)) == [h.params for h in hits]

    def test_jsonl_excludes_timing(self, tmp_path):
        hits = self._some_hits()
        out = tmp_path / "hits.jsonl"
        out.write_text("".join(h.jsonl_line() for h in hits))
        lines = out.read_text().strip().splitlines()
        assert len(lines) == len(hits)
        for line, h in zip(lines, hits):
            d = json.loads(line)
            assert "wall_time" not in d
            assert d["p"] == 11
            assert d["target"] == "maximal-fp2"
            assert d["counts"]["2"] == 232
            assert HoweParams.from_ints(d["p"], d["alpha1"], d["alpha2"],
                                        d["a"], d["b"]) == h.params

    def test_byte_stable_across_runs(self, tmp_path):
        blobs = []
        for name in ("one", "two"):
            hits = self._some_hits()
            (tmp_path / name).write_text("".join(h.jsonl_line() for h in hits))
            blobs.append((tmp_path / name).read_bytes())
        assert blobs[0] == blobs[1]
