import json
import random

import pytest

from conftest import ROW_P11, ROW_P37, ROW_P499
from howe5 import howe_factory
from howe5.field_arith import FieldElement, prime_modulus
from howe5.howe_factory import HoweParams, direct_counts, serre_verdicts, validate
from howe5.search_engine import (
    CSV_HEADER,
    _confirm,
    ENUMERATED_SLOTS,
    SearchConfig,
    Target,
    TARGET_MIN_PRIME,
    enumerate_hits,
    isomorphic_params_equal,
    primes_in,
    random_valid_params,
    run_search,
    solve_linear_root,
    write_hits_csv,
    write_hits_jsonl,
)


def _fe(v, p):
    return FieldElement(v, prime_modulus(p))


class TestSearchConfig:
    def test_target_normalized_to_enum(self):
        cfg = SearchConfig(p_min=11, p_max=13, target="maximal-fp2")
        assert cfg.target is Target.MAXIMAL_FP2

    def test_prime_floor_per_target(self):
        assert TARGET_MIN_PRIME[Target.SERRE_FP] == 17
        with pytest.raises(ValueError):
            SearchConfig(p_min=11, p_max=31, target="serre-fp")
        with pytest.raises(ValueError):
            SearchConfig(p_min=7, p_max=31, target="serre-fp3")
        # maximal-fp2 has no such floor beyond oddness
        SearchConfig(p_min=3, p_max=13, target="maximal-fp2")

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


def test_primes_in():
    assert primes_in(10, 31) == [11, 13, 17, 19, 23, 29, 31]
    assert primes_in(24, 28) == []


class TestSolveLinearRoot:
    def test_known_values(self):
        # the last enumerated root of each bundled example row is forced
        assert int(solve_linear_root(_fe(5, 11), _fe(3, 11), _fe(10, 11),
                                     _fe(7, 11), _fe(6, 11))) == 8
        assert int(solve_linear_root(_fe(2, 499), _fe(1, 499), _fe(10, 499),
                                     _fe(55, 499), _fe(36, 499))) == 275

    def test_degenerate_configuration_returns_none(self):
        # w = 0 makes the two cross-ratio products coincide here, so no
        # missing root exists; w = 5 collides with the first root instead
        for w in (0, 5):
            assert solve_linear_root(_fe(5, 11), _fe(3, 11), _fe(10, 11),
                                     _fe(7, 11), _fe(w, 11)) is None

    def test_consistency_with_example_rows(self):
        p, _, _, a, b = ROW_P499
        got = solve_linear_root(_fe(a[0], p), _fe(a[1], p), _fe(a[2], p),
                                _fe(a[3], p), _fe(b[0], p))
        assert int(got) == b[1]


class TestRunSearch:
    def test_maximal_hits_all_verify(self):
        cfg = SearchConfig(p_min=11, p_max=11, target="maximal-fp2",
                           max_candidates=10 ** 6, max_hits=5, seed=2)
        hits, stats = run_search(cfg)
        assert 0 < len(hits) <= 5
        assert stats.hits == len(hits)
        for h in hits:
            assert validate(h.params).ok
            assert serre_verdicts(h.params).maximal_fp2 is True
            assert h.counts[2] == 232  # 121 + 1 + 10*11
            assert h.counts[1] == h.report().counts[1].total

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
        probe, which must come back as that row up to twist square class."""
        p, a1, a2, a, b = ROW_P499
        cfg = SearchConfig(p_min=499, p_max=499, target="serre-fp",
                           max_candidates=100, max_hits=4, seed=0,
                           fixed=(("a1", a[0]), ("a2", a[1]), ("a3", a[2]),
                                  ("a4", a[3]), ("a5", a[4]), ("b5", b[0])))
        hits, _ = run_search(cfg)
        assert hits
        bundled = HoweParams.from_ints(p, a1, a2, a, b)
        assert any(isomorphic_params_equal(h.params, bundled) for h in hits)

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


class TestConfirm:
    @pytest.mark.parametrize("row,target,j", [
        (ROW_P499, Target.SERRE_FP, 1),
        (ROW_P11, Target.MAXIMAL_FP2, 2),
        (ROW_P37, Target.SERRE_FP3, 3),
    ])
    def test_validates_once(self, monkeypatch, row, target, j):
        calls = []
        real = howe_factory.validate

        def counted(params):
            calls.append(params)
            return real(params)

        monkeypatch.setattr(howe_factory, "validate", counted)
        p, a1, a2, a, b = row
        counts = _confirm(HoweParams.from_ints(p, a1, a2, a, b), target)
        assert counts is not None and j in counts
        assert len(calls) == 1


class TestIsomorphicEquality:
    def test_twist_class_quotient(self):
        a = HoweParams.from_ints(11, 1, 1, (9, 7, 4, 8, 10, 2), (3, 5))
        b = HoweParams.from_ints(11, 4, 9, (9, 7, 4, 8, 10, 2), (3, 5))  # same classes
        c = HoweParams.from_ints(11, 2, 1, (9, 7, 4, 8, 10, 2), (3, 5))  # 2 is a nonsquare
        assert isomorphic_params_equal(a, b)
        assert not isomorphic_params_equal(a, c)

    def test_roots_must_match(self):
        a = HoweParams.from_ints(11, 1, 1, (9, 7, 4, 8, 10, 2), (3, 5))
        d = HoweParams.from_ints(11, 1, 1, (7, 9, 4, 8, 10, 2), (3, 5))
        assert not isomorphic_params_equal(a, d)

    def test_primes_must_match(self):
        a = HoweParams.from_ints(11, 1, 1, (9, 7, 4, 8, 10, 2), (3, 5))
        e = HoweParams.from_ints(13, 1, 1, (9, 7, 4, 8, 10, 2), (3, 5))
        assert not isomorphic_params_equal(a, e)


class TestRandomParams:
    def test_produced_params_validate(self):
        rng = random.Random(77)
        found = 0
        for p in (11, 13, 17, 19, 23):
            params = random_valid_params(p, rng)
            if params is None:
                continue
            found += 1
            assert validate(params).ok
            assert params.mod.p == p
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
        with open(out, "w") as fh:
            write_hits_csv(hits, fh)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(hits)
        for line, h in zip(lines[1:], hits):
            row = tuple(int(tok) for tok in line.split(","))
            assert HoweParams.from_row(row) == h.params

    def test_jsonl_excludes_timing(self, tmp_path):
        hits = self._some_hits()
        out = tmp_path / "hits.jsonl"
        with open(out, "w") as fh:
            write_hits_jsonl(hits, fh)
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
            f = tmp_path / name
            with open(f, "w") as fh:
                write_hits_jsonl(hits, fh)
            blobs.append(f.read_bytes())
        assert blobs[0] == blobs[1]
