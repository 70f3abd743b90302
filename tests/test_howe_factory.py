import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import ROW_P11, ROW_P37, ROW_P499, naive_count_fp
from howe5 import howe_factory
from howe5.curve_models import HyperellipticModel, count_points
from howe5.errors import DecompositionMismatch, HypothesisViolated, NonSquareObstruction
from howe5.field_arith import legendre_symbol
from howe5.hasse_serre import legendre_count_fp, serre_bound
from howe5.howe_factory import (
    DecompositionReport,
    HoweParams,
    decompose_genus5,
    direct_counts,
    genus_of_howe,
    howe_counts,
    howe_models,
    howe_point_count,
    is_hyperelliptic_howe,
    params_from_json_dict,
    serre_verdicts,
    split_genus2,
    validate,
)
from howe5.search_engine import random_valid_params


def _params(row):
    p, a1, a2, a, b = row
    return HoweParams.from_ints(p, a1, a2, a, b)


class TestGenusFormula:
    def test_values(self):
        assert genus_of_howe(2, 2, 4) == 5
        assert genus_of_howe(1, 1, 0) == 5
        assert genus_of_howe(1, 1, 2) == 3
        assert genus_of_howe(2, 2, 6) == 3

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            genus_of_howe(0, 1, 2)
        with pytest.raises(ValueError):
            genus_of_howe(2, 1, 0)

    def test_branch_overlap_range(self):
        with pytest.raises(ValueError):
            genus_of_howe(2, 2, 7)  # at most 2*g1 + 2 shared points
        with pytest.raises(ValueError):
            genus_of_howe(1, 1, -1)

    def test_hyperelliptic_criterion(self):
        assert is_hyperelliptic_howe(2, 2, 5) is True
        assert is_hyperelliptic_howe(2, 2, 4) is False

    def test_hyperelliptic_needs_genus_4(self):
        with pytest.raises(HypothesisViolated):
            is_hyperelliptic_howe(1, 1, 2)


class TestHoweParams:
    def test_row_roundtrip(self):
        params = _params(ROW_P499)
        assert params.row() == (499, 47, 436, 2, 1, 10, 55, 92, 84, 36, 275)
        assert HoweParams.from_row(params.row()) == params

    def test_from_ints_reduces(self):
        p1 = HoweParams.from_ints(11, 15, 6, (5, 3, 10, 7, 6, 8), (9, 2))
        p2 = HoweParams.from_ints(11, 4, 6, (5, 3, 10, 7, 6, 8), (9, 2))
        assert p1 == p2


class TestValidate:
    @pytest.mark.parametrize("row", [ROW_P499, ROW_P11, ROW_P37])
    def test_example_rows_valid(self, row):
        res = validate(_params(row))
        assert res.ok
        assert not res.violations

    def test_coincident_roots_degenerate(self):
        res = validate(HoweParams.from_ints(11, 1, 1, (0, 1, 2, 3, 4, 5), (4, 7)))
        assert not res.ok
        assert any(v.code == "Degenerate" for v in res.violations)

    def test_zero_twist_degenerate(self):
        res = validate(HoweParams.from_ints(11, 0, 1, (5, 3, 10, 7, 6, 8), (9, 2)))
        assert not res.ok
        assert any(v.code == "Degenerate" for v in res.violations)

    def test_cross_ratio_failure(self):
        # pick b6 off the compatibility locus for the p=11 row
        res = validate(HoweParams.from_ints(11, 4, 6, (5, 3, 10, 7, 6, 8), (9, 4)))
        assert not res.ok
        assert any(v.code == "CrossRatioFailed" for v in res.violations)

    def test_non_square_obstruction_frozen_witness(self):
        res = validate(HoweParams.from_ints(11, 1, 1, (0, 1, 2, 3, 5, 6), (8, 9)))
        assert not res.ok
        codes = [v.code for v in res.violations]
        assert "NonSquareObstruction" in codes
        first = next(v for v in res.violations if v.code == "NonSquareObstruction")
        assert first.detail == "a(a - b) = 6 is not a nonzero square"

    def test_info_square_diagnostics(self):
        res = validate(_params(ROW_P11))
        info = res.info
        for key in ("chi_a_ab", "chi_a_ac", "chi_product_a4_a5", "chi_product_a4_b5"):
            assert info[key] in (-1, 1)
        assert info["chi_product_a4_a5"] == info["chi_a_ab"]
        assert info["chi_product_a4_b5"] == info["chi_a_ac"]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), p=st.sampled_from([23, 31, 101, 199]))
    def test_quartets_carry_the_square_classes(self, data, p):
        """chi((a1-a2)(a2-a4)(a4-a5)(a5-a1)) = chi(a(a - b)), and the same
        with b5 for a5 and c for b: a(a - b) is the quartet times a square
        for any eight distinct points, valid or not."""
        roots = data.draw(st.lists(st.integers(0, p - 1), min_size=8, max_size=8,
                                   unique=True))
        alphas = data.draw(st.tuples(st.integers(1, p - 1), st.integers(1, p - 1)))
        info = validate(HoweParams.from_ints(p, *alphas, roots[:6], roots[6:])).info
        assert info["chi_product_a4_a5"] == info["chi_a_ab"]
        assert info["chi_product_a4_b5"] == info["chi_a_ac"]

    def test_raise_if_invalid(self):
        good = validate(_params(ROW_P37))
        good.raise_if_invalid()  # no-op when ok
        bad = validate(HoweParams.from_ints(11, 1, 1, (0, 1, 2, 3, 5, 6), (8, 9)))
        with pytest.raises(NonSquareObstruction):
            bad.raise_if_invalid()


class TestDecompose:
    def test_p11_factors(self):
        split, curves = decompose_genus5(_params(ROW_P11))
        assert [(int(c.theta), int(c.lam)) for c in curves] == [
            (8, 6), (8, 2), (8, 2), (8, 10), (3, 10)]
        assert (int(split.a), int(split.b), int(split.c)) == (3, 10, 5)
        assert (int(split.beta1), int(split.beta2)) == (3, 4)

    def test_p499_factors(self):
        _, curves = decompose_genus5(_params(ROW_P499))
        assert [(int(c.theta), int(c.lam)) for c in curves] == [
            (31, 438), (31, 198), (95, 302), (95, 62), (47, 198)]

    def test_p37_factors(self):
        _, curves = decompose_genus5(_params(ROW_P37))
        assert [(int(c.theta), int(c.lam)) for c in curves] == [
            (26, 26), (26, 4), (4, 34), (4, 12), (21, 10)]

    def test_invalid_params_raise(self):
        with pytest.raises(NonSquareObstruction):
            decompose_genus5(HoweParams.from_ints(11, 1, 1, (0, 1, 2, 3, 5, 6), (8, 9)))

    def test_split_data_mirrors_curves(self):
        split, curves = decompose_genus5(_params(ROW_P499))
        assert tuple(int(t) for t in split.theta) == tuple(int(c.theta) for c in curves)
        assert tuple(int(l) for l in split.lam) == tuple(int(c.lam) for c in curves)

    @pytest.mark.parametrize("row", [ROW_P499, ROW_P11, ROW_P37])
    def test_pairs_share_twist(self, row):
        """The first two factors share a twist, as do the next two."""
        _, curves = decompose_genus5(_params(row))
        assert int(curves[0].theta) == int(curves[1].theta)
        assert int(curves[2].theta) == int(curves[3].theta)


class TestSplitGenus2:
    def test_p11_pair(self):
        models = howe_models(_params(ROW_P11))
        e_plus, e_minus = split_genus2(models[0])
        assert {(int(e.theta), int(e.lam)) for e in (e_plus, e_minus)} == {(8, 6), (8, 2)}

    def test_p499_pair(self):
        models = howe_models(_params(ROW_P499))
        pair = {(int(e.theta), int(e.lam)) for e in split_genus2(models[0])}
        assert pair == {(31, 438), (31, 198)}

    def test_rejects_quartic(self):
        models = howe_models(_params(ROW_P11))
        with pytest.raises(ValueError):
            split_genus2(models[2])

    @pytest.mark.parametrize("row", [ROW_P499, ROW_P11, ROW_P37])
    def test_count_identity(self, row):
        """#D = #E+ + #E- - (p + 1) for both sextic quotients."""
        p = row[0]
        models = howe_models(_params(row))
        for m in models[:2]:
            e1, e2 = split_genus2(m)
            lhs = count_points(m, 1).count
            assert lhs == legendre_count_fp(e1) + legendre_count_fp(e2) - (p + 1)


class TestHoweCounts:
    def test_p11_base(self):
        hc = howe_counts(_params(ROW_P11), 1)
        assert (hc.q, hc.j) == (11, 1)
        assert (hc.c1, hc.c2, hc.c3) == (12, 12, 12)
        assert hc.e == (12, 12, 12, 12, 12)
        assert hc.total == 12

    def test_p11_quadratic(self):
        params = _params(ROW_P11)
        hc = howe_counts(params, 2)
        assert hc.total == 232  # 121 + 1 + 10*11, the genus-5 cap over F_121
        assert hc.e == (144, 144, 144, 144, 144)
        # lifted counts against the direct oracle, factor by factor too
        assert direct_counts(params, 2) == (hc.c1, hc.c2, hc.c3, hc.total)
        _, curves = decompose_genus5(params)
        assert tuple(count_points(E.model(), 2).count for E in curves) == hc.e

    def test_p499_hits_serre_bound(self):
        assert howe_counts(_params(ROW_P499), 1).total == serre_bound(499, 5)

    def test_p37_cubic_extension(self):
        params = _params(ROW_P37)
        hc = howe_counts(params, 3)
        assert hc.total == serre_bound(37 ** 3, 5)
        assert direct_counts(params, 3) == (hc.c1, hc.c2, hc.c3, hc.total)

    @pytest.mark.parametrize("p", [11, 13, 17, 19, 23])
    def test_cubic_lift_matches_oracle(self, p):
        rng = random.Random(300 + p)
        for _ in range(2):
            params = random_valid_params(p, rng)
            hc = howe_counts(params, 3)
            assert direct_counts(params, 3) == (hc.c1, hc.c2, hc.c3, hc.total)

    def test_lift_needs_base_field_counts(self):
        with pytest.raises(ValueError):
            howe_counts(_params(ROW_P11), 2).lift(3)

    def test_quotient_mismatch_detected(self, monkeypatch):
        """A quotient count that disagrees with its factors over F_p is
        caught before anything is lifted."""
        real = howe_factory.howe_models

        def twisted_c3(params):
            c1, c2, c3 = real(params)
            nonsquare = next(v for v in range(2, params.mod.p)
                             if legendre_symbol(v, params.mod) == -1)
            return c1, c2, HyperellipticModel(c3.mod, c3.alpha * nonsquare, c3.roots)

        monkeypatch.setattr(howe_factory, "howe_models", twisted_c3)
        with pytest.raises(DecompositionMismatch):
            howe_counts(_params(ROW_P499), 2)

    def test_total_consistency(self):
        hc = howe_counts(_params(ROW_P11), 1)
        assert hc.total == hc.c1 + hc.c2 + hc.c3 - 2 * hc.q - 2
        assert hc.total == sum(hc.e) - 4 * hc.q - 4

    def test_point_count_wrapper(self):
        pc = howe_point_count(_params(ROW_P11), 1)
        assert pc.count == 12
        assert pc.genus == 5
        assert pc.q == 11

    def test_against_naive_quotient_counts(self):
        params = _params(ROW_P11)
        hc = howe_counts(params, 1)
        models = howe_models(params)
        for m, expect in zip(models, (hc.c1, hc.c2, hc.c3)):
            alpha = int(m.alpha)
            roots = tuple(int(r) for r in m.roots)
            assert naive_count_fp(11, alpha, roots) == expect


class TestVerdicts:
    def test_p11(self):
        v = serre_verdicts(_params(ROW_P11))
        assert v.serre_fp is None  # p < 17, predicate out of range
        assert v.maximal_fp2 is True
        assert v.serre_fp3 is False
        assert v.count_mod4_ok is True
        assert v.p_mod4 == 3
        assert v.maximal_fp2_each == (True,) * 5

    def test_p499(self):
        v = serre_verdicts(_params(ROW_P499))
        assert v.serre_fp is True
        assert v.maximal_fp2 is False
        assert v.serre_fp3 is False
        assert v.serre_fp_each == (True,) * 5
        assert v.p_mod4 == 3

    def test_p37(self):
        v = serre_verdicts(_params(ROW_P37))
        assert v.serre_fp is False
        assert v.maximal_fp2 is False
        assert v.serre_fp3 is True
        assert v.serre_fp3_each == (True,) * 5
        assert v.p_mod4 == 1

    def test_aggregate_is_conjunction(self):
        rng = random.Random(41)
        from howe5.search_engine import random_valid_params

        for p in (29, 31, 37):
            params = random_valid_params(p, rng)
            if params is None:
                continue
            v = serre_verdicts(params)
            assert v.serre_fp == all(v.serre_fp_each)
            assert v.maximal_fp2 == all(v.maximal_fp2_each)
            assert v.serre_fp3 == all(v.serre_fp3_each)


class TestReport:
    def test_build_and_serialize(self):
        params = _params(ROW_P11)
        rep = DecompositionReport.build(params, exts=(1, 2))
        d = rep.to_json_dict()
        assert d["p"] == 11
        assert d["factors"][0] == {"theta": 8, "lambda": 6}
        assert d["counts"]["1"]["C"] == 12
        assert d["counts"]["2"]["C"] == 232
        assert d["validation"]["ok"] is True

    def test_json_roundtrip(self):
        params = _params(ROW_P37)
        blob = DecompositionReport.build(params).to_json()
        back = params_from_json_dict(json.loads(blob))
        assert back == params

    def test_build_validates_once(self, monkeypatch):
        calls = []
        real = howe_factory.validate

        def counted(params):
            calls.append(params)
            return real(params)

        monkeypatch.setattr(howe_factory, "validate", counted)
        DecompositionReport.build(_params(ROW_P11), exts=(1, 2, 3))
        assert len(calls) == 1

    def test_verdicts_serialized(self):
        d = DecompositionReport.build(_params(ROW_P499)).to_json_dict()
        assert d["verdicts"]["serre_fp"] is True
        assert d["verdicts"]["maximal_fp2"] is False
