import json
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (
    ROW_P11, ROW_P37, ROW_P499, naive_count_fp, quotient_models, random_valid_params,
)
from howe5 import curve_models, howe_factory, tables
from howe5.curve_models import count_points
from howe5.errors import DecompositionMismatch, NonSquareObstruction
from howe5.field_arith import is_prime, legendre_symbol, prime_modulus
from howe5.hasse_serre import (
    LegendreCurve,
    attains_serre_fp,
    attains_serre_fp3,
    maximal_fp2,
    serre_bound,
)
from howe5.howe_factory import (
    DecompositionReport,
    HoweParams,
    decompose_genus5,
    direct_counts,
    howe_counts,
    howe_counts_many,
    validate,
    validate_many,
)


SRC = Path(__file__).resolve().parents[1] / "src"


def _params(row):
    p, a1, a2, a, b = row
    return HoweParams.from_ints(p, a1, a2, a, b)


class TestHoweParams:
    def test_row_roundtrip(self):
        params = _params(ROW_P499)
        assert params.row() == (499, 47, 436, 2, 1, 10, 55, 92, 84, 36, 275)
        assert HoweParams.from_row(params.row()) == params

    def test_from_ints_reduces(self):
        p1 = HoweParams.from_ints(11, 15, 6, (5, 3, 10, 7, 6, 8), (9, 2))
        p2 = HoweParams.from_ints(11, 4, 6, (5, 3, 10, 7, 6, 8), (9, 2))
        assert p1 == p2

    @pytest.mark.parametrize("args", [
        (11, 4, 6, (5.5, 3, 10, 7, 6, 8), (9, 2)),
        (11, 4, "6", (5, 3, 10, 7, 6, 8), (9, 2)),
        (11.0, 4, 6, (5, 3, 10, 7, 6, 8), (9, 2)),
        (11, 4, 6, (5, 3, 10, 7, 6, 8), (9, None)),
        (11, True, 6, (5, 3, 10, 7, 6, 8), (9, 2)),
    ], ids=["float-root", "str-twist", "float-prime", "none-root", "bool-twist"])
    def test_from_ints_rejects_non_integers(self, args):
        with pytest.raises(ValueError, match="parameters must be integers"):
            HoweParams.from_ints(*args)


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

    def test_invalid_results_carry_no_split(self):
        for params in (
            HoweParams.from_ints(11, 1, 1, (0, 1, 2, 3, 4, 5), (4, 7)),
            HoweParams.from_ints(11, 4, 6, (5, 3, 10, 7, 6, 8), (9, 4)),
            HoweParams.from_ints(11, 1, 1, (0, 1, 2, 3, 5, 6), (8, 9)),
        ):
            res = validate(params)
            assert not res.ok and res.split is None
        assert validate(_params(ROW_P11)).split is not None

    @pytest.mark.parametrize("p", [p for p in range(5, 48) if is_prime(p)])
    def test_split_pair_degenerates_only_at_d_equal_one(self, p):
        """Over the cross-ratios a, b (not 0 or 1) with a(a - b) a nonzero
        square, a pair's factors degenerate exactly when
        d = a(1 - b)/(1 - a) = 1, the frame image of a6 = a3: validate's
        input checks leave no factor degenerate."""
        for a in range(2, p):
            for b in range(2, p):
                if legendre_symbol(p, a * (a - b)) != 1:
                    continue
                theta, lam_plus, lam_minus = howe_factory._split_pair(p, 1, a, b)
                degenerate = theta == 0 or {lam_plus, lam_minus} & {0, 1}
                assert bool(degenerate) == ((a * (1 - b) - (1 - a)) % p == 0), (a, b)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), p=st.sampled_from([7, 11, 13, 23, 31]))
    def test_frame_solved_sets_validate_or_split(self, data, p):
        """Distinct a1..a5, b5 with a6 and b6 solved in the frame
        y = cr(a1, a2, a3, x): validate reports an input violation or
        returns the split, and never raises."""
        a1, a2, a3, a4, a5, b5 = data.draw(
            st.lists(st.integers(0, p - 1), min_size=6, max_size=6, unique=True))
        alphas = data.draw(st.tuples(st.integers(1, p - 1), st.integers(1, p - 1)))

        def div(x, y):
            return x * pow(y, -1, p) % p

        k = div(a1 - a3, a2 - a3)
        a, b, c = (div(k * (a2 - x), a1 - x) for x in (a4, a5, b5))
        d, e = div(a * (1 - b), 1 - a), div(a * (1 - c), 1 - a)
        assume(k not in (d, e))  # the frame sends x = infinity to k
        a6, b6 = (div(k * a2 - y * a1, k - y) for y in (d, e))
        params = HoweParams(prime_modulus(p), *alphas, (a1, a2, a3, a4, a5, a6), (b5, b6))
        res = validate(params)
        if res.ok:
            assert len(res.split.curves) == 5
        else:
            assert res.split is None
            assert {v.code for v in res.violations} <= {"Degenerate", "NonSquareObstruction"}

    def test_raise_if_invalid(self):
        good = validate(_params(ROW_P37))
        good.raise_if_invalid()  # no-op when ok
        bad = validate(HoweParams.from_ints(11, 1, 1, (0, 1, 2, 3, 5, 6), (8, 9)))
        with pytest.raises(NonSquareObstruction):
            bad.raise_if_invalid()


@pytest.mark.parametrize("table", [1, 2, 3])
def test_validate_stores_each_factors_standalone_hasse(table):
    """validate evaluates the five factors' Hasse residues together and
    stores them; each equals the residue a standalone curve evaluates."""
    for params in tables.load_table(table):
        for E in validate(params).split.curves:
            assert "hasse" in vars(E)
            assert E.hasse == LegendreCurve(E.mod, E.theta, E.lam).hasse


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32), p=st.sampled_from([11, 23, 37, 101]),
       kinds=st.lists(st.booleans(), min_size=2, max_size=6))
def test_batches_match_one_at_a_time(seed, p, kinds):
    """validate_many and howe_counts_many of parameter sets at one prime,
    valid ones (True in kinds) mixed with random and mostly invalid ones,
    equal validate and howe_counts of each set: the violations, the
    info, the split with its factors' stored Hasse residues, and the counts
    over F_p."""
    rng = random.Random(seed)
    batch = []
    for valid in kinds:
        split = random_valid_params(p, rng) if valid else None
        batch.append(split.params if split is not None else HoweParams.from_ints(
            p, rng.randrange(p), rng.randrange(p), rng.sample(range(p), 6),
            rng.sample(range(p), 2)))
    many = validate_many(batch)
    assert len(many) == len(batch)
    for params, got in zip(batch, many):
        want = validate(params)
        assert (got.params, got.violations, got.info, got.split) == (
            want.params, want.violations, want.info, want.split)
        if want.split is not None:
            assert [E.hasse for E in got.split.curves] == [E.hasse for E in want.split.curves]
            assert all("hasse" in vars(E) for E in got.split.curves)
    splits = [res.split for res in many if res.split is not None]
    assert howe_counts_many(splits) == [howe_counts(split) for split in splits]


@pytest.mark.parametrize("row,message", [
    ((11, 0, 6, (5, 3, 10, 7, 6, 8), (9, 2)), "alpha must be nonzero"),
    ((11, 4, 6, (5, 3, 10, 7, 6, 8), (9, 5)), "pairwise distinct"),  # b6 = a1, in C2
    ((11, 4, 6, (5, 3, 10, 7, 6, 8), (6, 2)), "pairwise distinct"),  # b5 = a5, in C3
], ids=["zero-twist", "repeated-in-c2", "repeated-in-c3"])
def test_direct_counts_reject_degenerate_params(row, message):
    """The oracle counts unvalidated sets too, so it rejects a zero twist or
    a repeated root itself."""
    with pytest.raises(ValueError, match=message):
        direct_counts(_params(row), 1)


def test_batches_share_one_prime():
    assert validate_many([]) == [] and howe_counts_many([]) == []
    with pytest.raises(ValueError, match="one prime"):
        validate_many([_params(ROW_P11), _params(ROW_P37)])
    splits = [decompose_genus5(_params(row)) for row in (ROW_P11, ROW_P37)]
    with pytest.raises(ValueError):
        howe_counts_many(splits)


class TestDecompose:
    def test_p11_factors(self):
        split = decompose_genus5(_params(ROW_P11))
        assert [(int(c.theta), int(c.lam)) for c in split.curves] == [
            (8, 6), (8, 2), (8, 2), (8, 10), (3, 10)]
        assert (int(split.a), int(split.b), int(split.c)) == (3, 10, 5)
        assert (int(split.beta1), int(split.beta2)) == (3, 4)

    def test_p499_factors(self):
        curves = decompose_genus5(_params(ROW_P499)).curves
        assert [(int(c.theta), int(c.lam)) for c in curves] == [
            (31, 438), (31, 198), (95, 302), (95, 62), (47, 198)]

    def test_p37_factors(self):
        curves = decompose_genus5(_params(ROW_P37)).curves
        assert [(int(c.theta), int(c.lam)) for c in curves] == [
            (26, 26), (26, 4), (4, 34), (4, 12), (21, 10)]

    def test_invalid_params_raise(self):
        with pytest.raises(NonSquareObstruction):
            decompose_genus5(HoweParams.from_ints(11, 1, 1, (0, 1, 2, 3, 5, 6), (8, 9)))

    @pytest.mark.parametrize("row", [ROW_P499, ROW_P11, ROW_P37])
    def test_pairs_share_twist(self, row):
        """The first two factors share a twist, as do the next two."""
        curves = decompose_genus5(_params(row)).curves
        assert int(curves[0].theta) == int(curves[1].theta)
        assert int(curves[2].theta) == int(curves[3].theta)


class TestSplitGenus2:
    @pytest.mark.parametrize("row", [ROW_P499, ROW_P11, ROW_P37])
    def test_count_identity(self, row):
        """#D = #E+ + #E- - (p + 1) for both sextic quotients and the factor
        pair decompose_genus5 splits each into, all counted by brute force."""
        p = row[0]
        params = _params(row)
        curves = decompose_genus5(params).curves
        for m, (e1, e2) in zip(quotient_models(params)[:2], (curves[:2], curves[2:4])):
            lhs = count_points(m, 1).count
            n1, n2 = (count_points(E.model(), 1).count for E in (e1, e2))
            assert lhs == n1 + n2 - (p + 1)


class TestHoweCounts:
    def test_p11_base(self):
        hc = howe_counts(decompose_genus5(_params(ROW_P11)))
        assert (hc.q, hc.j) == (11, 1)
        assert (hc.c1, hc.c2, hc.c3) == (12, 12, 12)
        assert hc.e == (12, 12, 12, 12, 12)
        assert hc.total == 12

    def test_p11_quadratic(self):
        params = _params(ROW_P11)
        split = decompose_genus5(params)
        hc = howe_counts(split).lift(2)
        assert hc.total == 232  # 121 + 1 + 10*11, the genus-5 cap over F_121
        assert hc.e == (144, 144, 144, 144, 144)
        # lifted counts against the direct oracle, factor by factor too
        assert direct_counts(params, 2) == (hc.c1, hc.c2, hc.c3, hc.total)
        assert tuple(count_points(E.model(), 2).count for E in split.curves) == hc.e

    def test_p499_hits_serre_bound(self):
        assert howe_counts(decompose_genus5(_params(ROW_P499))).total == serre_bound(499, 5)

    def test_p37_cubic_extension(self):
        params = _params(ROW_P37)
        hc = howe_counts(decompose_genus5(params)).lift(3)
        assert hc.total == serre_bound(37 ** 3, 5)
        assert direct_counts(params, 3) == (hc.c1, hc.c2, hc.c3, hc.total)

    @pytest.mark.parametrize("p", [11, 13, 17, 19, 23])
    def test_cubic_lift_matches_oracle(self, p):
        rng = random.Random(300 + p)
        for _ in range(2):
            split = random_valid_params(p, rng)
            hc = howe_counts(split).lift(3)
            assert direct_counts(split.params, 3) == (hc.c1, hc.c2, hc.c3, hc.total)

    def test_lift_needs_base_field_counts(self):
        with pytest.raises(ValueError):
            howe_counts(decompose_genus5(_params(ROW_P11))).lift(2).lift(3)

    def test_quotient_mismatch_detected(self, monkeypatch):
        """A quotient count that disagrees with its factors over F_p is
        caught before anything is lifted."""
        real = curve_models.count_quotients

        def twisted_c3(p, j, alphas, *roots):
            nonsquare = next(v for v in range(2, p) if legendre_symbol(p, v) == -1)
            return real(p, j, [(a1, a2, a3 * nonsquare % p) for a1, a2, a3 in alphas], *roots)

        monkeypatch.setattr(curve_models, "count_quotients", twisted_c3)
        with pytest.raises(DecompositionMismatch):
            howe_counts(decompose_genus5(_params(ROW_P499)))

    def test_total_consistency(self):
        hc = howe_counts(decompose_genus5(_params(ROW_P11)))
        assert hc.total == hc.c1 + hc.c2 + hc.c3 - 2 * hc.q - 2
        assert hc.total == sum(hc.e) - 4 * hc.q - 4

    def test_against_naive_quotient_counts(self):
        params = _params(ROW_P11)
        hc = howe_counts(decompose_genus5(params))
        models = quotient_models(params)
        for m, expect in zip(models, (hc.c1, hc.c2, hc.c3)):
            assert naive_count_fp(11, m.alpha, m.roots) == expect


@settings(max_examples=40, deadline=None)
@given(data=st.data(), p=st.sampled_from([23, 31, 101]))
def test_affine_maps_preserve_the_decomposition(data, p):
    """x -> ux + v on all eight roots, twists kept, keeps every cross-ratio
    and scales each beta by u^4, a square: the image validates with the same
    five lambda, the same chi(theta_i), counts and verdicts."""
    split = random_valid_params(p, random.Random(data.draw(st.integers(0, 2 ** 32), label="seed")))
    assume(split is not None)
    params = split.params
    u = data.draw(st.integers(1, p - 1), label="u")
    v = data.draw(st.integers(0, p - 1), label="v")
    _, alpha1, alpha2, *roots = params.row()
    moved = [(u * r + v) % p for r in roots]
    image = HoweParams.from_ints(p, alpha1, alpha2, moved[:6], moved[6:])
    result = validate(image)
    assert result.ok
    split_image = result.split
    assert [E.lam for E in split_image.curves] == [E.lam for E in split.curves]
    assert ([legendre_symbol(p, E.theta) for E in split_image.curves]
            == [legendre_symbol(p, E.theta) for E in split.curves])
    for j in (1, 2, 3):
        assert howe_counts(split_image).lift(j).total == howe_counts(split).lift(j).total
    assert DecompositionReport.build(image).verdicts == DecompositionReport.build(params).verdicts
    if p == 23:
        assert direct_counts(image, 2)[3] == howe_counts(split_image).lift(2).total


class TestVerdicts:
    def test_p11(self):
        v = DecompositionReport.build(_params(ROW_P11)).verdicts
        assert v.serre_fp is None  # p < 17, predicate out of range
        assert v.maximal_fp2 is True
        assert v.serre_fp3 is False
        assert v.count_mod4_ok is True
        assert v.p_mod4 == 3
        assert [maximal_fp2(E) for E in decompose_genus5(_params(ROW_P11)).curves] == [True] * 5

    def test_p499(self):
        v = DecompositionReport.build(_params(ROW_P499)).verdicts
        assert v.serre_fp is True
        assert v.maximal_fp2 is False
        assert v.serre_fp3 is False
        assert [attains_serre_fp(E) for E in decompose_genus5(_params(ROW_P499)).curves] == [True] * 5
        assert v.p_mod4 == 3

    def test_p37(self):
        v = DecompositionReport.build(_params(ROW_P37)).verdicts
        assert v.serre_fp is False
        assert v.maximal_fp2 is False
        assert v.serre_fp3 is True
        assert [attains_serre_fp3(E) for E in decompose_genus5(_params(ROW_P37)).curves] == [True] * 5
        assert v.p_mod4 == 1

    def test_aggregate_is_conjunction(self):
        rng = random.Random(41)
        for p in (29, 31, 37):
            split = random_valid_params(p, rng)
            if split is None:
                continue
            v = DecompositionReport.build(split.params).verdicts
            curves = split.curves
            assert v.serre_fp == all(attains_serre_fp(E) for E in curves)
            assert v.maximal_fp2 == all(maximal_fp2(E) for E in curves)
            assert v.serre_fp3 == all(attains_serre_fp3(E) for E in curves)


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
        back = HoweParams.from_json_dict(json.loads(blob))
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

    @pytest.mark.parametrize("table", [1, 2, 3])
    def test_json_text_is_json_dumps(self, table):
        for params in tables.load_table(table):
            d = DecompositionReport.build(params, exts=(1, 2)).to_json_dict()
            assert howe_factory._json_text(d) == json.dumps(d, indent=2, sort_keys=True)
        d = {"b": [], "a": {}, "c": [None, True, False, -3, "x\u00e9\"\n", {"z": [1, [2, {}]]}], "": 0}
        assert howe_factory._json_text(d) == json.dumps(d, indent=2, sort_keys=True)
        for bad in (1.5, (1,), {1: 2}, [{"a": 1.0}]):
            with pytest.raises(TypeError):
                howe_factory._json_text(bad)

    def test_verdicts_serialized(self):
        d = DecompositionReport.build(_params(ROW_P499)).to_json_dict()
        assert d["verdicts"]["serre_fp"] is True
        assert d["verdicts"]["maximal_fp2"] is False


def test_decomposition_path_leaves_numpy_fft_unimported():
    """The factor counts come from the Hasse residues, so checking the
    bundled tables and building a report run no FFT: numpy.fft, which
    numpy loads on first use, stays out of sys.modules."""
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r})\n"
        "import contextlib, io\n"
        "from howe5 import cli, tables\n"
        "from howe5.howe_factory import DecompositionReport\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    status = cli.main(['verify-tables'])\n"
        "DecompositionReport.build(tables.load_table(1)[0], (1, 2))\n"
        "print(status, 'numpy.fft' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False"]
