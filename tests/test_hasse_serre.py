import functools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import naive_count_ext, naive_count_fp
from howe5 import hasse_serre, tables
from howe5.curve_models import count_points
from howe5.errors import HasseViolation, HypothesisViolated, InexactTraces
from howe5.field_arith import is_prime, legendre_symbol, residue_tables
from howe5.hasse_serre import (
    LegendreCurve,
    Target,
    attains_serre_fp,
    attains_serre_fp3,
    exact_trace,
    floor_two_sqrt,
    hasse_poly_table,
    hasse_residues,
    legendre_traces,
    lift_trace,
    maximal_fp2,
    serre_bound,
    trace_mod_p,
    zeta_lift,
)


def _H(p: int, v: int) -> int:
    return hasse_residues(p, [v % p])[0]


def _coeffs(p: int) -> list[int]:
    """The coefficients binom(m, i)^2 mod p that hasse_residues sums, read
    off its cached gather: g^e[i] for the least primitive root g."""
    _, powers, _, e = hasse_serre._hasse_gather(p)
    return powers[e].tolist()


def _count_fp(curve: LegendreCurve) -> int:
    """The brute-force count of the curve over F_p."""
    return count_points(curve.model(), 1).count


def _binomial_squares(p: int) -> list[int]:
    """binom(m, i)^2 mod p for i in [0, m], m = (p - 1) / 2, by the
    multiplicative recurrence binom(m, i) = binom(m, i - 1) (m - i + 1) / i,
    with the inverses from inv(i) = -(p // i) inv(p mod i)."""
    m, inv = (p - 1) // 2, [0, 1]
    for i in range(2, m + 1):
        inv.append(-(p // i) * inv[p % i] % p)
    coeffs, b = [1], 1
    for i in range(1, m + 1):
        b = b * (m - i + 1) * inv[i] % p
        coeffs.append(b * b % p)
    return coeffs


def _horner(coeffs: list[int], p: int, v: int) -> int:
    """The polynomial with these coefficients, lowest first, at v mod p."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * v + c) % p
    return acc


class TestHassePolynomial:
    def test_coeffs_p11(self):
        # binom(5, i)^2 mod 11 for i = 0..5
        assert _coeffs(11) == [1, 3, 1, 1, 3, 1]

    def test_eval_frozen_values(self):
        assert _H(11, 0) == 1
        assert _H(11, 1) == 10
        assert _H(11, 6) == 0

    def test_zero_sets(self):
        """Roots of the polynomial in F_p, computed once and pinned."""
        zeros = lambda p: sorted(v for v in range(p) if _H(p, v) == 0)
        assert zeros(11) == [2, 6, 10]
        assert zeros(13) == []
        assert zeros(19) == [2, 10, 18]
        assert zeros(23) == [2, 3, 8, 11, 12, 13, 16, 21, 22]

    @pytest.mark.parametrize("p", [11, 13, 17, 19, 23])
    def test_table_matches_pointwise_eval(self, p):
        tab = hasse_poly_table(p)
        assert len(tab) == p
        for v in range(p):
            assert int(tab[v]) == _H(p, v)

    def test_degree(self):
        assert len(_coeffs(13)) == (13 - 1) // 2 + 1

    def test_coeffs_match_the_recurrence(self):
        """At every odd prime below 3000 and at 10007, 99991 and 1048573,
        the largest prime below the cap."""
        for p in [*(p for p in range(3, 3000) if is_prime(p)), 10007, 99991, 1048573]:
            assert _coeffs(p) == _binomial_squares(p), p

    def test_residues_match_horner_at_every_lambda(self):
        for p in (p for p in range(3, 200) if is_prime(p)):
            coeffs = _binomial_squares(p)
            want = [_horner(coeffs, p, v) for v in range(p)]
            assert hasse_residues(p, list(range(p))) == want, p
            assert [_H(p, v) for v in range(p)] == want, p

    @pytest.mark.parametrize("p", [10007, 1048573])
    def test_residues_match_horner_at_sampled_lambdas(self, p):
        coeffs = _binomial_squares(p)
        lams = [0, 1, p - 1, *random.Random(p).sample(range(2, p - 1), 3)]
        want = [_horner(coeffs, p, v) for v in lams]
        assert hasse_residues(p, lams) == want
        assert [_H(p, v) for v in lams] == want


def _chi_by_squares(p: int) -> np.ndarray:
    """The quadratic character from the set of squares, without the
    package's residue tables."""
    chi = -np.ones(p, dtype=np.int64)
    x = np.arange(p, dtype=np.int64)
    chi[x * x % p] = 1
    chi[0] = 0
    return chi


def _direct_trace(p: int, chi: np.ndarray, v: int) -> int:
    """-sum_x chi(x (x - 1) (x - v)), the O(p) character sum."""
    x = np.arange(p, dtype=np.int64)
    return -int(chi[x * (x - 1) % p * (x - v) % p].sum())


class TestLegendreTraces:
    def test_matches_direct_character_sum(self):
        for p in (p for p in range(3, 400) if is_prime(p)):
            chi = _chi_by_squares(p)
            x = np.arange(p, dtype=np.int64)
            # row v of the matrix holds chi(x - v) for every x
            direct = -(chi[(x[None, :] - x[:, None]) % p] @ chi[x * (x - 1) % p])
            assert legendre_traces(p).tolist() == direct.tolist(), p

    def test_congruent_to_signed_hasse_polynomial(self):
        for p in (p for p in range(3, 1000) if is_prime(p)):
            xs = np.arange(p, dtype=np.int64)
            h = np.zeros(p, dtype=np.int64)
            for c in reversed(_coeffs(p)):
                h = (h * xs + c) % p
            sign = (-1) ** ((p - 1) // 2)
            assert not ((legendre_traces(p) - sign * h) % p).any(), p

    def test_exact_at_a_large_prime(self):
        # float64 rounding is far from 1/4 even at p ~ 10^5
        p = 100003
        t = legendre_traces(p)
        assert len(t) == p and (t * t <= 4 * p).all()
        chi = _chi_by_squares(p)
        for v in random.Random(7).sample(range(2, p), 4):
            assert int(t[v]) == _direct_trace(p, chi, v)

    @pytest.mark.parametrize("p", [509, 521, 1021, 1031, 2039, 2053])
    def test_matches_direct_trace_across_padded_lengths(self, p):
        """Primes on both sides of a step in the power-of-two transform
        length (1024, 2048, 4096, 8192): the end lags v = 0, 1, p - 1 and
        a sample of the others."""
        chi = _chi_by_squares(p)
        t = legendre_traces(p)
        for v in (0, 1, p - 1, *random.Random(p).sample(range(2, p - 1), 12)):
            assert int(t[v]) == _direct_trace(p, chi, v), v

    def test_read_only(self):
        with pytest.raises(ValueError):
            legendre_traces(11)[2] = 0

    @pytest.mark.parametrize("skew", [lambda s: s + 0.3, lambda s: 3 * s],
                             ids=["rounding", "hasse"])
    def test_inexact_table_raises(self, monkeypatch, skew):
        irfft = np.fft.irfft
        monkeypatch.setattr(hasse_serre.np.fft, "irfft", lambda *a, **k: skew(irfft(*a, **k)))
        with pytest.raises(InexactTraces):
            legendre_traces.__wrapped__(101)


class TestExactTrace:
    def test_matches_the_trace_table(self):
        """The trace read off the Hasse residue is chi(theta) t[lambda] of the
        FFT table, for both twist classes and every lambda not in {0, 1}."""
        for p in (p for p in range(3, 150) if is_prime(p)):
            t = legendre_traces(p).tolist()
            for theta, sign in ((1, 1), (residue_tables(p).nonres, -1)):
                got = [exact_trace(LegendreCurve.from_ints(p, theta, v)) for v in range(2, p)]
                assert got == [sign * tv for tv in t[2:]], (p, theta)

    def test_every_residue_gives_its_one_trace_or_raises(self):
        """Set as the curve's Hasse value, each residue mod p returns the one
        t = it mod p with 4 | p + 1 - t and t^2 <= 4p, or, when there is
        none, raises HasseViolation: at every odd prime below 60, and at
        1187, where most residues admit no trace."""
        for p in [p for p in range(3, 60) if is_prime(p)] + [1187]:
            traces = [t for t in range(-2 * p, 2 * p + 1)
                      if t * t <= 4 * p and (p + 1 - t) % 4 == 0]
            for h in range(p):
                curve = LegendreCurve.from_ints(p, 1, 2)
                # theta = 1, so trace_mod_p is (-1)^m times the Hasse value
                curve.__dict__["hasse"] = (-1) ** ((p - 1) // 2) * h % p
                want = [t for t in traces if (t - h) % p == 0]
                assert len(want) <= 1, (p, h)
                if want:
                    assert exact_trace(curve) == want[0], (p, h)
                else:
                    with pytest.raises(HasseViolation, match="admits no trace"):
                        exact_trace(curve)


def _attaining_curves(p: int, j: int) -> list[tuple[int, int]]:
    """(lambda, chi(theta)) for lambda in [2, p) where chi(theta) t[lambda]
    lifts to a_j = -floor(2 sqrt(p^j)): the curves y^2 = theta x (x - 1)
    (x - lambda) that attain the bound over F_{p^j}, by the exact-trace rule."""
    t = legendre_traces(p)
    goal = -floor_two_sqrt(p ** j)
    return [(v, sign) for sign in (1, -1)
            for v in np.flatnonzero(lift_trace(sign * t, p, j) == goal).tolist() if v >= 2]


_PROPERTY_PRIMES = [p for p in range(11, 4000) if is_prime(p)]


@functools.cache
def _primes_with_attaining_curves() -> dict[int, list[int]]:
    """For j = 1, 2, 3, the primes in _PROPERTY_PRIMES with a curve that
    attains the bound over F_{p^j}."""
    found: dict[int, list[int]] = {1: [], 2: [], 3: []}
    for p in _PROPERTY_PRIMES:
        for j, primes in found.items():
            if _attaining_curves(p, j):
                primes.append(p)
    return found


@settings(max_examples=100, deadline=None)
@given(data=st.data(), j0=st.sampled_from((1, 2, 3)))
def test_predicates_agree_with_trace_rule_and_count(data, j0):
    """At or above its least prime, each target's predicate, applied to the
    one curve by Target.attained, holds iff the exact trace lifts to a_j =
    -floor(2 sqrt(p^j)), iff the lifted count is the bound; below it
    attained is None.  About half the draws are a random curve over a
    random prime, the others a curve that attains the bound over F_{p^j0},
    which is rare at random."""
    if data.draw(st.booleans()):
        p = data.draw(st.sampled_from(_primes_with_attaining_curves()[j0]))
        lam, sign = data.draw(st.sampled_from(_attaining_curves(p, j0)))
        theta = data.draw(st.integers(1, p - 1).filter(
            lambda th: legendre_symbol(p, th) == sign))
    else:
        p = data.draw(st.sampled_from(_PROPERTY_PRIMES))
        lam, theta = data.draw(st.integers(2, p - 1)), data.draw(st.integers(1, p - 1))
    curve = LegendreCurve.from_ints(p, theta, lam)
    t = legendre_symbol(p, curve.theta) * int(legendre_traces(p)[lam])
    n1 = _count_fp(curve)
    assert n1 == p + 1 - t
    for target in Target:
        j = target.degree
        if p < target.min_prime:
            assert target.attained((curve,)) is None
            continue
        rule = lift_trace(t, p, j) == -floor_two_sqrt(p ** j)
        assert target.attained((curve,)) == rule == (zeta_lift(n1, p, j) == serre_bound(p ** j, 1))


class TestTarget:
    def test_degrees_and_least_primes(self):
        assert [(t.value, t.degree, t.min_prime) for t in Target] == [
            ("serre-fp", 1, 17), ("maximal-fp2", 2, 3), ("serre-fp3", 3, 11)]

    def test_attained_is_none_below_the_least_prime(self):
        """Below min_prime attained decides nothing, and never calls the
        predicate, which would raise there."""
        assert Target.SERRE_FP.attained((LegendreCurve.from_ints(13, 2, 5),)) is None
        assert Target.SERRE_FP3.attained((LegendreCurve.from_ints(7, 2, 5),)) is None
        assert Target.MAXIMAL_FP2.attained((LegendreCurve.from_ints(7, 2, 5),)) is False

    def test_attained_needs_every_factor(self):
        good = LegendreCurve.from_ints(19, 1, 10)  # H_19(10) = 0
        bad = LegendreCurve.from_ints(19, 1, 3)
        assert Target.MAXIMAL_FP2.attained((good,) * 5) is True
        assert Target.MAXIMAL_FP2.attained((good,) * 4 + (bad,)) is False


class TestGoalTraces:
    """Target.goal_traces(p): the traces a passing factor can have, the
    lift rule together with 4 | p + 1 - t, from p alone."""

    def test_values(self):
        # 499 + 1 + 44 = 4 * 136 and 503 + 1 + 44 = 4 * 137, but 509 + 1 + 45
        # = 555 is odd
        assert [Target.SERRE_FP.goal_traces(p) for p in (499, 503, 509)] == [(-44,), (-44,), ()]
        # the rule over F_p^2 is t = 0, so 4 | p + 1 needs p = 3 mod 4
        assert [Target.MAXIMAL_FP2.goal_traces(p) for p in (3, 5, 11, 13)] == [(0,), (), (0,), ()]
        # 6^3 - 3 * 37 * 6 = -450 = -floor(2 sqrt(37^3)), and 37 + 1 - 6 = 32
        assert Target.SERRE_FP3.goal_traces(37) == (6,)
        assert floor_two_sqrt(37 ** 3) == 450

    @pytest.mark.parametrize("target,ruled_out,primes", [
        (Target.SERRE_FP, 308, 424), (Target.MAXIMAL_FP2, 211, 429), (Target.SERRE_FP3, 404, 426),
    ])
    def test_primes_ruled_out_up_to_3000(self, target, ruled_out, primes):
        ps = [p for p in range(target.min_prime, 3001) if is_prime(p)]
        assert (sum(not target.goal_traces(p) for p in ps), len(ps)) == (ruled_out, primes)

    def test_every_bundled_row_passes_its_tables_congruence(self):
        for n, target in tables.TABLE_TARGETS.items():
            for params in tables.load_table(n):
                assert target.goal_traces(params.mod.p), (n, params.mod.p)


class TestSerreBound:
    def test_floor_two_sqrt_exact(self):
        assert floor_two_sqrt(499) == 44
        assert floor_two_sqrt(11) == 6
        assert floor_two_sqrt(4) == 4  # exact square, no float fuzz
        for q in range(2, 3000):
            assert floor_two_sqrt(q) == math.isqrt(4 * q)

    def test_floor_two_sqrt_rejects_a_negative_q(self):
        with pytest.raises(ValueError):
            floor_two_sqrt(-1)

    def test_negative_genus_rejected(self):
        with pytest.raises(ValueError, match="genus must be nonnegative"):
            serre_bound(17, -1)

    def test_values(self):
        assert serre_bound(499, 5) == 720
        assert serre_bound(121, 5) == 232  # 121 + 1 + 5*22, the square case
        assert serre_bound(17, 0) == 18  # genus zero: q + 1
        assert serre_bound(37 ** 3, 5) == 52904


class TestTraceModP:
    def test_known_residue(self):
        c = LegendreCurve.from_ints(499, 31, 438)
        assert trace_mod_p(c) == 455

    def test_vanishes_on_hasse_zero_for_any_twist(self):
        # lambda = 6 kills the polynomial mod 11, so the twist cannot matter
        for theta in range(1, 11):
            c = LegendreCurve.from_ints(11, theta, 6)
            assert trace_mod_p(c) == 0

    @pytest.mark.parametrize("p", [11, 13, 17, 19])
    def test_congruent_to_true_trace(self, p):
        """The residue always agrees with p + 1 - #E mod p."""
        for lam in range(2, p):
            if lam == 1:
                continue
            for theta in (1, 2, 3):
                if theta % p == 0:
                    continue
                c = LegendreCurve.from_ints(p, theta, lam)
                n1 = _count_fp(c)
                assert trace_mod_p(c) == (p + 1 - n1) % p


class TestLegendreCurve:
    def test_degenerate_lambda_rejected(self):
        for lam in (0, 1, 11, 12):
            with pytest.raises(ValueError):
                LegendreCurve.from_ints(11, 4, lam)

    def test_zero_theta_rejected(self):
        with pytest.raises(ValueError):
            LegendreCurve.from_ints(11, 0, 6)

    def test_model_roots(self):
        c = LegendreCurve.from_ints(11, 4, 6)
        m = c.model()
        assert sorted(int(r) for r in m.roots) == [0, 1, 6]
        assert int(m.alpha) == 4

    def test_count_matches_naive(self):
        rng = random.Random(3)
        for _ in range(30):
            p = rng.choice([11, 13, 17, 19, 23])
            lam = rng.randrange(2, p)
            theta = rng.randrange(1, p)
            c = LegendreCurve.from_ints(p, theta, lam)
            lifted = lam % p
            assert _count_fp(c) == naive_count_fp(p, theta, (0, 1, lifted))


class TestSerrePredicateFp:
    def test_min_prime(self):
        assert Target.SERRE_FP.min_prime == 17
        with pytest.raises(HypothesisViolated):
            attains_serre_fp(LegendreCurve.from_ints(13, 2, 5))

    def test_true_on_all_five_p499_factors(self):
        for theta, lam in [(31, 438), (31, 198), (95, 302), (95, 62), (47, 198)]:
            assert attains_serre_fp(LegendreCurve.from_ints(499, theta, lam))

    @pytest.mark.parametrize("p", [17, 19, 23, 29, 31])
    def test_exhaustive_against_count(self, p):
        """Congruence answer == does the count hit q + 1 + floor(2 sqrt q)."""
        bound = serre_bound(p, 1)
        for lam in range(2, p):
            for theta in (1, 2, 3, p - 1):
                c = LegendreCurve.from_ints(p, theta, lam)
                assert attains_serre_fp(c) == (_count_fp(c) == bound)


class TestMaximalFp2:
    def test_true_exactly_on_zero_set_p11(self):
        for lam in range(2, 11):
            for theta in (1, 2, 7):
                c = LegendreCurve.from_ints(11, theta, lam)
                assert maximal_fp2(c) == (lam in (2, 6, 10))

    def test_false_everywhere_p13(self):
        for lam in range(2, 13):
            assert not maximal_fp2(LegendreCurve.from_ints(13, 1, lam))

    def test_twist_free(self):
        # the predicate only looks at lambda
        for theta in range(1, 19):
            c = LegendreCurve.from_ints(19, theta, 10)
            assert maximal_fp2(c)

    @pytest.mark.parametrize("p", [11, 13, 17, 19, 23])
    def test_exhaustive_against_fp2_count(self, p):
        top = p * p + 1 + 2 * p
        for lam in range(2, p):
            c = LegendreCurve.from_ints(p, 1, lam)
            n2 = zeta_lift(_count_fp(c), p, 2)
            assert maximal_fp2(c) == (n2 == top)

    def test_implies_p_3_mod_4(self):
        """No maximal quadratic-extension curve exists when p = 1 mod 4."""
        for p in (5, 13, 17, 29, 37, 41):
            for lam in range(2, p):
                assert not maximal_fp2(LegendreCurve.from_ints(p, 1, lam))
        hits = [p for p in (7, 11, 19, 23, 31, 43)
                if any(maximal_fp2(LegendreCurve.from_ints(p, 1, lam)) for lam in range(2, p))]
        assert hits  # the p = 3 mod 4 side does produce examples


class TestSerrePredicateFp3:
    def test_min_prime(self):
        assert Target.SERRE_FP3.min_prime == 11
        with pytest.raises(HypothesisViolated):
            attains_serre_fp3(LegendreCurve.from_ints(7, 2, 5))

    def test_true_on_all_five_p37_factors(self):
        for theta, lam in [(26, 26), (26, 4), (4, 34), (4, 12), (21, 10)]:
            assert attains_serre_fp3(LegendreCurve.from_ints(37, theta, lam))

    @pytest.mark.parametrize("p", [11, 13, 17, 19])
    def test_exhaustive_against_cubic_count(self, p):
        bound = serre_bound(p ** 3, 1)
        for lam in range(2, p):
            for theta in (1, 2):
                c = LegendreCurve.from_ints(p, theta, lam)
                n3 = zeta_lift(_count_fp(c), p, 3)
                assert attains_serre_fp3(c) == (n3 == bound)


class TestZetaLift:
    def test_identity_j1(self):
        assert zeta_lift(12, 11, 1) == 12

    def test_known_square_lift(self):
        assert zeta_lift(12, 11, 2) == 144

    def test_supersingular_shape(self):
        # trace zero: N1 = p + 1 lifts to p^2 + 1 + 2p over the quadratic field
        for p in (11, 19, 23):
            assert zeta_lift(p + 1, p, 2) == p * p + 1 + 2 * p

    def test_against_direct_counts(self):
        rng = random.Random(17)
        for _ in range(20):
            p = rng.choice([5, 7, 11, 13])
            lam = rng.randrange(2, p)
            theta = rng.randrange(1, p)
            n1 = naive_count_fp(p, theta, (0, 1, lam))
            assert zeta_lift(n1, p, 2) == naive_count_ext(p, 2, theta, (0, 1, lam))
            if p <= 11:
                assert zeta_lift(n1, p, 3) == naive_count_ext(p, 3, theta, (0, 1, lam))

    def test_hasse_violation(self):
        with pytest.raises(HasseViolation):
            zeta_lift(30, 11, 2)  # |trace| = 18 > floor(2 sqrt 11)


class TestTraceSequence:
    """zeta_lift over the three degrees: p^j + 1 - a_j for the traces a_j
    that one count over F_p fixes."""

    def test_from_count(self):
        assert [zeta_lift(12, 11, j) for j in (1, 2, 3)] == [12, 144, 1332]
        with pytest.raises(ValueError):
            zeta_lift(12, 11, 4)

    def test_rejects_impossible_count(self):
        for j in (1, 2, 3):
            with pytest.raises(HasseViolation):
                zeta_lift(30, 11, j)
            for n1 in (5, 19):  # |trace| = 7, just past floor(2 sqrt 11) = 6
                with pytest.raises(HasseViolation):
                    zeta_lift(n1, 11, j)
            for n1 in (6, 18):  # |trace| = 6, on the bound
                zeta_lift(n1, 11, j)


class TestMod4:
    @pytest.mark.parametrize("p", [11, 13, 179, 181, 499, 1187])
    def test_traces_and_twists_leave_p_plus_one_divisible_by_4(self, p):
        """Both y^2 = x (x-1) (x-lambda) and its twist have the 2-torsion
        points 0, 1 and lambda, so 4 | p + 1 -+ t[lambda]."""
        t = legendre_traces(p)[2:]
        assert not ((p + 1 - t) % 4).any() and not ((p + 1 + t) % 4).any()

    def test_holds_for_samples(self):
        """Full rational 2-torsion forces 4 | N over every extension."""
        rng = random.Random(23)
        for _ in range(60):
            p = rng.choice([11, 13, 17, 19, 23, 29])
            c = LegendreCurve.from_ints(p, rng.randrange(1, p), rng.randrange(2, p))
            n1 = _count_fp(c)
            for j in (1, 2, 3):
                assert zeta_lift(n1, p, j) % 4 == 0
