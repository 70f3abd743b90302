"""Point counting for y^2 = alpha * prod (x - r_i), checked against the
naive enumerator from conftest."""

import math

import pytest

from conftest import naive_count_ext, naive_count_fp
from howe5.curve_models import (
    COUNT_CAP,
    CountMethod,
    HyperellipticModel,
    PointCount,
    count_points,
    curve_trace,
    weil_interval,
)
from howe5.errors import CapExceeded, HasseViolation, Howe5Error


class TestModelConstruction:
    def test_from_ints_reduces_mod_p(self):
        m = HyperellipticModel.from_ints(11, 15, (12, 3, 2))
        assert int(m.alpha) == 4
        assert [int(r) for r in m.roots] == [1, 3, 2]

    def test_zero_alpha_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            HyperellipticModel.from_ints(11, 0, (0, 1, 2))

    def test_repeated_roots_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            HyperellipticModel.from_ints(11, 4, (0, 1, 12))  # 12 = 1 mod 11

    def test_degree_range(self):
        with pytest.raises(ValueError):
            HyperellipticModel.from_ints(11, 4, (0, 1))
        with pytest.raises(ValueError):
            HyperellipticModel.from_ints(11, 4, tuple(range(7)))
        # 3 through 6 roots all fine
        for d in range(3, 7):
            HyperellipticModel.from_ints(11, 4, tuple(range(d)))

    def test_genus(self):
        gs = {3: 1, 4: 1, 5: 2, 6: 2}
        for d, g in gs.items():
            m = HyperellipticModel.from_ints(13, 2, tuple(range(d)))
            assert count_points(m, 1).genus == g


def test_known_count_f5():
    # y^2 = x(x-1)(x-2) over F_5 has 8 projective points
    m = HyperellipticModel.from_ints(5, 1, (0, 1, 2))
    assert count_points(m, 1).count == 8


class TestAgainstNaiveOracle:
    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_base_field_all_degrees(self, p):
        import random

        rng = random.Random(p)
        for deg in (3, 4, 5, 6):
            if deg > p:
                continue  # not enough distinct roots in F_5 for degree 6
            for _ in range(6):
                roots = tuple(rng.sample(range(p), deg))
                alpha = rng.randrange(1, p)
                m = HyperellipticModel.from_ints(p, alpha, roots)
                assert count_points(m, 1).count == naive_count_fp(p, alpha, roots)

    @pytest.mark.parametrize("p", [5, 7])
    def test_quadratic_extension(self, p):
        import random

        rng = random.Random(100 + p)
        for deg in (3, 4, 6):
            roots = tuple(rng.sample(range(p), min(deg, p - 1)))
            if len(roots) < 3:
                continue
            alpha = rng.randrange(1, p)
            m = HyperellipticModel.from_ints(p, alpha, roots)
            assert count_points(m, 2).count == naive_count_ext(p, 2, alpha, roots)

    def test_cubic_extension_f5(self):
        m = HyperellipticModel.from_ints(5, 2, (0, 1, 3))
        assert count_points(m, 3).count == naive_count_ext(5, 3, 2, (0, 1, 3))

    def test_even_degree_twist_at_infinity(self):
        # degree 4, alpha a nonsquare: no points at infinity over F_p,
        # but two over F_{p^2} where everything becomes a square
        p = 11
        m = HyperellipticModel.from_ints(p, 2, (0, 1, 2, 3))  # 2 is a nonsquare mod 11
        assert count_points(m, 1).count == naive_count_fp(p, 2, (0, 1, 2, 3))
        assert count_points(m, 2).count == naive_count_ext(p, 2, 2, (0, 1, 2, 3))


class TestCapAndErrors:
    def test_cap_value(self):
        assert COUNT_CAP == 10 ** 7

    def test_cubic_extension_of_medium_prime_exceeds_cap(self):
        m = HyperellipticModel.from_ints(499, 47, (2, 1, 10, 55, 92, 84))
        with pytest.raises(CapExceeded):
            count_points(m, 3)  # 499^3 > 10^7

    def test_count_outside_hasse_weil_is_a_math_error(self):
        # a mathematical failure, so the command line exits 1, not 2
        with pytest.raises(HasseViolation) as exc:
            PointCount(q=11, count=30, method=CountMethod.BRUTE_FORCE, genus=1)
        assert isinstance(exc.value, Howe5Error)
        assert not isinstance(exc.value, ValueError)
        PointCount(q=11, count=18, method=CountMethod.BRUTE_FORCE, genus=1)

    def test_bad_extension_degree(self):
        m = HyperellipticModel.from_ints(11, 4, (0, 1, 2))
        with pytest.raises(ValueError):
            count_points(m, 4)


class TestDerivedQuantities:
    def test_trace_is_q_plus_1_minus_count(self):
        m = HyperellipticModel.from_ints(5, 1, (0, 1, 2))
        assert curve_trace(m) == 5 + 1 - 8  # = -2

    def test_counts_inside_weil_interval(self):
        import random

        rng = random.Random(9)
        for _ in range(25):
            p = rng.choice([11, 13, 17, 19])
            deg = rng.choice([3, 4, 5, 6])
            roots = tuple(rng.sample(range(p), deg))
            m = HyperellipticModel.from_ints(p, rng.randrange(1, p), roots)
            pc = count_points(m, 1)
            lo, hi = weil_interval(p, pc.genus)
            assert lo <= pc.count <= hi

    def test_weil_interval_endpoints(self):
        lo, hi = weil_interval(11, 1)
        assert (lo, hi) == (6, 18)
        lo, hi = weil_interval(121, 5)
        assert (lo, hi) == (12, 232)
        assert hi == 121 + 1 + 5 * math.isqrt(4 * 121)

    def test_point_count_record_fields(self):
        m = HyperellipticModel.from_ints(11, 4, (5, 3, 10, 7, 6, 8))
        pc = count_points(m, 2)
        assert pc.q == 121
        assert pc.genus == 2
        assert pc.count == naive_count_ext(11, 2, 4, (5, 3, 10, 7, 6, 8))
