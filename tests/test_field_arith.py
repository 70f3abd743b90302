import itertools

import pytest

from howe5.curve_models import (
    HyperellipticModel,
    _ext_square_table,
    _mul2,
    _mul3,
    _points_at_infinity,
)
from howe5.errors import CapExceeded, NonResidue
from howe5.field_arith import (
    FieldElement,
    PRIME_CAP,
    PrimeModulus,
    build_extension,
    is_prime,
    legendre_symbol,
    prime_modulus,
    sqrt_mod_p,
)


class TestPrimeModulus:
    def test_small_primes_accepted(self):
        for p in (3, 5, 7, 11, 499, 1187):
            assert PrimeModulus(p).p == p

    def test_composite_rejected(self):
        with pytest.raises(ValueError):
            PrimeModulus(15)
        with pytest.raises(ValueError):
            PrimeModulus(1)

    def test_even_rejected(self):
        with pytest.raises(ValueError):
            PrimeModulus(2)  # odd characteristic only

    def test_cap_checked_before_primality(self):
        # 2^20 is far beyond the supported range; the cap must fire even
        # though the argument is composite.
        assert PRIME_CAP == 2 ** 20
        with pytest.raises(CapExceeded):
            PrimeModulus(PRIME_CAP)

    def test_cached_constructor_returns_same_object(self):
        assert prime_modulus(11) is prime_modulus(11)


class TestFieldElement:
    def test_wraparound_and_int_equality(self):
        m = prime_modulus(17)
        fe = FieldElement(20, m)
        assert fe.value == 3  # 20 mod 17
        assert fe == 3
        assert fe == FieldElement(3, m)

    def test_arithmetic(self):
        m = prime_modulus(11)
        a = FieldElement(7, m)
        b = FieldElement(9, m)
        assert (a + b).value == 5
        assert (a - b).value == 9
        assert (a * b).value == 8
        assert (a / b).value == (7 * pow(9, 9, 11)) % 11
        assert (-a).value == 4
        assert (a ** 5).value == pow(7, 5, 11)

    def test_int_operands_coerce(self):
        m = prime_modulus(11)
        a = FieldElement(7, m)
        assert (a + 6).value == 2
        assert (3 * a).value == 10

    def test_inverse_roundtrip(self):
        m = prime_modulus(13)
        for v in range(1, 13):
            fe = FieldElement(v, m)
            assert (fe * fe.inverse()).value == 1

    def test_zero_has_no_inverse(self):
        with pytest.raises(ZeroDivisionError):
            FieldElement(0, prime_modulus(11)).inverse()

    def test_hashable(self):
        m = prime_modulus(11)
        assert hash(FieldElement(4, m)) == hash(FieldElement(15, m))
        assert len({FieldElement(4, m), FieldElement(15, m)}) == 1


def test_is_prime_small_cases():
    assert is_prime(2) and is_prime(3) and is_prime(499)
    assert not is_prime(1) and not is_prime(561)  # Carmichael number


def _sym(v: int, p: int) -> int:
    return legendre_symbol(v, prime_modulus(p))


def _root(v: int, p: int) -> int:
    return sqrt_mod_p(FieldElement(v, prime_modulus(p))).value


class TestLegendreSymbol:
    def test_frozen_squares_mod_11(self):
        squares = {v for v in range(1, 11) if _sym(v, 11) == 1}
        assert squares == {1, 3, 4, 5, 9}

    def test_zero_maps_to_zero(self):
        assert _sym(0, 11) == 0
        assert _sym(22, 11) == 0

    def test_known_nonresidue(self):
        assert _sym(95, 499) == -1

    def test_multiplicative(self):
        p = 43
        for a in range(1, p):
            for b in (2, 5, 17, 40):
                assert _sym(a * b, p) == _sym(a, p) * _sym(b, p)

    def test_accepts_field_elements(self):
        fe = FieldElement(3, prime_modulus(11))
        assert legendre_symbol(fe) == 1

    def test_int_without_modulus_rejected(self):
        with pytest.raises(ValueError):
            legendre_symbol(3)


class TestSqrtModP:
    def test_canonical_branch_p_3_mod_4(self):
        # both 5 and 6 square to 3 mod 11; the smaller root is returned
        assert _root(3, 11) == 5
        assert _root(4, 11) == 2

    def test_tonelli_branch_p_1_mod_4(self):
        assert _root(3, 13) == 4  # 4^2 = 16 = 3
        assert _root(10, 13) == 6

    def test_nonresidue_raises(self):
        with pytest.raises(NonResidue):
            _root(2, 11)
        with pytest.raises(NonResidue):
            _root(5, 13)

    def test_zero_raises(self):
        # only nonzero squares have a canonical root here
        with pytest.raises(NonResidue):
            _root(0, 11)

    @pytest.mark.parametrize("p", [11, 13, 17, 29])
    def test_exhaustive_roots_in_lower_half(self, p):
        """Every returned root lies in [1, (p-1)/2] and actually squares back."""
        for r in range(1, (p - 1) // 2 + 1):
            a = r * r % p
            s = _root(a, p)
            assert s * s % p == a
            assert 1 <= s <= (p - 1) // 2


# Elements of F_{p^k} are coefficient tuples (c_0, .., c_{k-1}); the only
# arithmetic on them is the counting kernel's _mul2 / _mul3.


def _mul(F, a, b):
    if F.k == 2:
        return _mul2(*a, *b, F.poly, F.base.p)
    return _mul3(*a, *b, F.poly, F.base.p)


def _add(F, a, b):
    return tuple((x + y) % F.base.p for x, y in zip(a, b))


def _pow(F, a, e):
    acc = (1,) + (0,) * (F.k - 1)
    while e:
        if e & 1:
            acc = _mul(F, acc, a)
        a = _mul(F, a, a)
        e >>= 1
    return acc


def _elements(F):
    """All q elements in the square table's index order, c_0 fastest."""
    return [tuple(reversed(t)) for t in itertools.product(range(F.base.p), repeat=F.k)]


def _index(F, a):
    return sum(c * F.base.p ** i for i, c in enumerate(a))


class TestExtensionField:
    def test_frozen_defining_polynomials(self):
        # low-order coefficients of the monic defining polynomial
        assert build_extension(11, 2).poly == (1, 0)      # x^2 + 1
        assert build_extension(3, 2).poly == (1, 0)
        assert build_extension(13, 2).poly == (2, 0)      # x^2 + 2
        assert build_extension(11, 3).poly == (4, 1, 0)   # x^3 + x + 4
        assert build_extension(5, 3).poly == (1, 1, 0)
        assert build_extension(7, 3).poly == (2, 0, 0)

    @pytest.mark.parametrize("p,k", [(11, 2), (13, 2), (5, 3), (7, 3)])
    def test_defining_polynomial_has_no_root(self, p, k):
        poly = build_extension(p, k).poly
        for x in range(p):
            val = (pow(x, k, p) + sum(c * pow(x, i, p) for i, c in enumerate(poly))) % p
            assert val != 0

    def test_cached(self):
        assert build_extension(11, 2) is build_extension(11, 2)

    def test_bad_degree(self):
        with pytest.raises(ValueError):
            build_extension(11, 4)
        with pytest.raises(ValueError):
            build_extension(11, 1)

    def test_field_axioms_on_samples(self):
        import random

        rng = random.Random(5)
        for F in (build_extension(11, 2), build_extension(11, 3)):
            for _ in range(40):
                a, b, c = (tuple(rng.randrange(11) for _ in range(F.k)) for _ in range(3))
                assert _mul(F, a, _add(F, b, c)) == _add(F, _mul(F, a, b), _mul(F, a, c))
                assert _mul(F, _mul(F, a, b), c) == _mul(F, a, _mul(F, b, c))
                assert _mul(F, a, b) == _mul(F, b, a)

    def test_inverse_roundtrip_exhaustive_f25(self):
        """Every nonzero element has exactly one inverse: no zero divisors."""
        F = build_extension(5, 2)
        elems = _elements(F)
        one = (1, 0)
        seen = 0
        for e in elems[1:]:
            assert sum(_mul(F, e, f) == one for f in elems) == 1
            seen += 1
        assert seen == 24

    def test_frobenius_fixes_everything(self):
        """a^(p^k) == a for all a, i.e. the field really has p^k elements."""
        for F in (build_extension(5, 2), build_extension(5, 3)):
            for e in _elements(F):
                assert _pow(F, e, F.q) == e


class TestExtIsSquare:
    """The square table over F_{p^k} and the points-at-infinity rule."""

    def test_square_count_f25(self):
        table = _ext_square_table(5, 2)
        assert len(table) == 25
        assert table.sum() == 13  # (25 - 1)/2 nonzero squares plus zero

    def test_square_count_f121(self):
        assert _ext_square_table(11, 2).sum() == 61

    @pytest.mark.parametrize("p", [5, 7])
    def test_square_count_cubic(self, p):
        q = p ** 3
        table = _ext_square_table(p, 3)
        assert len(table) == q
        assert table.sum() == (q + 1) // 2

    def test_zero_counts_as_square(self):
        assert _ext_square_table(11, 2)[0]
        assert _ext_square_table(5, 3)[0]

    def test_agrees_with_explicit_squaring_f49(self):
        F = build_extension(7, 2)
        squares = {_index(F, _mul(F, e, e)) for e in _elements(F)}
        table = _ext_square_table(7, 2)
        for i in range(F.q):
            assert bool(table[i]) == (i in squares)

    @pytest.mark.parametrize("p", [5, 7])
    def test_points_at_infinity_rule(self, p):
        """Two points at infinity over F_{p^j} exactly when alpha is in the
        square table, decided without extension arithmetic."""
        for j in (2, 3):
            table = _ext_square_table(p, j)
            for alpha in range(1, p):
                model = HyperellipticModel.from_ints(p, alpha, (0, 1, 2, 3))
                assert _points_at_infinity(model, j) == (2 if table[alpha] else 0)
