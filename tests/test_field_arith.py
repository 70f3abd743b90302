import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import _ext_pow
from square_reference import mul
from howe5.curve_models import (
    COUNT_CAP,
    HyperellipticModel,
    _char_table,
    _chi_ext,
    _points_at_infinity,
)
from howe5.errors import NonResidue
from howe5.field_arith import (
    PRIME_CAP,
    PrimeModulus,
    build_extension,
    is_prime,
    legendre_symbol,
    prime_modulus,
    residue_tables,
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
        with pytest.raises(ValueError, match="exceeds the cap"):
            PrimeModulus(PRIME_CAP)

    def test_cached_constructor_returns_same_object(self):
        assert prime_modulus(11) is prime_modulus(11)


def test_is_prime_small_cases():
    assert is_prime(2) and is_prime(3) and is_prime(499)
    assert not is_prime(1) and not is_prime(561)  # Carmichael number


def _sym(v: int, p: int) -> int:
    return legendre_symbol(p, v)


def _root(v: int, p: int) -> int:
    return sqrt_mod_p(p, v)


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


_PRIMES = [p for p in range(3, 4000) if is_prime(p)]


class TestResidueTables:
    # p = 1 mod 8 is the case where a square root needs the most work; it is
    # drawn on its own so every run covers it
    @settings(deadline=None)
    @given(p=st.sampled_from(_PRIMES) | st.sampled_from([p for p in _PRIMES if p % 8 == 1]))
    @example(p=3)
    def test_against_reference_definitions(self, p):
        t = residue_tables(p)
        m = (p - 1) // 2
        assert t.chi[0] == 0 and t.sqrt[0] == 0 and t.inv[0] == 0
        for v in range(1, p):
            euler = pow(v, m, p)
            assert t.chi[v] == (1 if euler == 1 else -1)
            r = int(t.sqrt[v])
            if euler == 1:
                assert r * r % p == v and 1 <= r <= m
            else:
                assert r == 0
            assert v * int(t.inv[v]) % p == 1
        assert t.nonres == next(v for v in range(2, p) if pow(v, m, p) != 1)

    def test_shared_tables_are_read_only(self):
        t = residue_tables(11)
        assert residue_tables(11) is t
        for table in (t.chi, t.sqrt, t.inv, t.powers, t.log):
            with pytest.raises(ValueError):
                table[2] = 1

    # the least primitive root of each prime: 1048573 is the largest prime
    # below the cap, and 409 and 71761 have large least roots
    LEAST_ROOTS = {3: 2, 5: 2, 409: 21, 65537: 3, 71761: 44, 1048573: 2}

    @pytest.mark.parametrize("p", sorted(LEAST_ROOTS))
    def test_against_euler_and_fermat_at_every_residue(self, p):
        """Every table against Euler's criterion v^m and the Fermat inverse
        v^(p-2), raised by a square-and-multiply ladder over all v at once,
        and the power table against the pinned least primitive root."""
        t, m, v = residue_tables(p), (p - 1) // 2, np.arange(p, dtype=np.int64)

        def ladder(e):
            acc, base = np.ones(p, dtype=np.int64), v.copy()
            while e:
                if e & 1:
                    acc = acc * base % p
                base = base * base % p
                e >>= 1
            return acc

        euler, fermat = ladder(m), ladder(p - 2)
        chi = np.where(euler == 1, 1, -1)
        chi[0] = 0
        assert (t.chi == chi).all() and (t.inv == fermat).all()
        assert t.nonres == int(np.argmax(chi == -1))
        r = np.arange(1, m + 1, dtype=np.int64)
        sqrt = np.zeros(p, dtype=np.int64)
        sqrt[r * r % p] = r
        assert (t.sqrt == sqrt).all()
        g = self.LEAST_ROOTS[p]
        assert t.powers.dtype == t.log.dtype == np.int32 and len(t.powers) == p - 1
        assert t.powers[0] == 1 and (t.powers.astype(np.int64) * g % p == np.roll(t.powers, -1)).all()
        assert (np.sort(t.powers) == v[1:]).all()
        assert t.log[0] == 0 and (t.log[t.powers] == v[:-1]).all()
        # h = g^k generates F_p^* iff gcd(k, p - 1) = 1
        assert all(math.gcd(int(t.log[h]), p - 1) > 1 for h in range(2, g))


# F_{p^k} is named by (p, f), f = build_extension(p, k) the low-order
# coefficients of its modulus.  Elements are coefficient tuples (c_0, ..,
# c_{k-1}), multiplied by the reference product of square_reference.


def _fmul(p, f, a, b):
    return tuple(mul(a, b, f, p))


def _add(p, a, b):
    return tuple((x + y) % p for x, y in zip(a, b))


def _pow(p, f, a, e):
    acc = (1,) + (0,) * (len(f) - 1)
    while e:
        if e & 1:
            acc = _fmul(p, f, acc, a)
        a = _fmul(p, f, a, a)
        e >>= 1
    return acc


def _elements(p, k):
    """All p^k elements in the character table's index order, c_0 fastest."""
    return [tuple(reversed(t)) for t in itertools.product(range(p), repeat=k)]


def _index(p, a):
    return sum(c * p ** i for i, c in enumerate(a))


class TestExtensionField:
    def test_frozen_defining_polynomials(self):
        # low-order coefficients of the monic defining polynomial
        assert build_extension(11, 2) == (1, 0)      # x^2 + 1
        assert build_extension(3, 2) == (1, 0)
        assert build_extension(13, 2) == (2, 0)      # x^2 + 2
        assert build_extension(11, 3) == (4, 1, 0)   # x^3 + x + 4
        assert build_extension(5, 3) == (1, 1, 0)
        assert build_extension(7, 3) == (2, 0, 0)

    @pytest.mark.parametrize("p,k", [(11, 2), (13, 2), (5, 3), (7, 3)])
    def test_defining_polynomial_has_no_root(self, p, k):
        poly = build_extension(p, k)
        for x in range(p):
            val = (pow(x, k, p) + sum(c * pow(x, i, p) for i, c in enumerate(poly))) % p
            assert val != 0

    def test_quadratic_modulus_has_no_x_term_within_the_count_cap(self):
        # the F_p^2 character table relies on the modulus x^2 + f_0 at every
        # prime whose F_p^2 the oracle may count
        primes = [p for p in range(3, math.isqrt(COUNT_CAP) + 1) if is_prime(p)]
        assert len(primes) == 445
        for p in primes:
            assert build_extension(p, 2)[1] == 0, p

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
        for k in (2, 3):
            f = build_extension(11, k)
            for _ in range(40):
                a, b, c = (tuple(rng.randrange(11) for _ in range(k)) for _ in range(3))
                assert _fmul(11, f, a, _add(11, b, c)) == _add(
                    11, _fmul(11, f, a, b), _fmul(11, f, a, c))
                assert _fmul(11, f, _fmul(11, f, a, b), c) == _fmul(11, f, a, _fmul(11, f, b, c))
                assert _fmul(11, f, a, b) == _fmul(11, f, b, a)

    def test_inverse_roundtrip_exhaustive_f25(self):
        """Every nonzero element has exactly one inverse: no zero divisors."""
        f = build_extension(5, 2)
        elems = _elements(5, 2)
        one = (1, 0)
        seen = 0
        for e in elems[1:]:
            assert sum(_fmul(5, f, e, x) == one for x in elems) == 1
            seen += 1
        assert seen == 24

    def test_frobenius_fixes_everything(self):
        """a^(p^k) == a for all a, i.e. the field really has p^k elements."""
        for k in (2, 3):
            f = build_extension(5, k)
            for e in _elements(5, k):
                assert _pow(5, f, e, 5 ** k) == e


class TestExtIsSquare:
    """The int8 character table over F_{p^k} and the points-at-infinity rule."""

    def test_square_count_f25(self):
        chi = _char_table(5, 2)
        assert len(chi) == 25
        assert (chi == 1).sum() == 12  # (25 - 1)/2 nonzero squares

    def test_square_count_f121(self):
        assert (_char_table(11, 2) == 1).sum() == 60

    @pytest.mark.parametrize("p", [5, 7])
    def test_square_count_cubic(self, p):
        q = p ** 3
        chi = _char_table(p, 3)
        assert len(chi) == q
        assert (chi == 1).sum() == (q - 1) // 2

    def test_zero_has_character_zero(self):
        assert _char_table(11, 2)[0] == 0
        assert _char_table(5, 3)[0] == 0

    def test_agrees_with_explicit_squaring_f49(self):
        f = build_extension(7, 2)
        squares = {_index(7, _fmul(7, f, e, e)) for e in _elements(7, 2)}
        chi = _char_table(7, 2)
        for i in range(1, 49):
            assert (chi[i] == 1) == (i in squares)

    @pytest.mark.parametrize("p", [5, 7])
    def test_points_at_infinity_rule(self, p):
        """Two points at infinity over F_{p^j} exactly when chi(alpha) = 1
        in the table, decided without extension arithmetic."""
        for j in (2, 3):
            chi = _char_table(p, j)
            for alpha in range(1, p):
                model = HyperellipticModel.from_ints(p, alpha, (0, 1, 2, 3))
                want = 2 if chi[alpha] == 1 else 0
                assert _points_at_infinity(model.degree, _chi_ext(p, model.alpha, j)) == want

    @pytest.mark.parametrize("p,k", [(5, 2), (7, 2), (11, 2), (5, 3), (7, 3)])
    def test_euler_criterion(self, p, k):
        """chi(a) = a^((q-1)/2) for every a, computed with the independent
        extension arithmetic of conftest."""
        f = build_extension(p, k)
        chi = _char_table(p, k)
        one, minus_one = (1,) + (0,) * (k - 1), (p - 1,) + (0,) * (k - 1)
        want = {one: 1, minus_one: -1, (0,) * k: 0}
        for i, e in enumerate(_elements(p, k)):
            assert chi[i] == want[_ext_pow(e, (p ** k - 1) // 2, f, p)]
        assert chi.dtype == np.int8
