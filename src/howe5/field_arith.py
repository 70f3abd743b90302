"""Prime fields F_p with their per-prime residue tables (quadratic
character, canonical square roots, inverses, all read off the power table of
the least primitive root), and the defining polynomials of F_{p^2} and
F_{p^3}.

Residues are plain ints in [0, p), the records that hold them check that
range (require_residues), and all arithmetic on them is exact integer
arithmetic.  Moduli are capped at 2**20 so that every intermediate value
used by the bulk counting kernels stays far below 2**63; a modulus beyond
the cap raises CapExceeded instead of being accepted.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple
from typing import NamedTuple

import numpy as np

from .errors import CapExceeded, NonResidue

PRIME_CAP = 1 << 20
# Primes whose per-prime tables stay cached; the bundled tables span 25.
TABLE_CACHE = 32


def is_prime(n: int) -> bool:
    """Deterministic trial division, adequate for n below the cap."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class CheckedRecord:
    """Base of a record that checks its fields: a namedtuple subclass whose
    __new__ takes the fields, with their types, and checks them.  _make,
    and with it _replace, builds through __new__, so it checks too."""

    __slots__ = ()

    @classmethod
    def _make(cls, values):
        return cls(*values)


class PrimeModulus(CheckedRecord, namedtuple("PrimeModulus", "p")):
    """An odd prime p together with m = (p - 1) / 2."""

    __slots__ = ()

    def __new__(cls, p: int) -> "PrimeModulus":
        if p >= PRIME_CAP:
            raise CapExceeded(f"modulus {p} exceeds the cap {PRIME_CAP}")
        if p < 3 or p % 2 == 0 or not is_prime(p):
            raise ValueError(f"modulus must be an odd prime, got {p}")
        return tuple.__new__(cls, (p,))

    @property
    def m(self) -> int:
        return (self.p - 1) // 2


@functools.lru_cache(maxsize=None)
def prime_modulus(p: int) -> PrimeModulus:
    return PrimeModulus(p)


def require_ints(*values) -> None:
    """Raise ValueError naming the first operand that is not an int.  A bool
    is refused too: True compares and hashes as 1, so it would share 1's
    cached results while printing and hashing to strings as "True"."""
    for v in values:
        if not isinstance(v, int) or isinstance(v, bool):
            raise ValueError(f"parameters must be integers, got {v!r}")


def require_residues(p: int, *values) -> None:
    """Raise ValueError naming the first value that is not a residue in
    [0, p): a record holds each residue mod p in that one form."""
    for v in values:
        if not 0 <= v < p:
            raise ValueError(f"residue {v} lies outside [0, {p})")


class ResidueTables(NamedTuple):
    """Read-only arrays indexed by residue v in [0, p), the power table of
    the least primitive root g, and the least quadratic non-residue.  chi[v]
    is the quadratic character, stored as int8: accumulate sums of it in
    int64 (sum with dtype=np.int64; einsum and dot would keep int8).  sqrt[v]
    is the canonical root in [1, (p-1)/2] (0 for zero and non-squares) and
    inv[v] the inverse (inv[0] = 0), both int64.  powers[k] = g^k for k in
    [0, p - 1) and log[v] = k with g^k = v (log[0] = 0, as 0 has no
    logarithm) are int32, as every value lies below 2^20: form products of
    them in int64."""

    chi: np.ndarray
    sqrt: np.ndarray
    inv: np.ndarray
    nonres: int
    powers: np.ndarray
    log: np.ndarray


def _least_primitive_root(p: int) -> int:
    """The least g whose powers fill F_p^*: g^((p-1)/q) != 1 for every prime
    q dividing p - 1, found by trial division."""
    n = rest = p - 1
    factors, d = [], 2
    while d * d <= rest:
        if rest % d == 0:
            factors.append(d)
            while rest % d == 0:
                rest //= d
        d += 1
    if rest > 1:
        factors.append(rest)
    return next(g for g in range(2, p) if all(pow(g, n // q, p) != 1 for q in factors))


@functools.lru_cache(maxsize=TABLE_CACHE)
def residue_tables(p: int) -> ResidueTables:
    """The residue tables of F_p, built once per prime.  The power table is
    built by baby and giant steps: g^(s i + j) is row i, column j of the
    outer product of g^(s i) and g^j, with s about sqrt(p), so O(sqrt(p))
    interpreted steps.  The rest is read off it: g^k is a square iff k is
    even, g^(2i) has the roots +-g^i, and g^k has the inverse g^(-k)."""
    p = prime_modulus(p).p
    n, m, g = p - 1, (p - 1) // 2, _least_primitive_root(p)
    s = math.isqrt(n - 1) + 1
    baby = [1]
    for _ in range(s - 1):
        baby.append(baby[-1] * g % p)
    step, giant = baby[-1] * g % p, [1]
    for _ in range(s - 1):
        giant.append(giant[-1] * step % p)
    # products of two residues below 2^20 stay below 2^40
    powers = (np.multiply.outer(giant, baby) % p).ravel()[:n].astype(np.int32)
    log = np.zeros(p, dtype=np.int32)
    log[powers] = np.arange(n, dtype=np.int32)
    chi = np.zeros(p, dtype=np.int8)
    chi[powers[::2]], chi[powers[1::2]] = 1, -1
    sqrt = np.zeros(p, dtype=np.int64)
    # g^(i + m) = -g^i, as g^m = -1
    sqrt[powers[::2]] = np.minimum(powers[:m], powers[m:])
    inv = np.zeros(p, dtype=np.int64)
    inv[1], inv[powers[1:]] = 1, powers[:0:-1]
    for table in (chi, sqrt, inv, powers, log):
        table.flags.writeable = False
    # the non-residues are the odd powers of g
    return ResidueTables(chi, sqrt, inv, int(np.minimum.reduce(powers[1::2])), powers, log)


def legendre_symbol(p: int, v: int) -> int:
    """Quadratic character of v modulo p, one of -1, 0, +1."""
    return int(residue_tables(p).chi[v % p])


def sqrt_mod_p(p: int, v: int) -> int:
    """Canonical square root of v modulo p, the representative in
    [1, (p-1)/2].

    Raises NonResidue when v is not a nonzero square mod p.
    """
    r = int(residue_tables(p).sqrt[v % p])
    if r == 0:
        raise NonResidue(f"{v % p} is not a nonzero square mod {p}")
    return r


# ---------------------------------------------------------------------------
# extensions of degree 2 and 3


def _find_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Smallest monic irreducible of degree k, coefficients scanned in
    lexicographic order from the x^(k-1) coefficient down to the constant.
    For k in {2, 3} irreducibility is equivalent to having no root in F_p,
    checked at every x at once by Horner's rule."""
    x = np.arange(p, dtype=np.int64)
    for high_first in itertools.product(range(p), repeat=k):
        value = np.ones(p, dtype=np.int64)
        for c in high_first:
            value = (value * x + c) % p
        if value.all():
            return high_first[::-1]
    raise RuntimeError("no irreducible polynomial found")  # cannot happen


@functools.lru_cache(maxsize=None)
def build_extension(p: int, k: int) -> tuple[int, ...]:
    """The defining polynomial of F_{p^k}, k in {2, 3}: the low-order
    coefficients (c_0, .., c_{k-1}) of the monic irreducible modulus x^k +
    c_{k-1} x^{k-1} + .. + c_0, chosen deterministically, so two builds of
    the same field agree.  The direct counting oracle in curve_models reads
    the quadratic character off the norm form these coefficients define.
    For k = 2 the modulus is always x^2 + f_0: the scan tries the x
    coefficient 0 first, and x^2 + f_0 is irreducible whenever -f_0 is a
    non-residue, which some f_0 in [1, p) is for every odd p."""
    if k not in (2, 3):
        raise ValueError(f"extension degree must be 2 or 3, got {k}")
    return _find_irreducible(prime_modulus(p).p, k)
