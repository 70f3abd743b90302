"""Prime fields F_p with their per-prime residue tables (quadratic
character, canonical square roots, inverses), and the defining polynomials
of F_{p^2} and F_{p^3}.

All arithmetic is exact integer arithmetic on canonical residues.  Moduli are
capped at 2**20 so that every intermediate value used by the bulk counting
kernels stays far below 2**63; a modulus beyond the cap raises CapExceeded
instead of being accepted.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple
from typing import NamedTuple, Union

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

    def __call__(self, value: int) -> "FieldElement":
        return FieldElement(value, self)


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


class FieldElement:
    """A canonical residue in [0, p)."""

    __slots__ = ("value", "mod")

    def __init__(self, value: int, mod: PrimeModulus) -> None:
        self.value = value % mod.p
        self.mod = mod

    def _coerce(self, other: Union["FieldElement", int]) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.mod.p != self.mod.p:
                raise ValueError("mixed moduli")
            return other
        if isinstance(other, int):
            return FieldElement(other, self.mod)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.value + o.value, self.mod)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.value - o.value, self.mod)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(o.value - self.value, self.mod)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.value * o.value, self.mod)

    __rmul__ = __mul__

    def __neg__(self):
        return FieldElement(-self.value, self.mod)

    def inverse(self) -> "FieldElement":
        if self.value == 0:
            raise ZeroDivisionError("0 has no inverse")
        return FieldElement(pow(self.value, self.mod.p - 2, self.mod.p), self.mod)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        return FieldElement(pow(self.value, e, self.mod.p), self.mod)

    def __eq__(self, other) -> bool:
        if isinstance(other, FieldElement):
            return self.mod.p == other.mod.p and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.mod.p
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.value, self.mod.p))

    def __bool__(self) -> bool:
        return self.value != 0

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"{self.value} (mod {self.mod.p})"


class ResidueTables(NamedTuple):
    """Read-only int64 arrays indexed by residue v in [0, p), and the least
    quadratic non-residue.  chi[v] is the quadratic character, sqrt[v] the
    canonical root in [1, (p-1)/2] (0 for zero and non-squares), inv[v] the
    inverse (inv[0] = 0)."""

    chi: np.ndarray
    sqrt: np.ndarray
    inv: np.ndarray
    nonres: int


@functools.lru_cache(maxsize=TABLE_CACHE)
def residue_tables(p: int) -> ResidueTables:
    """The residue tables of F_p, built once per prime."""
    p = prime_modulus(p).p
    roots = np.arange(1, (p + 1) // 2, dtype=np.int64)
    sqrt = np.zeros(p, dtype=np.int64)
    # x and p - x are the only roots of x^2, and just one lies in [1, (p-1)/2]
    sqrt[roots * roots % p] = roots
    chi = np.where(sqrt > 0, 1, -1)
    chi[0] = 0
    # Fermat inverses v^(p-2); p < 2^20 keeps every product below 2^40
    inv = np.ones(p, dtype=np.int64)
    base, e = np.arange(p, dtype=np.int64), p - 2
    while e:
        if e & 1:
            inv = inv * base % p
        base = base * base % p
        e >>= 1
    inv[0] = 0
    for table in (chi, sqrt, inv):
        table.flags.writeable = False
    return ResidueTables(chi, sqrt, inv, int(np.argmax(chi == -1)))


def legendre_symbol(a: FieldElement) -> int:
    """Quadratic character of a modulo p, one of -1, 0, +1."""
    return int(residue_tables(a.mod.p).chi[a.value])


def sqrt_mod_p(a: FieldElement) -> FieldElement:
    """Canonical square root of a, the representative in [1, (p-1)/2].

    Raises NonResidue when a is not a nonzero square.
    """
    r = int(residue_tables(a.mod.p).sqrt[a.value])
    if r == 0:
        raise NonResidue(f"{a.value} is not a nonzero square mod {a.mod.p}")
    return FieldElement(r, a.mod)


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


class ExtensionField(NamedTuple):
    """F_{p^k} as F_p[x] modulo a fixed monic irreducible of degree k.

    poly holds the low-order coefficients (c_0, .., c_{k-1}) of the modulus
    x^k + c_{k-1} x^{k-1} + .. + c_0, chosen deterministically, so two builds
    of the same field agree.  Elements are coefficient vectors; the direct
    counting oracle in curve_models does no arithmetic on them, and reads
    the quadratic character off the norm form these coefficients define.
    """

    base: PrimeModulus
    k: int
    poly: tuple[int, ...]

    @property
    def q(self) -> int:
        return self.base.p ** self.k


@functools.lru_cache(maxsize=None)
def build_extension(p: int, k: int) -> ExtensionField:
    """F_{p^k} for k in {2, 3}, with a deterministically chosen modulus poly.
    For k = 2 the modulus is always x^2 + f_0: the scan tries the x
    coefficient 0 first, and x^2 + f_0 is irreducible whenever -f_0 is a
    non-residue, which some f_0 in [1, p) is for every odd p."""
    if k not in (2, 3):
        raise ValueError(f"extension degree must be 2 or 3, got {k}")
    return ExtensionField(prime_modulus(p), k, _find_irreducible(p, k))
