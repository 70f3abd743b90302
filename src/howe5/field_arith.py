"""Prime fields F_p, and the defining polynomials of F_{p^2} and F_{p^3}.

All arithmetic is exact integer arithmetic on canonical residues.  Moduli are
capped at 2**20 so that every intermediate value used by the bulk counting
kernels stays far below 2**63; a modulus beyond the cap raises CapExceeded
instead of being accepted.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator, Union

from .errors import CapExceeded, NonResidue

PRIME_CAP = 1 << 20


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


@dataclass(frozen=True)
class PrimeModulus:
    """An odd prime p together with m = (p - 1) / 2."""

    p: int

    def __post_init__(self) -> None:
        if self.p >= PRIME_CAP:
            raise CapExceeded(f"modulus {self.p} exceeds the cap {PRIME_CAP}")
        if self.p < 3 or self.p % 2 == 0 or not is_prime(self.p):
            raise ValueError(f"modulus must be an odd prime, got {self.p}")

    @property
    def m(self) -> int:
        return (self.p - 1) // 2

    def __call__(self, value: int) -> "FieldElement":
        return FieldElement(value, self)

    def elements(self) -> Iterator["FieldElement"]:
        for v in range(self.p):
            yield FieldElement(v, self)

    def __repr__(self) -> str:
        return f"PrimeModulus({self.p})"


@functools.lru_cache(maxsize=None)
def prime_modulus(p: int) -> PrimeModulus:
    return PrimeModulus(p)


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


def legendre_symbol(a: Union[FieldElement, int], mod: PrimeModulus | None = None) -> int:
    """Quadratic character of a modulo p, one of -1, 0, +1."""
    if isinstance(a, FieldElement):
        v, p, m = a.value, a.mod.p, a.mod.m
    else:
        if mod is None:
            raise ValueError("an int argument needs an explicit modulus")
        v, p, m = a % mod.p, mod.p, mod.m
    if v == 0:
        return 0
    t = pow(v, m, p)
    return 1 if t == 1 else -1


def sqrt_mod_p(a: FieldElement) -> FieldElement:
    """Canonical square root of a, the representative in [1, (p-1)/2].

    Raises NonResidue when a is not a nonzero square.  Tonelli-Shanks with
    the usual shortcut for p = 3 mod 4; the non-residue used to seed the
    general case is the smallest one, so results are reproducible.
    """
    p = a.mod.p
    v = a.value
    if v == 0:
        raise NonResidue("0 has no canonical root here")
    if legendre_symbol(a) != 1:
        raise NonResidue(f"{v} is not a square mod {p}")
    if p % 4 == 3:
        r = pow(v, (p + 1) // 4, p)
        return FieldElement(min(r, p - r), a.mod)
    # Tonelli-Shanks.  Write p - 1 = q * 2^s with q odd.
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre_symbol(z, a.mod) != -1:
        z += 1
    c = pow(z, q, p)
    r = pow(v, (q + 1) // 2, p)
    t = pow(v, q, p)
    mexp = s
    while t != 1:
        t2, i = t, 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (mexp - i - 1), p)
        r = r * b % p
        c = b * b % p
        t = t * c % p
        mexp = i
    return FieldElement(min(r, p - r), a.mod)


# ---------------------------------------------------------------------------
# extensions of degree 2 and 3


def _poly_eval_monic(coeffs: tuple[int, ...], x: int, p: int) -> int:
    acc = 1
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def _find_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Smallest monic irreducible of degree k, coefficients scanned in
    lexicographic order from the x^(k-1) coefficient down to the constant.

    For k in {2, 3} irreducibility is equivalent to having no root in F_p.
    """
    def tuples():
        if k == 2:
            for c1 in range(p):
                for c0 in range(p):
                    yield (c0, c1)
        else:
            for c2 in range(p):
                for c1 in range(p):
                    for c0 in range(p):
                        yield (c0, c1, c2)

    for cand in tuples():
        if all(_poly_eval_monic(cand, x, p) != 0 for x in range(p)):
            return cand
    raise RuntimeError("no irreducible polynomial found")  # cannot happen


@dataclass(frozen=True)
class ExtensionField:
    """F_{p^k} as F_p[x] modulo a fixed monic irreducible of degree k.

    poly holds the low-order coefficients (c_0, .., c_{k-1}) of the modulus
    x^k + c_{k-1} x^{k-1} + .. + c_0, chosen deterministically, so two builds
    of the same field agree.  Elements are coefficient vectors; the only
    arithmetic on them is the vectorised kernel of the direct counting oracle
    in curve_models.
    """

    base: PrimeModulus
    k: int
    poly: tuple[int, ...]

    @property
    def q(self) -> int:
        return self.base.p ** self.k


@functools.lru_cache(maxsize=None)
def _build_extension_cached(p: int, k: int) -> ExtensionField:
    mod = prime_modulus(p)
    poly = _find_irreducible(p, k)
    return ExtensionField(mod, k, poly)


def build_extension(mod: Union[PrimeModulus, int], k: int) -> ExtensionField:
    """F_{p^k} for k in {2, 3}, with a deterministically chosen modulus poly."""
    if k not in (2, 3):
        raise ValueError(f"extension degree must be 2 or 3, got {k}")
    p = mod.p if isinstance(mod, PrimeModulus) else int(mod)
    return _build_extension_cached(p, k)
