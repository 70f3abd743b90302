"""Hyperelliptic models y^2 = alpha * prod(x - r_i) and brute-force counting.

Counts are for the smooth projective model: one point at infinity for odd
degree, two or zero for even degree depending on whether alpha is a square
in the counting field.  Direct counting is capped at 10^7 field elements.
Over F_p it is the production count; over F_{p^2} and F_{p^3} it is the
oracle that lifted counts are checked against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import CapExceeded, HasseViolation
from .field_arith import (
    FieldElement,
    PrimeModulus,
    build_extension,
    legendre_symbol,
    prime_modulus,
)

COUNT_CAP = 10_000_000
_BLOCK = 1 << 16


class CountMethod(Enum):
    BRUTE_FORCE = "brute-force"
    ZETA_LIFT = "zeta-lift"
    DECOMPOSITION = "decomposition"


@dataclass(frozen=True)
class PointCount:
    """A point count over F_q, checked against the Hasse-Weil interval when
    the genus is known."""

    q: int
    count: int
    method: CountMethod
    genus: int | None = None

    def __post_init__(self) -> None:
        if self.genus is not None:
            t = self.q + 1 - self.count
            if t * t > 4 * self.genus * self.genus * self.q:
                raise HasseViolation(
                    f"count {self.count} outside the Hasse-Weil interval for "
                    f"q={self.q}, genus {self.genus}"
                )

    @property
    def trace(self) -> int:
        return self.q + 1 - self.count


@dataclass(frozen=True)
class HyperellipticModel:
    """y^2 = alpha * (x - r_1) .. (x - r_d) over F_p, 3 <= d <= 6."""

    mod: PrimeModulus
    alpha: FieldElement
    roots: tuple[FieldElement, ...]

    def __post_init__(self) -> None:
        if self.alpha.mod.p != self.mod.p:
            raise ValueError("alpha has the wrong modulus")
        if self.alpha.value == 0:
            raise ValueError("alpha must be nonzero")
        if not 3 <= len(self.roots) <= 6:
            raise ValueError(f"need 3..6 roots, got {len(self.roots)}")
        for r in self.roots:
            if r.mod.p != self.mod.p:
                raise ValueError("root has the wrong modulus")
        if len({r.value for r in self.roots}) != len(self.roots):
            raise ValueError("roots must be pairwise distinct")

    @classmethod
    def from_ints(cls, p: int, alpha: int, roots) -> "HyperellipticModel":
        mod = prime_modulus(p)
        return cls(mod=mod, alpha=mod(alpha), roots=tuple(mod(r) for r in roots))

    @property
    def degree(self) -> int:
        return len(self.roots)

    @property
    def genus(self) -> int:
        return (self.degree - 1) // 2


@functools.lru_cache(maxsize=None)
def _chi_table(p: int) -> np.ndarray:
    """chi[v] in {-1, 0, 1} for v in [0, p)."""
    t = np.full(p, -1, dtype=np.int64)
    sq = (np.arange(p, dtype=np.int64) ** 2) % p
    t[sq] = 1
    t[0] = 0
    return t


@functools.lru_cache(maxsize=None)
def _ext_square_table(p: int, k: int) -> np.ndarray:
    """Boolean table over F_{p^k}: index c_0 + c_1 p (+ c_2 p^2) is True for
    nonzero squares and for zero."""
    q = p ** k
    table = np.zeros(q, dtype=bool)
    field = build_extension(p, k)
    for lo in range(0, q, _BLOCK):
        idx = np.arange(lo, min(lo + _BLOCK, q), dtype=np.int64)
        u0 = idx % p
        u1 = (idx // p) % p
        if k == 2:
            s0, s1 = _mul2(u0, u1, u0, u1, field.poly, p)
            table[s0 + p * s1] = True
        else:
            u2 = idx // (p * p)
            s0, s1, s2 = _mul3(u0, u1, u2, u0, u1, u2, field.poly, p)
            table[s0 + p * s1 + p * p * s2] = True
    table[0] = True
    return table


def _mul2(a0, a1, b0, b1, poly, p):
    # x^2 = -c1 x - c0
    c0, c1 = poly
    w = (a1 * b1) % p
    r0 = (a0 * b0 - c0 * w) % p
    r1 = (a0 * b1 + a1 * b0 - c1 * w) % p
    return r0, r1


def _mul3(a0, a1, a2, b0, b1, b2, poly, p):
    # Schoolbook product to degree 4, then substitute
    # x^3 = -(c2 x^2 + c1 x + c0) and x^4 = (c2^2-c1) x^2 + (c2 c1-c0) x + c2 c0.
    c0, c1, c2 = poly
    d0 = (a0 * b0) % p
    d1 = (a0 * b1 + a1 * b0) % p
    d2 = (a0 * b2 + a1 * b1 + a2 * b0) % p
    d3 = (a1 * b2 + a2 * b1) % p
    d4 = (a2 * b2) % p
    e2 = (d2 - c2 * d3 + ((c2 * c2 - c1) % p) * d4) % p
    e1 = (d1 - c1 * d3 + ((c2 * c1 - c0) % p) * d4) % p
    e0 = (d0 - c0 * d3 + ((c2 * c0) % p) * d4) % p
    return e0, e1, e2


def _affine_char_sum_fp(model: HyperellipticModel) -> int:
    p = model.mod.p
    xs = np.arange(p, dtype=np.int64)
    acc = np.full(p, model.alpha.value, dtype=np.int64)
    for r in model.roots:
        acc = acc * ((xs - r.value) % p) % p
    chi = _chi_table(p)
    return int(chi[acc].sum())


def _affine_char_sum_ext(model: HyperellipticModel, j: int) -> int:
    p = model.mod.p
    field = build_extension(p, j)
    poly = field.poly
    sq = _ext_square_table(p, j)
    q = p ** j
    total = 0
    root_vals = [r.value for r in model.roots]
    for lo in range(0, q, _BLOCK):
        idx = np.arange(lo, min(lo + _BLOCK, q), dtype=np.int64)
        x0 = idx % p
        x1 = (idx // p) % p
        if j == 2:
            g0 = np.full(idx.shape, model.alpha.value, dtype=np.int64)
            g1 = np.zeros(idx.shape, dtype=np.int64)
            for r in root_vals:
                g0, g1 = _mul2(g0, g1, (x0 - r) % p, x1, poly, p)
            gidx = g0 + p * g1
        else:
            x2 = idx // (p * p)
            g0 = np.full(idx.shape, model.alpha.value, dtype=np.int64)
            g1 = np.zeros(idx.shape, dtype=np.int64)
            g2 = np.zeros(idx.shape, dtype=np.int64)
            for r in root_vals:
                g0, g1, g2 = _mul3(g0, g1, g2, (x0 - r) % p, x1, x2, poly, p)
            gidx = g0 + p * g1 + p * p * g2
        chi = np.where(gidx == 0, 0, np.where(sq[gidx], 1, -1))
        total += int(chi.sum())
    return total


def _points_at_infinity(model: HyperellipticModel, j: int) -> int:
    """Even degree: two points iff alpha is a square in F_{p^j}.  Every
    alpha in F_p* is a square in F_{p^2}; for odd j, (p^j - 1)/2 is
    (p - 1)/2 times the odd number 1 + p + .. + p^(j-1), so alpha is a
    square in F_{p^j} iff it is one in F_p."""
    if model.degree % 2 == 1:
        return 1
    if j % 2 == 0 or legendre_symbol(model.alpha) == 1:
        return 2
    return 0


def count_points(model: HyperellipticModel, j: int = 1) -> PointCount:
    """Brute-force smooth-model count of y^2 = f(x) over F_{p^j}, j in {1,2,3}."""
    if j not in (1, 2, 3):
        raise ValueError(f"extension degree must be 1, 2 or 3, got {j}")
    q = model.mod.p ** j
    if q > COUNT_CAP:
        raise CapExceeded(
            f"direct counting over {q} elements exceeds the cap {COUNT_CAP}"
        )
    if j == 1:
        affine = q + _affine_char_sum_fp(model)
    else:
        affine = q + _affine_char_sum_ext(model, j)
    total = affine + _points_at_infinity(model, j)
    return PointCount(q=q, count=total, method=CountMethod.BRUTE_FORCE, genus=model.genus)


def curve_trace(model: HyperellipticModel, j: int = 1) -> int:
    """q + 1 - #C(F_{p^j})."""
    pc = count_points(model, j)
    return pc.trace


def weil_interval(q: int, genus: int) -> tuple[int, int]:
    """Inclusive integer range that #C(F_q) must lie in for the given genus."""
    half = math.isqrt(4 * genus * genus * q)
    return q + 1 - half, q + 1 + half
