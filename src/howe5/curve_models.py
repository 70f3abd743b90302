"""Hyperelliptic models y^2 = alpha * prod(x - r_i) and brute-force counting.

Counts are for the smooth projective model: one point at infinity for odd
degree, two or zero for even degree depending on whether alpha is a square
in the counting field.  Direct counting is capped at 10^7 field elements.
Over F_p it is the production count; over F_{p^2} and F_{p^3} it is the
oracle that lifted counts are checked against.

Every count is one character sum, sum_x chi(alpha) prod_i chi(x - r_i),
taken by one kernel (_root_sums) for any number of candidates at once, over
an extension a block of about _BLOCK field elements per candidate at a
time, so no temporary holds q entries: count_points multiplies a model's
rows once per root, and count_quotients counts the three quotients of
fibre products, given as the twists and root sets S, A, B of each, from
rows shared between them.  The chi table of F_{p^k} is read off the norm
form and built from two of its symmetries: over F_{p^2}, whose modulus
is always x^2 + f_0, Frobenius makes rows c_1 and p - c_1 equal, so the
sums walk rows 0..(p-1)/2 only; over F_{p^3} the norm is homogeneous of
degree 3, so every slab of the top coefficient is slab 1 rescaled.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from enum import Enum

import numpy as np

from .errors import CapExceeded, HasseViolation
from .field_arith import (
    TABLE_CACHE,
    CheckedRecord,
    PrimeModulus,
    build_extension,
    legendre_symbol,
    prime_modulus,
    require_ints,
    require_residues,
    residue_tables,
)

COUNT_CAP = 10_000_000
_BLOCK = 1 << 16


class CountMethod(Enum):
    BRUTE_FORCE = "brute-force"
    ZETA_LIFT = "zeta-lift"
    DECOMPOSITION = "decomposition"


def weil_interval(q: int, genus: int) -> tuple[int, int]:
    """Inclusive integer range that #C(F_q) must lie in for the given genus."""
    half = math.isqrt(4 * genus * genus * q)
    return q + 1 - half, q + 1 + half


class PointCount(CheckedRecord, namedtuple("PointCount", "q count method genus")):
    """A point count over F_q, checked against the Hasse-Weil interval when
    the genus is known."""

    __slots__ = ()

    def __new__(cls, q: int, count: int, method: CountMethod,
                genus: int | None = None) -> "PointCount":
        if genus is not None:
            lo, hi = weil_interval(q, genus)
            if not lo <= count <= hi:
                raise HasseViolation(
                    f"count {count} outside the Hasse-Weil interval for "
                    f"q={q}, genus {genus}"
                )
        return tuple.__new__(cls, (q, count, method, genus))

    @property
    def trace(self) -> int:
        return self.q + 1 - self.count


class HyperellipticModel(CheckedRecord, namedtuple("HyperellipticModel", "mod alpha roots")):
    """y^2 = alpha * (x - r_1) .. (x - r_d) over F_p, 3 <= d <= 6, alpha and
    the roots residues."""

    __slots__ = ()

    def __new__(cls, mod: PrimeModulus, alpha: int,
                roots: tuple[int, ...]) -> "HyperellipticModel":
        require_residues(mod.p, alpha, *roots)
        if alpha == 0:
            raise ValueError("alpha must be nonzero")
        if not 3 <= len(roots) <= 6:
            raise ValueError(f"need 3..6 roots, got {len(roots)}")
        if len(set(roots)) != len(roots):
            raise ValueError("roots must be pairwise distinct")
        return tuple.__new__(cls, (mod, alpha, roots))

    @classmethod
    def from_ints(cls, p: int, alpha: int, roots) -> "HyperellipticModel":
        roots = tuple(roots)
        require_ints(p, alpha, *roots)
        return cls(prime_modulus(p), alpha % p, tuple(r % p for r in roots))

    @property
    def degree(self) -> int:
        return len(self.roots)

    @property
    def genus(self) -> int:
        return (self.degree - 1) // 2


@functools.lru_cache(maxsize=1)
def _char_table(p: int, k: int) -> np.ndarray:
    """int8 quadratic character of F_{p^k}, indexed by c_0 + c_1 p (+ c_2 p^2):
    1 on nonzero squares, -1 on non-squares, 0 at zero.  x is a square iff
    its norm N(x) = x^(1 + p + .. + p^(k-1)) is one in F_p, as x^((q-1)/2) =
    N(x)^((p-1)/2).  No temporary has q entries; cached for the current
    field only.

    k = 2: the modulus is x^2 + f_0 (build_extension), so N = c0^2 + f_0 c1^2
    with both terms in [0, p), and each row of c1 reads chi off a doubled
    table at their sum, which needs no reduction mod p.  Frobenius maps
    c0 + c1 x to c0 - c1 x, of the same norm, so row p - c1 equals row c1:
    rows 0..(p-1)/2 are built and the rest mirrored.

    k = 3: N is a cubic form in the c_i with coefficients in e1 = -f_2,
    e2 = f_1, e3 = -f_0, the symmetric functions of the roots of the modulus
    x^3 + f_2 x^2 + f_1 x + f_0, evaluated by Horner in c0 on the slabs
    c2 = 0 and c2 = 1.  N(u x) = u^3 N(x) for u in F_p*, so slab c2 = c != 0
    is chi(c) times slab 1 read at (c0/c, c1/c)."""
    f = build_extension(p, k)
    chi, c0 = residue_tables(p).chi, np.arange(p, dtype=np.int64)
    table = np.empty(p ** k, dtype=np.int8)
    if k == 2:
        rows, half, chi2 = table.reshape(p, p), (p + 1) // 2, np.concatenate((chi, chi))
        step, squares = max(1, _BLOCK // p), c0 * c0 % p
        for lo in range(0, half, step):
            c1 = c0[lo : min(lo + step, half), None]
            rows[lo : lo + len(c1)] = chi2[f[0] * c1 * c1 % p + squares]
        rows[half:] = rows[half - 1 : 0 : -1]
    else:
        # N = c0^3 + A c0^2 + B c0 + C, with A, B, C over (c2, c1), c2 in {0, 1}
        e1, e2, e3 = -f[2] % p, f[1], -f[0] % p
        c1, c2 = c0, np.array([[0], [1]], dtype=np.int64)
        coeffs = (e1 * c1 + (e1 * e1 - 2 * e2) % p * c2,
                  (e2 * c1 + (e1 * e2 - 3 * e3) % p * c2) % p * c1
                  + (e2 * e2 - 2 * e1 * e3) % p * c2 % p * c2,
                  e3 * (((c1 + e1 * c2) % p * c1 + e2 * c2 % p * c2) % p * c1
                        + e3 * c2 % p * c2 % p * c2) % p)
        n = 1  # Horner in c0 on coefficients in [0, p) stays below 2 p^3 < 2^61
        for a in coeffs:
            n = n * c0 + a.reshape(-1, 1) % p
        slabs, inv = table.reshape(p, p, p), residue_tables(p).inv
        slabs[:2] = chi[n % p].reshape(2, p, p)
        one, minus_one = slabs[1], -slabs[1]
        for c in range(2, p):
            at = inv[c] * c0 % p
            slabs[c] = (one if chi[c] > 0 else minus_one)[at][:, at]
    table.flags.writeable = False
    return table


def _rotations(rows: np.ndarray) -> np.ndarray:
    """The rotations of each int8 row of rows (n, p), an (n, p, p) view of
    the rows doubled: [i, r] is row i rotated by r, that is chi(x - r) at x
    for a row of chi, the window of p entries from p - r, so consecutive r
    step back by one entry.  Built by hand, as numpy's sliding_window_view
    costs ten times as long per call."""
    n, p = rows.shape
    return np.ndarray((n, p, p), np.int8, np.concatenate((rows, rows), axis=1), offset=p,
                      strides=(2 * p, -1, 1))


@functools.lru_cache(maxsize=TABLE_CACHE)
def _chi_rotations(p: int) -> np.ndarray:
    """_rotations of the chi table of F_p, read-only and cached per prime:
    row r holds chi(x - r) at x."""
    rotations = _rotations(residue_tables(p).chi[None])[0]
    rotations.flags.writeable = False
    return rotations


def _root_sums(p: int, j: int, root_sets, terms) -> np.ndarray:
    """The character sums of K candidates at once: root_sets holds (K, s)
    arrays of residues, one row per candidate, and per term, a tuple of
    indices into root_sets (nonempty and pairwise disjoint), entry [t, i]
    of the int64 result is the sum over x in F_{p^j} of prod_r chi(x - r),
    r running over row i of the sets term t names.

    Each r lies in F_p, so x - r only moves the constant coefficient c_0 of
    x: with the character table viewed as rows of p entries (c_0 along a
    row), chi(x - r) is the row rotated by r, a window of the row doubled
    (_rotations; over F_p the rotations are cached per prime), and a
    product needs no field arithmetic.  Over F_p all roots of all
    candidates are gathered at once; over an extension the rows are taken
    a block of about _BLOCK entries per candidate at a time, one gather per
    root, so no temporary holds more than a block of rows per candidate.
    Over F_{p^2} rows c_1 and p - c_1 of the table are equal (_char_table),
    and so are their products: only rows 0..(p-1)/2 are walked, row 0
    counted once and every other row twice."""
    sizes = [len(roots[0]) for roots in root_sets]
    # every candidate's roots side by side
    at = np.concatenate(root_sets, axis=1, dtype=np.int64)
    if j == 1:
        # one row per candidate, so all roots in one gather (over an
        # extension that would hold a block per root)
        rotated = _chi_rotations(p)[at]
        return _block_sums(lambda i: rotated[:, i], sizes, terms)
    rows = _char_table(p, j).reshape(-1, p)
    if j == 2:
        rows = rows[: (p + 1) // 2]
    step, columns, sums = max(1, _BLOCK // (p * len(at))), list(at.T), 0
    for lo in range(0, len(rows), step):
        rotations = _rotations(rows[lo : lo + step])
        block = _block_sums(lambda i: rotations[:, columns[i]], sizes, terms)
        sums = sums + block.sum(axis=1)
        if lo == 0:
            first = block[:, 0]
    return 2 * sums - first if j == 2 else sums


def _block_sums(rotated, sizes, terms) -> np.ndarray:
    """Per term, the sum along the last axis (c_0) of the product over the
    roots of the sets the term names of rotated(i), the int8 rows of root i
    rotated by it, for every candidate (and row of a block), in int64.
    rotated(i) is a fresh array or a view no later call reads, as the
    products are formed in it; the roots of the sets lie side by side in
    the order of sizes."""
    products, lo = [], 0
    for size in sizes:
        prod = rotated(lo)
        for i in range(lo + 1, lo + size):
            prod *= rotated(i)
        products.append(prod)
        lo += size
    sums = []
    for head, *tail in terms:
        prod = products[head]
        for u in tail:
            prod = prod * products[u]
        sums.append(prod.sum(axis=-1, dtype=np.int64))
    return np.array(sums)


def _chi_ext(p: int, alpha: int, j: int) -> int:
    """The quadratic character of alpha in F_p* over F_{p^j}: every alpha is
    a square in F_{p^2}; for odd j, (p^j - 1)/2 is (p - 1)/2 times the odd
    number 1 + p + .. + p^(j-1), so alpha is a square in F_{p^j} iff it is
    one in F_p."""
    return 1 if j % 2 == 0 else legendre_symbol(p, alpha)


def _check_field(p: int, j: int) -> None:
    """Raise unless j is in {1, 2, 3} and p^j is within the cap."""
    if j not in (1, 2, 3):
        raise ValueError(f"extension degree must be 1, 2 or 3, got {j}")
    if p ** j > COUNT_CAP:
        raise CapExceeded(
            f"direct counting over {p ** j} elements exceeds the cap {COUNT_CAP}"
        )


def _brute_count(p: int, j: int, alpha: int, degree: int, root_sum: int) -> PointCount:
    """The smooth-model count over F_{p^j} of y^2 = alpha * prod_i (x - r_i)
    from root_sum, the sum over x of prod_i chi(x - r_i): the affine count is
    q + chi(alpha) root_sum."""
    q, chi_alpha = p ** j, _chi_ext(p, alpha, j)
    total = q + chi_alpha * root_sum + _points_at_infinity(degree, chi_alpha)
    return PointCount(q=q, count=total, method=CountMethod.BRUTE_FORCE, genus=(degree - 1) // 2)


def _points_at_infinity(degree: int, chi_alpha: int) -> int:
    """Odd degree: one point; even degree: two iff alpha is a square in the
    counting field, chi_alpha its quadratic character there."""
    if degree % 2 == 1:
        return 1
    return 2 if chi_alpha == 1 else 0


def count_points(model: HyperellipticModel, j: int = 1) -> PointCount:
    """Brute-force smooth-model count of y^2 = f(x) over F_{p^j}, j in {1,2,3}."""
    p = model.mod.p
    _check_field(p, j)
    root_sum = int(_root_sums(p, j, [[model.roots]], [(0,)])[0, 0])
    return _brute_count(p, j, model.alpha, model.degree, root_sum)


def count_quotients(p: int, j: int, alphas, shared, only1, only2) -> list[tuple[PointCount, ...]]:
    """Brute-force counts over F_{p^j} of the three quotients of K fibre
    products, from one pass of _root_sums: row i of shared, only1 and only2
    holds candidate i's roots S, A and B, residues mod p with the same
    numbers of roots in every row, and alphas[i] its twists (alpha1,
    alpha2, alpha3) of the quotients with roots S + A, S + B and A + B.
    Each block's rows are multiplied over S, A and B once, and the three
    sums are of S A, S B and A B, so the quotients take |S| + |A| + |B|
    root passes, not the 2 (|S| + |A| + |B|) of three count_points calls.
    ValueError for a zero twist or a root repeated among S, A and B."""
    for twists, *roots in zip(alphas, shared, only1, only2):
        if 0 in twists:
            raise ValueError("alpha must be nonzero")
        if len({r for rs in roots for r in rs}) != sum(map(len, roots)):
            raise ValueError("roots must be pairwise distinct")
    _check_field(p, j)
    terms = ((0, 1), (0, 2), (1, 2))
    sizes = (len(shared[0]), len(only1[0]), len(only2[0]))
    degrees = [sizes[u] + sizes[v] for u, v in terms]
    sums = _root_sums(p, j, [shared, only1, only2], terms)
    return [tuple(_brute_count(p, j, alpha, degree, n)
                  for alpha, degree, n in zip(twists, degrees, col))
            for twists, col in zip(alphas, sums.T.tolist())]
