"""Independent point counts for the correctness gate.

Nothing here imports howe5.  Counts enumerate every field element and look
the value of f up in a table of squares built by squaring every element, so
they share no code, no character table and no extension modulus with the
package.  F_{p^2} is built as F_p[t] / (t^2 - n) for the smallest
non-residue n, which is not the modulus the package picks.
"""

from __future__ import annotations

import math


def serre_bound(q: int, genus: int) -> int:
    """q + 1 + genus * floor(2 sqrt(q))."""
    return q + 1 + genus * math.isqrt(4 * q)


def count_fp(p: int, alpha: int, roots) -> int:
    """#points of the smooth model of y^2 = alpha * prod (x - r) over F_p."""
    sq: dict[int, int] = {}
    for y in range(p):
        v = y * y % p
        sq[v] = sq.get(v, 0) + 1
    total = 0
    for x in range(p):
        f = alpha % p
        for r in roots:
            f = f * (x - r) % p
        total += sq.get(f, 0)
    if len(roots) % 2 == 1:
        return total + 1
    return total + (2 if sq.get(alpha % p, 0) else 0)


def _nonresidue(p: int) -> int:
    squares = {y * y % p for y in range(1, p)}
    return next(n for n in range(2, p) if n not in squares)


def count_fp2(p: int, alpha: int, roots) -> int:
    """#points of the smooth model of y^2 = alpha * prod (x - r) over F_{p^2},
    elements written u + v t with t^2 = n."""
    n = _nonresidue(p)
    sq: dict[tuple[int, int], int] = {}
    for u in range(p):
        for v in range(p):
            s = ((u * u + n * v * v) % p, 2 * u * v % p)
            sq[s] = sq.get(s, 0) + 1
    total = 0
    for x0 in range(p):
        for x1 in range(p):
            f0, f1 = alpha % p, 0
            for r in roots:
                d = (x0 - r) % p
                f0, f1 = (f0 * d + n * f1 * x1) % p, (f0 * x1 + f1 * d) % p
            total += sq.get((f0, f1), 0)
    if len(roots) % 2 == 1:
        return total + 1
    return total + (2 if sq.get((alpha % p, 0), 0) else 0)


def genus5_count(row, j: int) -> int:
    """#C(F_{p^j}) for a parameter row (p, alpha1, alpha2, a1..a6, b5, b6),
    j in {1, 2}, from the three quotient curves:
    #C = #C1 + #C2 + #C3 - 2q - 2."""
    p, al1, al2, a1, a2, a3, a4, a5, a6, b5, b6 = row
    count = {1: count_fp, 2: count_fp2}[j]
    q = p ** j
    n1 = count(p, al1, (a1, a2, a3, a4, a5, a6))
    n2 = count(p, al2, (a1, a2, a3, a4, b5, b6))
    n3 = count(p, al1 * al2, (a5, a6, b5, b6))
    return n1 + n2 + n3 - 2 * q - 2
