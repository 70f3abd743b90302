"""Point counts of the genus-5 curve itself, not of its quotients.

Nothing here imports howe5, and nothing goes through the quotient formula
#C = #C1 + #C2 + #C3 - 2q - 2 that every count of the package rests on.
The curve is the normalisation of the fibre product

    y1^2 = f1(x) = alpha1 (x - a1) .. (x - a6),
    y2^2 = f2(x) = alpha2 (x - a1) .. (x - a4) (x - b5) (x - b6),

and its points over F_q, q = p^j, are counted over each x of the line:

- an x in F_q other than a1..a4 has (1 + chi(f1(x))) (1 + chi(f2(x)))
  points over it;
- each shared root a_i is a node of the fibre product, with branches
  y2 / y1 = +-sqrt(c), c = alpha1 alpha2 (a_i - a5)(a_i - a6)(a_i - b5)
  (a_i - b6) up to a square, so 1 + chi(c) points over it;
- infinity has (1 + chi(alpha1)) (1 + chi(alpha2)), as f1 and f2 have
  degree 6.

chi is the quadratic character of F_q, read off a table of squares built
by squaring every element.  F_{p^2} is F_p[t] / (t^2 - n) for the least
non-residue n; an element u + v t is stored at index u + p v.
"""

from __future__ import annotations

import numpy as np


def _nonresidue(p: int) -> int:
    squares = {y * y % p for y in range(1, p)}
    return next(n for n in range(2, p) if n not in squares)


def _chi_table(p: int, j: int, n: int) -> np.ndarray:
    """chi over F_{p^j}, j in {1, 2}, at index u + p v: 1 on the nonzero
    squares, 0 at zero, -1 elsewhere."""
    chi = -np.ones(p ** j, dtype=np.int64)
    u = np.arange(p, dtype=np.int64)
    for v in range(p ** (j - 1)):
        # (u + v t)^2 = u^2 + n v^2 + 2 u v t
        chi[(u * u + n * v * v) % p + p * (2 * u * v % p)] = 1
    chi[0] = 0
    return chi


def fibre_count(row, j: int) -> int:
    """#C(F_{p^j}), j in {1, 2}, for a parameter row (p, alpha1, alpha2,
    a1..a6, b5, b6)."""
    p, alpha1, alpha2, *a, b5, b6 = row
    n = _nonresidue(p) if j == 2 else 0
    chi = _chi_table(p, j, n)
    u = np.arange(p, dtype=np.int64)
    total = 0
    # the x = u + v t of F_q one v at a time
    for v in range(p ** (j - 1)):
        f = []
        for alpha, roots in ((alpha1, a), (alpha2, (*a[:4], b5, b6))):
            fu, fv = np.full(p, alpha % p, dtype=np.int64), np.zeros(p, dtype=np.int64)
            for r in roots:
                # (fu + fv t)(u - r + v t)
                d = (u - r) % p
                fu, fv = (fu * d + n * v * fv) % p, (fu * v + fv * d) % p
            f.append(chi[fu + p * fv])
        over_x = (1 + f[0]) * (1 + f[1])
        if v == 0:
            # the nodes a1..a4 lie in F_p, at v = 0
            over_x[[r % p for r in a[:4]]] = 0
        total += int(over_x.sum())
    for r in a[:4]:
        c = alpha1 * alpha2 * (r - a[4]) * (r - a[5]) * (r - b5) * (r - b6) % p
        total += 1 + int(chi[c])
    return total + (1 + int(chi[alpha1 % p])) * (1 + int(chi[alpha2 % p]))
