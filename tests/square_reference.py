"""Multiplication in F_p[x] modulo the defining polynomial of F_{p^k},
kept as the reference for curve_models._char_table, which reads the
quadratic character off the norm form and multiplies nothing.

tests/test_curve_models.py requires the table to equal the one squaring
every element with this product gives, and tests/test_field_arith.py
checks the field axioms of the defining polynomials with it.
"""


def mul(a, b, poly, p):
    """Product of coefficient vectors a, b (c_0 first) in F_p[x] modulo the
    monic x^k + poly[k-1] x^(k-1) + .. + poly[0].  Coefficients may be ints
    or int64 arrays; p < 2^20 keeps every partial sum below 2^45."""
    k = len(poly)
    d = [0] * (2 * k - 1)
    for i in range(k):
        for j in range(k):
            d[i + j] = d[i + j] + a[i] * b[j]
    # x^i = x^(i-k) * x^k = -x^(i-k) * (poly[0] + .. + poly[k-1] x^(k-1))
    for i in range(2 * k - 2, k - 1, -1):
        c = d[i] % p
        for j in range(k):
            d[i - k + j] = d[i - k + j] - c * poly[j]
    return [c % p for c in d[:k]]

