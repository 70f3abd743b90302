"""Shared fixtures, a sampler of valid parameter sets and a deliberately
naive point counter.

The naive counter below shares no code with the package: it enumerates
field elements directly and tallies square values from a dict.  Slow but
transparent, it is the reference the fast kernels get compared against.
"""

from __future__ import annotations

import random
import tempfile
from typing import Optional

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from howe5.curve_models import HyperellipticModel
from howe5.howe_factory import HoweParams, SplitData, validate

# Fixed examples and no example database, so a run is reproducible; a test's
# own @settings(max_examples=...) still holds.  What hypothesis stores even
# so (constants it reads from the source) goes to a directory removed at
# exit, so a run leaves no .hypothesis/ in the checkout.
settings.register_profile("howe5", derandomize=True, database=None)
settings.load_profile("howe5")
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="howe5-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


def naive_count_fp(p: int, alpha: int, roots) -> int:
    """#points of y^2 = alpha * prod (x - r) over F_p, projective model."""
    sq = {}
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
        total += 1
    elif pow(alpha % p, (p - 1) // 2, p) == 1:
        total += 2
    return total


def _ext_mul(u, v, poly, p):
    """Multiply coefficient tuples modulo the monic polynomial given by its
    low-order coefficients."""
    k = len(u)
    prod = [0] * (2 * k - 1)
    for i, ui in enumerate(u):
        if ui == 0:
            continue
        for j, vj in enumerate(v):
            prod[i + j] = (prod[i + j] + ui * vj) % p
    for i in range(2 * k - 2, k - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j, pc in enumerate(poly):
                prod[i - k + j] = (prod[i - k + j] - c * pc) % p
    return tuple(prod[:k])


def _ext_pow(u, e, poly, p):
    k = len(u)
    acc = tuple([1] + [0] * (k - 1))
    base = u
    while e:
        if e & 1:
            acc = _ext_mul(acc, base, poly, p)
        base = _ext_mul(base, base, poly, p)
        e >>= 1
    return acc


def find_irreducible_naive(p: int, k: int):
    """Smallest monic rootless polynomial of degree k, as low coefficients.
    For k in {2, 3} rootless and irreducible coincide."""
    from itertools import product

    for high in product(range(p), repeat=k - 1):
        for c0 in range(p):
            coeffs = (c0,) + tuple(reversed(high))
            if all(
                (pow(x, k, p) + sum(c * pow(x, i, p) for i, c in enumerate(coeffs))) % p
                for x in range(p)
            ):
                return coeffs
    raise AssertionError("no irreducible found")


def naive_count_ext(p: int, k: int, alpha: int, roots) -> int:
    """#points over F_{p^k} by full enumeration with independent extension
    arithmetic.  Only sane for tiny p^k."""
    from itertools import product

    poly = find_irreducible_naive(p, k)
    q = p ** k
    zero = (0,) * k

    def lift(n):
        return (n % p,) + (0,) * (k - 1)

    sq = {}
    for tup in product(range(p), repeat=k):
        e = tuple(tup)
        s = _ext_mul(e, e, poly, p)
        sq[s] = sq.get(s, 0) + 1

    total = 0
    for tup in product(range(p), repeat=k):
        x = tuple(tup)
        f = lift(alpha)
        for r in roots:
            d = (x[0] - r) % p
            f = _ext_mul(f, (d,) + x[1:], poly, p)
        total += sq.get(f, 0)
    if len(roots) % 2 == 1:
        total += 1
    else:
        a = lift(alpha)
        if a == zero or _ext_pow(a, (q - 1) // 2, poly, p) == lift(1):
            total += 2
    return total


def random_valid_params(p: int, rng: random.Random, max_tries: int = 5000) -> Optional[SplitData]:
    """Sample a parameter set by drawing roots and deriving the forced ones
    in the cross-ratio frame y = cr(a1, a2, a3, x), twists uniform nonzero
    scalars; returns the split of the first set that validates, so its
    params are validated once, or None after max_tries draws."""
    def div(x, y):
        return x * pow(y, -1, p) % p

    for _ in range(max_tries):
        a1, a2, a3, a4, a5, b5 = rng.sample(range(p), 6)
        k = div(a1 - a3, a2 - a3)
        a, b, c = (div(k * (a2 - x), a1 - x) for x in (a4, a5, b5))
        frame = div(a, 1 - a)
        d, e = frame * (1 - b) % p, frame * (1 - c) % p
        if d in (1, k, c) or e in (1, k, b):
            continue
        # the x with cr(a1, a2, a3, x) = y
        a6, b6 = (div(k * a2 - y * a1, k - y) for y in (d, e))
        alpha1 = rng.randrange(1, p)
        alpha2 = rng.randrange(1, p)
        params = HoweParams.from_ints(p, alpha1, alpha2, (a1, a2, a3, a4, a5, a6), (b5, b6))
        split = validate(params).split
        if split is not None:
            return split
    return None


def quotient_models(params: HoweParams) -> tuple[HyperellipticModel, ...]:
    """The quotient models C1: alpha1 (x - a1)..(x - a6), C2: alpha2 (x - a1)..(x - a4)
    (x - b5)(x - b6) and C3: alpha1 alpha2 (x - a5)(x - a6)(x - b5)(x - b6),
    for tests that count each on its own."""
    a, b, p = params.a, params.b, params.mod.p
    return (HyperellipticModel(params.mod, params.alpha1, a),
            HyperellipticModel(params.mod, params.alpha2, a[:4] + b),
            HyperellipticModel(params.mod, params.alpha1 * params.alpha2 % p, a[4:] + b))


# the bundled example rows, used across test modules
ROW_P499 = (499, 47, 436, (2, 1, 10, 55, 92, 84), (36, 275))
ROW_P11 = (11, 4, 6, (5, 3, 10, 7, 6, 8), (9, 2))
ROW_P37 = (37, 17, 6, (0, 1, 3, 31, 34, 13), (29, 30))


@pytest.fixture
def example_rows():
    return [ROW_P499, ROW_P11, ROW_P37]
