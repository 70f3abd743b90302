"""Point counting for y^2 = alpha * prod (x - r_i), checked against the
naive enumerator from conftest."""

import ast
import math
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import naive_count_ext, naive_count_fp
from howe5 import curve_models, howe_factory
from howe5.curve_models import (
    _BLOCK,
    COUNT_CAP,
    _char_table,
    _root_sums,
    CountMethod,
    HyperellipticModel,
    PointCount,
    count_points,
    count_quotients,
    weil_interval,
)
from howe5.errors import CapExceeded, HasseViolation, Howe5Error
from howe5.field_arith import build_extension, is_prime, residue_tables
from howe5.hasse_serre import LegendreCurve, zeta_lift
from howe5.howe_factory import HoweParams
from square_reference import mul


class TestModelConstruction:
    def test_from_ints_reduces_mod_p(self):
        m = HyperellipticModel.from_ints(11, 15, (12, 3, 2))
        assert int(m.alpha) == 4
        assert [int(r) for r in m.roots] == [1, 3, 2]

    def test_zero_alpha_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            HyperellipticModel.from_ints(11, 0, (0, 1, 2))

    def test_repeated_roots_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            HyperellipticModel.from_ints(11, 4, (0, 1, 12))  # 12 = 1 mod 11

    def test_degree_range(self):
        with pytest.raises(ValueError):
            HyperellipticModel.from_ints(11, 4, (0, 1))
        with pytest.raises(ValueError):
            HyperellipticModel.from_ints(11, 4, tuple(range(7)))
        # 3 through 6 roots all fine
        for d in range(3, 7):
            HyperellipticModel.from_ints(11, 4, tuple(range(d)))

    @pytest.mark.parametrize("build", [
        lambda: HyperellipticModel.from_ints(11, 2.5, (1, 2, 3)),
        lambda: HyperellipticModel.from_ints(11, 2, (1, 2.0, 3)),
        lambda: HyperellipticModel.from_ints(11.0, 2, (1, 2, 3)),
        lambda: LegendreCurve.from_ints(11, 3, 4.0),
        lambda: LegendreCurve.from_ints(11, "3", 4),
        lambda: LegendreCurve.from_ints(11.0, 3, 4),
    ], ids=["float-alpha", "float-root", "float-prime", "float-lambda", "str-theta",
            "float-prime-legendre"])
    def test_from_ints_rejects_non_integers(self, build):
        with pytest.raises(ValueError, match="parameters must be integers"):
            build()

    def test_genus(self):
        gs = {3: 1, 4: 1, 5: 2, 6: 2}
        for d, g in gs.items():
            m = HyperellipticModel.from_ints(13, 2, tuple(range(d)))
            assert count_points(m, 1).genus == g


def test_known_count_f5():
    # y^2 = x(x-1)(x-2) over F_5 has 8 projective points
    m = HyperellipticModel.from_ints(5, 1, (0, 1, 2))
    assert count_points(m, 1).count == 8


class TestAgainstNaiveOracle:
    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_base_field_all_degrees(self, p):
        import random

        rng = random.Random(p)
        for deg in (3, 4, 5, 6):
            if deg > p:
                continue  # not enough distinct roots in F_5 for degree 6
            for _ in range(6):
                roots = tuple(rng.sample(range(p), deg))
                alpha = rng.randrange(1, p)
                m = HyperellipticModel.from_ints(p, alpha, roots)
                assert count_points(m, 1).count == naive_count_fp(p, alpha, roots)

    @pytest.mark.parametrize("p", [5, 7])
    def test_quadratic_extension(self, p):
        import random

        rng = random.Random(100 + p)
        for deg in (3, 4, 6):
            roots = tuple(rng.sample(range(p), min(deg, p - 1)))
            if len(roots) < 3:
                continue
            alpha = rng.randrange(1, p)
            m = HyperellipticModel.from_ints(p, alpha, roots)
            assert count_points(m, 2).count == naive_count_ext(p, 2, alpha, roots)

    def test_cubic_extension_f5(self):
        m = HyperellipticModel.from_ints(5, 2, (0, 1, 3))
        assert count_points(m, 3).count == naive_count_ext(5, 3, 2, (0, 1, 3))

    def test_even_degree_twist_at_infinity(self):
        # degree 4, alpha a nonsquare: no points at infinity over F_p,
        # but two over F_{p^2} where everything becomes a square
        p = 11
        m = HyperellipticModel.from_ints(p, 2, (0, 1, 2, 3))  # 2 is a nonsquare mod 11
        assert count_points(m, 1).count == naive_count_fp(p, 2, (0, 1, 2, 3))
        assert count_points(m, 2).count == naive_count_ext(p, 2, 2, (0, 1, 2, 3))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), p=st.sampled_from([3, 5, 7, 11, 13]), j=st.sampled_from([1, 2, 3]))
def test_count_matches_naive_enumeration(data, p, j):
    """The character-sum count against full enumeration with independent
    arithmetic, for every degree that fits in F_p."""
    deg = data.draw(st.integers(3, min(6, p)), label="degree")
    roots = tuple(data.draw(st.permutations(range(p)), label="roots")[:deg])
    alpha = data.draw(st.integers(1, p - 1), label="alpha")
    m = HyperellipticModel.from_ints(p, alpha, roots)
    want = naive_count_fp(p, alpha, roots) if j == 1 else naive_count_ext(p, j, alpha, roots)
    assert count_points(m, j).count == want


@pytest.mark.parametrize("p,k", [(p, k) for p in range(3, 60) if is_prime(p) for k in (2, 3)]
                         + [(97, 3), (367, 2)])
def test_char_table_squares_every_element(p, k):
    """The table read off the norm form against squaring every element of
    F_{p^k}, at every odd prime below 60, at F_97^3 and at F_367^2, whose
    rows 0..(p-1)/2 span two blocks."""
    q = p ** k
    idx = np.arange(q, dtype=np.int64)
    u = [idx // p ** i % p for i in range(k)]
    want = np.full(q, -1, dtype=np.int8)
    want[sum(c * p ** i for i, c in enumerate(mul(u, u, build_extension(p, k), p)))] = 1
    want[0] = 0
    assert np.array_equal(_char_table(p, k), want)


def test_quadratic_modulus_has_no_x_term_and_mirrored_rows():
    """At every odd prime below 3000 F_{p^2} is defined by x^2 + f_0, so
    Frobenius, c0 + c1 x -> c0 - c1 x, keeps the norm and rows c1 and p - c1
    of the table are equal."""
    for p in range(3, 3000):
        if is_prime(p):
            assert build_extension(p, 2)[1] == 0, p
            rows = _char_table(p, 2).reshape(p, p)
            assert np.array_equal(rows[1:], rows[:0:-1]), p


def _full_count(p, alpha, roots):
    """The count over F_{p^2} from a character sum over all p rows of the
    table, each factor chi(x - r) the rows rotated by r.  Every alpha in F_p
    is a square in F_{p^2}, so an even-degree model has two points at
    infinity."""
    rows = _char_table(p, 2).reshape(p, p)
    prod = np.ones_like(rows)
    for r in roots:
        prod *= np.roll(rows, r, axis=1)
    return p * p + int(prod.sum(dtype=np.int64)) + (1 if len(roots) % 2 else 2)


@pytest.mark.parametrize("p", [3, 367, 1031])
def test_quadratic_counts_match_the_full_row_sum(p):
    """count_points and count_quotients walk rows 0..(p-1)/2 over F_{p^2},
    counting every row but 0 twice: the same counts as the sum over all p
    rows, at p = 3 (two rows walked), 367 and 1031 (several blocks)."""
    shapes = [(1, (0, 1, 2)), (2, (2, 0, 1))]
    if p > 3:
        shapes += [(2, (0, 1, 2, p - 1)), (3, (1, 4, 9, 16, 25, p - 3))]
    for alpha, roots in shapes:
        model = HyperellipticModel.from_ints(p, alpha, roots)
        assert count_points(model, 2).count == _full_count(p, alpha, roots)
    if p > 3:
        s, a, b = (3, 5, 7, p - 2), (1, p - 1), (0, 11)
        counts = count_quotients(p, 2, [(3, 5, 15)], [s], [a], [b])[0]
        assert [pc.count for pc in counts] == [
            _full_count(p, alpha, rs) for alpha, rs in ((3, s + a), (5, b + s), (15, a + b))]


def test_oracle_imports_only_the_field_layer():
    """The brute-force oracle stays separate from what it checks: from the
    package, curve_models imports only errors and field_arith, so it reads
    no trace, lift or Hasse value."""
    tree = ast.parse(Path(curve_models.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            imported |= ({node.module.split(".")[0]} if node.module
                         else {alias.name for alias in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "howe5":
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names
                         if alias.name.split(".")[0] == "howe5"}
    assert imported == {"errors", "field_arith"}


def test_char_table_has_no_field_sized_temporary():
    """Built in blocks: the build peaks below one int64 array of q entries."""
    p, k = 97, 3
    residue_tables(p), build_extension(p, k)  # cached, so the peak is the build's
    tracemalloc.start()
    try:
        table = _char_table.__wrapped__(p, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table) == p ** k and peak < 8 * p ** k


# (p, j): small fields, F_263^2, and F_47^3 and F_367^2, which span two
# blocks (over F_{p^2} only rows 0..(p-1)/2 are walked)
QUOTIENT_FIELDS = [(5, 1), (13, 1), (101, 1), (7, 2), (23, 2), (263, 2), (367, 2), (5, 3),
                   (11, 3), (47, 3)]
# (|S|, |A|, |B|) with 3 to 6 roots in each model
QUOTIENT_SHAPES = [(n_s, n_a, n_b) for n_s in range(1, 6) for n_a in range(1, 6)
                   for n_b in range(1, 6)
                   if all(3 <= n <= 6 for n in (n_s + n_a, n_s + n_b, n_a + n_b))]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), field=st.sampled_from(QUOTIENT_FIELDS))
def test_quotient_counts_match_count_points(data, field):
    """Three models with roots S + A, S + B and A + B counted from shared
    rows give each model's count_points count, for every shape that fits."""
    p, j = field
    n_s, n_a, n_b = data.draw(st.sampled_from([n for n in QUOTIENT_SHAPES if sum(n) <= p]),
                              label="shape")
    roots = data.draw(st.permutations(range(p)), label="roots")
    s, a, b = roots[:n_s], roots[n_s:n_s + n_a], roots[n_s + n_a:n_s + n_a + n_b]
    alphas = data.draw(st.tuples(*[st.integers(1, p - 1)] * 3), label="alphas")
    models = [HyperellipticModel.from_ints(p, alpha, rs)
              for alpha, rs in zip(alphas, (s + a, b + s, a + b))]
    counts = count_quotients(p, j, [alphas], [s], [a], [b])[0]
    assert counts == tuple(count_points(m, j) for m in models)
    for m, pc in zip(models, counts):
        if m.genus == 1:  # from the count over F_p, one row, so one block
            assert pc.count == zeta_lift(count_points(m, 1).count, p, j)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), field=st.sampled_from(QUOTIENT_FIELDS), k=st.integers(2, 5))
def test_root_sums_of_a_batch_match_one_at_a_time(data, field, k):
    """_root_sums of k candidates, each root set a (k, s) array, equals the
    sums of each candidate on its own, over F_p, F_p^2 and F_p^3; at (367,
    2) a batch's block holds fewer rows than one candidate's, so its rows
    0..(p-1)/2 span several blocks."""
    p, j = field
    sizes = data.draw(st.sampled_from([n for n in QUOTIENT_SHAPES if sum(n) <= p]),
                      label="shape")
    candidates = []
    for _ in range(k):
        roots = data.draw(st.permutations(range(p)), label="roots")
        candidates.append((roots[: sizes[0]], roots[sizes[0] : sum(sizes[:2])],
                           roots[sum(sizes[:2]) : sum(sizes)]))
    terms = ((0, 1), (0, 2), (1, 2), (1,), (0, 1, 2))
    sums = _root_sums(p, j, [np.array(column) for column in zip(*candidates)], terms)
    assert sums.shape == (len(terms), k) and sums.dtype == np.int64
    for i, sets in enumerate(candidates):
        assert sums[:, i].tolist() == _root_sums(p, j, [[r] for r in sets], terms)[:, 0].tolist()


@pytest.mark.parametrize("p,j", [(13, 1), (101, 1), (23, 2), (11, 3)])
def test_quotient_counts_of_a_batch_match_one_at_a_time(p, j):
    rng = random.Random(p * j)
    rows = []
    for _ in range(4):
        r = rng.sample(range(p), 8)
        rows.append((tuple(rng.randrange(1, p) for _ in range(3)), r[:4], r[4:6], r[6:]))
    assert count_quotients(p, j, *zip(*rows)) == [
        count_quotients(p, j, [alphas], [s], [a], [b])[0] for alphas, s, a, b in rows]


def test_quotient_counts_of_a_batch_share_one_field_and_shape():
    """A batch is counted over the one field its p names, so the parameter
    sets howe_factory counts together must share a prime, and the root rows
    of a batch must have one shape."""
    with pytest.raises(ValueError):
        count_quotients(11, 1, [(1, 1, 1)] * 2, [(1, 2, 3, 4), (1, 2, 3)], [(5, 6)] * 2,
                        [(7, 8)] * 2)
    batch = [HoweParams.from_ints(p, 1, 1, (1, 2, 3, 4, 5, 6), (7, 8)) for p in (11, 13)]
    with pytest.raises(ValueError, match="one prime"):
        howe_factory._quotient_counts(batch, 1)


def test_count_sums_past_int8_at_a_large_prime():
    """The chi table of F_p is int8 and so are the products of its rows;
    the sums are taken in int64.  At p = 16411 > 2^14 the genus-2 model
    with roots 1, 2, 3, 5, 8, 13 has the root sum 279, past int8, and its
    count, alone and in a batch, matches a sum over every x in int64."""
    p, roots = 16411, (1, 2, 3, 5, 8, 13)
    x = np.arange(p, dtype=np.int64)
    chi = -np.ones(p, dtype=np.int64)
    chi[x * x % p] = 1
    chi[0] = 0
    want = np.prod([chi[(x - r) % p] for r in roots], axis=0).sum()
    assert want == 279 and residue_tables(p).chi.dtype == np.int8
    model = HyperellipticModel.from_ints(p, 1, roots)
    assert count_points(model, 1).count == p + want + 2
    batch = _root_sums(p, 1, [[roots, (0, 1, 2, 3, 4, 5)]], [(0,)])
    assert batch[0, 0] == want


def test_quotient_count_has_no_field_sized_temporary():
    """Counted a block at a time: over F_97^3 (912673 elements), with the
    table cached, the three quotients peak below eight blocks of bytes."""
    p = 97
    models = [HyperellipticModel.from_ints(p, alpha, roots) for alpha, roots in
              ((3, (1, 2, 3, 4, 5, 6)), (5, (1, 2, 3, 4, 7, 8)), (15, (5, 6, 7, 8)))]
    _char_table(p, 3)
    tracemalloc.start()
    try:
        counts = count_quotients(p, 3, [(3, 5, 15)], [(1, 2, 3, 4)], [(5, 6)], [(7, 8)])[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts == tuple(count_points(m, 3) for m in models)
    assert peak < 8 * _BLOCK


def test_quotient_count_is_capped():
    p = 3163  # p^2 just past the cap
    with pytest.raises(CapExceeded):
        count_quotients(p, 2, [(1, 1, 1)], [(1, 2)], [(3, 4)], [(5, 6)])


@pytest.mark.parametrize("alphas,s,a,b,message", [
    ((1, 0, 1), (1, 2, 3, 4), (5, 6), (7, 8), "alpha must be nonzero"),
    ((1, 1, 1), (1, 2, 3, 4), (5, 6), (6, 8), "pairwise distinct"),
    ((1, 1, 1), (1, 2, 3, 4), (5, 4), (7, 8), "pairwise distinct"),
    ((1, 1, 1), (1, 2, 3, 4), (5, 6), (7, 1), "pairwise distinct"),
    ((1, 1, 1), (1, 2, 3, 3), (5, 6), (7, 8), "pairwise distinct"),
], ids=["zero-twist", "a-and-b", "s-and-a", "s-and-b", "within-s"])
def test_quotient_count_rejects_degenerate_curves(alphas, s, a, b, message):
    """A zero twist, or a root twice among S, A and B, makes some quotient
    singular; the second candidate of the batch is the degenerate one."""
    with pytest.raises(ValueError, match=message):
        count_quotients(11, 1, [(1, 1, 1), alphas], [(1, 2, 3, 4), s], [(5, 6), a],
                        [(7, 8), b])


class TestCapAndErrors:
    def test_cap_value(self):
        assert COUNT_CAP == 10 ** 7

    def test_cubic_extension_of_medium_prime_exceeds_cap(self):
        m = HyperellipticModel.from_ints(499, 47, (2, 1, 10, 55, 92, 84))
        with pytest.raises(CapExceeded):
            count_points(m, 3)  # 499^3 > 10^7

    def test_count_outside_hasse_weil_is_a_math_error(self):
        # a mathematical failure, so the command line exits 1, not 2
        with pytest.raises(HasseViolation) as exc:
            PointCount(q=11, count=30, method=CountMethod.BRUTE_FORCE, genus=1)
        assert isinstance(exc.value, Howe5Error)
        assert not isinstance(exc.value, ValueError)
        PointCount(q=11, count=18, method=CountMethod.BRUTE_FORCE, genus=1)

    def test_bad_extension_degree(self):
        m = HyperellipticModel.from_ints(11, 4, (0, 1, 2))
        with pytest.raises(ValueError):
            count_points(m, 4)


class TestDerivedQuantities:
    def test_trace_is_q_plus_1_minus_count(self):
        m = HyperellipticModel.from_ints(5, 1, (0, 1, 2))
        assert count_points(m).trace == 5 + 1 - 8  # = -2

    def test_counts_inside_weil_interval(self):
        import random

        rng = random.Random(9)
        for _ in range(25):
            p = rng.choice([11, 13, 17, 19])
            deg = rng.choice([3, 4, 5, 6])
            roots = tuple(rng.sample(range(p), deg))
            m = HyperellipticModel.from_ints(p, rng.randrange(1, p), roots)
            pc = count_points(m, 1)
            lo, hi = weil_interval(p, pc.genus)
            assert lo <= pc.count <= hi

    def test_weil_interval_endpoints(self):
        lo, hi = weil_interval(11, 1)
        assert (lo, hi) == (6, 18)
        lo, hi = weil_interval(121, 5)
        assert (lo, hi) == (12, 232)
        assert hi == 121 + 1 + 5 * math.isqrt(4 * 121)

    def test_point_count_record_fields(self):
        m = HyperellipticModel.from_ints(11, 4, (5, 3, 10, 7, 6, 8))
        pc = count_points(m, 2)
        assert pc.q == 121
        assert pc.genus == 2
        assert pc.count == naive_count_ext(11, 2, 4, (5, 3, 10, 7, 6, 8))
