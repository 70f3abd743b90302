"""Ten end-to-end checks, one per headline claim the bundled data makes.

Each test prints a single summary line so a plain pytest run shows the
scorecard at a glance.  Counts over F_{p^2} and F_{p^3} come from the public
API, which lifts them from F_p, and are checked against the brute-force
oracle wherever the field is small enough; nothing here trusts a congruence
to check itself.
"""

import functools
import json
import os
import random
import subprocess
import sys
import time

from conftest import ROW_P11, ROW_P37, ROW_P499
import howe5
from howe5 import tables
from howe5.cli import main as cli_main
from howe5.curve_models import count_points
from howe5.field_arith import prime_modulus, legendre_symbol
from howe5.hasse_serre import (
    LegendreCurve,
    attains_serre_fp,
    legendre_count_fp,
    maximal_fp2,
    mod4_check,
    serre_bound,
    zeta_lift,
)
from howe5.howe_factory import (
    decompose_genus5,
    direct_counts,
    howe_counts,
    howe_models,
    serre_verdicts,
    validate,
)
from howe5.search_engine import SearchConfig, primes_in, random_valid_params, run_search

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(howe5.__file__)))


def _announce(capsys, n, label, fn):
    t0 = time.perf_counter()
    try:
        fn()
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {n} {label}: FAIL ({time.perf_counter() - t0:.1f}s)")
        raise
    with capsys.disabled():
        print(f"ACCEPTANCE {n} {label}: PASS ({time.perf_counter() - t0:.1f}s)")


@functools.lru_cache(maxsize=None)
def _sample_params(n=100, p_max=101, seed=20260822):
    """Deterministic sample of valid parameter sets, shared by criteria 5, 6, 8."""
    rng = random.Random(seed)
    primes = [p for p in primes_in(11, p_max)]
    out = []
    while len(out) < n:
        p = primes[len(out) % len(primes)]
        params = random_valid_params(p, rng)
        if params is not None:
            out.append(params)
    return tuple(out)


def test_acceptance_01_table1(capsys):
    def body():
        rows = tables.load_table(1)
        assert [r.mod.p for r in rows] == [499, 599, 1187]
        for params in rows:
            p = params.mod.p
            assert validate(params).ok
            assert serre_verdicts(params).serre_fp is True
            hc = howe_counts(params, 1)  # direct counts of all eight models
            assert hc.total == serre_bound(p, 5)
    _announce(capsys, 1, "table-1", body)


def test_acceptance_02_table2(capsys):
    def body():
        rows = tables.load_table(2)
        assert len(rows) == 19
        for params in rows:
            p = params.mod.p
            assert serre_verdicts(params).maximal_fp2 is True
            hc = howe_counts(params, 2)  # lifted from base-field traces
            assert hc.total == p * p + 1 + 10 * p
            # the direct count over F_{p^2} (p <= 199) must agree
            assert direct_counts(params, 2)[3] == hc.total
    _announce(capsys, 2, "table-2", body)


def test_acceptance_03_table3(capsys):
    def body():
        rows = tables.load_table(3)
        assert [r.mod.p for r in rows] == [37, 97, 193]
        for params in rows:
            p = params.mod.p
            assert serre_verdicts(params).serre_fp3 is True
            _, curves = decompose_genus5(params)
            lifted = sum(zeta_lift(legendre_count_fp(E), p, 3) for E in curves)
            total = lifted - 4 * p ** 3 - 4
            assert total == serre_bound(p ** 3, 5)
            assert howe_counts(params, 3).total == total
            if p == 37:  # the only row small enough to count directly
                assert direct_counts(params, 3)[3] == total
    _announce(capsys, 3, "table-3", body)


# Reference factor lists for the three worked example rows.  Two of the
# twist entries below are equivalent rather than equal to what the twist
# formula yields (342 vs 47 at p = 499, 30 vs 21 at p = 37): same square
# class, same lambda, hence the same curve up to isomorphism and the same
# counts.  The comparison is therefore at curve level: lambda multisets and
# twist square classes must match exactly, and so must every point count.
REFERENCE_FACTORS = {
    499: [(31, 438), (31, 198), (95, 62), (95, 302), (342, 198)],
    11: [(8, 6), (8, 2), (8, 2), (8, 10), (3, 10)],
    37: [(26, 26), (26, 4), (4, 12), (4, 34), (30, 10)],
}


def test_acceptance_04_factor_multisets(capsys):
    def body():
        for row in (ROW_P499, ROW_P11, ROW_P37):
            p, a1, a2, a, b = row
            argv = ["decompose", "--p", str(p), "--alpha1", str(a1),
                    "--alpha2", str(a2), "--a", ",".join(map(str, a)),
                    "--b", ",".join(map(str, b)), "--json"]
            assert cli_main(argv) == 0
            report = json.loads(capsys.readouterr().out)
            got = [(f["theta"], f["lambda"]) for f in report["factors"]]
            want = REFERENCE_FACTORS[p]
            mod = prime_modulus(p)
            as_class = lambda pairs: sorted(
                (legendre_symbol(t, mod), l) for t, l in pairs)
            assert as_class(got) == as_class(want)
            counts = lambda pairs: sorted(
                legendre_count_fp(LegendreCurve.from_ints(p, t, l)) for t, l in pairs)
            assert counts(got) == counts(want)
            if p == 11:
                assert got == want  # here even the literal twists agree
    _announce(capsys, 4, "factor-multisets", body)


def test_acceptance_05_split_identities(capsys):
    def body():
        sample = _sample_params()
        assert len(sample) >= 100
        for params in sample:
            p = params.mod.p
            m1, m2, m3 = howe_models(params)
            _, curves = decompose_genus5(params)
            e = [legendre_count_fp(E) for E in curves]
            assert count_points(m1, 1).count == e[0] + e[1] - (p + 1)
            assert count_points(m2, 1).count == e[2] + e[3] - (p + 1)
            assert count_points(m3, 1).count == e[4]
    _announce(capsys, 5, "split-identities", body)


def test_acceptance_06_count_formula(capsys):
    def body():
        for params in _sample_params():
            for j in (1, 2):
                hc = howe_counts(params, j)
                q = params.mod.p ** j
                assert hc.total == hc.c1 + hc.c2 + hc.c3 - 2 * q - 2
                assert hc.total == sum(hc.e) - 4 * q - 4
                c1, c2, c3, total = direct_counts(params, j)
                assert hc.c1 == c1
                assert hc.c2 == c2
                assert hc.c3 == c3
                assert hc.total == total
    _announce(capsys, 6, "count-formula", body)


def test_acceptance_07_congruence_vs_oracle(capsys):
    def body():
        bound_hits = 0
        for p in (17, 19, 23, 29, 31):
            bound = serre_bound(p, 1)
            for lam in range(2, p):
                for theta in range(1, p):
                    c = LegendreCurve.from_ints(p, theta, lam)
                    attained = legendre_count_fp(c) == bound
                    assert attains_serre_fp(c) == attained
                    bound_hits += attained
        assert bound_hits  # the predicate has a nonempty true side
        for p in (17, 19, 23):
            top = p * p + 1 + 2 * p
            for lam in range(2, p):
                for theta in range(1, p):
                    c = LegendreCurve.from_ints(p, theta, lam)
                    direct = count_points(c.model(), 2).count
                    assert maximal_fp2(c) == (direct == top)
    _announce(capsys, 7, "congruence-oracle", body)


def test_acceptance_08_mod4(capsys):
    def body():
        rng = random.Random(4)
        primes = primes_in(11, 199)
        for _ in range(1000):
            p = rng.choice(primes)
            theta = rng.randrange(1, p)
            lam = rng.randrange(2, p)
            j = rng.choice((1, 2, 3))
            assert mod4_check(LegendreCurve.from_ints(p, theta, lam), j)
        for params in _sample_params():
            assert howe_counts(params, 1).total % 4 == 0
    _announce(capsys, 8, "mod-4", body)


def test_acceptance_09_negative_control(capsys):
    def body():
        cfg = SearchConfig(p_min=13, p_max=13, target="maximal-fp2",
                           max_candidates=10 ** 9, max_hits=10, seed=0)
        hits, stats = run_search(cfg)
        assert hits == []
        assert not stats.truncated  # full coverage, not an early exit
        assert stats.prefixes > 0
    _announce(capsys, 9, "negative-control", body)


def test_acceptance_10_determinism(capsys, tmp_path):
    def body():
        blobs = {}
        for threads in ("1", "2", "3"):
            csv_p = tmp_path / f"t{threads}.csv"
            jsonl_p = tmp_path / f"t{threads}.jsonl"
            code = (
                "from howe5.cli import main\n"
                "import sys\n"
                "sys.exit(main(['search', '--target', 'maximal-fp2',"
                f" '--p-min', '11', '--p-max', '11', '--seed', '7',"
                f" '--max-hits', '40', '--max-candidates', '1000000',"
                f" '--out', {str(csv_p)!r}, '--jsonl', {str(jsonl_p)!r},"
                " '--quiet']))\n"
            )
            # the child imports howe5 from the same tree as this process
            pythonpath = os.pathsep.join(
                filter(None, [SRC_DIR, os.environ.get("PYTHONPATH")]))
            env = dict(os.environ, HOWE_THREADS=threads, PYTHONPATH=pythonpath)
            proc = subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            blobs[threads] = (csv_p.read_bytes(), jsonl_p.read_bytes())
        assert blobs["1"] == blobs["2"] == blobs["3"]
        assert blobs["1"][0].startswith(b"p,alpha1,alpha2,")
    _announce(capsys, 10, "determinism", body)
