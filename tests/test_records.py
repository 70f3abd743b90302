"""The contract of the package's record classes: frozen fields stay frozen,
records that are compared or used as cache keys compare and hash by value,
every construction check raises its error class and message, and a record
rebuilt from another one cannot skip those checks.  Residues are plain ints
in [0, p): from_ints reduces any int to one, the constructors refuse any
other value, and validate and the search build no other kind.  Also that
starting the command line imports no module the package has no use for."""

import math
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from howe5 import tables
from howe5.curve_models import CountMethod, HyperellipticModel, PointCount
from howe5.errors import CapExceeded, HasseViolation
from howe5.field_arith import PRIME_CAP, PrimeModulus, is_prime, prime_modulus
from howe5.hasse_serre import LegendreCurve, Target
from howe5.howe_factory import HoweParams, validate
from howe5.search_engine import SearchConfig, run_search

SRC = Path(__file__).resolve().parents[1] / "src"
F11 = prime_modulus(11)
ROW11 = (11, 4, 6, (5, 3, 10, 7, 6, 8), (9, 2))

RECORDS = {
    "HoweParams": (HoweParams.from_ints(*ROW11), "alpha1"),
    "PointCount": (PointCount(11, 12, CountMethod.BRUTE_FORCE, genus=1), "count"),
    "LegendreCurve": (LegendreCurve.from_ints(11, 8, 6), "lam"),
    "SearchConfig": (SearchConfig(11, 13, "maximal-fp2"), "p_max"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_fields_are_read_only(name):
    record, field = RECORDS[name]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))


def test_equal_records_compare_and_hash_equal():
    cfg = SearchConfig(11, 13, "maximal-fp2", max_candidates=100, fixed=[["a1", 0]])
    same = SearchConfig(p_min=11, p_max=13, target=Target.MAXIMAL_FP2, max_candidates=100,
                        fixed=(("a1", 0),))
    assert cfg == same and hash(cfg) == hash(same)
    assert cfg != SearchConfig(11, 13, "maximal-fp2", max_candidates=100, seed=1)
    params = HoweParams.from_ints(*ROW11)
    for again in (HoweParams.from_ints(*ROW11), HoweParams.from_row(params.row())):
        assert again == params and hash(again) == hash(params)
    assert params != HoweParams.from_ints(11, 4, 7, ROW11[3], ROW11[4])


CHECKS = [
    (lambda: PrimeModulus(PRIME_CAP + 7), CapExceeded,
     f"modulus {PRIME_CAP + 7} exceeds the cap {PRIME_CAP}"),
    (lambda: PrimeModulus(15), ValueError, "modulus must be an odd prime, got 15"),
    (lambda: PointCount(11, 30, CountMethod.BRUTE_FORCE, genus=1), HasseViolation,
     "count 30 outside the Hasse-Weil interval for q=11, genus 1"),
    (lambda: HyperellipticModel(F11, 11, (0, 1, 2)), ValueError, "residue 11 lies outside [0, 11)"),
    (lambda: HyperellipticModel(F11, 0, (0, 1, 2)), ValueError, "alpha must be nonzero"),
    (lambda: HyperellipticModel(F11, 1, (0, 1)), ValueError, "need 3..6 roots, got 2"),
    (lambda: HyperellipticModel(F11, 1, (0, 1, -2)), ValueError,
     "residue -2 lies outside [0, 11)"),
    (lambda: HyperellipticModel(F11, 1, (0, 1, 1)), ValueError, "roots must be pairwise distinct"),
    (lambda: LegendreCurve(F11, 12, 5), ValueError, "residue 12 lies outside [0, 11)"),
    (lambda: LegendreCurve(F11, 1, -6), ValueError, "residue -6 lies outside [0, 11)"),
    (lambda: LegendreCurve(F11, 0, 5), ValueError, "theta must be nonzero"),
    (lambda: LegendreCurve.from_ints(11, 1, 12), ValueError, "lambda must avoid 0 and 1, got 1"),
    (lambda: HoweParams(F11, 1, 1, (0, 1, 2, 3, 4), (5, 6)), ValueError,
     "need six a-values and two b-values"),
    (lambda: HoweParams(F11, 1, 13, (0, 1, 2, 3, 4, 5), (6, 7)), ValueError,
     "residue 13 lies outside [0, 11)"),
    (lambda: SearchConfig(17, 31, "maximal-fp5"), ValueError,
     "'maximal-fp5' is not a valid Target"),
    (lambda: SearchConfig(17, 31, "serre-fp", fixed=(1, 2)), ValueError,
     "fixed must hold (slot, value) pairs, got (1, 2)"),
    (lambda: SearchConfig(17.0, 31, "serre-fp"), ValueError, "parameters must be integers, got 17.0"),
    (lambda: SearchConfig(17, 31, "serre-fp", seed=True), ValueError,
     "parameters must be integers, got True"),
    (lambda: SearchConfig(31, 17, "serre-fp"), ValueError, "empty prime range [31, 17]"),
    (lambda: SearchConfig(17, PRIME_CAP, "serre-fp"), ValueError,
     f"p_max must be below {PRIME_CAP}, got {PRIME_CAP}"),
    (lambda: SearchConfig(11, 31, "serre-fp"), ValueError,
     "target serre-fp needs p >= 17, got p_min=11"),
    (lambda: SearchConfig(17, 31, "serre-fp", fixed=(("a6", 2),)), ValueError,
     "cannot pin slot 'a6'"),
    (lambda: SearchConfig(17, 31, "serre-fp", fixed=(("a1", 2), ("a1", 3))), ValueError,
     "slot 'a1' is pinned more than once"),
    (lambda: SearchConfig(17, 31, "serre-fp", time_budget="1"), ValueError,
     "time_budget must be a number of seconds, got '1'"),
    (lambda: SearchConfig(17, 31, "serre-fp", max_candidates=0), ValueError,
     "max_candidates must be at least 1, got 0"),
    (lambda: SearchConfig(17, 31, "serre-fp", max_hits=-1), ValueError,
     "max_hits must be at least 1, got -1"),
    (lambda: SearchConfig(17, 31, "serre-fp", time_budget=math.nan), ValueError,
     "time_budget must be at least 0, got nan"),
]


@pytest.mark.parametrize("build, error, message", CHECKS, ids=[m for _, _, m in CHECKS])
def test_construction_checks_raise_their_error_and_message(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as excinfo:
        build()
    assert excinfo.type is error


# a checked record and a change to it that its checks refuse
REBUILDS = {
    "PrimeModulus": (F11, {"p": 15}, ValueError),
    "PointCount": (RECORDS["PointCount"][0], {"count": 30}, HasseViolation),
    "HyperellipticModel": (HyperellipticModel.from_ints(11, 1, (0, 1, 2)), {"alpha": 0},
                           ValueError),
    "LegendreCurve": (RECORDS["LegendreCurve"][0], {"lam": 1}, ValueError),
    "HoweParams": (RECORDS["HoweParams"][0], {"b": (1,)}, ValueError),
    "SearchConfig": (SearchConfig(17, 31, "serre-fp"), {"p_min": 41}, ValueError),
}


@pytest.mark.parametrize("name", REBUILDS)
def test_replace_rechecks_or_is_absent(name):
    """A record that checks its arguments either has no _replace or checks
    the replaced record too."""
    record, change, error = REBUILDS[name]
    replace = getattr(record, "_replace", None)
    if replace is not None:
        with pytest.raises(error):
            replace(**change)


def test_replace_keeps_the_normal_form():
    cfg = SearchConfig(17, 31, "serre-fp")
    replace = getattr(cfg, "_replace", None)
    if replace is not None:
        again = replace(target="maximal-fp2", fixed=[["a1", 0]])
        assert again == SearchConfig(17, 31, Target.MAXIMAL_FP2, fixed=(("a1", 0),))
        assert again.target is Target.MAXIMAL_FP2 and again.fixed == (("a1", 0),)


_PRIMES = [p for p in range(3, 300) if is_prime(p)]


def _howe_params(draw, p):
    r = st.integers(0, p - 1)
    return HoweParams, (draw(r), draw(r), tuple(draw(r) for _ in range(6)),
                        tuple(draw(r) for _ in range(2)))


def _legendre_curve(draw, p):
    return LegendreCurve, (draw(st.integers(1, p - 1)), draw(st.integers(2, p - 1)))


def _hyperelliptic_model(draw, p):
    roots = draw(st.lists(st.integers(0, p - 1), min_size=3, max_size=min(6, p), unique=True))
    return HyperellipticModel, (draw(st.integers(1, p - 1)), tuple(roots))


# per record with residues, a draw of its class and its fields past mod
RESIDUE_RECORDS = {"HoweParams": _howe_params, "LegendreCurve": _legendre_curve,
                   "HyperellipticModel": _hyperelliptic_model}


@pytest.mark.parametrize("name", RESIDUE_RECORDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_from_ints_reduces_every_value_mod_p(name, data):
    """from_ints of residues each shifted by a random multiple of p,
    negatives included, equals and hashes like the record of the residues."""
    p = data.draw(st.sampled_from(_PRIMES))
    cls, fields = RESIDUE_RECORDS[name](data.draw, p)

    def shift(v):
        return v + p * data.draw(st.integers(-10 ** 6, 10 ** 6))

    shifted = [tuple(map(shift, f)) if isinstance(f, tuple) else shift(f) for f in fields]
    record, reduced = cls.from_ints(p, *shifted), cls(prime_modulus(p), *fields)
    assert record == reduced and hash(record) == hash(reduced)


@pytest.mark.parametrize("name", RESIDUE_RECORDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_residues_outside_the_range_are_refused(name, data):
    """The constructor, and _replace through _make, raise ValueError naming
    a residue moved out of [0, p) by a nonzero multiple of p."""
    p = data.draw(st.sampled_from(_PRIMES))
    cls, fields = RESIDUE_RECORDS[name](data.draw, p)
    record = cls(prime_modulus(p), *fields)
    i = data.draw(st.integers(0, len(fields) - 1))
    bad = list(fields[i]) if isinstance(fields[i], tuple) else [fields[i]]
    j = data.draw(st.integers(0, len(bad) - 1))
    bad[j] += p * data.draw(st.integers(-10 ** 6, 10 ** 6).filter(bool))
    changed = tuple(bad) if isinstance(fields[i], tuple) else bad[0]
    message = f"^{re.escape(f'residue {bad[j]} lies outside [0, {p})')}$"
    with pytest.raises(ValueError, match=message):
        cls(prime_modulus(p), *fields[:i], changed, *fields[i + 1:])
    with pytest.raises(ValueError, match=message):
        record._replace(**{record._fields[i + 1]: changed})


def _residues(params):
    """Every residue of params and of validate's result for it, and every
    int validate reports with it."""
    res = validate(params)
    split = res.split
    yield from params.row()
    yield from (split.a, split.b, split.c, split.beta1, split.beta2)
    for E in split.curves:
        yield from (E.theta, E.lam, E.hasse)
    yield from res.info.values()


def test_validate_and_search_build_only_plain_ints():
    """No numpy or other int type reaches a record: the JSON writer refuses
    any value whose type is not exactly int."""
    rows = [params for n in (1, 2, 3) for params in tables.load_table(n)]
    hits, _ = run_search(SearchConfig(3, 23, "maximal-fp2", max_candidates=2000, seed=1))
    assert len(rows) == 25 and hits
    for params in rows + [hit.params for hit in hits]:
        assert {type(x) for x in _residues(params)} == {int}, params.row()
    assert {type(n) for hit in hits for n in hit.counts.values()} == {int}


def test_start_up_imports_no_record_machinery():
    """After numpy, importing the command line and loading the bundled
    tables brings in neither dataclasses nor copy, whose only use would be
    to generate record methods at every start."""
    script = (
        f"import sys; sys.path.insert(0, {str(SRC)!r})\n"
        "import numpy\n"
        "before = set(sys.modules)\n"
        "import howe5.cli\n"
        "from howe5 import tables\n"
        "for n in (1, 2, 3): tables.load_table(n)\n"
        "print(' '.join(sorted({'dataclasses', 'copy'} & (set(sys.modules) - before))))\n"
    )
    out = subprocess.run([sys.executable, "-I", "-c", script], capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.split() == []
