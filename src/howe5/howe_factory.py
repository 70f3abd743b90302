"""Genus-5 fibre products of two hyperelliptic curves, their splitting into
five twisted Legendre curves, and the bound verdicts for the result.

Parameters are two twist scalars alpha1, alpha2 and eight branch points
a1..a6, b5, b6 in F_p.  The three quotient curves are

    C1: y^2 = alpha1 (x-a1)..(x-a6)
    C2: y^2 = alpha2 (x-a1)..(x-a4)(x-b5)(x-b6)
    C3: y^2 = alpha1 alpha2 (x-a5)(x-a6)(x-b5)(x-b6)

and #C(F_q) = #C1 + #C2 + #C3 - 2q - 2 = sum #E_i - 4q - 4 once C1 and C2
split further into Legendre pairs and C3 is put in Legendre form.

Every record holds its residues as ints in [0, p).  validate checks a
parameter set on them, reading the quadratic character and square roots
from the residue tables, and returns the split, whose five Hasse residues
it evaluates in one pass (hasse_residues).  howe_counts reads the five
factor counts over F_p off the factors' Hasse residues (exact_trace) and
checks them against the three quotients; the direct_counts oracle counts
these too.  Both read the layout above in _quotient_counts alone: C1 and
C2 share S = a1..a4, and C3 is exactly A = (a5, a6) and B = (b5, b6), so
curve_models.count_quotients counts the three from shared character rows.
validate_many and howe_counts_many do the same for any number of parameter
sets at one prime, each set checked on its own, with one Hasse gather for
all their factors and one character-sum pass for all their quotients;
validate and howe_counts are their case of one set, and the search
confirms its candidates through them.
"""

from __future__ import annotations

from collections import namedtuple
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from . import curve_models
from .errors import (
    CrossRatioFailed,
    DecompositionMismatch,
    Degenerate,
    NonSquareObstruction,
    ValidationError,
)
from .field_arith import (
    CheckedRecord, PrimeModulus, prime_modulus, require_ints, require_residues, residue_tables,
)
from .hasse_serre import LegendreCurve, Target, exact_trace, hasse_residues, zeta_lift


class HoweParams(CheckedRecord, namedtuple("HoweParams", "mod alpha1 alpha2 a b")):
    """Raw construction data, residues mod p; use validate() to certify it."""

    __slots__ = ()

    def __new__(cls, mod: PrimeModulus, alpha1: int, alpha2: int,
                a: tuple[int, ...], b: tuple[int, ...]) -> "HoweParams":
        if len(a) != 6 or len(b) != 2:
            raise ValueError("need six a-values and two b-values")
        require_residues(mod.p, alpha1, alpha2, *a, *b)
        return tuple.__new__(cls, (mod, alpha1, alpha2, a, b))

    @classmethod
    def from_ints(cls, p: int, alpha1: int, alpha2: int, a, b) -> "HoweParams":
        """The parameters with these values reduced mod p; ValueError names
        an operand that is not an int."""
        a, b = tuple(a), tuple(b)
        require_ints(p, alpha1, alpha2, *a, *b)
        return cls(prime_modulus(p), alpha1 % p, alpha2 % p,
                   tuple(x % p for x in a), tuple(x % p for x in b))

    def row(self) -> tuple[int, ...]:
        """(p, alpha1, alpha2, a1..a6, b5, b6)."""
        return (self.mod.p, self.alpha1, self.alpha2, *self.a, *self.b)

    @classmethod
    def from_row(cls, row) -> "HoweParams":
        vals = [int(x) for x in row]
        if len(vals) != 11:
            raise ValueError(f"need 11 values per row, got {len(vals)}")
        return cls.from_ints(vals[0], vals[1], vals[2], vals[3:9], vals[9:11])

    def to_json_dict(self) -> dict:
        """The JSON layout of a parameter set: p, alpha1, alpha2, a and b."""
        return {
            "p": self.mod.p,
            "alpha1": self.alpha1,
            "alpha2": self.alpha2,
            "a": list(self.a),
            "b": list(self.b),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "HoweParams":
        """Rebuild parameters from to_json_dict's layout; extra keys, such as
        a report's, are ignored.  ValueError names a missing key or a bad shape."""
        try:
            p, alpha1, alpha2, a, b = (d[k] for k in ("p", "alpha1", "alpha2", "a", "b"))
            if not all(isinstance(v, int) for v in (p, alpha1, alpha2, *a, *b)):
                raise TypeError
        except KeyError as exc:
            raise ValueError(f"parameters lack the key {exc}") from None
        except TypeError:
            raise ValueError("parameters must be a JSON object with integers p, alpha1, "
                             "alpha2 and integer lists a, b") from None
        return cls.from_ints(p, alpha1, alpha2, a, b)


class SplitData(NamedTuple):
    """The validated decomposition of params: the cross-ratios a, b, c, the
    pair twists beta1, beta2, and the five Legendre factors in pair order,
    with the canonical-root branch first within each pair."""

    params: HoweParams
    a: int
    b: int
    c: int
    beta1: int
    beta2: int
    curves: tuple[LegendreCurve, ...]


class Violation(NamedTuple):
    """A failed invariant: error, the class raise_if_invalid raises for it,
    and detail; code, the class name, is the violation's JSON code."""

    error: type[ValidationError]
    detail: str

    @property
    def code(self) -> str:
        return self.error.__name__


class ValidationResult:
    """Every violation found, square-class diagnostics, and, when there is
    no violation, the decomposition; split is None otherwise.  validate
    fills it in."""

    __slots__ = ("params", "violations", "info", "split")

    def __init__(self, params: HoweParams) -> None:
        self.params = params
        self.violations: list[Violation] = []
        self.info: dict = {}
        self.split: SplitData | None = None

    @property
    def ok(self) -> bool:
        return not self.violations

    def raise_if_invalid(self) -> None:
        if self.violations:
            v = self.violations[0]
            raise v.error(v.detail)


def _split_pair(p: int, theta: int, lam: int, mu: int) -> tuple[int, int, int]:
    """Twist and the two Legendre parameters of the elliptic quotients of
    s^2 = theta t (t - 1) (t - lam) (t - mu) ... in cross-ratio form, as
    residues mod p.

    Returns (theta', lam_plus, lam_minus) where the plus branch uses the
    canonical square root of lam (lam - mu), which the caller has checked is
    a nonzero square.
    """
    s = int(residue_tables(p).sqrt[lam * (lam - mu) % p])
    tw = theta * (1 - mu) * pow(1 - lam, -1, p) % p
    pref = (1 - lam) * pow(mu - 1, -1, p)
    return tw, pref * (mu - 2 * lam + 2 * s) % p, pref * (mu - 2 * lam - 2 * s) % p


def validate(params: HoweParams) -> ValidationResult:
    """Check every construction invariant; returns all violations found.

    A passing result certifies eight pairwise-distinct branch points,
    nonzero twists, both cross-ratio compatibility conditions and the two
    square conditions.  Exactly the passing results have a split, since
    these checks leave no factor degenerate:
    - every theta is a product of nonzero twists and root differences;
    - a, b, c avoid 0 and 1, so no denominator vanishes;
    - lambda5 in {0, 1} needs a5 = b5, a6 = b6, a5 = a6 or b5 = b6;
    - lambda+- = 0 in the pair (a, b) needs b = 0, that is a5 = a2;
    - (1 - lambda+)(1 - lambda-)(b - 1)^2 = (ab - 2a + 1)^2 vanishes only at
      d = a(1 - b)/(1 - a) = 1, and d = cr(a1, a2, a3, a6) by the a-tuple
      condition, so that needs a6 = a3; in the pair (a, c) it needs b6 = a3.
    LegendreCurve keeps its own check as a backstop.  The checks run on the
    residues mod p, and the split's five factors' Hasse residues are
    evaluated together and stored as each curve's hasse.  This is
    validate_many of one parameter set.
    """
    return validate_many([params])[0]


def validate_many(batch) -> list[ValidationResult]:
    """validate of each parameter set of batch, all at one prime (ValueError
    otherwise).  Each set is checked on its own, as validate describes, and
    the Hasse residues of the five factors of every passing set come from
    one hasse_residues gather."""
    _one_prime(batch)
    results = [_check(params) for params in batch]
    curves = [E for res in results if res.split is not None for E in res.split.curves]
    if curves:
        for E, h in zip(curves, hasse_residues(curves[0].mod.p, [E.lam for E in curves])):
            E.hasse = h
    return results


def _one_prime(batch) -> None:
    if len({params.mod.p for params in batch}) > 1:
        raise ValueError("the parameter sets must share one prime")


def _check(params: HoweParams) -> ValidationResult:
    """validate without the Hasse residues: the split's curves are built but
    their hasse is left for validate_many to store."""
    res = ValidationResult(params=params)
    mod = params.mod
    p = mod.p
    alpha1, alpha2 = params.alpha1, params.alpha2
    points = [*params.a, *params.b]
    a1, a2, a3, a4, a5, a6, b5, b6 = points

    if alpha1 == 0 or alpha2 == 0:
        res.violations.append(Violation(Degenerate, "twist scalar is zero"))
    names = ["a1", "a2", "a3", "a4", "a5", "a6", "b5", "b6"]
    seen: dict[int, str] = {}
    for name, x in zip(names, points):
        if x in seen:
            res.violations.append(Violation(Degenerate, f"{seen[x]} = {name} = {x}"))
        else:
            seen[x] = name
    if res.violations:
        return res

    if ((a2 - a4) * (a1 - a6) * (a3 - a5) - (a2 - a6) * (a1 - a5) * (a3 - a4)) % p:
        res.violations.append(
            Violation(CrossRatioFailed, "a-tuple compatibility condition fails")
        )
    if ((a2 - a4) * (a1 - b6) * (a3 - b5) - (a2 - b6) * (a1 - b5) * (a3 - a4)) % p:
        res.violations.append(
            Violation(CrossRatioFailed, "b-tuple compatibility condition fails")
        )

    # a, b, c = cr(a1, a2, a3, x) = k (a2 - x) / (a1 - x) for x = a4, a5, b5
    k = (a1 - a3) * pow(a2 - a3, -1, p)
    a, b, c = (k * (a2 - x) * pow(a1 - x, -1, p) % p for x in (a4, a5, b5))
    ab, ac = a * (a - b) % p, a * (a - c) % p
    chi = residue_tables(p).chi
    chi_ab, chi_ac = int(chi[ab]), int(chi[ac])

    # Square certificates in root form: for any distinct points, a(a - b)
    # is the quartet a1a2a4a5 times a square, and a(a - c) the quartet
    # a1a2a4b5 times a square.
    p45 = (a1 - a2) * (a2 - a4) * (a4 - a5) * (a5 - a1) % p
    p4b5 = (a1 - a2) * (a2 - a4) * (a4 - b5) * (b5 - a1) % p
    res.info = {
        "chi_a_ab": chi_ab,
        "chi_a_ac": chi_ac,
        "product_a4_a5": p45,
        "chi_product_a4_a5": int(chi[p45]),
        "product_a4_b5": p4b5,
        "chi_product_a4_b5": int(chi[p4b5]),
    }

    for label, value, sign in (("a(a - b)", ab, chi_ab), ("a(a - c)", ac, chi_ac)):
        if sign != 1:
            res.violations.append(
                Violation(NonSquareObstruction, f"{label} = {value} is not a nonzero square")
            )
    if not res.ok:
        return res

    beta1 = alpha1 * (a2 - a3) * (a1 - a4) * (a1 - a5) * (a1 - a6) % p
    beta2 = alpha2 * (a2 - a3) * (a1 - a4) * (a1 - b5) * (a1 - b6) % p
    th12, l1, l2 = _split_pair(p, beta1, a, b)
    th34, l3, l4 = _split_pair(p, beta2, a, c)
    th5 = alpha1 * alpha2 * (a5 - b6) * (a6 - b5) % p
    l5 = (a5 - b5) * (a6 - b6) * pow((a5 - b6) * (a6 - b5), -1, p) % p
    pairs = ((th12, l1), (th12, l2), (th34, l3), (th34, l4), (th5, l5))
    curves = tuple(LegendreCurve(mod, th, lm) for th, lm in pairs)
    res.split = SplitData(params, a, b, c, beta1, beta2, curves)
    return res


def decompose_genus5(params: HoweParams) -> SplitData:
    """Validate and split: the decomposition, or the first violation raised."""
    res = validate(params)
    res.raise_if_invalid()
    return res.split


def _quotient_counts(batch, j: int) -> list[tuple[int, int, int]]:
    """(#C1, #C2, #C3) over F_{p^j} of each parameter set of batch, all at
    one prime, from one curve_models.count_quotients pass.  ValueError for
    two primes, a zero twist or a repeated root."""
    if not batch:
        return []
    _one_prime(batch)
    p = batch[0].mod.p
    counts = curve_models.count_quotients(
        p, j, [(s.alpha1, s.alpha2, s.alpha1 * s.alpha2 % p) for s in batch],
        [s.a[:4] for s in batch], [s.a[4:] for s in batch], [s.b for s in batch])
    return [tuple(pc.count for pc in row) for row in counts]


def direct_counts(params: HoweParams, j: int) -> tuple[int, int, int, int]:
    """Oracle: (#C1, #C2, #C3, #C) over F_{p^j} from brute-force counts of
    the three quotients, using neither the factors nor a lift.  Subject to
    the direct-counting cap."""
    c1, c2, c3 = _quotient_counts([params], j)[0]
    return c1, c2, c3, c1 + c2 + c3 - 2 * params.mod.p ** j - 2


class HoweCounts(NamedTuple):
    """Counts of the quotients, the factors, and the genus-5 curve over F_q."""

    q: int
    j: int
    c1: int
    c2: int
    c3: int
    e: tuple[int, int, int, int, int]
    total: int

    @classmethod
    def from_factors(cls, q: int, j: int, e: tuple[int, ...]) -> "HoweCounts":
        """The counts over F_q, q = p^j, that the factor counts e imply: over
        F_p, Jac C1 ~ E1 x E2, Jac C2 ~ E3 x E4 and C3 = E5."""
        return cls(q=q, j=j, c1=e[0] + e[1] - q - 1, c2=e[2] + e[3] - q - 1, c3=e[4], e=e,
                   total=sum(e) - 4 * q - 4)

    def lift(self, j: int) -> "HoweCounts":
        """The counts over F_{p^j} implied by these counts over F_p: every
        quotient count follows from the factors' traces (from_factors)."""
        if self.j != 1:
            raise ValueError("only counts over F_p can be lifted")
        return HoweCounts.from_factors(self.q ** j, j,
                                       tuple(zeta_lift(n, self.q, j) for n in self.e))


def howe_counts(split: SplitData) -> HoweCounts:
    """Counts over F_p.  The five factor counts are p + 1 - t, t read off
    the factor's Hasse residue (exact_trace); the three quotients are
    counted and must agree with them (DecompositionMismatch).  lift(j)
    gives the counts over F_{p^j}.  This is howe_counts_many of one
    split."""
    return howe_counts_many([split])[0]


def howe_counts_many(splits) -> list[HoweCounts]:
    """howe_counts of each split of splits, all at one prime: the quotients
    of every split are counted over F_p in one pass of the character-sum
    kernel (_quotient_counts), and each split is checked against its factor
    counts in order, the first mismatch raised."""
    out = []
    for split, counted in zip(splits, _quotient_counts([s.params for s in splits], 1)):
        p = split.params.mod.p
        hc = HoweCounts.from_factors(p, 1, tuple(p + 1 - exact_trace(E) for E in split.curves))
        want = hc.c1, hc.c2, hc.c3
        if counted != want:
            raise DecompositionMismatch(f"quotient counts {counted} over F_{p} disagree "
                                        f"with the factor counts {want}")
        out.append(hc)
    return out


class VerdictRecord(NamedTuple):
    """Bound verdicts for one parameter set.  serre_fp and serre_fp3 are None
    when p is below the threshold of the deciding congruence."""

    serre_fp: bool | None
    maximal_fp2: bool
    serre_fp3: bool | None
    count_mod4_ok: bool
    p_mod4: int


class DecompositionReport(NamedTuple):
    """A validated parameter set with its counts over each F_{p^j} asked
    for, keyed by j, and its verdicts; build makes one, or raises the first
    violation, and to_json renders it as a report."""

    validation: ValidationResult
    counts: dict[int, HoweCounts]
    verdicts: VerdictRecord

    @property
    def split(self) -> SplitData:
        return self.validation.split

    @classmethod
    def build(cls, params: HoweParams, exts: tuple[int, ...] = (1,)) -> "DecompositionReport":
        vr = validate(params)
        vr.raise_if_invalid()
        base = howe_counts(vr.split)
        counts = {j: base.lift(j) for j in exts}
        verdicts = VerdictRecord(
            *(target.attained(vr.split.curves) for target in Target),
            count_mod4_ok=base.total % 4 == 0,
            p_mod4=params.mod.p % 4,
        )
        return cls(validation=vr, counts=counts, verdicts=verdicts)

    def to_json_dict(self) -> dict:
        return {
            **self.validation.params.to_json_dict(),
            "factors": [
                {"theta": E.theta, "lambda": E.lam} for E in self.split.curves
            ],
            "counts": {
                str(j): {
                    "q": hc.q,
                    "C1": hc.c1,
                    "C2": hc.c2,
                    "C3": hc.c3,
                    "E": list(hc.e),
                    "C": hc.total,
                }
                for j, hc in sorted(self.counts.items())
            },
            "verdicts": self.verdicts._asdict(),
            "validation": {
                "ok": self.validation.ok,
                "violations": [
                    {"code": v.code, "detail": v.detail}
                    for v in self.validation.violations
                ],
                "info": self.validation.info,
            },
        }

    def to_json(self) -> str:
        return _json_text(self.to_json_dict())


def _json_text(value, indent: str = "\n") -> str:
    """value as json.dumps(value, indent=2, sort_keys=True) writes it, for
    values of exactly the types dict (with str keys), list, int, str, bool
    and None; TypeError for any other.  json.dumps encodes indented output
    with its pure-Python encoder, which this does with fewer calls."""
    kind = type(value)
    if kind is int:
        return repr(value)
    if kind is str:
        return encode_basestring_ascii(value)
    inner = indent + "  "
    if kind is dict:
        if not value:
            return "{}"
        items = [encode_basestring_ascii(k) + ": " + _json_text(value[k], inner)
                 for k in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if kind is list:
        if not value:
            return "[]"
        items = [_json_text(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
