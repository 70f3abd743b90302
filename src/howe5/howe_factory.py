"""Genus-5 fibre products of two hyperelliptic curves, their splitting into
five twisted Legendre curves, and the bound verdicts for the result.

Parameters are two twist scalars alpha1, alpha2 and eight branch points
a1..a6, b5, b6 in F_p.  The three quotient curves are

    C1: y^2 = alpha1 (x-a1)..(x-a6)
    C2: y^2 = alpha2 (x-a1)..(x-a4)(x-b5)(x-b6)
    C3: y^2 = alpha1 alpha2 (x-a5)(x-a6)(x-b5)(x-b6)

and #C(F_q) = #C1 + #C2 + #C3 - 2q - 2 = sum #E_i - 4q - 4 once C1 and C2
split further into Legendre pairs and C3 is put in Legendre form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import curve_models, hasse_serre
from .curve_models import CountMethod, HyperellipticModel, PointCount
from .errors import (
    ConditionFailed,
    CrossRatioFailed,
    DecompositionMismatch,
    Degenerate,
    DegenerateLambda,
    DivisionByZero,
    NonResidue,
    NonSquareObstruction,
    HypothesisViolated,
)
from .field_arith import FieldElement, PrimeModulus, legendre_symbol, prime_modulus, sqrt_mod_p
from .hasse_serre import LegendreCurve, TraceSequence


def genus_of_howe(g1: int, g2: int, r: int) -> int:
    """Genus of a fibre product of hyperelliptic curves of genus g1 <= g2
    whose branch loci share exactly r points."""
    if not 0 < g1 <= g2:
        raise ValueError(f"need 0 < g1 <= g2, got ({g1}, {g2})")
    if not 0 <= r <= 2 * g1 + 2:
        raise ValueError(f"need 0 <= r <= 2*g1 + 2, got r={r}")
    return 2 * (g1 + g2) + 1 - r


def is_hyperelliptic_howe(g1: int, g2: int, r: int) -> bool:
    """Whether the fibre product is itself hyperelliptic; decided by r alone.
    Only meaningful for genus >= 4."""
    g = genus_of_howe(g1, g2, r)
    if g < 4:
        raise HypothesisViolated(f"criterion needs genus >= 4, got {g}")
    return r == g1 + g2 + 1


@dataclass(frozen=True)
class HoweParams:
    """Raw construction data; use validate() to certify it."""

    mod: PrimeModulus
    alpha1: FieldElement
    alpha2: FieldElement
    a: tuple[FieldElement, ...]
    b: tuple[FieldElement, ...]

    def __post_init__(self) -> None:
        if len(self.a) != 6 or len(self.b) != 2:
            raise ValueError("need six a-values and two b-values")
        for x in (self.alpha1, self.alpha2, *self.a, *self.b):
            if x.mod.p != self.mod.p:
                raise ValueError("value has the wrong modulus")

    @classmethod
    def from_ints(cls, p: int, alpha1: int, alpha2: int, a, b) -> "HoweParams":
        mod = prime_modulus(p)
        return cls(
            mod=mod,
            alpha1=mod(alpha1),
            alpha2=mod(alpha2),
            a=tuple(mod(x) for x in a),
            b=tuple(mod(x) for x in b),
        )

    def row(self) -> tuple[int, ...]:
        """(p, alpha1, alpha2, a1..a6, b5, b6) as plain ints."""
        return (
            self.mod.p,
            self.alpha1.value,
            self.alpha2.value,
            *(x.value for x in self.a),
            *(x.value for x in self.b),
        )

    @classmethod
    def from_row(cls, row) -> "HoweParams":
        vals = [int(x) for x in row]
        if len(vals) != 11:
            raise ValueError(f"need 11 values per row, got {len(vals)}")
        return cls.from_ints(vals[0], vals[1], vals[2], vals[3:9], vals[9:11])


@dataclass(frozen=True)
class SplitData:
    """Cross-ratios and the five Legendre parameters of a decomposition."""

    a: FieldElement
    b: FieldElement
    c: FieldElement
    beta1: FieldElement
    beta2: FieldElement
    theta: tuple[FieldElement, ...]
    lam: tuple[FieldElement, ...]


@dataclass(frozen=True)
class Violation:
    code: str
    detail: str


_VIOLATION_CLASSES = {
    "Degenerate": Degenerate,
    "CrossRatioFailed": CrossRatioFailed,
    "NonSquareObstruction": NonSquareObstruction,
    "DegenerateLambda": DegenerateLambda,
}


@dataclass
class ValidationResult:
    """Every violation found, square-class diagnostics, and, once the
    distinctness and square conditions hold, the split data."""

    params: HoweParams
    violations: list[Violation] = field(default_factory=list)
    info: dict = field(default_factory=dict)
    split: SplitData | None = None

    @property
    def ok(self) -> bool:
        return not self.violations

    def raise_if_invalid(self) -> None:
        if self.violations:
            v = self.violations[0]
            raise _VIOLATION_CLASSES[v.code](v.detail)


def _cross_ratio(x1: FieldElement, x2: FieldElement, x3: FieldElement, x4: FieldElement) -> FieldElement:
    den = (x2 - x3) * (x1 - x4)
    if den.value == 0:
        raise DivisionByZero("cross-ratio with coincident points")
    return (x1 - x3) * (x2 - x4) / den


def _split_pair(
    theta: FieldElement, lam: FieldElement, mu: FieldElement
) -> tuple[FieldElement, FieldElement, FieldElement]:
    """Twist and the two Legendre parameters of the elliptic quotients of
    s^2 = theta t (t - 1) (t - lam) (t - mu) ... in cross-ratio form.

    Returns (theta', lam_plus, lam_minus) where the plus branch uses the
    canonical square root of lam (lam - mu).
    """
    if lam.value == 1 or mu.value == 1:
        raise DivisionByZero("degenerate cross-ratio position")
    disc = lam * (lam - mu)
    if disc.value == 0 or legendre_symbol(disc) != 1:
        raise NonResidue(f"lam(lam - mu) = {disc.value} is not a nonzero square")
    s = sqrt_mod_p(disc)
    tw = theta * (1 - mu) / (1 - lam)
    pref = (1 - lam) / (mu - 1)
    lam_plus = pref * (mu - 2 * lam + 2 * s)
    lam_minus = pref * (mu - 2 * lam - 2 * s)
    return tw, lam_plus, lam_minus


def split_genus2(model: HyperellipticModel) -> tuple[LegendreCurve, LegendreCurve]:
    """Split a genus-2 sextic model whose roots satisfy the compatibility
    condition into its two elliptic quotients, in Legendre form."""
    if model.degree != 6:
        raise ValueError("splitting needs a sextic model")
    r1, r2, r3, r4, r5, r6 = model.roots
    lhs = (r2 - r4) * (r1 - r6) * (r3 - r5)
    rhs = (r2 - r6) * (r1 - r5) * (r3 - r4)
    if lhs != rhs:
        raise ConditionFailed(
            f"root tuple fails the splitting condition: {lhs.value} != {rhs.value}"
        )
    lam = _cross_ratio(r1, r2, r3, r4)
    mu = _cross_ratio(r1, r2, r3, r5)
    theta = model.alpha * (r2 - r3) * (r1 - r4) * (r1 - r5) * (r1 - r6)
    tw, lam_plus, lam_minus = _split_pair(theta, lam, mu)
    try:
        e_plus = LegendreCurve(model.mod, tw, lam_plus)
        e_minus = LegendreCurve(model.mod, tw, lam_minus)
    except ValueError as exc:
        raise DegenerateLambda(str(exc)) from exc
    return e_plus, e_minus


def _quartet(w: FieldElement, x: FieldElement, y: FieldElement, z: FieldElement) -> FieldElement:
    return (w - x) * (x - y) * (y - z) * (z - w)


def validate(params: HoweParams) -> ValidationResult:
    """Check every construction invariant; returns all violations found.

    A passing result certifies: eight pairwise-distinct branch points and
    nonzero twists, both cross-ratio compatibility conditions, the two
    square conditions the splitting needs, and nondegenerate Legendre
    parameters for all five factors.
    """
    res = ValidationResult(params=params)
    a1, a2, a3, a4, a5, a6 = params.a
    b5, b6 = params.b

    if params.alpha1.value == 0 or params.alpha2.value == 0:
        res.violations.append(Violation("Degenerate", "twist scalar is zero"))
    points = [a1, a2, a3, a4, a5, a6, b5, b6]
    names = ["a1", "a2", "a3", "a4", "a5", "a6", "b5", "b6"]
    seen: dict[int, str] = {}
    for name, x in zip(names, points):
        if x.value in seen:
            res.violations.append(
                Violation("Degenerate", f"{seen[x.value]} = {name} = {x.value}")
            )
        else:
            seen[x.value] = name
    if res.violations:
        return res

    lhs1 = (a2 - a4) * (a1 - a6) * (a3 - a5)
    rhs1 = (a2 - a6) * (a1 - a5) * (a3 - a4)
    if lhs1 != rhs1:
        res.violations.append(
            Violation("CrossRatioFailed", "a-tuple compatibility condition fails")
        )
    lhs2 = (a2 - a4) * (a1 - b6) * (a3 - b5)
    rhs2 = (a2 - b6) * (a1 - b5) * (a3 - a4)
    if lhs2 != rhs2:
        res.violations.append(
            Violation("CrossRatioFailed", "b-tuple compatibility condition fails")
        )

    a = _cross_ratio(a1, a2, a3, a4)
    b = _cross_ratio(a1, a2, a3, a5)
    c = _cross_ratio(a1, a2, a3, b5)
    chi_ab = legendre_symbol(a * (a - b))
    chi_ac = legendre_symbol(a * (a - c))

    # Square certificates in root form: for any distinct points, a(a - b)
    # is the quartet a1a2a4a5 times a square, and a(a - c) the quartet
    # a1a2a4b5 times a square.
    p45 = _quartet(a1, a2, a4, a5)
    p4b5 = _quartet(a1, a2, a4, b5)
    res.info = {
        "chi_a_ab": chi_ab,
        "chi_a_ac": chi_ac,
        "product_a4_a5": p45.value,
        "chi_product_a4_a5": legendre_symbol(p45),
        "product_a4_b5": p4b5.value,
        "chi_product_a4_b5": legendre_symbol(p4b5),
    }

    if chi_ab != 1:
        res.violations.append(
            Violation(
                "NonSquareObstruction",
                f"a(a - b) = {(a * (a - b)).value} is not a nonzero square",
            )
        )
    if chi_ac != 1:
        res.violations.append(
            Violation(
                "NonSquareObstruction",
                f"a(a - c) = {(a * (a - c)).value} is not a nonzero square",
            )
        )
    if not res.ok:
        return res

    res.split = split = _split_data(params)
    for i, (th, lm) in enumerate(zip(split.theta, split.lam), start=1):
        if th.value == 0:
            res.violations.append(Violation("DegenerateLambda", f"theta_{i} = 0"))
        if lm.value in (0, 1):
            res.violations.append(
                Violation("DegenerateLambda", f"lambda_{i} = {lm.value}")
            )
    return res


def _split_data(params: HoweParams) -> SplitData:
    """The five (theta_i, lambda_i); assumes distinctness and squareness hold."""
    a1, a2, a3, a4, a5, a6 = params.a
    b5, b6 = params.b
    a = _cross_ratio(a1, a2, a3, a4)
    b = _cross_ratio(a1, a2, a3, a5)
    c = _cross_ratio(a1, a2, a3, b5)
    beta1 = params.alpha1 * (a2 - a3) * (a1 - a4) * (a1 - a5) * (a1 - a6)
    beta2 = params.alpha2 * (a2 - a3) * (a1 - a4) * (a1 - b5) * (a1 - b6)
    th12, l1, l2 = _split_pair(beta1, a, b)
    th34, l3, l4 = _split_pair(beta2, a, c)
    th5 = params.alpha1 * params.alpha2 * (a5 - b6) * (a6 - b5)
    l5 = (a5 - b5) * (a6 - b6) / ((a5 - b6) * (a6 - b5))
    return SplitData(
        a=a,
        b=b,
        c=c,
        beta1=beta1,
        beta2=beta2,
        theta=(th12, th12, th34, th34, th5),
        lam=(l1, l2, l3, l4, l5),
    )


def decompose_genus5(
    params: HoweParams, validation: ValidationResult | None = None
) -> tuple[SplitData, tuple[LegendreCurve, ...]]:
    """Validate and split; the five factors come back in pair order, with the
    canonical-root branch first within each pair.  A caller that already
    holds validate(params) passes it to skip validating again."""
    if validation is None:
        validation = validate(params)
    validation.raise_if_invalid()
    split = validation.split
    curves = tuple(
        LegendreCurve(params.mod, th, lm) for th, lm in zip(split.theta, split.lam)
    )
    return split, curves


def howe_models(params: HoweParams) -> tuple[HyperellipticModel, ...]:
    """The three quotient models C1, C2, C3."""
    a1, a2, a3, a4, a5, a6 = params.a
    b5, b6 = params.b
    c1 = HyperellipticModel(params.mod, params.alpha1, (a1, a2, a3, a4, a5, a6))
    c2 = HyperellipticModel(params.mod, params.alpha2, (a1, a2, a3, a4, b5, b6))
    c3 = HyperellipticModel(
        params.mod, params.alpha1 * params.alpha2, (a5, a6, b5, b6)
    )
    return c1, c2, c3


def direct_counts(params: HoweParams, j: int) -> tuple[int, int, int, int]:
    """Oracle: (#C1, #C2, #C3, #C) over F_{p^j} from brute-force counts of
    the three quotient models, using neither the factors nor a lift.  Subject
    to the direct-counting cap."""
    q = params.mod.p ** j
    c1, c2, c3 = (curve_models.count_points(m, j).count for m in howe_models(params))
    return c1, c2, c3, c1 + c2 + c3 - 2 * q - 2


@dataclass(frozen=True)
class HoweCounts:
    """Counts of the quotients, the factors, and the genus-5 curve over F_q."""

    q: int
    j: int
    c1: int
    c2: int
    c3: int
    e: tuple[int, int, int, int, int]
    total: int

    def lift(self, j: int) -> "HoweCounts":
        """The counts over F_{p^j} implied by these counts over F_p.  The
        Jacobian of C_i is isogenous over F_p to the product of its factors,
        so every quotient count follows from the factors' traces."""
        if self.j != 1:
            raise ValueError("only counts over F_p can be lifted")
        q = self.q ** j
        e = tuple(TraceSequence.from_count(self.q, n).count(j) for n in self.e)
        return HoweCounts(
            q=q,
            j=j,
            c1=e[0] + e[1] - q - 1,
            c2=e[2] + e[3] - q - 1,
            c3=e[4],
            e=e,
            total=sum(e) - 4 * q - 4,
        )


def howe_counts(
    params: HoweParams, j: int = 1, curves: tuple[LegendreCurve, ...] | None = None
) -> HoweCounts:
    """Counts over F_{p^j}.  The three quotients and five factors are counted
    over F_p, each quotient is checked against its factors, and the counts
    over F_{p^j} are lifted from the factors' traces.  curves, the factors
    from decompose_genus5(params), skips decomposing again."""
    if curves is None:
        _, curves = decompose_genus5(params)
    p = params.mod.p
    n_c = tuple(curve_models.count_points(m, 1).count for m in howe_models(params))
    n_e = tuple(curve_models.count_points(E.model(), 1).count for E in curves)
    from_factors = (n_e[0] + n_e[1] - p - 1, n_e[2] + n_e[3] - p - 1, n_e[4])
    if n_c != from_factors:
        raise DecompositionMismatch(
            f"quotient counts {n_c} over F_{p} disagree with the factor "
            f"counts {from_factors}"
        )
    c1, c2, c3 = n_c
    base = HoweCounts(q=p, j=1, c1=c1, c2=c2, c3=c3, e=n_e, total=c1 + c2 + c3 - 2 * p - 2)
    return base if j == 1 else base.lift(j)


def howe_point_count(params: HoweParams, j: int = 1) -> PointCount:
    """#C(F_{p^j}) via the decomposition, with both formulas cross-checked."""
    counts = howe_counts(params, j)
    return PointCount(
        q=counts.q, count=counts.total, method=CountMethod.DECOMPOSITION, genus=5
    )


@dataclass(frozen=True)
class VerdictRecord:
    """Bound verdicts for one parameter set.  serre_fp and serre_fp3 are None
    when p is below the threshold of the deciding congruence."""

    serre_fp: bool | None
    maximal_fp2: bool
    serre_fp3: bool | None
    serre_fp_each: tuple[bool, ...] | None
    maximal_fp2_each: tuple[bool, ...]
    serre_fp3_each: tuple[bool, ...] | None
    count_mod4_ok: bool
    p_mod4: int

    def to_dict(self) -> dict:
        return {
            "serre_fp": self.serre_fp,
            "maximal_fp2": self.maximal_fp2,
            "serre_fp3": self.serre_fp3,
            "count_mod4_ok": self.count_mod4_ok,
            "p_mod4": self.p_mod4,
        }


def serre_verdicts(
    params: HoweParams,
    curves: tuple[LegendreCurve, ...] | None = None,
    counts: HoweCounts | None = None,
) -> VerdictRecord:
    """Congruence verdicts for all five factors, plus the mandatory mod-4
    sanity of the genus-5 count over F_p.  curves and counts, the factors and
    howe_counts(params, 1), skip validating and counting again."""
    if curves is None:
        _, curves = decompose_genus5(params)
    if counts is None:
        counts = howe_counts(params, 1, curves)
    p = params.mod.p

    if p >= hasse_serre.SERRE_FP_MIN_PRIME:
        fp_each = tuple(hasse_serre.attains_serre_fp(E) for E in curves)
        fp = all(fp_each)
    else:
        fp_each, fp = None, None
    fp2_each = tuple(hasse_serre.maximal_fp2(E) for E in curves)
    if p >= hasse_serre.SERRE_FP3_MIN_PRIME:
        fp3_each = tuple(hasse_serre.attains_serre_fp3(E) for E in curves)
        fp3 = all(fp3_each)
    else:
        fp3_each, fp3 = None, None

    return VerdictRecord(
        serre_fp=fp,
        maximal_fp2=all(fp2_each),
        serre_fp3=fp3,
        serre_fp_each=fp_each,
        maximal_fp2_each=fp2_each,
        serre_fp3_each=fp3_each,
        count_mod4_ok=counts.total % 4 == 0,
        p_mod4=p % 4,
    )


@dataclass
class DecompositionReport:
    params: HoweParams
    split: SplitData
    factors: tuple[LegendreCurve, ...]
    counts: dict[int, HoweCounts]
    verdicts: VerdictRecord
    validation: ValidationResult

    @classmethod
    def build(cls, params: HoweParams, exts: tuple[int, ...] = (1,)) -> "DecompositionReport":
        vr = validate(params)
        split, curves = decompose_genus5(params, vr)
        base = howe_counts(params, 1, curves)
        return cls(
            params=params,
            split=split,
            factors=curves,
            counts={j: base.lift(j) for j in exts},
            verdicts=serre_verdicts(params, curves, base),
            validation=vr,
        )

    def to_json_dict(self) -> dict:
        row = self.params.row()
        return {
            "p": row[0],
            "alpha1": row[1],
            "alpha2": row[2],
            "a": list(row[3:9]),
            "b": list(row[9:11]),
            "factors": [
                {"theta": E.theta.value, "lambda": E.lam.value} for E in self.factors
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
            "verdicts": self.verdicts.to_dict(),
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
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


def params_from_json_dict(d: dict) -> HoweParams:
    """Rebuild parameters from a report dict; extra keys are ignored."""
    return HoweParams.from_ints(
        int(d["p"]), int(d["alpha1"]), int(d["alpha2"]), d["a"], d["b"]
    )
