"""Genus-5 twisted Howe curves over prime fields.

Construction of genus-5 fibre products whose Jacobian splits into five
twisted Legendre elliptic curves, congruence predicates deciding Serre-bound
attainment over F_p, F_{p^2}, F_{p^3}, brute-force counting oracles, and a
search engine for parameter tuples.
"""

from .curve_models import (
    COUNT_CAP,
    CountMethod,
    HyperellipticModel,
    PointCount,
    count_points,
    curve_trace,
    weil_interval,
)
from .errors import (
    CapExceeded,
    ConditionFailed,
    CrossRatioFailed,
    DecompositionMismatch,
    Degenerate,
    DegenerateLambda,
    DivisionByZero,
    HasseViolation,
    Howe5Error,
    HypothesisViolated,
    NonResidue,
    NonSquareObstruction,
    ValidationError,
)
from .field_arith import (
    ExtensionField,
    FieldElement,
    PrimeModulus,
    build_extension,
    is_prime,
    legendre_symbol,
    prime_modulus,
    sqrt_mod_p,
)
from .hasse_serre import (
    LegendreCurve,
    TraceSequence,
    attains_serre_fp,
    attains_serre_fp3,
    floor_two_sqrt,
    hasse_poly_eval,
    legendre_count_fp,
    maximal_fp2,
    mod4_check,
    serre_bound,
    trace_mod_p,
    zeta_lift,
)
from .howe_factory import (
    DecompositionReport,
    HoweCounts,
    HoweParams,
    SplitData,
    ValidationResult,
    decompose_genus5,
    direct_counts,
    genus_of_howe,
    howe_counts,
    howe_models,
    howe_point_count,
    is_hyperelliptic_howe,
    serre_verdicts,
    split_genus2,
    validate,
)
from .search_engine import (
    SearchConfig,
    SearchHit,
    SearchStats,
    Target,
    enumerate_hits,
    random_valid_params,
    solve_linear_root,
)

__version__ = "0.1.0"
