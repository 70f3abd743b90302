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
    weil_interval,
)
from .errors import (
    CapExceeded,
    CrossRatioFailed,
    DecompositionMismatch,
    Degenerate,
    HasseViolation,
    Howe5Error,
    HypothesisViolated,
    InexactTraces,
    NonResidue,
    NonSquareObstruction,
    ValidationError,
)
from .field_arith import (
    PrimeModulus,
    build_extension,
    is_prime,
    legendre_symbol,
    prime_modulus,
    sqrt_mod_p,
)
from .hasse_serre import (
    LegendreCurve,
    Target,
    attains_serre_fp,
    attains_serre_fp3,
    floor_two_sqrt,
    maximal_fp2,
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
    howe_counts,
    validate,
)
from .search_engine import (
    SearchConfig,
    SearchHit,
    SearchStats,
    enumerate_hits,
)

__version__ = "0.1.0"
