"""Hasse polynomial machinery, Serre-bound arithmetic, exact traces, and
the three attainment predicates for twisted Legendre curves
y^2 = theta * x (x - 1) (x - lambda) over F_p.

H_p(lambda) is read off the power table of the least primitive root g:
with lambda = g^k and binom(m, i)^2 = g^e[i], it is the sum of g^(e[i] + ik)
over i (hasse_residues), one numpy gather for any number of lambdas.
Each LegendreCurve holds its value once (its hasse property; validate
evaluates a split's five together); exact_trace reads its trace t off that
residue, and legendre_traces, the table of t(lambda) for every lambda (a
direct correlation for small p, an FFT for large), serves only the search.
Each bound target, over F_{p^j}, is one rule:
lift_trace(t, p, j) = -floor(2 sqrt(p^j)).  The predicates, the paper's
per-curve criteria, decide the same from congruences mod p on H_p(lambda);
Target is the one definition of each target, its degree j, the least prime
its predicate decides from, the traces a passing factor can have
(goal_traces) and the predicate over all five factors.  The zeta lift turns
an exact count over F_p into one over F_{p^j}.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from enum import Enum

import numpy as np

from . import curve_models
from .errors import HasseViolation, HypothesisViolated, InexactTraces
from .field_arith import (
    TABLE_CACHE, CheckedRecord, PrimeModulus, prime_modulus, require_ints, require_residues,
    residue_tables,
)


class Target(Enum):
    """A bound target: the genus-5 Serre bound over F_{p^j}, j the degree.
    A genus-5 curve split into five Legendre factors attains it when every
    factor passes the target's predicate, which decides from min_prime on."""

    SERRE_FP = "serre-fp"
    MAXIMAL_FP2 = "maximal-fp2"
    SERRE_FP3 = "serre-fp3"

    @property
    def degree(self) -> int:
        """j such that the target is the genus-5 Serre bound over F_{p^j}."""
        return _DEGREES[self]

    @property
    def min_prime(self) -> int:
        """The least p at which the predicate decides attainment."""
        return (17, 3, 11)[self.degree - 1]

    def goal_traces(self, p: int) -> tuple[int, ...]:
        """The traces t over F_p, t^2 <= 4p, that a factor passing the target
        can have: lift_trace(t, p, j) = -floor(2 sqrt(p^j)), and 4 divides p
        + 1 - t, since the factor's 2-torsion points 0, 1 and lambda are
        rational.  Empty when no factor at p passes, so no curve attains
        the target there.  O(sqrt(p)) work, no table."""
        j, bound = self.degree, math.isqrt(4 * p)
        goal = -floor_two_sqrt(p ** j)
        return tuple(t for t in range(-bound, bound + 1)
                     if lift_trace(t, p, j) == goal and (p + 1 - t) % 4 == 0)

    def attained(self, curves: tuple[LegendreCurve, ...]) -> bool | None:
        """Whether all five factors pass the predicate; None below min_prime.
        The predicates are looked up by name at each call, so a wrapper
        bound over a module global is the one called."""
        if curves[0].mod.p < self.min_prime:
            return None
        predicate = (attains_serre_fp, maximal_fp2, attains_serre_fp3)[self.degree - 1]
        return all(predicate(E) for E in curves)


_DEGREES = {target: j for j, target in enumerate(Target, 1)}

# legendre_traces sums directly below this prime and by FFT from it on.  On a
# 2-core host the two cost the same near p = 650 (direct 62 against FFT 70 us
# at p = 599, 78 against 70 us at p = 701), and a search wholly below it never
# imports numpy.fft, about 1 ms of first use.
DIRECT_TRACES_BELOW = 600


class LegendreCurve(CheckedRecord, namedtuple("LegendreCurve", "mod theta lam")):
    """y^2 = theta * x (x - 1) (x - lam) with residues theta != 0 and lam not
    in {0, 1}.  Unlike the other records it has an instance __dict__, for
    hasse."""

    def __new__(cls, mod: PrimeModulus, theta: int, lam: int) -> "LegendreCurve":
        require_residues(mod.p, theta, lam)
        if theta == 0:
            raise ValueError("theta must be nonzero")
        if lam in (0, 1):
            raise ValueError(f"lambda must avoid 0 and 1, got {lam}")
        return tuple.__new__(cls, (mod, theta, lam))

    @classmethod
    def from_ints(cls, p: int, theta: int, lam: int) -> "LegendreCurve":
        require_ints(p, theta, lam)
        return cls(prime_modulus(p), theta % p, lam % p)

    @functools.cached_property
    def hasse(self) -> int:
        """H_p(lambda) as a canonical residue, evaluated once per curve: the
        predicates over every target read it.  validate stores it for the
        five factors of a split, evaluated together (hasse_residues)."""
        return hasse_residues(self.mod.p, [self.lam])[0]

    def model(self) -> curve_models.HyperellipticModel:
        return curve_models.HyperellipticModel(self.mod, self.theta, (0, 1, self.lam))


@functools.lru_cache(maxsize=TABLE_CACHE)
def _hasse_gather(p: int) -> tuple:
    """What hasse_residues reads at p: the log and power tables of g, the
    least primitive root, i in [0, m] and e, g^e[i] = binom(m, i)^2 with m =
    (p - 1) / 2.  log binom(m, i) is the running sum of log(m - j + 1) -
    log(j) over j <= i, every factor being in [1, m]."""
    m, t = (p - 1) // 2, residue_tables(p)
    e = np.zeros(m + 1, dtype=np.int64)
    np.add.accumulate(t.log[m:0:-1] - t.log[1 : m + 1], out=e[1:])
    e *= 2
    e %= p - 1
    return t.log, t.powers, np.arange(m + 1, dtype=np.int64), e


def hasse_residues(p: int, lams) -> list[int]:
    """H_p(lam) mod p for each residue lam in [0, p), in one numpy pass: with
    lam = g^k, H_p(lam) = sum_i g^(e[i] + i k), e the coefficient
    logarithms, exponents taken mod p - 1.  H_p(0) = 1, 0 having no log."""
    log, powers, steps, e = _hasse_gather(p)
    x = log[lams][:, None] * steps
    x += e
    x %= p - 1
    # m + 1 terms below p sum to under 2^39
    h = (np.add.reduce(powers[x], axis=-1) % p).tolist()
    return [1 if lam == 0 else v for lam, v in zip(lams, h)] if 0 in lams else h


@functools.lru_cache(maxsize=TABLE_CACHE)
def legendre_traces(p: int) -> np.ndarray:
    """Read-only int64 array t[v] = -sum_x chi(x (x - 1)) chi(x - v), v in
    [0, p), the trace of y^2 = x (x - 1) (x - v) for v not in {0, 1}: one
    cyclic cross-correlation of two +-1 vectors, summed directly in float64
    below DIRECT_TRACES_BELOW (O(p^2), exact) and from there on by a real
    FFT pair of power-of-two length (O(p log p)), then rounded.  Raises
    InexactTraces when a sum lies 1/4 or more from an integer or a trace
    breaks the Hasse bound."""
    chi = residue_tables(p).chi
    # s[v] = sum_x g[x] chi[x - v] with g[x] = chi[x] chi[x - 1]; x - v + p
    # lies in [1, 2p), so s[v] is lag p - v of g against chi repeated twice
    if p < DIRECT_TRACES_BELOW:
        chi = chi.astype(np.float64)
        s = np.correlate(np.concatenate((chi, chi)), chi * np.roll(chi, 1))
    else:
        n = 1 << (2 * p - 1).bit_length()
        g_hat = np.fft.rfft(chi * np.roll(chi, 1), n)
        s = np.fft.irfft(np.conj(g_hat) * np.fft.rfft(np.concatenate((chi, chi)), n), n)
    s = s[p:0:-1]
    t = -np.rint(s).astype(np.int64)
    if np.abs(s + t).max() >= 0.25 or (t * t).max() > 4 * p:
        raise InexactTraces(f"the trace table at p={p} is not exact")
    t.flags.writeable = False
    return t


def hasse_poly_table(p: int) -> np.ndarray:
    """H_p evaluated at every residue, H[v] for v in [0, p).  The trace t[v]
    is congruent to (-1)^m H_p(v) mod p, so H[v] = (-1)^m t[v] mod p."""
    return (-1) ** ((p - 1) // 2) * legendre_traces(p) % p


def lift_trace(t, p: int, j: int):
    """The trace over F_{p^j}, j in {1, 2, 3}, of an elliptic curve with trace
    t over F_p: t, t^2 - 2p or t^3 - 3pt.  Works elementwise on int64 arrays."""
    return (t, t * t - 2 * p, t * t * t - 3 * p * t)[j - 1]


def floor_two_sqrt(q: int) -> int:
    """floor(2 * sqrt(q)) computed exactly, no floating point; ValueError
    (from math.isqrt) for a negative q."""
    return math.isqrt(4 * q)


def serre_bound(q: int, genus: int) -> int:
    """q + 1 + genus * floor(2 sqrt(q)), the Serre upper bound on #C(F_q)."""
    if genus < 0:
        raise ValueError("genus must be nonnegative")
    return q + 1 + genus * floor_two_sqrt(q)


def trace_mod_p(curve: LegendreCurve) -> int:
    """(-theta)^m * H_p(lambda) mod p, in [0, p): the Frobenius trace of the
    curve mod p."""
    p = curve.mod.p
    return pow(p - curve.theta, curve.mod.m, p) * curve.hasse % p


def exact_trace(curve: LegendreCurve) -> int:
    """The trace t over F_p: t = h mod p, h = (-theta)^m H_p(lambda) mod p,
    4 | p + 1 - t (the 2-torsion is rational) and t^2 <= 4p, unique as 4p
    exceeds the Hasse interval.  Raises HasseViolation when h admits no t."""
    p, h = curve.mod.p, trace_mod_p(curve)
    t = h + p * ((p + 1 - h) * p % 4)
    if t > 2 * p:
        t -= 4 * p
    if t * t > 4 * p:
        raise HasseViolation(f"Hasse residue {h} admits no trace for p={p}")
    return t


def attains_serre_fp(curve: LegendreCurve) -> bool:
    """Serre-bound attainment over F_p, decided by congruence.  Needs p >= 17,
    where the Hasse interval pins the trace down uniquely."""
    p, least = curve.mod.p, Target.SERRE_FP.min_prime
    if p < least:
        raise HypothesisViolated(f"predicate needs p >= {least}, got {p}")
    return trace_mod_p(curve) == (-floor_two_sqrt(p)) % p


def maximal_fp2(curve: LegendreCurve) -> bool:
    """Maximality over F_{p^2}; holds iff H_p(lambda) = 0, independent of theta."""
    return curve.hasse == 0


def attains_serre_fp3(curve: LegendreCurve) -> bool:
    """Serre-bound attainment over F_{p^3}, for p >= 11: the canonical residue
    h of the trace must satisfy h^3 - 3ph = -floor(2 p sqrt(p)) exactly."""
    p, least = curve.mod.p, Target.SERRE_FP3.min_prime
    if p < least:
        raise HypothesisViolated(f"predicate needs p >= {least}, got {p}")
    return lift_trace(trace_mod_p(curve), p, 3) == -floor_two_sqrt(p ** 3)


def zeta_lift(n1: int, p: int, j: int) -> int:
    """Exact count over F_{p^j}, j in {1, 2, 3}, of an elliptic curve with
    n1 points over F_p: p^j + 1 minus the lifted trace.  Raises
    HasseViolation when n1 breaks the Hasse bound."""
    if j not in (1, 2, 3):
        raise ValueError(f"j must be 1, 2 or 3, got {j}")
    t = p + 1 - n1
    if t * t > 4 * p:
        raise HasseViolation(f"count {n1} violates the Hasse bound for p={p}")
    return p ** j + 1 - lift_trace(t, p, j)
