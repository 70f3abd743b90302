"""The scalar scan kernel, kept as the reference for search_engine._scan_chunk.

This is the one-probe-at-a-time loop the search ran before its a5 and b5
filters were vectorised.  tests/test_search_engine.py requires the vectorised
kernel to return exactly what this one returns: the same hits in the same
order and the same (prefixes, probes, tuples, confirm_failures, truncated).
It takes the chunk arguments without the deadline, (p, cfg, a1, quota).

It derives a6 and b6 by its own linear solve of the compatibility
condition (solve_missing_root), not in the cross-ratio frame the search
works in, so the equality checks the frame against an independent
derivation.
"""

from howe5.field_arith import residue_tables
from howe5.howe_factory import HoweParams
from howe5.search_engine import (
    Target,
    _class_masks,
    _confirm,
    _tables,
    _visit_orders,
)


def solve_missing_root(x1, x2, x3, x4, w, p, inv):
    """The x with (x2 - x4)(x1 - x)(x3 - w) = (x2 - x)(x1 - w)(x3 - x4),
    the condition being linear in x; None when it has no solution or the
    solution is one of x1, x2, x3, x4 and w."""
    k1 = (x2 - x4) * (x3 - w) % p
    k2 = (x1 - w) * (x3 - x4) % p
    u = (k2 - k1) % p
    if u == 0:
        return None
    x = (k2 * x2 - k1 * x1) * inv[u] % p
    if x in (x1 % p, x2 % p, x3 % p, x4 % p, w % p):
        return None
    return x


def _scan_chunk(p, cfg, a1, quota) -> tuple[list, tuple]:
    """Scan every candidate with the given a1; returns (hits, stats), each hit
    (params, counts)."""
    inv, chi, nonres = _tables(p)
    sqrt_tab = residue_tables(p).sqrt.tolist()
    mask = _class_masks(p, cfg.target)
    maximal = cfg.target is Target.MAXIMAL_FP2
    _, ord_a2, ord_a3, ord_a4, ord_a5, ord_b5 = _visit_orders(p, cfg)

    prefixes = probes = tuples = confirm_failures = 0
    truncated = False
    hits: list[tuple[HoweParams, dict]] = []
    max_hits = cfg.max_hits

    def emit(alpha1: int, alpha2: int, roots6, b5: int, b6: int) -> bool:
        """Confirm and record; returns True when the chunk should stop."""
        nonlocal tuples, confirm_failures
        params = HoweParams.from_ints(p, alpha1, alpha2, roots6, (b5, b6))
        counts, = _confirm([params], cfg.target)
        if counts is None:
            confirm_failures += 1
            return False
        hits.append((params, counts))
        return max_hits is not None and len(hits) >= max_hits

    for a2 in ord_a2:
        if a2 == a1:
            continue
        for a3 in ord_a3:
            if a3 in (a1, a2):
                continue
            d_a23 = (a2 - a3) % p
            for a4 in ord_a4:
                if a4 in (a1, a2, a3):
                    continue
                den_a = d_a23 * (a1 - a4) % p
                a = (a1 - a3) * (a2 - a4) % p * inv[den_a] % p
                one_minus_a = (1 - a) % p
                inv_one_minus_a = inv[one_minus_a]
                prefixes += 1
                for a5 in ord_a5:
                    if a5 in (a1, a2, a3, a4):
                        continue
                    probes += 1
                    if quota is not None and probes > quota:
                        truncated = True
                        stats = (prefixes, probes, tuples, confirm_failures, truncated)
                        return hits, stats
                    b = (a1 - a3) * (a2 - a5) % p * inv[d_a23 * (a1 - a5) % p] % p
                    s = sqrt_tab[a * (a - b) % p]
                    if s == 0:
                        continue
                    pref1 = one_minus_a * inv[(b - 1) % p] % p
                    lam1 = pref1 * (b - 2 * a + 2 * s) % p
                    lam2 = pref1 * (b - 2 * a - 2 * s) % p
                    m12 = mask[lam1] & mask[lam2]
                    if m12 == 0:
                        continue
                    a6 = solve_missing_root(a1, a2, a3, a4, a5, p, inv)
                    if a6 is None:
                        continue
                    base6 = (a1, a2, a3, a4, a5, a6)
                    g1 = (
                        d_a23
                        * ((a1 - a4) % p)
                        % p
                        * ((a1 - a5) % p)
                        % p
                        * ((a1 - a6) % p)
                        % p
                    )
                    chi_u1 = chi[g1 * ((1 - b) % p) % p * inv_one_minus_a % p]
                    for b5 in ord_b5:
                        if b5 in base6:
                            continue
                        c = (a1 - a3) * (a2 - b5) % p * inv[d_a23 * (a1 - b5) % p] % p
                        s2 = sqrt_tab[a * (a - c) % p]
                        if s2 == 0:
                            continue
                        pref2 = one_minus_a * inv[(c - 1) % p] % p
                        lam3 = pref2 * (c - 2 * a + 2 * s2) % p
                        lam4 = pref2 * (c - 2 * a - 2 * s2) % p
                        m34 = mask[lam3] & mask[lam4]
                        if m34 == 0:
                            continue
                        b6 = solve_missing_root(a1, a2, a3, a4, b5, p, inv)
                        if b6 is None or b6 in (a5, a6):
                            continue
                        tuples += 1
                        lam5 = (
                            (a5 - b5)
                            * (a6 - b6)
                            % p
                            * inv[(a5 - b6) * (a6 - b5) % p]
                            % p
                        )
                        if maximal:
                            if mask[lam5] == 0:
                                continue
                            if emit(1, 1, base6, b5, b6):
                                stats = (prefixes, probes, tuples, confirm_failures, truncated)
                                return hits, stats
                            continue
                        g2 = (
                            d_a23
                            * ((a1 - a4) % p)
                            % p
                            * ((a1 - b5) % p)
                            % p
                            * ((a1 - b6) % p)
                            % p
                        )
                        chi_u2 = chi[g2 * ((1 - c) % p) % p * inv_one_minus_a % p]
                        chi_w5 = chi[(a5 - b6) * (a6 - b5) % p]
                        stop = False
                        for e1 in (1, -1):
                            if not m12 & (1 if e1 == 1 else 2):
                                continue
                            for e2 in (1, -1):
                                if not m34 & (1 if e2 == 1 else 2):
                                    continue
                                eps5 = e1 * chi_u1 * e2 * chi_u2 * chi_w5
                                if not mask[lam5] & (1 if eps5 == 1 else 2):
                                    continue
                                alpha1 = 1 if e1 * chi_u1 == 1 else nonres
                                alpha2 = 1 if e2 * chi_u2 == 1 else nonres
                                if emit(alpha1, alpha2, base6, b5, b6):
                                    stop = True
                                    break
                            if stop:
                                break
                        if stop:
                            stats = (prefixes, probes, tuples, confirm_failures, truncated)
                            return hits, stats
    stats = (prefixes, probes, tuples, confirm_failures, truncated)
    return hits, stats
