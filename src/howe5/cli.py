"""Command line front end.

Exit codes: 0 on success, 1 on a Howe5Error (a mathematical check fails or a
count is infeasible), 2 on a ValueError, an OSError or an argparse usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import Optional, Sequence

from . import tables
from .curve_models import COUNT_CAP, CountMethod, HyperellipticModel, PointCount, count_points
from .errors import Howe5Error
from .hasse_serre import LegendreCurve, Target, serre_bound, zeta_lift
from .howe_factory import DecompositionReport, HoweParams, direct_counts, howe_counts, validate
from .search_engine import CSV_HEADER, ENUMERATED_SLOTS, SearchConfig, SearchStats, enumerate_hits

SHALLOW_DIRECT_LIMIT = 100_000


def _ints_csv(n: int, what: str):
    def parse(text: str) -> tuple[int, ...]:
        try:
            vals = tuple(int(t) for t in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(f"{what}: expected integers, got {text!r}")
        if len(vals) != n:
            raise argparse.ArgumentTypeError(f"{what}: expected {n} values, got {len(vals)}")
        return vals

    return parse


def _fix_pair(text: str) -> tuple[str, int]:
    if "=" not in text:
        raise argparse.ArgumentTypeError(f"--fix takes slot=value, got {text!r}")
    slot, _, raw = text.partition("=")
    slot = slot.strip()
    if slot not in ENUMERATED_SLOTS:
        raise argparse.ArgumentTypeError(
            f"--fix slot must be one of {', '.join(ENUMERATED_SLOTS)}"
        )
    try:
        return slot, int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"--fix {slot}: bad integer {raw!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="howe5",
        description="Genus-5 curves with split Jacobians over prime fields: "
        "construction, point counts, bound checks, and parameter search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ver = sub.add_parser(
        "verify-tables", help="recheck the bundled parameter tables against the oracle"
    )
    p_ver.add_argument(
        "table", nargs="?", type=int, choices=(1, 2, 3), default=None,
        help="table number; omit to verify all three",
    )
    p_ver.add_argument(
        "--data", metavar="PATH", help="read the rows of the given table from this CSV instead"
    )
    p_ver.add_argument(
        "--deep", action="store_true",
        help=f"direct extension-field counts up to q={COUNT_CAP} instead of {SHALLOW_DIRECT_LIMIT}",
    )

    p_dec = sub.add_parser("decompose", help="split one genus-5 curve and report verdicts")
    p_dec.add_argument("--p", type=int)
    p_dec.add_argument("--alpha1", type=int)
    p_dec.add_argument("--alpha2", type=int)
    p_dec.add_argument("--a", type=_ints_csv(6, "--a"), metavar="A1,...,A6")
    p_dec.add_argument("--b", type=_ints_csv(2, "--b"), metavar="B5,B6")
    p_dec.add_argument("--from-json", metavar="PATH", help="read parameters from a JSON file")
    p_dec.add_argument(
        "--ext", type=int, action="append", choices=(1, 2, 3), metavar="J",
        help="also count over the degree-J extension (repeatable)",
    )
    p_dec.add_argument("--json", action="store_true", help="machine-readable output")

    p_cnt = sub.add_parser("count", help="count points on one curve")
    p_cnt.add_argument("--p", type=int, required=True)
    p_cnt.add_argument("--theta", type=int, help="twist of a Legendre-form curve")
    p_cnt.add_argument("--lambda", dest="lam", type=int, help="Legendre parameter")
    p_cnt.add_argument("--alpha", type=int, help="leading twist of a general model")
    p_cnt.add_argument(
        "--roots", type=str, metavar="R1,R2,...",
        help="3 to 6 distinct branch x-coordinates",
    )
    p_cnt.add_argument("--ext", type=int, default=1, choices=(1, 2, 3), metavar="J")

    p_sea = sub.add_parser("search", help="search a prime range for bound-attaining curves")
    p_sea.add_argument(
        "--target", required=True, choices=[t.value for t in Target],
    )
    p_sea.add_argument("--p-min", type=int, required=True)
    p_sea.add_argument("--p-max", type=int, required=True)
    p_sea.add_argument("--max-candidates", type=int)
    p_sea.add_argument("--max-hits", type=int)
    p_sea.add_argument("--time-budget", type=float, metavar="SECONDS")
    p_sea.add_argument("--seed", type=int)
    p_sea.add_argument(
        "--fix", type=_fix_pair, action="append", default=[], metavar="SLOT=V",
        help="pin an enumerated root slot (repeatable)",
    )
    p_sea.add_argument("--out", metavar="PATH", help="write hits as CSV")
    p_sea.add_argument("--jsonl", metavar="PATH", help="write hits as JSON lines")
    p_sea.add_argument("--quiet", action="store_true", help="summary line only")

    sub.add_parser("selftest", help="run the built-in worked examples")

    return parser


# ---------------------------------------------------------------------------
# verify-tables


def _verify_row(params: HoweParams, table: int, deep: bool) -> bool:
    """Table 1 checks the count over F_p.  Tables 2 and 3 check the count
    lifted to F_{p^j}, and also the direct oracle count where p^j is within
    the direct-count limit."""
    p = params.mod.p
    vr = validate(params)
    if not vr.ok:
        print(f"  p={p}: FAIL invalid ({'; '.join(v.code for v in vr.violations)})")
        return False
    try:
        base = howe_counts(vr.split)
        target = tables.TABLE_TARGETS[table]
        j = target.degree
        field, label = f"F_p^{j}" if j > 1 else "F_p", "maximal" if j == 2 else "bound"
        if target.attained(vr.split.curves) is not True:
            print(f"  p={p}: FAIL {label} predicate over {field}")
            return False
        want = serre_bound(p ** j, 5)
        count = base.lift(j).total
        ok = count == want
        line = f"  p={p}: #C({field}) {'=' if j == 1 else 'lifted ='} {count}"
        if j > 1 and p ** j <= (COUNT_CAP if deep else SHALLOW_DIRECT_LIMIT):
            direct = direct_counts(params, j)[3]
            ok = ok and direct == want
            line += f", direct = {direct}"
        print(f"{line}, {label} = {want} -> {'PASS' if ok else 'FAIL'}")
        return ok
    except Howe5Error as exc:
        print(f"  p={p}: FAIL {exc}")
        return False


def cmd_verify_tables(ns) -> int:
    if ns.data and ns.table is None:
        raise ValueError("verify-tables --data needs the table number the rows claim")
    wanted = [ns.table] if ns.table else [1, 2, 3]
    failures = 0
    for t in wanted:
        if ns.data:
            with open(ns.data) as fh:
                rows = tables.parse_rows(fh.read(), ns.data)
        else:
            rows = tables.load_table(t)
        print(f"table {t} ({tables.TABLE_TARGETS[t].value}): {len(rows)} rows")
        for params in rows:
            if not _verify_row(params, t, ns.deep):
                failures += 1
    if failures:
        print(f"{failures} row(s) FAILED")
        return 1
    print("all rows verified")
    return 0


# ---------------------------------------------------------------------------
# decompose


def _params_from_ns(ns) -> HoweParams:
    if ns.from_json:
        with open(ns.from_json) as fh:
            return HoweParams.from_json_dict(json.load(fh))
    missing = [
        name
        for name, v in (("--p", ns.p), ("--alpha1", ns.alpha1), ("--alpha2", ns.alpha2),
                        ("--a", ns.a), ("--b", ns.b))
        if v is None
    ]
    if missing:
        raise ValueError(f"decompose needs {', '.join(missing)} (or --from-json)")
    return HoweParams.from_ints(ns.p, ns.alpha1, ns.alpha2, ns.a, ns.b)


def cmd_decompose(ns) -> int:
    params = _params_from_ns(ns)
    exts = tuple(sorted(set(ns.ext or [1])))
    report = DecompositionReport.build(params, exts=exts)
    if ns.json:
        print(report.to_json())
        return 0
    p = params.mod.p
    print(f"p = {p}")
    print(f"twists: alpha1 = {params.alpha1}, alpha2 = {params.alpha2}")
    print(f"roots A: {' '.join(map(str, params.a))}")
    print(f"roots B: {' '.join(map(str, params.b))}")
    sd = report.split
    print(f"cross-ratios: a = {sd.a} b = {sd.b} c = {sd.c}")
    for i, E in enumerate(sd.curves, start=1):
        print(f"  E{i}: y^2 = {E.theta} x (x-1) (x-{E.lam})")
    for j in exts:
        c = report.counts[j]
        parts = " + ".join(str(n) for n in c.e)
        print(f"counts over F_p^{j}: C1={c.c1} C2={c.c2} C3={c.c3} | "
              f"E: {parts} | C = {c.total}")
    v = report.verdicts._asdict()
    def show(x):
        return "n/a" if x is None else ("yes" if x else "no")
    print(f"meets the genus-5 bound over F_p:   {show(v['serre_fp'])}")
    print(f"maximal over F_p^2:                 {show(v['maximal_fp2'])}")
    print(f"meets the genus-5 bound over F_p^3: {show(v['serre_fp3'])}")
    return 0


# ---------------------------------------------------------------------------
# count


def cmd_count(ns) -> int:
    legendre_style = ns.theta is not None or ns.lam is not None
    general_style = ns.alpha is not None or ns.roots is not None
    if legendre_style == general_style:
        raise ValueError("count needs either --theta/--lambda or --alpha/--roots")
    if legendre_style:
        if ns.theta is None or ns.lam is None:
            raise ValueError("count needs both --theta and --lambda")
        model = LegendreCurve.from_ints(ns.p, ns.theta, ns.lam).model()
    else:
        if ns.alpha is None or ns.roots is None:
            raise ValueError("count needs both --alpha and --roots")
        try:
            roots = tuple(int(t) for t in ns.roots.split(","))
        except ValueError:
            raise ValueError(f"--roots: expected integers, got {ns.roots!r}")
        model = HyperellipticModel.from_ints(ns.p, ns.alpha, roots)
    j = ns.ext
    if model.genus == 1 and j > 1:
        n1 = count_points(model, 1).count
        pc = PointCount(ns.p ** j, zeta_lift(n1, ns.p, j), CountMethod.ZETA_LIFT, genus=1)
        how = ", recovered from the F_p trace"
    else:
        # past COUNT_CAP count_points raises a Howe5Error, which main turns into exit 1
        pc, how = count_points(model, j), ""
    print(f"#C(F_{ns.p}^{j}) = {pc.count}  (genus {model.genus}, trace {pc.trace}{how})")
    return 0


# ---------------------------------------------------------------------------
# search


def cmd_search(ns) -> int:
    try:
        config = SearchConfig(
            p_min=ns.p_min,
            p_max=ns.p_max,
            target=Target(ns.target),
            max_candidates=ns.max_candidates,
            max_hits=ns.max_hits,
            time_budget=ns.time_budget,
            seed=ns.seed,
            fixed=tuple(ns.fix),
        )
    except ValueError as exc:
        print(f"bad search configuration: {exc}", file=sys.stderr)
        return 2
    # two writers on one file would interleave their lines
    if ns.out and ns.jsonl and os.path.realpath(ns.out) == os.path.realpath(ns.jsonl):
        raise ValueError(f"--out and --jsonl name the same file: {ns.out}")
    stats = SearchStats()
    with contextlib.ExitStack() as stack:
        # opened before the search, so an unwritable path fails at once
        csv_fh, jsonl_fh = (stack.enter_context(open(path, "w")) if path else None
                            for path in (ns.out, ns.jsonl))
        if csv_fh:
            csv_fh.write(CSV_HEADER + "\n")
        # each hit is written as it is found, so no list of hits is kept
        for h in enumerate_hits(config, stats):
            if csv_fh:
                csv_fh.write(h.csv_line())
            if jsonl_fh:
                jsonl_fh.write(h.jsonl_line())
            if not ns.quiet:
                row = h.row()
                counts = " ".join(f"N{j}={n}" for j, n in sorted(h.counts.items()))
                print(
                    f"p={row[0]} alpha1={row[1]} alpha2={row[2]} "
                    f"a={','.join(str(v) for v in row[3:9])} "
                    f"b={','.join(str(v) for v in row[9:])} {counts}"
                )
    print(
        f"search {config.target.value} p in [{config.p_min}, {config.p_max}]: "
        f"{stats.hits} hit(s), {stats.probes} probes, "
        f"{stats.confirm_failures} confirm failure(s), "
        f"{'truncated, ' if stats.truncated else ''}{stats.elapsed:.2f}s"
    )
    return 0


# ---------------------------------------------------------------------------
# selftest


def cmd_selftest(ns) -> int:
    checks = 0

    def check(label: str, got, want) -> bool:
        nonlocal checks
        checks += 1
        ok = got == want
        print(f"  {label}: {'ok' if ok else f'FAIL (got {got}, want {want})'}")
        return ok

    print("worked example, p = 11:")
    rep = DecompositionReport.build(
        HoweParams.from_ints(11, 4, 6, (5, 3, 10, 7, 6, 8), (9, 2)), exts=(1, 2))
    pairs = [(e.theta, e.lam) for e in rep.split.curves]
    ok = check("factor curves", pairs, [(8, 6), (8, 2), (8, 2), (8, 10), (3, 10)])
    ok &= check("#C(F_11)", rep.counts[1].total, 12)
    ok &= check("#C(F_121)", rep.counts[2].total, 232)
    ok &= check("quadratic maximality", rep.verdicts.maximal_fp2, True)

    print("worked example, p = 499:")
    rep = DecompositionReport.build(
        HoweParams.from_ints(499, 47, 436, (2, 1, 10, 55, 92, 84), (36, 275)))
    ok &= check("#C(F_499)", rep.counts[1].total, 720)
    ok &= check("bound over F_p", rep.verdicts.serre_fp, True)

    print("worked example, p = 37:")
    rep = DecompositionReport.build(
        HoweParams.from_ints(37, 17, 6, (0, 1, 3, 31, 34, 13), (29, 30)), exts=(3,))
    ok &= check("#C(F_37^3) from traces", rep.counts[3].total, serre_bound(37 ** 3, 5))
    ok &= check("cubic bound predicate", rep.verdicts.serre_fp3, True)

    print(f"{checks} checks {'passed' if ok else 'FAILED'}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    handlers = {
        "verify-tables": cmd_verify_tables,
        "decompose": cmd_decompose,
        "count": cmd_count,
        "search": cmd_search,
        "selftest": cmd_selftest,
    }
    try:
        return handlers[ns.command](ns)
    except Howe5Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
